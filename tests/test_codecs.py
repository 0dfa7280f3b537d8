"""The array codecs of ``dustlab.formats`` against the readers and writers they replaced.

``oracle_parse_bgr``, ``oracle_dump_cad`` and ``oracle_parse_cad`` are the
previous per-row and per-character implementations, kept verbatim (with
the ``Quadrant`` enum they used) as references.  The array codecs must
accept and reject exactly the inputs the oracles did, with two deliberate
exceptions: a file holding any non-ASCII byte is rejected (the oracles
read decoded text and let non-ASCII digits, spaces and line breaks through
in places), and a CAD header whose depth is negative or beyond 2**63 - 1
is rejected (the oracle accepted it when no address line followed).
"""

import math
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustlab.cantor import generate_cantor
from dustlab.errors import BudgetError, FormatError, ParameterError
from dustlab.formats import (dump_bgr, dump_cad, parse_bgr, parse_cad, read_cad, write_bgr,
                             write_cad)
from dustlab.geometry import Alpha, BoxGrid, Square


class Quadrant(IntEnum):
    """Corner selector for one subdivision step; letters follow the CAD format."""

    SW = 0
    SE = 1
    NW = 2
    NE = 3

    @property
    def x_bit(self) -> int:
        return int(self) & 1

    @property
    def y_bit(self) -> int:
        return (int(self) >> 1) & 1

    @property
    def letter(self) -> str:
        return "ABCD"[int(self)]

    @classmethod
    def from_letter(cls, letter: str) -> "Quadrant":
        idx = "ABCD".find(letter)
        if idx < 0:
            raise ParameterError(f"unknown quadrant letter {letter!r}, expected one of A B C D")
        return cls(idx)


def oracle_parse_bgr(text: str) -> BoxGrid:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty grid file")
    fields = lines[0].split()
    if len(fields) != 6 or fields[0] != "bgr" or fields[1] != "1":
        raise FormatError(f"bad grid header {lines[0]!r}")
    try:
        m = int(fields[2])
        cx, cy, side = (float(f) for f in fields[3:6])
    except ValueError as exc:
        raise FormatError(f"bad grid header {lines[0]!r}") from exc
    if m < 0 or not all(map(math.isfinite, (cx, cy, side))) or not side > 0.0:
        raise FormatError(f"bad grid header {lines[0]!r}: need level >= 0, a finite corner "
                          f"and a finite positive side")
    n = 1 << m
    body = lines[1:]
    if len(body) != n:
        raise FormatError(f"expected {n} grid rows, found {len(body)}")
    bits = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(body):
        if len(row) != n or set(row) - {"0", "1"}:
            raise FormatError(f"bad grid row {i + 1}: {row!r}")
        bits[n - 1 - i] = np.frombuffer(row.encode(), dtype=np.uint8) == ord("1")
    return BoxGrid.adopt(Square((cx, cy), side), m, bits)


def oracle_dump_cad(alpha: Alpha, depth: int, words) -> str:
    header = f"cad 1 {float(alpha)!r} {depth}"
    lines = ["".join(Quadrant(q).letter for q in word) for word in words]
    return "\n".join([header] + lines) + "\n"


def oracle_parse_cad(text: str) -> tuple[Alpha, int, list[tuple[Quadrant, ...]]]:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty address file")
    fields = lines[0].split()
    if len(fields) != 4 or fields[0] != "cad" or fields[1] != "1":
        raise FormatError(f"bad address header {lines[0]!r}")
    try:
        alpha = Alpha(float(fields[2]))
        depth = int(fields[3])
    except ValueError as exc:
        raise FormatError(f"bad address header {lines[0]!r}") from exc
    words = []
    for i, line in enumerate(lines[1:]):
        if len(line) != depth:
            raise FormatError(f"address on line {i + 2} has length {len(line)}, expected {depth}")
        try:
            words.append(tuple(Quadrant.from_letter(ch) for ch in line))
        except Exception as exc:
            raise FormatError(f"bad address on line {i + 2}: {line!r}") from exc
    return alpha, depth, words


def _outcome(parse, data):
    """Parse result, or None when the parser raises FormatError."""
    try:
        return parse(data)
    except FormatError:
        return None


def _oracle_outcome(parse, data: bytes):
    """Oracle result on the decoded file; undecodable bytes are a rejection."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return _outcome(parse, text)


def same_grid(a: BoxGrid, b: BoxGrid) -> bool:
    return a.bounds == b.bounds and a.level == b.level and np.array_equal(a.bits, b.bits)


def same_cad(new, old) -> bool:
    alpha, depth, codes = new
    return (float(alpha) == float(old[0]) and depth == old[1] and codes.dtype == np.uint8
            and codes.shape == (len(old[2]), depth)
            and codes.tolist() == [[int(q) for q in w] for w in old[2]])


def assert_agrees(parse, oracle, data: bytes, same) -> None:
    new = _outcome(parse, data)
    if not data.isascii():
        assert new is None, "a file holding a non-ASCII byte must be rejected"
        return
    assert same_or_none(_outcome(parse, data.decode("ascii")), new, same)
    old = _oracle_outcome(oracle, data)
    if old is not None and oracle is oracle_parse_cad and not 0 <= old[1] < 2 ** 63:
        assert new is None, "a CAD depth out of range must be rejected"
        return
    assert same_or_none(new, old, same), (data, new, old)


def same_or_none(a, b, same) -> bool:
    return a is None and b is None or a is not None and b is not None and same(a, b)


bounds_st = st.one_of(
    st.just(Square.unit()),
    st.builds(lambda x, y, s: Square((x, y), s),
              st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6)))


@st.composite
def grids(draw, max_level):
    level = draw(st.integers(0, max_level))
    n = 1 << level
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    bits = np.random.default_rng(seed).random((n, n)) < density
    return BoxGrid(draw(bounds_st), level, bits)


@st.composite
def code_arrays(draw, max_depth, max_rows):
    depth = draw(st.integers(0, max_depth))
    rows = draw(st.integers(0, max_rows))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    alpha = Alpha(draw(st.floats(0.01, 0.49)))
    return alpha, depth, np.random.default_rng(seed).integers(0, 4, size=(rows, depth), dtype=np.uint8)


#: Byte strings the mutations insert or substitute: cell and address letters,
#: other ASCII, every ASCII line break, other control bytes, and non-ASCII
#: bytes (invalid UTF-8 alone, and the encodings of U+00E9, U+0085, U+2028).
_CHUNKS = [b"0", b"1", b"A", b"D", b"E", b"a", b"2", b"x", b"-", b".", b" ", b"\t",
           b"\n", b"\r", b"\r\n", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x00",
           b"\xff", b"\x80", b"\xc3", b"\xc3\xa9", b"\xc2\x85", b"\xe2\x80\xa8"]


@st.composite
def mutated(draw, base: bytes) -> bytes:
    """``base`` after one to three malformations."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "replace", "drop_line", "dup_line",
                                     "extra_line", "strip_end", "crlf", "crlf_one", "cr"]))
        lines = bytes(data).split(b"\n")
        if kind in ("delete", "insert", "replace"):
            i = draw(st.integers(0, len(data)))
            chunk = draw(st.sampled_from(_CHUNKS))
            end = i + (kind != "insert" and i < len(data))
            data[i:end] = b"" if kind == "delete" else chunk
        elif kind in ("drop_line", "dup_line", "crlf_one"):
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = {"drop_line": [], "dup_line": [lines[k]] * 2,
                              "crlf_one": [lines[k] + b"\r"]}[kind]
            data = bytearray(b"\n".join(lines))
        elif kind == "extra_line":
            data += draw(st.sampled_from([b"\n", b"0\n", b"A\n", b"01\n"]))
        elif kind == "strip_end":
            data = bytearray(bytes(data).rstrip(b"\n"))
        else:
            data = bytearray(bytes(data).replace(b"\n", b"\r\n" if kind == "crlf" else b"\r"))
    return bytes(data)


class TestBgrCodec:
    @settings(max_examples=60, deadline=None)
    @given(grids(max_level=9))
    def test_round_trip_matches_oracle(self, grid):
        text = dump_bgr(grid)
        back = parse_bgr(text.encode())
        assert same_grid(back, grid)
        assert same_grid(parse_bgr(text), grid)
        assert same_grid(oracle_parse_bgr(text), grid)
        assert same_grid(parse_bgr(text.replace("\n", "\r\n").encode()), grid)
        assert dump_bgr(back) == text

    @settings(max_examples=10, deadline=None)
    @given(grids(max_level=9))
    def test_file_round_trip(self, tmp_path_factory, grid):
        path = tmp_path_factory.mktemp("bgr") / "g.bgr"
        write_bgr(grid, path)
        assert same_grid(parse_bgr(path.read_bytes()), grid)

    @settings(max_examples=600, deadline=None)
    @given(st.data(), grids(max_level=3))
    def test_malformed_agrees_with_oracle(self, data, grid):
        assert_agrees(parse_bgr, oracle_parse_bgr, data.draw(mutated(dump_bgr(grid).encode())),
                      same_grid)

    @pytest.mark.parametrize("data", [
        b"bgr 1 1 0 0 1\n0\xff\n00\n", b"bgr 1 1 0 0 1\xff\n00\n00\n",
        "bgr 1 1 0 0 1\n0é\n00\n".encode(), "bgr 1 1 0 0 １\n00\n00\n".encode(),
        b"bgr 1 1 0 0 1\n00\r\n00\n0", b"bgr 1 1 0 0 1\n0\x000\n00\n", b"bgr 1 1 0 0 1\n\n00\n",
        b"bgr 1 70 0 0 1\n", b"bgr 1 99999999999999999999 0 0 1\n0\n"])
    def test_rejects(self, data):
        with pytest.raises(FormatError):
            parse_bgr(data)

    @pytest.mark.parametrize("data", [b"bgr 1 1 0 0 1\r\n01\r\n10", b"bgr\t1 1 0 0 1\r01\r10\r",
                                      b"bgr 1 1 0 0 1\n01\x0b10\x0c", b"bgr 1 0 0 0 1\n1"])
    def test_line_breaks_of_text_mode_and_splitlines(self, data):
        assert same_grid(parse_bgr(data), oracle_parse_bgr(data.decode()))


class TestCadCodec:
    @settings(max_examples=200, deadline=None)
    @given(code_arrays(max_depth=6, max_rows=64))
    @example((Alpha(0.25), 0, np.zeros((1, 0), dtype=np.uint8)))
    @example((Alpha(0.25), 0, np.zeros((0, 0), dtype=np.uint8)))
    def test_round_trip_matches_oracle(self, cad):
        alpha, depth, codes = cad
        words = [tuple(int(q) for q in row) for row in codes]
        text = dump_cad(alpha, depth, codes)
        assert text == oracle_dump_cad(alpha, depth, words)
        assert dump_cad(alpha, depth, words) == text
        assert same_cad(parse_cad(text.encode()), oracle_parse_cad(text))
        assert same_cad(parse_cad(text), oracle_parse_cad(text))
        assert np.array_equal(parse_cad(text.encode())[2], codes)

    def test_depth_zero_single_word(self):
        text = dump_cad(Alpha(0.25), 0, [()])
        assert text == "cad 1 0.25 0\n\n" == oracle_dump_cad(Alpha(0.25), 0, [()])
        assert parse_cad(text)[2].shape == (1, 0)

    @settings(max_examples=600, deadline=None)
    @given(st.data(), code_arrays(max_depth=3, max_rows=6))
    def test_malformed_agrees_with_oracle(self, data, cad):
        assert_agrees(parse_cad, oracle_parse_cad, data.draw(mutated(dump_cad(*cad).encode())),
                      same_cad)

    @pytest.mark.parametrize("data", [b"cad 1 0.25 1\nA\n\xffB\n", b"cad 1 0.25\xff 1\nA\n",
                                      b"cad 1 0.25 -1\n", b"cad 1 0.7 1\nA\n", b"cad 1 0.25 1\nA\x00\n",
                                      b"cad 1 0.25 9223372036854775808\n",
                                      b"cad 1 0.25 1000000000000\nA\n"])
    def test_rejects(self, data):
        with pytest.raises(FormatError):
            parse_cad(data)

    def test_deep_empty_list_reads_and_is_refused_by_budget(self, tmp_path):
        path = tmp_path / "deep.cad"
        path.write_bytes(b"cad 1 0.25 4611686018427387904\n")
        alpha, depth, codes = read_cad(path)
        assert codes.shape == (0, 4611686018427387904)
        with pytest.raises(BudgetError):
            generate_cantor(alpha, depth)

    def test_non_utf8_file_is_format_error(self, tmp_path):
        approx_path = tmp_path / "a.cad"
        approx_path.write_bytes(b"cad 1 0.25 1\nA\nB\nC\n\xff\n")
        with pytest.raises(FormatError):
            read_cad(approx_path)

    @pytest.mark.parametrize("codes", [[(0, 4)], np.array([[5]]), np.array([[0], [-1]])])
    def test_writer_rejects_codes_outside_0_to_3(self, codes):
        depth = np.shape(codes)[1]
        with pytest.raises(ValueError):
            oracle_dump_cad(Alpha(0.3), depth, codes)
        with pytest.raises(ParameterError):
            dump_cad(Alpha(0.3), depth, codes)

    def test_writer_takes_code_arrays(self, tmp_path):
        codes = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        path = tmp_path / "a.cad"
        write_cad(Alpha(0.3), 2, codes, path)
        assert path.read_bytes() == b"cad 1 0.3 2\nAB\nCD\n"
        alpha, depth, back = read_cad(path)
        assert np.array_equal(back, codes)
