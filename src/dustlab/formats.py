"""Text file formats for grids and address lists.

BGR v1: header ``bgr 1 <m> <cx> <cy> <side>`` followed by 2**m lines of
``0``/``1`` characters, row-major with the top row first.  Floats are
written with repr so a read/write cycle is bit exact.

CAD v1: header ``cad 1 <alpha> <n>`` followed by one address word per
line, letters ``A B C D`` standing for the quadrant codes 0 1 2 3
(SW SE NW NE).

Files are ASCII.  Lines break as ``str.splitlines`` breaks them (LF, CR LF,
CR, VT, FF, FS, GS, RS), and the last break is optional.  A file laid out
as the writers lay it out, with one LF after each line, is read without a
scan for breaks; any other file, or one that fails a check, is read by
the general scan, which decides every error.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import FormatError, ParameterError
from .geometry import Alpha, BoxGrid, Square


#: Lines per block that the readers and writers convert at once; bounds their scratch.
BGR_BLOCK_ROWS = 256

#: Letters of the codes 0, 1, ... of each format.  Each table is a run of
#: consecutive bytes, so a code is its letter minus the first letter.
_BITS = np.frombuffer(b"01", dtype=np.uint8)
_LETTERS = np.frombuffer(b"ABCD", dtype=np.uint8)

#: Bytes that end a line; CR followed by LF ends one line.
_BREAKS = np.frombuffer(b"\n\v\f\r\x1c\x1d\x1e", dtype=np.uint8)
_LF = ord("\n")


def _encode(codes: np.ndarray, letters: np.ndarray):
    """Rows of ``codes`` as LF-terminated lines of ``letters``, in uint8 blocks of BGR_BLOCK_ROWS lines."""
    n = codes.shape[1]
    for start in range(0, len(codes), BGR_BLOCK_ROWS):
        block = codes[start:start + BGR_BLOCK_ROWS]
        text = np.empty((len(block), n + 1), dtype=np.uint8)
        np.add(block, letters[0], out=text[:, :n])
        text[:, n] = ord("\n")
        yield text


def _read(data: bytes | str, magic: str, what: str, types, width=None) -> tuple[list, np.ndarray, np.ndarray]:
    """Split a file into its header fields and the spans of the lines after the header.

    The header must be ``<magic> 1`` followed by one field per entry of
    ``types``, which converts it.  Returns ``(fields, buf, spans)``:
    ``buf`` is a uint8 view of the file, and the k-th line after the
    header is ``buf[spans[k, 0]:spans[k, 1]]`` without its break.  No line
    after the header is copied.

    Without ``width``, one scan of the file finds every break.  ``width``,
    a function of the header fields giving the length of every line, asks
    for the layout the writers give a file instead: the header ends at the
    first break, an LF, and each line after it is ``width`` bytes followed
    by LF, the last LF optional.  Then no byte after the header is
    scanned: the spans follow from the header and the file length, and
    one strided read checks the LF after each line.  A file in any other
    layout raises FormatError.
    """
    raw = data.encode() if isinstance(data, str) else data
    buf = np.frombuffer(raw, dtype=np.uint8)
    if width is None:
        spans = _break_spans(buf, what)
        return _header(buf[:spans[0, 1]], magic, what, types), buf, spans[1:]
    end = raw.find(b"\n")
    if end < 0 or np.isin(buf[:end], _BREAKS).any():
        raise FormatError("the header does not end in its first break, an LF")
    fields = _header(buf[:end], magic, what, types)
    return fields, buf, _lf_spans(buf, end + 1, width(*fields))


def _break_spans(buf: np.ndarray, what: str) -> np.ndarray:
    """Spans of every line of ``buf``, the header first, from one scan for control bytes."""
    ctrl = np.flatnonzero(buf < 0x20)
    is_break = np.isin(buf[ctrl], _BREAKS)
    pos = ctrl[is_break]
    crlf = np.flatnonzero((buf[pos[:-1]] == ord("\r")) & (buf[pos[1:]] == _LF) & (np.diff(pos) == 1))
    spans = np.column_stack((np.insert(np.delete(pos + 1, crlf), 0, 0),
                             np.append(np.delete(pos, crlf + 1), len(buf))))
    if len(spans) > 1 and spans[-1, 0] == len(buf):  # a break ends the last line
        spans = spans[:-1]
    stray = ctrl[~is_break]
    if len(stray) and stray[-1] > spans[0, 1]:  # other control bytes may sit in the header only
        raise FormatError(f"control byte {buf[stray[-1]]:#04x} after the {what} file header")
    return spans


def _lf_spans(buf: np.ndarray, start: int, width: int) -> np.ndarray:
    """Spans of the lines from ``start`` on, each ``width`` bytes and LF, the last LF optional."""
    stride = width + 1
    stop = len(buf) if buf[-1] == _LF else len(buf) + 1  # as if the last LF were there
    if not (0 <= width < len(buf) and (stop - start) % stride == 0
            and (buf[start + width:stop:stride] == _LF).all()):
        raise FormatError(f"the lines are not {width} bytes each ended by LF")
    first = np.arange(start, stop, stride)
    return np.column_stack((first, first + width))


def _header(header: np.ndarray, magic: str, what: str, types) -> list:
    """Fields of a header line, each converted by its entry of ``types``."""
    try:
        fields = header.tobytes().decode("ascii").split()
        if len(fields) != len(types) + 2 or fields[:2] != [magic, "1"]:
            raise ValueError("wrong fields")
        return [convert(f) for convert, f in zip(types, fields[2:])]
    except ValueError as exc:  # UnicodeDecodeError is one
        raise FormatError(f"bad {what} header {header.tobytes()!r}") from exc


def _written_layout_first(parse, data, width):
    """``parse(data, width)``, the read of a file in the layout the writers
    give it, or when that raises FormatError, ``parse(data, None)``, the
    general read; so every error comes from the general read."""
    try:
        return parse(data, width)
    except FormatError:
        return parse(data, None)


def _decode(buf: np.ndarray, spans: np.ndarray, width: int, letters: np.ndarray, what: str,
            out: np.ndarray | None = None) -> np.ndarray:
    """Lines ``spans`` of ``width`` letters as codes, a letter's index in ``letters``.

    The codes fill the rows of ``out``, or of a new uint8 array, which is
    allocated only once every line is known to have ``width`` letters.
    Works BGR_BLOCK_ROWS lines at a time.  Lines lie at least one break
    byte apart, so a block whose lines are evenly spread lies exactly one
    apart and is read as a strided view of the file; any other block is
    read through a mask of its letters.
    """
    bad = np.flatnonzero(spans[:, 1] - spans[:, 0] != width)
    if len(bad) == 0:
        out = np.empty((len(spans), width), dtype=np.uint8) if out is None else out
        for start in range(0, len(spans), BGR_BLOCK_ROWS):
            block = spans[start:start + BGR_BLOCK_ROWS]
            rows = out[start:start + len(block)]
            seg = buf[block[0, 0]:block[-1, 1]]
            if block[-1, 0] - block[0, 0] == (len(block) - 1) * (width + 1):
                lines = as_strided(seg, rows.shape, (width + 1, 1), writeable=False)
            else:
                lines = seg[seg >= 0x20].reshape(rows.shape)
            np.subtract(lines, letters[0], out=rows)
            if rows.max(initial=0) >= len(letters):  # a byte below the first letter wraps past them
                bad = start + np.flatnonzero((rows >= len(letters)).any(axis=1))
                break
    if len(bad):
        raise FormatError(f"bad {what} on line {bad[0] + 2}")
    return out


def _bgr_chunks(grid: BoxGrid):
    """BGR v1 encoding of a grid as bytes-like chunks: the header line, then row blocks."""
    x0, y0 = grid.bounds.corner
    yield f"bgr 1 {grid.level} {x0!r} {y0!r} {grid.bounds.side!r}\n".encode()
    yield from _encode(grid.bits[::-1].view(np.uint8), _BITS)


def dump_bgr(grid: BoxGrid) -> str:
    return b"".join(_bgr_chunks(grid)).decode("ascii")


def parse_bgr(data: bytes | str) -> BoxGrid:
    """Read BGR v1 from bytes or text."""
    # no file has lines of -1 bytes: a level outside 0..63 goes to the general read, which refuses it
    return _written_layout_first(_parse_bgr, data, lambda m, *_: 1 << m if 0 <= m < 64 else -1)


def _parse_bgr(data: bytes | str, width) -> BoxGrid:
    (m, cx, cy, side), buf, spans = _read(data, "bgr", "grid", (int, float, float, float), width)
    if m < 0 or not all(map(math.isfinite, (cx, cy, side))) or not side > 0.0:
        raise FormatError("bad grid header: need level >= 0, a finite corner "
                          "and a finite positive side")
    n = len(spans)
    if n != 1 << min(m, 64):  # a file holds fewer than 2**64 lines
        raise FormatError(f"expected 2**{m} grid rows, found {n}")
    bits = np.empty((n, n), dtype=bool)
    _decode(buf, spans, n, _BITS, "grid row", out=bits[::-1].view(np.uint8))
    return BoxGrid.adopt(Square((cx, cy), side), m, bits)


def write_bgr(grid: BoxGrid, path) -> None:
    """Write a grid as BGR v1, one block of rows at a time."""
    with open(path, "wb") as fh:
        for chunk in _bgr_chunks(grid):
            fh.write(chunk)


def dump_cad(alpha: Alpha, depth: int, codes) -> str:
    """CAD v1 text of an (N, depth) array of quadrant codes, one address per row."""
    codes = np.asarray(codes, dtype=np.uint8).reshape(len(codes), depth)
    if (codes >= len(_LETTERS)).any():
        raise ParameterError("quadrant codes must lie in 0..3")
    return f"cad 1 {float(alpha)!r} {depth}\n" + b"".join(_encode(codes, _LETTERS)).decode("ascii")


def parse_cad(data: bytes | str) -> tuple[Alpha, int, np.ndarray]:
    """Read CAD v1 as ``(alpha, depth, codes)``, codes an (N, depth) uint8 array."""
    return _written_layout_first(_parse_cad, data, lambda alpha, depth: depth)


def _parse_cad(data: bytes | str, width) -> tuple[Alpha, int, np.ndarray]:
    (alpha, depth), buf, spans = _read(data, "cad", "address", (lambda f: Alpha(float(f)), int), width)
    if not 0 <= depth <= np.iinfo(np.intp).max:
        raise FormatError(f"bad address header: depth {depth} is negative or too large")
    return alpha, depth, _decode(buf, spans, depth, _LETTERS, "address")


def write_cad(alpha: Alpha, depth: int, codes, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_cad(alpha, depth, codes))


def read_cad(path) -> tuple[Alpha, int, np.ndarray]:
    with open(path, "rb") as fh:
        return parse_cad(fh.read())
