"""Text file formats for grids and address lists.

BGR v1: header ``bgr 1 <m> <cx> <cy> <side>`` followed by 2**m lines of
``0``/``1`` characters, row-major with the top row first.  Floats are
written with repr so a read/write cycle is bit exact.

CAD v1: header ``cad 1 <alpha> <n>`` followed by one address word per
line, letters ``A B C D`` standing for SW SE NW NE.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FormatError
from .geometry import Alpha, BoxGrid, Quadrant, Square


#: Grid rows per chunk of BGR output; bounds the writer's buffer.
BGR_BLOCK_ROWS = 256


def _bgr_chunks(grid: BoxGrid):
    """BGR v1 encoding of a grid as bytes-like chunks: the header line, then row blocks."""
    x0, y0 = grid.bounds.corner
    yield f"bgr 1 {grid.level} {x0!r} {y0!r} {grid.bounds.side!r}\n".encode()
    n = grid.size
    top_first = grid.bits[::-1].view(np.uint8)
    for start in range(0, n, BGR_BLOCK_ROWS):
        block = top_first[start:start + BGR_BLOCK_ROWS]
        text = np.empty((len(block), n + 1), dtype=np.uint8)
        np.add(block, ord("0"), out=text[:, :n])
        text[:, n] = ord("\n")
        yield text


def dump_bgr(grid: BoxGrid) -> str:
    return b"".join(_bgr_chunks(grid)).decode("ascii")


def parse_bgr(text: str) -> BoxGrid:
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


def write_bgr(grid: BoxGrid, path) -> None:
    """Write a grid as BGR v1, one block of rows at a time."""
    with open(path, "wb") as fh:
        for chunk in _bgr_chunks(grid):
            fh.write(chunk)


def read_bgr(path) -> BoxGrid:
    with open(path) as fh:
        return parse_bgr(fh.read())


def dump_cad(alpha: Alpha, depth: int, words) -> str:
    header = f"cad 1 {float(alpha)!r} {depth}"
    lines = ["".join(Quadrant(q).letter for q in word) for word in words]
    return "\n".join([header] + lines) + "\n"


def parse_cad(text: str) -> tuple[Alpha, int, list[tuple[Quadrant, ...]]]:
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


def write_cad(alpha: Alpha, depth: int, words, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_cad(alpha, depth, words))


def read_cad(path) -> tuple[Alpha, int, list[tuple[Quadrant, ...]]]:
    with open(path) as fh:
        return parse_cad(fh.read())
