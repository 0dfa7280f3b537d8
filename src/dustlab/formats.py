"""Text file formats for grids and address lists.

BGR v1: header ``bgr 1 <m> <cx> <cy> <side>`` followed by 2**m lines of
``0``/``1`` characters, row-major with the top row first.  Floats are
written with repr so a read/write cycle is bit exact.

CAD v1: header ``cad 1 <alpha> <n>`` followed by one address word per
line, letters ``A B C D`` standing for the quadrant codes 0 1 2 3
(SW SE NW NE).

Files are ASCII.  Lines break as ``str.splitlines`` breaks them (LF, CR LF,
CR, VT, FF, FS, GS, RS), and the last break is optional.  The header's own
first break is taken as the break of every line, so the lines after it are
one strided view of the file.  A file that mixes breaks is first rewritten
with one LF per break.
"""

from __future__ import annotations

import math
import mmap
import re
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BudgetError, FormatError, ParameterError
from .geometry import Alpha, BoxGrid, Square, _grid, grid_size


#: Lines per block that the readers and writers convert at once; bounds their scratch.
BGR_BLOCK_ROWS = 256

#: Letters of the codes 0, 1, ... of each format.  Each table is a run of
#: consecutive bytes, so a code is its letter minus the first letter.
_BITS = np.frombuffer(b"01", dtype=np.uint8)
_LETTERS = np.frombuffer(b"ABCD", dtype=np.uint8)

#: Bytes that end a line; CR followed by LF ends one line.
_BREAKS = np.frombuffer(b"\n\v\f\r\x1c\x1d\x1e", dtype=np.uint8)
_FIRST_BREAK = re.compile(rb"\r\n|[\n\v\f\r\x1c\x1d\x1e]")


def _encode(codes: np.ndarray, letters: np.ndarray):
    """Rows of ``codes`` as LF-terminated lines of ``letters``, in uint8 blocks of BGR_BLOCK_ROWS lines."""
    n = codes.shape[1]
    for start in range(0, len(codes), BGR_BLOCK_ROWS):
        block = codes[start:start + BGR_BLOCK_ROWS]
        text = np.empty((len(block), n + 1), dtype=np.uint8)
        np.add(block, letters[0], out=text[:, :n])
        text[:, n] = ord("\n")
        yield text


def _read(data: bytes | str, magic: str, what: str, types, width,
          release: Callable | None = None) -> tuple[list, np.ndarray, Callable | None]:
    """Header fields of a file, its lines after the header as an (n, w) uint8 view, and their release.

    The header is ``<magic> 1`` followed by one field per entry of
    ``types``, which converts it, and ends at the file's first break.
    ``width``, a function of the fields, checks them and gives w, the
    length of every line.  The lines must each be w bytes followed by the
    header's break, the last break optional; their breaks are checked by
    a strided compare, a block of lines at a time, and no line is copied
    (``_lines``).  ``release(lo, hi)``, which ``read_bgr_bands`` gives for
    its own map, drops the pages of bytes [lo, hi) of ``data``; the
    release returned drops those of lines [lo, hi) of the view, for the
    check and decode passes to hand on the lines they are done with.
    When the lines are not so, the file is read again with one LF per
    break, which decides; the lines are then a view of that copy,
    ``data`` is released whole, since nothing reads it again, and the
    release returned is None, as it is when none is given.
    """
    raw = data.encode() if isinstance(data, str) else data
    buf = np.frombuffer(raw, dtype=np.uint8)
    first = _FIRST_BREAK.search(raw)
    end, brk = (first.start(), first.group()) if first else (len(raw), b"")
    fields = _header(buf[:end], magic, what, types)
    w = width(*fields)
    start, stride = end + len(brk), w + len(brk)
    release_lines = release and (lambda lo, hi: release(start + lo * stride, start + hi * stride))
    lines = _lines(buf, start, w, brk, release_lines)
    if lines is None:  # not every break is the header's, or a line is not w bytes long
        copy, release_lines = _one_lf_per_break(buf), None
        if release:
            release(0, len(buf))
        lines = _lines(copy, end + 1, w, b"\n")
    if lines is None:
        raise FormatError(f"the {what} lines are not {w} bytes each")
    return fields, lines, release_lines


def _lines(buf: np.ndarray, start: int, width: int, brk: bytes,
           release: Callable | None = None) -> np.ndarray | None:
    """Lines from ``start`` on, each ``width`` bytes and ``brk``, as an (n, width) view; else None.

    The breaks are compared BGR_BLOCK_ROWS lines at a time.  A compare
    touches one byte a line, about one page, so ``release(lo, hi)``, when
    given, drops the pages of lines [lo, hi) of each checked block
    before the next block is compared.
    """
    if start >= len(buf):
        return np.empty((0, width), dtype=np.uint8)
    ends = buf[len(buf) - len(brk):].tobytes() == brk
    if not ends and buf[-1] in _BREAKS:  # the last break is another one
        return None
    stride = width + len(brk)
    stop = len(buf) if ends else len(buf) + len(brk)  # as if the last break were there
    n, rest = divmod(stop - start, stride)
    if rest:
        return None
    for first in range(0, n, BGR_BLOCK_ROWS):
        block = buf[start + first * stride:start + (first + BGR_BLOCK_ROWS) * stride]
        if not all((block[width + j::stride] == b).all() for j, b in enumerate(brk)):
            return None
        if release:
            release(first, first + BGR_BLOCK_ROWS)
    return as_strided(buf[start:], (n, width), (stride, 1), writeable=False)


def _one_lf_per_break(buf: np.ndarray) -> np.ndarray:
    """Copy of ``buf`` with each line break, CR LF included, one LF."""
    ctrl = np.flatnonzero(buf < 0x20)
    pos = ctrl[np.isin(buf[ctrl], _BREAKS)]
    cr = pos[:-1][(np.diff(pos) == 1) & (buf[pos[:-1]] == ord("\r")) & (buf[pos[1:]] == ord("\n"))]
    # drop the CR of each CR LF: copy the runs between them when they are long, as grid rows
    # are, since a run costs a numpy call; else compress the file, which costs a pass
    if len(cr) < len(buf) >> 10:
        out = np.concatenate([buf[a:b] for a, b in zip([0, *(cr + 1)], [*cr, len(buf)])])
    else:
        out = np.delete(buf, cr)
    out[pos - np.searchsorted(cr, pos)] = ord("\n")
    return out


def _header(header: np.ndarray, magic: str, what: str, types) -> list:
    """Fields of a header line, each converted by its entry of ``types``."""
    try:
        fields = header.tobytes().decode("ascii").split()
        if len(fields) != len(types) + 2 or fields[:2] != [magic, "1"]:
            raise ValueError("wrong fields")
        return [convert(f) for convert, f in zip(types, fields[2:])]
    except ValueError as exc:  # UnicodeDecodeError is one
        raise FormatError(f"bad {what} header {header.tobytes()!r}") from exc


def _decode(lines: np.ndarray, letters: np.ndarray, what: str, out: np.ndarray | None = None,
            first: int = 0, release: Callable | None = None) -> np.ndarray:
    """Lines of letters from line ``first`` on as codes, a letter's index in ``letters``.

    The codes fill the rows of ``out``, as many lines as it has rows, or
    of a new uint8 array for every line, BGR_BLOCK_ROWS lines at a time.
    ``release(lo, hi)``, when given, drops the pages of lines [lo, hi) of
    each decoded block before the next block is read (``_read``), so a
    read holds about its output plus one block, not the file as well.
    """
    out = np.empty(lines.shape, dtype=np.uint8) if out is None else out
    for start in range(first, first + len(out), BGR_BLOCK_ROWS):
        rows = out[start - first:start - first + BGR_BLOCK_ROWS]
        np.subtract(lines[start:start + len(rows)], letters[0], out=rows)
        if rows.max(initial=0) >= len(letters):  # a byte below the first letter wraps past them
            bad = start + np.flatnonzero((rows >= len(letters)).any(axis=1))[0]
            raise FormatError(f"bad {what} on line {bad + 2}")
        if release:
            release(start, start + len(rows))
    return out


def _bgr_chunks(bounds: Square, level: int, bands: Iterable):
    """BGR v1 encoding of a grid as bytes-like chunks: the header line, then the row blocks of
    each of its bands, top band first, in grid order (``_bands``)."""
    x0, y0 = bounds.corner
    yield f"bgr 1 {level} {x0!r} {y0!r} {bounds.side!r}\n".encode()
    for band in bands:
        yield from _encode(band[::-1].view(np.uint8), _BITS)


def dump_bgr(grid: BoxGrid) -> str:
    return b"".join(_bgr_chunks(grid.bounds, grid.level, [grid.bits])).decode("ascii")


def _bands(data: bytes | str, rows: Callable[[int], int] | None = None,
           release: Callable | None = None) -> Iterator:
    """The header of BGR v1 ``data`` as ``(bounds, level)``, then its rows decoded a band at a time.

    ``data`` is text or a bytes-like object, such as a map of a file.  A
    band is h = ``rows(level)`` rows (the last one fewer when h does not
    divide the n rows), or every row when ``rows`` is None, and is yielded
    as a bool array in grid order: the k-th band holds the grid's rows
    ``[n - (k + 1) * h, n - k * h)``, top band first, as the file holds
    them.  Every band is decoded into the same array, which is
    overwritten when the next band is read.  The whole file is checked
    before the header is yielded, but for the row letters, which each
    band checks as it is decoded (``_decode``).  ``release``, given only
    for a file map (``read_bgr_bands``), drops the pages of the rows
    already checked and decoded as the passes go (``_read``).
    """
    (m, cx, cy, side), lines, release = _read(data, "bgr", "grid", (int, float, float, float),
                                              _grid_width, release)
    n = len(lines)
    if n != 1 << m:
        raise FormatError(f"expected 2**{m} grid rows, found {n}")
    yield Square((cx, cy), side), m
    band = np.empty((n if rows is None else min(rows(m), n), n), dtype=bool)
    for start in range(0, n, len(band)):  # file order runs from the top row down
        part = band[:n - start]
        _decode(lines, _BITS, "grid row", part[::-1].view(np.uint8), start, release)
        yield part


def parse_bgr(data: bytes | str) -> BoxGrid:
    """Read BGR v1 from text or a bytes-like object, such as a map of a file.

    The grid owns its bits: it holds no view of ``data``.  It is the one
    band of ``_bands``, and ``data`` is never changed: no page of a map
    passed in is released, so a private map keeps the bytes written to it.
    """
    return _grid(_bands(data))


def _grid_width(m: int, cx: float, cy: float, side: float) -> int:
    """Length of the rows of a grid header, once its values are checked and its level is within
    ``CELL_BUDGET``, so that nothing is sized from a level over it."""
    if m < 0 or not all(map(math.isfinite, (cx, cy, side))) or not side > 0.0:
        raise FormatError("bad grid header: need level >= 0, a finite corner "
                          "and a finite positive side")
    try:
        return grid_size(m)
    except BudgetError as exc:
        raise FormatError(f"bad grid header: {exc}") from exc


def read_bgr_bands(path, rows: Callable[[int], int] | None = None) -> Iterator:
    """Read a BGR v1 file a band of rows at a time: ``(bounds, level)``, then the bands (``_bands``).

    ``rows`` gives the rows of a band from the grid's level, or None reads
    every row in one band.  The file is read through a read-only map of
    it, so it is not copied, and this map is the only one whose pages are
    released, as they are checked and decoded: the read holds about one
    band and one block of rows.  A dropped page that is read again is read
    from the file again, so no byte changes.  A file that cannot be
    mapped, such as an empty file or a FIFO, is read whole, and where
    ``MADV_DONTNEED`` is missing nothing is released.  A CAD file is
    refused by name.
    """
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # ValueError: an empty file
            data = fh.read()
    if data[:4] == b"cad ":
        raise FormatError("expected a bgr grid file; rasterize addresses with gen --grid-out first")
    release = None
    if isinstance(data, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
        def release(lo: int, hi: int) -> None:
            """Drop the map's pages from the one holding byte ``lo`` up to the one holding byte
            ``hi``, which may hold bytes not yet read; past the map's end, to its end."""
            lo -= lo % mmap.PAGESIZE
            hi = len(data) if hi >= len(data) else hi - hi % mmap.PAGESIZE
            if hi > lo:
                data.madvise(mmap.MADV_DONTNEED, lo, hi - lo)
    yield from _bands(data, rows, release)
    # closed once every band is read, and on success only: an error's traceback holds views
    # of the map, which then closes with the last of them, and closing it under the error
    # raises BufferError
    if isinstance(data, mmap.mmap):
        data.close()


def read_bgr(path) -> BoxGrid:
    """Read a BGR v1 file as one band of ``read_bgr_bands``: the read holds about one grid plus
    one block of rows, not the file as well."""
    return _grid(read_bgr_bands(path))


def write_bgr(grid: BoxGrid | Iterable, path) -> None:
    """Write a grid as BGR v1, one block of rows at a time.

    ``grid`` is a BoxGrid, or the items of a band reader such as ``geometry.rasterize_bands``:
    ``(bounds, level)``, then the grid's bands, top band first, as ``_bands`` yields them, each
    encoded as it comes, so the whole grid is never held.  The header is taken before the file
    is opened, so a reader that refuses its grid leaves no file.
    """
    bands = iter([(grid.bounds, grid.level), grid.bits] if isinstance(grid, BoxGrid) else grid)
    bounds, level = next(bands)
    with open(path, "wb") as fh:
        for chunk in _bgr_chunks(bounds, level, bands):
            fh.write(chunk)


def dump_cad(alpha: Alpha, depth: int, codes) -> str:
    """CAD v1 text of an (N, depth) array of quadrant codes, one address per row."""
    codes = np.asarray(codes, dtype=np.uint8).reshape(len(codes), depth)
    if (codes >= len(_LETTERS)).any():
        raise ParameterError("quadrant codes must lie in 0..3")
    return f"cad 1 {float(alpha)!r} {depth}\n" + b"".join(_encode(codes, _LETTERS)).decode("ascii")


def parse_cad(data: bytes | str) -> tuple[Alpha, int, np.ndarray]:
    """Read CAD v1 as ``(alpha, depth, codes)``, codes an (N, depth) uint8 array."""
    (alpha, depth), lines, _ = _read(data, "cad", "address", (lambda f: Alpha(float(f)), int),
                                     _address_width)
    return alpha, depth, _decode(lines, _LETTERS, "address")


def _address_width(alpha: Alpha, depth: int) -> int:
    """Length of the lines of an address header, once its depth is checked."""
    if not 0 <= depth <= np.iinfo(np.intp).max:
        raise FormatError(f"bad address header: depth {depth} is negative or too large")
    return depth


def write_cad(alpha: Alpha, depth: int, codes, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_cad(alpha, depth, codes))


def read_cad(path) -> tuple[Alpha, int, np.ndarray]:
    with open(path, "rb") as fh:
        return parse_cad(fh.read())
