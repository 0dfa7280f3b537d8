"""Planar geometry core: squares, occupancy grids, isometries, quad rasterization.

Conventions used throughout the package:

* Grids are square bitmaps of shape (2**m, 2**m) over a stated bounding
  square.  Row index 0 is the *bottom* row (mathematical orientation);
  serialization to text flips to top-row-first.
* Cells are half open: a cell owns its lower/left edge and excludes its
  upper/right edge, except the last row/column which is closed.  Every
  point of the bounding square therefore maps to exactly one cell.
* Three cell rules, one helper each.  Squares and quads take their
  extent half open (``_index_ranges``): an edge on a cell boundary
  meets cells on one side only, so exactly tiled inputs count exactly.
  Balls and frames take the closed span of the cells whose extent meets
  them (``_closed_span``), and annuli the cells whose centre they hold
  (``composite._annulus_window``).  Balls and annuli are cut into zero
  windows aligned to a step of cells (``aligned_span``): an annulus by
  ``_aligned_window``, the balls of a radius stacked by shape
  (``boxdim._ball_windows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, ParameterError

SQRT2 = math.sqrt(2.0)

#: Grids of more than this many cells are refused before they are allocated.
CELL_BUDGET = 1 << 28


@dataclass(frozen=True)
class Alpha:
    """Subdivision scale ratio; the construction degenerates outside (0, 1/2)."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (0.0 < v < 0.5):
            raise ParameterError(f"scale ratio must lie strictly between 0 and 1/2, got {self.value!r}")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def as_alpha(alpha: "Alpha | float") -> Alpha:
    return alpha if isinstance(alpha, Alpha) else Alpha(float(alpha))


@dataclass(frozen=True)
class Square:
    """Axis-aligned square given by its lower-left corner and side length."""

    corner: tuple[float, float]
    side: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "corner", (float(self.corner[0]), float(self.corner[1])))
        object.__setattr__(self, "side", float(self.side))
        if not self.side > 0.0:
            raise ParameterError(f"square side must be positive, got {self.side!r}")

    @property
    def max_corner(self) -> tuple[float, float]:
        return (self.corner[0] + self.side, self.corner[1] + self.side)

    @property
    def center(self) -> tuple[float, float]:
        h = 0.5 * self.side
        return (self.corner[0] + h, self.corner[1] + h)

    def contains_point(self, p: Sequence[float]) -> bool:
        x0, y0 = self.corner
        x1, y1 = self.max_corner
        return x0 <= p[0] <= x1 and y0 <= p[1] <= y1

    @staticmethod
    def unit() -> "Square":
        return Square((0.0, 0.0), 1.0)

    @staticmethod
    def centered(center: Sequence[float], half_width: float) -> "Square":
        return Square((center[0] - half_width, center[1] - half_width), 2.0 * half_width)


def grid_size(level: int) -> int:
    """Side ``2**level`` of a level-``level`` grid, checked against ``CELL_BUDGET``."""
    if level < 0:
        raise ParameterError(f"grid level must be nonnegative, got {level}")
    if level > CELL_BUDGET.bit_length() or 4 ** level > CELL_BUDGET:  # no huge 4**level is computed
        raise BudgetError(f"a level-{level} grid has 4**{level} cells, over the budget of {CELL_BUDGET}")
    return 1 << level


def freeze(values, dtype) -> np.ndarray:
    """Read-only array of ``values``; a writable input is copied, so its owner cannot change it."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


#: Cells of the row-pair scratch ``halve`` ORs a band of rows into, and of the bands of rows
#: that ``boxdim.box_counts`` and ``dim`` count a grid in; a power of two, it bounds their temporaries.
_HALVE_BAND = 1 << 20


def halve(bits: np.ndarray, k: int = 1) -> np.ndarray:
    """k pairwise OR steps in one pass: each 2^k x 2^k block of cells becomes one cell.

    k is 1, 2 or 3, and both dimensions of ``bits`` must be multiples of
    2^k.  Returns a new array.  The 2^k rows of each block are ORed a band
    at a time into one reused C-ordered scratch of at most ``_HALVE_BAND``
    cells (one block row when a row is longer), where each run of 2^k
    cells is one uint16, uint32 or uint64 word, nonzero when any cell is
    set; each band's words are compared straight into the result.
    """
    f = 1 << k
    n, width = bits.shape[0] >> k, bits.shape[1]
    out = np.empty((n, width >> k), dtype=bool)
    band = max(1, min(n, _HALVE_BAND // max(width, 1)))
    scratch = np.empty((band, width), dtype=bool)
    word = (np.uint16, np.uint32, np.uint64)[k - 1]
    for start in range(0, n, band):
        stop = min(start + band, n)
        rows = scratch[:stop - start]
        np.bitwise_or(bits[f * start:f * stop:f], bits[f * start + 1:f * stop:f], out=rows)
        for j in range(2, f):
            np.bitwise_or(rows, bits[f * start + j:f * stop:f], out=rows)
        np.not_equal(rows.view(word), 0, out=out[start:stop])
    return out


def coarsened(bits: np.ndarray, k: int) -> np.ndarray:
    """``bits`` halved k times by ``halve``, up to 3 levels a pass; k = 0 gives ``bits`` itself."""
    while k > 0:
        bits, k = halve(bits, min(3, k)), k - 3
    return bits


def aligned_span(lo: int, hi: int, step: int) -> slice:
    """Cell indices lo..hi (inclusive) widened outward to multiples of step."""
    return slice(lo - lo % step, (hi // step + 1) * step)


@dataclass(frozen=True, eq=False)
class BoxGrid:
    """Occupancy bitmap of a planar set over a stated bounding square.

    bits[iy, ix] covers the cell with lower-left corner
    (x0 + ix * w, y0 + iy * w) where w = bounds.side / 2**level.
    Immutable after construction; all operations return new grids.
    """

    bounds: Square
    level: int
    bits: np.ndarray

    @staticmethod
    def adopt(bounds: Square, level: int, bits: np.ndarray) -> "BoxGrid":
        """Grid over an array the caller has just allocated and never writes again.

        The array is made read-only and kept as is; the public constructor
        copies writable arrays instead.
        """
        bits.setflags(write=False)
        return BoxGrid(bounds, level, bits)

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ParameterError(f"grid level must be nonnegative, got {self.level}")
        n = 1 << self.level
        arr = freeze(self.bits, bool)
        if arr.shape != (n, n):
            raise ParameterError(f"grid bits must have shape {(n, n)}, got {arr.shape}")
        object.__setattr__(self, "bits", arr)

    @property
    def size(self) -> int:
        return 1 << self.level

    @property
    def cell_size(self) -> float:
        return self.bounds.side / self.size

    @property
    def occupied_count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def is_empty(self) -> bool:
        return not self.bits.any()

    def point_cell(self, p: Sequence[float]) -> tuple[int, int]:
        """Cell (ix, iy) owning p under the half-open convention."""
        if not self.bounds.contains_point(p):
            raise ParameterError(f"point {tuple(p)} lies outside the grid bounds")
        xy = np.asarray(p, dtype=float)
        return tuple(_closed_span(xy, xy, self.bounds.corner, self.cell_size, self.size)[1].tolist())

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        w = self.cell_size
        x0, y0 = self.bounds.corner
        return (x0 + (ix + 0.5) * w, y0 + (iy + 0.5) * w)

    def downsampled(self, level: int) -> "BoxGrid":
        """OR-reduction to a coarser level; occupied means "meets the set"."""
        if level == self.level:
            return self
        if level > self.level:
            raise ParameterError(f"cannot downsample level {self.level} grid to finer level {level}")
        return BoxGrid.adopt(self.bounds, level, coarsened(self.bits, self.level - level))

    @staticmethod
    def empty(bounds: Square, level: int) -> "BoxGrid":
        n = grid_size(level)
        return BoxGrid.adopt(bounds, level, np.zeros((n, n), dtype=bool))


def _index_ranges(lo: np.ndarray, hi: np.ndarray, origin: float, cell: float, n: int):
    """Half-open cell index span [i_lo, i_hi] met by intervals [lo, hi).

    An interval ending exactly on a cell boundary stops short of the next
    cell; one beginning on a boundary starts in that cell.
    """
    f_lo = np.floor((lo - origin) / cell).astype(np.int64)
    f_hi = (np.ceil((hi - origin) / cell) - 1.0).astype(np.int64)
    valid = (f_hi >= 0) & (f_lo <= n - 1) & (f_hi >= f_lo)
    return np.clip(f_lo, 0, n - 1), np.clip(f_hi, 0, n - 1), valid


def _closed_span(lo: np.ndarray, hi: np.ndarray, origin, cell: float, n: int):
    """Cells [i_lo, i_hi] whose half-open extent meets the closed intervals [lo, hi], lo <= hi.

    Clipped to the grid, an empty span is (0, -1) or (n, n - 1).
    """
    first = np.floor((lo - origin) / cell).clip(0, n)
    last = np.floor((hi - origin) / cell).clip(-1, n - 1)
    return first.astype(np.int64), last.astype(np.int64)


def _aligned_window(bits: np.ndarray, rows: slice, cols: slice, step: int):
    """``bits[rows, cols]`` in a zero window widened outward to multiples of step; also its slices.

    ``rows`` and ``cols`` are half-open spans, start <= stop, in [0, len(bits)]; an empty one
    is widened from its start.
    """
    rs, cs = (aligned_span(s.start, max(s.start, s.stop - 1), step) for s in (rows, cols))
    window = np.zeros((rs.stop - rs.start, cs.stop - cs.start), dtype=bits.dtype)
    window[rows.start - rs.start:rows.stop - rs.start,
           cols.start - cs.start:cols.stop - cs.start] = bits[rows, cols]
    return window, (rs, cs)


def rasterize(corners: np.ndarray, bounds: Square, level: int, side: float) -> BoxGrid:
    """Mark every cell met by at least one of the equal squares.

    ``corners`` is an (N, 2) array of lower-left corners of squares of
    side ``side``; they are rasterized as axis-aligned quads by
    ``rasterize_quads``.
    """
    return rasterize_quads(squares_to_quads(corners, side), bounds, level)


def grid_intersection(a: BoxGrid, b: BoxGrid) -> BoxGrid:
    """Cellwise AND of two grids over the same bounds at the same level."""
    if a.bounds != b.bounds or a.level != b.level:
        raise ParameterError("grids differ in bounds or level and cannot be combined")
    return BoxGrid.adopt(a.bounds, a.level, a.bits & b.bits)


# ---------------------------------------------------------------------------
# Isometries and rotated-square (quad) helpers


def _matrices(theta, reflect) -> np.ndarray:
    """(M, 2, 2) matrices g of the isometries with angles ``theta`` and flags ``reflect``, (M,) each.

    Entries within 1e-12 of -1, 0 or 1 snap exactly; a reflected g is then g @ diag(1, -1).
    """
    cs = np.stack([np.cos(theta), np.sin(theta)]).reshape(2, -1)
    for target in (-1.0, 0.0, 1.0):
        cs = np.where(abs(cs - target) < 1e-12, target, cs)
    (c, s), reflect = cs, np.asarray(reflect, dtype=bool).reshape(-1)
    g = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    g[reflect] = g[reflect] @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return g


@dataclass(frozen=True)
class Isometry:
    """Plane isometry applied as x -> g(x) + z with g orthogonal.

    g rotates by theta, after first reflecting across the x-axis when
    ``reflect`` is set.  Matrix entries within 1e-12 of -1, 0, or 1 snap
    exactly, so quarter-turn isometries act exactly on dyadic data.
    """

    theta: float
    reflect: bool
    z: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", (float(self.z[0]), float(self.z[1])))

    def matrix(self) -> np.ndarray:
        return _matrices(self.theta, self.reflect)[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        # one (M, 2) @ (2, 2) product; a stacked (N, 4, 2) operand would take one per quad
        return (pts.reshape(-1, 2) @ self.matrix().T).reshape(pts.shape) + np.asarray(self.z)


def squares_to_quads(corners: np.ndarray, side: float) -> np.ndarray:
    """(N, 2) lower-left corners of equal squares -> (N, 4, 2) ccw vertex arrays."""
    c = np.asarray(corners, dtype=float).reshape(-1, 2)
    offs = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return c[:, None, :] + offs[None, :, :]


def quads_disjoint(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """True where two convex quads share no point (closed sets, SAT test).

    Quads (..., 4, 2) pair up by broadcasting; a zero-length edge's zero axis separates nothing.
    """
    pv, qv = (np.moveaxis(np.asarray(v, dtype=float), (-2, -1), (0, 1)).copy() for v in (p, q))
    disjoint = False
    for v in (pv, qv):
        for k in range(4):
            ax, ay = v[k, 1] - v[(k + 1) % 4, 1], v[(k + 1) % 4, 0] - v[k, 0]
            pa, qa = pv[:, 0] * ax + pv[:, 1] * ay, qv[:, 0] * ax + qv[:, 1] * ay
            # vertex-major copies: min/max run elementwise over four rows, not along a short axis
            disjoint = disjoint | (pa.max(0) < qa.min(0)) | (qa.max(0) < pa.min(0))
    return disjoint


#: (quad, cell) pairs ``_band_hits`` SAT-tests per block.  Where no edge tests a cell, as for
#: axis-aligned quads, a block only lists its cells and holds four times as many.
_QUAD_BLOCK_LIMIT = 1 << 12


def rasterize_quads(quads: np.ndarray, bounds: Square, level: int) -> BoxGrid:
    """Conservative rasterization of convex quads (images of squares).

    A cell is occupied iff it meets a quad, where the quad's axis-aligned
    extent is treated half open (like rasterize) and the rotated edge
    directions are tested closed.  Identity and quarter-turn images of
    grid-aligned squares therefore reproduce exact occupancy.  The grid is
    the one band of ``rasterize_bands``.
    """
    return _grid(rasterize_bands(quads, bounds, level))


def rasterize_bands(quads: np.ndarray, bounds: Square, level: int,
                    rows: Callable[[int], int] | None = None) -> Iterator:
    """``(bounds, level)``, then ``rasterize_quads`` of ``quads`` a band of rows at a time.

    The bands are those ``formats._bands`` reads a file in: h = ``rows(level)`` rows (the last
    one fewer when h does not divide the n rows), or every row when ``rows`` is None, each a
    bool array in grid order, top band first, so the k-th band holds the grid's rows
    ``[n - (k + 1) * h, n - k * h)``.  Every band is filled into the same array, which is
    overwritten when the next band is asked for.  Each band is filled from its blocks of
    ``_band_hits``, so each (quad, cell) pair is tested in one band only.
    """
    n = grid_size(level)
    xy = np.asarray(quads, dtype=float).reshape(-1, 4, 2).transpose(2, 1, 0)[None]
    yield bounds, level
    band = np.zeros((n if rows is None else min(rows(level), n), n), dtype=bool)
    hits = _band_hits(np.ascontiguousarray(xy), bounds, level, len(band))
    # the cells the last band set, kept while they are under 1/64 of it, to clear only them: a
    # clear of the whole band costs more than a sparse band's raster
    flat, marks = band.reshape(-1), []
    for start, blocks in zip(range(0, n, len(band)), hits):  # from the top row down
        part = band[:n - start]
        offset = (n - start - len(part)) * n  # the band's first cell
        if marks is None:
            flat[:] = False
        for cell in marks or ():
            flat[cell] = False
        marks, count = [], 0
        for _, cell in blocks:
            cell -= offset
            flat[cell] = True
            if marks is not None and (count := count + len(cell)) <= flat.size >> 6:
                marks.append(cell)
            else:
                marks = None
        yield part


def _grid(reader: Iterator) -> BoxGrid:
    """The grid of a band reader (``rasterize_bands``, ``formats._bands``) that yields every row
    in one band."""
    bounds, level = next(reader)
    (bits,) = reader
    return BoxGrid.adopt(bounds, level, bits)


def _quad_hits(xy: np.ndarray, bounds: Square, level: int, cells: np.ndarray | None = None,
               occ: np.ndarray | None = None) -> Iterator:
    """The blocks of the one band of ``_band_hits`` that holds every row."""
    return next(_band_hits(xy, bounds, level, 1 << level, cells, occ))


def _band_hits(xy: np.ndarray, bounds: Square, level: int, height: int,
               cells: np.ndarray | None = None, occ: np.ndarray | None = None) -> Iterator[Iterator]:
    """Per band of ``height`` grid rows, top band first, the blocks ``(t, iy * 2**level + ix)`` of
    the cells in it met by trial t's quads, of ``xy``.

    The k-th band holds the rows ``[n - (k + 1) * height, n - k * height)`` that the grid has,
    as in ``rasterize_bands``.  ``xy[t, c, v, i]`` is coordinate c of vertex v of quad i of
    trial t, (T, 2, 4, N), so that every pass over a block reads whole rows of N.  A quad's
    cell box is its extent taken half open, as in ``rasterize``, and its cells take a closed
    SAT test on its edge directions (``_sat_limits``).  Given a target's index over the same
    bounds and level, only its occupied cells are tested: ``cells`` lists them sorted as
    ``iy * 2**level + ix``, and ``occ`` is its bits ``coarsened`` k times, where every box
    spans fewer than 2**k cells a side; both are only read.  So each box spans at most 2x2
    cells of ``occ``, and boxes with none of them set are dropped by one ``_any_corner`` call;
    the cells of every kept box row come from one ``searchsorted`` in ``cells``.  Every box is
    cut at band edges into pieces, one per band it meets, so each (quad, cell) pair is tested
    in one band only, and a band's box rows are listed only when its blocks are asked for.  A
    block tests about ``_QUAD_BLOCK_LIMIT`` (quad, cell) pairs.
    """
    trials, _, _, count = xy.shape
    n = grid_size(level)
    w = bounds.side / n
    x0, y0 = bounds.corner
    lo, hi, valid = _index_ranges(xy.min(axis=2), xy.max(axis=2), np.array([[x0], [y0]]), w, n)
    valid = valid[:, 0] & valid[:, 1]
    if cells is not None:  # at halving k every box spans at most 2x2 cells: its corners find each one
        k = level - (len(occ) - 1).bit_length()
        valid &= _any_corner(occ, lo >> k, hi >> k)
    kept = np.flatnonzero(valid)
    trial, quad = np.divmod(kept, count)
    tests = _sat_limits(xy, kept, w) if len(kept) else []  # the edges that test a cell
    lo, hi = lo[trial, :, quad], hi[trial, :, quad]  # (K, 2): (ix, iy) of each kept box's corners
    # each box cut at band edges into pieces, one per band it meets, sorted by band, top band first
    top_band = (n - 1 - hi[:, 1]) // height
    box, band = _ranges(top_band, (n - 1 - lo[:, 1]) // height - top_band + 1)
    order = np.argsort(band.astype(np.uint16), kind="stable")  # a radix sort: n < 2**16
    box, band = box[order], band[order]
    roof = n - band * height  # one past the top row of each piece's band
    bottom = np.maximum(lo[box, 1], roof - height)
    span = np.minimum(hi[box, 1], roof - 1) - bottom + 1
    left, width = lo[box, 0], hi[box, 0] - lo[box, 0] + 1
    # each band's first piece, and the end
    edges = band.searchsorted(np.arange(-(-n // height) + 1)).tolist()
    limit = _QUAD_BLOCK_LIMIT if tests else _QUAD_BLOCK_LIMIT << 2

    def blocks_of(pieces: slice) -> Iterator:
        piece, row = _ranges(bottom[pieces], span[pieces])
        owner = box[pieces][piece]
        first, size = row * n + left[pieces][piece], width[pieces][piece]  # each box row's cells
        if cells is not None:  # each row's [first, last + 1), side by side: the search for last + 1
            # starts from first's; for integers, side="right" on last is side="left" on last + 1
            ends = cells.searchsorted(np.stack([first, first + size], axis=1))
            first, size = ends[:, 0], ends[:, 1] - ends[:, 0]
        blocks = np.arange(limit, size.sum() + 1, limit)
        cuts = [0, *size.cumsum().searchsorted(blocks).tolist(), len(size)]
        for a, b in zip(cuts, cuts[1:]):
            seg, cell = _ranges(first[a:b], size[a:b])
            seg = owner[a:b][seg]
            if cells is not None:
                cell = cells[cell]
            if tests:
                seg, cell = _sat_hits(seg, cell, tests, bounds, level)
            yield trial[seg], cell

    for a, b in zip(edges, edges[1:]):
        yield blocks_of(slice(a, b))


def _sat_hits(seg: np.ndarray, cell: np.ndarray, tests: list, bounds: Square, level: int):
    """The pairs of box ``seg`` and cell ``iy * 2**level + ix`` whose closed projections overlap on
    the axis of every tested edge: ``tests`` holds those rows of ``_sat_limits``."""
    w = bounds.side / (1 << level)
    cx = bounds.corner[0] + (cell & ((1 << level) - 1)) * w
    cy = bounds.corner[1] + (cell >> level) * w
    keep = np.ones(len(cell), dtype=bool)
    for ax, ay, cmin, cmax, amin, amax in (lim[:, seg] for lim in tests):
        base = cx * ax + cy * ay
        keep &= (base + cmax >= amin) & (base + cmin <= amax)
    return seg[keep], cell[keep]


def _any_corner(occ: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per box (T, N), whether ``occ`` is set at one of its corners ``lo`` and ``hi``, (T, 2, N)."""
    rows = np.stack([lo[:, 1], hi[:, 1]]) * occ.shape[1]
    return occ.reshape(-1)[rows[:, None] + np.stack([lo[:, 0], hi[:, 0]])].any(axis=(0, 1))


def _sat_limits(xy: np.ndarray, kept: np.ndarray, w: float) -> list:
    """SAT constants of the quads ``kept`` (indices t * N + i of ``xy``, sorted): one (6, K) row
    per edge j (from vertex 0 to vertex 1 or 3) that some kept quad tests, none when no edge is
    tested, as for axis-aligned squares.

    Row [:, p] holds, for kept quad p, the unit axis (ax, ay), the offsets
    w * (min(ax, 0) + min(ay, 0)) and w * (max(ax, 0) + max(ay, 0)) of a cell's projection from
    its corner's, and the quad's span on the axis; an edge of zero length or within 1e-12 of a
    grid axis tests nothing: (0, 0, 0, 0, -inf, inf).  Whether an edge is tested is known from
    the reference quads' edges, before any row is built: quad 0 of a trial whose quads are all
    congruent (equal edge vectors to within 1e-12), each kept quad of any other trial.  A
    congruent trial's member spans are its reference's moved by ``(v0 - v0_ref) @ axis``, one
    (K, 2) @ (2,) product per trial and tested edge.
    """
    trials, _, _, count = xy.shape
    e = xy[:, :, 1::2] - xy[:, :, :1]  # (T, 2, 2, N): each quad's edge vectors
    congruent = (e.max(axis=3) - e.min(axis=3) < 1e-12).all(axis=(1, 2))
    trial, quad = np.divmod(kept, count)
    own = ~congruent[trial]
    slot = trial.copy()
    slot[own] = trials + np.arange(np.count_nonzero(own))
    ref_t, ref_i = np.divmod(np.concatenate([np.arange(trials) * count, kept[own]]), count)
    quads = np.ascontiguousarray(xy[ref_t, :, :, ref_i].transpose(0, 2, 1))  # (R, 4, 2)
    edge = quads[:, 1::2] - quads[:, :1]  # (R, 2, 2)
    # stacked products run the BLAS calls of the per-quad forms: ddot for the norm, gemv for rel
    norm = np.sqrt(edge[..., None, :] @ edge[..., None])[..., 0]
    axis = edge / np.where(norm > 0.0, norm, 1.0)
    tested = (norm[..., 0] > 0.0) & (abs(axis).min(axis=2) >= 1e-12)
    edges = np.flatnonzero(tested[slot].any(axis=0)).tolist()
    if not edges:
        return []
    rel = (quads[:, None] @ axis[..., None])[..., 0]
    table = np.concatenate([axis, w * np.minimum(axis, 0.0).sum(axis=2, keepdims=True),
                            w * np.maximum(axis, 0.0).sum(axis=2, keepdims=True),
                            rel.min(axis=2, keepdims=True), rel.max(axis=2, keepdims=True)], axis=2)
    table[~tested] = (0.0, 0.0, 0.0, 0.0, -np.inf, np.inf)
    limits = np.ascontiguousarray(table.transpose(1, 2, 0))[:, :, slot]  # (2, 6, K)
    d = xy[trial, :, 0, quad] - xy[trial, :, 0, 0]  # (K, 2): vertex 0 from its trial's quad 0
    start = kept.searchsorted(np.arange(trials + 1) * count).tolist()
    for t, j in np.argwhere(tested[:trials] & congruent[:, None]).tolist():
        a, b = start[t], start[t + 1]
        limits[j, 4:, a:b] += d[a:b] @ axis[t, j]
    return [limits[j] for j in edges]


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range number and value of every integer of the ranges [first[i], first[i] + count[i])."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, first[owner] + (np.arange(len(owner)) - (np.cumsum(count) - count)[owner])
