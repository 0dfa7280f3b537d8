"""Planar geometry core: squares, occupancy grids, isometries, quad rasterization.

Conventions used throughout the package:

* Grids are square bitmaps of shape (2**m, 2**m) over a stated bounding
  square.  Row index 0 is the *bottom* row (mathematical orientation);
  serialization to text flips to top-row-first.
* Cells are half open: a cell owns its lower/left edge and excludes its
  upper/right edge, except the last row/column which is closed.  Every
  point of the bounding square therefore maps to exactly one cell.
* Rasterization of axis-aligned squares applies the same half-open rule
  to the square itself, so a square whose edge lands exactly on a cell
  boundary occupies cells on one side only.  This makes occupancy counts
  of exactly tiled inputs (sides equal to a cell multiple) exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def halve(bits: np.ndarray) -> np.ndarray:
    """One pairwise OR step: each 2x2 block of cells becomes one cell.

    Both dimensions of ``bits`` must be even.  Returns a new array.
    """
    rows = bits[0::2] | bits[1::2]
    return rows[:, 0::2] | rows[:, 1::2]


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
        w = self.cell_size
        x0, y0 = self.bounds.corner
        ix = min(int((p[0] - x0) / w), self.size - 1)
        iy = min(int((p[1] - y0) / w), self.size - 1)
        return ix, iy

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
        coarse = self.bits
        for _ in range(self.level - level):
            coarse = halve(coarse)
        return BoxGrid.adopt(self.bounds, level, coarse)

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


def _snap(x: float) -> float:
    for target in (-1.0, 0.0, 1.0):
        if abs(x - target) < 1e-12:
            return target
    return x


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
        c = _snap(math.cos(self.theta))
        s = _snap(math.sin(self.theta))
        g = np.array([[c, -s], [s, c]])
        if self.reflect:
            g = g @ np.array([[1.0, 0.0], [0.0, -1.0]])
        return g

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix().T + np.asarray(self.z)


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


#: Cells of scratch one rasterization block may span: congruent quads are
#: grouped into blocks up to this size, and a larger quad is split into row bands.
_QUAD_BLOCK_LIMIT = 1 << 22


def rasterize_quads(quads: np.ndarray, bounds: Square, level: int) -> BoxGrid:
    """Conservative rasterization of convex quads (images of squares).

    A cell is occupied iff it meets a quad, where the quad's axis-aligned
    extent is treated half open (like rasterize) and the rotated edge
    directions are tested closed.  Identity and quarter-turn images of
    grid-aligned squares therefore reproduce exact occupancy.
    """
    _, bits = rasterize_quads_window(quads, bounds, level, grid_size(level))
    return BoxGrid.adopt(bounds, level, bits)


def rasterize_quads_window(quads: np.ndarray, bounds: Square, level: int,
                           align: int) -> tuple[tuple[slice, slice], np.ndarray]:
    """``rasterize_quads`` computed only over the cells the quads can meet.

    Returns ``(window, bits)``.  ``window`` is a (rows, columns) pair of
    slices of the level-``level`` grid that covers every occupied cell,
    with start and stop widened outward to multiples of ``align`` (a power
    of two no larger than the grid), and ``bits`` equals the full raster
    over that window.  ``align = 2**level`` makes the window the whole
    grid.  When no quad meets the bounds the window is the first ``align``
    block and holds no occupied cell.  Raises BudgetError when the grid
    exceeds ``CELL_BUDGET``.
    """
    quads = np.asarray(quads, dtype=float).reshape(-1, 4, 2)
    n = grid_size(level)
    w = bounds.side / n
    x0, y0 = bounds.corner

    # elementwise over the four vertices: reductions along a length-4 axis are slow
    lo = np.minimum(np.minimum(quads[:, 0], quads[:, 1]), np.minimum(quads[:, 2], quads[:, 3]))
    hi = np.maximum(np.maximum(quads[:, 0], quads[:, 1]), np.maximum(quads[:, 2], quads[:, 3]))
    ix_lo, ix_hi, vx = _index_ranges(lo[:, 0], hi[:, 0], x0, w, n)
    iy_lo, iy_hi, vy = _index_ranges(lo[:, 1], hi[:, 1], y0, w, n)
    idx = np.nonzero(vx & vy)[0]
    if len(idx) == 0:
        rows = cols = aligned_span(0, 0, align)
        return (rows, cols), np.zeros((align, align), dtype=bool)
    rows = aligned_span(int(iy_lo[idx].min()), int(iy_hi[idx].max()), align)
    cols = aligned_span(int(ix_lo[idx].min()), int(ix_hi[idx].max()), align)
    bits = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=bool)

    def fill(ref, axes, chunk, lo_y, hi_y, bw, bh):
        """OR quads ``chunk`` into ``bits``: rows lo_y..hi_y, bh at most, of their extents."""
        ix = ix_lo[chunk, None, None] + np.arange(bw)
        iy = lo_y[:, None, None] + np.arange(bh)[:, None]
        keep = (ix <= ix_hi[chunk, None, None]) & (iy <= hi_y[:, None, None])
        if axes:
            cx = x0 + ix * w
            cy = y0 + iy * w
            shift = quads[chunk, 0] - quads[ref, 0]
            for axis in axes:
                # closed overlap of each cell's projection with the quad's
                base = cx * axis[0] + cy * axis[1]
                amin = base + w * (min(axis[0], 0.0) + min(axis[1], 0.0))
                amax = base + w * (max(axis[0], 0.0) + max(axis[1], 0.0))
                rel = quads[ref] @ axis
                off = shift @ axis
                keep &= (amax >= (off + rel.min())[:, None, None]) & \
                        (amin <= (off + rel.max())[:, None, None])
        bits.reshape(-1)[((iy - rows.start) * bits.shape[1] + (ix - cols.start))[keep]] = True

    e1 = quads[:, 1] - quads[:, 0]
    e2 = quads[:, 3] - quads[:, 0]
    congruent = len(quads) == 1 or all(c.max() - c.min() < 1e-12 for c in (*e1.T, *e2.T))
    # congruent quads share the first quad's edge directions; others go one at a time
    for ref, group in [(0, idx)] if congruent else [(i, idx[k:k + 1]) for k, i in enumerate(idx)]:
        # unit edge directions, leaving out degenerate and grid-parallel ones
        axes = [e / norm for e in (e1[ref], e2[ref]) if (norm := np.linalg.norm(e)) > 0.0]
        axes = [a for a in axes if min(abs(a[0]), abs(a[1])) >= 1e-12]
        bw = int((ix_hi[group] - ix_lo[group]).max()) + 1
        bh = int((iy_hi[group] - iy_lo[group]).max()) + 1
        band = min(bh, max(1, _QUAD_BLOCK_LIMIT // bw))  # rows per block
        per = max(1, _QUAD_BLOCK_LIMIT // (bw * band))  # quads per block
        for start in range(0, len(group), per):
            chunk = group[start:start + per]
            lo_y, hi_y = iy_lo[chunk], iy_hi[chunk]
            for r in range(0, bh, band):
                fill(ref, axes, chunk, lo_y + r, np.minimum(hi_y, lo_y + (r + band - 1)), bw, band)
    return (rows, cols), bits
