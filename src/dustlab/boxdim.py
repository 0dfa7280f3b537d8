"""Box counting across scales and least-squares dimension estimation.

Counts N(delta) of occupied cells at cell size delta = side * 2**-m are
fitted as log N against log(1/delta); the slope is the box-counting
dimension estimate.  The default regression window drops the coarsest
level and the two finest: the coarsest is polluted by the bounding box,
the finest by finite construction depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import geometry
from .errors import ParameterError
from .geometry import BoxGrid, _closed_span, _matrices, _quad_hits, coarsened

LN2 = math.log(2.0)
#: Level of the coarse grid whose occupied cells find_full_dimension_point scores.
CANDIDATE_LEVEL = 4


@dataclass(frozen=True)
class ScaleSchedule:
    """Strictly increasing grid levels; the regression needs at least three."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        levels = tuple(int(m) for m in self.levels)
        if len(levels) < 3:
            raise ParameterError(f"schedule needs at least 3 levels, got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 0:
            raise ParameterError(f"levels must be strictly increasing and nonnegative, got {levels}")
        object.__setattr__(self, "levels", levels)

    @staticmethod
    def span(lo: int, hi: int, step: int = 1) -> "ScaleSchedule":
        return ScaleSchedule(tuple(range(lo, hi + 1, step)))

    @staticmethod
    def default_for(level: int) -> "ScaleSchedule":
        """Levels 2 to ``level`` (0 to ``level`` below level 4) for a level-``level`` grid."""
        return ScaleSchedule.span(2 if level >= 4 else 0, level)

    @staticmethod
    def resolving(grid: BoxGrid, extent: float, floor: int = 2, finer: int = 0) -> "ScaleSchedule":
        """Levels from where cells resolve a feature of size ``extent`` up to the raster.

        The window starts at the coarsest level whose cells are no larger
        than ``extent`` (taken as at least one raster cell), ``finer``
        levels further on, clamped to [floor, grid.level - 2] so that at
        least three levels remain.
        """
        lo = math.ceil(math.log2(max(grid.bounds.side / max(extent, grid.cell_size), 1.0))) + finer
        return ScaleSchedule.span(max(floor, min(lo, grid.level - 2)), grid.level)


@dataclass(frozen=True)
class DimensionEstimate:
    """Per-scale counts plus the fitted log-log slope over a level window."""

    counts: dict[int, int]
    slope: float
    intercept: float
    r2: float
    window: tuple[int, int]
    empty: bool = False

    def summary_line(self) -> str:
        return (f"{self.slope:.12g},{self.intercept:.12g},{self.r2:.12g},"
                f"{self.window[0]}:{self.window[1]}")


def box_counts(grid: BoxGrid, schedule: ScaleSchedule) -> dict[int, int]:
    """Occupied-cell counts of a grid per schedule level (none above its resolution): the
    ``window_counts`` of its bands of ``geometry._HALVE_BAND`` cells, so no halving holds more."""
    rows = max(1, geometry._HALVE_BAND >> grid.level)
    return window_counts((grid.bits[y:y + rows] for y in range(0, grid.size, rows)), grid.level, schedule)


def window_counts(bands: Iterable[np.ndarray], level: int, schedule: ScaleSchedule) -> dict:
    """Occupied-cell counts per schedule level of a window of a level-``level`` raster given as
    equal bands of rows, top or bottom band first: ``[bits]`` is one band.

    The window's start and size must be multiples of 2**(level - schedule.levels[0]), so that it
    splits into whole cells at every schedule level; its counts then equal those of the full grid
    with every cell outside the window cleared.  A whole grid is such a window.  A band may also
    be a stack (K, rows, w) of the same rows of K windows of one shape, which are then counted
    together, each count a (K,) array of one per window.  Each band counts the levels at which
    its rows split into whole cells, fine to coarse, each ``coarsened`` straight from the one
    after it (a stack as its K * rows rows), so a level the schedule does not ask for is never
    built.  When the coarsest such level is above the schedule's first (below which the window's
    width need not split), the bands are coarsened to it and stacked to count the rest.  No band
    is kept.  A schedule finer than the raster is refused after the last band."""
    if isinstance(bands, np.ndarray):
        raise TypeError("a window is a list of bands: pass [bits]")
    fits, counts, coarse = schedule.levels[-1] <= level, dict.fromkeys(schedule.levels, 0), []
    for band in bands:
        if fits:  # else read on, so that an error in reading a band comes first
            rows = band.shape[-2]
            stop = level + 1 - (rows & -rows).bit_length() if rows else 0
            bits, at = _count_down(band, level, [m for m in schedule.levels[::-1] if m >= stop], counts)
            if stop > schedule.levels[0]:  # a copy: the band's array may be read anew
                coarse.append(_coarsened(bits, at - stop).copy())
    _require_resolution(schedule, level)
    if coarse:
        rest = [m for m in schedule.levels[::-1] if m < stop]
        _count_down(np.concatenate(coarse, axis=-2), stop, rest, counts)
    return counts


def _count_down(bits: np.ndarray, level: int, levels: list[int], counts: dict) -> tuple:
    """Add to ``counts`` the occupied cells at each of ``levels``, fine to coarse, per window of a
    stack; the last (bits, level)."""
    for m in levels:
        bits, level = _coarsened(bits, level - m), m
        if bits.ndim == 2:
            counts[m] += int(np.count_nonzero(bits))
        else:  # a count per window, each by the fast whole-array count
            counts[m] = counts[m] + np.array([np.count_nonzero(window) for window in bits])
    return bits, level


def _coarsened(bits: np.ndarray, k: int) -> np.ndarray:
    """``coarsened`` of rows (rows, w) or of a stack (K, rows, w), each window on its own."""
    *lead, rows, width = bits.shape
    return coarsened(bits.reshape(math.prod(lead) * rows, width), k).reshape(*lead, rows >> k, width >> k)


#: Quads ``overlap_counts`` moves and scores per step: a trial's, or more trials' up to this many.
_MOVE_LIMIT = 1 << 12


def overlap_counts(grid: BoxGrid, quads: np.ndarray, motions: tuple,
                   schedule: ScaleSchedule) -> np.ndarray:
    """Counts per schedule level of the grid ANDed with ``rasterize_quads`` of each moved ``quads``.

    ``motions`` holds the arrays (theta, reflect, z) of ``intersect.trial_motions``, shaped (T,),
    (T,) bool and (T, 2); row j of the (T, len(schedule.levels)) result is for the motion
    ``Isometry(theta[j], reflect[j], z[j])``.  A motion whose frame (``_frame_spans``) reaches no
    occupied cell scores zero unmoved.  The others are moved in blocks of as many trials as
    ``_MOVE_LIMIT`` quads hold (at least one), each block by one stacked product of the motions'
    matrices with the quads' coordinate rows, which runs, per motion, the product of
    ``Isometry.apply``.  Only the occupied cells in the moved boxes are tested (``_quad_hits``),
    from a cell index built once per call, whole, before any block is scored: the sorted occupied
    cells and the grid ``coarsened`` k times, k the bit length of ceil(D / w) + 1 (at most the
    level), D the largest diagonal of a leaf's box and w the cell side: a moved leaf's box spans
    at most ceil(D / w) cells a side, + 1 for the rounding of its moved coordinates.  A cell met
    is keyed ``(t, Morton code)``, and level m counts the distinct ``key >> 2 * (grid.level - m)``.
    """
    _require_resolution(schedule, grid.level)
    theta, reflect, z = motions
    counts = np.zeros((len(theta), len(schedule.levels)), dtype=np.int64)
    mats = _matrices(theta, reflect)
    z = z.reshape(-1, 2, 1)
    live = [j for j, (iy0, iy1, ix0, ix1) in enumerate(_frame_spans(grid, quads, mats, z).tolist())
            if ix0 <= ix1 and iy0 <= iy1 and grid.bits[iy0:iy1 + 1, ix0:ix1 + 1].any()]
    per = max(1, _MOVE_LIMIT // len(quads))
    blocks = [live[s:s + per] for s in range(0, len(live), per)]
    flat = np.ascontiguousarray(quads.transpose(2, 1, 0)).reshape(2, -1)  # flat[c, v * N + i]
    level, spread = grid.level, _spread(np.arange(grid.size))
    extent = quads.max(axis=1) - quads.min(axis=1)  # each leaf's box
    k = min(level, (math.ceil(np.hypot(*extent.T).max() / grid.cell_size) + 1).bit_length())
    cells, occ = np.flatnonzero(grid.bits), coarsened(grid.bits, k) if live else None
    # a key is new at level m when it differs from the one before (the first from -1) above
    # bit 2 * (level - m): it is new at the r finest levels, r the thresholds its XOR reaches
    reach = np.array([1 << 2 * (level - m) for m in reversed(schedule.levels)], dtype=np.uint64)
    width = len(reach) + 1

    for block in blocks:
        xy = mats[block] @ flat
        xy += z[block]
        hits = _quad_hits(xy.reshape(len(block), 2, 4, -1), grid.bounds, level, cells, occ)
        t, c = np.concatenate([np.zeros((2, 0), dtype=np.int64)] + [np.stack(hit) for hit in hits], axis=1)
        keys = np.sort(t << 2 * level | spread[c >> level] << 1 | spread[c & (grid.size - 1)])
        r = reach.searchsorted((keys ^ np.concatenate([[-1], keys[:-1]])).view(np.uint64), "right")
        tally = np.bincount((keys >> 2 * level) * width + r, minlength=len(block) * width)
        # schedule level c (coarsest first) counts the keys with r >= len(reach) - c
        counts[block] = tally.reshape(-1, width)[:, :0:-1].cumsum(axis=1)
    return counts


def _frame_spans(grid: BoxGrid, quads: np.ndarray, mats: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per motion, the closed span (iy0, iy1, ix0, ix1) of cells meeting its frame (``_closed_span``).

    The motions are ``x -> mats[j] @ x + z[j]``, (M, 2, 2) and (M, 2, 1), as ``Isometry`` gives
    them.  A frame is the box of the copy's leaves, moved by the motion and widened by one cell,
    which absorbs the rounding of the moved leaves.  The stacked product runs, per motion, the
    product of ``Isometry.apply``, so each moved box equals ``iso.apply(box)``.
    """
    vertices = quads.reshape(-1, 2)
    (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
    box = np.array([(x0, y0), (x1, y0), (x0, y1), (x1, y1)])
    frames = box @ mats.transpose(0, 2, 1) + z.transpose(0, 2, 1)
    w = grid.cell_size
    lo, hi = _closed_span(frames.min(axis=1) - w, frames.max(axis=1) + w, grid.bounds.corner, w, grid.size)
    return np.stack([lo[:, 1], hi[:, 1], lo[:, 0], hi[:, 0]], axis=1)


def _spread(v: np.ndarray) -> np.ndarray:
    """Bits of v (below 2**16) moved to the even places.

    ``spread[iy] << 1 | spread[ix]`` is then the Morton code of a cell, ix's bits first, and a
    level coarser is ``>> 2``.
    """
    for s, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
        v = (v | v << s) & mask
    return v


def _require_resolution(schedule: ScaleSchedule, level: int) -> None:
    if schedule.levels[-1] > level:
        raise ParameterError(f"schedule level {schedule.levels[-1]} exceeds grid resolution {level}")


def fit_dimensions(levels: Sequence[int], counts, window: tuple[int, int] | None = None,
                   side: float = 1.0) -> tuple:
    """Ordinary least squares of log N against log(1/delta), one fit per row of ``counts``.

    ``counts`` is a (rows, len(levels)) array of counts at the strictly
    increasing ``levels``.  ``window`` restricts the fits to levels in
    [lo, hi]; None applies the default drop rule when enough levels remain
    and otherwise uses all of them.  A flat row reports slope 0 with r2
    fixed at 1, and an all-zero row is flagged empty; a row with a zero or
    negative count among positive ones raises.  Returns the arrays slope,
    intercept, r2 and empty, and the window fitted.
    """
    levels = [int(m) for m in levels]
    if len(levels) < 3:
        raise ParameterError(f"need counts at 3 or more levels, got {len(levels)}")
    first, last = window or _default_window(levels)
    inside = [k for k, m in enumerate(levels) if first <= m <= last]
    if len(inside) < 3:
        raise ParameterError(f"window {window} keeps {len(inside)} levels, need at least 3")
    lo, hi = inside[0], inside[-1] + 1
    values = np.asarray(counts, dtype=np.int64).reshape(-1, len(levels))[:, lo:hi]
    empty = ~values.any(axis=1)
    if (values[~empty] <= 0).any():
        raise ParameterError("counts inside the window must all be positive or all be zero")
    flat = (values == values[:, :1]).all(axis=1)
    # every row C-ordered, so row-wise log and sums give the floats of a one-row fit
    x = np.array([m * LN2 - math.log(side) for m in levels[lo:hi]])
    y = np.log(np.maximum(values, 1).astype(float))
    xm = x.mean()
    ym = y.mean(axis=1)
    sxx = float(((x - xm) ** 2).sum())
    slope = ((x - xm) * (y - ym[:, None])).sum(axis=1) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept[:, None] + slope[:, None] * x)
    sstot = ((y - ym[:, None]) ** 2).sum(axis=1)
    r2 = 1.0 - np.divide((resid ** 2).sum(axis=1), sstot, out=np.zeros_like(sstot), where=sstot > 0)
    slope[flat], r2[flat] = 0.0, 1.0
    intercept[flat] = [math.log(v) if v else 0.0 for v in values[flat, 0].tolist()]
    return slope, intercept, r2, empty, (levels[lo], levels[hi - 1])


def estimate_dimension(counts: Mapping[int, int], window: tuple[int, int] | None = None,
                       side: float = 1.0) -> DimensionEstimate:
    """``fit_dimensions`` of one {level: count} profile."""
    levels = sorted(int(m) for m in counts)
    (slope,), (intercept,), (r2,), (empty,), win = fit_dimensions(
        levels, [[counts[m] for m in levels]], window, side)
    return DimensionEstimate(dict(counts), float(slope), float(intercept), float(r2), win, bool(empty))


def counts_csv_lines(counts: Mapping[int, int], side: float) -> list[str]:
    lines = ["level,delta,count"]
    for m in sorted(counts):
        lines.append(f"{m},{side * 2.0 ** -m:.12g},{counts[m]}")
    return lines


def _default_window(levels: Sequence[int]) -> tuple[int, int]:
    """The levels (first, last) that ``fit_dimensions`` fits when given no window: all of them,
    or from six levels up all but the coarsest and the two finest."""
    return (levels[1], levels[-3]) if len(levels) >= 6 else (levels[0], levels[-1])


def _ball_windows(grid: BoxGrid, centers, radius: float, step: int) -> Iterator[tuple]:
    """The cells of ``grid`` in the closed Chebyshev balls B(center, radius) (``_closed_span``),
    each in a zero window widened outward to multiples of ``step`` (``aligned_span``), after the
    inputs are checked.

    Yields pairs (which, stack): a stack (K, h, w) holds the windows of the centers ``which``,
    which share one shape, in at most ``geometry._HALVE_BAND`` cells; a larger window is a stack
    of its own.  Every stack is filled into the same array, which is overwritten when the next
    stack is asked for.  A center's span may be empty, off the grid: its window is then widened
    from the span's start, which is 0 or the grid's size, and holds no cell."""
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    if not (0.0 < radius < math.inf and np.isfinite(c).all()):
        raise ParameterError(f"need finite centers and a positive, finite radius, got radius {radius!r}")
    lo, hi = _closed_span(c - radius, c + radius, grid.bounds.corner, grid.cell_size, grid.size)
    start = lo - lo % step
    size = (np.maximum(lo, hi) // step + 1) * step - start  # (x, y) of each window
    shapes, group = np.unique(size, axis=0, return_inverse=True)
    group, cells = group.reshape(-1), shapes.prod(axis=1)
    per = np.maximum(1, geometry._HALVE_BAND // cells)  # windows a stack of each shape holds
    # one array for every stack: fresh pages for each would fault on every call
    store = np.empty(int((np.minimum(per, np.bincount(group)) * cells).max()), dtype=grid.bits.dtype)
    lo, hi, start = (a.tolist() for a in (lo, hi + 1, start))
    for g, ((w, h), p) in enumerate(zip(shapes.tolist(), per.tolist())):
        members = np.flatnonzero(group == g)
        for which in (members[s:s + p] for s in range(0, len(members), p)):
            stack = store[:len(which) * h * w].reshape(len(which), h, w)
            stack[:] = False
            for window, i in zip(stack, which.tolist()):
                (x0, y0), (x1, y1), (sx, sy) = lo[i], hi[i], start[i]
                window[y0 - sy:y1 - sy, x0 - sx:x1 - sx] = grid.bits[y0:y1, x0:x1]
            yield which, stack


def clip_to_ball(grid: BoxGrid, p: Sequence[float], radius: float) -> BoxGrid:
    """Restrict a grid to the closed Chebyshev ball B(p, radius).

    Cells survive when their half-open extent meets the closed ball, which
    keeps the clipped set a union of whole cells of the original raster.
    """
    ((_, (bits,)),) = _ball_windows(grid, [p], radius, grid.size)
    return BoxGrid.adopt(grid.bounds, grid.level, bits)


def find_full_dimension_point(grid: BoxGrid, min_clearance: float = 0.0) -> tuple[float, float]:
    """Occupied-cell center whose neighborhood keeps the most dimension.

    Scans occupied cells of a coarse candidate grid; each candidate is
    represented by its first occupied fine cell (row-major from the bottom
    row) and scored by the minimum local slope over the radii side/8,
    side/16 and side/32.  A radius's fit takes the levels from where cells
    resolve the radius to the raster's, and reads those of its default
    window (``_default_window``); only those are counted, and the fit is
    given them as its window.  The balls of a radius are cut in windows
    of whole cells at the first level read, stacked by shape
    (``_ball_windows``), and each stack is counted by one
    ``window_counts``.  Ties keep the earliest candidate in row-major
    order.  ``min_clearance`` optionally discards candidates closer than
    that to the bounds edge (falling back to all of them if none
    survive).
    """
    if grid.is_empty():
        raise ParameterError("cannot locate a point in an empty set")
    xs, ys = _representatives(grid)
    (x0, y0), (x1, y1) = grid.bounds.corner, grid.bounds.max_corner
    keep = np.minimum(np.minimum(xs - x0, x1 - xs), np.minimum(ys - y0, y1 - ys)) >= min_clearance
    keep |= not keep.any()
    pool = list(zip(xs[keep].tolist(), ys[keep].tolist()))
    side = grid.bounds.side
    scores = np.inf
    for r in (side / 8.0, side / 16.0, side / 32.0):
        window = _default_window(ScaleSchedule.resolving(grid, r / 2.0, floor=0).levels)
        read = ScaleSchedule.span(*window)
        counts = np.empty((len(pool), len(read.levels)), dtype=np.int64)
        for which, stack in _ball_windows(grid, pool, r, 1 << (grid.level - window[0])):
            counts[which] = np.stack(list(window_counts([stack], grid.level, read).values()), axis=1)
        slope, _, _, empty, _ = fit_dimensions(read.levels, counts, window, side)
        scores = np.minimum(scores, np.where(empty, 0.0, slope))
    return pool[best_index(scores)]


def best_index(scores: np.ndarray) -> int:
    """The best of scores scanned in order, where a later score wins only by more than 1e-12."""
    best, values = 0, scores.tolist()
    for j, score in enumerate(values):
        if score > values[best] + 1e-12:
            best = j
    return best


def _representatives(grid: BoxGrid) -> tuple[np.ndarray, np.ndarray]:
    """Centers (xs, ys) of the first occupied cell, row-major, of each occupied candidate block, row-major."""
    level = min(CANDIDATE_LEVEL, grid.level)
    nc, f = 1 << level, 1 << (grid.level - level)
    blocks = grid.bits.reshape(nc, f, nc, f).transpose(0, 2, 1, 3).reshape(nc * nc, f * f)
    first = blocks.argmax(axis=1)
    k = np.flatnonzero(blocks[np.arange(nc * nc), first])
    w = grid.cell_size
    x0, y0 = grid.bounds.corner
    return x0 + (k % nc * f + first[k] % f + 0.5) * w, y0 + (k // nc * f + first[k] // f + 0.5) * w
