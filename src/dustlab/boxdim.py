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
from typing import Mapping, Sequence

import numpy as np

from .errors import ParameterError
from .geometry import BoxGrid, Isometry, _quad_hits, aligned_span, halve

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
    def default_for(grid: BoxGrid) -> "ScaleSchedule":
        lo = 2 if grid.level >= 4 else 0
        return ScaleSchedule.span(lo, grid.level)

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
    """Occupied-cell counts of a grid per schedule level (none above its resolution)."""
    return window_counts(grid.bits, grid.level, schedule)


def window_counts(bits: np.ndarray, level: int, schedule: ScaleSchedule) -> dict[int, int]:
    """Occupied-cell counts per schedule level of a window of a level-``level`` raster.

    Counts are taken from fine to coarse by pairwise halving.  The window's
    start and size must be multiples of 2**(level - schedule.levels[0]), so
    that it splits into whole cells at every schedule level; its counts
    then equal those of the full grid with every cell outside the window
    cleared.  A whole grid is such a window.
    """
    _require_resolution(schedule, level)
    counts: dict[int, int] = {}
    for m in reversed(schedule.levels):
        for _ in range(level - m):
            bits = halve(bits)
        level = m
        counts[m] = int(np.count_nonzero(bits))
    return dict(sorted(counts.items()))


#: Quads ``overlap_counts`` moves and scores per step: a trial's, or more trials' up to this many.
_MOVE_LIMIT = 1 << 12


def overlap_counts(grid: BoxGrid, quads: np.ndarray, isos: Sequence[Isometry],
                   schedule: ScaleSchedule) -> list[dict[int, int]]:
    """Counts per schedule level of the grid ANDed with ``rasterize_quads(isos[j].apply(quads))``.

    A motion's frame is the box of the copy's leaves (all vertices of ``quads``), moved by it;
    a motion whose frame reaches no occupied cell scores zero unmoved.  The others are moved
    one trial at a time, or as many trials as ``_MOVE_LIMIT`` quads hold, and only the
    occupied cells in their boxes are tested (``_quad_hits``).  A cell met is keyed
    ``(t, Morton code)``, and level m counts the distinct ``key >> 2 * (grid.level - m)``.
    """
    _require_resolution(schedule, grid.level)
    counts = np.zeros((len(isos), len(schedule.levels)), dtype=np.int64)
    vertices = quads.reshape(-1, 2)
    (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
    box = np.array([(x0, y0), (x1, y0), (x0, y1), (x1, y1)])
    w = grid.cell_size  # a frame widened by one cell absorbs the rounding of the moved leaves
    spans = [_box_span(grid, frame.min(axis=0) - w, frame.max(axis=0) + w)
             for frame in (iso.apply(box) for iso in isos)]
    live = [j for j, (iy0, iy1, ix0, ix1) in enumerate(spans)
            if ix0 <= ix1 and iy0 <= iy1 and grid.bits[iy0:iy1 + 1, ix0:ix1 + 1].any()]
    per = max(1, _MOVE_LIMIT // len(quads))
    for block in (live[s:s + per] for s in range(0, len(live), per)):
        hits = _quad_hits(np.stack([isos[j].apply(quads) for j in block]), grid.bounds, grid.level, grid)
        keys = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] +
                                      [t << 2 * grid.level | _morton(c >> grid.level, c & (grid.size - 1))
                                       for t, c in hits]))
        # a key is new at level m when it differs from the one before above bit 2 * (level - m)
        step, trial = keys ^ np.concatenate([[-1], keys[:-1]]), keys >> 2 * grid.level
        for c, m in enumerate(schedule.levels):
            counts[block, c] = np.bincount(trial[step >> 2 * (grid.level - m) != 0], minlength=len(block))
    return [dict(zip(schedule.levels, map(int, row))) for row in counts]


def _morton(iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Bits of ix and iy (below 2**16) interleaved, ix's first: a level coarser is ``>> 2``."""
    for s, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
        iy, ix = (iy | iy << s) & mask, (ix | ix << s) & mask
    return iy << 1 | ix


def _require_resolution(schedule: ScaleSchedule, level: int) -> None:
    if schedule.levels[-1] > level:
        raise ParameterError(f"schedule level {schedule.levels[-1]} exceeds grid resolution {level}")


def estimate_dimension(counts: Mapping[int, int], window: tuple[int, int] | None = None,
                       side: float = 1.0) -> DimensionEstimate:
    """Ordinary least squares of log N against log(1/delta).

    ``window`` restricts the fit to levels in [lo, hi]; None applies the
    default drop rule when enough levels remain and otherwise uses all of
    them.  A flat count profile reports slope 0 with r2 fixed at 1, and an
    all-zero profile is flagged empty.
    """
    levels = sorted(int(m) for m in counts)
    if len(levels) < 3:
        raise ParameterError(f"need counts at 3 or more levels, got {len(levels)}")
    if window is None:
        trimmed = levels[1:-2]
        used = trimmed if len(trimmed) >= 3 else levels
    else:
        lo, hi = window
        used = [m for m in levels if lo <= m <= hi]
        if len(used) < 3:
            raise ParameterError(f"window {window} keeps {len(used)} levels, need at least 3")
    win = (used[0], used[-1])
    values = [int(counts[m]) for m in used]

    if all(v == 0 for v in values):
        return DimensionEstimate(dict(counts), 0.0, 0.0, 1.0, win, empty=True)
    if any(v <= 0 for v in values):
        raise ParameterError("counts inside the window must all be positive or all be zero")
    if len(set(values)) == 1:
        intercept = math.log(values[0])
        return DimensionEstimate(dict(counts), 0.0, intercept, 1.0, win)

    x = np.array([m * LN2 - math.log(side) for m in used])
    y = np.log(np.array(values, dtype=float))
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    sstot = float(((y - ym) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / sstot if sstot > 0 else 1.0
    return DimensionEstimate(dict(counts), slope, intercept, r2, win)


def counts_csv_lines(counts: Mapping[int, int], side: float) -> list[str]:
    lines = ["level,delta,count"]
    for m in sorted(counts):
        lines.append(f"{m},{side * 2.0 ** -m:.12g},{counts[m]}")
    return lines


def _box_span(grid: BoxGrid, lo: Sequence[float],
              hi: Sequence[float]) -> tuple[int, int, int, int]:
    """Inclusive cell span (iy0, iy1, ix0, ix1) of the closed box from corner lo to corner hi.

    Cells belong when their half-open extent meets the box; the span is
    empty (iy0 > iy1 or ix0 > ix1) when no cell does.
    """
    w = grid.cell_size
    x0, y0 = grid.bounds.corner
    n = grid.size

    def span(a, b, o):
        return max(int(math.floor((a - o) / w)), 0), min(int(math.floor((b - o) / w)), n - 1)

    return span(lo[1], hi[1], y0) + span(lo[0], hi[0], x0)


def _ball_span(grid: BoxGrid, p: Sequence[float], radius: float) -> tuple[int, int, int, int]:
    """``_box_span`` of the closed Chebyshev ball B(p, radius)."""
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius!r}")
    return _box_span(grid, (p[0] - radius, p[1] - radius), (p[0] + radius, p[1] + radius))


def clip_to_ball(grid: BoxGrid, p: Sequence[float], radius: float) -> BoxGrid:
    """Restrict a grid to the closed Chebyshev ball B(p, radius).

    Cells survive when their half-open extent meets the closed ball, which
    keeps the clipped set a union of whole cells of the original raster.
    """
    iy0, iy1, ix0, ix1 = _ball_span(grid, p, radius)
    bits = np.zeros_like(grid.bits)
    if ix0 <= ix1 and iy0 <= iy1:
        bits[iy0:iy1 + 1, ix0:ix1 + 1] = grid.bits[iy0:iy1 + 1, ix0:ix1 + 1]
    return BoxGrid.adopt(grid.bounds, grid.level, bits)


def ball_counts(grid: BoxGrid, p: Sequence[float], radius: float,
                schedule: ScaleSchedule) -> dict[int, int]:
    """``box_counts(clip_to_ball(grid, p, radius), schedule)`` without the full-grid copy.

    Only the ball's cells are copied, into a window widened to multiples of
    2**(grid.level - schedule.levels[0]) cells, and counted there.
    """
    _require_resolution(schedule, grid.level)
    iy0, iy1, ix0, ix1 = _ball_span(grid, p, radius)
    if ix0 > ix1 or iy0 > iy1:
        return {m: 0 for m in schedule.levels}
    step = 1 << (grid.level - schedule.levels[0])
    rows = aligned_span(iy0, iy1, step)
    cols = aligned_span(ix0, ix1, step)
    window = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=bool)
    window[iy0 - rows.start:iy1 + 1 - rows.start, ix0 - cols.start:ix1 + 1 - cols.start] = \
        grid.bits[iy0:iy1 + 1, ix0:ix1 + 1]
    return window_counts(window, grid.level, schedule)


def local_dimension_profile(grid: BoxGrid, p: Sequence[float],
                            radii: Sequence[float]) -> list[DimensionEstimate]:
    """Dimension estimates of the set clipped to shrinking balls around p.

    Radii must decrease.  The schedule per radius spans the levels that
    resolve the ball up to the raster resolution.  An empty clip yields an
    estimate flagged empty.
    """
    if not grid.bounds.contains_point(p):
        raise ParameterError(f"point {tuple(p)} lies outside the grid bounds")
    radii = [float(r) for r in radii]
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ParameterError(f"radii must be strictly decreasing, got {radii}")
    out = []
    for r in radii:
        # finest scales of the raster, starting where cells resolve the ball
        sched = ScaleSchedule.resolving(grid, r / 2.0, floor=0)
        out.append(estimate_dimension(ball_counts(grid, p, r, sched), side=grid.bounds.side))
    return out


def find_full_dimension_point(grid: BoxGrid, min_clearance: float = 0.0) -> tuple[float, float]:
    """Occupied-cell center whose neighborhood keeps the most dimension.

    Scans occupied cells of a coarse candidate grid; each candidate is
    represented by its first occupied fine cell (row-major from the bottom
    row) and scored by the minimum local slope over the radii side/8,
    side/16 and side/32.  Ties keep the earliest candidate in row-major
    order.  ``min_clearance`` optionally discards candidates closer than
    that to the bounds edge (falling back to all of them if none survive).
    """
    if grid.is_empty():
        raise ParameterError("cannot locate a point in an empty set")
    side = grid.bounds.side
    radii = (side / 8.0, side / 16.0, side / 32.0)
    clevel = min(CANDIDATE_LEVEL, grid.level)
    coarse = grid.downsampled(clevel)
    factor = 1 << (grid.level - clevel)

    def representative(cy: int, cx: int) -> tuple[float, float]:
        block = grid.bits[cy * factor:(cy + 1) * factor, cx * factor:(cx + 1) * factor]
        ys, xs = np.nonzero(block)  # row-major: the first is the lowest row's leftmost cell
        return grid.cell_center(cx * factor + int(xs[0]), cy * factor + int(ys[0]))

    x0, y0 = grid.bounds.corner
    x1, y1 = grid.bounds.max_corner

    def clearance(p) -> float:
        return min(p[0] - x0, x1 - p[0], p[1] - y0, y1 - p[1])

    candidates = [representative(int(cy), int(cx)) for cy, cx in zip(*np.nonzero(coarse.bits))]
    best, best_score = None, -math.inf
    for p in [p for p in candidates if clearance(p) >= min_clearance] or candidates:
        score = min(est.slope if not est.empty else 0.0
                    for est in local_dimension_profile(grid, p, radii))
        if score > best_score + 1e-12:  # slopes are finite: the first candidate is always taken
            best_score = score
            best = p
    return best
