"""Random isometries and empirical intersection-dimension surveys.

An isometry acts as x -> g(x) + z with g drawn from the invariant
probability measure on O(2) (uniform rotation angle, fair reflection
coin) and z uniform over a translation window.  For planar sets A of
dimension s and B of dimension t with s + t > 2 and t > 3/2, a positive
measure of such motions makes dim(A intersect sigma(B)) at least
s + t - 2; the survey estimates how often sampled motions reach that
threshold on rasterized inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxdim import DimensionEstimate, ScaleSchedule, box_counts, estimate_dimension
from .cantor import CantorApproximant, cantor_dimension
from .errors import ParameterError
from .geometry import (SQRT2, BoxGrid, Isometry, Square, grid_intersection,
                       rasterize_quads, squares_to_quads)
from .parallel import parallel_map


@dataclass(frozen=True)
class TrialRow:
    trial: int
    theta: float
    reflect: bool
    zx: float
    zy: float
    slope: float
    empty: bool
    hit: bool


@dataclass(frozen=True)
class MattilaSurvey:
    """Outcome of a randomized intersection survey at threshold s + t - 2."""

    s: float
    t: float
    threshold: float
    tolerance: float
    trials: int
    hits: int
    rows: tuple[TrialRow, ...]
    seed: int
    window: Square

    @property
    def hit_fraction(self) -> float:
        return self.hits / self.trials if self.trials else 0.0

    def csv_lines(self) -> list[str]:
        lines = ["trial,theta,reflect,zx,zy,slope,hit"]
        for r in self.rows:
            lines.append(f"{r.trial},{r.theta:.12g},{int(r.reflect)},{r.zx:.12g},"
                         f"{r.zy:.12g},{r.slope:.12g},{int(r.hit)}")
        lines.append(f"s,{self.s:.12g},t,{self.t:.12g},threshold,{self.threshold:.12g},"
                     f"hit_fraction,{self.hit_fraction:.12g}")
        return lines


def sample_isometry(rng: np.random.Generator, translation_window: Square) -> Isometry:
    """Haar-distributed orthogonal part plus a uniform window translation.

    Draw order is fixed (theta, reflection coin, zx, zy) so a seeded
    generator reproduces the same motion.
    """
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    reflect = bool(rng.integers(0, 2))
    x0, y0 = translation_window.corner
    x1, y1 = translation_window.max_corner
    z = (float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))
    return Isometry(theta, reflect, z)


def _source_quads(source) -> np.ndarray:
    if isinstance(source, CantorApproximant):
        return squares_to_quads(source.leaf_corners(), source.side)
    if isinstance(source, BoxGrid):
        w = source.cell_size
        return squares_to_quads(source.occupied_cell_centers() - w / 2.0, w)
    return np.array([s.corners() for s in source], dtype=float).reshape(-1, 4, 2)


def apply_isometry(source, iso: Isometry, out_bounds: Square, out_level: int) -> BoxGrid:
    """Conservative raster of the image of a set under an isometry.

    ``source`` may be a CantorApproximant, a BoxGrid (its occupied cells
    are taken as squares), or a sequence of squares.  An output cell is
    occupied iff it meets the image of some input square; rotated squares
    go through the exact polygon/cell overlap test.
    """
    return rasterize_quads(iso.apply(_source_quads(source)), out_bounds, out_level)


def default_survey_window(a: BoxGrid, frame_side: float = 1.0) -> Square:
    """Translation window that reaches every placement overlapping A.

    Any image of a set living in a frame of the given side meets A only if
    the translation lands within half of A's side plus the frame diagonal
    of A's center, so that square window is exhaustive.
    """
    cx, cy = a.bounds.center
    half = a.bounds.side / 2.0 + SQRT2 * frame_side
    return Square.centered((cx, cy), half)


def intersection_dimension(a: BoxGrid, b_source, iso: Isometry,
                           schedule: ScaleSchedule | None = None) -> DimensionEstimate:
    """Dimension estimate of A intersected with the moved copy of B."""
    if schedule is None:
        # match the schedule used for A's own slope so per-trial fits are comparable
        schedule = ScaleSchedule.default_for(a)
    image = apply_isometry(b_source, iso, a.bounds, a.level)
    inter = grid_intersection(a, image)
    return estimate_dimension(box_counts(inter, schedule), side=a.bounds.side)


def _dimension_of(grid: BoxGrid) -> float:
    counts = box_counts(grid, ScaleSchedule.default_for(grid))
    return estimate_dimension(counts, side=grid.bounds.side).slope


def mattila_survey(a: BoxGrid, b, trials: int, tolerance: float = 0.15,
                   seed: int = 0, window: Square | None = None,
                   schedule: ScaleSchedule | None = None,
                   s: float | None = None, t: float | None = None,
                   reflect_mode: str = "random", jobs: int = 1) -> MattilaSurvey:
    """Count sampled motions whose intersection slope reaches s + t - 2.

    s defaults to the box-count slope of A and t to the exact dust
    dimension when B is an approximant (its box-count slope otherwise).
    The hypotheses s + t > 2 and t > 3/2 are enforced before any trial
    runs.  Trials draw independent per-index generator streams, so runs
    are reproducible and job count does not affect results.
    ``reflect_mode`` may force the reflection coin ("on"/"off") while
    leaving the other draws untouched.
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if reflect_mode not in ("random", "on", "off"):
        raise ParameterError(f"unknown reflect_mode {reflect_mode!r}")
    if a.is_empty():
        raise ParameterError("set A has no occupied cells")
    if s is None:
        s = _dimension_of(a)
    if t is None:
        t = cantor_dimension(b.alpha) if isinstance(b, CantorApproximant) else _dimension_of(b)
    if not 0.0 < s < 2.0:
        raise ParameterError(f"hypothesis 0 < s < 2 violated: s={s:.6g}")
    if not 0.0 < t < 2.0:
        raise ParameterError(f"hypothesis 0 < t < 2 violated: t={t:.6g}")
    if not s + t > 2.0:
        raise ParameterError(f"hypothesis s + t > 2 violated: s={s:.6g}, t={t:.6g}")
    if not t > 1.5:
        raise ParameterError(f"hypothesis t > 3/2 violated: t={t:.6g}")
    if window is None:
        frame = 1.0 if isinstance(b, CantorApproximant) else b.bounds.side
        window = default_survey_window(a, frame)
    if schedule is None:
        schedule = ScaleSchedule.default_for(a)
    counts_a = box_counts(a, schedule)
    if min(counts_a.values()) <= 0:
        raise ParameterError("set A must have positive box counts at every schedule level")
    threshold = s + t - 2.0
    floor = threshold - tolerance

    def run_trial(i: int) -> TrialRow:
        rng = np.random.default_rng([seed, i])
        iso = sample_isometry(rng, window)
        if reflect_mode != "random":
            iso = Isometry(iso.theta, reflect_mode == "on", iso.z)
        est = intersection_dimension(a, b, iso, schedule)
        hit = (not est.empty) and est.slope >= floor
        return TrialRow(i, iso.theta, iso.reflect, iso.z[0], iso.z[1],
                        est.slope, est.empty, hit)

    rows = parallel_map(run_trial, trials, jobs)
    hits = sum(r.hit for r in rows)
    return MattilaSurvey(s, t, threshold, tolerance, trials, hits,
                         tuple(rows), seed, window)
