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

from .boxdim import (DimensionEstimate, ScaleSchedule, box_counts, estimate_dimension,
                     fit_dimensions, overlap_counts)
from .cantor import CantorApproximant, cantor_dimension, scale_and_place, scaled_quads
from .errors import ParameterError
from .geometry import SQRT2, BoxGrid, Isometry, Square, rasterize_quads
from .streams import check_seed, doubles, first_outputs, seed_words


@dataclass(frozen=True, eq=False)
class MattilaSurvey:
    """Outcome of a randomized intersection survey at threshold s + t - 2; arrays hold one entry per trial."""

    s: float
    t: float
    threshold: float
    tolerance: float
    trials: int
    hits: int
    theta: np.ndarray
    reflect: np.ndarray
    z: np.ndarray
    slope: np.ndarray
    empty: np.ndarray
    hit: np.ndarray
    seed: int
    window: Square

    @property
    def hit_fraction(self) -> float:
        return self.hits / self.trials if self.trials else 0.0

    def csv_lines(self) -> list[str]:
        lines = ["trial,theta,reflect,zx,zy,slope,hit"]
        rows = zip(self.theta.tolist(), self.reflect.tolist(), self.z.tolist(), self.slope.tolist(),
                   self.hit.tolist())
        for i, (theta, reflect, (zx, zy), slope, hit) in enumerate(rows):
            lines.append(f"{i},{theta:.12g},{int(reflect)},{zx:.12g},{zy:.12g},{slope:.12g},{int(hit)}")
        lines.append(f"s,{self.s:.12g},t,{self.t:.12g},threshold,{self.threshold:.12g},"
                     f"hit_fraction,{self.hit_fraction:.12g}")
        return lines


def trial_motions(window: Square, seed: int, trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Motions of trials 0..trials-1, trial i drawn from ``default_rng([seed, i])`` over ``window``.

    Returns the arrays theta (T,), reflect (T,) bool and z (T, 2); the first m motions of any
    draw are the m-trial draw.  The draw order is fixed: theta as ``uniform(0, 2 pi)``, the
    reflection coin as ``integers(0, 2)`` (Lemire's bounded draw on two values reads bit 31 of
    the low half of the second output), then zx and zy as ``uniform`` over the window's spans.
    Trial indices stay below 2**32, one entropy word each; more trials are refused first.
    """
    if trials > 2 ** 32:
        raise ParameterError(f"trial indices must stay below 2**32, got {trials} trials")
    words = seed_words(seed)
    entropy = np.empty((trials, len(words) + 1), np.uint32)
    entropy[:, :-1] = words
    entropy[:, -1] = np.arange(trials)
    u = first_outputs(entropy, 4)
    d = doubles(u)
    x0, y0 = window.corner
    x1, y1 = window.max_corner
    theta = (2.0 * math.pi) * d[0]
    reflect = ((u[1] >> 31) & 1).astype(bool)
    return theta, reflect, np.stack([x0 + (x1 - x0) * d[2], y0 + (y1 - y0) * d[3]], axis=1)


def apply_isometry(b: CantorApproximant, iso: Isometry, out_bounds: Square,
                   out_level: int) -> BoxGrid:
    """Conservative raster of the image of an approximant under an isometry.

    An output cell is occupied iff it meets the image of some leaf square;
    rotated squares go through the exact polygon/cell overlap test.
    """
    return rasterize_quads(scale_and_place(b, SQRT2, iso), out_bounds, out_level)


def default_survey_window(a: BoxGrid) -> Square:
    """Translation window that reaches every placement of a dust overlapping A.

    An image of the dust's unit frame meets A only if the translation lands
    within half of A's side plus the frame diagonal of A's center, so that
    square window is exhaustive.
    """
    cx, cy = a.bounds.center
    half = a.bounds.side / 2.0 + SQRT2
    return Square.centered((cx, cy), half)


def intersection_dimension(a: BoxGrid, b: CantorApproximant, iso: Isometry) -> DimensionEstimate:
    """Dimension estimate of A intersected with the moved copy of B.

    The fit uses A's default schedule, as A's own slope does, so that
    per-trial slopes are comparable with it.  The copy keeps its unit
    frame: diameter sqrt(2) scales it by exactly 1.
    """
    schedule = ScaleSchedule.default_for(a.level)
    motion = (np.array([iso.theta]), np.array([iso.reflect]), np.array([iso.z]))
    (counts,) = overlap_counts(a, scaled_quads(b, SQRT2), motion, schedule).tolist()
    return estimate_dimension(dict(zip(schedule.levels, counts)), side=a.bounds.side)


def check_survey(trials: int, tolerance: float, seed: int) -> None:
    """Refuse the arguments of ``mattila_survey`` that no set A can make valid."""
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    check_seed(seed)
    if not math.isfinite(tolerance):
        raise ParameterError(f"tolerance must be finite, got {tolerance!r}")


def mattila_survey(a: BoxGrid, b: CantorApproximant, trials: int, tolerance: float = 0.15,
                   seed: int = 0) -> MattilaSurvey:
    """Count sampled motions of the dust B whose intersection slope reaches s + t - 2.

    s is the box-count slope of A and t the exact dimension of the dust.
    The hypotheses s + t > 2 and t > 3/2 are enforced before any trial
    runs.  Motions are drawn from ``default_survey_window(a)``, all at once
    (``trial_motions``), and scored by one ``overlap_counts`` call.  Trials
    draw independent per-index generator streams, so runs are reproducible.
    """
    check_survey(trials, tolerance, seed)
    if a.is_empty():
        raise ParameterError("set A has no occupied cells")
    s = estimate_dimension(box_counts(a, ScaleSchedule.default_for(a.level)), side=a.bounds.side).slope
    t = cantor_dimension(b.alpha)  # in (0, 2) for every valid ratio
    if not 0.0 < s < 2.0:
        raise ParameterError(f"hypothesis 0 < s < 2 violated: s={s:.6g}")
    if not s + t > 2.0:
        raise ParameterError(f"hypothesis s + t > 2 violated: s={s:.6g}, t={t:.6g}")
    if not t > 1.5:
        raise ParameterError(f"hypothesis t > 3/2 violated: t={t:.6g}")
    window = default_survey_window(a)
    threshold = s + t - 2.0
    floor = threshold - tolerance
    schedule = ScaleSchedule.default_for(a.level)
    motions = trial_motions(window, seed, trials)
    counts = overlap_counts(a, scaled_quads(b, SQRT2), motions, schedule)
    slope, _, _, empty, _ = fit_dimensions(schedule.levels, counts, side=a.bounds.side)
    hit = ~empty & (slope >= floor)
    return MattilaSurvey(s, t, threshold, tolerance, trials, int(hit.sum()), *motions, slope, empty, hit,
                         seed, window)
