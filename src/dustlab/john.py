"""Ring decomposition of the dust complement and explicit center-bound paths.

Every generation-g square Q gets a concentric guard curve gamma_Q, the
boundary of the square of side alpha**g + alpha**(g-1) * (1 - 2*alpha) / 2
(half the sibling gap added in total width).  For the generation-0 unit
square, which has no siblings, the enlarged base square of side
1 + (1 - 2*alpha) plays that role.  The ring R_Q is the closed region
between gamma_Q and the four child curves inside it; rings at all
generations, plus the exterior of the base square, cover the complement
of the dust.

A path from any point ascends ring by ring: inside R_Q it runs straight
to the nearest point of gamma_Q, which lies in the parent ring, and
repeats until it lands on the base curve, one vertex per curve.
Exterior points connect straight to the base curve.  The guard-curve
geometry keeps every ring at positive distance from the dust, which is
what makes the distance ratio along these paths bounded below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cantor import address_corners, interval_starts
from .errors import DustError, ParameterError, RingUndeterminedError
from .geometry import Alpha, as_alpha
from .parallel import check_jobs, parallel_map

UNIT_CENTER = (0.5, 0.5)
#: Point-square pairs distance_to_squares compares at once; bounds its scratch.
DISTANCE_BLOCK_PAIRS = 262144


def curve_half_width(alpha: Alpha | float, generation: int) -> float:
    """Half-width of the guard curve around a generation-g square.

    For g >= 1 the defining formula collapses to alpha**(g-1) / 4 exactly.
    Generation 0 uses the enlarged base square of side 1 + (1 - 2*alpha).
    """
    a = float(as_alpha(alpha))
    if generation == 0:
        return 1.0 - a
    return a ** (generation - 1) / 4.0


def ring_clearance_bound(alpha: Alpha | float, generation: int) -> float:
    """Sharp guaranteed distance from ring-g points to the dust.

    Points of ring generation g stay farther than alpha**g * (1-2*alpha)/4
    from the dust; the constant is approached in the limit just outside the
    sides of the child curves, opposite dust on the child squares' edges
    (at a child-curve corner the ratio is sqrt(2)).
    """
    a = float(as_alpha(alpha))
    return a ** generation * (1.0 - 2.0 * a) / 4.0


@dataclass(frozen=True)
class RingLocation:
    """Which ring (or the exterior) a point belongs to."""

    generation: int  # -1 for the exterior
    word: tuple[int, ...]  # quadrant codes of the ring's square


@dataclass(frozen=True)
class JohnPath:
    """Polyline from a source point up to the base curve."""

    vertices: np.ndarray  # (M, 2)
    ring_generation: int  # -1 for exterior sources
    landings: tuple[tuple[int, int], ...]  # (generation, vertex index) per curve crossed

    @property
    def length(self) -> float:
        diffs = np.diff(self.vertices, axis=0)
        return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())


@dataclass(frozen=True)
class JohnReport:
    """Worst distance ratios observed along sampled paths."""

    alpha: float
    depth: int
    samples: int
    seed: int
    epsilon: float
    points: np.ndarray  # (samples, 2) source points
    worst_ratios: np.ndarray  # (samples,)
    length_constant: float
    unresolved: int

    def csv_lines(self) -> list[str]:
        lines = ["sample_x,sample_y,worst_ratio"]
        for (x, y), r in zip(self.points, self.worst_ratios):
            lines.append(f"{x:.12g},{y:.12g},{r:.12g}")
        lines.append(f"epsilon,{self.epsilon:.12g},samples,{self.samples},"
                     f"length_constant,{self.length_constant:.12g}")
        return lines


def _child_curve_boxes(corner, side, alpha):
    """Centers and half-width of the four child guard curves of one square."""
    off0 = side * alpha / 2.0
    off1 = side * (1.0 - alpha) + off0
    centers = [(corner[0] + (off1 if q & 1 else off0), corner[1] + (off1 if q >> 1 else off0))
               for q in range(4)]
    return centers, side / 4.0


def point_in_approximant(p: Sequence[float], alpha: Alpha | float, depth: int) -> bool:
    """Closed membership test against the union of generation-depth squares.

    The union is the product of two 1-D approximants, so each coordinate
    descends on its own, into the near or else the far child interval.
    """
    a = float(as_alpha(alpha))
    for t in (float(p[0]), float(p[1])):
        if not 0.0 <= t <= 1.0:
            return False
        lo, s = 0.0, 1.0
        for _ in range(depth):
            if not 0.0 <= t - lo <= a * s:
                if not (1.0 - a) * s <= t - lo <= s:
                    return False
                lo += (1.0 - a) * s
            s *= a
    return True


def ring_of_point(z: Sequence[float], alpha: Alpha | float, depth: int) -> RingLocation:
    """Deepest ring whose region contains z, resolved down to generation depth.

    Points beyond the base curve are exterior.  Points inside a
    generation-depth square, or still inside a guard curve one generation
    beyond the requested depth, raise RingUndeterminedError.
    """
    a = float(as_alpha(alpha))
    if depth < 0:
        raise ParameterError(f"depth must be nonnegative, got {depth}")
    z = (float(z[0]), float(z[1]))
    base_half = curve_half_width(a, 0)
    if max(abs(z[0] - UNIT_CENTER[0]), abs(z[1] - UNIT_CENTER[1])) > base_half:
        return RingLocation(-1, ())
    if point_in_approximant(z, a, depth):
        raise RingUndeterminedError(
            f"point {z} lies inside a generation-{depth} square; undetermined at this depth")

    word: list[int] = []
    corner, side = (0.0, 0.0), 1.0
    for g in range(depth + 1):
        centers, half = _child_curve_boxes(corner, side, a)
        hit = next((q for q, (cx, cy) in enumerate(centers)
                    if abs(z[0] - cx) <= half and abs(z[1] - cy) <= half), None)
        if hit is None:
            return RingLocation(g, tuple(word))
        if g == depth:
            raise RingUndeterminedError(
                f"point {z} is closer than generation {depth} resolves; undetermined at this depth")
        word.append(hit)
        corner = (corner[0] + (hit & 1) * (1.0 - a) * side,
                  corner[1] + (hit >> 1) * (1.0 - a) * side)
        side *= a
    raise AssertionError("unreachable")


def _segment_blocked(fixed: float, lo: float, hi: float, boxes, axis: int) -> bool:
    """Does a segment along ``axis`` (0 for x, 1 for y) cross any open child-curve box?

    The segment runs from ``lo`` to ``hi`` along the axis at coordinate
    ``fixed`` across it.  Boxes are shrunk by a relative tolerance so curve
    landings computed from a neighboring generation's geometry (equal up
    to rounding) do not register as grazing the interior.
    """
    centers, half = boxes
    h = half * (1.0 - 1e-9)
    for center in centers:
        along, across = center[axis], center[1 - axis]
        if across - h < fixed < across + h and hi > along - h and lo < along + h:
            return True
    return False


def _step_to_curve(w, center, half_width, boxes):
    """The straight move from w to the nearest side of the guard curve.

    Each child-curve box's center is equally far from the two curve sides
    at its corner, so a move toward one side could cross a box only from a
    point that is strictly closer to another side: the nearest side is
    always in the clear.  The move is still checked, and a blocked one
    raises DustError.  Ties go to the first side in W, E, S, N order.
    """
    cx, cy = center
    _, axis, coord = min(
        (
            (w[0] - (cx - half_width), 0, cx - half_width),
            ((cx + half_width) - w[0], 0, cx + half_width),
            (w[1] - (cy - half_width), 1, cy - half_width),
            ((cy + half_width) - w[1], 1, cy + half_width),
        ),
        key=lambda side: side[0],
    )
    target = (coord, w[1]) if axis == 0 else (w[0], coord)
    if _segment_blocked(w[1 - axis], *sorted((w[axis], coord)), boxes, axis):
        raise DustError(f"straight move to the guard curve blocked near {w}")
    return target


def build_john_path(z: Sequence[float], alpha: Alpha | float, depth: int) -> JohnPath:
    """Polyline from z to the base curve, ascending rings monotonically."""
    a = float(as_alpha(alpha))
    z = (float(z[0]), float(z[1]))
    loc = ring_of_point(z, a, depth)

    vertices = [z]
    landings: list[tuple[int, int]] = []

    if loc.generation == -1:
        half = curve_half_width(a, 0)
        lo = UNIT_CENTER[0] - half
        hi = UNIT_CENTER[0] + half
        target = (min(max(z[0], lo), hi), min(max(z[1], lo), hi))
        if target != z:
            vertices.append(target)
        landings.append((0, len(vertices) - 1))
        return JohnPath(np.array(vertices), -1, tuple(landings))

    w = z
    word = np.array(loc.word, dtype=np.uint8).reshape(1, -1)
    for g in range(loc.generation, -1, -1):
        corner = tuple(address_corners(word[:, :g], a)[0].tolist())
        side = a ** g
        center = (corner[0] + side / 2.0, corner[1] + side / 2.0)
        half = curve_half_width(a, g)
        boxes = _child_curve_boxes(corner, side, a)
        v = _step_to_curve(w, center, half, boxes)
        if v != w:
            vertices.append(v)
            w = v
        landings.append((g, len(vertices) - 1))
    return JohnPath(np.array(vertices), loc.generation, tuple(landings))


def densify_polyline(vertices: np.ndarray, step: float) -> np.ndarray:
    """Points along a polyline no farther apart than step, endpoints kept."""
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) == 1:
        return vertices.copy()
    chunks = [vertices[:1]]
    for a, b in zip(vertices[:-1], vertices[1:]):
        seg = np.hypot(*(b - a))
        npts = max(1, int(math.ceil(seg / step)))
        ts = np.linspace(0.0, 1.0, npts + 1)[1:]
        chunks.append(a + ts[:, None] * (b - a))
    return np.vstack(chunks)


def distance_to_squares(points: np.ndarray, corners: np.ndarray, side: float) -> np.ndarray:
    """Euclidean distance from each point to the union of equal squares.

    Compares every point with every square; the reference that
    ``distance_to_dust`` matches on the approximant's leaves.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    corners = np.asarray(corners, dtype=float)
    out = np.empty(len(points))
    block = max(1, DISTANCE_BLOCK_PAIRS // max(len(corners), 1))
    for i in range(0, len(points), block):
        px = points[i:i + block, 0][:, None]
        py = points[i:i + block, 1][:, None]
        dx = np.maximum(np.maximum(corners[None, :, 0] - px, px - corners[None, :, 0] - side), 0.0)
        dy = np.maximum(np.maximum(corners[None, :, 1] - py, py - corners[None, :, 1] - side), 0.0)
        out[i:i + block] = np.hypot(dx, dy).min(axis=1)
    return out


def distance_to_dust(points: np.ndarray, starts: np.ndarray, side: float) -> np.ndarray:
    """Euclidean distance from each point to the approximant with these interval starts.

    ``starts`` are the ascending left ends of the disjoint 1-D intervals of
    length ``side`` (``interval_starts``).  Distance to a product set
    separates, d((x, y), A x A)**2 = d(x, A)**2 + d(y, A)**2, and the nearest
    interval to t is one of the two whose starts bracket it, so one
    ``searchsorted`` per axis gives, float for float, what
    ``distance_to_squares`` finds over all leaf squares.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.hypot(_distance_to_intervals(points[:, 0], starts, side),
                    _distance_to_intervals(points[:, 1], starts, side))


def _distance_to_intervals(t: np.ndarray, starts: np.ndarray, side: float) -> np.ndarray:
    """Distance from each t to the nearer of the intervals that bracket it."""
    i = np.searchsorted(starts, t, "right")
    gaps = [np.maximum(np.maximum(c - t, t - c - side), 0.0)
            for c in (starts[np.maximum(i - 1, 0)], starts[np.minimum(i, len(starts) - 1)])]
    return np.minimum(*gaps)


def _check_sampling_depth(depth: int) -> None:
    if depth < 1:  # the depth-0 approximant covers the unit square: no draw would succeed
        raise ParameterError("sampling needs depth at least 1; generation 0 covers the unit square")


def _draw_sample(rng, alpha: float, depth: int):
    """Next source point, uniform over the unit square minus the approximant.

    Returns ``(z, ring, unresolved)``: the point, its ``RingLocation``, and
    the number of draws skipped because their ring was undetermined.
    """
    unresolved = 0
    while True:
        z = (float(rng.random()), float(rng.random()))
        if point_in_approximant(z, alpha, depth):
            continue
        try:
            return z, ring_of_point(z, alpha, depth), unresolved
        except RingUndeterminedError:
            unresolved += 1


def verify_john(alpha: Alpha | float, depth: int, samples: int, seed: int,
                jobs: int = 1) -> JohnReport:
    """Sample source points, build their paths, and report the worst ratio.

    For every path point q the ratio d(q, approximant) / d(q, source) is
    evaluated on a discretization with spacing at most alpha**depth / 8;
    epsilon is the minimum over all samples.  Euclidean distances are used
    throughout (the construction lives in a fixed bounded window).
    Sources are drawn up front from one seeded stream, then evaluated
    independently and merged by sample index, so the result is the same
    for any job count.
    """
    a = float(as_alpha(alpha))
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    check_jobs(jobs)
    _check_sampling_depth(depth)
    starts = interval_starts(a, depth)
    side = a ** depth
    step = side / 8.0

    rng = np.random.default_rng(seed)
    points = np.empty((samples, 2))
    unresolved = 0
    for i in range(samples):
        points[i], _, skipped = _draw_sample(rng, a, depth)
        unresolved += skipped

    def evaluate(i: int) -> tuple[float, float]:
        z = tuple(points[i])
        path = build_john_path(z, a, depth)
        dense = densify_polyline(path.vertices, step)
        d_set = distance_to_dust(dense, starts, side)
        d_src = np.hypot(dense[:, 0] - z[0], dense[:, 1] - z[1])
        mask = d_src > 1e-15
        ratios = d_set[mask] / d_src[mask]
        ratio = float(ratios.min()) if len(ratios) else math.inf
        anchor_dist = float(np.hypot(*(path.vertices[-1] - np.asarray(z))))
        stretch = path.length / anchor_dist if anchor_dist > 1e-15 else 0.0
        return ratio, stretch

    results = parallel_map(evaluate, samples, jobs)
    worst = np.array([r[0] for r in results])
    length_constant = max((r[1] for r in results), default=0.0)

    finite = worst[np.isfinite(worst)]
    eps = float(finite.min()) if len(finite) else math.inf
    return JohnReport(a, depth, samples, seed, eps, points, worst,
                      length_constant, unresolved)


def sample_ring_clearances(alpha: Alpha | float, depth: int, samples: int, seed: int,
                           measure_depth: int | None = None):
    """Sampled ring memberships with exact distances to an approximant.

    Returns (array, unresolved) where array rows are
    (x, y, ring generation, distance) for points drawn uniformly over the
    unit square minus the depth-n approximant.  Distances go to the
    approximant at ``measure_depth``, by default depth + 1.  Ring
    generation g guarantees clearance alpha**g * (1-2*alpha)/4 only
    against approximants of depth at least g + 1: points of the deepest
    ring hug the generation-depth squares themselves, so a measure depth
    of ``depth`` or less cannot certify the full sample.
    """
    a = float(as_alpha(alpha))
    _check_sampling_depth(depth)
    if samples < 0:
        raise ParameterError(f"sample count must be nonnegative, got {samples}")
    if measure_depth is None:
        measure_depth = depth + 1
    starts = interval_starts(a, measure_depth)
    rng = np.random.default_rng(seed)
    rows = np.empty((samples, 4))
    unresolved = 0
    for i in range(samples):
        z, loc, skipped = _draw_sample(rng, a, depth)
        unresolved += skipped
        rows[i, 0], rows[i, 1] = z
        rows[i, 2] = loc.generation
    rows[:, 3] = distance_to_dust(rows[:, :2], starts, a ** measure_depth)
    return rows, unresolved
