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
(or with one axis-aligned detour through the central channel) to the
nearest point of gamma_Q, which lies in the parent ring, and repeats
until it lands on the base curve.  Exterior points connect straight to
the base curve.  The guard-curve geometry keeps every ring at positive
distance from the dust, which is what makes the distance ratio along
these paths bounded below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cantor import address_corners, generate_cantor
from .errors import DustError, ParameterError, RingUndeterminedError
from .geometry import Alpha, as_alpha
from .parallel import parallel_map

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

    kind: str  # "ring" or "exterior"
    generation: int
    word: tuple[int, ...]  # quadrant codes of the ring's square


@dataclass(frozen=True)
class JohnPath:
    """Polyline from a source point up to the base curve."""

    vertices: np.ndarray  # (M, 2)
    source: tuple[float, float]
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
        return RingLocation("exterior", -1, ())
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
            return RingLocation("ring", g, tuple(word))
        if g == depth:
            raise RingUndeterminedError(
                f"point {z} is closer than generation {depth} resolves; undetermined at this depth")
        word.append(hit)
        corner = (corner[0] + (hit & 1) * (1.0 - a) * side,
                  corner[1] + (hit >> 1) * (1.0 - a) * side)
        side *= a
    raise AssertionError("unreachable")


def _segment_blocked(fixed: float, lo: float, hi: float, boxes, horizontal: bool) -> bool:
    """Does an axis-aligned segment cross any open child-curve box?

    Boxes are shrunk by a relative tolerance so curve landings computed
    from a neighboring generation's geometry (equal up to rounding) do
    not register as grazing the interior.
    """
    centers, half = boxes
    h = half * (1.0 - 1e-9)
    for cx, cy in centers:
        if horizontal:
            blocked = cy - h < fixed < cy + h and hi > cx - h and lo < cx + h
        else:
            blocked = cx - h < fixed < cx + h and hi > cy - h and lo < cy + h
        if blocked:
            return True
    return False


def _step_to_curve(w, center, half_width, boxes):
    """Vertices moving w to the guard curve, avoiding child-curve interiors.

    The straight perpendicular to the nearest curve side is used when
    clear; otherwise the move detours through the central channel with
    two axis-aligned legs, which the ring geometry always leaves open.
    """
    cx, cy = center
    sides = (
        ("W", w[0] - (cx - half_width)),
        ("E", (cx + half_width) - w[0]),
        ("S", w[1] - (cy - half_width)),
        ("N", (cy + half_width) - w[1]),
    )
    name, _ = min(sides, key=lambda kv: kv[1])
    if name == "W":
        target, horizontal = (cx - half_width, w[1]), True
    elif name == "E":
        target, horizontal = (cx + half_width, w[1]), True
    elif name == "S":
        target, horizontal = (w[0], cy - half_width), False
    else:
        target, horizontal = (w[0], cy + half_width), False

    if horizontal:
        lo, hi = sorted((w[0], target[0]))
        direct = not _segment_blocked(w[1], lo, hi, boxes, horizontal=True)
    else:
        lo, hi = sorted((w[1], target[1]))
        direct = not _segment_blocked(w[0], lo, hi, boxes, horizontal=False)
    if direct:
        return [target]

    if horizontal:
        mid = (w[0], cy)
        end = (target[0], cy)
        leg1 = not _segment_blocked(w[0], *sorted((w[1], cy)), boxes=boxes, horizontal=False)
        leg2 = not _segment_blocked(cy, *sorted((w[0], end[0])), boxes=boxes, horizontal=True)
    else:
        mid = (cx, w[1])
        end = (cx, target[1])
        leg1 = not _segment_blocked(w[1], *sorted((w[0], cx)), boxes=boxes, horizontal=True)
        leg2 = not _segment_blocked(cx, *sorted((w[1], end[1])), boxes=boxes, horizontal=False)
    if not (leg1 and leg2):
        raise DustError(f"channel detour blocked near {w}; ring geometry violated")
    return [mid, end]


def build_john_path(z: Sequence[float], alpha: Alpha | float, depth: int) -> JohnPath:
    """Polyline from z to the base curve, ascending rings monotonically."""
    a = float(as_alpha(alpha))
    z = (float(z[0]), float(z[1]))
    loc = ring_of_point(z, a, depth)

    vertices = [z]
    landings: list[tuple[int, int]] = []

    if loc.kind == "exterior":
        half = curve_half_width(a, 0)
        lo = UNIT_CENTER[0] - half
        hi = UNIT_CENTER[0] + half
        target = (min(max(z[0], lo), hi), min(max(z[1], lo), hi))
        if target != z:
            vertices.append(target)
        landings.append((0, len(vertices) - 1))
        return JohnPath(np.array(vertices), z, -1, tuple(landings))

    w = z
    word = np.array(loc.word, dtype=np.uint8).reshape(1, -1)
    for g in range(loc.generation, -1, -1):
        corner = tuple(address_corners(word[:, :g], a)[0].tolist())
        side = a ** g
        center = (corner[0] + side / 2.0, corner[1] + side / 2.0)
        half = curve_half_width(a, g)
        boxes = _child_curve_boxes(corner, side, a)
        for v in _step_to_curve(w, center, half, boxes):
            if v != w:
                vertices.append(v)
                w = v
        landings.append((g, len(vertices) - 1))
    return JohnPath(np.array(vertices), z, loc.generation, tuple(landings))


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
    """Euclidean distance from each point to the union of equal squares."""
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


def _draw_sample(rng, alpha: float, depth: int):
    """Next source point: uniform over the unit square minus the approximant."""
    unresolved = 0
    while True:
        z = (float(rng.random()), float(rng.random()))
        if point_in_approximant(z, alpha, depth):
            continue
        try:
            ring_of_point(z, alpha, depth)
        except RingUndeterminedError:
            unresolved += 1
            continue
        return z, unresolved


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
    if depth < 1:
        raise ParameterError("sampling needs depth at least 1; generation 0 covers the unit square")
    step = a ** depth / 8.0
    leaves = generate_cantor(a, depth)
    corners = leaves.leaf_corners()
    side = leaves.side

    rng = np.random.default_rng(seed)
    points = np.empty((samples, 2))
    unresolved = 0
    for i in range(samples):
        points[i], skipped = _draw_sample(rng, a, depth)
        unresolved += skipped

    def evaluate(i: int) -> tuple[float, float]:
        z = tuple(points[i])
        path = build_john_path(z, a, depth)
        dense = densify_polyline(path.vertices, step)
        d_set = distance_to_squares(dense, corners, side)
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
    if measure_depth is None:
        measure_depth = depth + 1
    leaves = generate_cantor(a, measure_depth)
    corners = leaves.leaf_corners()
    rng = np.random.default_rng(seed)
    rows = np.empty((samples, 4))
    unresolved = 0
    for i in range(samples):
        z, skipped = _draw_sample(rng, a, depth)
        unresolved += skipped
        loc = ring_of_point(z, a, depth)
        rows[i, 0], rows[i, 1] = z
        rows[i, 2] = loc.generation
    rows[:, 3] = distance_to_squares(rows[:, :2], corners, leaves.side)
    return rows, unresolved
