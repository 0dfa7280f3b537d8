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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cantor import address_corners, interval_starts
from .errors import DustError, ParameterError, RingUndeterminedError
from .geometry import Alpha, as_alpha
from .streams import Stream, check_seed

UNIT_CENTER = (0.5, 0.5)
#: Point-square pairs distance_to_squares compares at once; bounds its scratch.
DISTANCE_BLOCK_PAIRS = 262144
#: Generation ``_locate`` gives a point still inside a guard curve at the depth.
UNRESOLVED = -2
#: Grid points verify_john evaluates per block of segments; bounds its scratch.
CANDIDATE_BLOCK = 1 << 12


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
        for (x, y), r in zip(self.points.tolist(), self.worst_ratios.tolist()):
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
    """Closed membership test against the union of generation-depth squares."""
    z = np.array([(float(p[0]), float(p[1]))])
    return bool(_in_approximant(z, float(as_alpha(alpha)), depth)[0])


def _in_approximant(z: np.ndarray, a: float, depth: int) -> np.ndarray:
    """Which rows of z (N, 2) lie in the closed union of generation-depth squares.

    The union is the product of two 1-D approximants, so each coordinate
    descends on its own, into the near or else the far child interval.
    """
    inside = np.ones(len(z), dtype=bool)
    for t in z.T:
        inside &= (0.0 <= t) & (t <= 1.0)
        lo, s = np.zeros(len(t)), 1.0
        for _ in range(depth):
            d = t - lo
            near = (0.0 <= d) & (d <= a * s)
            inside &= near | (((1.0 - a) * s <= d) & (d <= s))
            lo = np.where(near, lo, lo + (1.0 - a) * s)
            s *= a
    return inside


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
    if point_in_approximant(z, a, depth):
        raise RingUndeterminedError(
            f"point {z} lies inside a generation-{depth} square; undetermined at this depth")
    gen, words = _locate(np.array([z]), a, depth)
    if gen[0] == UNRESOLVED:
        raise RingUndeterminedError(
            f"point {z} is closer than generation {depth} resolves; undetermined at this depth")
    return RingLocation(int(gen[0]), tuple(words[0, :max(gen[0], 0)].tolist()))


def _locate(z: np.ndarray, a: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Ring generations and words of points (N, 2) outside the approximant.

    One array step per generation descends every row into the first child
    guard curve (in quadrant-code order) that contains it.  A row's
    generation is -1 beyond the base curve and UNRESOLVED when it is still
    inside a child curve at generation depth; the first ``generation``
    codes of its row of the (N, depth) words address its ring's square.
    """
    gen = np.full(len(z), -1)
    words = np.zeros((len(z), depth), dtype=np.uint8)
    descending = np.abs(z - UNIT_CENTER).max(axis=1) <= curve_half_width(a, 0)
    corner, side = np.zeros_like(z), 1.0
    for g in range(depth + 1):
        centers, half = _child_curve_boxes(corner.T, side, a)
        near = np.abs(z - np.column_stack(centers[0])) <= half
        inside = (near | (np.abs(z - np.column_stack(centers[3])) <= half)).all(axis=1)
        gen[descending & ~inside] = g
        descending &= inside
        if g == depth:
            break
        far = ~near
        words[:, g] = far[:, 0] + 2 * far[:, 1]
        corner = corner + far * ((1.0 - a) * side)
        side *= a
    gen[descending] = UNRESOLVED
    return gen, words


def _ascend(z: np.ndarray, gen: np.ndarray, words: np.ndarray, a: float) -> np.ndarray:
    """Each path's position after it lands on each guard curve, deepest first.

    Returns (N, G + 2, 2) for the deepest ring generation G: column 0 is the
    source and column G + 1 - g the landing on the generation-g curve; a
    path stays put in the columns deeper than its ring.  In each ring the
    path moves straight to the nearest side of the guard curve, ties going
    W, E, S, N; exterior sources move straight to the base curve.  Each
    child-curve box's center is equally far from the two curve sides at its
    corner, so a move toward one side could cross a box only from a point
    that is strictly closer to another side: the nearest side is always in
    the clear.  The move is still checked, and a blocked one raises
    DustError.
    """
    w = np.array(z, dtype=float)
    columns = [w.copy()]
    for g in range(max(int(gen.max(initial=0)), 0), -1, -1):
        rows = np.flatnonzero(gen >= g)
        p, r = w[rows], np.arange(len(rows))
        corner = address_corners(words[rows, :g], a)
        side, half = a ** g, curve_half_width(a, g)
        center = corner + side / 2.0
        to_side = np.column_stack((p[:, 0] - (center[:, 0] - half), (center[:, 0] + half) - p[:, 0],
                                   p[:, 1] - (center[:, 1] - half), (center[:, 1] + half) - p[:, 1]))
        pick = to_side.argmin(axis=1)  # W, E, S, N
        ax = pick // 2
        coord = np.where(pick % 2 == 1, center[r, ax] + half, center[r, ax] - half)
        lo, hi = np.minimum(p[r, ax], coord)[:, None], np.maximum(p[r, ax], coord)[:, None]
        centers, box_half = _child_curve_boxes(corner.T, side, a)
        boxes = np.stack([np.column_stack(c) for c in centers], axis=1)
        along, across, fixed = boxes[r, :, ax], boxes[r, :, 1 - ax], p[r, 1 - ax][:, None]
        # a landing equal to a box side up to rounding does not graze; four ulps of the box
        # coordinates keep the shrink when 1e-9 of a small half-width rounds away
        h = box_half * (1.0 - 1e-9) - 4.0 * np.spacing(np.abs(boxes).max(axis=(1, 2)))[:, None]
        blocked = ((across - h < fixed) & (fixed < across + h)
                   & (hi > along - h) & (lo < along + h)).any(axis=1)
        if blocked.any():
            raise DustError("straight move to the guard curve blocked near "
                            f"{tuple(p[np.argmax(blocked)].tolist())}")
        p[r, ax] = coord
        w[rows] = p
        if g == 0:
            w[gen == -1] = np.clip(w[gen == -1], UNIT_CENTER[0] - half, UNIT_CENTER[0] + half)
        columns.append(w.copy())
    return np.stack(columns, axis=1)


def build_john_path(z: Sequence[float], alpha: Alpha | float, depth: int) -> JohnPath:
    """Polyline from z to the base curve, ascending rings monotonically."""
    a = float(as_alpha(alpha))
    z = (float(z[0]), float(z[1]))
    loc = ring_of_point(z, a, depth)
    word = np.array(loc.word, dtype=np.uint8).reshape(1, -1)
    columns = _ascend(np.array([z]), np.array([loc.generation]), word, a)[0]
    moved = (columns[1:] != columns[:-1]).any(axis=1)
    top = max(loc.generation, 0)
    landings = tuple((g, int(moved[:top + 1 - g].sum())) for g in range(top, -1, -1))
    return JohnPath(np.concatenate((columns[:1], columns[1:][moved])), loc.generation, landings)


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


def _draw_sources(rng, a: float, depth: int, count: int):
    """The next ``count`` sources, uniform over the unit square minus the approximant.

    Pairs come in blocks ``rng.random(2 * k)``, the doubles that k pairwise
    ``rng.random()`` calls give, with k the number still needed, so a block
    never draws past the last source.  Draws inside the approximant are
    skipped; draws whose ring is undetermined are skipped and counted.
    Returns ``(points, generations, words, unresolved)`` as ``_locate``
    gives them.
    """
    parts = [(np.empty((0, 2)), np.empty(0, dtype=int), np.empty((0, depth), dtype=np.uint8))]
    unresolved = 0
    while count > 0:
        z = rng.random(2 * count).reshape(count, 2)
        z = z[~_in_approximant(z, a, depth)]
        gen, words = _locate(z, a, depth)
        ok = gen != UNRESOLVED
        unresolved += len(z) - int(ok.sum())
        count -= int(ok.sum())
        parts.append((z[ok], gen[ok], words[ok]))
    return (*(np.concatenate(p) for p in zip(*parts)), unresolved)


def _check_step(step: float) -> None:
    """Refuse a grid step whose grid indices float64 cannot count exactly.

    A path segment is shorter than the base curve's side 2 - 2*alpha < 2,
    so ceil(2 / step) <= 2**53 keeps every grid index and count exact.
    """
    if not step >= sys.float_info.min or math.ceil(2.0 / step) > 2 ** 53:
        raise ParameterError(f"grid step alpha**depth/8 = {step!r} is too small to index exactly")


def _breakpoints(starts: np.ndarray, side: float) -> np.ndarray:
    """-inf, each interval's start and end and the next gap's midpoint, then inf.

    Between breakpoints j - 1 and j the distance to the 1-D approximant is
    0 if j % 3 == 2 (inside an interval), else the distance to breakpoint
    j - 1 (j % 3 == 0, an interval end) or j (j % 3 == 1, an interval start).
    """
    ends = starts + side
    mids = np.append((ends[:-1] + starts[1:]) / 2.0, np.inf)
    return np.concatenate(([-np.inf], np.column_stack((starts, ends, mids)).ravel()))


def _worst_ratios(z, owner, ends, starts: np.ndarray, side: float, step: float) -> np.ndarray:
    """Minimum of d(q, dust) / d(q, source) over the grid points q of each segment's path.

    Segment s runs axis-parallel from ``ends[s, 0]`` to ``ends[s, 1]`` on the
    path from ``z[owner[s]]``; its grid points, as floats, are those that
    ``densify_polyline`` puts past its start at ``step``, less those within
    1e-15 of the source.  Returns the minimum over each segment's path (over
    its segments in this call), per segment.

    Between breakpoints, a moving coordinate t has distance 0 or |t - b| to
    the 1-D approximant, for one interval end b, and the fixed coordinate a
    constant c.  With the source's offsets t0 and e, ratio**2 =
    (c**2 + (t - b)**2) / (e**2 + (t - t0)**2), whose critical points are the
    roots of h p**2 + (e**2 - c**2 + h**2) p - h c**2, p = t - b, h = b - t0.
    So the ratio and the source distance are monotone between candidates:
    two grid points on either side of every breakpoint, critical point and
    t0, and the segment's ends.  A gap between candidates is split while its
    lower end lies within the evaluation's rounding bound of the running
    minimum, so every grid point that could tie or beat it is evaluated.
    """
    begin, d = ends[:, 0], ends[:, 1] - ends[:, 0]
    n = np.maximum(1.0, np.ceil(np.hypot(d[:, 0], d[:, 1]) / step))
    seg = np.arange(len(d))
    ax = (d[:, 0] == 0.0).astype(np.intp)  # the moving axis
    src = z[owner]
    t_a, t_d, t0, fixed = begin[seg, ax], d[seg, ax], src[seg, ax], begin[seg, 1 - ax]
    lo, hi = np.minimum(t_a, ends[seg, 1, ax]), np.maximum(t_a, ends[seg, 1, ax])

    bp = _breakpoints(starts, side)
    first = np.searchsorted(bp, lo)
    pieces = np.searchsorted(bp, hi, "right") - first + 1
    ps = np.repeat(seg, pieces)
    j = np.arange(len(ps)) - np.repeat(np.cumsum(pieces) - pieces - first, pieces)
    left, right = bp[j - 1], bp[j]
    b = np.where(j % 3 == 2, np.nan, np.where(j % 3 == 0, left, right))
    h, c = b - t0[ps], _distance_to_intervals(fixed, starts, side)[ps]
    big = (fixed - src[seg, 1 - ax])[ps] ** 2 - c * c + h * h
    q = -(big + np.copysign(np.hypot(big, 2.0 * h * c), big)) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = b + np.stack((q / h, -h * c * c / q))
    crit = (left <= roots) & (roots <= right)
    anchor_seg = np.concatenate((ps, np.tile(ps, 2)[crit.ravel()], seg))
    anchor = np.clip(np.concatenate((left, roots[crit], t0)), lo[anchor_seg], hi[anchor_seg])
    u = np.floor((anchor - t_a[anchor_seg]) / t_d[anchor_seg] * n[anchor_seg])
    ns = np.concatenate((np.repeat(anchor_seg, 4), seg, seg))
    nk = np.concatenate(((u[:, None] + np.arange(-1.0, 3.0)).ravel(), np.ones(len(seg)), n))
    nk = np.clip(nk, 1.0, n[ns])

    base = owner[0]
    best = np.full(owner[-1] - base + 1, np.inf)
    s, k, f, den = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0)
    while len(ns):
        ts = np.where(nk < n[ns], nk * (1.0 / n[ns]), 1.0)  # linspace(0, 1, n + 1)[k]
        points = begin[ns] + ts[:, None] * d[ns]
        nden = np.hypot(points[:, 0] - src[ns, 0], points[:, 1] - src[ns, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            nf = distance_to_dust(points, starts, side) / nden
        counted = nden > 1e-15
        np.minimum.at(best, owner[ns[counted]] - base, nf[counted])
        order = np.lexsort((np.concatenate((k, nk)), np.concatenate((s, ns))))
        s, k, f, den = (np.concatenate(pair)[order]
                        for pair in ((s, ns), (k, nk), (f, nf), (den, nden)))
        g = np.flatnonzero((s[1:] == s[:-1]) & (k[1:] - k[:-1] > 1.0))
        # an evaluated ratio is within 11u of itself plus 3u side / d_src of the
        # exact ratio at its grid point (u = 2**-53); the slack covers a gap's
        # end and its interior many times over
        low = np.minimum(f[g], f[g + 1])
        slack = low * 2.0 ** -44 + side * 2.0 ** -48 / np.minimum(den[g], den[g + 1])
        g = g[~(low - slack >= best[owner[s[g]] - base])]
        width = k[g + 1] - k[g]
        count = np.minimum(width - 1.0, 15.0).astype(np.intp)  # split into up to 16 parts
        i = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count) + 1.0
        ns = np.repeat(s[g], count)
        nk = np.repeat(k[g], count) + np.floor(i * np.repeat(width / (count + 1.0), count))
    return best[owner - base]


def _path_lengths(owner: np.ndarray, lengths: np.ndarray, paths: int) -> np.ndarray:
    """Each path's length from its segments' lengths, summed as ``JohnPath.length`` sums them."""
    counts = np.bincount(owner, minlength=paths)
    total = np.zeros(paths)
    for m in np.flatnonzero(np.bincount(counts)):  # numpy sums 8 or more terms pairwise
        rows = np.flatnonzero(counts == m)
        total[rows] = lengths[(np.cumsum(counts) - counts)[rows, None] + np.arange(m)].sum(axis=1)
    return total


def verify_john(alpha: Alpha | float, depth: int, samples: int, seed: int) -> JohnReport:
    """Sample source points, build their paths, and report the worst ratio.

    For every path point q the ratio d(q, approximant) / d(q, source) is
    taken on a grid that splits each path segment into ceil(length / step)
    equal parts, step = alpha**depth / 8, skipping points within 1e-15 of
    the source; epsilon is the minimum over all samples.  Euclidean
    distances are used throughout (the construction lives in a fixed
    bounded window).  ``_worst_ratios`` evaluates only the grid points
    beside each piece's ends and the ratio's critical points, and those that
    could tie the minimum, so the result is the whole grid's minimum, float
    for float, and the cost grows with the pieces a path crosses, about x2
    per depth.  A step whose grid indices float64 cannot count exactly is
    refused before any draw.  Sources are drawn up front from one seeded
    stream and their paths built together, and their segments are
    evaluated in blocks of about ``CANDIDATE_BLOCK`` candidates.
    """
    a = float(as_alpha(alpha))
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    check_seed(seed)
    _check_sampling_depth(depth)
    starts = interval_starts(a, depth)
    side = a ** depth
    step = side / 8.0
    _check_step(step)

    points, gen, words, unresolved = _draw_sources(Stream(seed), a, depth, samples)
    columns = _ascend(points, gen, words, a)
    owner, col = np.nonzero((columns[:, 1:] != columns[:, :-1]).any(axis=2))
    ends = np.stack((columns[owner, col], columns[owner, col + 1]), axis=1)

    bp = _breakpoints(starts, side)
    crossed = np.searchsorted(bp, ends.max(axis=1), "right") - np.searchsorted(bp, ends.min(axis=1))
    # four candidates beside each breakpoint a segment crosses, a few more per segment
    block = np.cumsum(4 * crossed.sum(axis=1) + 24) // CANDIDATE_BLOCK
    spans = np.split(np.arange(len(owner)), np.flatnonzero(np.diff(block)) + 1)
    results = [_worst_ratios(points, owner[span], ends[span], starts, side, step) for span in spans]
    worst = np.full(samples, np.inf)
    np.minimum.at(worst, owner, np.concatenate(results))

    diffs = ends[:, 1] - ends[:, 0]
    total = _path_lengths(owner, np.hypot(diffs[:, 0], diffs[:, 1]), samples)
    anchor = columns[:, -1] - points
    anchor_dist = np.hypot(anchor[:, 0], anchor[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        stretch = np.where(anchor_dist > 1e-15, total / anchor_dist, 0.0)

    finite = worst[np.isfinite(worst)]
    eps = float(finite.min()) if len(finite) else math.inf
    return JohnReport(a, depth, samples, seed, eps, points, worst,
                      float(stretch.max()), unresolved)


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
    points, gen, _, unresolved = _draw_sources(Stream(seed), a, depth, samples)
    rows = np.column_stack((points, gen, distance_to_dust(points, starts, a ** measure_depth)))
    return rows, unresolved
