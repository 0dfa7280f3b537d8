import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustlab import john
from dustlab.cantor import address_corners, generate_cantor, interval_starts
from dustlab.errors import DustError, ParameterError, RingUndeterminedError
from dustlab.geometry import Alpha, as_alpha
from dustlab.john import (UNIT_CENTER, JohnPath, RingLocation, _child_curve_boxes,
                          build_john_path, curve_half_width, densify_polyline,
                          distance_to_dust, distance_to_squares, point_in_approximant,
                          ring_clearance_bound, ring_of_point, sample_ring_clearances,
                          verify_john)


def dust_distance(points, alpha, depth):
    leaves = generate_cantor(alpha, depth)
    return distance_to_squares(np.atleast_2d(points), leaves.leaf_corners(), leaves.side)


class TestRingOfPoint:
    def test_unit_center_is_generation_zero(self):
        loc = ring_of_point((0.5, 0.5), 0.25, 3)
        assert loc.generation == 0
        assert loc.word == ()

    def test_far_point_is_exterior(self):
        assert ring_of_point((2.0, 2.0), 0.25, 3) == RingLocation(-1, ())

    def test_sw_child_center_is_generation_one(self):
        loc = ring_of_point((0.125, 0.125), 0.25, 3)
        assert loc.generation == 1
        assert len(loc.word) == 1

    def test_point_inside_approximant_square_rejected(self):
        with pytest.raises(RingUndeterminedError, match="generation-3"):
            ring_of_point((1e-9, 1e-9), 0.25, 3)

    def test_deeper_depth_refines(self):
        # a point inside a generation-3 guard curve resolves once allowed deeper
        z = (0.28, 0.002)
        shallow = ring_of_point(z, 0.25, 4)
        assert shallow.generation >= 1

    def test_curve_half_width_values(self):
        assert curve_half_width(0.25, 0) == 0.75
        assert curve_half_width(0.25, 1) == 0.25
        assert curve_half_width(0.25, 2) == pytest.approx(1 / 16)


class TestRingClearance:
    @pytest.mark.parametrize("alpha,depth", [(0.25, 3), (0.25, 4), (0.4, 4)])
    def test_sharp_quarter_gap_bound_holds(self, alpha, depth):
        # certify against the next-deeper approximant, which bounds the dust
        rows, _ = sample_ring_clearances(alpha, depth, 4000, seed=42,
                                         measure_depth=depth + 1)
        gen = rows[:, 2].astype(int)
        bound = np.array([ring_clearance_bound(alpha, g) for g in gen])
        assert np.all(rows[:, 3] > bound)

    @pytest.mark.parametrize("depth", [3, 4])
    def test_default_measure_depth_certifies_every_ring(self, depth):
        # the default measures against the depth+1 approximant; measured
        # against the depth-n one, this sample shows 23 and 2 false violations
        rows, _ = sample_ring_clearances(0.25, depth, 10_000, seed=42)
        gen = rows[:, 2].astype(int)
        bound = np.array([ring_clearance_bound(0.25, g) for g in gen])
        assert int((rows[:, 3] <= bound).sum()) == 0

    def test_sharp_bound_is_sharp(self):
        # points just outside a child-curve side, facing dust on the child
        # square's edge, approach it (at a child-curve corner the ratio is sqrt 2)
        alpha = 0.25
        rows, _ = sample_ring_clearances(alpha, 4, 4000, seed=1, measure_depth=5)
        gen = rows[:, 2].astype(int)
        bound = np.array([ring_clearance_bound(alpha, g) for g in gen])
        assert (rows[:, 3] / bound).min() < 1.25

    def test_doubled_constant_fails(self):
        # the doubled clearance constant is violated against the dust, along
        # the child-curve sides of every generation
        rows, _ = sample_ring_clearances(0.25, 4, 4000, seed=42, measure_depth=5)
        gen = rows[:, 2].astype(int)
        doubled = 2.0 * np.array([ring_clearance_bound(0.25, g) for g in gen])
        assert int((rows[:, 3] <= doubled).sum()) > 0

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_refused(self, depth):
        # the depth-0 approximant covers the unit square, so no draw would succeed
        with pytest.raises(ParameterError, match="depth at least 1"):
            sample_ring_clearances(0.25, depth, 3, seed=1)

    def test_negative_sample_count_is_refused(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            sample_ring_clearances(0.25, 3, -1, seed=1)
        rows, unresolved = sample_ring_clearances(0.25, 3, 0, seed=1)
        assert rows.shape == (0, 4) and unresolved == 0

    @pytest.mark.parametrize("alpha, depth", [(0.25, 3), (0.3, 4), (0.45, 2)])
    def test_rows_match_a_second_ring_lookup(self, monkeypatch, alpha, depth):
        # each sample's ring comes from the batched lookup that accepted the
        # draw; the rows equal those of drawing first and locating again
        rng = np.random.default_rng(5)
        expected, skipped = [], 0
        while len(expected) < 300:
            z = (float(rng.random()), float(rng.random()))
            if scalar_point_in_approximant(z, alpha, depth):
                continue
            try:
                scalar_ring_of_point(z, alpha, depth)
            except RingUndeterminedError:
                skipped += 1
                continue
            expected.append((*z, scalar_ring_of_point(z, alpha, depth).generation))
        located = count_located(monkeypatch)
        rows, unresolved = sample_ring_clearances(alpha, depth, 300, seed=5)
        assert unresolved == skipped
        assert np.array_equal(rows[:, :3], np.array(expected))
        assert sum(located) == 300 + unresolved


def count_located(monkeypatch) -> list[int]:
    """Patch the batched ring lookup to record how many rows each call locates."""
    located, locate = [], john._locate

    def counted(z, *args):
        located.append(len(z))
        return locate(z, *args)

    monkeypatch.setattr(john, "_locate", counted)
    return located


class TestBuildPath:
    def test_center_source_keeps_quarter_clearance(self):
        path = build_john_path((0.5, 0.5), 0.25, 3)
        d = dust_distance(path.vertices, 0.25, 3)
        assert np.all(d >= 0.25 - 1e-12)

    def test_exterior_source_straight_segment(self):
        path = build_john_path((2.0, 2.0), 0.25, 3)
        assert path.ring_generation == -1
        assert len(path.vertices) == 2
        assert tuple(path.vertices[1]) == (1.25, 1.25)

    def test_generations_monotone_to_base(self):
        z = (0.51, 0.26)
        path = build_john_path(z, 0.25, 3)
        gens = [g for g, _ in path.landings]
        assert gens == sorted(gens, reverse=True)
        assert gens[-1] == 0

    def test_deep_ring_path_crosses_every_curve(self):
        # a source in a generation-2 ring lands on curves of generations 2, 1, 0
        z = (0.7296554464299441, 0.17565562060255901)
        loc = ring_of_point(z, 0.25, 4)
        assert loc.generation == 2
        path = build_john_path(z, 0.25, 4)
        assert [g for g, _ in path.landings] == [2, 1, 0]

    def test_vertices_distinct(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            z = tuple(rng.random(2))
            if point_in_approximant(z, 0.3, 3):
                continue
            try:
                path = build_john_path(z, 0.3, 3)
            except RingUndeterminedError:
                continue
            diffs = np.diff(path.vertices, axis=0)
            assert np.all(np.hypot(diffs[:, 0], diffs[:, 1]) > 0)

    def test_path_avoids_approximant(self):
        rng = np.random.default_rng(13)
        for alpha in (0.25, 0.45):
            for _ in range(60):
                z = tuple(rng.random(2))
                if point_in_approximant(z, alpha, 3):
                    continue
                try:
                    path = build_john_path(z, alpha, 3)
                except RingUndeterminedError:
                    continue
                dense = densify_polyline(path.vertices, alpha ** 3 / 8)
                assert np.all(dust_distance(dense, alpha, 3) > 0)


class TestVerify:
    def test_epsilon_positive_and_calibrated_floor(self):
        report = verify_john(0.25, 3, 200, seed=7)
        assert report.epsilon > 0
        # pilot calibration: the exhaustive coarse-grid minimum is ~0.319
        assert report.epsilon >= 0.25

    def test_depth_stability_within_factor_two(self):
        r3 = verify_john(0.25, 3, 150, seed=7)
        r4 = verify_john(0.25, 4, 150, seed=7)
        assert 0.5 <= r3.epsilon / r4.epsilon <= 2.0
        r5 = verify_john(0.25, 5, 150, seed=7)
        r6 = verify_john(0.25, 6, 150, seed=7)
        assert 0.5 <= r4.epsilon / r5.epsilon <= 2.0
        assert 0.5 <= r5.epsilon / r6.epsilon <= 2.0
        r7 = verify_john(0.25, 7, 150, seed=7)
        r8 = verify_john(0.25, 8, 150, seed=7)
        assert 0.5 <= r6.epsilon / r7.epsilon <= 2.0
        assert 0.5 <= r7.epsilon / r8.epsilon <= 2.0

    def test_narrow_gaps_give_smaller_epsilon(self):
        wide = verify_john(0.25, 3, 150, seed=7)
        narrow = verify_john(0.45, 3, 150, seed=7)
        assert narrow.epsilon < wide.epsilon

    def test_deterministic_given_seed(self):
        a = verify_john(0.3, 3, 80, seed=21)
        b = verify_john(0.3, 3, 80, seed=21)
        assert a.epsilon == b.epsilon
        assert np.array_equal(a.points, b.points)
        assert a.csv_lines() == b.csv_lines()

    def test_rejects_depth_zero_and_no_samples(self):
        with pytest.raises(ParameterError):
            verify_john(0.25, 0, 10, seed=1)
        with pytest.raises(ParameterError):
            verify_john(0.25, 3, 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_bad_seed_rejected_before_drawing(self, monkeypatch, seed):
        def unreachable(*args):
            raise AssertionError("a source was drawn")

        monkeypatch.setattr(john, "_draw_sources", unreachable)
        monkeypatch.setattr(john, "interval_starts", unreachable)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            verify_john(0.25, 3, 10, seed=seed)

    @pytest.mark.parametrize("alpha, depth, seed", [(0.25, 3, 5), (0.45, 2, 1), (0.25, 2, 3)])
    def test_each_draw_is_located_once(self, monkeypatch, alpha, depth, seed):
        # the paths start from the rings found for the draws: samples +
        # unresolved rows are located, where locating each path's source again
        # made it 2 * samples + unresolved
        located = count_located(monkeypatch)
        report = verify_john(alpha, depth, 200, seed)
        assert report.unresolved > 0
        assert sum(located) == 200 + report.unresolved

    @pytest.mark.parametrize("alpha, depth", [(1e-300, 3), (1e-200, 1), (0.05, 12)])
    def test_unindexable_step_rejected_before_drawing(self, monkeypatch, alpha, depth):
        # alpha**depth / 8 underflows to 0, or 2 / step exceeds 2**53
        def unreachable(*args):
            raise AssertionError("a source was drawn")

        monkeypatch.setattr(john, "_draw_sources", unreachable)
        with pytest.raises(ParameterError, match="too small to index exactly"):
            verify_john(alpha, depth, 5, seed=1)

    def test_step_bound_is_exact(self):
        john._check_step(2.0 ** -52)  # ceil(2 / step) == 2**53
        for step in (np.nextafter(2.0 ** -52, 0.0), 5e-324, 0.0, float("nan")):
            with pytest.raises(ParameterError):
                john._check_step(step)

    def test_deep_runs_grow_by_breakpoints_not_points(self):
        # densifying at alpha**n / 8 grew the peak x4 per depth: 29.2 MB at
        # depth 8 and 116.9 MB at depth 9
        peaks = {}
        for depth in (8, 9):
            tracemalloc.start()
            try:
                verify_john(0.25, depth, 20, seed=7)
                peaks[depth] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[9] <= 2.5 * peaks[8]
        assert peaks[8] < 27.9e6 / 4

    def test_path_lengths_sum_like_each_path(self):
        # numpy sums 8 or more terms pairwise, so 3-segment and 12-segment
        # paths round differently from a running sum
        rng = np.random.default_rng(4)
        owner = np.repeat(np.arange(40), rng.integers(1, 20, size=40))
        lengths = rng.random(len(owner)) * rng.random(len(owner)) ** 4
        assert np.array_equal(john._path_lengths(owner, lengths, 40),
                              [lengths[owner == i].sum() for i in range(40)])

    def test_sources_avoid_approximant(self):
        report = verify_john(0.4, 2, 100, seed=3)
        for x, y in report.points:
            assert not point_in_approximant((x, y), 0.4, 2)

    def test_csv_shape(self):
        report = verify_john(0.25, 2, 10, seed=5)
        lines = report.csv_lines()
        assert lines[0] == "sample_x,sample_y,worst_ratio"
        assert len(lines) == 12
        assert lines[-1].startswith("epsilon,")


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.05, 0.49), depth=st.integers(0, 5),
       x=st.floats(-0.5, 1.5), y=st.floats(-0.5, 1.5),
       mark=st.sampled_from(["start", "end", "gap"]), k=st.integers(0, 63))
# at alpha 0.25, depth 2 the interval starts are 0, 0.1875, 0.75 and 0.9375, of side 0.0625
@example(alpha=0.25, depth=2, x=0.1875, y=0.75, mark="start", k=0)  # interval starts
@example(alpha=0.25, depth=2, x=0.25, y=1.0, mark="end", k=0)  # interval ends
@example(alpha=0.25, depth=2, x=0.5, y=0.125, mark="gap", k=0)  # gap midpoints
@example(alpha=0.25, depth=2, x=-0.3, y=1.4, mark="start", k=0)  # outside the unit square
@example(alpha=0.45, depth=5, x=1.5, y=-0.5, mark="end", k=31)
@example(alpha=0.25, depth=0, x=1.0, y=0.5, mark="gap", k=0)
def test_distance_to_dust_matches_all_squares(alpha, depth, x, y, mark, k):
    # free points, and points with one or both coordinates on the k-th
    # interval start, interval end or gap midpoint
    leaves = generate_cantor(alpha, depth)
    starts = interval_starts(alpha, depth)
    ends = starts + leaves.side
    marks = {"start": starts, "end": ends, "gap": (ends[:-1] + starts[1:]) / 2}[mark]
    points = [(x, y)]
    if len(marks):
        m = marks[k % len(marks)]
        points += [(m, y), (x, m), (m, m)]
    points = np.array(points)
    assert np.array_equal(distance_to_dust(points, starts, leaves.side),
                          distance_to_squares(points, leaves.leaf_corners(), leaves.side))


# The previous membership test, which descended both coordinates together,
# kept verbatim as the reference for the per-coordinate descent.
def reference_point_in_approximant(p: Sequence[float], alpha: Alpha | float, depth: int) -> bool:
    """Closed membership test against the union of generation-depth squares."""
    a = float(as_alpha(alpha))
    x, y = float(p[0]), float(p[1])
    if depth == 0:
        return 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
    cx = cy = 0.0
    s = 1.0
    for _ in range(depth):
        tx = x - cx
        ty = y - cy
        if 0.0 <= tx <= a * s:
            bx = 0
        elif (1.0 - a) * s <= tx <= s:
            bx = 1
        else:
            return False
        if 0.0 <= ty <= a * s:
            by = 0
        elif (1.0 - a) * s <= ty <= s:
            by = 1
        else:
            return False
        cx += bx * (1.0 - a) * s
        cy += by * (1.0 - a) * s
        s *= a
    return True


@settings(max_examples=400, deadline=None)
@given(alpha=st.floats(0.05, 0.49), depth=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       corner=st.tuples(st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, 1.0])),
       nudge=st.sampled_from([0.0, 1e-15, -1e-15, 1e-9, -1e-9, 0.3]),
       u=st.floats(-0.2, 1.2), v=st.floats(-0.2, 1.2))
def test_point_in_approximant_matches_joint_descent(alpha, depth, seed, corner, nudge, u, v):
    # corners and edges of random addressed squares, nudged off them, and free points
    rng = np.random.default_rng(seed)
    word = rng.integers(0, 4, size=(1, int(rng.integers(0, depth + 2))), dtype=np.uint8)
    side = alpha ** word.shape[1]
    x, y = address_corners(word, alpha)[0] + side * np.array(corner) + nudge
    for p in ((x, y), (x, v), (u, y), (u, v)):
        assert point_in_approximant(p, alpha, depth) == reference_point_in_approximant(p, alpha, depth)


# The path builder as it stood with its channel detour, kept verbatim as the
# reference for the single straight move, except that it also returns how
# many steps took the detour.
def reference_segment_blocked(fixed: float, lo: float, hi: float, boxes, horizontal: bool) -> bool:
    centers, half = boxes
    h = half * (1.0 - 1e-9) - 4.0 * np.spacing(max(abs(c) for center in centers for c in center))
    for cx, cy in centers:
        if horizontal:
            blocked = cy - h < fixed < cy + h and hi > cx - h and lo < cx + h
        else:
            blocked = cx - h < fixed < cx + h and hi > cy - h and lo < cy + h
        if blocked:
            return True
    return False


def reference_step_to_curve(w, center, half_width, boxes):
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
        direct = not reference_segment_blocked(w[1], lo, hi, boxes, horizontal=True)
    else:
        lo, hi = sorted((w[1], target[1]))
        direct = not reference_segment_blocked(w[0], lo, hi, boxes, horizontal=False)
    if direct:
        return [target]

    if horizontal:
        mid = (w[0], cy)
        end = (target[0], cy)
        leg1 = not reference_segment_blocked(w[0], *sorted((w[1], cy)), boxes=boxes,
                                             horizontal=False)
        leg2 = not reference_segment_blocked(cy, *sorted((w[0], end[0])), boxes=boxes,
                                             horizontal=True)
    else:
        mid = (cx, w[1])
        end = (cx, target[1])
        leg1 = not reference_segment_blocked(w[1], *sorted((w[0], cx)), boxes=boxes,
                                             horizontal=True)
        leg2 = not reference_segment_blocked(cx, *sorted((w[1], end[1])), boxes=boxes,
                                             horizontal=False)
    if not (leg1 and leg2):
        raise DustError(f"channel detour blocked near {w}; ring geometry violated")
    return [mid, end]


def reference_build_john_path(z, alpha, depth) -> tuple[JohnPath, int]:
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
        return JohnPath(np.array(vertices), -1, tuple(landings)), 0

    detours = 0
    w = z
    word = np.array(loc.word, dtype=np.uint8).reshape(1, -1)
    for g in range(loc.generation, -1, -1):
        corner = tuple(address_corners(word[:, :g], a)[0].tolist())
        side = a ** g
        center = (corner[0] + side / 2.0, corner[1] + side / 2.0)
        half = curve_half_width(a, g)
        boxes = _child_curve_boxes(corner, side, a)
        step = reference_step_to_curve(w, center, half, boxes)
        detours += len(step) > 1
        for v in step:
            if v != w:
                vertices.append(v)
                w = v
        landings.append((g, len(vertices) - 1))
    return JohnPath(np.array(vertices), loc.generation, tuple(landings)), detours


def assert_path_matches_reference(z, alpha, depth):
    try:
        path = build_john_path(z, alpha, depth)
    except RingUndeterminedError:
        with pytest.raises(RingUndeterminedError):
            reference_build_john_path(z, alpha, depth)
        return
    ref, detours = reference_build_john_path(z, alpha, depth)
    assert detours == 0
    assert np.array_equal(path.vertices, ref.vertices)
    assert path.landings == ref.landings
    assert path.ring_generation == ref.ring_generation


PATH_SETTINGS = settings(max_examples=500, deadline=None)


@PATH_SETTINGS
@given(alpha=st.floats(0.02, 0.499), depth=st.integers(1, 5),
       x=st.floats(-0.6, 1.6), y=st.floats(-0.6, 1.6))
# ties between curve sides: all four, W and E, S and N, W and S
@example(alpha=0.25, depth=3, x=0.5, y=0.5)
@example(alpha=0.25, depth=3, x=0.5, y=0.45)
@example(alpha=0.25, depth=3, x=0.45, y=0.5)
@example(alpha=0.25, depth=3, x=0.3, y=0.3)
def test_straight_path_matches_reference_from_anywhere(alpha, depth, x, y):
    assert_path_matches_reference((x, y), alpha, depth)


@PATH_SETTINGS
@given(alpha=st.floats(0.02, 0.499), depth=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       child=st.integers(0, 3), edge=st.sampled_from("WESN"), along=st.floats(0.0, 1.0),
       exponent=st.floats(-15.0, -3.0))
def test_straight_path_matches_reference_beside_child_curves(alpha, depth, seed, child, edge,
                                                             along, exponent):
    # sources just outside a child-curve box edge, where a straight move
    # toward the nearest side would first run along the box
    rng = np.random.default_rng(seed)
    word = rng.integers(0, 4, size=(1, int(rng.integers(0, depth))), dtype=np.uint8)
    side = alpha ** word.shape[1]
    centers, half = _child_curve_boxes(tuple(address_corners(word, alpha)[0]), side, alpha)
    cx, cy = centers[child]
    gap = 10.0 ** exponent * side
    t = -half + 2.0 * half * along
    z = {"W": (cx - half - gap, cy + t), "E": (cx + half + gap, cy + t),
         "S": (cx + t, cy - half - gap), "N": (cx + t, cy + half + gap)}[edge]
    assert_path_matches_reference(z, alpha, depth)


# The scalar ring lookup, membership test and path builder as they stood
# before the batched kernels, kept verbatim as the oracles they must match.
def scalar_point_in_approximant(p: Sequence[float], alpha: Alpha | float, depth: int) -> bool:
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


def scalar_ring_of_point(z: Sequence[float], alpha: Alpha | float, depth: int) -> RingLocation:
    a = float(as_alpha(alpha))
    if depth < 0:
        raise ParameterError(f"depth must be nonnegative, got {depth}")
    z = (float(z[0]), float(z[1]))
    base_half = curve_half_width(a, 0)
    if max(abs(z[0] - UNIT_CENTER[0]), abs(z[1] - UNIT_CENTER[1])) > base_half:
        return RingLocation(-1, ())
    if scalar_point_in_approximant(z, a, depth):
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


def scalar_segment_blocked(fixed: float, lo: float, hi: float, boxes, axis: int) -> bool:
    centers, half = boxes
    h = half * (1.0 - 1e-9) - 4.0 * np.spacing(max(abs(c) for center in centers for c in center))
    for center in centers:
        along, across = center[axis], center[1 - axis]
        if across - h < fixed < across + h and hi > along - h and lo < along + h:
            return True
    return False


def scalar_step_to_curve(w, center, half_width, boxes):
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
    if scalar_segment_blocked(w[1 - axis], *sorted((w[axis], coord)), boxes, axis):
        raise DustError(f"straight move to the guard curve blocked near {w}")
    return target


def scalar_build_john_path(z: Sequence[float], alpha: Alpha | float, depth: int) -> JohnPath:
    a = float(as_alpha(alpha))
    z = (float(z[0]), float(z[1]))
    loc = scalar_ring_of_point(z, a, depth)

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
        v = scalar_step_to_curve(w, center, half, boxes)
        if v != w:
            vertices.append(v)
            w = v
        landings.append((g, len(vertices) - 1))
    return JohnPath(np.array(vertices), loc.generation, tuple(landings))


def scalar_outcome(fn, *args):
    """What a scalar call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (RingUndeterminedError, DustError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.02, 0.499), depth=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       exponent=st.floats(-15.0, -2.0))
# a source on a child-curve box side, up to rounding, at generation 4: a
# shrink of 1e-9 of the box half-width rounds away there, and the move read
# as blocked, in the oracle as in the batch, until the shrink kept four ulps
@example(alpha=0.022013903243894285, depth=5, seed=0, exponent=-2.0)
def test_batched_rings_and_paths_match_scalar_oracles(alpha, depth, seed, exponent):
    # one batch of free points, points just beside child-curve box sides and
    # points on guard-curve sides and corners of random addressed squares
    rng = np.random.default_rng(seed)
    points = list(rng.uniform(-0.6, 1.6, (16, 2)))
    for _ in range(16):
        g = int(rng.integers(0, depth + 1))
        corner = address_corners(rng.integers(0, 4, size=(1, g), dtype=np.uint8), alpha)[0]
        centers, half = _child_curve_boxes(tuple(corner), alpha ** g, alpha)
        sign = rng.choice([-1.0, 1.0], size=2)
        points.append(np.array(centers[rng.integers(0, 4)])
                      + sign * half * (1.0 + 10.0 ** exponent * rng.integers(0, 2, 2)))
        points.append(corner + alpha ** g / 2.0
                      + sign * curve_half_width(alpha, g) * rng.integers(0, 2, 2))
    z = np.array(points)

    inside = john._in_approximant(z, alpha, depth)
    assert inside.tolist() == [scalar_point_in_approximant(p, alpha, depth) for p in z]
    outside = z[~inside]
    gen, words = john._locate(outside, alpha, depth)
    resolved = gen != john.UNRESOLVED
    for p, g, w, ok in zip(outside, gen, words, resolved):
        expected = scalar_outcome(scalar_ring_of_point, p, alpha, depth)
        assert (RingLocation(int(g), tuple(w[:max(g, 0)].tolist())) if ok else
                (RingUndeterminedError, expected[1])) == expected

    sources, gen, words = outside[resolved], gen[resolved], words[resolved]
    expected = [scalar_outcome(scalar_build_john_path, p, alpha, depth) for p in sources]
    clear = np.array([isinstance(e, JohnPath) for e in expected], dtype=bool)
    if not clear.all():  # a blocked move raises for the whole batch
        with pytest.raises(DustError, match="blocked near"):
            john._ascend(sources, gen, words, alpha)
    columns = john._ascend(sources[clear], gen[clear], words[clear], alpha)
    for path, e in zip(columns, [e for e in expected if isinstance(e, JohnPath)]):
        moved = (path[1:] != path[:-1]).any(axis=1)
        assert np.array_equal(np.concatenate((path[:1], path[1:][moved])), e.vertices)

    # the public one-row calls go through the same kernels
    for p in z[::6]:
        assert point_in_approximant(p, alpha, depth) == scalar_point_in_approximant(p, alpha, depth)
        assert (scalar_outcome(ring_of_point, p, alpha, depth)
                == scalar_outcome(scalar_ring_of_point, p, alpha, depth))
        one_row = scalar_outcome(build_john_path, p, alpha, depth)
        expected = scalar_outcome(scalar_build_john_path, p, alpha, depth)
        if isinstance(expected, JohnPath):
            assert np.array_equal(one_row.vertices, expected.vertices)
            assert (one_row.landings, one_row.ring_generation) == (expected.landings,
                                                                   expected.ring_generation)
        else:
            assert one_row == expected


# the source of the @example above whose straight move read as blocked
GRAZING_SOURCE = (0.0004846093510629458, 0.9995261123914525)


def test_source_on_a_box_side_up_to_rounding_builds_the_oracle_path():
    alpha, depth = 0.022013903243894285, 5
    z = np.array([GRAZING_SOURCE])
    gen, words = john._locate(z, alpha, depth)
    expected = scalar_build_john_path(GRAZING_SOURCE, alpha, depth)
    columns = john._ascend(z, gen, words, alpha)[0]
    moved = (columns[1:] != columns[:-1]).any(axis=1)
    assert np.array_equal(np.concatenate((columns[:1], columns[1:][moved])), expected.vertices)
    path = build_john_path(GRAZING_SOURCE, alpha, depth)
    assert np.array_equal(path.vertices, expected.vertices)
    assert (path.ring_generation, path.landings) == (5, tuple((g, 5 - g) for g in range(5, -1, -1)))


def dense_worst_ratio(vertices, starts, side, step) -> float:
    """The worst ratio along a path as the densified evaluation found it."""
    z = vertices[0]
    dense = densify_polyline(vertices, step)
    d_set = distance_to_dust(dense, starts, side)
    d_src = np.hypot(dense[:, 0] - z[0], dense[:, 1] - z[1])
    mask = d_src > 1e-15
    ratios = d_set[mask] / d_src[mask]
    return float(ratios.min()) if len(ratios) else math.inf


def candidate_worst_ratio(vertices, starts, side, step) -> float:
    ends = np.stack((vertices[:-1], vertices[1:]), axis=1)
    worst = john._worst_ratios(vertices[:1], np.zeros(len(ends), dtype=int), ends, starts, side,
                               step)
    assert np.all(worst == worst[0]) or np.all(np.isnan(worst))
    return float(worst[0])


#: Grid steps a generated segment spans at most, so the dense reference stays small.
REACH = 20_000


@st.composite
def axis_parallel_paths(draw):
    """(alpha, depth, vertices) of a path of axis-parallel moves from its source.

    Each coordinate is free or within a few grid steps of an interval start,
    an interval end or a gap midpoint, exactly on it in half the cases.
    """
    alpha, depth = draw(st.floats(0.05, 0.49)), draw(st.integers(1, 6))
    starts, side = interval_starts(alpha, depth), alpha ** depth
    step = side / 8.0
    ends = starts + side
    marks = {"start": starts, "end": ends, "gap": (ends[:-1] + starts[1:]) / 2.0}

    def coordinate(t):
        kind = draw(st.sampled_from(["free", "start", "end", "gap"]))
        if kind != "free":
            m = marks[kind]
            near = m[np.clip(np.searchsorted(m, t) + draw(st.integers(-1, 0)), 0, len(m) - 1)]
            near += draw(st.sampled_from([0.0, 0.0, 0.5, -1.25])) * step
            if near != t and abs(near - t) <= REACH * step:
                return near
        return t + draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1.0, REACH)) * step

    vertices = [(draw(st.floats(-0.2, 1.2)), draw(st.floats(-0.2, 1.2)))]
    vertices[0] = (coordinate(vertices[0][0]), coordinate(vertices[0][1]))
    for _ in range(draw(st.integers(1, 4))):
        axis = draw(st.integers(0, 1))
        p = list(vertices[-1])
        p[axis] = coordinate(p[axis])
        vertices.append(tuple(p))
    return alpha, depth, np.array(vertices)


@settings(max_examples=300, deadline=None)
@given(case=axis_parallel_paths())
# at alpha 0.25, depth 2 the interval starts are 0, 0.1875, 0.75 and 0.9375,
# the ends 0.0625, 0.25, 0.8125 and 1, and the gap midpoints 0.125, 0.5, 0.875
@example(case=(0.25, 2, np.array([(0.5, 0.3), (0.25, 0.3), (0.25, 0.125), (0.8125, 0.125)])))
@example(case=(0.25, 2, np.array([(0.4, 0.6), (0.4, 0.875), (0.125, 0.875)])))
@example(case=(0.25, 2, np.array([(0.3, 0.45), (0.5, 0.45), (0.5, 1.0)])))
@example(case=(0.3, 3, np.array([(0.5, 0.5), (0.5, 0.91), (1.0, 0.91)])))
@example(case=(0.05, 6, np.array([(0.95 + 1e-9, 0.3), (0.95 + 2e-5, 0.3)])))
# the last move runs 0.1 above the dust end 0.25 and 0.1 below a source
# 1e-12 (1e-11) left of the interval end 0.25: the ratio falls 5e-12 below 1
# near x = 0.35 and stays within 2**-44 of its minimum over 995 (312) grid
# points, where rounding alone decides which one is lowest
@example(case=(0.25, 6, np.array([(0.25 - 1e-12, 0.45), (0.25 - 1e-12, 0.35), (0.5, 0.35)])))
@example(case=(0.25, 6, np.array([(0.25 - 1e-11, 0.45), (0.25 - 1e-11, 0.35), (0.5, 0.35)])))
def test_candidate_minimum_equals_dense_minimum(case):
    alpha, depth, vertices = case
    starts, side = interval_starts(alpha, depth), alpha ** depth
    expected = dense_worst_ratio(vertices, starts, side, side / 8.0)
    got = candidate_worst_ratio(vertices, starts, side, side / 8.0)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


def continuous_minimum(vertices, starts, side) -> float:
    """Exact minimum of d(q, dust) / d(q, source) along an axis-parallel path.

    Between consecutive interval starts, interval ends and gap midpoints the
    moving coordinate's distance to the 1-D approximant is 0 or |t - b| for
    one interval end b, so the ratio's critical points on a piece are the
    real roots of h p**2 + (e**2 - c**2 + h**2) p - h c**2, p = t - b.
    """
    z, ends = vertices[0], starts + side
    cuts = np.sort(np.concatenate((starts, ends, (ends[:-1] + starts[1:]) / 2.0)))

    def dist(t):
        return float(john._distance_to_intervals(np.array([t]), starts, side)[0])

    best = math.inf
    for p, q in zip(vertices[:-1], vertices[1:]):
        ax = int(p[0] == q[0])
        c, e, t0 = dist(p[1 - ax]), p[1 - ax] - z[1 - ax], z[ax]
        lo, hi = sorted((p[ax], q[ax]))
        pieces = [lo, *cuts[(cuts > lo) & (cuts < hi)], hi]
        for left, right in zip(pieces[:-1], pieces[1:]):
            ts = [left, right]
            mid = (left + right) / 2.0
            if dist(mid) > 0.0:
                i = np.searchsorted(starts, mid)
                near = list(ends[max(i - 1, 0):i]) + list(starts[i:i + 1])
                b = min(near, key=lambda b: abs(mid - b))
                h = b - t0
                roots = np.roots([h, e * e - c * c + h * h, -h * c * c]) if h else [0.0]
                ts += [b + r.real for r in np.atleast_1d(roots)
                       if abs(r.imag) == 0.0 and left <= b + r.real <= right]
            for t in ts:
                d_src = math.hypot(t - t0, e)
                if d_src > 1e-15:
                    best = min(best, math.hypot(dist(t), c) / d_src)
    return best


@pytest.mark.parametrize("alpha, depth, samples, seed",
                         [(0.25, 4, 60, 7), (0.45, 3, 40, 2), (0.1, 5, 30, 3), (0.3, 6, 30, 5)])
def test_continuous_minimum_certifies_reported_ratio(alpha, depth, samples, seed):
    # the grid minimum can only overstate the path's true minimum; over
    # these samples it does so by at most 2.9e-2 relative (alpha 0.45, depth 3)
    report = verify_john(alpha, depth, samples, seed)
    starts, side = interval_starts(alpha, depth), alpha ** depth
    for z, reported in zip(report.points, report.worst_ratios):
        exact = continuous_minimum(build_john_path(z, alpha, depth).vertices, starts, side)
        assert exact <= reported * (1.0 + 1e-12)
        assert reported <= exact * 1.05


def reference_verify_john(alpha, depth, samples, seed):
    """verify_john as it stood: pairwise draws, scalar paths, densified ratios.

    Returns the sources, the worst ratios, the length constant and the
    number of unresolved draws.
    """
    starts, side = interval_starts(alpha, depth), alpha ** depth
    rng = np.random.default_rng(seed)
    points, unresolved = [], 0
    while len(points) < samples:
        z = (float(rng.random()), float(rng.random()))
        if scalar_point_in_approximant(z, alpha, depth):
            continue
        try:
            scalar_ring_of_point(z, alpha, depth)
        except RingUndeterminedError:
            unresolved += 1
            continue
        points.append(z)
    worst, stretch = [], []
    for z in points:
        path = scalar_build_john_path(z, alpha, depth)
        worst.append(dense_worst_ratio(path.vertices, starts, side, side / 8.0))
        anchor_dist = float(np.hypot(*(path.vertices[-1] - np.asarray(z))))
        stretch.append(path.length / anchor_dist if anchor_dist > 1e-15 else 0.0)
    return np.array(points), np.array(worst), max(stretch), unresolved


@pytest.mark.parametrize("block", [john.CANDIDATE_BLOCK, 64])
@pytest.mark.parametrize("alpha, depth, samples, seed",
                         [(0.25, 3, 60, 7), (0.49, 9, 40, 1), (0.12, 3, 30, 2), (0.49, 2, 20, 5)])
def test_report_matches_dense_reference(monkeypatch, block, alpha, depth, samples, seed):
    # at alpha 0.49, depth 9, 8 paths have 8 to 10 segments, whose lengths
    # numpy sums pairwise; small blocks split paths across blocks
    monkeypatch.setattr(john, "CANDIDATE_BLOCK", block)
    report = verify_john(alpha, depth, samples, seed)
    points, worst, length_constant, unresolved = reference_verify_john(alpha, depth, samples, seed)
    assert np.array_equal(report.points, points)
    assert np.array_equal(report.worst_ratios, worst)
    assert report.length_constant == length_constant
    assert report.unresolved == unresolved
