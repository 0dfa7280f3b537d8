from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustlab import john
from dustlab.cantor import address_corners, generate_cantor, interval_starts
from dustlab.errors import DustError, ParameterError, RingUndeterminedError
from dustlab.geometry import Alpha, as_alpha
from dustlab.john import (UNIT_CENTER, JohnPath, _child_curve_boxes, build_john_path,
                          curve_half_width, densify_polyline, distance_to_dust,
                          distance_to_squares, point_in_approximant, ring_clearance_bound,
                          ring_of_point, sample_ring_clearances, verify_john)


def dust_distance(points, alpha, depth):
    leaves = generate_cantor(alpha, depth)
    return distance_to_squares(np.atleast_2d(points), leaves.leaf_corners(), leaves.side)


class TestRingOfPoint:
    def test_unit_center_is_generation_zero(self):
        loc = ring_of_point((0.5, 0.5), 0.25, 3)
        assert loc.kind == "ring"
        assert loc.generation == 0
        assert loc.word == ()

    def test_far_point_is_exterior(self):
        assert ring_of_point((2.0, 2.0), 0.25, 3).kind == "exterior"

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

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected_before_drawing(self, monkeypatch, jobs):
        def unreachable(*args):
            raise AssertionError("a source was drawn")

        monkeypatch.setattr(john, "_draw_sample", unreachable)
        with pytest.raises(ParameterError, match="jobs must be at least 1"):
            verify_john(0.25, 3, 10, seed=1, jobs=jobs)

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

    def test_jobs_do_not_change_results(self):
        serial = verify_john(0.3, 2, 40, seed=11, jobs=1)
        threaded = verify_john(0.3, 2, 40, seed=11, jobs=4)
        assert serial.csv_lines() == threaded.csv_lines()


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
    h = half * (1.0 - 1e-9)
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

    if loc.kind == "exterior":
        half = curve_half_width(a, 0)
        lo = UNIT_CENTER[0] - half
        hi = UNIT_CENTER[0] + half
        target = (min(max(z[0], lo), hi), min(max(z[1], lo), hi))
        if target != z:
            vertices.append(target)
        landings.append((0, len(vertices) - 1))
        return JohnPath(np.array(vertices), z, -1, tuple(landings)), 0

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
    return JohnPath(np.array(vertices), z, loc.generation, tuple(landings)), detours


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
