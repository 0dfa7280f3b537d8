import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustlab import composite
from dustlab.boxdim import (ScaleSchedule, box_counts, estimate_dimension, find_full_dimension_point,
                            window_counts)
from dustlab.cantor import alpha_for_dimension, generate_cantor, scale_and_place, scaled_quads
from dustlab.composite import (AnnulusChain, CompositePlan, PlacementRecord,
                               assemble_composite, build_annuli, check_plan,
                               choose_b_sequence, place_cantor_in_annulus,
                               placement_diameter, run_pipeline)
from dustlab.errors import (AssemblyError, ConstructionError, ParameterError,
                            PlacementError)
from dustlab.geometry import BoxGrid, Isometry, Square, rasterize
from test_counting import (per_trial_counts, reference_full_dimension_point,
                           scalar_estimate_dimension)
from test_streams import sample_isometry


def dust_grid(alpha, depth, level):
    approx = generate_cantor(alpha, depth)
    return rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


def default_estimate(E):
    """E's dimension estimate over its default schedule, as ``run_pipeline`` passes it to assembly."""
    return estimate_dimension(box_counts(E, ScaleSchedule.default_for(E.level)), side=E.bounds.side)


def full_grid(level):
    n = 1 << level
    return BoxGrid(Square.unit(), level, np.ones((n, n), dtype=bool))


@pytest.fixture(scope="module")
def full_chain():
    E = full_grid(9)
    chain = build_annuli(E, (0.5, 0.5), [1.5, 1.6, 1.7, 1.75], min_mass=16)
    return E, chain


class TestChooseBSequence:
    def test_constant_one(self):
        assert choose_b_sequence([1.0])[0] == pytest.approx(1.75)

    def test_constant_point_two(self):
        b = choose_b_sequence([0.2, 0.2, 0.2])
        assert b[0] == pytest.approx(1.9)
        assert all(2 - 0.2 < bn < 2 for bn in b)

    def test_all_constraints_replay(self):
        d_seq = [0.3 + 1.6 * n / 51 for n in range(1, 51)]
        b_seq = choose_b_sequence(d_seq)
        for n, (d, b) in enumerate(zip(d_seq, b_seq), start=1):
            assert 2 - d < b < 2
            assert b > 1.5

    def test_corrections_vanish(self):
        b_seq = choose_b_sequence([1.0] * 200)
        assert b_seq[-1] > 1.995

    def test_rejects_bad_d(self):
        with pytest.raises(ParameterError):
            choose_b_sequence([2.5])


class TestBuildAnnuli:
    def test_full_square_accepts_dyadic_ladder(self, full_chain):
        _, chain = full_chain
        hw = chain.half_widths
        assert len(hw) == 5
        for a, b in zip(hw, hw[1:]):
            assert b == pytest.approx(a / 2)

    def test_annuli_nested_and_disjoint(self, full_chain):
        # E is the all-ones grid, so each slice holds every cell of its annulus
        E, chain = full_chain
        assert E.bits.all()
        slices = [chain.annulus_slice(E, n).bits for n in range(1, chain.count + 1)]
        for i in range(len(slices)):
            for j in range(i + 1, len(slices)):
                assert not (slices[i] & slices[j]).any()
        d = cheb_distances(E, chain.center)
        hw = chain.half_widths
        assert np.array_equal(np.logical_or.reduce(slices), (d >= hw[-1]) & (d < hw[0]))

    def test_each_annulus_has_mass(self, full_chain):
        E, chain = full_chain
        for n in range(1, chain.count + 1):
            assert chain.annulus_slice(E, n).occupied_count >= 16

    def test_single_point_fails_immediately(self):
        bits = np.zeros((64, 64), dtype=bool)
        bits[32, 32] = True
        E = BoxGrid(Square.unit(), 6, bits)
        with pytest.raises(ConstructionError, match="annulus 1"):
            build_annuli(E, E.cell_center(32, 32), [0.5, 0.6], min_mass=4)

    def test_dust_chain_of_three(self):
        # the quarter dust is lacunary around any of its points, so the
        # shells carry modest mass; 12 cells per annulus is what the
        # level-10 raster supports near the finder's point
        E = dust_grid(0.25, 5, 10)
        p = find_full_dimension_point(E, min_clearance=0.2)
        chain = build_annuli(E, p, [0.5, 0.6, 0.7], min_mass=12)
        assert chain.count == 3
        for n in range(1, 4):
            assert chain.annulus_slice(E, n).occupied_count >= 12

    def test_requires_increasing_d(self):
        E = full_grid(6)
        with pytest.raises(ParameterError):
            build_annuli(E, (0.5, 0.5), [1.0, 0.9], min_mass=4)


def cheb_distances(grid, center):
    """Chebyshev distance of every cell centre to ``center``, as a dense field (the reference rule)."""
    w = grid.cell_size
    x0, y0 = grid.bounds.corner
    xs = x0 + (np.arange(grid.size) + 0.5) * w
    ys = y0 + (np.arange(grid.size) + 0.5) * w
    return np.maximum(np.abs(ys[:, None] - center[1]), np.abs(xs[None, :] - center[0]))


@st.composite
def annulus_cases(draw):
    """A grid over a square of any corner and side, a centre in or near it, and two radii."""
    level = draw(st.integers(0, 7))
    n = 1 << level
    corner = (draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0)))
    bounds = Square(corner, draw(st.floats(0.01, 8.0)))
    seed = draw(st.none() | st.integers(0, 2**32 - 1))  # None: the all-ones grid
    bits = np.ones((n, n), dtype=bool) if seed is None else np.random.default_rng(seed).random((n, n)) < 0.5
    grid = BoxGrid(bounds, level, bits)
    center = tuple(c0 + draw(st.floats(-0.5, 1.5)) * bounds.side for c0 in corner)
    offsets = np.unique(cheb_distances(grid, center))
    radius = st.floats(0.0, 2.0 * bounds.side) | st.sampled_from(offsets.tolist())
    return grid, center, draw(radius), draw(radius)


@settings(max_examples=150, deadline=None)
@given(annulus_cases())
# radii equal to exact centre offsets: the ring at r_in lies in the slice, the ring at r_out does not
@example((full_grid(3), (0.5, 0.5), 0.0625, 0.3125))
# a centre on a cell boundary: the two middle rows and columns share one offset
@example((full_grid(4), (0.5, 0.25), 0.03125, 0.21875))
# r_in below half a cell around a cell corner: the inner block is empty
@example((full_grid(5), (0.25, 0.75), 0.01, 0.2))
# r_out past the grid: the outer block is the whole grid
@example((full_grid(3), (0.2, 0.9), 0.3, 5.0))
def test_annulus_slice_matches_the_dense_distance_rule(case):
    grid, center, r_in, r_out = case
    d = cheb_distances(grid, center)
    # a step of the grid size cuts the whole grid
    got = composite._annulus_window(grid, center, r_in, r_out, grid.size)
    assert np.array_equal(got, grid.bits & ((d >= r_in) & (d < r_out)))
    if 0.0 < r_in < r_out:  # the slice of a chain's one annulus is that cut
        chain_slice = AnnulusChain(center, (r_out, r_in)).annulus_slice(grid, 1)
        assert chain_slice.bounds == grid.bounds and chain_slice.level == grid.level
        assert np.array_equal(chain_slice.bits, got)


@settings(max_examples=150, deadline=None)
@given(annulus_cases(), st.data())
@example((full_grid(3), (0.5, 0.5), 0.0625, 0.3125), None)
@example((full_grid(5), (0.25, 0.75), 0.01, 0.2), None)
@example((full_grid(3), (0.2, 0.9), 0.3, 5.0), None)
def test_annulus_window_counts_as_the_full_slice(case, data):
    # build_annuli counts each candidate slice in a window aligned to its schedule's coarsest level
    grid, center, r_in, r_out = case
    lo = max(grid.level - 2, 0) if data is None else data.draw(st.integers(0, grid.level))
    bits = composite._annulus_window(grid, center, r_in, r_out, 1 << (grid.level - lo))
    full = BoxGrid(grid.bounds, grid.level, composite._annulus_window(grid, center, r_in, r_out, grid.size))
    assert np.count_nonzero(bits) == full.occupied_count
    if grid.level - lo >= 2:
        schedule = ScaleSchedule.span(lo, grid.level)
        assert window_counts([bits], grid.level, schedule) == box_counts(full, schedule)


def reference_build_annuli(E, p, d_seq, min_mass):
    """``build_annuli`` as it stood: each candidate slice cut from the full grid by the dense
    distance rule, counted over the full grid and fitted by the scalar least squares."""
    x0, y0 = E.bounds.corner
    x1, y1 = E.bounds.max_corner
    clearance = min(p[0] - x0, x1 - p[0], p[1] - y0, y1 - p[1])
    cell = E.cell_size
    r = 0.95 * clearance
    if r < 2.0 * cell:
        return None
    d = cheb_distances(E, p)
    radii = [r]
    for d_n in d_seq:
        r_out = radii[-1]
        r_in = r_out / 2.0
        while r_in >= cell:
            slice_grid = BoxGrid(E.bounds, E.level, E.bits & (d >= r_in) & (d < r_out))
            if slice_grid.occupied_count >= min_mass:
                schedule = ScaleSchedule.resolving(E, r_out - r_in)
                est = scalar_estimate_dimension(box_counts(slice_grid, schedule),
                                                window=(schedule.levels[0], schedule.levels[-1]),
                                                side=E.bounds.side)
                if est.slope >= d_n - 0.1:
                    break
            r_in /= 2.0
        else:
            return None
        radii.append(r_in)
    return tuple(radii)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.25, 0.45), depth=st.integers(3, 5), level=st.integers(7, 10),
       point=st.none() | st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
       d0=st.floats(0.3, 1.2), steps=st.lists(st.floats(0.01, 0.1), min_size=1, max_size=5),
       min_mass=st.sampled_from([4, 12, 24]))
def test_build_annuli_chooses_the_reference_half_widths(alpha, depth, level, point, d0, steps,
                                                        min_mass):
    E = dust_grid(alpha, depth, level)
    p = find_full_dimension_point(E, min_clearance=0.25) if point is None else point
    d_seq = [min(d0 + sum(steps[:k + 1]), 1.95) for k in range(len(steps))]
    d_seq = [d for k, d in enumerate(d_seq) if k == 0 or d > d_seq[k - 1]]
    expected = reference_build_annuli(E, p, d_seq, min_mass)
    if expected is None:
        with pytest.raises(ConstructionError):
            build_annuli(E, p, d_seq, min_mass)
    else:
        assert build_annuli(E, p, d_seq, min_mass).half_widths == expected


class TestAnnulusChainValues:
    @pytest.mark.parametrize("center, half_widths", [
        ((0.5, 0.5), (0.5, math.nan, 0.1)),
        ((0.5, 0.5), (0.4, 0.2, math.nan)),
        ((0.5, 0.5), (math.nan, 0.2, 0.1)),
        ((0.5, 0.5), (math.inf, 0.2, 0.1)),
        ((0.5, 0.5), (0.4, 0.2, -0.01)),
        ((0.5, 0.5), (0.4, 0.2, 0.0)),
        ((0.5, 0.5), (0.4, 0.4, 0.1)),
        ((0.5, 0.5), (0.4,)),
        ((math.nan, 0.5), (0.4, 0.2, 0.1)),
        ((0.5, -math.inf), (0.4, 0.2, 0.1)),
    ])
    def test_rejected(self, center, half_widths):
        with pytest.raises(ParameterError, match="finite center and strictly decreasing"):
            AnnulusChain(center, half_widths)

    @pytest.mark.parametrize("half_widths", [
        (0.4, 0.2, 0.1, 0.05, -0.01),
        (0.4, 0.2, 0.1, math.nan, 0.025),
        (math.inf, 0.2, 0.1, 0.05, 0.025),
        (0.4, 0.2, 0.2, 0.05, 0.025),
    ])
    def test_check_plan_reports_them_once(self, half_widths):
        plan = CompositePlan((0.5, 0.5), half_widths, (1.0, 1.1, 1.2, 1.3), (1.75, 1.8, 1.85, 1.9), ())
        assert check_plan(plan) == ["half widths are not strictly decreasing, finite and positive"]


class TestPlacement:
    def test_full_square_recovers_copy_dimension(self, full_chain):
        E, chain = full_chain
        b = 1.8
        rec = place_cantor_in_annulus(E, chain, 2, b, trials=60, seed=3)
        assert rec.index == 2
        assert rec.diameter < chain.width(1) / 2
        assert rec.diameter < chain.width(3) / 2
        # intersection with a full set is the copy itself
        assert rec.slope == pytest.approx(b, abs=0.35)

    def test_zero_mass_annulus_raises(self):
        bits = np.zeros((512, 512), dtype=bool)
        bits[250:262, 250:262] = True  # mass near the center only
        E = BoxGrid(Square.unit(), 9, bits)
        chain = AnnulusChain((0.5, 0.5), (0.4, 0.2, 0.1, 0.05, 0.025))
        with pytest.raises(PlacementError):
            place_cantor_in_annulus(E, chain, 2, 1.8, trials=10, seed=1)

    @pytest.mark.parametrize("trials", [0, -4])
    def test_trials_below_one_rejected(self, full_chain, trials):
        E, chain = full_chain
        with pytest.raises(ParameterError, match="at least one trial"):
            place_cantor_in_annulus(E, chain, 2, 1.8, trials=trials, seed=1)

    def test_odd_index_rejected(self, full_chain):
        E, chain = full_chain
        with pytest.raises(ParameterError):
            place_cantor_in_annulus(E, chain, 3, 1.8, trials=5, seed=1)

    def test_diameter_bound_for_last_even(self):
        chain = AnnulusChain((0.5, 0.5), (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625))
        d6 = placement_diameter(chain, 6)
        assert d6 < chain.width(5) / 2


class TestAssemble:
    def test_single_annulus_union_tracks_placement(self, full_chain):
        E, chain = full_chain
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=60, seed=3)
        dim_e = default_estimate(E)
        g, eprime, report = assemble_composite(E, chain, [rec], dim_e)
        assert report.dim_e == dim_e
        assert report.containment
        assert report.disjoint
        assert report.dim_eprime.slope == pytest.approx(rec.slope, abs=0.1)

    def test_subset_is_exact(self, full_chain):
        E, chain = full_chain
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=30, seed=5)
        g, eprime, report = assemble_composite(E, chain, [rec], default_estimate(E))
        assert np.all(E.bits[eprime.bits])
        assert np.all(g.bits[eprime.bits])

    def test_center_cell_belongs_to_g(self, full_chain):
        E, chain = full_chain
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=30, seed=5)
        g, _, _ = assemble_composite(E, chain, [rec], default_estimate(E))
        ix, iy = E.point_cell(chain.center)
        assert g.bits[iy, ix]

    def test_overlapping_copies_raise_assembly_error(self, full_chain):
        E, chain = full_chain
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=30, seed=5)
        clone = PlacementRecord(4, rec.alpha, rec.depth, rec.diameter, rec.iso, rec.slope)
        with pytest.raises(AssemblyError):
            assemble_composite(E, chain, [rec, clone], default_estimate(E))


class TestPlan:
    def test_json_round_trip(self):
        plan = CompositePlan((0.5, 0.5), (0.4, 0.2, 0.1), (1.0, 1.1), (1.75, 1.8), ())
        back = CompositePlan.from_json(plan.to_json())
        assert back.center == plan.center
        assert back.half_widths == plan.half_widths
        assert back.d_seq == plan.d_seq
        assert back.b_seq == plan.b_seq

    def test_check_plan_flags_bad_b(self):
        plan = CompositePlan((0.5, 0.5), (0.4, 0.2, 0.1), (1.0,), (1.4,), ())
        issues = check_plan(plan)
        assert any("3/2" in s for s in issues)

    def test_check_plan_flags_fat_copy(self):
        from dustlab.geometry import Isometry

        rec = PlacementRecord(2, 0.47, 2, 0.2, Isometry(0.0, False, (0.0, 0.0)), 0.0)
        plan = CompositePlan((0.5, 0.5), (0.4, 0.2, 0.1, 0.05, 0.025),
                             (1.0, 1.1, 1.2, 1.3), (1.75, 1.8, 1.85, 1.9),
                             (rec,))
        issues = check_plan(plan)
        assert any("diameter" in s for s in issues)


def one_copy_plan(index, d_seq=(1.0, 1.1, 1.2, 1.3), b_seq=(1.75, 1.8, 1.85, 1.9)):
    """A 4-annulus plan with one small copy in annulus ``index``."""
    rec = PlacementRecord(index, 0.3, 1, 0.001, Isometry(0.0, False, (0.5, 0.5)), 0.0)
    return CompositePlan((0.5, 0.5), (0.4, 0.2, 0.1, 0.05, 0.025), d_seq, b_seq, (rec,))


class TestCheckPlanShape:
    @pytest.mark.parametrize("index", [2, 4])
    def test_even_index_in_range_replays_cleanly(self, index):
        assert check_plan(one_copy_plan(index)) == []

    def test_index_zero_is_flagged(self):
        assert check_plan(one_copy_plan(0)) == ["copy index 0 is not an even annulus index in 2..4"]

    @pytest.mark.parametrize("index", [1, 3, 5])
    def test_odd_index_is_flagged(self, index):
        assert check_plan(one_copy_plan(index)) == [
            f"copy index {index} is not an even annulus index in 2..4"]

    @pytest.mark.parametrize("index", [6, 9])
    def test_index_past_the_last_annulus_is_flagged(self, index):
        assert check_plan(one_copy_plan(index)) == [
            f"copy index {index} is not an even annulus index in 2..4"]

    def test_short_d_sequence_is_flagged(self):
        plan = one_copy_plan(2, d_seq=(1.0, 1.1, 1.2))
        assert check_plan(plan) == ["d sequence has 3 entries for 4 annuli"]

    def test_long_b_sequence_is_flagged(self):
        plan = one_copy_plan(2, b_seq=(1.75, 1.8, 1.85, 1.9, 1.95))
        assert check_plan(plan) == ["b sequence has 5 entries for 4 annuli"]

    def test_single_point_plan_replays_cleanly(self):
        bits = np.zeros((256, 256), dtype=bool)
        bits[100, 37] = True
        result = run_pipeline(BoxGrid(Square.unit(), 8, bits), seed=1)
        assert check_plan(result.plan) == []


class TestPipeline:
    def test_single_point_short_circuit(self):
        bits = np.zeros((256, 256), dtype=bool)
        bits[100, 37] = True
        E = BoxGrid(Square.unit(), 8, bits)
        result = run_pipeline(E, seed=1)
        assert result.eprime.occupied_count == 1
        assert result.report.dim_eprime.slope == pytest.approx(0.0, abs=1e-9)
        assert result.plan.center == E.cell_center(37, 100)

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            run_pipeline(BoxGrid.empty(Square.unit(), 6), seed=1)

    @pytest.mark.parametrize("trials", [0, -4])
    def test_trials_below_one_rejected(self, trials):
        # refused before any stage, even for a point raster that needs no placement
        bits = np.zeros((256, 256), dtype=bool)
        bits[100, 37] = True
        with pytest.raises(ParameterError, match="at least one trial"):
            run_pipeline(BoxGrid(Square.unit(), 8, bits), trials=trials, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_bad_seed_rejected_before_any_stage(self, monkeypatch, seed):
        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(composite, "box_counts", unreachable)
        monkeypatch.setattr(composite, "find_full_dimension_point", unreachable)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            run_pipeline(dust_grid(0.4, 4, 9), annuli=4, trials=10, seed=seed)

    def test_dust_pipeline_end_to_end(self):
        E = dust_grid(0.4, 4, 9)
        result = run_pipeline(E, annuli=4, trials=80, seed=5)
        report = result.report
        assert report.containment
        assert report.disjoint
        assert check_plan(result.plan) == []
        assert np.all(E.bits[result.eprime.bits])
        # subset sanity both ways at the stated artifact slacks
        assert report.dim_eprime.slope <= report.dim_e.slope + 0.1
        for slope in report.annulus_slopes.values():
            assert report.dim_eprime.slope >= slope - 0.2

    def test_union_counts_dominate_piece_counts(self):
        from dustlab.boxdim import ScaleSchedule, box_counts
        from dustlab.geometry import grid_intersection, rasterize_quads

        E = dust_grid(0.4, 4, 9)
        result = run_pipeline(E, annuli=4, trials=60, seed=7)
        sched = ScaleSchedule.span(2, 9)
        union_counts = box_counts(result.eprime, sched)
        for placement in result.plan.placements:
            leaves = scale_and_place(generate_cantor(placement.alpha, placement.depth),
                                     placement.diameter, placement.iso)
            piece = grid_intersection(rasterize_quads(leaves, E.bounds, E.level), E)
            piece_counts = box_counts(piece, sched)
            for m in sched.levels:
                assert union_counts[m] >= piece_counts[m]

    def test_deterministic(self):
        E = dust_grid(0.4, 4, 9)
        r1 = run_pipeline(E, annuli=4, trials=40, seed=9)
        r2 = run_pipeline(E, annuli=4, trials=40, seed=9)
        assert r1.plan.to_json() == r2.plan.to_json()
        assert np.array_equal(r1.eprime.bits, r2.eprime.bits)


# Placement search as it stood before its trials were scored as arrays: every
# trial's frame is moved and tested alone, the copy is scored by the dense trial
# scorer (the raster in its aligned window) and fitted by the scalar least squares,
# one trial at a time (test_counting's oracles).

def reference_placement(E, chain, index, b, trials, seed, schedule_extent):
    diameter = placement_diameter(chain, index)
    alpha = alpha_for_dimension(b)
    depth = composite._copy_depth(float(alpha), diameter, E.cell_size)
    quads = scaled_quads(generate_cantor(alpha, depth), diameter)
    d, hw = cheb_distances(E, chain.center), chain.half_widths
    slice_grid = BoxGrid(E.bounds, E.level, E.bits & (d >= hw[index]) & (d < hw[index - 1]))
    schedule = ScaleSchedule.resolving(E, schedule_extent)
    window = Square.centered(chain.center, chain.half_widths[index - 1] + 1.5 * diameter)
    best = None
    for i in range(trials):
        iso = sample_isometry(np.random.default_rng([seed, i]), window)
        est = scalar_estimate_dimension(per_trial_counts(slice_grid, quads, iso, schedule),
                                        window=(schedule.levels[0], schedule.levels[-1]),
                                        side=E.bounds.side)
        if not est.empty and (best is None or est.slope > best[0] + 1e-12):
            best = (est.slope, iso)
    return PlacementRecord(index, float(alpha), depth, diameter, best[1], best[0])


@pytest.fixture(scope="module")
def construct_workload():
    # the benchmark's construct workload: a level-10 raster of the alpha 0.4,
    # depth-5 dust, 6 annuli, 160 trials per annulus, seed 5
    E = dust_grid(0.4, 5, 10)
    return E, run_pipeline(E, annuli=6, trials=160, seed=5)


@pytest.fixture(scope="module")
def construct_reference(construct_workload):
    """Reference records for the construct plan's chain, fitted over the largest copy's scales."""
    E, result = construct_workload
    plan = result.plan
    chain = AnnulusChain(plan.center, plan.half_widths)
    even = range(2, chain.count + 1, 2)
    extent = max(placement_diameter(chain, i) for i in even)
    return tuple(reference_placement(E, chain, i, plan.b_seq[i - 1], 160, 5 + 1000 * i, extent)
                 for i in even)


def test_placements_match_per_trial_reference_at_construct_workload(construct_workload,
                                                                    construct_reference):
    plan = construct_workload[1].plan
    assert len(plan.placements) == 3
    assert plan.placements == construct_reference


def test_lone_placement_derives_the_chains_extent(construct_workload, construct_reference):
    # one call, given no extent, fits over the scales of the chain's largest copy
    E, result = construct_workload
    plan = result.plan
    chain = AnnulusChain(plan.center, plan.half_widths)
    for rec in construct_reference:
        i = rec.index
        assert place_cantor_in_annulus(E, chain, i, plan.b_seq[i - 1], 160, 5 + 1000 * i) == rec


@pytest.mark.parametrize("seed", [3, 21])
def test_pipeline_stages_match_per_trial_references_at_other_seeds(seed):
    # the construct workload's set at seeds other than the benchmark's: the point, the
    # chain and every placement equal the references' one-candidate, one-trial searches
    E = dust_grid(0.4, 5, 10)
    plan = run_pipeline(E, annuli=6, trials=40, seed=seed).plan
    p = reference_full_dimension_point(E, min_clearance=E.bounds.side / 4.0)
    assert plan.center == p
    assert plan.half_widths == reference_build_annuli(E, p, plan.d_seq, 24)
    chain = AnnulusChain(plan.center, plan.half_widths)
    even = range(2, chain.count + 1, 2)
    extent = max(placement_diameter(chain, i) for i in even)
    assert plan.placements == tuple(
        reference_placement(E, chain, i, plan.b_seq[i - 1], 40, seed + 1000 * i, extent) for i in even)


# check_plan on perturbed copies of the construct plan's records: every
# field may leave its range, and no leaf of such a copy may be built.

def perturbed(record, changes):
    changes = dict(changes)
    iso = Isometry(changes.pop("theta", record.iso.theta), changes.pop("reflect", record.iso.reflect),
                   changes.pop("z", record.iso.z))
    return replace(record, iso=iso, **changes)


PERTURBATIONS = st.tuples(st.integers(0, 2), st.fixed_dictionaries({}, optional={
    "index": st.integers(-1, 8),
    "alpha": st.floats(),
    "depth": st.integers(-2, 14),
    "diameter": st.floats(),
    "slope": st.floats(),
    "theta": st.floats(),
    "reflect": st.booleans(),
    "z": st.tuples(st.floats(), st.floats()),
}))


def assert_builds_in_range(monkeypatch):
    real = composite.generate_cantor

    def checked(alpha, depth):
        assert 0.0 < alpha < 0.5 and 0 <= depth <= composite.MAX_COPY_DEPTH, (alpha, depth)
        return real(alpha, depth)

    monkeypatch.setattr(composite, "generate_cantor", checked)


@settings(max_examples=80, deadline=None)
@given(st.lists(PERTURBATIONS, min_size=1, max_size=2),
       st.dictionaries(st.integers(0, 6), st.floats(), max_size=2))
@example([(0, {"alpha": 0.6})], {})
@example([(0, {"depth": 13})], {})
@example([(0, {"diameter": -0.001})], {})
@example([(0, {"depth": 9})], {})
@example([(0, {"depth": 9}), (1, {})], {})
@example([(0, {"theta": math.nan}), (1, {"z": (0.5, math.inf)})], {})
@example([(0, {})], {6: -0.01})
@example([(0, {})], {3: math.nan})
@example([(1, {})], {0: math.inf, 5: 0.0})
@example([(0, {"diameter": 1e308}), (1, {})], {})
@example([(0, {"z": (1.7e308, 0.5)}), (1, {})], {})
def test_check_plan_reports_and_never_raises(construct_workload, perturbations, shells):
    # shells replaces half widths by position; every plan field may leave its range, and
    # no step of the replay may overflow or leave its verdict to inf and NaN
    plan = construct_workload[1].plan
    copies = tuple(perturbed(plan.placements[k], changes) for k, changes in perturbations)
    half_widths = tuple(shells.get(i, r) for i, r in enumerate(plan.half_widths))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_builds_in_range(mp)
        issues = check_plan(replace(plan, placements=copies, half_widths=half_widths))
    assert isinstance(issues, list) and all(isinstance(s, str) for s in issues)
    hw = np.array(half_widths)
    in_range = bool(np.isfinite(hw).all() and (hw > 0).all() and (np.diff(hw) < 0).all())
    assert in_range == ("half widths are not strictly decreasing, finite and positive" not in issues)


@pytest.mark.parametrize("changes, issue", [
    ({"alpha": 0.6}, "copy 2 ratio 0.6 is not in (0, 1/2)"),
    ({"alpha": math.nan}, "copy 2 ratio nan is not in (0, 1/2)"),
    ({"depth": 13}, "copy 2 depth 13 is not in 0..8"),
    ({"depth": 9}, "copy 2 depth 9 is not in 0..8"),
    ({"depth": -1}, "copy 2 depth -1 is not in 0..8"),
    ({"diameter": -0.001}, "copy 2 diameter -0.001 is not finite and positive"),
    ({"theta": math.inf}, "copy 2 theta inf is not finite"),
    ({"z": (math.nan, 0.5)}, "copy 2 z[0] nan is not finite"),
    ({"z": (0.5, -math.inf)}, "copy 2 z[1] -inf is not finite"),
    ({"slope": math.nan}, "copy 2 slope nan is not finite"),
    ({"z": (1.7e308, 0.5)}, "copy 2 reaches 1.7e+308 from the origin, "
                            "beyond the 3.27339e+150 that the disjointness replay can check"),
])
def test_out_of_range_copy_is_reported_before_any_leaf(construct_workload, monkeypatch,
                                                        changes, issue):
    plan = construct_workload[1].plan
    one_copy = replace(plan, placements=(perturbed(plan.placements[0], changes),))
    monkeypatch.setattr(composite, "generate_cantor", lambda *args: pytest.fail("a leaf was built"))
    assert check_plan(one_copy) == [issue]


def test_out_of_range_copy_is_left_out_of_the_replay(construct_workload, monkeypatch):
    # a copy of the first record at depth 9 would overlap it; only the first is built
    plan = construct_workload[1].plan
    first = plan.placements[0]
    assert_builds_in_range(monkeypatch)
    assert check_plan(replace(plan, placements=(first, replace(first, depth=9)))) == [
        "copy 2 depth 9 is not in 0..8"]
    assert check_plan(replace(plan, placements=(first, first))) == [
        "placed copies are not pairwise disjoint"]
    # a copy too large for the replay to check without overflow is left out as well
    huge = check_plan(replace(plan, placements=(first, replace(first, diameter=1e308))))
    assert huge[1:] == ["copy 2 reaches 1e+308 from the origin, "
                        "beyond the 3.27339e+150 that the disjointness replay can check"]


# Memory of the annulus slices at the construct workload: each slice is one
# grid-sized bool array, with no grid-sized float field behind it.

def traced_growth(call):
    """Peak bytes that ``call()`` allocates above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_build_annuli_allocates_a_few_grids(construct_workload):
    E, result = construct_workload
    plan = result.plan
    chain, growth = traced_growth(lambda: build_annuli(E, plan.center, plan.d_seq, min_mass=24))
    assert chain.half_widths == plan.half_widths
    assert growth < 4 * E.bits.nbytes


def test_placement_allocates_a_few_grids(construct_workload):
    E, result = construct_workload
    plan = result.plan
    chain = AnnulusChain(plan.center, plan.half_widths)
    for rec in plan.placements:
        i = rec.index
        got, growth = traced_growth(
            lambda: place_cantor_in_annulus(E, chain, i, plan.b_seq[i - 1], 160, 5 + 1000 * i))
        assert got == rec
        assert growth < 4 * E.bits.nbytes, i
