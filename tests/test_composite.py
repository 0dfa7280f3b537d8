import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustlab import composite
from dustlab.boxdim import ScaleSchedule, find_full_dimension_point, window_counts
from dustlab.cantor import alpha_for_dimension, generate_cantor, scale_and_place
from dustlab.composite import (AnnulusChain, CompositePlan, PlacementRecord,
                               assemble_composite, build_annuli, check_plan,
                               choose_b_sequence, place_cantor_in_annulus,
                               placement_diameter, run_pipeline)
from dustlab.errors import (AssemblyError, ConstructionError, ParameterError,
                            PlacementError)
from dustlab.geometry import BoxGrid, Isometry, Square, rasterize, rasterize_quads_window
from dustlab.intersect import sample_isometry


def dust_grid(alpha, depth, level):
    approx = generate_cantor(alpha, depth)
    return rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


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
        E, chain = full_chain
        masks = [chain.annulus_mask(E, n) for n in range(1, chain.count + 1)]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert not (masks[i] & masks[j]).any()

    def test_each_annulus_has_mass(self, full_chain):
        E, chain = full_chain
        for n in range(1, chain.count + 1):
            assert int((E.bits & chain.annulus_mask(E, n)).sum()) >= 16

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
            assert int((E.bits & chain.annulus_mask(E, n)).sum()) >= 12

    def test_requires_increasing_d(self):
        E = full_grid(6)
        with pytest.raises(ParameterError):
            build_annuli(E, (0.5, 0.5), [1.0, 0.9], min_mass=4)


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
        g, eprime, report = assemble_composite(E, chain, [rec])
        assert report.containment
        assert report.disjoint
        assert report.dim_eprime.slope == pytest.approx(rec.slope, abs=0.1)

    def test_subset_is_exact(self, full_chain):
        E, chain = full_chain
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=30, seed=5)
        g, eprime, report = assemble_composite(E, chain, [rec])
        assert np.all(E.bits[eprime.bits])
        assert np.all(g.bits[eprime.bits])

    def test_center_cell_belongs_to_g(self, full_chain):
        E, chain = full_chain
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=30, seed=5)
        g, _, _ = assemble_composite(E, chain, [rec])
        ix, iy = E.point_cell(chain.center)
        assert g.bits[iy, ix]

    def test_overlapping_copies_raise_assembly_error(self, full_chain):
        E, chain = full_chain
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=30, seed=5)
        clone = PlacementRecord(4, rec.alpha, rec.depth, rec.diameter, rec.iso, rec.slope)
        with pytest.raises(AssemblyError):
            assemble_composite(E, chain, [rec, clone])


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

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected_before_any_stage(self, monkeypatch, jobs):
        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(composite, "box_counts", unreachable)
        monkeypatch.setattr(composite, "find_full_dimension_point", unreachable)
        with pytest.raises(ParameterError, match="jobs must be at least 1"):
            run_pipeline(dust_grid(0.4, 4, 9), annuli=4, trials=10, seed=1, jobs=jobs)

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

    def test_jobs_do_not_change_results(self):
        E = dust_grid(0.4, 4, 9)
        serial = run_pipeline(E, annuli=4, trials=30, seed=3, jobs=1)
        threaded = run_pipeline(E, annuli=4, trials=30, seed=3, jobs=3)
        assert serial.plan.to_json() == threaded.plan.to_json()


# Placement search as it stood before each copy's quads were built once and
# trials whose frame reaches no occupied cell were skipped: every trial
# places the copy with scale_and_place and scores it in its aligned window.

def windowed_overlap_counts(grid, quads, schedule):
    cells, bits = rasterize_quads_window(quads, grid.bounds, grid.level,
                                         1 << (grid.level - schedule.levels[0]))
    inter = grid.bits[cells] & bits
    if not inter.any():
        return dict.fromkeys(schedule.levels, 0)
    return window_counts(inter, grid.level, schedule)


def reference_placement(E, chain, index, b, trials, seed, schedule_extent):
    diameter = placement_diameter(chain, index)
    alpha = alpha_for_dimension(b)
    depth = composite._copy_depth(float(alpha), diameter, E.cell_size)
    copy = generate_cantor(alpha, depth)
    slice_grid = composite._masked(E, chain.annulus_mask(E, index))
    schedule = ScaleSchedule.resolving(E, schedule_extent)
    window = Square.centered(chain.center, chain.half_widths[index - 1] + 1.5 * diameter)
    best = None
    for i in range(trials):
        iso = sample_isometry(np.random.default_rng([seed, i]), window)
        counts = windowed_overlap_counts(slice_grid, scale_and_place(copy, diameter, iso), schedule)
        est = composite._slice_estimate(counts, schedule, E.bounds.side)
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
@given(st.lists(PERTURBATIONS, min_size=1, max_size=2))
@example([(0, {"alpha": 0.6})])
@example([(0, {"depth": 13})])
@example([(0, {"diameter": -0.001})])
@example([(0, {"depth": 9})])
@example([(0, {"depth": 9}), (1, {})])
@example([(0, {"theta": math.nan}), (1, {"z": (0.5, math.inf)})])
def test_check_plan_reports_and_never_raises(construct_workload, perturbations):
    plan = construct_workload[1].plan
    copies = tuple(perturbed(plan.placements[k], changes) for k, changes in perturbations)
    with pytest.MonkeyPatch.context() as mp:
        assert_builds_in_range(mp)
        issues = check_plan(replace(plan, placements=copies))
    assert isinstance(issues, list) and all(isinstance(s, str) for s in issues)


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
