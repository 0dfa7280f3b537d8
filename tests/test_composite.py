import numpy as np
import pytest

from dustlab.boxdim import find_full_dimension_point
from dustlab.cantor import generate_cantor
from dustlab.composite import (AnnulusChain, CompositePlan, PlacementRecord,
                               assemble_composite, build_annuli, check_plan,
                               choose_b_sequence, place_cantor_in_annulus,
                               placement_diameter, run_pipeline)
from dustlab.errors import (AssemblyError, ConstructionError, ParameterError,
                            PlacementError)
from dustlab.geometry import BoxGrid, Square, rasterize


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
        diam = placement_diameter(chain, 2)
        rec = place_cantor_in_annulus(E, chain, 2, 1.8, trials=60, seed=3,
                                      schedule_extent=diam / 2)
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
        clone = PlacementRecord(4, rec.alpha, rec.depth, rec.diameter, rec.iso,
                                rec.estimate)
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

        rec = PlacementRecord(2, 0.47, 2, 0.2, Isometry(0.0, False, (0.0, 0.0)), None)
        plan = CompositePlan((0.5, 0.5), (0.4, 0.2, 0.1, 0.05, 0.025),
                             (1.0, 1.1, 1.2, 1.3), (1.75, 1.8, 1.85, 1.9),
                             (rec,))
        issues = check_plan(plan)
        assert any("diameter" in s for s in issues)


class TestPipeline:
    def test_single_point_short_circuit(self):
        bits = np.zeros((256, 256), dtype=bool)
        bits[100, 37] = True
        E = BoxGrid(Square.unit(), 8, bits)
        result = run_pipeline(E, seed=1)
        assert result.eprime.occupied_count == 1
        assert result.report.dim_eprime.slope == pytest.approx(0.0, abs=1e-9)
        assert result.point == E.cell_center(37, 100)

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
        from dustlab.composite import _placement_grid
        from dustlab.geometry import grid_intersection

        E = dust_grid(0.4, 4, 9)
        result = run_pipeline(E, annuli=4, trials=60, seed=7)
        sched = ScaleSchedule.span(2, 9)
        union_counts = box_counts(result.eprime, sched)
        for placement in result.plan.placements:
            piece = grid_intersection(_placement_grid(placement, E.bounds, E.level), E)
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
