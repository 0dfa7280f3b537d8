import math

import numpy as np
import pytest

from dustlab.boxdim import ScaleSchedule, box_counts, estimate_dimension
from dustlab.cantor import alpha_for_dimension, cantor_dimension, generate_cantor
from dustlab.errors import ParameterError
from dustlab.geometry import BoxGrid, Isometry, Square, rasterize
from dustlab.intersect import (apply_isometry, default_survey_window,
                               intersection_dimension, mattila_survey,
                               sample_isometry)

IDENTITY = Isometry(0.0, False, (0.0, 0.0))


def dust_grid(alpha, depth, level):
    approx = generate_cantor(alpha, depth)
    return rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


def full_grid(level):
    n = 1 << level
    return BoxGrid(Square.unit(), level, np.ones((n, n), dtype=bool))


def unit_square():
    """The depth-0 approximant: the unit square itself, for any ratio."""
    return generate_cantor(0.25, 0)


def survey_hits(a, b, isos, tolerance=0.15):
    """How many of ``isos`` ``mattila_survey`` would score as hits on A and B."""
    s = estimate_dimension(box_counts(a, ScaleSchedule.default_for(a)), side=a.bounds.side).slope
    floor = s + cantor_dimension(b.alpha) - 2.0 - tolerance
    hits = 0
    for iso in isos:
        est = intersection_dimension(a, b, iso)
        hits += (not est.empty) and est.slope >= floor
    return hits


@pytest.fixture(scope="module")
def survey_pair():
    a = dust_grid(float(alpha_for_dimension(1.2)), 6, 9)
    b = generate_cantor(alpha_for_dimension(1.7), 5)
    return a, b


class TestSampleIsometry:
    def test_reproducible(self):
        w = Square.unit()
        a = sample_isometry(np.random.default_rng(42), w)
        b = sample_isometry(np.random.default_rng(42), w)
        assert a == b

    def test_reflection_coin_is_fair(self):
        rng = np.random.default_rng(7)
        w = Square.unit()
        flips = sum(sample_isometry(rng, w).reflect for _ in range(10_000))
        assert 0.47 <= flips / 10_000 <= 0.53

    def test_translation_mean_near_window_center(self):
        rng = np.random.default_rng(8)
        w = Square((2.0, -1.0), 4.0)
        zs = np.array([sample_isometry(rng, w).z for _ in range(10_000)])
        sigma = 4.0 / math.sqrt(12.0) / math.sqrt(10_000)
        assert abs(zs[:, 0].mean() - 4.0) <= 3 * sigma
        assert abs(zs[:, 1].mean() - 1.0) <= 3 * sigma

    def test_angle_range(self):
        rng = np.random.default_rng(9)
        thetas = [sample_isometry(rng, Square.unit()).theta for _ in range(1000)]
        assert all(0.0 <= t < 2 * math.pi for t in thetas)


class TestApplyIsometry:
    def test_identity_preserves_occupancy(self):
        grid = dust_grid(0.25, 4, 8)
        image = apply_isometry(generate_cantor(0.25, 4), IDENTITY, grid.bounds, grid.level)
        assert np.array_equal(image.bits, grid.bits)

    def test_quarter_turn_of_symmetric_set(self):
        grid = dust_grid(0.25, 4, 8)
        iso = Isometry(math.pi / 2, False, (1.0, 0.0))  # maps the unit square onto itself
        image = apply_isometry(generate_cantor(0.25, 4), iso, grid.bounds, grid.level)
        assert np.array_equal(image.bits, grid.bits)

    def test_diagonal_rotation_measure_against_fine_oracle(self):
        iso = Isometry(math.pi / 4, False, (1.0, 0.2))
        bounds = Square((-0.5, -0.5), 3.0)
        coarse = apply_isometry(unit_square(), iso, bounds, 6)
        fine = apply_isometry(unit_square(), iso, bounds, 10)
        m_coarse = coarse.occupied_count * coarse.cell_size ** 2
        m_fine = fine.occupied_count * fine.cell_size ** 2
        # conservative smear adds about one cell along the perimeter
        expected = m_fine + 4.0 * coarse.cell_size
        assert abs(m_coarse - expected) <= 0.1 * m_coarse

    def test_approximant_source(self):
        approx = generate_cantor(0.25, 3)
        image = apply_isometry(approx, IDENTITY, Square.unit(), 6)
        direct = rasterize(approx.leaf_corners(), Square.unit(), 6, side=approx.side)
        assert np.array_equal(image.bits, direct.bits)


class TestIntersectionDimension:
    def test_full_on_full(self):
        est = intersection_dimension(full_grid(8), unit_square(), IDENTITY)
        assert est.slope == pytest.approx(2.0, abs=0.05)

    def test_disjoint_flags_empty(self):
        a = dust_grid(0.25, 3, 7)
        est = intersection_dimension(a, generate_cantor(0.25, 3), Isometry(0.0, False, (5.0, 5.0)))
        assert est.empty
        assert est.slope == 0.0

    def test_self_intersection_matches_own_slope(self):
        a = dust_grid(0.25, 4, 8)
        est = intersection_dimension(a, generate_cantor(0.25, 4), IDENTITY)
        own = estimate_dimension(box_counts(a, ScaleSchedule.default_for(a)))
        assert est.slope == pytest.approx(own.slope, abs=1e-12)


class TestMattilaSurvey:
    def test_hypothesis_gate_s_plus_t(self, survey_pair):
        a, _ = survey_pair
        b_small = generate_cantor(alpha_for_dimension(1.6), 4)
        with pytest.raises(ParameterError, match="s \\+ t > 2"):
            mattila_survey(a, b_small, trials=5, seed=1, s=0.3)

    def test_hypothesis_gate_t(self, survey_pair):
        a, _ = survey_pair
        b_thin = generate_cantor(alpha_for_dimension(1.2), 4)
        with pytest.raises(ParameterError, match="t > 3/2"):
            mattila_survey(a, b_thin, trials=5, seed=1)

    def test_full_square_dimensions_rejected(self):
        # A is the full square, so s = 2 breaks the gate 0 < s < 2
        with pytest.raises(ParameterError, match="0 < s < 2"):
            mattila_survey(full_grid(7), unit_square(), trials=5, seed=1, s=2.0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, survey_pair, tolerance):
        a, b = survey_pair
        with pytest.raises(ParameterError, match="tolerance"):
            mattila_survey(a, b, trials=5, tolerance=tolerance, seed=1)

    def test_survey_hits_and_upper_bound(self, survey_pair):
        a, b = survey_pair
        survey = mattila_survey(a, b, trials=120, tolerance=0.15, seed=11)
        assert survey.t == pytest.approx(1.7, abs=1e-12)
        assert survey.threshold == pytest.approx(survey.s + survey.t - 2.0)
        assert survey.hit_fraction > 0
        cap = min(survey.s, survey.t) + 0.1
        assert all(r.slope <= cap for r in survey.rows if not r.empty)

    def test_far_window_scores_nothing(self, survey_pair):
        a, b = survey_pair
        far = Square((50.0, 50.0), 1.0)
        isos = [sample_isometry(np.random.default_rng([3, i]), far) for i in range(30)]
        assert survey_hits(a, b, isos) == 0

    def test_seed_determinism_byte_identical(self, survey_pair):
        a, b = survey_pair
        s1 = mattila_survey(a, b, trials=40, seed=17)
        s2 = mattila_survey(a, b, trials=40, seed=17)
        assert "\n".join(s1.csv_lines()) == "\n".join(s2.csv_lines())

    def test_jobs_do_not_change_results(self, survey_pair):
        a, b = survey_pair
        serial = mattila_survey(a, b, trials=24, seed=9, jobs=1)
        threaded = mattila_survey(a, b, trials=24, seed=9, jobs=4)
        assert serial.csv_lines() == threaded.csv_lines()

    def test_reflection_invariance(self, survey_pair):
        a, b = survey_pair
        # the survey's draws for seed 23, scored once with the reflection
        # coin forced on and once forced off
        window = default_survey_window(a)
        isos = [sample_isometry(np.random.default_rng([23, i]), window) for i in range(500)]
        on = survey_hits(a, b, [Isometry(iso.theta, True, iso.z) for iso in isos])
        off = survey_hits(a, b, [Isometry(iso.theta, False, iso.z) for iso in isos])
        assert (on, off) == (154, 152)
        assert abs(on - off) / 500 <= 0.05

    def test_default_window_reaches_all_overlaps(self, survey_pair):
        a, _ = survey_pair
        w = default_survey_window(a)
        assert w.side == pytest.approx(1.0 + 2.0 * math.sqrt(2.0))

    def test_csv_layout(self, survey_pair):
        a, b = survey_pair
        survey = mattila_survey(a, b, trials=5, seed=2)
        lines = survey.csv_lines()
        assert lines[0] == "trial,theta,reflect,zx,zy,slope,hit"
        assert len(lines) == 7
        assert lines[-1].startswith("s,")
