import math

import numpy as np
import pytest

from dustlab.boxdim import ScaleSchedule, box_counts, estimate_dimension
from dustlab.cantor import (alpha_for_dimension, cantor_dimension, generate_cantor,
                            scale_and_place, scaled_quads)
from dustlab.errors import ParameterError
from dustlab.geometry import (SQRT2, BoxGrid, Isometry, Square, grid_intersection, rasterize,
                              rasterize_quads, squares_to_quads)
from dustlab import intersect
from dustlab.intersect import (apply_isometry, default_survey_window, intersection_dimension,
                               mattila_survey, trial_motions)
from test_counting import per_trial_counts, scalar_estimate_dimension
from test_streams import sample_isometry

IDENTITY = Isometry(0.0, False, (0.0, 0.0))


def dust_grid(alpha, depth, level):
    approx = generate_cantor(alpha, depth)
    return rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


def full_grid(level):
    n = 1 << level
    return BoxGrid(Square.unit(), level, np.ones((n, n), dtype=bool))


def line_grid(level):
    """One row of cells across the unit square: its box-count slope is exactly 1."""
    n = 1 << level
    bits = np.zeros((n, n), dtype=bool)
    bits[n // 2] = True
    return BoxGrid(Square.unit(), level, bits)


def unit_square():
    """The depth-0 approximant: the unit square itself, for any ratio."""
    return generate_cantor(0.25, 0)


def survey_hits(a, b, isos, tolerance=0.15):
    """How many of ``isos`` ``mattila_survey`` would score as hits on A and B."""
    s = estimate_dimension(box_counts(a, ScaleSchedule.default_for(a.level)), side=a.bounds.side).slope
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


class TestTrialMotions:
    # trials 0..n-1 of one seed, each drawn from its own stream
    def test_reproducible(self):
        w = Square.unit()
        for first, again in zip(trial_motions(w, 42, 5), trial_motions(w, 42, 5)):
            assert np.array_equal(first, again)

    def test_reflection_coin_is_fair(self):
        _, reflect, _ = trial_motions(Square.unit(), 7, 10_000)
        assert 0.47 <= reflect.sum() / 10_000 <= 0.53

    def test_translation_mean_near_window_center(self):
        _, _, zs = trial_motions(Square((2.0, -1.0), 4.0), 8, 10_000)
        sigma = 4.0 / math.sqrt(12.0) / math.sqrt(10_000)
        assert abs(zs[:, 0].mean() - 4.0) <= 3 * sigma
        assert abs(zs[:, 1].mean() - 1.0) <= 3 * sigma

    def test_angle_range(self):
        theta, _, _ = trial_motions(Square.unit(), 9, 1000)
        assert ((0.0 <= theta) & (theta < 2 * math.pi)).all()


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
        own = estimate_dimension(box_counts(a, ScaleSchedule.default_for(a.level)))
        assert est.slope == pytest.approx(own.slope, abs=1e-12)


def reference_intersection_dimension(a, b, iso):
    """The full-grid composition intersection_dimension replaced, as it stood."""
    moved = rasterize_quads(iso.apply(squares_to_quads(b.leaf_corners(), b.side)),
                            a.bounds, a.level)
    inter = grid_intersection(a, moved)
    return estimate_dimension(box_counts(inter, ScaleSchedule.default_for(a.level)), side=a.bounds.side)


def test_intersection_dimension_matches_full_grid_composition(survey_pair):
    # the motions of the acceptance survey (seed 11), most of which miss A
    a, b = survey_pair
    window = default_survey_window(a)
    empty = 0
    for i in range(200):
        iso = sample_isometry(np.random.default_rng([11, i]), window)
        est = intersection_dimension(a, b, iso)
        ref = reference_intersection_dimension(a, b, iso)
        assert est.counts == ref.counts
        assert est.slope == ref.slope
        assert est.empty == ref.empty
        empty += est.empty
    assert 0 < empty < 200


def test_placement_at_diameter_sqrt2_keeps_unit_scale(survey_pair):
    # apply_isometry and intersection_dimension place B at diameter sqrt(2)
    _, b = survey_pair
    iso = Isometry(0.7, True, (0.2, -0.1))
    assert np.array_equal(scale_and_place(b, SQRT2, iso),
                          iso.apply(squares_to_quads(b.leaf_corners(), b.side)))


class TestMattilaSurvey:
    def test_hypothesis_gate_s_plus_t(self):
        # A is one row of cells, so s = 1 exactly, and B's t = 1: s + t = 2 breaks the gate
        with pytest.raises(ParameterError, match="s \\+ t > 2"):
            mattila_survey(line_grid(7), generate_cantor(0.25, 4), trials=5, seed=1)

    def test_hypothesis_gate_t(self, survey_pair):
        a, _ = survey_pair
        b_thin = generate_cantor(alpha_for_dimension(1.2), 4)
        with pytest.raises(ParameterError, match="t > 3/2"):
            mattila_survey(a, b_thin, trials=5, seed=1)

    def test_full_square_dimensions_rejected(self):
        # A is the full square, which measures s = 2 exactly: that breaks the gate 0 < s < 2
        with pytest.raises(ParameterError, match="0 < s < 2"):
            mattila_survey(full_grid(7), unit_square(), trials=5, seed=1)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, survey_pair, tolerance):
        a, b = survey_pair
        with pytest.raises(ParameterError, match="tolerance"):
            mattila_survey(a, b, trials=5, tolerance=tolerance, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_bad_seed_rejected_before_any_work(self, survey_pair, monkeypatch, seed):
        a, b = survey_pair

        def unreachable(*args, **kwargs):
            raise AssertionError("the survey started")

        monkeypatch.setattr(intersect, "box_counts", unreachable)
        monkeypatch.setattr(intersect, "trial_motions", unreachable)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            mattila_survey(a, b, trials=5, seed=seed)

    def test_survey_hits_and_upper_bound(self, survey_pair):
        a, b = survey_pair
        survey = mattila_survey(a, b, trials=120, tolerance=0.15, seed=11)
        assert survey.t == pytest.approx(1.7, abs=1e-12)
        assert survey.threshold == pytest.approx(survey.s + survey.t - 2.0)
        assert survey.hit_fraction > 0
        cap = min(survey.s, survey.t) + 0.1
        assert (survey.slope[~survey.empty] <= cap).all()

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


#: The names of the survey's per-trial arrays.
TRIAL_FIELDS = ("theta", "reflect", "z", "slope", "empty", "hit")


def trial_columns(survey):
    """The per-trial arrays of a survey as lists of Python scalars, by field name."""
    return {name: getattr(survey, name).tolist() for name in TRIAL_FIELDS}


# The survey as it stood before its trials were scored as arrays: each trial's frame
# is moved and tested alone, scored by the dense trial scorer and fitted by the
# scalar least squares (test_counting's oracles).

def reference_survey_rows(a, b, trials, seed, tolerance=0.15):
    """The per-trial fields of the survey, as ``trial_columns`` lists them."""
    schedule = ScaleSchedule.default_for(a.level)
    s = scalar_estimate_dimension(box_counts(a, schedule), side=a.bounds.side).slope
    floor = s + cantor_dimension(b.alpha) - 2.0 - tolerance
    quads = scaled_quads(b, SQRT2)
    window = default_survey_window(a)
    rows = {name: [] for name in TRIAL_FIELDS}
    for i in range(trials):
        iso = sample_isometry(np.random.default_rng([seed, i]), window)
        est = scalar_estimate_dimension(per_trial_counts(a, quads, iso, schedule), side=a.bounds.side)
        hit = (not est.empty) and est.slope >= floor
        for name, value in zip(rows, (iso.theta, iso.reflect, list(iso.z), est.slope, est.empty, hit)):
            rows[name].append(value)
    return rows


@pytest.mark.parametrize("seed", [4, 23])
def test_survey_rows_match_per_trial_reference(seed):
    # the benchmark's mattila sets (A: ratio 0.315, depth 6, level 9; B: dimension 1.7,
    # depth 5) at seeds other than its seed 11
    a = dust_grid(0.315, 6, 9)
    b = generate_cantor(alpha_for_dimension(1.7), 5)
    survey = mattila_survey(a, b, trials=80, seed=seed)
    assert trial_columns(survey) == reference_survey_rows(a, b, 80, seed)
    assert survey.hits == sum(survey.hit.tolist())
    assert 0 < survey.hits < 80
