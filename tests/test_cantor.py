import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from dustlab import cantor
from dustlab.boxdim import ScaleSchedule, box_counts
from dustlab.cantor import (address_corners, alpha_for_dimension,
                            cantor_dimension, generate_cantor, interval_starts,
                            placed_frame, scale_and_place, scaled_quads)
from dustlab.errors import BudgetError, ParameterError
from dustlab.geometry import Isometry, Square, rasterize

mp.mp.dps = 50


def precise_dimension(alpha: float) -> float:
    return float(-mp.log(4) / mp.log(mp.mpf(repr(alpha))))


def reference_codes(depth):
    """Codes as generate_cantor built them before: shifts and masks of int64 row ids."""
    ids = np.arange(4 ** depth, dtype=np.int64)
    codes = np.empty((4 ** depth, depth), dtype=np.uint8)
    for k in range(depth):
        codes[:, k] = (ids >> (2 * (depth - 1 - k))) & 3
    return codes


class TestGenerate:
    def test_depth_zero_single_empty_word(self):
        approx = generate_cantor(0.25, 0)
        assert approx.count == 1
        assert approx.codes.shape == (1, 0)
        assert approx.leaf_corners().tolist() == [[0.0, 0.0]]

    def test_depth_three_count(self):
        assert generate_cantor(0.25, 3).count == 64

    @pytest.mark.parametrize("n", range(0, 9))
    def test_count_law(self, n):
        assert generate_cantor(0.25, n).count == 4 ** n

    def test_lexicographic_order(self):
        approx = generate_cantor(0.25, 2)
        words = [tuple(row) for row in approx.codes]
        assert words == sorted(words)
        assert words[0] == (0, 0)
        assert words[-1] == (3, 3)

    @pytest.mark.parametrize("depth", range(0, 11))
    def test_codes_match_reference(self, depth):
        codes = generate_cantor(0.3, depth).codes
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, reference_codes(depth))

    def test_codes_are_built_once(self):
        # the only large allocation is the code array itself, adopted without a copy
        tracemalloc.start()
        try:
            approx = generate_cantor(0.25, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not approx.codes.flags.writeable
        assert peak <= 1.1 * approx.codes.nbytes

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(cantor, "ADDRESS_BUDGET", 100)
        with pytest.raises(BudgetError):
            generate_cantor(0.25, 4)
        assert generate_cantor(0.25, 3).count == 64

    def test_negative_depth(self):
        with pytest.raises(ParameterError):
            generate_cantor(0.25, -1)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.4999])
    @pytest.mark.parametrize("depth", range(0, 7))
    def test_interval_starts_are_the_x_corners(self, alpha, depth):
        # ascending, and float for float the distinct x corners of the leaves
        starts = interval_starts(alpha, depth)
        assert len(starts) == 2 ** depth
        assert np.all(np.diff(starts) > 0)
        assert np.array_equal(np.unique(generate_cantor(alpha, depth).leaf_corners()[:, 0]), starts)

    def test_interval_starts_share_the_budget(self, monkeypatch):
        monkeypatch.setattr(cantor, "ADDRESS_BUDGET", 100)
        with pytest.raises(BudgetError, match="over the budget of 100"):
            interval_starts(0.25, 4)
        assert len(interval_starts(0.25, 3)) == 8

    def test_sibling_gap_brute_force(self):
        # alpha=0.3, depth 2: 16 squares of side 0.09, min gap 0.3*(1-0.6)
        approx = generate_cantor(0.3, 2)
        assert approx.count == 16
        assert approx.side == pytest.approx(0.09, abs=1e-15)
        squares = [Square(c, approx.side) for c in approx.leaf_corners()]
        gaps = []
        for i in range(len(squares)):
            for j in range(i + 1, len(squares)):
                a, b = squares[i], squares[j]
                dx = max(a.corner[0] - b.max_corner[0], b.corner[0] - a.max_corner[0], 0.0)
                dy = max(a.corner[1] - b.max_corner[1], b.corner[1] - a.max_corner[1], 0.0)
                gaps.append(math.hypot(dx, dy))
        assert min(gaps) == pytest.approx(0.3 * (1 - 0.6), abs=1e-12)
        assert min(gaps) > 0.0

    def test_leaf_corners_match_addresses(self):
        approx = generate_cantor(0.35, 3)
        corners = approx.leaf_corners()
        assert np.array_equal(corners, address_corners(approx.codes, 0.35))
        steps = [0.35 ** k - 0.35 ** (k + 1) for k in range(3)]
        for k in (0, 17, 63):
            word = approx.codes[k]
            x = math.fsum(d for d, q in zip(steps, word) if q & 1)
            y = math.fsum(d for d, q in zip(steps, word) if q & 2)
            assert corners[k][0] == pytest.approx(x, abs=1e-13)
            assert corners[k][1] == pytest.approx(y, abs=1e-13)

    def test_monotone_nesting_of_rasters(self):
        coarse = generate_cantor(0.3, 2)
        fine = generate_cantor(0.3, 3)
        g2 = rasterize(coarse.leaf_corners(), Square.unit(), 6, side=coarse.side)
        g3 = rasterize(fine.leaf_corners(), Square.unit(), 6, side=fine.side)
        assert np.all(g2.bits[g3.bits])

    def test_positivity_proxy_aligned_counts(self):
        # aligned dyadic grid at level 2n keeps between 4^n and 4*4^n cells
        for n in (2, 3, 4):
            approx = generate_cantor(0.25, n)
            grid = rasterize(approx.leaf_corners(), Square.unit(), 2 * n, side=approx.side)
            assert 4 ** n <= grid.occupied_count <= 4 ** (n + 1)


class TestDimensionFormula:
    def test_quarter_gives_exactly_one(self):
        assert cantor_dimension(0.25) == 1.0

    def test_high_alpha_approaches_two(self):
        assert cantor_dimension(0.49) == pytest.approx(precise_dimension(0.49), rel=1e-14)
        assert 1.9 < cantor_dimension(0.49) < 2.0

    def test_low_alpha(self):
        assert cantor_dimension(0.1) == pytest.approx(precise_dimension(0.1), rel=1e-14)
        assert cantor_dimension(0.1) == pytest.approx(math.log(4) / math.log(10), rel=1e-14)

    def test_strictly_increasing(self):
        alphas = np.linspace(0.02, 0.48, 40)
        dims = [cantor_dimension(a) for a in alphas]
        assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_inverse_exact_cases(self):
        assert float(alpha_for_dimension(1.0)) == 0.25
        assert float(alpha_for_dimension(1.5)) == pytest.approx(0.39685026299204987, rel=1e-15)

    def test_round_trip_dense(self):
        for d in np.linspace(0.05, 1.95, 100):
            back = cantor_dimension(alpha_for_dimension(float(d)))
            assert abs(back - d) / d <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 2.0, -1.0, 2.5])
    def test_inverse_domain_errors(self, bad):
        with pytest.raises(ParameterError):
            alpha_for_dimension(bad)


class TestScaleAndPlace:
    def test_identity_keeps_unit_square(self):
        approx = generate_cantor(0.25, 0)
        quads = scale_and_place(approx, math.sqrt(2.0), Isometry(0.0, False, (0.0, 0.0)))
        assert quads.shape == (1, 4, 2)
        assert np.allclose(quads[0], [[0, 0], [1, 0], [1, 1], [0, 1]])

    def test_translation_preserves_frame_diagonal(self):
        approx = generate_cantor(0.3, 2)
        iso = Isometry(0.0, False, (0.4, -0.1))
        quads = scale_and_place(approx, 0.5, iso)
        xy_min = quads.reshape(-1, 2).min(axis=0)
        xy_max = quads.reshape(-1, 2).max(axis=0)
        diag = math.hypot(*(xy_max - xy_min))
        assert diag == pytest.approx(0.5, abs=1e-9)

    def test_rotated_copy_stays_in_diameter_disk(self):
        approx = generate_cantor(0.25, 2)
        diameter = 0.1
        iso = Isometry(math.pi / 4, False, (0.3, 0.7))
        quads = scale_and_place(approx, diameter, iso)
        assert quads.shape == (16, 4, 2)
        scale = diameter / math.sqrt(2.0)
        center = iso.apply(np.array([[scale / 2, scale / 2]]))[0]
        r = np.hypot(*(quads.reshape(-1, 2) - center).T)
        assert np.all(r <= diameter / 2 + 1e-9)

    def test_gaps_scale_linearly(self):
        approx = generate_cantor(0.3, 1)
        quads = scale_and_place(approx, 0.3 * math.sqrt(2.0), Isometry(0.0, False, (0.0, 0.0)))
        # siblings keep the relative gap (1-2*alpha) of the scaled frame
        gap = quads[1, 0, 0] - quads[0, 1, 0]
        assert gap == pytest.approx(0.3 * (1 - 0.6), abs=1e-12)

    def test_rejects_bad_diameter(self):
        with pytest.raises(ParameterError):
            scale_and_place(generate_cantor(0.25, 1), 0.0, Isometry(0.0, False, (0.0, 0.0)))

    def test_placing_moves_the_scaled_quads(self):
        approx = generate_cantor(0.35, 3)
        iso = Isometry(2.2, True, (0.3, -0.1))
        quads = scaled_quads(approx, 0.8)
        assert np.array_equal(scale_and_place(approx, 0.8, iso), iso.apply(quads))
        with pytest.raises(ParameterError):
            scaled_quads(approx, -1.0)

    def test_placed_frame_bounds_leaves(self):
        approx = generate_cantor(0.4, 3)
        iso = Isometry(1.1, True, (0.2, 0.5))
        quads = scale_and_place(approx, 0.25, iso)
        frame = placed_frame(0.25, iso)
        u = frame[1] - frame[0]
        v = frame[3] - frame[0]
        rel = quads.reshape(-1, 2) - frame[0]
        su = rel @ u / (u @ u)
        sv = rel @ v / (v @ v)
        assert np.all((su >= -1e-9) & (su <= 1 + 1e-9))
        assert np.all((sv >= -1e-9) & (sv <= 1 + 1e-9))


class TestCountsOnGrids:
    def test_exact_aligned_counts_depth_six(self):
        approx = generate_cantor(0.25, 6)
        grid = rasterize(approx.leaf_corners(), Square.unit(), 12, side=approx.side)
        counts = box_counts(grid, ScaleSchedule((2, 4, 6, 8, 10, 12)))
        assert counts == {m: 4 ** (m // 2) for m in (2, 4, 6, 8, 10, 12)}


class TestCadConsumption:
    def test_round_trip_through_file(self, tmp_path):
        from dustlab.formats import read_cad, write_cad

        approx = generate_cantor(0.3, 3)
        path = tmp_path / "a.cad"
        write_cad(approx.alpha, approx.depth, [tuple(r) for r in approx.codes], path)
        alpha, depth, codes = read_cad(path)
        back = generate_cantor(alpha, depth)
        assert back.depth == 3
        assert np.array_equal(codes, approx.codes)
        assert np.array_equal(back.codes, approx.codes)


@pytest.mark.parametrize("shape", [(15, 2), (5,), (16, 3), (17, 2)])
def test_approximant_rejects_wrong_code_count(shape):
    from dustlab.cantor import CantorApproximant

    with pytest.raises(ParameterError):
        CantorApproximant(0.3, 2, np.zeros(shape, dtype=np.uint8))
