import numpy as np
import pytest

from dustlab.boxdim import (ScaleSchedule, box_counts, clip_to_ball, estimate_dimension,
                            find_full_dimension_point)
from dustlab.cantor import generate_cantor
from dustlab.errors import ParameterError
from dustlab.geometry import (BoxGrid, Isometry, Square, grid_intersection,
                              rasterize)
from dustlab.intersect import apply_isometry
from test_counting import ball_window_counts


def dust_grid(alpha, depth, level):
    approx = generate_cantor(alpha, depth)
    return rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


def full_grid(level):
    n = 1 << level
    return BoxGrid(Square.unit(), level, np.ones((n, n), dtype=bool))


def square_grid(corner, side, level):
    """Raster over the unit square of the one square at ``corner`` of side ``side``."""
    return rasterize(np.array([corner], dtype=float), Square.unit(), level, side=side)


def segment_grid(level, row=None):
    """One full row of cells: a horizontal segment at the raster scale."""
    n = 1 << level
    bits = np.zeros((n, n), dtype=bool)
    bits[n // 2 if row is None else row] = True
    return BoxGrid(Square.unit(), level, bits)


class TestScaleSchedule:
    def test_needs_three_levels(self):
        with pytest.raises(ParameterError):
            ScaleSchedule((1, 2))

    def test_strictly_increasing(self):
        with pytest.raises(ParameterError):
            ScaleSchedule((1, 3, 3))

    def test_span(self):
        assert ScaleSchedule.span(2, 8, 2).levels == (2, 4, 6, 8)


class TestBoxCounts:
    def test_full_square_fills_every_cell(self):
        counts = box_counts(square_grid((0.0, 0.0), 1.0, 3), ScaleSchedule((1, 2, 3)))
        assert counts == {1: 4, 2: 16, 3: 64}

    def test_single_point_counts_one(self):
        tiny = square_grid((0.34375, 0.71875), 1e-12, 8)
        counts = box_counts(tiny, ScaleSchedule((2, 4, 6, 8)))
        assert set(counts.values()) == {1}

    def test_dust_aligned_powers(self):
        counts = box_counts(dust_grid(0.25, 6, 12), ScaleSchedule((2, 4, 6, 8, 10, 12)))
        assert counts == {m: 4 ** (m // 2) for m in (2, 4, 6, 8, 10, 12)}

    def test_monotone_in_level(self):
        grid = dust_grid(0.35, 4, 9)
        counts = box_counts(grid, ScaleSchedule.span(2, 9))
        levels = sorted(counts)
        for a, b in zip(levels, levels[1:]):
            assert counts[a] <= counts[b] <= 4 * counts[a]

    def test_grid_schedule_above_resolution_rejected(self):
        grid = full_grid(3)
        with pytest.raises(ParameterError):
            box_counts(grid, ScaleSchedule((2, 3, 4)))


class TestEstimateDimension:
    def test_full_square_slope_two_exact(self):
        est = estimate_dimension({1: 4, 2: 16, 3: 64})
        assert est.slope == pytest.approx(2.0, abs=1e-12)
        assert est.r2 == 1.0

    def test_flat_counts_slope_zero(self):
        est = estimate_dimension({1: 1, 2: 1, 3: 1})
        assert est.slope == 0.0
        assert est.r2 == 1.0

    def test_hand_checked_slope_one(self):
        # counts quadruple per 2 levels: log4 N rises by one per step of 2
        est = estimate_dimension({2: 4, 4: 16, 6: 64})
        assert est.slope == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_flags_empty(self):
        est = estimate_dimension({1: 0, 2: 0, 3: 0})
        assert est.empty
        assert est.slope == 0.0

    def test_default_window_drops_ends(self):
        counts = {m: 4 ** m for m in range(1, 8)}
        est = estimate_dimension(counts)
        assert est.window == (2, 5)

    def test_explicit_window(self):
        counts = {m: 2 ** m for m in range(1, 8)}
        est = estimate_dimension(counts, window=(3, 6))
        assert est.window == (3, 6)
        assert est.slope == pytest.approx(1.0, abs=1e-12)

    def test_window_must_keep_three(self):
        with pytest.raises(ParameterError):
            estimate_dimension({1: 2, 2: 4, 3: 8, 4: 16}, window=(3, 4))

    def test_known_dimension_recovery(self):
        sched = ScaleSchedule.span(3, 9)
        full = estimate_dimension(box_counts(full_grid(9), sched))
        assert full.slope == pytest.approx(2.0, abs=0.02)
        point = estimate_dimension(box_counts(square_grid((0.3, 0.7), 1e-12, 9), sched))
        assert point.slope == pytest.approx(0.0, abs=0.02)
        seg = estimate_dimension(box_counts(segment_grid(9), sched))
        assert seg.slope == pytest.approx(1.0, abs=0.02)


def local_profile(grid, p, radii):
    """Dimension estimates of the set in balls around p, each fitted as the point search fits it:
    ``ball_window_counts`` over the levels from where cells resolve the radius to the raster's."""
    schedules = [ScaleSchedule.resolving(grid, r / 2.0, floor=0) for r in radii]
    return [estimate_dimension(ball_window_counts(grid, p, r, schedule), side=grid.bounds.side)
            for r, schedule in zip(radii, schedules)]


class TestLocalProfile:
    def test_full_grid_slopes_two(self):
        # clipped windows keep a boundary ring of partial cells, so the
        # slope sits slightly under 2 at finite resolution
        grid = full_grid(10)
        ests = local_profile(grid, (0.5, 0.5), (0.25, 0.125, 0.0625))
        for est in ests:
            assert est.slope == pytest.approx(2.0, abs=0.15)

    def test_dust_corner_self_similarity(self):
        grid = dust_grid(0.25, 5, 10)
        ests = local_profile(grid, (0.0, 0.0), (0.25, 0.0625, 0.015625))
        for est in ests:
            assert est.slope == pytest.approx(1.0, abs=0.2)

    def test_point_off_segment_is_empty(self):
        grid = segment_grid(8, row=0)
        ests = local_profile(grid, (0.5, 0.9), (0.01, 0.005, 0.0025))
        assert all(e.empty for e in ests)

    def test_clip_keeps_ball_cells_only(self):
        grid = full_grid(4)
        clipped = clip_to_ball(grid, (0.5, 0.5), 0.124)
        assert 4 <= clipped.occupied_count <= 16
        centers = np.array([clipped.cell_center(ix, iy) for iy, ix in zip(*np.nonzero(clipped.bits))])
        cheb = np.max(np.abs(centers - 0.5), axis=1)
        assert np.all(cheb <= 0.124 + grid.cell_size)


class TestFindFullDimensionPoint:
    def test_single_cell_returns_its_center(self):
        bits = np.zeros((16, 16), dtype=bool)
        bits[5, 9] = True
        grid = BoxGrid(Square.unit(), 4, bits)
        assert find_full_dimension_point(grid) == grid.cell_center(9, 5)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            find_full_dimension_point(BoxGrid.empty(Square.unit(), 4))

    def test_dust_point_keeps_local_dimension(self):
        grid = dust_grid(0.25, 6, 11)
        p = find_full_dimension_point(grid)
        ests = local_profile(grid, p, (1 / 8, 1 / 16, 1 / 32))  # the finder's ladder
        assert min(e.slope for e in ests) >= 0.9

    def test_prefers_the_richer_component(self):
        # bottom row segment (dimension 1) plus a dust patch of dimension ~1.74
        level = 9
        n = 1 << level
        approx = generate_cantor(0.45, 4)
        patch = rasterize(approx.leaf_corners() * 0.5 + 0.5, Square.unit(), level,
                          side=approx.side * 0.5)
        bits = patch.bits.copy()
        bits[0] = True
        grid = BoxGrid(Square.unit(), level, bits)
        p = find_full_dimension_point(grid)
        assert p[0] >= 0.45 and p[1] >= 0.45

    def test_clearance_filter(self):
        grid = dust_grid(0.4, 4, 9)
        p = find_full_dimension_point(grid, min_clearance=0.25)
        assert min(p[0], 1 - p[0], p[1], 1 - p[1]) >= 0.25

    def test_deterministic(self):
        grid = dust_grid(0.4, 4, 9)
        assert find_full_dimension_point(grid) == find_full_dimension_point(grid)


class TestStabilityProperties:
    def test_isometry_stability(self):
        grid = dust_grid(0.25, 5, 10)
        sched = ScaleSchedule.span(2, 10)
        base = estimate_dimension(box_counts(grid, sched))
        moved = apply_isometry(generate_cantor(0.25, 5), Isometry(0.3, False, (0.31, 0.12)),
                               Square((0.0, 0.0), 2.0), 11)
        sched2 = ScaleSchedule.span(3, 11)
        est = estimate_dimension(box_counts(moved, sched2), side=2.0)
        assert abs(est.slope - base.slope) <= 0.1

    def test_subset_monotonicity(self):
        grid = dust_grid(0.35, 5, 10)
        half = square_grid((0.0, 0.0), 0.53, 10)
        inter = grid_intersection(grid, half)
        sched = ScaleSchedule.span(2, 10)
        s_inter = estimate_dimension(box_counts(inter, sched)).slope
        s_a = estimate_dimension(box_counts(grid, sched)).slope
        assert s_inter <= min(s_a, 2.0) + 0.1
