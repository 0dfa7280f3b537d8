import math

import numpy as np
import pytest

from dustlab.errors import FormatError, ParameterError
from dustlab.formats import BGR_BLOCK_ROWS, dump_bgr, dump_cad, parse_bgr, parse_cad, write_bgr
from dustlab.cantor import address_corners
from dustlab.geometry import (Alpha, BoxGrid, Isometry, Square, grid_intersection,
                              quads_disjoint, rasterize, rasterize_quads, squares_to_quads)


def subdivide_oracle(word, alpha):
    """Brute-force corner via step-by-step subdivision of the unit square."""
    corner = [0.0, 0.0]
    side = 1.0
    for q in word:
        if q & 1:
            corner[0] += side * (1 - alpha)
        if q >> 1:
            corner[1] += side * (1 - alpha)
        side *= alpha
    return tuple(corner), side


class TestAlpha:
    def test_valid_range(self):
        assert float(Alpha(0.25)) == 0.25

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 0.75, 1.0])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(ParameterError):
            Alpha(bad)


def square_of(word, alpha):
    """The addressed square, corner from ``address_corners`` and side alpha**n."""
    codes = np.array([word], dtype=np.uint8).reshape(1, len(word))
    return Square(tuple(address_corners(codes, alpha)[0]), alpha ** len(word))


def fsum_corner(word, alpha):
    """Correctly rounded corner: fsum of the steps alpha**k - alpha**(k+1) per axis."""
    steps = [alpha ** k - alpha ** (k + 1) for k in range(len(word))]
    return (math.fsum(d for d, q in zip(steps, word) if q & 1),
            math.fsum(d for d, q in zip(steps, word) if q >> 1))


def square_grid(corner, side, level):
    """Raster over the unit square of the one square at ``corner`` of side ``side``."""
    return rasterize(np.array([corner], dtype=float), Square.unit(), level, side=side)


def quads_of(squares):
    """(N, 4, 2) quads of Square objects of any sides, for ``rasterize_quads``."""
    return np.concatenate([squares_to_quads(s.corner, s.side) for s in squares]
                          or [np.zeros((0, 4, 2))])


class TestSquareOfAddress:
    """Address-to-corner geometry, as ``address_corners`` computes it."""

    def test_empty_word_is_unit_square(self):
        sq = square_of((), 0.25)
        assert sq.corner == (0.0, 0.0)
        assert sq.side == 1.0
        assert address_corners(np.zeros((3, 0), dtype=np.uint8), 0.25).tolist() == [[0.0, 0.0]] * 3

    def test_ne_child_quarter(self):
        sq = square_of((3,), 0.25)
        assert sq.corner == (0.75, 0.75)
        assert sq.side == 0.25

    def test_all_sw_keeps_origin(self):
        sq = square_of((0, 0), 0.3)
        assert sq.corner == (0.0, 0.0)
        assert sq.side == pytest.approx(0.09, abs=1e-15)

    def test_matches_subdivision_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 0.49))
            word = tuple(int(q) for q in rng.integers(0, 4, size=int(rng.integers(0, 7))))
            sq = square_of(word, alpha)
            corner, side = subdivide_oracle(word, alpha)
            assert sq.corner[0] == pytest.approx(corner[0], abs=1e-12)
            assert sq.corner[1] == pytest.approx(corner[1], abs=1e-12)
            assert sq.side == pytest.approx(side, rel=1e-12)
            assert sq.corner[0] == pytest.approx(fsum_corner(word, alpha)[0], abs=1e-15)
            assert sq.corner[1] == pytest.approx(fsum_corner(word, alpha)[1], abs=1e-15)

    def test_nesting(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            word = tuple(int(q) for q in rng.integers(0, 4, size=3))
            parent = square_of(word, 0.3)
            for q in range(4):
                child = square_of(word + (q,), 0.3)
                assert parent.corner[0] <= child.corner[0]
                assert child.max_corner[0] <= parent.max_corner[0] + 1e-12
                assert parent.corner[1] <= child.corner[1]
                assert child.max_corner[1] <= parent.max_corner[1] + 1e-12


class TestRasterize:
    def test_unit_square_level_one_fills(self):
        grid = square_grid((0.0, 0.0), 1.0, 1)
        assert grid.occupied_count == 4

    def test_generation_one_quarter_children_hit_corner_cells_only(self):
        corners = np.array([square_of((q,), 0.25).corner for q in range(4)])
        grid = rasterize(corners, Square.unit(), 2, side=0.25)
        assert grid.occupied_count == 4
        expected = np.zeros((4, 4), dtype=bool)
        for iy, ix in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[iy, ix] = True
        assert np.array_equal(grid.bits, expected)

    def test_empty_input(self):
        grid = rasterize(np.zeros((0, 2)), Square.unit(), 3, side=1.0)
        assert grid.occupied_count == 0

    def test_monotone_under_additions(self):
        rng = np.random.default_rng(9)
        squares = [Square((rng.uniform(0, 0.8), rng.uniform(0, 0.8)), rng.uniform(0.01, 0.2))
                   for _ in range(12)]
        grid = BoxGrid.empty(Square.unit(), 5)
        for k in range(1, len(squares) + 1):
            nxt = rasterize_quads(quads_of(squares[:k]), Square.unit(), 5)
            assert np.all(nxt.bits[grid.bits])
            grid = nxt

    def test_grid_over_budget_refused(self):
        from dustlab.errors import BudgetError
        from dustlab.geometry import CELL_BUDGET

        assert 4 ** 14 == CELL_BUDGET
        for make in (lambda: square_grid((0.0, 0.0), 1.0, 15),
                     lambda: rasterize_quads(np.zeros((0, 4, 2)), Square.unit(), 40),
                     lambda: BoxGrid.empty(Square.unit(), 15),
                     lambda: square_grid((0.0, 0.0), 1.0, 40)):
            with pytest.raises(BudgetError):
                make()
        with pytest.raises(ParameterError):
            square_grid((0.0, 0.0), 1.0, -1)

    def test_square_outside_bounds_marks_nothing(self):
        grid = square_grid((2.0, 2.0), 0.5, 3)
        assert grid.occupied_count == 0


class TestBoxGrid:
    def test_point_cell_half_open(self):
        grid = BoxGrid.empty(Square.unit(), 2)
        assert grid.point_cell((0.25, 0.0)) == (1, 0)
        assert grid.point_cell((0.0, 0.25)) == (0, 1)
        # far boundary belongs to the last row/column
        assert grid.point_cell((1.0, 1.0)) == (3, 3)

    def test_point_outside_bounds(self):
        grid = BoxGrid.empty(Square.unit(), 2)
        with pytest.raises(ParameterError):
            grid.point_cell((1.5, 0.5))

    def test_downsample_or_reduction(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[0, 1] = True
        grid = BoxGrid(Square.unit(), 2, bits)
        coarse = grid.downsampled(1)
        assert coarse.occupied_count == 1
        assert coarse.bits[0, 0]

    def test_bits_are_read_only(self):
        grid = BoxGrid.empty(Square.unit(), 2)
        with pytest.raises(ValueError):
            grid.bits[0, 0] = True


class TestGridIntersection:
    def test_idempotent(self):
        g = square_grid((0.1, 0.1), 0.3, 4)
        assert np.array_equal(grid_intersection(g, g).bits, g.bits)

    def test_with_empty(self):
        g = square_grid((0.1, 0.1), 0.3, 4)
        e = BoxGrid.empty(Square.unit(), 4)
        assert grid_intersection(g, e).occupied_count == 0

    def test_overlapping_halves_share_one_column(self):
        # left rectangle reaches one cell past the midline, right starts at it
        left = square_grid((0.0, 0.0), 9 / 16, 4)
        right = square_grid((0.5, 0.5 - 0.5), 1.0, 4)
        inter = grid_intersection(left, right)
        iy, ix = np.nonzero(inter.bits)
        assert set(ix) == {8}
        assert len(iy) == 9  # left square spans rows 0..8 only

    def test_commutative_associative(self):
        rng = np.random.default_rng(12)
        grids = [square_grid((rng.uniform(0, 0.5), rng.uniform(0, 0.5)), 0.4, 4)
                 for _ in range(3)]
        a, b, c = grids
        assert np.array_equal(grid_intersection(a, b).bits, grid_intersection(b, a).bits)
        lhs = grid_intersection(grid_intersection(a, b), c)
        rhs = grid_intersection(a, grid_intersection(b, c))
        assert np.array_equal(lhs.bits, rhs.bits)

    def test_mixed_levels_downsample(self):
        fine = square_grid((0.0, 0.0), 0.24, 4)
        coarse = square_grid((0.0, 0.0), 0.24, 2)
        with pytest.raises(ParameterError):
            grid_intersection(fine, coarse)
        inter = grid_intersection(fine.downsampled(2), coarse)
        assert inter.level == 2
        assert np.array_equal(inter.bits, coarse.bits)

    def test_incompatible_bounds(self):
        a = BoxGrid.empty(Square.unit(), 2)
        b = BoxGrid.empty(Square((0.0, 0.0), 2.0), 2)
        with pytest.raises(ParameterError):
            grid_intersection(a, b)

    def test_union(self):
        # the raster of a union of squares is the cellwise OR of their rasters
        a = square_grid((0.0, 0.0), 0.4, 3)
        b = square_grid((0.6, 0.6), 0.4, 3)
        u = rasterize(np.array([[0.0, 0.0], [0.6, 0.6]]), Square.unit(), 3, side=0.4)
        assert np.array_equal(u.bits, a.bits | b.bits)
        assert u.occupied_count == a.occupied_count + b.occupied_count


class TestFormats:
    def test_bgr_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        bits = rng.random((8, 8)) < 0.4
        grid = BoxGrid(Square((-0.25, 0.125), 1.5), 3, bits)
        text = dump_bgr(grid)
        back = parse_bgr(text)
        assert back.bounds == grid.bounds
        assert back.level == grid.level
        assert np.array_equal(back.bits, grid.bits)
        assert dump_bgr(back) == text

    def test_bgr_header_fields(self):
        grid = BoxGrid.empty(Square.unit(), 1)
        assert dump_bgr(grid).splitlines()[0] == "bgr 1 1 0.0 0.0 1.0"

    @pytest.mark.parametrize("text", ["", "bgr 2 1 0 0 1\n00\n00", "bgr 1 1 0 0 1\n01",
                                      "bgr 1 1 0 0 1\n0x\n00",
                                      "bgr 1 -1 0.0 0.0 1.0\n", "bgr 1 0 0.0 0.0 nan\n0",
                                      "bgr 1 0 0.0 0.0 -1.0\n0", "bgr 1 0 0.0 0.0 0.0\n0",
                                      "bgr 1 0 0.0 0.0 inf\n0", "bgr 1 0 nan 0.0 1.0\n0"])
    def test_bgr_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_bgr(text)

    @pytest.mark.parametrize("level", [0, 1, 8, 9])
    @pytest.mark.parametrize("bounds", [Square.unit(), Square((-0.25, 0.1), 1.7)])
    def test_bgr_writer_matches_per_cell_encoding(self, tmp_path, level, bounds):
        # levels 0 and 1 fit in one row block, 8 fills one exactly, 9 needs two
        assert 1 << 8 == BGR_BLOCK_ROWS
        n = 1 << level
        bits = np.random.default_rng(level).random((n, n)) < 0.3
        grid = BoxGrid(bounds, level, bits)
        x0, y0 = bounds.corner
        header = f"bgr 1 {level} {x0!r} {y0!r} {bounds.side!r}"
        rows = ["".join("1" if b else "0" for b in bits[iy]) for iy in range(n - 1, -1, -1)]
        expected = "\n".join([header] + rows) + "\n"
        path = tmp_path / "g.bgr"
        write_bgr(grid, path)
        assert path.read_bytes() == expected.encode()
        assert dump_bgr(grid) == expected
        back = parse_bgr(path.read_bytes())
        assert back.bounds == bounds
        assert back.level == level
        assert np.array_equal(back.bits, bits)

    def test_cad_round_trip(self):
        words = [(0, 3), (1, 2)]
        text = dump_cad(Alpha(0.3), 2, words)
        assert text == "cad 1 0.3 2\nAD\nBC\n"
        alpha, depth, back = parse_cad(text)
        assert float(alpha) == 0.3
        assert depth == 2
        assert back.dtype == np.uint8 and back.tolist() == [list(w) for w in words]
        assert dump_cad(alpha, depth, back) == text

    def test_cad_empty_word_generation_zero(self):
        text = dump_cad(Alpha(0.25), 0, [()])
        alpha, depth, words = parse_cad(text)
        assert depth == 0
        assert words.shape == (1, 0)

    def test_cad_rejects_wrong_length(self):
        with pytest.raises(FormatError):
            parse_cad("cad 1 0.25 2\nABC\n")


class TestIsometry:
    def test_identity(self):
        pts = np.array([[0.2, 0.7], [1.0, -1.0]])
        assert np.allclose(Isometry(0.0, False, (0.0, 0.0)).apply(pts), pts)

    def test_quarter_turn_is_exact(self):
        iso = Isometry(math.pi / 2, False, (0.0, 0.0))
        g = iso.matrix()
        assert g[0, 0] == 0.0 and g[1, 0] == 1.0

    def test_reflection_flips_orientation(self):
        iso = Isometry(0.0, True, (0.0, 0.0))
        assert np.allclose(iso.apply(np.array([[0.0, 1.0]])), [[0.0, -1.0]])

    def test_translation(self):
        iso = Isometry(0.0, False, (0.5, -0.25))
        assert np.allclose(iso.apply(np.array([[1.0, 1.0]])), [[1.5, 0.75]])


class TestQuads:
    def test_disjoint_squares(self):
        qa = squares_to_quads(np.array([[0.0, 0.0]]), 1.0)[0]
        qb = squares_to_quads(np.array([[2.0, 0.0]]), 1.0)[0]
        assert quads_disjoint(qa, qb)

    def test_touching_squares_are_not_disjoint(self):
        qa = squares_to_quads(np.array([[0.0, 0.0]]), 1.0)[0]
        qb = squares_to_quads(np.array([[1.0, 0.0]]), 1.0)[0]
        assert not quads_disjoint(qa, qb)

    def test_rotated_overlap(self):
        qa = squares_to_quads(np.array([[0.0, 0.0]]), 1.0)[0]
        qb = Isometry(math.pi / 4, False, (0.5, -0.2)).apply(
            squares_to_quads(np.array([[0.0, 0.0]]), 1.0))[0]
        assert not quads_disjoint(qa, qb)

    def test_rasterize_quads_matches_rasterize_for_axis_aligned(self):
        squares = [Square((0.125, 0.25), 0.25), Square((0.5, 0.5), 0.2)]
        direct = square_grid(squares[0].corner, squares[0].side, 5).bits | \
            square_grid(squares[1].corner, squares[1].side, 5).bits
        via_quads = rasterize_quads(quads_of(squares), Square.unit(), 5)
        assert np.array_equal(direct, via_quads.bits)

    def test_rotated_quad_coverage_is_conservative(self):
        iso = Isometry(0.3, False, (0.9, 0.4))
        quad = iso.apply(squares_to_quads(np.array([[0.0, 0.0]]), 0.5))
        grid = rasterize_quads(quad, Square((0.0, 0.0), 2.0), 6)
        # every sampled interior point of the quad lands in an occupied cell
        rng = np.random.default_rng(8)
        t = rng.random((500, 2)) * 0.5
        pts = iso.apply(t)
        for x, y in pts:
            ix, iy = grid.point_cell((x, y))
            assert grid.bits[iy, ix]
