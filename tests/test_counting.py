"""Fast counting kernels checked against the slow references they replaced.

* ``BoxGrid.downsampled`` halves pairwise; the reference is the one-shot
  ``reshape(n, f, n, f).any(axis=(1, 3))`` block reduction.
* ``ball_counts`` counts a ball inside an aligned window; the reference is
  ``box_counts`` of the full-grid ``clip_to_ball``.
* Placement trials rasterize, intersect and count inside the copy's aligned
  window; the reference is the same trial on full grids.
* ``ScaleSchedule.resolving`` replaced three per-caller formulas, kept
  here verbatim.
* ``rasterize`` became a thin entry to ``rasterize_quads``, whose block
  kernel now also takes quads that are not congruent; the axis-aligned
  index-and-scatter body of ``rasterize`` and the per-quad kernel
  ``_raster_one_quad`` are kept here verbatim as references.
* ``rasterize_quads_window`` takes each quad's extent with elementwise
  ``np.minimum``/``np.maximum`` over its four vertices and tests congruence
  with per-column max - min; the previous body, with its reductions along
  the vertex axis and ``np.ptp``, is kept here verbatim as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dustlab import geometry
from dustlab.boxdim import (ScaleSchedule, ball_counts, box_counts, clip_to_ball,
                            window_counts)
from dustlab.cantor import generate_cantor, scale_and_place
from dustlab.errors import ParameterError
from dustlab.geometry import (_QUAD_BLOCK_LIMIT, BoxGrid, Isometry, Square, _index_ranges,
                              aligned_span, grid_intersection, grid_size, rasterize,
                              rasterize_quads, rasterize_quads_window, squares_to_quads)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_downsample(bits: np.ndarray, level: int, target: int) -> np.ndarray:
    f = 1 << (level - target)
    n = 1 << target
    return bits.reshape(n, f, n, f).any(axis=(1, 3))


def random_bits(seed: int, level: int, density: float) -> np.ndarray:
    n = 1 << level
    return np.random.default_rng(seed).random((n, n)) < density


bounds_strategy = st.builds(
    lambda x, y, side: Square((x, y), side),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 5.0))
densities = st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0])


@SETTINGS
@given(level=st.integers(0, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       density=densities)
def test_halving_matches_block_reduction(level, data, seed, density):
    target = data.draw(st.integers(0, level))
    bits = random_bits(seed, level, density)
    grid = BoxGrid(Square.unit(), level, bits)
    coarse = grid.downsampled(target)
    assert coarse.level == target
    assert np.array_equal(coarse.bits, reference_downsample(bits, level, target))
    assert not coarse.bits.flags.writeable


def schedules(level: int):
    """Strictly increasing level tuples of length >= 3 ending at or below ``level``."""
    return (st.lists(st.integers(0, level), min_size=3, unique=True)
            .map(lambda ms: ScaleSchedule(tuple(sorted(ms)))))


@SETTINGS
@given(level=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       density=densities, bounds=bounds_strategy)
def test_window_counts_of_whole_grid_match_reference(level, data, seed, density, bounds):
    schedule = data.draw(schedules(level))
    bits = random_bits(seed, level, density)
    counts = box_counts(BoxGrid(bounds, level, bits), schedule)
    assert counts == {m: int(reference_downsample(bits, level, m).sum()) for m in schedule.levels}


def test_window_counts_reject_levels_beyond_resolution():
    with pytest.raises(ParameterError):
        window_counts(np.zeros((4, 4), dtype=bool), 2, ScaleSchedule((1, 2, 3)))
    with pytest.raises(ParameterError):
        ball_counts(BoxGrid(Square.unit(), 2, np.ones((4, 4), dtype=bool)), (0.5, 0.5), 0.25,
                    ScaleSchedule((1, 2, 3)))


@SETTINGS
@given(level=st.integers(2, 9), data=st.data(), seed=st.integers(0, 2**32 - 1),
       density=densities, bounds=bounds_strategy,
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       radius_frac=st.floats(1e-4, 2.0))
def test_ball_counts_match_full_clip(level, data, seed, density, bounds, u, v, radius_frac):
    # u, v at 0 or 1 put the point on the bounds edge, and large radii make
    # the ball's window reach past the grid on several sides
    grid = BoxGrid(bounds, level, random_bits(seed, level, density))
    x0, y0 = bounds.corner
    p = (min(x0 + u * bounds.side, bounds.max_corner[0]),
         min(y0 + v * bounds.side, bounds.max_corner[1]))
    radius = radius_frac * bounds.side
    schedule = data.draw(st.one_of(st.just(ScaleSchedule.resolving(grid, radius / 2.0, floor=0)),
                                   schedules(level)))
    assert ball_counts(grid, p, radius, schedule) == box_counts(clip_to_ball(grid, p, radius),
                                                                schedule)


def test_ball_counts_rejects_nonpositive_radius():
    with pytest.raises(ParameterError):
        ball_counts(BoxGrid(Square.unit(), 4, np.ones((16, 16), dtype=bool)), (0.5, 0.5), 0.0,
                    ScaleSchedule.span(0, 4))


def placed_quads(alpha, depth, diameter, theta, reflect, z):
    return scale_and_place(generate_cantor(alpha, depth), diameter, Isometry(theta, reflect, z))


@SETTINGS
@given(level=st.integers(3, 9), data=st.data(), seed=st.integers(0, 2**32 - 1),
       density=densities, bounds=bounds_strategy,
       alpha=st.floats(0.2, 0.45), depth=st.integers(1, 4),
       diameter_frac=st.floats(0.01, 1.5), theta=st.floats(0.0, 2 * math.pi),
       reflect=st.booleans(), zu=st.floats(-0.5, 1.5), zv=st.floats(-0.5, 1.5),
       quarter=st.booleans())
def test_windowed_trial_counts_match_full_grid(level, data, seed, density, bounds, alpha, depth,
                                               diameter_frac, theta, reflect, zu, zv, quarter):
    # translations from -0.5 to 1.5 of the side put copies across the grid
    # edge or wholly outside it; quarter turns take the axis-aligned path
    if quarter:
        theta = math.pi / 2 * round(theta / (math.pi / 2))
    x0, y0 = bounds.corner
    z = (x0 + zu * bounds.side, y0 + zv * bounds.side)
    quads = placed_quads(alpha, depth, diameter_frac * bounds.side, theta, reflect, z)
    target = BoxGrid(bounds, level, random_bits(seed, level, density))
    lo = data.draw(st.integers(0, level - 2))
    schedule = ScaleSchedule.span(lo, level)
    align = 1 << (level - lo)

    full = rasterize_quads(quads, bounds, level)
    cells, bits = rasterize_quads_window(quads, bounds, level, align)
    rows, cols = cells
    for span in (rows, cols):
        assert span.start % align == 0 and span.stop % align == 0
        assert 0 <= span.start < span.stop <= 1 << level
    assert np.array_equal(bits, full.bits[cells])
    assert full.occupied_count == int(bits.sum())

    expected = box_counts(grid_intersection(target, full), schedule)
    assert window_counts(target.bits[cells] & bits, level, schedule) == expected


@SETTINGS
@given(level=st.integers(2, 8), bounds=bounds_strategy, lo=st.integers(0, 6),
       sides=st.lists(st.floats(0.01, 0.4), min_size=2, max_size=4),
       corner_fracs=st.lists(st.tuples(st.floats(-0.2, 1.0), st.floats(-0.2, 1.0)),
                             min_size=4, max_size=4),
       theta=st.floats(0.0, 2 * math.pi))
def test_windowed_raster_of_unequal_quads_matches_full_grid(level, bounds, lo, sides,
                                                            corner_fracs, theta):
    # quads of different sizes take the per-quad rasterization path
    x0, y0 = bounds.corner
    iso = Isometry(theta, False, (0.0, 0.0))
    quads = np.concatenate([
        squares_to_quads(np.array([[x0 + u * bounds.side, y0 + v * bounds.side]]),
                         s * bounds.side) for s, (u, v) in zip(sides, corner_fracs)])
    center = quads.reshape(-1, 2).mean(axis=0)
    quads = (quads - center) @ iso.matrix().T + center
    align = 1 << (level - min(lo, level))
    full = rasterize_quads(quads, bounds, level)
    cells, bits = rasterize_quads_window(quads, bounds, level, align)
    assert np.array_equal(bits, full.bits[cells])
    assert full.occupied_count == int(bits.sum())


def test_window_of_grid_sized_alignment_is_whole_grid():
    quads = placed_quads(0.3, 3, 0.1, 0.4, False, (0.5, 0.5))
    cells, bits = rasterize_quads_window(quads, Square.unit(), 6, 64)
    assert cells == (slice(0, 64), slice(0, 64))
    assert bits.shape == (64, 64)


def test_window_of_quads_outside_bounds_is_empty():
    quads = placed_quads(0.3, 3, 0.1, 0.4, False, (5.0, 5.0))
    cells, bits = rasterize_quads_window(quads, Square.unit(), 6, 8)
    assert cells == (slice(0, 8), slice(0, 8))
    assert not bits.any()


# The formulas ScaleSchedule.resolving replaced, as they stood in boxdim
# (ball profiles) and composite (annulus slices, unions of copies).

def old_ball_schedule(grid, radius):
    lo = max(0, int(math.ceil(math.log2(max(2.0 * grid.bounds.side / radius, 1.0)))))
    lo = min(lo, grid.level - 2)
    return ScaleSchedule.span(max(lo, 0), grid.level)


def old_slice_schedule(grid, extent):
    lo = int(math.ceil(math.log2(max(grid.bounds.side / max(extent, grid.cell_size), 1.0))))
    lo = max(2, min(lo, grid.level - 2))
    return ScaleSchedule.span(lo, grid.level)


def old_union_start(grid, extent):
    lo = int(math.ceil(math.log2(max(grid.bounds.side / max(extent, grid.cell_size), 1.0)))) + 1
    return max(2, min(lo, grid.level - 2))


@settings(max_examples=500, deadline=None)
@given(level=st.integers(4, 12), side=st.floats(1e-3, 1e3),
       frac=st.one_of(st.floats(1e-6, 4.0), st.sampled_from([2.0 ** -k for k in range(14)])))
def test_resolving_schedule_matches_replaced_formulas(level, side, frac):
    grid = BoxGrid.empty(Square((0.0, 0.0), side), level)
    extent = frac * side
    assert ScaleSchedule.resolving(grid, extent / 2.0, floor=0) == old_ball_schedule(grid, extent)
    assert ScaleSchedule.resolving(grid, extent) == old_slice_schedule(grid, extent)
    assert ScaleSchedule.resolving(grid, extent, finer=1).levels[0] == old_union_start(grid, extent)


def test_adopt_keeps_array_and_constructor_copies():
    bits = np.zeros((4, 4), dtype=bool)
    copied = BoxGrid(Square.unit(), 2, bits)
    bits[0, 0] = True
    assert not copied.bits[0, 0]
    adopted = BoxGrid.adopt(Square.unit(), 2, bits)
    assert adopted.bits is bits
    assert not bits.flags.writeable


# The two rasterizers the block kernel of rasterize_quads replaced, as they
# stood in geometry: rasterize's own body (axis-aligned squares) and the
# per-quad kernel for quads that were not congruent.

def reference_rasterize(corners, sides, bounds, level):
    n = 1 << level
    bits = np.zeros((n, n), dtype=bool)
    if len(corners) == 0:
        return bits
    w = bounds.side / n
    x0, y0 = bounds.corner
    ix_lo, ix_hi, vx = _index_ranges(corners[:, 0], corners[:, 0] + sides, x0, w, n)
    iy_lo, iy_hi, vy = _index_ranges(corners[:, 1], corners[:, 1] + sides, y0, w, n)
    ok = vx & vy
    single = ok & (ix_lo == ix_hi) & (iy_lo == iy_hi)
    bits[iy_lo[single], ix_lo[single]] = True
    for i in np.nonzero(ok & ~single)[0]:
        bits[iy_lo[i]:iy_hi[i] + 1, ix_lo[i]:ix_hi[i] + 1] = True
    return bits


def _raster_one_quad(quad, block, x0, y0, w, ix_lo, ix_hi, iy_lo, iy_hi) -> None:
    """OR one quad into ``block``, the cells [iy_lo, iy_hi] x [ix_lo, ix_hi]."""
    e1 = quad[1] - quad[0]
    e2 = quad[3] - quad[0]
    ix = np.arange(ix_lo, ix_hi + 1)
    iy = np.arange(iy_lo, iy_hi + 1)
    keep = np.ones((len(iy), len(ix)), dtype=bool)
    for edge in (e1, e2):
        norm = np.linalg.norm(edge)
        if norm == 0.0:
            continue
        axis = edge / norm
        if min(abs(axis[0]), abs(axis[1])) < 1e-12:
            continue
        cx = x0 + ix * w
        cy = y0 + iy * w
        base = cy[:, None] * axis[1] + cx[None, :] * axis[0]
        amin = base + w * (min(axis[0], 0.0) + min(axis[1], 0.0))
        amax = base + w * (max(axis[0], 0.0) + max(axis[1], 0.0))
        proj = quad @ axis
        keep &= (amax >= proj.min()) & (amin <= proj.max())
    block |= keep


def reference_one_quad(quad, bounds, level):
    n = 1 << level
    bits = np.zeros((n, n), dtype=bool)
    w = bounds.side / n
    x0, y0 = bounds.corner
    (ix_lo,), (ix_hi,), (vx,) = _index_ranges(quad[:, 0].min(keepdims=True),
                                              quad[:, 0].max(keepdims=True), x0, w, n)
    (iy_lo,), (iy_hi,), (vy,) = _index_ranges(quad[:, 1].min(keepdims=True),
                                              quad[:, 1].max(keepdims=True), y0, w, n)
    if vx and vy:
        _raster_one_quad(quad, bits[iy_lo:iy_hi + 1, ix_lo:ix_hi + 1],
                         x0, y0, w, ix_lo, ix_hi, iy_lo, iy_hi)
    return bits


def squares_in(bounds, fracs, sides):
    """Squares placed by fractions of ``bounds``: corners (u, v) and sides s."""
    x0, y0 = bounds.corner
    return [Square((x0 + u * bounds.side, y0 + v * bounds.side), s * bounds.side)
            for (u, v), s in zip(fracs, sides)]


def assert_matches_reference(squares, bounds, level):
    corners = np.array([s.corner for s in squares], dtype=float).reshape(-1, 2)
    sides = np.array([s.side for s in squares], dtype=float)
    expected = reference_rasterize(corners, sides, bounds, level)
    quads = np.concatenate([squares_to_quads(s.corner, s.side) for s in squares]
                           or [np.zeros((0, 4, 2))])
    assert np.array_equal(rasterize_quads(quads, bounds, level).bits, expected)
    if len(set(sides.tolist())) == 1:
        grid = rasterize(corners, bounds, level, side=float(sides[0]))
        assert np.array_equal(grid.bits, expected)


fracs = st.tuples(st.floats(-0.5, 1.2), st.floats(-0.5, 1.2))


@SETTINGS
@given(level=st.integers(0, 8), bounds=bounds_strategy,
       corners=st.lists(fracs, min_size=0, max_size=12),
       sides=st.lists(st.one_of(st.floats(1e-9, 0.6), st.sampled_from([2.0 ** -k for k in range(9)])),
                      min_size=12, max_size=12))
def test_axis_aligned_squares_of_mixed_sizes_match_reference(level, bounds, corners, sides):
    # sides of exactly 2**-k tile the grid; corners below 0 or above 1 leave the bounds
    assert_matches_reference(squares_in(bounds, corners, sides), bounds, level)


@SETTINGS
@given(level=st.integers(0, 8), bounds=bounds_strategy, data=st.data(),
       count=st.integers(1, 40), cell_frac=st.floats(1e-12, 1.0))
def test_single_cell_squares_match_reference(level, bounds, data, count, cell_frac):
    # equal squares no larger than one cell, some on cell boundaries
    n = 1 << level
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.sampled_from([0.0, 0.5, 1.0 - cell_frac])),
                               min_size=count, max_size=count))
    side = cell_frac / n
    squares_frac = [((ix + t) / n, (iy + t) / n) for ix, iy, t in cells]
    assert_matches_reference(squares_in(bounds, squares_frac, [side] * count), bounds, level)


@SETTINGS
@given(level=st.integers(0, 6), bounds=bounds_strategy,
       corners=st.lists(st.tuples(st.sampled_from([-2.0, -1.0, 1.0, 2.0]), st.floats(-2.0, 2.0)),
                        min_size=1, max_size=6),
       sides=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6), swap=st.booleans())
def test_squares_outside_bounds_match_reference(level, bounds, corners, sides, swap):
    # each square starts past an edge or ends on one: nothing, or an edge strip
    fracs_out = [(v, u) if swap else (u, v) for u, v in corners]
    squares = squares_in(bounds, fracs_out, [min(s, 0.99) for s in sides])
    assert_matches_reference(squares, bounds, level)


rotations = st.one_of(st.floats(0.0, 2 * math.pi),
                      st.sampled_from([k * math.pi / 8 for k in range(16)]))


@SETTINGS
@given(level=st.integers(0, 8), bounds=bounds_strategy, center=fracs,
       half=st.floats(1e-6, 0.7), theta=rotations, reflect=st.booleans())
def test_single_rotated_quad_matches_reference(level, bounds, center, half, theta, reflect):
    x0, y0 = bounds.corner
    z = (x0 + center[0] * bounds.side, y0 + center[1] * bounds.side)
    side = 2.0 * half * bounds.side
    quad = Isometry(theta, reflect, z).apply(squares_to_quads(np.array([[-side / 2, -side / 2]]), side))
    assert np.array_equal(rasterize_quads(quad, bounds, level).bits,
                          reference_one_quad(quad[0], bounds, level))


@SETTINGS
@given(level=st.integers(0, 8), bounds=bounds_strategy,
       centers=st.lists(fracs, min_size=2, max_size=4),
       halves=st.lists(st.floats(1e-6, 0.5), min_size=4, max_size=4, unique=True),
       theta=rotations)
def test_unequal_rotated_quads_match_reference(level, bounds, centers, halves, theta):
    # quads of different sizes are rasterized one at a time, each as the per-quad kernel did
    x0, y0 = bounds.corner
    quads = np.concatenate([
        Isometry(theta, False, (x0 + u * bounds.side, y0 + v * bounds.side)).apply(
            squares_to_quads(np.array([[-h * bounds.side] * 2]), 2.0 * h * bounds.side))
        for (u, v), h in zip(centers, halves)])
    expected = np.zeros((1 << level, 1 << level), dtype=bool)
    for quad in quads:
        expected |= reference_one_quad(quad, bounds, level)
    assert np.array_equal(rasterize_quads(quads, bounds, level).bits, expected)


@SETTINGS
@given(level=st.integers(2, 7), bounds=bounds_strategy, limit=st.sampled_from([1, 3, 16, 100]),
       corners=st.lists(fracs, min_size=1, max_size=5), side=st.floats(0.05, 1.5),
       theta=rotations)
def test_oversized_quads_match_reference_under_lowered_limit(level, bounds, limit, corners, side,
                                                             theta):
    # a limit below one quad's extent splits it into row bands; below the
    # group's total it splits congruent quads into blocks
    squares = squares_in(bounds, corners, [side] * len(corners))
    quad = Isometry(theta, False, squares[0].center).apply(
        squares_to_quads(np.array([[-squares[0].side / 2] * 2]), squares[0].side))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_QUAD_BLOCK_LIMIT", limit)
        assert_matches_reference(squares, bounds, level)
        assert np.array_equal(rasterize_quads(quad, bounds, level).bits,
                              reference_one_quad(quad[0], bounds, level))


def reference_rasterize_quads_window(quads: np.ndarray, bounds: Square, level: int,
                           align: int) -> tuple[tuple[slice, slice], np.ndarray]:
    """``rasterize_quads`` computed only over the cells the quads can meet.

    Returns ``(window, bits)``.  ``window`` is a (rows, columns) pair of
    slices of the level-``level`` grid that covers every occupied cell,
    with start and stop widened outward to multiples of ``align`` (a power
    of two no larger than the grid), and ``bits`` equals the full raster
    over that window.  ``align = 2**level`` makes the window the whole
    grid.  When no quad meets the bounds the window is the first ``align``
    block and holds no occupied cell.  Raises BudgetError when the grid
    exceeds ``CELL_BUDGET``.
    """
    quads = np.asarray(quads, dtype=float).reshape(-1, 4, 2)
    n = grid_size(level)
    w = bounds.side / n
    x0, y0 = bounds.corner

    ix_lo, ix_hi, vx = _index_ranges(quads[:, :, 0].min(axis=1), quads[:, :, 0].max(axis=1), x0, w, n)
    iy_lo, iy_hi, vy = _index_ranges(quads[:, :, 1].min(axis=1), quads[:, :, 1].max(axis=1), y0, w, n)
    idx = np.nonzero(vx & vy)[0]
    if len(idx) == 0:
        rows = cols = aligned_span(0, 0, align)
        return (rows, cols), np.zeros((align, align), dtype=bool)
    rows = aligned_span(int(iy_lo[idx].min()), int(iy_hi[idx].max()), align)
    cols = aligned_span(int(ix_lo[idx].min()), int(ix_hi[idx].max()), align)
    bits = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=bool)

    def fill(ref, axes, chunk, lo_y, hi_y, bw, bh):
        """OR quads ``chunk`` into ``bits``: rows lo_y..hi_y, bh at most, of their extents."""
        ix = ix_lo[chunk, None, None] + np.arange(bw)
        iy = lo_y[:, None, None] + np.arange(bh)[:, None]
        keep = (ix <= ix_hi[chunk, None, None]) & (iy <= hi_y[:, None, None])
        if axes:
            cx = x0 + ix * w
            cy = y0 + iy * w
            shift = quads[chunk, 0] - quads[ref, 0]
            for axis in axes:
                # closed overlap of each cell's projection with the quad's
                base = cx * axis[0] + cy * axis[1]
                amin = base + w * (min(axis[0], 0.0) + min(axis[1], 0.0))
                amax = base + w * (max(axis[0], 0.0) + max(axis[1], 0.0))
                rel = quads[ref] @ axis
                off = shift @ axis
                keep &= (amax >= (off + rel.min())[:, None, None]) & \
                        (amin <= (off + rel.max())[:, None, None])
        bits.reshape(-1)[((iy - rows.start) * bits.shape[1] + (ix - cols.start))[keep]] = True

    e1 = quads[:, 1] - quads[:, 0]
    e2 = quads[:, 3] - quads[:, 0]
    congruent = len(quads) == 1 or (np.ptp(e1, axis=0).max() < 1e-12 and np.ptp(e2, axis=0).max() < 1e-12)
    # congruent quads share the first quad's edge directions; others go one at a time
    for ref, group in [(0, idx)] if congruent else [(i, idx[k:k + 1]) for k, i in enumerate(idx)]:
        # unit edge directions, leaving out degenerate and grid-parallel ones
        axes = [e / norm for e in (e1[ref], e2[ref]) if (norm := np.linalg.norm(e)) > 0.0]
        axes = [a for a in axes if min(abs(a[0]), abs(a[1])) >= 1e-12]
        bw = int((ix_hi[group] - ix_lo[group]).max()) + 1
        bh = int((iy_hi[group] - iy_lo[group]).max()) + 1
        band = min(bh, max(1, _QUAD_BLOCK_LIMIT // bw))  # rows per block
        per = max(1, _QUAD_BLOCK_LIMIT // (bw * band))  # quads per block
        for start in range(0, len(group), per):
            chunk = group[start:start + per]
            lo_y, hi_y = iy_lo[chunk], iy_hi[chunk]
            for r in range(0, bh, band):
                fill(ref, axes, chunk, lo_y + r, np.minimum(hi_y, lo_y + (r + band - 1)), bw, band)
    return (rows, cols), bits


@SETTINGS
@given(level=st.integers(0, 8), bounds=bounds_strategy, align_level=st.integers(0, 8),
       corners=st.lists(fracs, min_size=1, max_size=6), side=st.floats(1e-3, 0.6),
       theta=rotations, reflect=st.booleans(),
       noise=st.sampled_from([0.0, 1e-13, 4e-13, 5e-13, 6e-13, 1e-12, 3e-12, 1e-6]),
       seed=st.integers(0, 2**32 - 1), unequal=st.sampled_from([None, "smaller", "taller"]))
def test_window_raster_matches_previous_expressions(level, bounds, align_level, corners, side,
                                                   theta, reflect, noise, seed, unequal):
    # copies of one quad, each vertex moved by up to ``noise``: spreads of the
    # edge vectors land on both sides of the 1e-12 congruence threshold
    x0, y0 = bounds.corner
    s = side * bounds.side
    base = Isometry(theta, reflect, (0.0, 0.0)).apply(squares_to_quads(np.zeros((1, 2)), s))[0]
    quads = np.array([base + (x0 + u * bounds.side, y0 + v * bounds.side) for u, v in corners])
    quads += np.random.default_rng(seed).uniform(-noise, noise, quads.shape)
    if unequal == "smaller":
        quads[0] = (quads[0] - quads[0, 0]) * 0.5 + quads[0, 0]
    elif unequal == "taller":  # the first edge stays, the second grows
        quads[0, 2:] += 0.5 * (quads[0, 3] - quads[0, 0])
    align = 1 << min(align_level, level)
    cells, bits = rasterize_quads_window(quads, bounds, level, align)
    ref_cells, ref_bits = reference_rasterize_quads_window(quads, bounds, level, align)
    assert cells == ref_cells
    assert np.array_equal(bits, ref_bits)
