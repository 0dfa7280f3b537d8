"""Fast counting kernels checked against the slow references they replaced.

* ``BoxGrid.downsampled`` goes through ``coarsened``, the one loop over
  ``halve``; the reference is the one-shot
  ``reshape(n, f, n, f).any(axis=(1, 3))`` block reduction.
* ``halve`` ORs pairs of rows into a C-ordered array, a band of row pairs
  at a time when the input is large, and reads each pair of cells as one
  uint16 word; the two-slice OR it replaced is kept here verbatim as the
  reference.
* ``ball_window_counts`` counts a ball as the point search does, by
  ``window_counts`` of its aligned ``_ball_windows`` window; the reference
  is ``box_counts`` of the full-grid ``clip_to_ball``.
* ``geometry._closed_span`` gives the closed cell span of balls and
  frames; the scalar ball span it replaced (``reference_ball_span``) and
  the frame lines it replaced (``reference_frame_spans``) are kept here
  verbatim.
* ``geometry._matrices`` builds the matrices of a batch of motions as
  arrays, and ``Isometry.matrix`` is a one-row call of it; the scalar
  snap and matrix body it replaced are kept here verbatim
  (``reference_matrix``).
* ``overlap_counts`` scores a batch of motions of one copy (placement or
  Mattila trials) without a raster.  A motion whose frame (the box of the
  unmoved quads, moved by it) reaches no occupied cell scores zero without
  being moved; for the others, the sparse gather (``geometry._quad_hits``)
  drops the leaves whose box holds no occupied cell at the target's
  prune halving K, finds the occupied cells in each kept box in the
  target's sorted cell list, and runs the closed SAT test of the raster on
  those (leaf, cell) pairs alone.  K comes from the copy alone: every
  moved leaf box spans fewer than 2**K cells (``prune_halving`` states the
  rule).  The list and the target coarsened K times (``coarsened``) are
  built once per ``overlap_counts`` call before any block is scored;
  ``_quad_hits`` only reads them.  The counts are the distinct
  prefixes of the hits' sorted (trial, Morton code) keys per level, and do
  not depend on how trials are batched.  The references are the dense
  trial scorer it replaced (``dense_trial_counts``: the windowed raster
  with its target, the AND and ``window_counts``, kept here verbatim) and
  the full-grid ``box_counts(grid_intersection(...))``, on batches that
  mix misses, reflections, quarter turns, edge-touching and grid-clipped
  copies, single occupied cells, quad sets that are not congruent, and
  sparse and dense targets.
* ``overlap_counts`` moves the frames of all its motions by one stacked
  product (``boxdim._frame_spans``); the per-motion frame it replaced is
  ``padded_frame_span``, and ``per_trial_counts`` scores one motion alone
  through it and the dense trial scorer.
* ``overlap_counts`` moves a block of trials by one stacked product on the
  copy's coordinate rows, into the coordinate-major layout
  ``xy[t, c, v, i]`` that ``_quad_hits`` takes (``coordinate_major``
  converts (T, N, 4, 2) quads to it); each trial must equal
  ``Isometry.apply`` float for float.  ``geometry._sat_limits`` builds the
  SAT constants once per reference quad and gathers them per kept quad,
  for the edges some kept quad tests only;
  the per-trial loop it replaced is kept here verbatim
  (``reference_sat_slots``), and its stacked norm and projection products
  are checked against the per-quad ``np.linalg.norm`` and gemv.
* ``fit_dimensions`` fits a batch of count profiles in one pass; the
  scalar fit it replaced is kept here verbatim
  (``scalar_estimate_dimension``), and each row must equal it float for
  float.
* ``find_full_dimension_point`` takes every block's representative by one
  ``argmax``, counts the balls of a radius in stacks of windows
  (``_ball_windows``) at the levels its fit reads only, and fits its
  candidates as one batch per radius.  The per-block ``np.nonzero`` scan
  is kept here verbatim, and the per-candidate scoring with each ball
  counted as ``box_counts`` of its full-grid ``clip_to_ball`` at every
  schedule level, fitted by the default window
  (``reference_full_dimension_point``); the stacks' per-window counts are
  checked against the same full clips.
* ``ScaleSchedule.resolving`` replaced three per-caller formulas, kept
  here verbatim.
* ``rasterize`` became a thin entry to ``rasterize_quads``, whose block
  kernel now also takes quads that are not congruent; the axis-aligned
  index-and-scatter body of ``rasterize`` and the per-quad kernel
  ``_raster_one_quad`` are kept here verbatim as references.
* ``rasterize_quads`` runs the same kernel as trial scoring on every cell
  of each box.  The windowed rasters before it are kept here verbatim as
  references: the one with reductions along the vertex axis and
  ``np.ptp`` (``reference_rasterize_quads_window``) and the one with a
  target (``dense_window``), whose block fill the kernel replaced.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dustlab import boxdim, geometry
from dustlab.boxdim import (DimensionEstimate, ScaleSchedule, box_counts,
                            clip_to_ball, estimate_dimension, find_full_dimension_point,
                            fit_dimensions, overlap_counts, window_counts)
from dustlab.cantor import alpha_for_dimension, generate_cantor, scale_and_place, scaled_quads
from dustlab.errors import ParameterError
from dustlab.geometry import (SQRT2, BoxGrid, Isometry, Square, _index_ranges,
                              aligned_span, coarsened, grid_intersection, grid_size, halve, rasterize,
                              rasterize_quads, squares_to_quads)
from dustlab.intersect import mattila_survey, trial_motions

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_downsample(bits: np.ndarray, level: int, target: int) -> np.ndarray:
    """Each 2^(level - target) square block of ``bits`` ORed into one cell."""
    f = 1 << (level - target)
    return bits.reshape(bits.shape[0] // f, f, bits.shape[1] // f, f).any(axis=(1, 3))


def reference_halve(bits: np.ndarray) -> np.ndarray:
    rows = bits[0::2] | bits[1::2]
    return rows[:, 0::2] | rows[:, 1::2]


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


def ball_window_counts(grid, p, radius, schedule):
    """Counts of ``grid`` in the ball B(p, radius) as ``find_full_dimension_point`` takes them:
    ``window_counts`` of the ball's window, widened to whole cells at the schedule's coarsest level."""
    ((_, (window,)),) = boxdim._ball_windows(grid, [p], radius, 1 << (grid.level - schedule.levels[0]))
    return window_counts([window], grid.level, schedule)


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
        window_counts([np.zeros((4, 4), dtype=bool)], 2, ScaleSchedule((1, 2, 3)))
    with pytest.raises(ParameterError):
        ball_window_counts(BoxGrid(Square.unit(), 2, np.ones((4, 4), dtype=bool)), (0.5, 0.5), 0.25,
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
    assert ball_window_counts(grid, p, radius, schedule) == box_counts(clip_to_ball(grid, p, radius),
                                                                       schedule)


def test_ball_counts_rejects_nonpositive_radius():
    with pytest.raises(ParameterError):
        ball_window_counts(BoxGrid(Square.unit(), 4, np.ones((16, 16), dtype=bool)), (0.5, 0.5), 0.0,
                           ScaleSchedule.span(0, 4))


@pytest.mark.parametrize("p,radius", [((0.5, 0.5), math.nan), ((0.5, 0.5), math.inf),
                                      ((0.5, 0.5), -math.inf), ((math.nan, 0.5), 0.25),
                                      ((0.5, math.nan), 0.25), ((math.inf, 0.5), 0.25),
                                      ((0.5, -math.inf), 0.25)])
def test_ball_refuses_non_finite_center_or_radius(p, radius):
    # NaN cast to an integer cell index gives INT64_MIN, and the ball would count as empty
    grid = BoxGrid(Square.unit(), 4, np.ones((16, 16), dtype=bool))
    with pytest.raises(ParameterError, match="finite"):
        ball_window_counts(grid, p, radius, ScaleSchedule.span(0, 4))
    with pytest.raises(ParameterError, match="finite"):
        clip_to_ball(grid, p, radius)


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
    iso = Isometry(theta, reflect, z)
    copy = generate_cantor(alpha, depth)
    quads = scale_and_place(copy, diameter_frac * bounds.side, iso)
    target = BoxGrid(bounds, level, random_bits(seed, level, density))
    lo = data.draw(st.integers(0, level - 2))
    schedule = ScaleSchedule.span(lo, level)
    align = 1 << (level - lo)

    full = rasterize_quads(quads, bounds, level)
    cells, bits = dense_window(quads, bounds, level, align)
    rows, cols = cells
    for span in (rows, cols):
        assert span.start % align == 0 and span.stop % align == 0
        assert 0 <= span.start < span.stop <= 1 << level
    assert np.array_equal(bits, full.bits[cells])
    assert full.occupied_count == int(bits.sum())

    expected = box_counts(grid_intersection(target, full), schedule)
    assert dense_trial_counts(target, quads, schedule) == expected
    assert trial_counts(target, copy, diameter_frac * bounds.side, iso, schedule) == expected


def trial_counts(target, copy, diameter, iso, schedule):
    """The trial scorer as placement and survey trials call it, for one motion, as {level: count}."""
    (counts,) = overlap_counts(target, scaled_quads(copy, diameter), motions_of([iso]), schedule).tolist()
    return dict(zip(schedule.levels, counts))


def motions_of(isos):
    """The motion arrays (theta, reflect, z) that ``overlap_counts`` takes, of a list of isometries."""
    return (np.array([iso.theta for iso in isos], dtype=float),
            np.array([iso.reflect for iso in isos], dtype=bool),
            np.array([iso.z for iso in isos], dtype=float).reshape(-1, 2))


# The dense trial scorer that overlap_counts replaced: geometry's windowed
# raster with its target, as it stood, then boxdim's AND and window_counts.

#: Cells of scratch one block of the dense rasters spanned.
DENSE_BLOCK_LIMIT = 1 << 22


def dense_trial_counts(grid, moved, schedule):
    """Counts of the grid ANDed with the raster of the moved quads, in their aligned window."""
    cells, bits = dense_window(moved, grid.bounds, grid.level,
                               1 << (grid.level - schedule.levels[0]), grid)
    inter = grid.bits[cells] & bits
    if not inter.any():
        return dict.fromkeys(schedule.levels, 0)
    return window_counts([inter], grid.level, schedule)


def dense_window(quads: np.ndarray, bounds: Square, level: int, align: int,
                 target: BoxGrid | None = None) -> tuple[tuple[slice, slice], np.ndarray]:
    """``rasterize_quads`` computed only over the cells the quads can meet (the old trial raster).

    Returns ``(window, bits)``.  ``window`` is a (rows, columns) pair of
    slices of the level-``level`` grid that covers every occupied cell,
    with start and stop widened outward to multiples of ``align`` (a power
    of two no larger than the grid), and ``bits`` equals the full raster
    over that window.  ``align = 2**level`` makes the window the whole
    grid.  When no quad meets the bounds the window is the first ``align``
    block and holds no occupied cell.

    ``target`` is a grid over the same bounds and level whose occupied
    cells are all the caller reads.  A quad whose cell box holds none of
    them is then dropped: boxes are tested at the finest halving of
    ``target`` at which each spans at most 2x2 cells.  ``bits`` and the
    window then come from the kept quads only, and ``bits`` equals the
    full raster at every occupied cell of ``target`` in the window.
    Raises BudgetError when the grid exceeds ``CELL_BUDGET``.
    """
    quads = np.asarray(quads, dtype=float).reshape(-1, 4, 2)
    n = grid_size(level)
    w = bounds.side / n
    x0, y0 = bounds.corner

    # elementwise over the four vertices: reductions along a length-4 axis are slow
    lo = np.minimum(np.minimum(quads[:, 0], quads[:, 1]), np.minimum(quads[:, 2], quads[:, 3]))
    hi = np.maximum(np.maximum(quads[:, 0], quads[:, 1]), np.maximum(quads[:, 2], quads[:, 3]))
    ix_lo, ix_hi, vx = _index_ranges(lo[:, 0], hi[:, 0], x0, w, n)
    iy_lo, iy_hi, vy = _index_ranges(lo[:, 1], hi[:, 1], y0, w, n)
    idx = np.nonzero(vx & vy)[0]
    if target is not None and len(idx):
        # at halving k every box spans at most 2x2 cells, so its four corners find each one
        k = int(max((ix_hi - ix_lo)[idx].max(), (iy_hi - iy_lo)[idx].max())).bit_length()
        xl, xh, yl, yh = (i[idx] >> k for i in (ix_lo, ix_hi, iy_lo, iy_hi))
        occ = target.downsampled(target.level - k).bits
        idx = idx[occ[yl, xl] | occ[yl, xh] | occ[yh, xl] | occ[yh, xh]]
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
    congruent = len(quads) == 1 or all(c.max() - c.min() < 1e-12 for c in (*e1.T, *e2.T))
    # congruent quads share the first quad's edge directions; others go one at a time
    for ref, group in [(0, idx)] if congruent else [(i, idx[k:k + 1]) for k, i in enumerate(idx)]:
        # unit edge directions, leaving out degenerate and grid-parallel ones
        axes = [e / norm for e in (e1[ref], e2[ref]) if (norm := np.linalg.norm(e)) > 0.0]
        axes = [a for a in axes if min(abs(a[0]), abs(a[1])) >= 1e-12]
        bw = int((ix_hi[group] - ix_lo[group]).max()) + 1
        bh = int((iy_hi[group] - iy_lo[group]).max()) + 1
        band = min(bh, max(1, DENSE_BLOCK_LIMIT // bw))  # rows per block
        per = max(1, DENSE_BLOCK_LIMIT // (bw * band))  # quads per block
        for start in range(0, len(group), per):
            chunk = group[start:start + per]
            lo_y, hi_y = iy_lo[chunk], iy_hi[chunk]
            for r in range(0, bh, band):
                fill(ref, axes, chunk, lo_y + r, np.minimum(hi_y, lo_y + (r + band - 1)), bw, band)
    return (rows, cols), bits


def target_hits(quads, target):
    """``_quad_hits`` blocks of ``quads``, one trial, tested against the occupied cells of ``target``
    and its bits coarsened to the prune halving of ``quads``: the index ``overlap_counts`` builds."""
    occ = coarsened(target.bits, prune_halving(quads, target))
    return geometry._quad_hits(coordinate_major(quads[None]), target.bounds, target.level,
                               np.flatnonzero(target.bits), occ)


def prune_halving(quads, grid):
    """The halving K that ``overlap_counts`` prunes leaves ``quads`` at on ``grid``.

    K is the bit length of ceil(D / w) + 1, at most the grid's level, where D is the largest
    diagonal of a leaf's axis-aligned box and w the cell side.
    """
    extent = quads.max(axis=1) - quads.min(axis=1)
    diagonal = float(np.hypot(extent[:, 0], extent[:, 1]).max())
    return min(grid.level, (math.ceil(diagonal / grid.cell_size) + 1).bit_length())


def coordinate_major(moved):
    """Quads of trials, (T, N, 4, 2), in ``_quad_hits``'s layout ``xy[t, c, v, i]``, C-ordered."""
    return np.ascontiguousarray(np.asarray(moved, dtype=float).transpose(0, 3, 2, 1))


def padded_frame_span(grid, quads, iso):
    """Per axis, the inclusive cell span of a motion's frame widened by one cell, unclipped.

    The frame is the box of the unmoved quads, moved by the motion, as ``overlap_counts`` builds it.
    """
    vertices = quads.reshape(-1, 2)
    (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
    frame = iso.apply(np.array([(x0, y0), (x1, y0), (x0, y1), (x1, y1)]))
    w = grid.cell_size
    lo, hi = frame.min(axis=0) - w, frame.max(axis=0) + w
    return [(math.floor((lo[k] - o) / w), math.floor((hi[k] - o) / w))
            for k, o in enumerate(grid.bounds.corner)]


def per_trial_counts(grid, quads, iso, schedule):
    """One motion scored alone, as trials were before their frames were moved in one product.

    Zero when the motion's padded frame span, clipped to the grid, holds no occupied cell;
    otherwise the dense trial scorer's counts of the moved quads.
    """
    n = grid.size
    (ix0, ix1), (iy0, iy1) = ((max(lo, 0), min(hi, n - 1)) for lo, hi in padded_frame_span(grid, quads, iso))
    if ix0 > ix1 or iy0 > iy1 or not grid.bits[iy0:iy1 + 1, ix0:ix1 + 1].any():
        return dict.fromkeys(schedule.levels, 0)
    return dense_trial_counts(grid, iso.apply(quads), schedule)


UNIT = Square.unit()


@SETTINGS
@given(level=st.integers(3, 8), bounds=bounds_strategy, alpha=st.floats(0.2, 0.45),
       depth=st.integers(1, 4), diameter_frac=st.floats(0.01, 1.5),
       theta=st.floats(0.0, 2 * math.pi), reflect=st.booleans(), zu=st.floats(-0.5, 1.5),
       zv=st.floats(-0.5, 1.5), quarter=st.booleans(), axis=st.integers(0, 1),
       end=st.integers(0, 1), step=st.sampled_from([-1, 0, 1]), along=st.floats(0.0, 1.0))
# frame corner on the grid's lower-left corner, quarter turns and reflections of dyadic data
@example(level=6, bounds=UNIT, alpha=0.25, depth=3, diameter_frac=0.5 * SQRT2, theta=0.0,
         reflect=False, zu=0.0, zv=0.0, quarter=False, axis=0, end=0, step=1, along=0.0)
@example(level=6, bounds=UNIT, alpha=0.25, depth=3, diameter_frac=0.25 * SQRT2,
         theta=math.pi / 2, reflect=False, zu=0.5, zv=0.25, quarter=True, axis=0, end=0, step=1,
         along=0.5)
@example(level=6, bounds=UNIT, alpha=0.25, depth=3, diameter_frac=0.25 * SQRT2,
         theta=math.pi, reflect=True, zu=0.5, zv=0.5, quarter=True, axis=1, end=1, step=1,
         along=0.0)
@example(level=6, bounds=UNIT, alpha=0.25, depth=3, diameter_frac=0.25 * SQRT2,
         theta=3 * math.pi / 2, reflect=True, zu=0.75, zv=0.5, quarter=True, axis=1, end=0,
         step=0, along=1.0)
# frame sitting exactly on the grid's right edge, and one just past it
@example(level=5, bounds=UNIT, alpha=0.3, depth=2, diameter_frac=0.25 * SQRT2, theta=0.0,
         reflect=False, zu=1.0, zv=0.25, quarter=False, axis=0, end=0, step=-1, along=0.5)
@example(level=5, bounds=UNIT, alpha=0.3, depth=2, diameter_frac=0.25 * SQRT2, theta=0.0,
         reflect=False, zu=1.0 + 2 ** -5, zv=0.25, quarter=False, axis=0, end=0, step=1,
         along=0.5)
# frames crossing the lower and upper grid edges, rotated off the axes
@example(level=7, bounds=UNIT, alpha=0.4, depth=3, diameter_frac=0.6, theta=0.7,
         reflect=True, zu=0.3, zv=-0.1, quarter=False, axis=1, end=0, step=1, along=0.3)
@example(level=7, bounds=UNIT, alpha=0.4, depth=3, diameter_frac=0.6, theta=2.5,
         reflect=False, zu=0.4, zv=1.05, quarter=False, axis=1, end=1, step=0, along=0.6)
def test_single_cell_by_padded_frame_span_counts_as_full_grid(
        level, bounds, alpha, depth, diameter_frac, theta, reflect, zu, zv, quarter, axis, end,
        step, along):
    # the one occupied cell lies just outside (step -1), on (0) or just inside (1)
    # the chosen end of the padded frame span along ``axis``; ``along`` places it
    # across the span on the other axis; cells past the grid are clipped onto it
    if quarter:
        theta = math.pi / 2 * round(theta / (math.pi / 2))
    x0, y0 = bounds.corner
    iso = Isometry(theta, reflect, (x0 + zu * bounds.side, y0 + zv * bounds.side))
    diameter = diameter_frac * bounds.side
    copy = generate_cantor(alpha, depth)
    n = 1 << level
    spans = padded_frame_span(BoxGrid.empty(bounds, level), scaled_quads(copy, diameter), iso)
    lo, hi = spans[axis]
    cell = [0, 0]
    cell[axis] = lo + step if end == 0 else hi - step
    olo, ohi = spans[1 - axis]
    cell[1 - axis] = olo + round(along * (ohi - olo))
    ix, iy = (min(max(c, 0), n - 1) for c in cell)
    bits = np.zeros((n, n), dtype=bool)
    bits[iy, ix] = True
    target = BoxGrid(bounds, level, bits)
    schedule = ScaleSchedule.span(level - 2, level)

    full = rasterize_quads(scale_and_place(copy, diameter, iso), bounds, level)
    expected = box_counts(grid_intersection(target, full), schedule)
    assert trial_counts(target, copy, diameter, iso, schedule) == expected


@SETTINGS
@given(level=st.integers(3, 8), alpha=st.floats(0.2, 0.45), depth=st.integers(1, 4),
       diameter_frac=st.floats(0.05, 1.5), theta=st.floats(0.0, 2 * math.pi),
       reflect=st.booleans(), zu=st.floats(-0.5, 1.5), zv=st.floats(-0.5, 1.5),
       quarter=st.booleans(), axis=st.integers(0, 1), end=st.integers(0, 1))
# frames whose right and top edges round to just below a cell boundary that
# a leaf's rounded edge crosses: only the one-cell pad keeps these trials
@example(level=3, alpha=0.221, depth=3, diameter_frac=0.89, theta=0.733, reflect=True,
         zu=-0.38877850196411073, zv=0.3, quarter=False, axis=0, end=1)
@example(level=4, alpha=0.305, depth=2, diameter_frac=0.942, theta=2.564, reflect=True,
         zu=0.3, zv=-0.42173383326023, quarter=False, axis=1, end=1)
def test_outermost_raster_cell_is_scored(level, alpha, depth, diameter_frac, theta, reflect,
                                         zu, zv, quarter, axis, end):
    # the copy's outermost raster cell on one side is the nearest an occupied
    # cell can come to the frame edge and still score
    if quarter:
        theta = math.pi / 2 * round(theta / (math.pi / 2))
    iso = Isometry(theta, reflect, (zu, zv))
    copy = generate_cantor(alpha, depth)
    full = rasterize_quads(scale_and_place(copy, diameter_frac, iso), UNIT, level)
    occupied = np.argwhere(full.bits)  # rows of (iy, ix)
    if len(occupied) == 0:
        return
    along = occupied[:, 1 - axis]
    iy, ix = occupied[np.argmin(along) if end == 0 else np.argmax(along)]
    bits = np.zeros_like(full.bits)
    bits[iy, ix] = True
    target = BoxGrid(UNIT, level, bits)
    schedule = ScaleSchedule.span(level - 2, level)
    counts = trial_counts(target, copy, diameter_frac, iso, schedule)
    assert counts == box_counts(target, schedule)
    assert counts[level] == 1


def test_trial_whose_frame_misses_every_occupied_cell_is_not_rasterized(monkeypatch):
    calls = []
    kernel = boxdim._quad_hits

    def counted(moved, *args):
        calls.append(len(moved))
        return kernel(moved, *args)

    monkeypatch.setattr(boxdim, "_quad_hits", counted)
    bits = np.zeros((64, 64), dtype=bool)
    bits[48:, 48:] = True  # occupied only in the upper-right quarter
    target = BoxGrid(UNIT, 6, bits)
    copy = generate_cantor(0.3, 3)
    schedule = ScaleSchedule.span(2, 6)
    # the frame's padded span ends at column 47, beside the occupied block
    miss = Isometry(0.0, False, (0.42, 0.6))
    assert trial_counts(target, copy, 0.3 * SQRT2, miss, schedule) == dict.fromkeys(range(2, 7), 0)
    assert calls == []
    hit = Isometry(0.0, False, (0.7, 0.7))
    assert trial_counts(target, copy, 0.3 * SQRT2, hit, schedule)[6] > 0
    assert calls == [1]
    # in a batch, only the trial that can score is moved and gathered
    quads = scaled_quads(copy, 0.3 * SQRT2)
    counts = overlap_counts(target, quads, motions_of([miss, hit, miss]), schedule).tolist()
    assert counts[0] == counts[2] == [0] * 5 and counts[1][-1] > 0
    assert calls == [1, 1]


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
    cells, bits = dense_window(quads, bounds, level, align)
    assert np.array_equal(bits, full.bits[cells])
    assert full.occupied_count == int(bits.sum())


def test_window_of_grid_sized_alignment_is_whole_grid():
    quads = placed_quads(0.3, 3, 0.1, 0.4, False, (0.5, 0.5))
    cells, bits = dense_window(quads, Square.unit(), 6, 64)
    assert cells == (slice(0, 64), slice(0, 64))
    assert np.array_equal(bits, rasterize_quads(quads, Square.unit(), 6).bits)


def test_window_of_quads_outside_bounds_is_empty():
    quads = placed_quads(0.3, 3, 0.1, 0.4, False, (5.0, 5.0))
    cells, bits = dense_window(quads, Square.unit(), 6, 8)
    assert cells == (slice(0, 8), slice(0, 8))
    assert not bits.any()
    assert rasterize_quads(quads, Square.unit(), 6).is_empty()
    full = BoxGrid(Square.unit(), 6, np.ones((64, 64), dtype=bool))
    assert not any(len(t) for t, _ in target_hits(quads, full))


@SETTINGS
@given(level=st.integers(3, 8), bounds=bounds_strategy, alpha=st.floats(0.2, 0.45),
       depth=st.integers(1, 4), diameter_frac=st.floats(0.01, 1.5),
       theta=st.floats(0.0, 2 * math.pi), reflect=st.booleans(), zu=st.floats(-0.5, 1.5),
       zv=st.floats(-0.5, 1.5), lo=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.001, 0.005, 0.02]),
       block=st.none() | st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(1, 8)))
# quad 0 is pruned and a later quad scores, on and off the axes
@example(level=6, bounds=UNIT, alpha=0.25, depth=2, diameter_frac=0.5 * SQRT2, theta=0.0,
         reflect=False, zu=0.25, zv=0.25, lo=6, seed=0, density=0.0, block=(47, 47, 1))
@example(level=7, bounds=UNIT, alpha=0.337, depth=3, diameter_frac=0.206, theta=4.924,
         reflect=False, zu=0.554, zv=0.496, lo=6, seed=0, density=0.0, block=(73, 51, 1))
# the one occupied cell lies in a box only past a level-k cell boundary, where
# the gathers at the boxes' upper ends find it
@example(level=7, bounds=UNIT, alpha=0.315, depth=3, diameter_frac=0.823, theta=0.235,
         reflect=True, zu=0.24, zv=0.429, lo=6, seed=0, density=0.0, block=(113, 17, 1))
# the box of quad 0 spans cells 1..8 (k = 3): one halving fewer, it would span
# three cells a side, and the one occupied cell, 5, lies in the middle one
@example(level=6, bounds=UNIT, alpha=0.4, depth=1, diameter_frac=7.5 / 64 / 0.4 * SQRT2,
         theta=0.0, reflect=False, zu=1.25 / 64, zv=1.25 / 64, lo=6, seed=0, density=0.0,
         block=(5, 5, 1))
# the scoring box is clipped at the right edge of the grid, and at the bottom edge
@example(level=5, bounds=UNIT, alpha=0.245, depth=1, diameter_frac=0.305, theta=0.154,
         reflect=False, zu=0.793, zv=0.457, lo=6, seed=0, density=0.0, block=(31, 17, 1))
@example(level=7, bounds=UNIT, alpha=0.274, depth=1, diameter_frac=0.356, theta=3.748,
         reflect=False, zu=0.472, zv=0.067, lo=6, seed=0, density=0.0, block=(54, 0, 1))
# the one occupied cell is a corner of a kept box that the rotated quad misses
@example(level=6, bounds=UNIT, alpha=0.383, depth=2, diameter_frac=0.712, theta=5.869,
         reflect=False, zu=0.435, zv=0.302, lo=6, seed=0, density=0.0, block=(27, 17, 1))
def test_pruned_trial_counts_match_full_raster_on_sparse_targets(
        level, bounds, alpha, depth, diameter_frac, theta, reflect, zu, zv, lo, seed, density,
        block):
    # sparse targets and single occupied blocks leave most boxes without an
    # occupied cell, so the scorer drops most quads before the raster
    n = 1 << level
    bits = random_bits(seed, level, density)
    if block is not None:
        bx, by, size = block
        bits[by % n:by % n + size, bx % n:bx % n + size] = True
    target = BoxGrid(bounds, level, bits)
    x0, y0 = bounds.corner
    iso = Isometry(theta, reflect, (x0 + zu * bounds.side, y0 + zv * bounds.side))
    diameter = diameter_frac * bounds.side
    quads = scaled_quads(generate_cantor(alpha, depth), diameter)
    schedule = ScaleSchedule.span(min(lo, level - 2), level)

    full = rasterize_quads(iso.apply(quads), bounds, level)
    expected = box_counts(grid_intersection(target, full), schedule)
    assert overlap_counts(target, quads, motions_of([iso]), schedule).tolist() == [list(expected.values())]

    align = 1 << (level - schedule.levels[0])
    cells, window = dense_window(iso.apply(quads), bounds, level, align, target)
    assert all(span.start % align == 0 and span.stop % align == 0 for span in cells)
    met = full.bits & target.bits
    assert np.array_equal(window & target.bits[cells], met[cells])
    met[cells] = False
    assert not met.any()


motions = st.tuples(st.one_of(st.floats(0.0, 2 * math.pi),
                              st.sampled_from([k * math.pi / 2 for k in range(4)])),
                    st.booleans(), st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))


@SETTINGS
@given(level=st.integers(3, 8), bounds=bounds_strategy, alpha=st.floats(0.2, 0.45),
       depth=st.integers(1, 4), diameter_frac=st.floats(0.01, 1.5), lo=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1), density=densities,
       block=st.none() | st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(1, 8)),
       shrink=st.sampled_from([None, 0.5, 0.999]), limit=st.sampled_from([None, 1, 5, 300]),
       batch=st.lists(motions, min_size=1, max_size=6))
# dyadic data on a dense target: edges on cell boundaries, a quarter turn, a
# reflected half turn and a miss, in one batch
@example(level=6, bounds=UNIT, alpha=0.25, depth=3, diameter_frac=0.5 * SQRT2, lo=2, seed=0,
         density=0.5, block=None, shrink=None, limit=None,
         batch=[(0.0, False, 0.25, 0.25), (math.pi / 2, False, 0.5, 0.25),
                (math.pi, True, 0.5, 0.5), (0.0, False, 1.5, 1.5)])
# rotated copies clipped by the lower, upper and left grid edges on sparse
# targets, moved and tested five, then one, quads and (quad, cell) pairs at a time
@example(level=7, bounds=UNIT, alpha=0.4, depth=3, diameter_frac=0.6, lo=3, seed=1,
         density=0.05, block=None, shrink=None, limit=5,
         batch=[(0.7, True, 0.3, -0.1), (2.5, False, 0.4, 1.05), (4.0, False, -0.3, 0.5)])
@example(level=7, bounds=UNIT, alpha=0.4, depth=3, diameter_frac=0.6, lo=3, seed=1,
         density=0.01, block=None, shrink=None, limit=1,
         batch=[(0.7, True, 0.3, -0.1), (2.5, False, 0.4, 1.05), (4.0, False, -0.3, 0.5)])
# one occupied cell, met by one trial of the batch and missed by its mirror image
@example(level=7, bounds=UNIT, alpha=0.315, depth=3, diameter_frac=0.823, lo=6, seed=0,
         density=0.0, block=(113, 17, 1), shrink=None, limit=None,
         batch=[(0.235, True, 0.24, 0.429), (0.235, False, 0.24, 0.429)])
# a quad set that is not congruent: each leaf takes its own axes, on and off the grid axes
@example(level=6, bounds=UNIT, alpha=0.3, depth=2, diameter_frac=0.9, lo=2, seed=3,
         density=0.05, block=None, shrink=0.5, limit=None,
         batch=[(0.0, False, 0.1, 0.1), (1.1, True, 0.5, 0.2), (math.pi / 2, True, 0.6, 0.1)])
def test_batched_trial_counts_match_dense_oracle(level, bounds, alpha, depth, diameter_frac, lo,
                                                 seed, density, block, shrink, limit, batch):
    # one overlap_counts call scores every motion of the batch; each entry must equal
    # the dense trial scorer and the full-grid intersection of that motion alone
    n = 1 << level
    bits = random_bits(seed, level, density)
    if block is not None:
        bx, by, size = block
        bits[by % n:by % n + size, bx % n:bx % n + size] = True
    target = BoxGrid(bounds, level, bits)
    x0, y0 = bounds.corner
    diameter = diameter_frac * bounds.side
    quads = scaled_quads(generate_cantor(alpha, depth), diameter)
    if shrink is not None:  # the first leaf shrinks about its corner, inside the frame
        quads[0] = quads[0, 0] + shrink * (quads[0] - quads[0, 0])
    isos = [Isometry(theta, reflect, (x0 + u * bounds.side, y0 + v * bounds.side))
            for theta, reflect, u, v in batch]
    schedule = ScaleSchedule.span(min(lo, level - 2), level)
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:
            patch.setattr(boxdim, "_MOVE_LIMIT", limit)
            patch.setattr(geometry, "_QUAD_BLOCK_LIMIT", limit)
        counts = overlap_counts(target, quads, motions_of(isos), schedule)
    assert counts.shape == (len(isos), len(schedule.levels))
    for iso, row in zip(isos, counts.tolist()):
        got = dict(zip(schedule.levels, row))
        moved = iso.apply(quads)
        assert got == dense_trial_counts(target, moved, schedule)
        assert got == box_counts(grid_intersection(target, rasterize_quads(moved, bounds, level)),
                                 schedule)


@SETTINGS
@given(level=st.integers(3, 8), bounds=bounds_strategy, alpha=st.floats(0.2, 0.45),
       depth=st.integers(1, 4), diameter_frac=st.floats(0.01, 1.5),
       batch=st.lists(motions, min_size=1, max_size=8))
# the edge cases of test_single_cell_by_padded_frame_span_counts_as_full_grid: frames on the
# grid's lower-left corner, quarter turns and reflections of dyadic data, a frame on the
# grid's right edge and one just past it, and rotated frames across the lower and upper edges
@example(level=6, bounds=UNIT, alpha=0.25, depth=3, diameter_frac=0.5 * SQRT2,
         batch=[(0.0, False, 0.0, 0.0)])
@example(level=6, bounds=UNIT, alpha=0.25, depth=3, diameter_frac=0.25 * SQRT2,
         batch=[(math.pi / 2, False, 0.5, 0.25), (math.pi, True, 0.5, 0.5),
                (3 * math.pi / 2, True, 0.75, 0.5)])
@example(level=5, bounds=UNIT, alpha=0.3, depth=2, diameter_frac=0.25 * SQRT2,
         batch=[(0.0, False, 1.0, 0.25), (0.0, False, 1.0 + 2 ** -5, 0.25)])
@example(level=7, bounds=UNIT, alpha=0.4, depth=3, diameter_frac=0.6,
         batch=[(0.7, True, 0.3, -0.1), (2.5, False, 0.4, 1.05)])
def test_stacked_frame_spans_equal_per_trial_spans(level, bounds, alpha, depth, diameter_frac,
                                                   batch):
    # one stacked product moves every frame; each span must be the one padded_frame_span
    # gives for that motion alone, clipped to the grid: starts to [0, n], ends to [-1, n - 1]
    grid = BoxGrid.empty(bounds, level)
    x0, y0 = bounds.corner
    quads = scaled_quads(generate_cantor(alpha, depth), diameter_frac * bounds.side)
    isos = [Isometry(theta, reflect, (x0 + u * bounds.side, y0 + v * bounds.side))
            for theta, reflect, u, v in batch]
    n = 1 << level
    mats = np.array([iso.matrix() for iso in isos])
    z = np.array([iso.z for iso in isos])[:, :, None]
    for iso, got in zip(isos, boxdim._frame_spans(grid, quads, mats, z).tolist()):
        (ix0, ix1), (iy0, iy1) = padded_frame_span(grid, quads, iso)
        assert got == [min(max(iy0, 0), n), max(min(iy1, n - 1), -1),
                       min(max(ix0, 0), n), max(min(ix1, n - 1), -1)]


# The scalar ball span and the floor and clip lines of the frame spans that geometry._closed_span
# replaced, kept verbatim.

def reference_ball_span(grid, p, radius):
    """Inclusive cell span (iy0, iy1, ix0, ix1) of the closed Chebyshev ball B(p, radius).

    Cells belong when their half-open extent meets the ball; the span is
    empty (iy0 > iy1 or ix0 > ix1) when no cell does.
    """
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius!r}")
    (x0, y0), w, n = grid.bounds.corner, grid.cell_size, grid.size

    def span(c: float, o: float) -> tuple[int, int]:
        return max(math.floor((c - radius - o) / w), 0), min(math.floor((c + radius - o) / w), n - 1)

    return span(p[1], y0) + span(p[0], x0)


def reference_frame_spans(grid, quads, mats, z):
    vertices = quads.reshape(-1, 2)
    (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
    box = np.array([(x0, y0), (x1, y0), (x0, y1), (x1, y1)])
    frames = box @ mats.transpose(0, 2, 1) + z.transpose(0, 2, 1)
    w, n = grid.cell_size, grid.size
    lo = np.floor((frames.min(axis=1) - w - grid.bounds.corner) / w).clip(0, n)
    hi = np.floor((frames.max(axis=1) + w - grid.bounds.corner) / w).clip(-1, n - 1)
    return np.stack([lo[:, 1], hi[:, 1], lo[:, 0], hi[:, 0]], axis=1).astype(np.int64)


def ball_coordinate(n: int):
    """A centre coordinate in units of the side: anywhere near the grid, or on a cell boundary."""
    return st.floats(-1.5, 2.5) | st.integers(-3, n + 3).map(lambda k: k / n)


@SETTINGS
@given(level=st.integers(0, 8), bounds=bounds_strategy, data=st.data())
# a centre on a cell corner with a radius of whole cells: both ends of the span on boundaries
@example(level=3, bounds=UNIT, data=(0.5, 0.25, 0.125))
# balls off the left, right, bottom and top of the grid: empty spans
@example(level=3, bounds=UNIT, data=(-0.5, 0.5, 0.25))
@example(level=3, bounds=UNIT, data=(1.5, 0.5, 0.25))
@example(level=3, bounds=UNIT, data=(0.5, -0.5, 0.25))
@example(level=3, bounds=UNIT, data=(0.5, 1.5, 0.25))
# a ball past every edge of an offset, scaled grid
@example(level=4, bounds=Square((-2.5, 1.25), 3.0), data=(0.5, 0.5, 4.0))
def test_closed_span_equals_scalar_ball_span(level, bounds, data):
    # the scalar span clips starts only below and ends only above; the two differ in a
    # clipped value only where both spans are empty
    n = 1 << level
    if isinstance(data, tuple):
        u, v, r = data
    else:
        u, v = data.draw(ball_coordinate(n)), data.draw(ball_coordinate(n))
        r = data.draw(st.floats(1e-6, 3.0) | st.integers(1, 2 * n).map(lambda k: k / n))
    grid = BoxGrid.empty(bounds, level)
    p = (bounds.corner[0] + u * bounds.side, bounds.corner[1] + v * bounds.side)
    radius = r * bounds.side
    iy0, iy1, ix0, ix1 = reference_ball_span(grid, p, radius)
    c = np.array(p)
    lo, hi = geometry._closed_span(c - radius, c + radius, bounds.corner, grid.cell_size, n)
    assert [lo[1], hi[1], lo[0], hi[0]] == [min(iy0, n), max(iy1, -1), min(ix0, n), max(ix1, -1)]
    assert (lo <= hi).all() == (ix0 <= ix1 and iy0 <= iy1)


@SETTINGS
@given(level=st.integers(0, 8), bounds=bounds_strategy, alpha=st.floats(0.2, 0.45),
       depth=st.integers(1, 3), diameter_frac=st.floats(0.01, 1.5),
       batch=st.lists(motions, min_size=0, max_size=8))
@example(level=3, bounds=UNIT, alpha=0.25, depth=2, diameter_frac=0.25 * SQRT2,
         batch=[(0.0, False, 0.25, 0.5), (0.0, False, -1.0, 0.5), (0.0, False, 2.0, 0.5),
                (math.pi, True, 0.5, -1.0), (math.pi / 2, False, 0.5, 2.0)])
def test_frame_spans_equal_floor_and_clip_lines(level, bounds, alpha, depth, diameter_frac, batch):
    # frames on cell boundaries, and frames off each side of the grid: empty spans
    grid = BoxGrid.empty(bounds, level)
    x0, y0 = bounds.corner
    quads = scaled_quads(generate_cantor(alpha, depth), diameter_frac * bounds.side)
    isos = [Isometry(theta, reflect, (x0 + u * bounds.side, y0 + v * bounds.side))
            for theta, reflect, u, v in batch]
    mats = np.array([iso.matrix() for iso in isos]).reshape(-1, 2, 2)
    z = np.array([iso.z for iso in isos]).reshape(-1, 2, 1)
    got = boxdim._frame_spans(grid, quads, mats, z)
    assert got.dtype == np.int64
    assert got.tolist() == reference_frame_spans(grid, quads, mats, z).tolist()


# The scalar snap and matrix body of Isometry.matrix that geometry._matrices replaced, kept verbatim.

def reference_snap(x: float) -> float:
    for target in (-1.0, 0.0, 1.0):
        if abs(x - target) < 1e-12:
            return target
    return x


def reference_matrix(theta: float, reflect: bool) -> np.ndarray:
    c = reference_snap(math.cos(theta))
    s = reference_snap(math.sin(theta))
    g = np.array([[c, -s], [s, c]])
    if reflect:
        g = g @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return g


quarter_turns = st.builds(lambda k, d: k * math.pi / 2 + d, st.integers(-8, 8),
                          st.sampled_from([-1e-13, 0.0, 1e-13]))


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(st.tuples(st.floats(-100.0, 100.0) | quarter_turns, st.booleans()), max_size=12))
@example(batch=[(0.0, False), (-0.0, True), (math.pi / 2, True), (math.pi, True),
                (3 * math.pi / 2, True), (3 * math.pi / 2, False), (-math.pi / 2 + 1e-13, True)])
def test_stacked_matrices_equal_scalar_matrix(batch):
    # bytes compare every entry float for float, signed zeros included
    theta, reflect = [t for t, _ in batch], [r for _, r in batch]
    expected = np.array([reference_matrix(t, r) for t, r in batch]).reshape(-1, 2, 2)
    assert geometry._matrices(theta, reflect).tobytes() == expected.tobytes()
    for (t, r), g in zip(batch, expected):
        assert Isometry(t, r, (0.0, 0.0)).matrix().tobytes() == g.tobytes()


# The scalar least-squares fit that fit_dimensions replaced, kept verbatim.

def scalar_estimate_dimension(counts, window=None, side=1.0) -> DimensionEstimate:
    levels = sorted(int(m) for m in counts)
    if len(levels) < 3:
        raise ParameterError(f"need counts at 3 or more levels, got {len(levels)}")
    if window is None:
        trimmed = levels[1:-2]
        used = trimmed if len(trimmed) >= 3 else levels
    else:
        lo, hi = window
        used = [m for m in levels if lo <= m <= hi]
        if len(used) < 3:
            raise ParameterError(f"window {window} keeps {len(used)} levels, need at least 3")
    win = (used[0], used[-1])
    values = [int(counts[m]) for m in used]

    if all(v == 0 for v in values):
        return DimensionEstimate(dict(counts), 0.0, 0.0, 1.0, win, empty=True)
    if any(v <= 0 for v in values):
        raise ParameterError("counts inside the window must all be positive or all be zero")
    if len(set(values)) == 1:
        intercept = math.log(values[0])
        return DimensionEstimate(dict(counts), 0.0, intercept, 1.0, win)

    x = np.array([m * boxdim.LN2 - math.log(side) for m in used])
    y = np.log(np.array(values, dtype=float))
    xm = x.mean()
    ym = y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    sstot = float(((y - ym) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / sstot if sstot > 0 else 1.0
    return DimensionEstimate(dict(counts), slope, intercept, r2, win)


def fit_fields(est) -> tuple:
    """An estimate's fitted fields, with each float as its repr, so that -0.0 differs from 0.0."""
    return tuple(map(repr, map(float, (est.slope, est.intercept, est.r2)))) + (est.window, est.empty)


@st.composite
def count_rows(draw, width: int):
    """A count profile of ``width`` levels: growing, random, flat, empty, or with one zero."""
    kind = draw(st.sampled_from(["growing", "random", "flat", "empty", "one zero"]))
    if kind == "growing":
        base, ratio = draw(st.integers(1, 50)), draw(st.floats(1.0, 4.0))
        return [int(base * ratio ** k) + draw(st.integers(0, 3)) for k in range(width)]
    if kind == "flat":
        return [draw(st.integers(1, 10 ** 6))] * width
    if kind == "empty":
        return [0] * width
    row = draw(st.lists(st.integers(1, 10 ** 6), min_size=width, max_size=width))
    if kind == "one zero":  # a row mixing zero and positive counts when the zero is in the window
        row[draw(st.integers(0, width - 1))] = 0
    return row


@settings(max_examples=400, deadline=None)
@given(levels=st.lists(st.integers(0, 16), min_size=3, max_size=13, unique=True).map(sorted),
       side=st.sampled_from([1.0, 0.37, 2.0 ** -3, 5.5, 1e3]), data=st.data())
@example(levels=[2, 3, 4], side=1.0, data=None)
def test_batched_fit_equals_scalar_fit(levels, side, data):
    if data is None:  # one flat, one empty and one growing row, no window
        rows, window = [[7, 7, 7], [0, 0, 0], [1, 4, 16]], None
    else:
        rows = data.draw(st.lists(count_rows(len(levels)), min_size=1, max_size=8))
        window = data.draw(st.none() | st.tuples(st.integers(-1, 17), st.integers(-1, 17)))
    profiles = [dict(zip(levels, row)) for row in rows]
    try:
        expected = [scalar_estimate_dimension(c, window=window, side=side) for c in profiles]
    except ParameterError:  # a mixed row, or a window keeping fewer than 3 levels
        with pytest.raises(ParameterError):
            fit_dimensions(levels, rows, window=window, side=side)
        for c in profiles:
            try:
                scalar_estimate_dimension(c, window=window, side=side)
            except ParameterError:
                with pytest.raises(ParameterError):
                    estimate_dimension(c, window=window, side=side)
        return
    slope, intercept, r2, empty, win = fit_dimensions(levels, rows, window=window, side=side)
    for j, (ref, counts) in enumerate(zip(expected, profiles)):
        row = DimensionEstimate(counts, slope[j], intercept[j], r2[j], win, bool(empty[j]))
        assert fit_fields(row) == fit_fields(ref)
        assert estimate_dimension(counts, window=window, side=side) == ref


# The point search's per-block scan that the one argmax replaced, and its scoring by one
# local_dimension_profile per candidate with scalar fits, kept verbatim but for the counts of a
# ball: box_counts of its full-grid clip_to_ball at every schedule level, no window or stack.

def reference_representatives(grid):
    clevel = min(boxdim.CANDIDATE_LEVEL, grid.level)
    coarse = grid.downsampled(clevel)
    factor = 1 << (grid.level - clevel)

    def representative(cy: int, cx: int) -> tuple[float, float]:
        block = grid.bits[cy * factor:(cy + 1) * factor, cx * factor:(cx + 1) * factor]
        ys, xs = np.nonzero(block)  # row-major: the first is the lowest row's leftmost cell
        return grid.cell_center(cx * factor + int(xs[0]), cy * factor + int(ys[0]))

    return [representative(int(cy), int(cx)) for cy, cx in zip(*np.nonzero(coarse.bits))]


def reference_full_dimension_point(grid, min_clearance=0.0):
    side = grid.bounds.side
    radii = (side / 8.0, side / 16.0, side / 32.0)
    x0, y0 = grid.bounds.corner
    x1, y1 = grid.bounds.max_corner

    def clearance(p) -> float:
        return min(p[0] - x0, x1 - p[0], p[1] - y0, y1 - p[1])

    def profile(p):
        return [scalar_estimate_dimension(
            box_counts(clip_to_ball(grid, p, r), ScaleSchedule.resolving(grid, r / 2.0, floor=0)), side=side)
            for r in radii]

    candidates = reference_representatives(grid)
    best, best_score = None, -math.inf
    for p in [p for p in candidates if clearance(p) >= min_clearance] or candidates:
        score = min(est.slope if not est.empty else 0.0 for est in profile(p))
        if score > best_score + 1e-12:
            best_score = score
            best = p
    return best


@SETTINGS
@given(level=st.integers(0, 9), bounds=bounds_strategy, seed=st.integers(0, 2**32 - 1),
       density=densities)
def test_argmax_representatives_match_per_block_scan(level, bounds, seed, density):
    # below CANDIDATE_LEVEL every block is one cell (factor 1)
    grid = BoxGrid(bounds, level, random_bits(seed, level, density))
    xs, ys = boxdim._representatives(grid)
    assert list(zip(xs.tolist(), ys.tolist())) == reference_representatives(grid)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(level=st.integers(2, 7), bounds=bounds_strategy, seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.002, 0.05, 0.3, 1.0]), block=st.booleans(),
       clearance=st.sampled_from([0.0, 0.1, 0.25, 0.45, 0.6]))
def test_point_search_matches_per_candidate_reference(level, bounds, seed, density, block,
                                                      clearance):
    # a clearance of 0.45 or 0.6 of the side keeps no candidate: every one is scored
    n = 1 << level
    bits = random_bits(seed, level, density)
    if block:  # a dense corner beside sparse cells gives candidates unequal scores
        bits[:n // 2 + 1, :n // 2 + 1] = True
    grid = BoxGrid(bounds, level, bits)
    if grid.is_empty():
        return
    expected = reference_full_dimension_point(grid, clearance * bounds.side)
    assert find_full_dimension_point(grid, clearance * bounds.side) == expected


def dust_grid(alpha, depth, level):
    approx = generate_cantor(alpha, depth)
    return rasterize(approx.leaf_corners(), UNIT, level, side=approx.side)


def blocks_grid(seed, level):
    """Random squares of random densities: few candidates with unequal scores."""
    n, rng = 1 << level, np.random.default_rng(seed)
    bits = np.zeros((n, n), dtype=bool)
    for _ in range(6):
        s = int(rng.integers(n // 80, n // 7))
        y, x = rng.integers(0, n - s, 2)
        bits[y:y + s, x:x + s] |= rng.random((s, s)) < rng.choice([0.01, 0.1, 0.5, 1.0])
    return BoxGrid(UNIT, level, bits)


FIT_DROP_GRIDS = [
    (dust_grid, (0.4, 5, 8), 0.25),  # no radius's schedule has 6 levels yet
    (dust_grid, (0.4, 5, 9), 0.0),  # side/8 fits 4:9 by the drop rule, reading 5:7
    (dust_grid, (0.45, 4, 9), 0.25),
    (blocks_grid, (3, 9), 0.0),
    (dust_grid, (0.4, 5, 10), 0.25),  # the construct benchmark's E
    (dust_grid, (0.45, 5, 10), 0.0),
    (dust_grid, (0.35, 5, 10), 0.25),
    (blocks_grid, (0, 10), 0.0),
    # from level 12 the levels side/8 reads, 5:10, are six: fitted without an explicit window
    # they would be dropped to 6:8 again, and the search would pick (0.336..., 0.336...)
    (dust_grid, (0.4, 5, 12), 0.25),
]


@pytest.mark.parametrize("make,args,clearance", FIT_DROP_GRIDS, ids=[
    "-".join(map(str, (make.__name__, *args, clearance))) for make, args, clearance in FIT_DROP_GRIDS])
def test_point_search_matches_reference_where_fits_drop_levels(make, args, clearance):
    # the drop rule applies from 6 levels, which no schedule of the levels 2-7 above reaches
    grid = make(*args)
    expected = reference_full_dimension_point(grid, clearance)
    assert find_full_dimension_point(grid, clearance) == expected


def test_point_search_halvings_on_the_construct_e(monkeypatch):
    # 36 candidates at 3 radii: each ball counted in its own window at every schedule level took
    # 540 halvings; the stacks of a radius at the levels its fit reads take 19
    grid, calls = dust_grid(0.4, 5, 10), []

    def spy(bits, k=1):
        calls.append(k)
        return halve(bits, k)

    monkeypatch.setattr(geometry, "halve", spy)
    assert find_full_dimension_point(grid, 0.25) == (0.37548828125, 0.37548828125)
    assert len(calls) == 19


@SETTINGS
@given(level=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), density=densities,
       bounds=bounds_strategy, data=st.data(),
       band=st.sampled_from([1, 16, 64, 256, 1 << 20]))
@example(level=6, seed=1, density=0.5, bounds=UNIT, data=None, band=256)  # every edge and corner
def test_stacked_ball_windows_count_as_full_clips(level, seed, density, bounds, data, band):
    # a lowered band splits the windows of one radius into many stacks, down to one a stack
    grid, n = BoxGrid(bounds, level, random_bits(seed, level, density)), 1 << level
    w = grid.cell_size
    if data is None:
        cells, radius, schedule = [(0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1), (n // 2, 0),
                                   (0, n // 2), (n - 1, n // 2), (n // 2, n - 1), (n // 2, n // 2),
                                   (n // 2, n // 2 + 1)], 5.5 * w, ScaleSchedule.span(3, 6)
    else:
        # cells on every grid edge give windows clipped there, of unequal aligned sizes
        edge = st.sampled_from([0, n - 1])
        index = st.one_of(edge, st.integers(0, n - 1))
        cells = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=12))
        radius = data.draw(st.floats(0.25, 1.5 * n)) * w
        schedule = data.draw(schedules(level))
    corner = np.array(bounds.corner)
    centers = [tuple(corner + (np.array(c) + 0.5) * w) for c in cells]
    expected = [box_counts(clip_to_ball(grid, p, radius), schedule) for p in centers]
    seen, shapes = [], set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_HALVE_BAND", band)
        stacks = boxdim._ball_windows(grid, centers, radius, 1 << (level - schedule.levels[0]))
        for which, stack in stacks:
            assert stack.size <= band or len(stack) == 1
            counts = window_counts([stack], level, schedule)
            for j, i in enumerate(which.tolist()):
                assert {m: int(c[j]) for m, c in counts.items()} == expected[i]
            seen.extend(which.tolist())
            shapes.add(stack.shape[1:])
    assert sorted(seen) == list(range(len(centers)))
    assert data is not None or len(shapes) > 1


def test_quad_whose_box_meets_no_occupied_cell_does_not_widen_window():
    quads = squares_to_quads(np.array([[0.05, 0.05], [0.8, 0.8]]), 0.1)
    bits = np.zeros((64, 64), dtype=bool)
    bits[54, 54] = True  # under the upper square only
    target = BoxGrid(UNIT, 6, bits)
    assert dense_window(quads, UNIT, 6, 8)[0] == (slice(0, 64), slice(0, 64))
    cells, window = dense_window(quads, UNIT, 6, 8, target)
    alone_cells, alone = dense_window(quads[1:], UNIT, 6, 8)
    assert cells == alone_cells == (slice(48, 64), slice(48, 64))
    assert np.array_equal(window, alone)
    # the sparse gather tests only the one occupied cell, in the upper square's box
    hits = [np.stack(block) for block in target_hits(quads, target)]
    assert np.concatenate(hits, axis=1).T.tolist() == [[0, 54 * 64 + 54]]
    bits[54, 54] = False
    cells, window = dense_window(quads, UNIT, 6, 8, BoxGrid(UNIT, 6, bits))
    assert cells == (slice(0, 8), slice(0, 8)) and not window.any()
    assert not any(len(t) for t, _ in target_hits(quads, BoxGrid(UNIT, 6, bits)))


#: Even-shaped bool arrays of each memory layout ``halve`` may be given, cut from random
#: bits at least twice as tall and wide: (rows, columns, bits) -> array of that shape.
HALVE_LAYOUTS = {
    "C": lambda r, c, bits: np.ascontiguousarray(bits[:r, :c]),
    "Fortran": lambda r, c, bits: np.asfortranarray(bits[:r, :c]),
    "transposed": lambda r, c, bits: bits[:c, :r].T,
    "column-strided": lambda r, c, bits: bits[:r, ::2][:, :c],
    "read-only": lambda r, c, bits: read_only(bits[:r, :c].copy()),
    "odd window": lambda r, c, bits: bits[1:r + 1, 3:c + 3],
}


def read_only(bits: np.ndarray) -> np.ndarray:
    bits.setflags(write=False)
    return bits


def check_halve(layout, band, rows, cols, seed, density, k=1, reduce=halve):
    """``reduce(bits, k)``, ``halve`` or ``coarsened``, with ``_HALVE_BAND`` set to ``band``
    against k two-slice halvings and against the block reduction."""
    r, c = rows << k, cols << k
    side = 2 * (r + c) + 4
    source = np.random.default_rng(seed).random((side, side)) < density
    bits = HALVE_LAYOUTS[layout](r, c, source)
    before = bits.copy()
    assert bits.shape == (r, c)
    with mock.patch.object(geometry, "_HALVE_BAND", band):
        half = reduce(bits, k)
    expected = bits
    for _ in range(k):
        expected = reference_halve(expected)
    assert half.dtype == bool and half.shape == (rows, cols)
    assert np.array_equal(half, expected)
    assert np.array_equal(half, reference_downsample(bits, k, 0))
    assert np.array_equal(bits, before)


@pytest.mark.parametrize("layout", HALVE_LAYOUTS)
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 12), cols=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
       density=densities)
def test_halve_matches_two_slice_reference(layout, rows, cols, seed, density):
    check_halve(layout, geometry._HALVE_BAND, rows, cols, seed, density)


@pytest.mark.parametrize("band", [5, 40])
@pytest.mark.parametrize("layout", HALVE_LAYOUTS)
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 12), cols=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
       density=densities)
def test_halve_over_several_bands_matches_two_slice_reference(layout, band, rows, cols, seed,
                                                              density):
    # a low band splits the row pairs into several bands, the last often short, or gives
    # each row pair its own band when a row is longer than the band
    check_halve(layout, band, rows, cols, seed, density)


@pytest.mark.parametrize("band", [geometry._HALVE_BAND, 5, 40])
@pytest.mark.parametrize("layout", HALVE_LAYOUTS)
@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(rows=st.integers(0, 9), cols=st.integers(0, 9), seed=st.integers(0, 2**32 - 1),
       density=densities)
def test_halve_of_several_levels_matches_block_reduction(k, layout, band, rows, cols, seed,
                                                          density):
    # 2^k rows go into one band row and are read as one 2^k-cell word per block; a low band
    # splits them into several bands or gives each block row its own
    check_halve(layout, band, rows, cols, seed, density, k)


@pytest.mark.parametrize("layout", ["C", "transposed", "read-only", "odd window"])
@pytest.mark.parametrize("k", range(10))
@settings(max_examples=8, deadline=None)
@given(rows=st.integers(0, 3), cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       density=densities)
def test_coarsened_matches_single_level_halvings(k, layout, rows, cols, seed, density):
    # square and non-square arrays of up to 3 << k cells a side, no side past 512 cells
    cap = max(1, 128 >> k)
    check_halve(layout, geometry._HALVE_BAND, min(rows, cap), min(cols, cap), seed, density, k,
                coarsened)


def step_schedules(level: int):
    """Schedules ``span(lo, hi, step)`` of at least three levels, hi at or below ``level``."""
    return st.integers(1, level // 2).flatmap(
        lambda step: st.integers(0, level - 2 * step).flatmap(
            lambda lo: st.integers(lo + 2 * step, level).map(
                lambda hi: ScaleSchedule.span(lo, hi, step))))


def one_level_counts(bits: np.ndarray, level: int, schedule: ScaleSchedule) -> dict[int, int]:
    """Counts per schedule level of ``bits`` halved one level at a time by ``reference_halve``."""
    halvings = [bits]
    while len(halvings) <= level:
        halvings.append(reference_halve(halvings[-1]))
    return {m: int(np.count_nonzero(halvings[level - m])) for m in schedule.levels}


@SETTINGS
@given(level=st.integers(2, 10), data=st.data(), seed=st.integers(0, 2**32 - 1),
       density=densities)
def test_window_counts_that_skip_levels_match_one_level_halving(level, data, seed, density):
    # window_counts halves by up to 3 levels a pass, straight to the next schedule level
    schedule = data.draw(st.one_of(step_schedules(level), schedules(level)))
    bits = random_bits(seed, level, density)
    assert window_counts([bits], level, schedule) == one_level_counts(bits, level, schedule)
    # a window of whole cells at the coarsest schedule level counts as the grid with the
    # rest cleared
    f = 1 << (level - schedule.levels[0])
    y0, y1 = sorted(data.draw(st.integers(0, len(bits) // f), label="rows") for _ in range(2))
    x0, x1 = sorted(data.draw(st.integers(0, len(bits) // f), label="cols") for _ in range(2))
    cleared = np.zeros_like(bits)
    cleared[y0 * f:y1 * f, x0 * f:x1 * f] = bits[y0 * f:y1 * f, x0 * f:x1 * f]
    assert (window_counts([bits[y0 * f:y1 * f, x0 * f:x1 * f]], level, schedule)
            == one_level_counts(cleared, level, schedule))


@pytest.mark.parametrize("density", [0.001, 0.3])
def test_box_counts_past_one_halve_band_match_block_reduction(density):
    level = 11
    assert (1 << 2 * level - 1) > geometry._HALVE_BAND  # its row pairs span more than one band
    bits = random_bits(7, level, density)
    counts = box_counts(BoxGrid(Square.unit(), level, bits), ScaleSchedule.span(0, level))
    assert counts == {m: int(np.count_nonzero(reference_downsample(bits, level, m)))
                      for m in range(level + 1)}


@st.composite
def banded_cases(draw):
    """(level, seed, cells set per 256, log2 of ``_HALVE_BAND``, schedule levels): a grid of
    level 0 to 12, bands from one row to more than the grid, any schedule that fits (from level 0
    among them) and some that do not."""
    level = draw(st.integers(0, 12))
    too_fine = st.lists(st.integers(0, level + 3), min_size=3, unique=True).filter(lambda ms: max(ms) > level)
    fitting = st.one_of(step_schedules(level), schedules(level)).map(lambda s: s.levels)
    levels = draw(too_fine if level < 2 else st.one_of(fitting, fitting, too_fine))
    return (level, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0, 1, 13, 128, 256])),
            draw(st.integers(0, 2 * level + 1)), tuple(sorted(levels)))


def one_array(bands):
    """``bands`` read in turn into one array, as ``formats.read_bgr_bands`` reads a file's."""
    out = np.empty_like(bands[0])
    for band in bands:
        out[...] = band
        yield out


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(banded_cases())
@example((12, 5, 13, 14, tuple(range(13))))  # from level 0 in four-row bands
@example((9, 6, 128, 0, tuple(range(10))))  # one-row bands
@example((9, 7, 1, 9, (2, 5, 9)))  # one-row bands, the raster's level in the schedule
@example((5, 8, 128, 11, (1, 3, 5)))  # a grid smaller than a band
@example((10, 9, 13, 14, (2, 4, 6, 8, 10, 12)))  # a schedule finer than the raster
def test_banded_counts_match_whole_grid_halving(case):
    level, seed, per256, band_log, levels = case
    n, schedule = 1 << level, ScaleSchedule(levels)
    bits = np.random.default_rng(seed).integers(0, 256, (n, n), dtype=np.uint8) < per256
    grid = BoxGrid(Square.unit(), level, bits)
    rows = min(n, max(1, (1 << band_log) >> level))
    bands = [bits[y:y + rows] for y in range(0, n, rows)]
    seen = []

    def spy(given, *args):
        given = list(given)
        seen.extend(len(band) for band in given)
        return window_counts(given, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_HALVE_BAND", 1 << band_log)  # read by box_counts at call time
        mp.setattr(boxdim, "window_counts", spy)
        if levels[-1] > level:
            read = []
            with pytest.raises(ParameterError, match="exceeds grid resolution"):
                window_counts((read.append(band) or band for band in bands), level, schedule)
            assert len(read) == len(bands)  # refused after the last band
            with pytest.raises(ParameterError, match="exceeds grid resolution"):
                box_counts(grid, schedule)
            return
        expected = one_level_counts(bits, level, schedule)
        assert box_counts(grid, schedule) == expected
        assert seen == [rows] * (n // rows)
        # top band first, as a file holds them, each read into the one array
        assert window_counts(one_array(bands[::-1]), level, schedule) == expected
        assert window_counts(one_array(bands), level, schedule) == expected


def test_level_12_box_counts_hold_about_one_band():
    # the default schedule 2:12 of a level-12 grid, in bands of 256 rows: each band's halvings
    # and the stacked coarse rows, about 0.8 MiB; halving the whole grid held 6 MiB
    n = 1 << 12
    bits = np.zeros((n, n), dtype=bool)
    bits[::3, ::5] = True
    grid = BoxGrid(UNIT, 12, bits)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        counts = box_counts(grid, ScaleSchedule.default_for(12))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert counts == one_level_counts(bits, 12, ScaleSchedule.default_for(12))
    assert peak < 2 << 20, peak / 2**20


def test_window_counts_refuse_a_bare_array():
    # a bare array would be taken as its rows: a window of one band is [bits]
    with pytest.raises(TypeError, match=r"pass \[bits\]"):
        window_counts(np.zeros((4, 4), dtype=bool), 2, ScaleSchedule((0, 1, 2)))


def test_one_overlap_call_halves_each_shape_once(monkeypatch):
    target = BoxGrid(UNIT, 8, random_bits(3, 8, 0.01))
    copy = generate_cantor(0.3, 3)
    schedule = ScaleSchedule.span(3, 8)
    isos = [Isometry(0.3 * i, i % 2 == 1, (0.05 * i, 0.5 - 0.02 * i)) for i in range(20)]
    shapes = []

    def counted(bits, k=1):
        shapes.append((bits.shape, k))
        return halve(bits, k)

    # coarsened is the one loop over halve; a halving anywhere in geometry is counted
    monkeypatch.setattr(geometry, "halve", counted)
    monkeypatch.setattr(boxdim, "_MOVE_LIMIT", 1)  # one trial per block: every block reads occ
    # the copy of diameter 3 prunes at halving 5: two passes, of 3 levels and then 2
    for diameter, chain in ((0.4, [((256, 256), 3)]), (3.0, [((256, 256), 3), ((32, 32), 2)])):
        expected = [list(trial_counts(target, copy, diameter, iso, schedule).values()) for iso in isos]
        shapes.clear()
        quads = scaled_quads(copy, diameter)
        counts = overlap_counts(target, quads, motions_of(isos), schedule).tolist()
        # one chain of passes of up to 3 levels a pass, to the prune halving K, once
        assert shapes == chain and sum(k for _, k in chain) == prune_halving(quads, target)
        assert sum(row[-1] > 0 for row in counts) >= 2  # two blocks or more met the target
        assert counts == expected


def test_one_overlap_call_holds_one_coarse_raster_not_a_pyramid():
    # a sparse level-11 target (4 MiB of bits) and a copy whose leaves prune at halving 3: the
    # call holds the 64 KiB raster at halving 3 and halve's scratch, not the 1.4 MB pyramid
    level = 11
    target = BoxGrid(UNIT, level, random_bits(11, level, 0.001))
    quads = scaled_quads(generate_cantor(0.3, 3), 0.05)
    assert prune_halving(quads, target) == 3
    motions = trial_motions(Square((0.1, 0.1), 0.8), 5, 40)
    schedule = ScaleSchedule.span(2, level)
    pyramid_bytes = sum((target.size >> j) ** 2 for j in range(1, level + 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        counts = overlap_counts(target, quads, motions, schedule)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert counts[:, -1].any()  # some trials were live, so the raster was built
    assert peak < pyramid_bytes, (peak, pyramid_bytes)


@pytest.mark.parametrize("level, depth, diameter, trials", [(2, 1, 8.0, 29), (6, 1, 8.0, 23), (6, 3, 0.9, 23)])
def test_ragged_trial_blocks_give_the_per_trial_counts(monkeypatch, level, depth, diameter, trials):
    # a copy of diameter 8 is wider than the unit grid: its leaves' boxes span the whole grid,
    # so their trials prune at the 1x1 halving (level 2: no schedule fits a level-1 grid)
    target = BoxGrid(UNIT, level, random_bits(level, level, 0.4))
    quads = scaled_quads(generate_cantor(0.3, depth), diameter)
    motions = trial_motions(Square((-0.5, -0.5), 2.0), 7, trials)
    schedule = ScaleSchedule.span(level - 2, level)
    kernel, blocks = boxdim._quad_hits, []

    def recorded(xy, bounds, level, cells, occ):
        assert occ.shape == (1 << level - prune_halving(quads, target),) * 2
        assert diameter != 8.0 or occ.shape == (1, 1)
        blocks.append(len(xy))
        return kernel(xy, bounds, level, cells, occ)

    monkeypatch.setattr(boxdim, "_quad_hits", recorded)
    monkeypatch.setattr(boxdim, "_MOVE_LIMIT", 3 * len(quads))  # three trials a block
    counts = overlap_counts(target, quads, motions, schedule)
    # an odd number of blocks, the last one short of three trials
    assert len(blocks) % 2 == 1 and len(blocks) >= 3 and blocks[-1] < 3 and counts.any()
    isos = [Isometry(*m) for m in zip(motions[0].tolist(), motions[1].tolist(), motions[2].tolist())]
    assert counts.tolist() == [list(per_trial_counts(target, quads, iso, schedule).values()) for iso in isos]


#: Angles within 1e-9 of a multiple of pi/4, where a leaf's moved box is square to the axes or
#: widest, or anywhere.
near_eighth_turns = st.one_of(
    st.builds(lambda j, eps: j * math.pi / 4 + eps, st.integers(0, 7), st.floats(-1e-9, 1e-9)),
    st.floats(0.0, 2 * math.pi))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(level=st.integers(2, 10), unit=st.booleans(), bounds=bounds_strategy,
       alpha=st.floats(0.2, 0.45), depth=st.integers(1, 5), cells=st.floats(0.2, 2560.0),
       motions=st.lists(st.tuples(near_eighth_turns, st.booleans(), st.floats(-0.5, 1.5),
                                  st.floats(-0.5, 1.5)), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.002, 0.05, 0.5, 1.0]))
# leaf diagonals of 1 and 3 cells to within rounding, turned by pi/4 and placed so that the
# rounding of the moved coordinates widens a box to 2 and 4 cells: the + 1 of the rule keeps
# these boxes below 2**K
@example(level=2, unit=False, bounds=Square((-0.8, -3.0), 0.3), alpha=0.4, depth=1,
         cells=2.499999999999999, motions=[(math.pi / 4, False, 0.5624999999999998, 0.062499999999999195)],
         seed=0, density=1.0)
@example(level=3, unit=False, bounds=Square((-2.3, -0.8), 0.4), alpha=0.3, depth=1,
         cells=9.999999999999996, motions=[(math.pi / 4, True, -0.062499999999999445, 0.12500000000000064)],
         seed=0, density=1.0)
def test_every_moved_leaf_box_spans_fewer_cells_than_the_prune_halving(
        level, unit, bounds, alpha, depth, cells, motions, seed, density):
    # copies from under one cell across to wider than the grid (cells is the diameter in cells)
    bounds = UNIT if unit else bounds
    n = 1 << level
    w = bounds.side / n
    quads = scaled_quads(generate_cantor(alpha, depth), min(cells, 2.5 * n) * w)
    (x0, y0), side = bounds.corner, bounds.side
    isos = [Isometry(theta, reflect, (x0 + u * side, y0 + v * side)) for theta, reflect, u, v in motions]
    target = BoxGrid(bounds, level, random_bits(seed, level, density))
    schedule = ScaleSchedule.span(level - 2, level)
    kernel = boxdim._quad_hits

    def checked(xy, bounds, level, cells, occ):
        # K is read from occ: every moved leaf box, clipped to the grid, spans fewer than 2**K cells
        k = level - (len(occ) - 1).bit_length()
        lo, hi, _ = _index_ranges(xy.min(axis=2), xy.max(axis=2), np.array([[x0], [y0]]), w, n)
        assert (hi - lo).max() < 1 << k
        assert np.array_equal(occ, reference_downsample(target.bits, level, level - k))
        return kernel(xy, bounds, level, cells, occ)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boxdim, "_quad_hits", checked)
        counts = overlap_counts(target, quads, motions_of(isos), schedule)
    assert counts.tolist() == [list(per_trial_counts(target, quads, iso, schedule).values()) for iso in isos]


@pytest.mark.parametrize("level", [1, 6])
def test_quad_hits_reads_the_coarse_raster_it_is_given(level):
    target = BoxGrid(UNIT, level, random_bits(5, level, 0.5))
    quads = scaled_quads(generate_cantor(0.3, 2), 3.0)  # wider than the grid
    k = prune_halving(quads, target)
    occ = coarsened(target.bits, k)
    cells = np.flatnonzero(target.bits)
    values = occ.copy(), cells.copy()
    moved = np.stack([Isometry(0.4 * i, i % 2 == 1, (0.1 * i - 1.0, -0.6)).apply(quads) for i in range(5)])
    hits = geometry._quad_hits(coordinate_major(moved), UNIT, level, cells, occ)
    t, c = np.concatenate([np.stack(block) for block in hits], axis=1)
    assert occ.shape == (1 << level - k,) * 2 and k == min(level, 5)
    assert np.array_equal(occ, values[0]) and np.array_equal(cells, values[1])
    # the cells met are the raster's occupied cells, trial by trial
    for i, trial in enumerate(moved):
        raster = rasterize_quads(trial, UNIT, level).bits & target.bits
        assert sorted(set(c[t == i].tolist())) == np.flatnonzero(raster).tolist()
    assert len(t)


def test_scoring_leaves_the_target_grid_a_plain_value():
    approx = generate_cantor(0.315, 5)
    grid = rasterize(approx.leaf_corners(), UNIT, 8, side=approx.side)
    before = grid.bits.copy()
    isos = [Isometry(0.3 * i, i % 2 == 1, (0.05 * i, 0.5 - 0.02 * i)) for i in range(20)]
    assert overlap_counts(grid, scaled_quads(approx, 0.4), motions_of(isos), ScaleSchedule.span(3, 8)).any()
    assert mattila_survey(grid, generate_cantor(alpha_for_dimension(1.7), 4), 25, seed=11).hits
    assert set(vars(grid)) == {"bounds", "level", "bits"}
    assert np.array_equal(grid.bits, before) and not grid.bits.flags.writeable


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
    # a limit below one quad's box splits its rows into blocks of (quad, cell)
    # pairs; below the group's total it splits congruent quads' rows
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
        band = min(bh, max(1, DENSE_BLOCK_LIMIT // bw))  # rows per block
        per = max(1, DENSE_BLOCK_LIMIT // (bw * band))  # quads per block
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
    full = rasterize_quads(quads, bounds, level).bits.copy()
    ref_cells, ref_bits = reference_rasterize_quads_window(quads, bounds, level, align)
    assert np.array_equal(full[ref_cells], ref_bits)
    full[ref_cells] = False
    assert not full.any()
    cells, bits = dense_window(quads, bounds, level, align)
    assert cells == ref_cells
    assert np.array_equal(bits, ref_bits)


# The per-trial SAT-constant loop that ``geometry._sat_limits`` replaced, its body kept verbatim
# (the kept quads now come in as an argument): each trial's kept quads share quad 0's constants,
# moved by their own offsets, when its quads are congruent; otherwise each takes its own.


def reference_sat_slots(moved, kept, w):
    """(K, 2, 6) SAT constants of the quads ``kept`` (t * N + i, sorted) of ``moved``, (T, N, 4, 2)."""
    trials, count = moved.shape[:2]
    quads = moved.reshape(-1, 4, 2)
    e = np.stack([moved[:, :, v, c] - moved[:, :, 0, c] for v in (1, 3) for c in (0, 1)], axis=1)
    congruent = (count == 1) | (e.max(2, initial=-np.inf) - e.min(2, initial=np.inf) < 1e-12).all(axis=1)
    slots = [np.zeros((0, 2, 6))]
    for t in range(trials):
        idx = kept[kept // count == t]
        for ref, members in [(t * count, idx)] if congruent[t] else [(i, [i]) for i in idx]:
            # per member and edge: unit axis, a cell's projection offsets, the member's span
            out = np.tile([0.0, 0.0, 0.0, 0.0, -np.inf, np.inf], (len(members), 2, 1))
            slots.append(out)
            for j, edge in enumerate((quads[ref, 1] - quads[ref, 0], quads[ref, 3] - quads[ref, 0])):
                norm = np.linalg.norm(edge)
                axis = edge / norm if norm > 0.0 else edge
                if norm > 0.0 and min(abs(axis[0]), abs(axis[1])) >= 1e-12:
                    rel = quads[ref] @ axis
                    off = (quads[members, 0] - quads[ref, 0]) @ axis
                    out[:, j, :4] = (axis[0], axis[1], w * (min(axis[0], 0.0) + min(axis[1], 0.0)),
                                     w * (max(axis[0], 0.0) + max(axis[1], 0.0)))
                    out[:, j, 4] = off + rel.min()
                    out[:, j, 5] = off + rel.max()
    return np.concatenate(slots)


#: Turns of a trial: any angle, quarter turns (whose edges lie within 1e-12 of an axis
#: without snapping), exact axis turns, and turns of less than 1e-12 off a quarter turn.
turns = st.one_of(st.floats(0.0, 2 * math.pi), st.sampled_from([k * math.pi / 2 for k in range(4)]),
                  st.just(0.0), st.builds(lambda k, d: k * math.pi / 2 + d, st.integers(0, 3),
                                          st.sampled_from([-9e-13, -1e-13, 3e-13, 1e-12, 2e-12])))
#: Quads of a trial: congruent squares; the same moved by up to 3e-14 to 3e-12 per vertex,
#: which puts the edge spread on both sides of the 1e-12 congruence threshold; squares of
#: unequal sides; and squares with some edges or whole quads collapsed to a point.
quad_kinds = st.sampled_from(["congruent", "jittered", "unequal", "collapsed"])


def trial_quads(rng, count, turn, reflect, scale, kind, snap=False):
    """``count`` quads of one trial, (count, 4, 2): squares turned and placed at random.

    ``snap`` turns them by ``Isometry``'s snapped matrix; otherwise the rotation is unsnapped,
    and its quarter turns leave edges within 1e-12 of an axis.
    """
    c, s = math.cos(turn), math.sin(turn)
    g = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0 if reflect else 1.0])
    if snap:
        g = Isometry(turn, reflect, (0.0, 0.0)).matrix()
    sides = scale * (rng.uniform(0.2, 1.0, count) if kind == "unequal" else np.ones(count))
    quads = squares_to_quads(np.zeros((count, 2)), 1.0) * sides[:, None, None]
    quads = quads @ g.T + rng.uniform(-10 * scale, 10 * scale, (count, 1, 2))
    if kind == "jittered":
        quads += rng.uniform(-1.0, 1.0, quads.shape) * 10.0 ** rng.uniform(-13.5, -11.5)
    elif kind == "collapsed":  # a zero-length first edge, then a quad of four equal vertices
        quads[0, 1] = quads[0, 0]
        quads[count // 2] = quads[count // 2, 0]
    return quads


@SETTINGS
@given(trials=st.lists(st.tuples(turns, st.booleans(), st.floats(1e-4, 10.0), quad_kinds,
                                 st.booleans()), min_size=1, max_size=4),
       count=st.integers(1, 12), w=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.2, 0.7, 1.0]))
# an axis-aligned trial, one turned less than 1e-12 off a quarter turn and a snapped quarter
# turn; then a congruent trial beside collapsed, unequal and jittered ones
@example(trials=[(0.0, False, 1.0, "congruent", False),
                 (math.pi / 2 + 3e-13, True, 0.5, "congruent", False),
                 (math.pi / 2, True, 0.5, "congruent", True)],
         count=5, w=0.125, seed=0, density=1.0)
@example(trials=[(0.3, False, 1e-4, "congruent", False), (2.0, True, 10.0, "collapsed", False),
                 (1.0, False, 0.1, "unequal", True), (4.0, True, 1.0, "jittered", False)],
         count=9, w=0.01, seed=1, density=0.7)
def test_sat_limits_equal_per_trial_loop(trials, count, w, seed, density):
    # one table row per reference quad, gathered per kept quad, must give every float of
    # the per-trial loop: the stacked norm and rel products and the per-trial offset gemv
    rng = np.random.default_rng(seed)
    moved = np.stack([trial_quads(rng, count, *trial) for trial in trials])
    kept = np.flatnonzero(rng.random(len(trials) * count) < density)
    tests = geometry._sat_limits(coordinate_major(moved), kept, w)
    expected = reference_sat_slots(moved, kept, w).transpose(1, 2, 0)
    # only the edges some kept quad tests are built; every other edge tests nothing
    used = [lim[0].any() for lim in expected]
    assert len(tests) == sum(used)
    assert all(np.array_equal(a, b) for a, b in zip(tests, expected[used]))
    assert (expected[~np.array(used)].transpose(0, 2, 1) == (0, 0, 0, 0, -np.inf, np.inf)).all()


@settings(max_examples=300, deadline=None)
@given(count=st.integers(1, 40), turn=turns, reflect=st.booleans(), scale=st.floats(1e-4, 10.0),
       kind=quad_kinds, snap=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_norm_and_projection_equal_per_quad_products(count, turn, reflect, scale, kind,
                                                             snap, seed):
    # _sat_limits' forms over (R, 4, 2) reference quads: the edge norms as one stacked
    # (1, 2) @ (2, 1) product (a ddot each, as np.linalg.norm takes it) and the vertex
    # projections as one stacked (4, 2) @ (2, 1) product (a gemv each); every float must
    # equal the per-quad call, where the elementwise forms differ in the last place
    quads = np.ascontiguousarray(trial_quads(np.random.default_rng(seed), count, turn, reflect,
                                             scale, kind, snap))
    edge = quads[:, 1::2] - quads[:, :1]
    norm = np.sqrt(edge[..., None, :] @ edge[..., None])[..., 0]
    assert np.array_equal(norm[..., 0], [[np.linalg.norm(e) for e in pair] for pair in edge])
    axis = edge / np.where(norm > 0.0, norm, 1.0)
    rel = (quads[:, None] @ axis[..., None])[..., 0]
    for r in range(count):
        for j in (0, 1):
            assert np.array_equal(rel[r, j], quads[r] @ axis[r, j])


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(st.tuples(st.one_of(st.floats(0.0, 2 * math.pi),
                                          st.sampled_from([k * math.pi / 2 for k in range(4)])),
                                st.booleans(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                      min_size=1, max_size=6),
       count=st.integers(1, 300), scale=st.floats(1e-4, 10.0), seed=st.integers(0, 2**32 - 1),
       limit=st.sampled_from([None, 1, 700]))
def test_block_move_equals_apply_per_trial(batch, count, scale, seed, limit):
    # overlap_counts moves a block of trials by one stacked (2, 2) @ (2, 4N) product on the
    # coordinate rows; each trial must equal Isometry.apply of the quads, float for float
    quads = np.random.default_rng(seed).uniform(-scale, scale, (count, 4, 2))
    isos = [Isometry(theta, reflect, (u, v)) for theta, reflect, u, v in batch]
    grid = BoxGrid(Square((-50.0, -50.0), 100.0), 2, np.ones((4, 4), dtype=bool))  # every trial live
    kernel, moved = boxdim._quad_hits, []

    def captured(xy, *args):
        moved.append(xy.copy())
        return kernel(xy, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boxdim, "_quad_hits", captured)
        if limit is not None:
            patch.setattr(boxdim, "_MOVE_LIMIT", limit)
        overlap_counts(grid, quads, motions_of(isos), ScaleSchedule.span(0, 2))
    xy = np.concatenate(moved)
    assert xy.shape == (len(isos), 2, 4, count)
    for iso, got in zip(isos, xy):
        assert np.array_equal(got, coordinate_major(iso.apply(quads)[None])[0])
