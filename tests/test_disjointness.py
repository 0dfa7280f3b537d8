"""Exact copy disjointness: the paired descent against the pairwise leaf test.

``scalar_quads_disjoint`` is the one-pair SAT test that ``geometry.quads_disjoint``
was before it took arrays, and ``pairwise_disjoint`` is the loop over every
pair of leaves that ``composite._placements_disjoint`` ran whenever two
frames overlapped.  They stay here as the oracle of the array kernel and of
the paired descent of both copies' address trees.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustlab import composite
from dustlab.cantor import generate_cantor, scale_and_place
from dustlab.composite import CompositePlan, PlacementRecord, _placements_disjoint, check_plan
from dustlab.geometry import SQRT2, Isometry, quads_disjoint


def scalar_quads_disjoint(p: np.ndarray, q: np.ndarray) -> bool:
    """True when two convex quads share no point (closed sets, SAT test)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for poly in (p, q):
        edges = np.roll(poly, -1, axis=0) - poly
        for ex, ey in edges:
            axis = np.array([-ey, ex])
            norm = math.hypot(*axis)
            if norm == 0.0:
                continue
            pa = p @ axis
            qa = q @ axis
            if pa.max() < qa.min() or qa.max() < pa.min():
                return True
    return False


def pairwise_disjoint(a: np.ndarray, b: np.ndarray) -> bool:
    return not any(not scalar_quads_disjoint(qa, qb) for qa in a for qb in b)


def placed(alpha, depth, diameter, iso):
    return scale_and_place(generate_cantor(alpha, depth), diameter, iso)


def random_quads(rng, n, lattice):
    """Parallelograms, some collapsed to segments or points.

    On the integer lattice their projections are exact, so many pairs touch
    exactly; off it, corners and edges are arbitrary floats.
    """
    if lattice:
        corner = rng.integers(-3, 4, (n, 2)).astype(float)
        e1, e2 = (rng.integers(-2, 3, (n, 2)).astype(float) for _ in range(2))
    else:
        corner = rng.uniform(-1.0, 1.0, (n, 2))
        e1, e2 = (rng.uniform(-1.0, 1.0, (n, 2)) for _ in range(2))
    e1[rng.random(n) < 0.2] = 0.0
    e2[rng.random(n) < 0.2] = 0.0
    return np.stack([corner, corner + e1, corner + e1 + e2, corner + e2], axis=1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans())
def test_array_kernel_matches_scalar_pair_by_pair(seed, lattice):
    rng = np.random.default_rng(seed)
    p, q = random_quads(rng, 48, lattice), random_quads(rng, 48, lattice)
    assert quads_disjoint(p, q).tolist() == [scalar_quads_disjoint(a, b) for a, b in zip(p, q)]
    grid = quads_disjoint(p[:12, None], q[None, :12])  # pairs by broadcasting
    assert grid.tolist() == [[scalar_quads_disjoint(a, b) for b in q[:12]] for a in p[:12]]


def test_array_kernel_on_degenerate_quads():
    point = np.zeros((4, 2))
    segment = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cases = [(point, point), (point, point + 1e-9), (point, square), (point + 2.0, square),
             (segment, square), (segment + [0.0, 1.0], square), (segment + [0.0, 1.5], square),
             (segment, segment), (segment, segment[:, ::-1]), (segment + [1.0, 0.0], segment)]
    p, q = (np.array(side) for side in zip(*cases))
    assert quads_disjoint(p, q).tolist() == [scalar_quads_disjoint(a, b) for a, b in cases]


FRAME = 1.0 / SQRT2  # frame side of a copy of diameter 1


@settings(max_examples=120, deadline=None)
@given(alpha_a=st.floats(0.05, 0.49), alpha_b=st.floats(0.05, 0.49),
       depth_a=st.integers(0, 3), depth_b=st.integers(0, 3),
       diameter_b=st.floats(0.2, 1.5), turn_a=st.integers(0, 3), turn_b=st.integers(0, 3),
       reflect_a=st.booleans(), reflect_b=st.booleans(),
       dx=st.floats(-1.2, 1.2), dy=st.floats(-1.2, 1.2))
# edges that touch exactly: a shift by the exact frame side of dyadic copies
@example(alpha_a=0.25, alpha_b=0.25, depth_a=2, depth_b=3, diameter_b=1.0, turn_a=0, turn_b=0,
         reflect_a=False, reflect_b=False, dx=FRAME, dy=0.0)
@example(alpha_a=0.25, alpha_b=0.25, depth_a=3, depth_b=3, diameter_b=1.0, turn_a=1, turn_b=0,
         reflect_a=True, reflect_b=False, dx=0.0, dy=-FRAME)
# and at alpha = 0.3, where the far leaf edges are rounded sums
@example(alpha_a=0.3, alpha_b=0.3, depth_a=3, depth_b=3, diameter_b=1.0, turn_a=0, turn_b=0,
         reflect_a=False, reflect_b=False, dx=FRAME, dy=0.2)
@example(alpha_a=0.3, alpha_b=0.3, depth_a=2, depth_b=3, diameter_b=1.0, turn_a=0, turn_b=2,
         reflect_a=False, reflect_b=False, dx=2 * FRAME, dy=FRAME)
# one float step apart: the leaf test rounds the gap away, so the copies meet
@example(alpha_a=0.4, alpha_b=0.4, depth_a=2, depth_b=2, diameter_b=1.0, turn_a=0, turn_b=0,
         reflect_a=False, reflect_b=False, dx=math.nextafter(FRAME, 1.0), dy=0.0)
# equal copies
@example(alpha_a=0.3, alpha_b=0.3, depth_a=3, depth_b=3, diameter_b=1.0, turn_a=1, turn_b=1,
         reflect_a=True, reflect_b=True, dx=0.0, dy=0.0)
# frames that overlap while no leaves do: the second copy sits in the first's central gap
@example(alpha_a=0.3, alpha_b=0.3, depth_a=3, depth_b=3, diameter_b=1.0, turn_a=0, turn_b=0,
         reflect_a=False, reflect_b=False, dx=0.35 * FRAME, dy=0.0)
@example(alpha_a=0.3, alpha_b=0.2, depth_a=3, depth_b=1, diameter_b=0.25, turn_a=0, turn_b=0,
         reflect_a=False, reflect_b=False, dx=0.3 * FRAME, dy=0.3 * FRAME)
def test_descent_matches_pairwise_leaves(alpha_a, alpha_b, depth_a, depth_b, diameter_b,
                                         turn_a, turn_b, reflect_a, reflect_b, dx, dy):
    a = placed(alpha_a, depth_a, 1.0, Isometry(turn_a * math.pi / 2, reflect_a, (0.0, 0.0)))
    b = placed(alpha_b, depth_b, diameter_b, Isometry(turn_b * math.pi / 2, reflect_b, (dx, dy)))
    assert _placements_disjoint([a, b]) == pairwise_disjoint(a, b)
    assert _placements_disjoint([b, a]) == pairwise_disjoint(a, b)


@pytest.mark.parametrize("shift, disjoint", [(1.0, False), (0.35, True), (0.0, False)])
def test_dyadic_copies_meet_exactly_where_expected(shift, disjoint):
    # at diameter sqrt 2 the frame side is 1 and the alpha = 1/4 leaves have
    # dyadic corners, so copies one frame side apart touch along whole edges
    a, b = (placed(0.25, 3, SQRT2, Isometry(0.0, False, (x, 0.0))) for x in (0.0, shift))
    assert _placements_disjoint([a, b]) is disjoint


def gap_plan(depth, shift):
    """Two alpha = 0.3 copies of one diameter, the second moved right by ``shift`` frame sides."""
    diameter = 0.02
    side = diameter / SQRT2
    copies = tuple(PlacementRecord(index, 0.3, depth, diameter,
                                   Isometry(0.0, False, (0.5 + x * side, 0.5)), 0.0)
                   for index, x in ((2, 0.0), (4, shift)))
    return CompositePlan((0.5, 0.5), (0.4, 0.2, 0.1, 0.05, 0.025), (1.0, 1.1, 1.2, 1.3),
                         (1.75, 1.8, 1.85, 1.9), copies)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count ``composite``'s calls of the kernel; any call after the 10**4th raises."""
    calls = []

    def counted(p, q):
        calls.append(1)
        if len(calls) > 10**4:
            raise AssertionError("disjointness check stalled")
        return quads_disjoint(p, q)

    monkeypatch.setattr(composite, "quads_disjoint", counted)
    return calls


def test_frames_overlapping_at_depth_8_do_not_stall(kernel_calls):
    # 4**16 leaf pairs: a test of every pair would stall, the descent makes one call per generation
    depth = 8
    assert check_plan(gap_plan(depth, 0.35)) == []
    assert len(kernel_calls) <= depth + 1


def test_equal_copies_at_depth_8_overlap(kernel_calls):
    depth = 8
    assert check_plan(gap_plan(depth, 0.0)) == ["placed copies are not pairwise disjoint"]
    assert len(kernel_calls) <= depth + 1
