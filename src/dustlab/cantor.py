"""Four-corner Cantor dust: approximant generation, dimension formulas, placement.

The dust with ratio alpha is the attractor of the four contractions that
map the unit square onto its corner subsquares of side alpha.  The depth-n
approximant is the union of the 4**n generation-n squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError
from .geometry import SQRT2, Alpha, Isometry, as_alpha, freeze, squares_to_quads

#: Generation is refused once it would materialize more than this many squares.
ADDRESS_BUDGET = 1 << 24


@dataclass(frozen=True, eq=False)
class CantorApproximant:
    """All generation-n squares of the dust, in lexicographic address order."""

    alpha: Alpha
    depth: int
    codes: np.ndarray  # (4**depth, depth) uint8 quadrant codes

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_alpha(self.alpha))
        count = 4 ** self.depth
        codes = freeze(self.codes, np.uint8)
        if codes.size != count * self.depth:
            raise ParameterError(f"expected {count} addresses of depth {self.depth}, got {codes.shape}")
        object.__setattr__(self, "codes", codes.reshape(count, self.depth))

    @property
    def count(self) -> int:
        return len(self.codes)

    @property
    def side(self) -> float:
        """Side length of one generation-depth square."""
        return float(self.alpha) ** self.depth

    def leaf_corners(self) -> np.ndarray:
        """Lower-left corners of all generation-depth squares, shape (4**n, 2)."""
        return address_corners(self.codes, self.alpha)


def address_corners(codes: np.ndarray, alpha: Alpha | float) -> np.ndarray:
    """Lower-left corners of addressed squares, shape (N, 2).

    Each row of ``codes`` is one address, a word of quadrant codes
    (SW SE NW NE as 0 1 2 3).  Step k moves the corner by
    alpha**k - alpha**(k+1) along each axis whose bit the code sets; an
    address of n steps names a square of side alpha**n.
    """
    a = float(alpha)
    codes = np.asarray(codes, dtype=np.uint8)
    weights = np.array([a ** k - a ** (k + 1) for k in range(codes.shape[1])])
    x = ((codes & 1) * weights).sum(axis=1)
    y = (((codes >> 1) & 1) * weights).sum(axis=1)
    return np.column_stack((x, y))


def generate_cantor(alpha: Alpha | float, depth: int) -> CantorApproximant:
    """Enumerate the depth-n approximant.

    Addresses come out in lexicographic order (SW < SE < NW < NE per step)
    and the result is deterministic.  Raises BudgetError when 4**depth
    would exceed ``ADDRESS_BUDGET``.
    """
    alpha = as_alpha(alpha)
    _check_depth(depth)
    codes = np.empty((4 ** depth, depth), dtype=np.uint8)
    # row r is the base-4 expansion of r: axis k of this view is digit k
    digits = codes.reshape((4,) * depth + (depth,))
    for k in range(depth):
        digits[..., k] = np.arange(4, dtype=np.uint8).reshape((4,) + (1,) * (depth - 1 - k))
    codes.setflags(write=False)  # adopted by the approximant without a copy
    return CantorApproximant(alpha, depth, codes)


def interval_starts(alpha: Alpha | float, depth: int) -> np.ndarray:
    """Left ends of the 2**depth intervals of the 1-D approximant, ascending.

    The depth-n approximant is this 1-D approximant times itself.  The
    starts are ``address_corners`` of the 0/1 words in lexicographic order,
    so each equals, float for float, the x corner of the leaves in its column.
    Depths are refused as in ``generate_cantor``.
    """
    alpha = as_alpha(alpha)
    _check_depth(depth)
    bits = (np.arange(2 ** depth)[:, None] >> np.arange(depth - 1, -1, -1)) & 1
    return address_corners(bits.astype(np.uint8), alpha)[:, 0]


def _check_depth(depth: int) -> None:
    """Refuse a negative depth, or one whose 4**depth addresses exceed the budget."""
    budget = ADDRESS_BUDGET
    if depth < 0:
        raise ParameterError(f"depth must be nonnegative, got {depth}")
    if depth > budget.bit_length() or 4 ** depth > budget:  # no huge 4**depth is computed
        raise BudgetError(f"depth {depth} needs 4**{depth} addresses, over the budget of {budget}")


def cantor_dimension(alpha: Alpha | float) -> float:
    """Similarity dimension log 4 / log(1/alpha); strictly increasing in alpha."""
    return -math.log(4.0) / math.log(float(as_alpha(alpha)))


def alpha_for_dimension(d: float) -> Alpha:
    """Inverse of cantor_dimension: the ratio whose dust has dimension d."""
    if not (0.0 < d < 2.0):
        raise ParameterError(f"dimension must lie strictly between 0 and 2, got {d!r}")
    return Alpha(4.0 ** (-1.0 / d))


def scaled_quads(approximant: CantorApproximant, diameter: float) -> np.ndarray:
    """Leaf quads of a copy scaled to the requested diameter, not yet moved.

    The copy is scaled uniformly about the origin of its unit frame so the
    frame diagonal equals ``diameter``.  Returns an (N, 4, 2) array of
    corner quads; a search over motions builds it once per copy.
    """
    if not diameter > 0.0:
        raise ParameterError(f"diameter must be positive, got {diameter!r}")
    scale = diameter / SQRT2
    return squares_to_quads(approximant.leaf_corners() * scale, approximant.side * scale)


def scale_and_place(approximant: CantorApproximant, diameter: float, iso: Isometry) -> np.ndarray:
    """Scale a copy to the requested diameter and move it by an isometry.

    Every leaf quad of ``scaled_quads`` is mapped through ``iso``.  Returns
    the placed leaves as an (N, 4, 2) array of corner quads (rotations
    leave the axis-aligned square family).
    """
    return iso.apply(scaled_quads(approximant, diameter))
