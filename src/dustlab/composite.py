"""Composite construction: dimension-rich annuli, dust placement, assembly.

Around a point p whose neighborhoods keep the full dimension of E, a
nested chain of concentric open squares S_1 > S_2 > ... defines annuli
R_n = S_n minus S_{n+1}.  Every other annulus receives a Cantor-dust copy
whose dimension b_n satisfies 2 - d_n < b_n < 2 and b_n > 3/2, scaled
below half the width of both neighboring odd annuli so distinct copies
can never touch, and placed by a randomized isometry search that
maximizes the measured dimension of copy-with-E overlap inside the
annulus.  The union G of the placed copies plus p meets E in the subset
E' = G n E whose dimension estimate the report compares against E's.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .boxdim import (DimensionEstimate, ScaleSchedule, box_counts,
                     estimate_dimension, find_full_dimension_point, overlap_counts)
from .cantor import (alpha_for_dimension, generate_cantor, placed_frame,
                     scale_and_place, scaled_quads)
from .errors import AssemblyError, ConstructionError, ParameterError, PlacementError
from .geometry import (BoxGrid, Isometry, Square, grid_intersection,
                       quads_disjoint, rasterize_quads)
from .intersect import sample_isometry
from .parallel import check_jobs, parallel_map

#: Copies are generated no deeper than this many subdivision steps.
MAX_COPY_DEPTH = 8
#: Fraction of the admissible maximum used as the actual copy diameter,
#: keeping the strict diameter inequality robust to replay arithmetic.
DIAMETER_SAFETY = 0.999
#: Shape of the target dimensions: d_n = dim E * (1 - D_SHAPE / (n + 1)).
D_SHAPE = 0.7


@dataclass(frozen=True)
class AnnulusChain:
    """Concentric square shells around a center point.

    half_widths holds K+1 strictly decreasing values; annulus n (1-based)
    is the set of points with Chebyshev distance to the center in
    [half_widths[n], half_widths[n-1]).
    """

    center: tuple[float, float]
    half_widths: tuple[float, ...]

    def __post_init__(self) -> None:
        hw = tuple(float(r) for r in self.half_widths)
        if len(hw) < 2 or any(b >= a for a, b in zip(hw, hw[1:])) or hw[-1] <= 0:
            raise ParameterError("half widths must be strictly decreasing and positive")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "half_widths", hw)

    @property
    def count(self) -> int:
        return len(self.half_widths) - 1

    def width(self, n: int) -> float:
        return self.half_widths[n - 1] - self.half_widths[n]

    def annulus_mask(self, grid: BoxGrid, n: int) -> np.ndarray:
        d = _cheb_distances(grid, self.center)
        return (d >= self.half_widths[n]) & (d < self.half_widths[n - 1])


@dataclass(frozen=True)
class PlacementRecord:
    """One accepted dust copy: its parameters, motion, and measured slope."""

    index: int
    alpha: float
    depth: int
    diameter: float
    iso: Isometry
    slope: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "alpha": self.alpha,
            "depth": self.depth,
            "diameter": self.diameter,
            "theta": self.iso.theta,
            "reflect": self.iso.reflect,
            "z": list(self.iso.z),
            "slope": self.slope,
        }


@dataclass(frozen=True)
class CompositePlan:
    """Everything needed to replay the construction's geometric predicates."""

    center: tuple[float, float]
    half_widths: tuple[float, ...]
    d_seq: tuple[float, ...]
    b_seq: tuple[float, ...]
    placements: tuple[PlacementRecord, ...]

    def to_json(self) -> str:
        doc = {
            "center": list(self.center),
            "half_widths": list(self.half_widths),
            "d_seq": list(self.d_seq),
            "b_seq": list(self.b_seq),
            "placements": [p.to_dict() for p in self.placements],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "CompositePlan":
        doc = json.loads(text)
        placements = tuple(
            PlacementRecord(
                int(p["index"]), float(p["alpha"]), int(p["depth"]), float(p["diameter"]),
                Isometry(float(p["theta"]), bool(p["reflect"]), tuple(p["z"])),
                float(p["slope"]),
            )
            for p in doc["placements"]
        )
        return CompositePlan(tuple(doc["center"]), tuple(doc["half_widths"]),
                             tuple(doc["d_seq"]), tuple(doc["b_seq"]), placements)


@dataclass(frozen=True)
class ConstructionReport:
    dim_e: DimensionEstimate
    dim_eprime: DimensionEstimate
    annulus_slopes: dict[int, float]
    disjoint: bool
    containment: bool

    def csv_lines(self) -> list[str]:
        lines = ["metric,value"]
        lines.append(f"dim_e_slope,{self.dim_e.slope:.12g}")
        lines.append(f"dim_e_r2,{self.dim_e.r2:.12g}")
        lines.append(f"dim_eprime_slope,{self.dim_eprime.slope:.12g}")
        lines.append(f"dim_eprime_r2,{self.dim_eprime.r2:.12g}")
        for idx in sorted(self.annulus_slopes):
            lines.append(f"annulus_{idx}_slope,{self.annulus_slopes[idx]:.12g}")
        lines.append(f"copies_disjoint,{int(self.disjoint)}")
        lines.append(f"subset_of_e,{int(self.containment)}")
        return lines


@dataclass(frozen=True)
class PipelineResult:
    plan: CompositePlan
    g_grid: BoxGrid
    eprime: BoxGrid
    report: ConstructionReport


def _cheb_distances(grid: BoxGrid, center) -> np.ndarray:
    w = grid.cell_size
    x0, y0 = grid.bounds.corner
    xs = x0 + (np.arange(grid.size) + 0.5) * w
    ys = y0 + (np.arange(grid.size) + 0.5) * w
    return np.maximum(np.abs(ys[:, None] - center[1]), np.abs(xs[None, :] - center[0]))


def _masked(grid: BoxGrid, mask: np.ndarray) -> BoxGrid:
    return BoxGrid.adopt(grid.bounds, grid.level, grid.bits & mask)


def _slice_estimate(counts: dict[int, int], schedule: ScaleSchedule,
                    side: float) -> DimensionEstimate:
    """Slope of a concentrated slice, fitted over all of its resolved levels.

    The default window trim is meant for full-size sets; for thin slices
    the finest raster levels carry the structure, so the fit keeps them.
    """
    return estimate_dimension(counts, window=(schedule.levels[0], schedule.levels[-1]), side=side)


def _union_estimate(grid: BoxGrid, extent: float) -> DimensionEstimate:
    """Slope of a union of copies whose largest member has the given extent.

    At the level whose cells match the copy diameter each copy shows up as
    a cell or two (the placement layout, not the copies' structure), so
    the fit starts one level finer and runs to the raster resolution.
    """
    lo = ScaleSchedule.resolving(grid, extent, finer=1).levels[0]
    counts = box_counts(grid, ScaleSchedule.span(2, grid.level))
    return estimate_dimension(counts, window=(lo, grid.level), side=grid.bounds.side)


def build_annuli(E: BoxGrid, p, d_seq, min_mass: int) -> AnnulusChain:
    """Shrink radii geometrically until each annulus carries enough of E.

    Each step halves the inner radius until the annulus holds at least
    ``min_mass`` occupied cells and its slice of E fits a slope of at
    least d_n - 0.1.  Failure at any index raises ConstructionError
    naming it.
    """
    d_seq = [float(d) for d in d_seq]
    if not d_seq or any(not 0.0 < d < 2.0 for d in d_seq):
        raise ParameterError(f"d sequence must lie in (0, 2), got {d_seq}")
    if any(b <= a for a, b in zip(d_seq, d_seq[1:])):
        raise ParameterError(f"d sequence must be strictly increasing, got {d_seq}")
    if not E.bounds.contains_point(p):
        raise ParameterError(f"center {tuple(p)} lies outside the grid bounds")

    x0, y0 = E.bounds.corner
    x1, y1 = E.bounds.max_corner
    clearance = min(p[0] - x0, x1 - p[0], p[1] - y0, y1 - p[1])
    cell = E.cell_size
    r = 0.95 * clearance
    if r < 2.0 * cell:
        raise ConstructionError("annulus 1: center too close to the bounds to fit any shell")

    cheb = _cheb_distances(E, p)
    radii = [r]
    for n, d_n in enumerate(d_seq, start=1):
        r_out = radii[-1]
        chosen = None
        r_in = r_out / 2.0
        while r_in >= cell:
            mask = (cheb >= r_in) & (cheb < r_out)
            mass = int(np.count_nonzero(E.bits & mask))
            if mass >= min_mass:
                schedule = ScaleSchedule.resolving(E, r_out - r_in)
                est = _slice_estimate(box_counts(_masked(E, mask), schedule), schedule,
                                      E.bounds.side)
                if est.slope >= d_n - 0.1:
                    chosen = r_in
                    break
            r_in /= 2.0
        if chosen is None:
            raise ConstructionError(
                f"annulus {n}: no inner radius gives mass >= {min_mass} and slope >= {d_n - 0.1:.4g}")
        radii.append(chosen)
    return AnnulusChain((float(p[0]), float(p[1])), tuple(radii))


def choose_b_sequence(d_seq) -> tuple[float, ...]:
    """Dust dimensions for the even annuli: b_n = 2 - min(d_n, 1/2, 1/(n+1))/2.

    The shrinking correction keeps every constraint checkable:
    it stays below d_n (so b_n > 2 - d_n), below 1/4 (so b_n > 3/2),
    and it vanishes, driving b_n toward 2.
    """
    b = []
    for n, d_n in enumerate((float(d) for d in d_seq), start=1):
        if not 0.0 < d_n < 2.0:
            raise ParameterError(f"d values must lie in (0, 2), got {d_n}")
        c_n = min(d_n, 0.5, 1.0 / (n + 1)) / 2.0
        b.append(2.0 - c_n)
    return tuple(b)


def _copy_depth(alpha: float, diameter: float, cell: float) -> int:
    """Deep enough that scaled leaves shrink to cell size, within budget."""
    target = cell * math.sqrt(2.0) / diameter
    if target >= 1.0:
        return 1
    depth = int(math.ceil(math.log(target) / math.log(alpha)))
    return max(1, min(depth, MAX_COPY_DEPTH))


def placement_diameter(chain: AnnulusChain, index: int) -> float:
    """Largest admissible copy diameter for an even annulus.

    Stays strictly below half the width of both neighboring odd annuli
    (the outer one alone for the last annulus, which has no inner even
    neighbor left to protect).
    """
    if index % 2 != 0 or not 2 <= index <= chain.count:
        raise ParameterError(f"placement index must be an even annulus index, got {index}")
    limits = [chain.width(index - 1)]
    if index + 1 <= chain.count:
        limits.append(chain.width(index + 1))
    return DIAMETER_SAFETY * min(limits) / 2.0


def place_cantor_in_annulus(E: BoxGrid, chain: AnnulusChain, index: int, b: float,
                            trials: int, seed: int) -> PlacementRecord:
    """Randomized isometry search for one dust copy inside an even annulus.

    The copy gets the largest admissible diameter (just under half the
    width of the neighboring odd annuli), and the search keeps the motion
    whose copy meets the annulus slice of E with the best measured slope.
    The slope fit spans the scales that resolve the largest copy diameter
    of any even annulus of the chain, so slopes of copies in different
    annuli stay comparable.  Raises ParameterError when ``trials`` is
    below 1 and PlacementError when every trial misses.
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    diameter = placement_diameter(chain, index)
    if not diameter > 0.0:
        raise ParameterError(f"annulus {index} leaves no room for a copy")

    alpha = alpha_for_dimension(b)
    depth = _copy_depth(float(alpha), diameter, E.cell_size)
    quads = scaled_quads(generate_cantor(alpha, depth), diameter)

    slice_grid = _masked(E, chain.annulus_mask(E, index))
    if slice_grid.is_empty():
        raise PlacementError(f"annulus {index} holds no cells of the target set")
    extent = max(placement_diameter(chain, i) for i in range(2, chain.count + 1, 2))
    schedule = ScaleSchedule.resolving(E, extent)
    window_half = chain.half_widths[index - 1] + 1.5 * diameter
    window = Square.centered(chain.center, window_half)

    best: tuple[float, Isometry] | None = None
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        iso = sample_isometry(rng, window)
        counts = overlap_counts(slice_grid, quads, iso, placed_frame(diameter, iso), schedule)
        est = _slice_estimate(counts, schedule, E.bounds.side)
        if not est.empty and (best is None or est.slope > best[0] + 1e-12):
            best = (est.slope, iso)
    if best is None:
        raise PlacementError(f"annulus {index}: no trial intersected the annulus slice of the set")
    return PlacementRecord(index, float(alpha), depth, diameter, best[1], best[0])


def _placements_disjoint(leaves) -> bool:
    """True when no two copies, given by their placed leaf quads in address order, share a point."""
    def bounds(quads, index, g):  # vertex k from the leaf coded (0, 1, 3, 2)[k] below each square
        m = max((len(quads).bit_length() - 1) // 2 - g, 0)  # generations down to the leaves
        first, step = index * 4 ** m, (4 ** m - 1) // 3
        q = np.stack([quads[first + c * step, k] for k, c in enumerate((0, 1, 3, 2))], axis=1)
        # it holds every leaf below; widened one float step, a gap that the leaf test rounds away stays
        return q if m == 0 else np.nextafter(q, np.copysign(np.inf, 2 * q - q[:, :1] - q[:, 2:3]))

    def meet(a, b, g, ia, ib) -> bool:  # Gray & Moore's paired descent from squares ia, ib of generation g
        keep = ~quads_disjoint(bounds(a, ia, g), bounds(b, ib, g))
        ka, kb = (4 if len(q) > 4 ** g else 1 for q in (a, b))  # children 4i + c; none at the leaves
        if ka * kb == 1 or not keep.any():
            return bool(keep.any())
        ia, ib = (x.ravel() for x in np.broadcast_arrays(
            ka * ia[keep, None, None] + np.arange(ka)[:, None], kb * ib[keep, None, None] + np.arange(kb)))
        size = max(len(a), len(b))  # no kernel call takes more pairs than a copy has leaves
        return any(meet(a, b, g + 1, ia[s:s + size], ib[s:s + size]) for s in range(0, len(ia), size))

    root = np.zeros(1, dtype=np.int64)
    return not any(meet(a, b, 0, root, root) for a, b in itertools.combinations(leaves, 2))


def assemble_composite(E: BoxGrid, chain: AnnulusChain, placements):
    """Union the placed copies (plus the center cell) and intersect with E.

    Returns (G, E', report).  Raises AssemblyError when the exact
    geometric disjointness check fails, which indicates a diameter
    constraint was violated upstream.
    """
    placements = list(placements)
    if not placements:
        raise ParameterError("need at least one placement to assemble")
    leaves = [scale_and_place(generate_cantor(p.alpha, p.depth), p.diameter, p.iso) for p in placements]
    bits = np.zeros_like(E.bits)
    for quads in leaves:
        bits |= rasterize_quads(quads, E.bounds, E.level).bits
    ix, iy = E.point_cell(chain.center)
    bits[iy, ix] = True
    if not _placements_disjoint(leaves):
        raise AssemblyError("placed copies overlap; diameter constraints were not honored")

    g_grid = BoxGrid.adopt(E.bounds, E.level, bits)
    eprime = grid_intersection(g_grid, E)

    dim_e = estimate_dimension(box_counts(E, ScaleSchedule.default_for(E)), side=E.bounds.side)
    dim_eprime = _union_estimate(eprime, max(p.diameter for p in placements))
    containment = bool(np.all(~eprime.bits | E.bits))
    report = ConstructionReport(
        dim_e=dim_e,
        dim_eprime=dim_eprime,
        annulus_slopes={p.index: p.slope for p in placements},
        disjoint=True,
        containment=containment,
    )
    return g_grid, eprime, report


def _copy_issues(p: PlacementRecord) -> list[str]:
    """Fields of a placement that lie outside what the program places; builds no leaf."""
    issues = []
    if not 0.0 < p.alpha < 0.5:
        issues.append(f"copy {p.index} ratio {p.alpha:.6g} is not in (0, 1/2)")
    if not 0 <= p.depth <= MAX_COPY_DEPTH:
        issues.append(f"copy {p.index} depth {p.depth} is not in 0..{MAX_COPY_DEPTH}")
    if not 0.0 < p.diameter < math.inf:
        issues.append(f"copy {p.index} diameter {p.diameter:.6g} is not finite and positive")
    for name, value in (("theta", p.iso.theta), ("z[0]", p.iso.z[0]), ("z[1]", p.iso.z[1]),
                        ("slope", p.slope)):
        if not math.isfinite(value):
            issues.append(f"copy {p.index} {name} {value} is not finite")
    return issues


def check_plan(plan: CompositePlan) -> list[str]:
    """Independent replay of every constraint a plan promises.

    Returns human-readable violation strings and never raises; an empty
    list means that there is one d and one b value per annulus, the
    b-sequence bounds hold, every copy sits in an even annulus under its
    diameter bound with parameters the program could have chosen, and no
    two copies share a point.  Copies whose parameters are out of range
    are reported before any leaf is built and left out of the
    disjointness replay.
    """
    issues = []
    K = len(plan.half_widths) - 1
    for name, seq in (("d", plan.d_seq), ("b", plan.b_seq)):
        if len(seq) != K:
            issues.append(f"{name} sequence has {len(seq)} entries for {K} annuli")
    for n, (d_n, b_n) in enumerate(zip(plan.d_seq, plan.b_seq), start=1):
        if not 2.0 - d_n < b_n:
            issues.append(f"b[{n}] = {b_n:.6g} is not above 2 - d = {2.0 - d_n:.6g}")
        if not b_n < 2.0:
            issues.append(f"b[{n}] = {b_n:.6g} is not below 2")
        if not b_n > 1.5:
            issues.append(f"b[{n}] = {b_n:.6g} is not above 3/2")
    if any(b >= a for a, b in zip(plan.half_widths, plan.half_widths[1:])):
        issues.append("half widths are not strictly decreasing")
    widths = [plan.half_widths[i] - plan.half_widths[i + 1] for i in range(K)]
    replayed = []
    for p in plan.placements:
        if p.index % 2 != 0 or not 2 <= p.index <= K:
            issues.append(f"copy index {p.index} is not an even annulus index in 2..{K}")
        else:
            limits = [widths[p.index - 2]]
            if p.index < K:
                limits.append(widths[p.index])
            bound = min(limits) / 2.0
            if not p.diameter < bound:
                issues.append(f"copy {p.index} diameter {p.diameter:.6g} is not below {bound:.6g}")
        out_of_range = _copy_issues(p)
        issues += out_of_range
        if not out_of_range:
            replayed.append(p)
    if not _placements_disjoint([scale_and_place(generate_cantor(p.alpha, p.depth), p.diameter, p.iso)
                                 for p in replayed]):
        issues.append("placed copies are not pairwise disjoint")
    return issues


def _single_point_result(E: BoxGrid, dim_e: DimensionEstimate) -> PipelineResult:
    iy, ix = np.argwhere(E.bits)[0]
    bits = np.zeros_like(E.bits)
    bits[iy, ix] = True
    eprime = BoxGrid.adopt(E.bounds, E.level, bits)
    point = E.cell_center(int(ix), int(iy))
    counts = box_counts(eprime, ScaleSchedule.default_for(E))
    dim_ep = estimate_dimension(counts, side=E.bounds.side)
    plan = CompositePlan(point, (E.bounds.side / 2.0,), (), (), ())  # no annuli
    report = ConstructionReport(dim_e, dim_ep, {}, True, True)
    return PipelineResult(plan, eprime, eprime, report)


def run_pipeline(E: BoxGrid, annuli: int = 6, trials: int = 480, seed: int = 0,
                 min_mass: int = 24, jobs: int = 1) -> PipelineResult:
    """End-to-end construction of E' = G n E for a rasterized compact set.

    Estimates dim E, targets a d sequence rising toward it, builds the
    annulus chain around a clearance-filtered full-dimension point, places
    copies in the even annuli, and assembles the result.  Sets that are
    essentially a point short-circuit to the single-cell answer.
    Per-annulus searches are independent; ``jobs`` runs them in parallel
    without changing the outcome.
    """
    if E.is_empty():
        raise ParameterError("input set has no occupied cells")
    if annuli < 2:
        raise ParameterError(f"need at least 2 annuli, got {annuli}")
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if min_mass < 1:
        raise ParameterError(f"min mass must be at least 1 cell, got {min_mass}")
    check_jobs(jobs)
    dim_e = estimate_dimension(box_counts(E, ScaleSchedule.default_for(E)), side=E.bounds.side)
    if E.occupied_count < min_mass or dim_e.slope < 0.05:
        return _single_point_result(E, dim_e)

    est = min(dim_e.slope, 1.95)
    d_seq = tuple(min(est * (1.0 - D_SHAPE / (n + 1)), 1.95) for n in range(1, annuli + 1))
    p = find_full_dimension_point(E, min_clearance=E.bounds.side / 4.0)
    chain = build_annuli(E, p, d_seq, min_mass)
    b_seq = choose_b_sequence(d_seq)

    even_indices = range(2, chain.count + 1, 2)

    def place(k: int) -> PlacementRecord:
        index = even_indices[k]
        return place_cantor_in_annulus(E, chain, index, b_seq[index - 1], trials, seed + 1000 * index)

    placements = parallel_map(place, len(even_indices), jobs)

    g_grid, eprime, report = assemble_composite(E, chain, placements)
    plan = CompositePlan(chain.center, chain.half_widths, d_seq, b_seq, tuple(placements))
    return PipelineResult(plan, g_grid, eprime, report)
