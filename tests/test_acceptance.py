"""Acceptance suite: every target criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s) and asserts
all of its sub-checks.  Randomized checks run at frozen seeds; floors
marked "calibrated" were frozen from pilot runs of the stated oracles.
"""

import time

import numpy as np
import pytest

from dustlab.boxdim import ScaleSchedule, box_counts, estimate_dimension
from dustlab.cantor import alpha_for_dimension, cantor_dimension, generate_cantor
from dustlab.cli import main
from dustlab.composite import check_plan, run_pipeline
from dustlab.errors import ParameterError
from dustlab.geometry import BoxGrid, Square, rasterize
from dustlab.intersect import mattila_survey
from dustlab.john import ring_clearance_bound, sample_ring_clearances, verify_john

EVEN_SCHEDULE = ScaleSchedule((2, 4, 6, 8, 10, 12))


def _report(name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{tail}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"{name}: " + "; ".join(failures)


def dust_grid(alpha, depth, level):
    approx = generate_cantor(alpha, depth)
    return rasterize(approx.leaf_corners(), Square.unit(), level, side=approx.side)


def test_criterion_1_dimension_formula():
    t0 = time.monotonic()
    failures = []
    if cantor_dimension(0.25) != 1.0:
        failures.append(f"dimension of the quarter dust is {cantor_dimension(0.25)!r}, not 1.0")
    for d in np.linspace(0.05, 1.95, 100):
        back = cantor_dimension(alpha_for_dimension(float(d)))
        if abs(back - d) / d > 1e-12:
            failures.append(f"round trip at d={d} off by {abs(back - d) / d:.3g}")
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report("criterion 1 (dimension formula and round trip)", failures,
            f"{elapsed:.2f}s")


def test_criterion_2_box_count_recovery():
    t0 = time.monotonic()
    failures = []
    est1 = estimate_dimension(box_counts(dust_grid(0.25, 8, 12), EVEN_SCHEDULE))
    if abs(est1.slope - 1.0) > 0.05:
        failures.append(f"quarter-dust slope {est1.slope:.4f} not within 0.05 of 1.0")
    if est1.r2 < 0.999:
        failures.append(f"quarter-dust r2 {est1.r2:.5f} below 0.999")
    t1 = time.monotonic()
    if t1 - t0 >= 30.0:
        failures.append(f"first fit took {t1 - t0:.1f}s, over 30s")

    est2 = estimate_dimension(box_counts(dust_grid(alpha_for_dimension(1.5), 7, 12),
                                         EVEN_SCHEDULE))
    if abs(est2.slope - 1.5) > 0.07:
        failures.append(f"d=1.5 slope {est2.slope:.4f} not within 0.07 of 1.5")
    t2 = time.monotonic()
    if t2 - t1 >= 30.0:
        failures.append(f"second fit took {t2 - t1:.1f}s, over 30s")
    _report("criterion 2 (box-count dimension recovery)", failures,
            f"slopes {est1.slope:.4f}, {est2.slope:.4f}; {t2 - t0:.1f}s")


def test_criterion_3_structure_laws():
    t0 = time.monotonic()
    failures = []
    for n in range(0, 9):
        if generate_cantor(0.25, n).count != 4 ** n:
            failures.append(f"address count at depth {n} is not 4^{n}")
    for n in range(1, 5):
        approx = generate_cantor(0.25, n)
        c = approx.leaf_corners()
        s = approx.side
        dx = np.maximum(np.abs(c[:, 0, None] - c[None, :, 0]) - s, 0.0)
        dy = np.maximum(np.abs(c[:, 1, None] - c[None, :, 1]) - s, 0.0)
        dist = np.hypot(dx, dy)
        np.fill_diagonal(dist, np.inf)
        expected = 0.25 ** (n - 1) * (1 - 0.5)
        if abs(dist.min() - expected) > 1e-14:
            failures.append(f"depth-{n} minimum gap {dist.min():.12g} != {expected:.12g}")
        if dist.min() <= 0:
            failures.append(f"depth-{n} squares are not pairwise disjoint")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report("criterion 3 (structure laws)", failures, f"{elapsed:.1f}s")


def test_criterion_4_john_verification():
    t0 = time.monotonic()
    failures = []

    # ring distance bound at the sharp constant (1-2a) * a^k / 4, measured
    # against the depth+1 approximant, which bounds the dust near the deepest
    # ring; the doubled constant is reported, not asserted: guard curves sit a
    # quarter gap outside their squares, so it fails in every generation
    doubled_total = 0
    for depth in (3, 4):
        rows, _ = sample_ring_clearances(0.25, depth, 10_000, seed=42,
                                         measure_depth=depth + 1)
        gen = rows[:, 2].astype(int)
        ratio = rows[:, 3] / np.array([ring_clearance_bound(0.25, g) for g in gen])
        violations = int((ratio <= 1.0).sum())
        doubled_total += int((ratio <= 2.0).sum())
        if violations:
            failures.append(
                f"depth {depth}: {violations}/10000 sampled ring points sit within "
                f"(1-2a)*a^k/4 of the depth-{depth + 1} approximant")
        if not ratio.min() < 1.25:
            failures.append(
                f"depth {depth}: minimum clearance ratio {ratio.min():.4f} is not below "
                f"1.25; the sharp constant (1-2a)*a^k/4 is no longer approached")

    r3 = verify_john(0.25, 3, 500, seed=7)
    r4 = verify_john(0.25, 4, 500, seed=7)
    if not r3.epsilon > 0 or not r4.epsilon > 0:
        failures.append("reported epsilon is not positive")
    if not 0.5 <= r3.epsilon / r4.epsilon <= 2.0:
        failures.append(f"epsilon unstable between depths: {r3.epsilon:.4f} vs {r4.epsilon:.4f}")
    if r3.epsilon < 0.05:  # calibrated floor; exhaustive coarse-grid pilot gave 0.319
        failures.append(f"epsilon {r3.epsilon:.4f} below the calibrated floor 0.05")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report("criterion 4 (ring clearance and path condition)", failures,
            f"eps {r3.epsilon:.4f}/{r4.epsilon:.4f}, doubled-constant violations "
            f"{doubled_total}, {elapsed:.1f}s")


def test_criterion_5_intersection_survey():
    t0 = time.monotonic()
    failures = []
    a = dust_grid(float(alpha_for_dimension(1.2)), 6, 9)
    b = generate_cantor(alpha_for_dimension(1.7), 5)
    survey = mattila_survey(a, b, trials=200, tolerance=0.15, seed=11)
    if not survey.hit_fraction > 0:
        failures.append("hit fraction is zero")
    if survey.hit_fraction < 0.02:  # calibrated floor; pilot gave 0.265
        failures.append(f"hit fraction {survey.hit_fraction:.3f} below the calibrated floor")
    cap = min(survey.s, survey.t) + 0.1
    bad = np.flatnonzero(~survey.empty & (survey.slope > cap)).tolist()
    if bad:
        failures.append(f"trials {bad} exceed the min(s,t)+0.1 slope bound")

    line = np.zeros((512, 512), dtype=bool)
    line[256] = True  # one row of cells: s = 1 exactly, so s + t = 2 with B's t = 1
    with pytest.raises(ParameterError, match="s \\+ t > 2"):
        mattila_survey(BoxGrid(Square.unit(), 9, line), generate_cantor(0.25, 4), trials=5, seed=1)
    with pytest.raises(ParameterError):
        mattila_survey(a, generate_cantor(alpha_for_dimension(1.4), 4), trials=5, seed=1)

    elapsed = time.monotonic() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5min")
    _report("criterion 5 (intersection-dimension survey)", failures,
            f"s={survey.s:.3f} t={survey.t:.3f} hits={survey.hits}/200, {elapsed:.1f}s")


def test_criterion_6_composite_pipeline():
    t0 = time.monotonic()
    failures = []
    E = dust_grid(0.4, 5, 10)
    result = run_pipeline(E, annuli=6, trials=480, seed=5)
    report = result.report

    issues = check_plan(result.plan)
    if issues:
        failures.append("plan replay violations: " + "; ".join(issues))
    if len(result.plan.d_seq) != 6:
        failures.append(f"expected a 6-annulus chain, got {len(result.plan.d_seq)}")
    if not report.disjoint:
        failures.append("placed copies are not disjoint")
    if not report.containment:
        failures.append("E' is not a bitmap subset of E")
    lo = report.dim_e.slope - 0.2
    hi = report.dim_e.slope + 0.1
    if not lo <= report.dim_eprime.slope:
        failures.append(f"dim E' {report.dim_eprime.slope:.4f} below dim E - 0.2 = {lo:.4f}")
    if not report.dim_eprime.slope <= hi:
        failures.append(f"dim E' {report.dim_eprime.slope:.4f} above dim E + 0.1 = {hi:.4f}")
    elapsed = time.monotonic() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10min")
    _report("criterion 6 (composite pipeline)", failures,
            f"dim E {report.dim_e.slope:.4f}, dim E' {report.dim_eprime.slope:.4f}, "
            f"{elapsed:.1f}s")


def test_criterion_7_determinism(tmp_path):
    t0 = time.monotonic()
    failures = []

    def rerun_identical(label, args_fn):
        out_a, out_b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        code_a = main(args_fn(str(out_a)))
        code_b = main(args_fn(str(out_b)))
        if code_a != 0 or code_b != 0:
            failures.append(f"{label}: nonzero exit codes {code_a}, {code_b}")
            return
        if out_a.read_bytes() != out_b.read_bytes():
            failures.append(f"{label}: repeated runs differ byte-for-byte")

    rerun_identical("john", lambda out: [
        "john", "--alpha", "0.25", "--depth", "3", "--samples", "60",
        "--seed", "7", "--out", out])
    rerun_identical("mattila", lambda out: [
        "mattila", "--a-alpha", "0.315", "--a-depth", "5", "--level", "8",
        "--b-dim", "1.7", "--b-depth", "4", "--trials", "30", "--seed", "11",
        "--out", out])

    pa, pb = tmp_path / "cons_a", tmp_path / "cons_b"
    for prefix in (pa, pb):
        code = main(["construct", "--gen-alpha", "0.4", "--gen-depth", "4",
                     "--level", "9", "--annuli", "4", "--trials", "40",
                     "--seed", "5", "--out-prefix", str(prefix)])
        if code != 0:
            failures.append(f"construct exited with {code}")
    for suffix in (".report.csv", ".plan.json", ".eprime.bgr"):
        if (pa.parent / (pa.name + suffix)).read_bytes() != \
                (pb.parent / (pb.name + suffix)).read_bytes():
            failures.append(f"construct artifact {suffix} differs between runs")

    elapsed = time.monotonic() - t0
    _report("criterion 7 (seeded determinism)", failures, f"{elapsed:.1f}s")
