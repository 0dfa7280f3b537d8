"""dustlab CLI benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload construct --seed 0 --seconds 20 --trace 0

Runs one workload (see workloads.py) through the real CLI, each invocation
in a fresh interpreter that imports dustlab from ``src/``, as a closed loop:
the next operation starts when the previous one has ended.  Operations come
in whole cycles over the workload's fixed seed list, and the run stops after
the first cycle that ends once ``--seconds`` have passed (at least three
operations).  Every output is checked: exit code, the workload's
invariants, and for the default-seed operations the sha256 of every
artifact against ``digests.json``.

``--trace 0`` reports the end-to-end metrics (medians over the run):
  wall_s       time of the subcommand call inside the child, without
               interpreter start or import
  setup_s      child spawn through ``import dustlab``, one sample per
               invocation
  peak_rss_mb  peak RSS of the child when the subcommand returned
and prints error_rate (failed / attempted invocations) beside them.  An
operation with any issue fails every invocation it made.

``--trace 1`` alternates traced and untraced operations at one seed and
reports the per-layer metrics of tracer.py: times are medians over the
traced operations, counts must repeat exactly between them, and
``proc.tracing_overhead_s`` is the traced minus the untraced median wall
time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record with the machine (nproc, Python,
numpy, CPU model, load average before and after) and every operation,
artifact digests included, goes to ``.perfbench/results/``; spans of traced
calls go to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT = ROOT / ".perfbench"

MIN_OPERATIONS = 3
#: No operation starts later than this into a run, and every child is
#: killed once the run is this old, so a run ends inside 180 seconds even
#: if a child hangs.
LAST_START_S = 100.0
RUN_LIMIT_S = 170.0


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(request: dict, work: Path, deadline: float) -> tuple[dict | None, float, str]:
    """Run child.py once, killed at ``deadline``.

    Returns (report or None, set-up seconds, error message).
    """
    report_path = work / "child-report.json"
    report_path.unlink(missing_ok=True)
    request = dict(request, report=str(report_path))
    with open(work / "child-stdout.txt", "w") as out, open(work / "child-stderr.txt", "w") as err:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), json.dumps(request)], cwd=work,
                                  stdout=out, stderr=err, timeout=max(deadline - t0, 1.0))
        except subprocess.TimeoutExpired:
            return None, 0.0, "killed at the run's time limit"
    if proc.returncode != 0 or not report_path.exists():
        tail = (work / "child-stderr.txt").read_text().strip().splitlines()[-1:]
        return None, 0.0, f"child exited {proc.returncode}: {' '.join(tail)}"
    report = json.loads(report_path.read_text())
    return report, report["ready"] - t0, ""


def run_operation(workload, cli_seed, work: Path, deadline: float,
                  spans: Path | None = None) -> dict:
    """One operation: the workload's invocations at ``cli_seed``, then its checks."""
    for name in workload.artifacts:
        (work / name).unlink(missing_ok=True)
    op = {"seed": cli_seed, "traced": spans is not None, "attempted": 0, "issues": [],
          "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "setup_s": [], "layers": None}
    commands = workload.commands(cli_seed)
    for step, argv in enumerate(commands):
        request = {"argv": argv}
        if spans is not None:
            request["spans"] = str(spans.with_name(f"{spans.name}-step{step}.json"))
        if workload.plan and step == len(commands) - 1:
            request["plan"] = workload.plan
        op["attempted"] += 1
        report, setup, error = _spawn(request, work, deadline)
        if report is None or report["exit"] != 0:
            op["issues"].append(f"{' '.join(argv)}: {error or 'exit %d' % report['exit']}")
            return op
        op["setup_s"].append(setup)
        op["wall_s"] += report["wall_s"]
        op["cpu_s"] += report["cpu_s"]
        op["peak_rss_mb"] = max(op["peak_rss_mb"], report["peak_rss_mb"])
        op["numpy"] = report["numpy"]
        op["issues"] += [f"check_plan: {i}" for i in report.get("plan_issues", [])]
        if "layers" in report:
            op["layers"] = {k: (op["layers"] or {}).get(k, 0) + v
                            for k, v in report["layers"].items()}
    missing = [name for name in workload.artifacts if not (work / name).is_file()]
    if missing:
        op["issues"].append(f"artifacts not written: {missing}")
        return op
    op["digests"] = {name: _sha256(work / name) for name in workload.artifacts}
    try:
        op["issues"] += workload.check(work)
    except (ValueError, IndexError, KeyError) as exc:
        op["issues"].append(f"output does not parse: {exc!r}")
    return op


def _check_digests(workload, ops: list[dict], pinned: dict[str, str]) -> None:
    """Default-seed artifacts must match the pins; equal seeds must agree."""
    first: dict = {}
    for op in ops:
        if "digests" not in op:
            continue
        if op["seed"] == workload.default_seed:
            op["issues"] += [f"{name} digest {d[:12]} != pinned {pinned.get(name, '')[:12]}"
                             for name, d in op["digests"].items() if pinned.get(name) != d]
        ref = first.setdefault(op["seed"], op["digests"])
        if ref != op["digests"]:
            op["issues"].append(f"artifacts differ between operations at seed {op['seed']}")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _untraced(workload, seed: int, seconds: float, work: Path, start: float):
    """Whole cycles of operations, so every seed of the cycle is measured equally often."""
    ops = []
    while True:
        for _ in range(workload.cycle):
            if time.perf_counter() - start > LAST_START_S:
                break
            ops.append(run_operation(workload, workload.cli_seed(seed, len(ops)), work,
                                     start + RUN_LIMIT_S))
        elapsed = time.perf_counter() - start
        if elapsed > LAST_START_S or (len(ops) >= MIN_OPERATIONS and elapsed >= seconds):
            break
    done = [op for op in ops if "digests" in op]
    setups = [s for op in ops for s in op["setup_s"]]
    metrics = {
        "wall_s": (_median([op["wall_s"] for op in done]), "s", len(done)),
        "setup_s": (_median(setups), "s", len(setups)),
        "peak_rss_mb": (_median([op["peak_rss_mb"] for op in done]), "MB", len(done)),
    }
    return ops, metrics


def _traced(workload, seed: int, seconds: float, work: Path, start: float, spans: Path):
    """Default-seed check, then traced and untraced operations alternating at one seed."""
    deadline = start + RUN_LIMIT_S
    ops = [run_operation(workload, workload.cli_seed(seed, 0), work, deadline)]
    cli_seed = workload.cli_seed(seed, 1)
    traced, plain = [], []
    while (len(traced) < 2 or not plain or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start <= LAST_START_S:
        trace = len(traced) <= len(plain)
        name = f"{workload.name}-seed{seed}-op{len(ops)}"
        op = run_operation(workload, cli_seed, work, deadline, spans / name if trace else None)
        ops.append(op)
        if "digests" in op:
            (traced if trace else plain).append(op)
    if len(traced) < 2 or not plain:
        ops[-1]["issues"].append("too few completed traced and untraced operations")
        return ops, {}
    layers = [layer_metrics(op["layers"]) for op in traced]
    metrics = {}
    for key, value in layers[0].items():
        values = [m[key] for m in layers]
        if key.endswith("_s"):
            metrics[key] = (_median(values), "s", len(values))
            continue
        if any(v != value for v in values):
            traced[-1]["issues"].append(f"count {key} differs between traced runs: {values}")
        metrics[key] = (value, _layer_unit(key), len(values))
    n = len(traced)
    traced_wall = _median([op["wall_s"] for op in traced])
    plain_wall = _median([op["wall_s"] for op in plain])
    metrics["proc.cpu_s"] = (_median([op["cpu_s"] for op in plain]), "s", len(plain))
    metrics["proc.tracing_overhead_s"] = (traced_wall - plain_wall, "s", n + len(plain))
    return ops, metrics


def _layer_unit(key: str) -> str:
    field = key.rsplit(".", 1)[1]
    if field in ("cells_in", "cells_out"):
        return "cells"
    if field == "bytes":
        return "B"
    if field.endswith(("yield", "ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "dustlab" / "__init__.py").is_file():
        print(f"error: no dustlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    pinned = json.loads(DIGESTS.read_text())[workload.name]
    work = OUT / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = OUT / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": _cpu_model()},
        "loadavg_before": _loadavg(),
    }
    start = time.perf_counter()
    if args.trace:
        ops, metrics = _traced(workload, args.seed, args.seconds, work, start, spans)
    else:
        ops, metrics = _untraced(workload, args.seed, args.seconds, work, start)
    _check_digests(workload, ops, pinned)
    record["loadavg_after"] = _loadavg()
    record["machine"]["numpy"] = next((op["numpy"] for op in ops if "numpy" in op), "unknown")
    record["elapsed_s"] = time.perf_counter() - start
    record["operations"] = ops

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["attempted"] for op in ops if op["issues"])
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {attempted} invocations, {record['elapsed_s']:.1f} s")
    print(f"machine nproc={record['machine']['nproc']} python={record['machine']['python']} "
          f"numpy={record['machine']['numpy']} cpu={record['machine']['cpu']!r} "
          f"loadavg before={record['loadavg_before']!r} after={record['loadavg_after']!r}")
    for op in ops:
        for issue in op["issues"]:
            print(f"FAILED seed {op['seed']}: {issue}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} "
          f"attempted invocations)")
    for key, (value, unit, samples) in metrics.items():
        note = " (computed from array sizes)" if unit in ("cells", "B") else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{key} {shown} {unit} (samples {samples}){note}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
