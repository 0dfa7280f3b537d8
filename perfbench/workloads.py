"""The four benchmark workloads: CLI argv per seed, artifacts, output checks.

An operation is one list of CLI invocations run back to back in the same
working directory, each in a fresh process.  A run's operations cycle
through a fixed list of ``CYCLE`` CLI seeds: the workload's default
(acceptance) seed, whose artifacts must match the digests pinned in
``digests.json``, then seeds derived from the run seed.  ``mattila`` runs
only its acceptance seed (see RATIONALE.md).  Every operation must pass
the invariant checks.  Because the list is fixed, a faster program runs
more cycles over the same inputs, not other inputs.  File names are fixed
and relative because ``dim`` echoes its input path in the report it writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Number of CLI seeds an untraced run cycles through.
CYCLE = 4


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def _check_construct(work: Path) -> list[str]:
    values = dict(row for row in _rows(work / "run.report.csv") if len(row) == 2)
    return [f"{key} is {values.get(key)!r}, expected '1'"
            for key in ("copies_disjoint", "subset_of_e") if values.get(key) != "1"]


def _check_john(work: Path) -> list[str]:
    last = _rows(work / "john.csv")[-1]
    if last[0] != "epsilon" or not float(last[1]) > 0.0:
        return [f"epsilon is not positive: {','.join(last)}"]
    return []


def _check_mattila(work: Path) -> list[str]:
    rows = _rows(work / "survey.csv")
    summary = dict(zip(rows[-1][0::2], rows[-1][1::2]))
    issues = []
    if not float(summary["hit_fraction"]) > 0.0:
        issues.append(f"hit_fraction is {summary['hit_fraction']}, expected > 0")
    cap = min(float(summary["s"]), float(summary["t"])) + 0.1
    for row in rows[1:-1]:
        if float(row[5]) > cap:
            issues.append(f"trial {row[0]} slope {row[5]} exceeds min(s,t)+0.1 = {cap:.6g}")
    return issues


def _check_dim(work: Path) -> list[str]:
    counts = {int(r[0]): int(r[2]) for r in _rows(work / "dim.csv")[1:] if len(r) == 3}
    if sorted(counts) != list(range(2, 13, 2)):
        return [f"dim levels are {sorted(counts)}, expected 2..12 step 2"]
    return [f"level {m} count {n} != 2^{m}" for m, n in counts.items() if n != 1 << m]


@dataclass(frozen=True)
class Workload:
    name: str
    #: CLI seed of operation 0, whose artifacts are pinned; None when the
    #: commands take no seed (every operation is then the pinned one).
    default_seed: int | None
    commands: Callable[[int | None], list[list[str]]]
    artifacts: tuple[str, ...]
    check: Callable[[Path], list[str]]
    #: plan file the child replays with check_plan after the CLI returns
    plan: str | None = None
    #: False holds every operation at ``default_seed``
    derived_seeds: bool = True

    @property
    def cycle(self) -> int:
        """Number of distinct operations a run cycles through."""
        return CYCLE if self.default_seed is not None and self.derived_seeds else 1

    def cli_seed(self, run_seed: int, op: int) -> int | None:
        """Seed of operation ``op``; derived seeds never meet the defaults."""
        k = op % self.cycle
        return self.default_seed if k == 0 else 1000 * (run_seed + 1) + k


WORKLOADS = {w.name: w for w in (
    Workload(
        "construct", 5,
        lambda seed: [["construct", "--gen-alpha", "0.4", "--gen-depth", "5", "--level", "10",
                       "--annuli", "6", "--trials", "160", "--seed", str(seed), "--jobs", "1",
                       "--out-prefix", "run"]],
        ("run.plan.json", "run.g.bgr", "run.eprime.bgr", "run.report.csv"),
        _check_construct, plan="run.plan.json"),
    Workload(
        "john", 7,
        lambda seed: [["john", "--alpha", "0.25", "--depth", "4", "--samples", "150",
                       "--seed", str(seed), "--jobs", "1", "--out", "john.csv"]],
        ("john.csv",), _check_john),
    Workload(
        "mattila", 11,
        lambda seed: [["mattila", "--a-alpha", "0.315", "--a-depth", "6", "--level", "9",
                       "--b-dim", "1.7", "--b-depth", "5", "--trials", "200",
                       "--seed", str(seed), "--jobs", "1", "--out", "survey.csv"]],
        ("survey.csv",), _check_mattila, derived_seeds=False),
    Workload(
        "gen-dim", None,
        lambda seed: [["gen", "--alpha", "0.25", "--depth", "6", "--level", "12",
                       "--out", "c.cad", "--grid-out", "c.bgr"],
                      ["dim", "--in", "c.bgr", "--levels", "2:12:2", "--out", "dim.csv"]],
        ("c.cad", "c.bgr", "dim.csv"), _check_dim),
)}
