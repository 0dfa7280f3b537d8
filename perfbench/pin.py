"""Rewrite digests.json from the default-seed operation of every workload.

Usage (from the repository root, only when an output change is intended):

    python3 perfbench/pin.py
"""

import json
import shutil
import time

from run import DIGESTS, OUT, RUN_LIMIT_S, run_operation
from workloads import WORKLOADS


def main() -> None:
    pins = {}
    for workload in WORKLOADS.values():
        work = OUT / "work" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        op = run_operation(workload, workload.default_seed, work, time.perf_counter() + RUN_LIMIT_S)
        if op["issues"]:
            raise SystemExit(f"{workload.name}: {op['issues']}")
        pins[workload.name] = op["digests"]
        print(workload.name, op["digests"])
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
