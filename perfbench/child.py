"""One dustlab CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 perfbench/child.py '<request json>'

The request names the CLI argv, the report path, and optionally a span
file (turns tracing on) and a construction plan to replay with
``check_plan``.  The report holds the moment ``import dustlab`` finished
(``time.perf_counter``, a system-wide monotonic clock, so the parent can
subtract its spawn time), the wall and CPU time of ``cli.main`` alone, the
peak RSS when it returned, and the exit code.  Files the CLI writes land in
the working directory the parent chose.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dustlab  # noqa: E402

READY = time.perf_counter()


def main() -> int:
    import resource

    import numpy as np

    from dustlab import cli

    request = json.loads(sys.argv[1])
    tracer = None
    if request.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = cli.main(request["argv"])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"ready": READY, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0,
              "exit": code, "numpy": np.__version__}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary()
        tracer.dump(request["spans"])
    if request.get("plan") and code == 0:
        from dustlab.composite import CompositePlan, check_plan

        plan = CompositePlan.from_json(Path(request["plan"]).read_text())
        report["plan_issues"] = check_plan(plan)
    Path(request["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
