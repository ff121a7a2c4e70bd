"""The repository's benchmark: one workload, one seed, one fresh process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_churn --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
additionally replays the same window on an identical, instrumented
deployment and reports the per-layer metrics (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def reference_score() -> float:
    """Iterations per second of a fixed pure-Python loop: the box's speed stamp.

    Results carry it so figures from different machines are never compared.
    """
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        best = max(best, 200_000 / (time.perf_counter() - started))
    return best


def box() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "reference_loop_per_s": round(reference_score()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: int, traced: bool) -> dict:
    """Run every sub-run of one workload; with ``traced`` also the traced replay."""
    from workloads import combine, run_subrun

    outcomes, walls = [], []
    for subrun in range(workload.subruns):
        outcome, subrun_walls = run_subrun(workload, seed, subrun, seconds)
        outcomes.append(outcome)
        walls.append(subrun_walls)
    scored = combine(workload, outcomes)
    scored["metrics"]["setup_s"] = statistics.median(wall["setup"] for wall in walls)
    scored["metrics"]["peak_rss_mb"] = peak_rss_mb()
    scored["setup_walls"] = {
        name: statistics.median(wall[name] for wall in walls) for name in walls[0]
    }
    if traced:
        from tracing import traced_window

        gc.collect()
        scored["trace"] = traced_window(
            workload, seed, workload.subruns - 1, seconds, outcomes[-1], scored["setup_walls"]
        )
    return scored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no source tree at {SRC}; run from the root of a checkout")
    if not BENCHMARK.is_file():
        _fail(f"missing {BENCHMARK.name}")
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    # The benchmark always measures the default substrate: in-sim transport,
    # heap engine.
    os.environ.pop("REPRO_ENGINE", None)
    os.environ.pop("REPRO_TRANSPORT", None)

    from report import render
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    spec = json.loads(BENCHMARK.read_text())

    scored = measure(workload, args.seed, args.seconds, bool(args.trace))
    result = render(spec, workload, args, scored, box())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
