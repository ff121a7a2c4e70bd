"""Determinism self-check of the benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py [--seconds 1] [--workload NAME ...]

For every workload it runs ``perfbench/run.py`` three times in fresh
processes -- twice with one seed and once with another -- and compares the
``sim`` line, which holds every simulated-time metric and count of the run.
Two runs with the same seed must agree exactly; a different seed must change
them (the inputs come from the seed and nothing else).  The last run of each
workload is traced, so its accounting self-checks run too.  Exits non-zero on
any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("paper_churn", "read_zipf_1000", "mixed_churn_300")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    completed = subprocess.run(
        [
            sys.executable,
            str(RUN),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = completed.stdout.splitlines()
    sim = next(line[len("sim ") :] for line in lines if line.startswith("sim "))
    return json.loads(sim), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or WORKLOADS:
        first, _ = run(workload, 1, args.seconds, 0)
        again, _ = run(workload, 1, args.seconds, 0)
        other, traced = run(workload, 2, args.seconds, 1)
        checks = {
            "same seed, same simulated outcome": first == again,
            "other seed, other simulated outcome": first != other,
            "traced run passes its self-checks": traced["correct"],
        }
        for name, passed in checks.items():
            print(f"{workload:<16} {'ok  ' if passed else 'FAIL'} {name}")
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
