"""Human-readable report lines and the final result object."""

from __future__ import annotations

import json
import math

from workloads import DEADLINE

#: Every end-to-end metric the benchmark computes, with its unit, in report
#: order.  Which of them a run gates on is BENCHMARK.json's ``end_to_end``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_fail_frac": "ratio",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "write_fail_frac": "ratio",
    "item_loss_frac": "ratio",
    "msgs_per_peer_s": "msgs",
    "events_per_s": "1/s",
}

#: Wall-clock figures (end-to-end metrics and a sub-run's slice rates) carry
#: machine noise; every other metric and every count in ``details`` is a pure
#: function of (workload, seed, --seconds).
WALL_METRICS = ("setup_s", "run_s", "peak_rss_mb", "events_per_s", "slice_rates")


def fingerprint(result: dict) -> dict:
    """The seed-deterministic part of a run or sub-run: everything but wall figures."""
    return {name: value for name, value in result.items() if name not in WALL_METRICS}


def impossible_values(scored: dict) -> list:
    """End-to-end values no correct measurement can produce (empty when sane)."""
    metrics = scored["metrics"]
    problems = [
        name for name, value in metrics.items() if not math.isfinite(value) or value < 0
    ]
    problems += [
        name for name, value in metrics.items() if name.endswith("_frac") and value > 1
    ]
    problems += [
        name
        for name, value in metrics.items()
        if name.endswith("_ms") and value > DEADLINE * 1000.0
    ]
    if scored["attempted"] < 1 or not 0 <= scored["failed"] <= scored["attempted"]:
        problems.append("attempted/failed")
    return problems


def render(spec: dict, workload, args, scored: dict, box: dict) -> dict:
    """Print the report and return the final result object."""
    metrics = scored["metrics"]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("box " + json.dumps(box, sort_keys=True))
    for name, unit in END_TO_END_UNITS.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>12} {unit}")
    for name, value in scored["details"].items():
        print(f"  {name:<24} {value}")
    print(f"  subrun_run_s             {scored['subrun_run_s']}")
    print(f"  subrun_events_per_s      {scored['subrun_events_per_s']}")
    print(f"  setup_walls_s            {scored['setup_walls']}")
    deterministic = {"metrics": fingerprint(metrics), "details": scored["details"]}
    print("sim " + json.dumps(deterministic, sort_keys=True))

    problems = impossible_values(scored)
    for name in problems:
        print(f"  impossible value: {name}")
    correct = not problems
    if args.trace:
        layer = scored["trace"]
        for line in layer.get("report", ()):
            print(line)
        correct = correct and layer["correct"]
        wanted = spec["per_layer"]
        source = layer["metrics"]
    else:
        wanted = spec["end_to_end"]
        source = metrics
    values = {}
    for entry in wanted:
        value = source.get(entry["name"])
        if value is None:
            correct = False
            continue
        values[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": bool(correct),
        "attempted": scored["attempted"],
        "failed": scored["failed"],
        "metrics": values,
    }
