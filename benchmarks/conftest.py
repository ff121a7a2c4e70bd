"""Shared helpers for the benchmark suite.

Every benchmark reproduces one of the paper's evaluation figures (or one of the
correctness/availability ablations).  Figures are resolved *by name* through
the harness registry (``repro.harness.figures.ALL_FIGURES`` -- the same lookup
``repro-run figure_19`` uses), executed once inside ``pytest-benchmark``'s
timer, printed as the series the paper plots, and emitted as
``BENCH_<name>.json`` in the envelope ``repro-run`` writes (one figure cell,
seed offset 0) -- into a temporary directory by default, so a test run
leaves the working tree clean; ``--bench-json-dir .`` refreshes the tracked
files in the repo root.  The simulated deployments are slightly smaller than
the paper's 30-peer testbed so the whole suite finishes in a few minutes;
pass ``--paper-scale`` to run at the paper's size.
"""

from __future__ import annotations

import time

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the figure reproductions at the paper's deployment size (slower)",
    )
    parser.addoption(
        "--bench-json-dir",
        default=None,
        help="directory for BENCH_<figure>.json files (default: a temporary "
        "directory; pass '.' to refresh the tracked files in the repo root)",
    )


@pytest.fixture(scope="session")
def figure_scale(request):
    """Deployment sizes used by the figure benchmarks."""
    if request.config.getoption("--paper-scale"):
        return {"peers": 30, "items": 180, "queries_per_target": 5}
    return {"peers": 14, "items": 90, "queries_per_target": 3}


@pytest.fixture(scope="session")
def bench_json_dir(request, tmp_path_factory):
    return request.config.getoption("--bench-json-dir") or str(
        tmp_path_factory.mktemp("bench_json")
    )


def run_figure(benchmark, figure_name, bench_dir=".", **kwargs):
    """Run the named registry figure once under the benchmark timer.

    Returns the figure cell (see ``repro.harness.runner.figure_cell``) and
    writes it in the same BENCH envelope ``repro-run`` emits.
    """
    from repro.harness.reporting import format_table
    from repro.harness.runner import bench_payload, figure_cell, write_bench

    started = time.perf_counter()
    cell = benchmark.pedantic(
        lambda: figure_cell(figure_name, 0, **kwargs), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - started
    print()
    print(f"{cell['figure']}: {cell['description']}")
    print(format_table(cell["headers"], cell["rows"]))
    if cell["notes"]:
        print(f"note: {cell['notes']}")
    write_bench(figure_name, bench_payload([cell], [0], elapsed), out_dir=bench_dir)
    return cell
