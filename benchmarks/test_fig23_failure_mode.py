"""Figure 23: insertSucc completion time under peer failures (failure mode).

Paper result: the PEPPER insertSucc degrades gracefully with the failure rate,
from ~0.2 s with no failures to ~1.2 s at one failure every 10 seconds
(rate 10 per 100 s); it never becomes prohibitive.
"""

from benchmarks.conftest import run_figure


def test_figure_23_insertsucc_under_failures(benchmark, figure_scale, bench_json_dir):
    result = run_figure(
        benchmark,
        "figure_23",
        bench_dir=bench_json_dir,
        failure_rates=(0.0, 4.0, 8.0, 12.0),
        peers=max(10, figure_scale["peers"] - 4),
        items=figure_scale["items"],
        extra_peers=6,
    )
    series = {row[0]: row[1] for row in result["rows"]}
    samples = {row[0]: row[2] for row in result["rows"]}
    assert all(count > 0 for count in samples.values()), "every rate needs insertSucc samples"
    # Failures must not make insertSucc meaningfully *faster* (within noise --
    # only a handful of inserts land inside each failure window)...
    assert series[12.0] >= series[0.0] * 0.5
    # ...and never catastrophically slower (the paper's worst case stays ~6x
    # the fail-free cost; allow an order of magnitude plus a constant here).
    assert series[12.0] <= series[0.0] * 50 + 5.0
