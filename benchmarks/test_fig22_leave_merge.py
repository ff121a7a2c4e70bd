"""Figure 22: cost of the availability-preserving leave and of the Data Store merge.

Paper result (log-scale figure): the leave and the merge (which includes the
replicate-to-additional-hop step) cost on the order of 100 ms and vary little
with the successor-list length, while the naive leave costs about 1 ms because
it simply walks away.
"""

from benchmarks.conftest import run_figure


def test_figure_22_leave_and_merge_overhead(benchmark, figure_scale, bench_json_dir):
    result = run_figure(
        benchmark,
        "figure_22",
        bench_dir=bench_json_dir,
        succ_lengths=(2, 4, 6, 8),
        peers=max(10, figure_scale["peers"] - 4),
        items=figure_scale["items"],
    )
    for length, merge_time, safe_leave, naive_leave in result["rows"]:
        # The availability-preserving protocols are orders of magnitude more
        # expensive than the naive leave, which is (near) instantaneous.
        assert naive_leave < 0.01, (length, naive_leave)
        assert safe_leave > naive_leave, (length, safe_leave, naive_leave)
        assert merge_time >= safe_leave, (length, merge_time, safe_leave)
