"""Ablation A1 (Section 4.2): query correctness under churn, scanRange vs. naive scan.

The paper argues (Sections 4.2.1-4.2.2) that the naive application-level scan
can miss live items when splits, merges, redistributions or ring reorganisation
overlap with a query, while scanRange provably cannot.  This ablation runs the
same churny workload with both strategies and counts queries violating
Definition 4.
"""

from benchmarks.conftest import run_figure


def test_ablation_query_correctness_under_churn(benchmark, figure_scale, bench_json_dir):
    result = run_figure(
        benchmark,
        "ablation_query_correctness",
        bench_dir=bench_json_dir,
        peers=max(10, figure_scale["peers"] - 4),
        items=figure_scale["items"],
        queries=15,
    )
    rows = {row[0]: row for row in result["rows"]}
    scan_strategy = rows["scan"]
    assert scan_strategy[1] > 0, "the scanRange run must actually execute queries"
    # Theorem 3: scanRange never returns an incorrect result.
    assert scan_strategy[2] == 0
    # The naive strategy executed the same number of queries (violations are
    # workload dependent and may legitimately be zero in a lucky run).
    assert rows["naive"][1] > 0
