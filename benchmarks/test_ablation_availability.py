"""Ablation A2 (Section 5): system and item availability across merges + a failure.

Reproduces the paper's Figure 17 argument quantitatively: with the naive leave
and no extra-hop replication, a merge followed by a single failure can lose
items; with the paper's protocols nothing is lost.
"""

from benchmarks.conftest import run_figure


def test_ablation_item_availability_after_merges(benchmark, figure_scale, bench_json_dir):
    result = run_figure(
        benchmark,
        "ablation_availability",
        bench_dir=bench_json_dir,
        peers=max(10, figure_scale["peers"] - 4),
        items=max(60, figure_scale["items"] - 30),
    )
    rows = {row[0]: row for row in result["rows"]}
    assert rows["pepper"][1] >= 1, "the workload must force at least one merge"
    # The paper's protocols never lose an item.
    assert rows["pepper"][2] == 0
    # The naive baseline merged as well; whether it lost items is scenario
    # dependent, but it must never do *better* than the paper's protocols.
    assert rows["naive"][2] >= rows["pepper"][2]
