"""Figure 21: range-scan elapsed time vs. ring hops, scanRange vs. naive scan.

Paper result: the scanRange primitive adds essentially no overhead over the
application-level scan -- the two curves lie on top of each other -- and the
elapsed time grows only slightly with the hop count on a LAN.
"""

from benchmarks.conftest import run_figure


def test_figure_21_scanrange_vs_naive_scan(benchmark, figure_scale, bench_json_dir):
    result = run_figure(
        benchmark,
        "figure_21",
        bench_dir=bench_json_dir,
        hop_targets=(1, 2, 4, 6, 8, 10),
        peers=figure_scale["peers"],
        items=figure_scale["items"],
        queries_per_target=figure_scale["queries_per_target"],
    )
    assert result["rows"], "the benchmark should produce at least one hop bucket"
    for hops, scan_time, naive_time in result["rows"]:
        # "practically no overhead to using scanRange" -- allow generous slack
        # for the per-bucket averaging noise of a single run.
        assert scan_time <= naive_time * 3 + 0.02, (hops, scan_time, naive_time)
    # Longer scans should not be cheaper than the shortest ones.
    first_hops, first_scan, _ = result["rows"][0]
    last_hops, last_scan, _ = result["rows"][-1]
    if last_hops > first_hops:
        assert last_scan >= first_scan * 0.5
