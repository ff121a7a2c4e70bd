"""Figure 19: insertSucc completion time vs. successor-list length.

Paper result: the naive insertSucc is flat (~0.06 s on their LAN testbed);
the PEPPER insertSucc sits above it (~0.2-0.25 s) and grows slowly and
linearly with the successor-list length thanks to the proactive-predecessor
optimisation.  The reproduction checks the same ordering and trend on the
simulated substrate.
"""

from benchmarks.conftest import run_figure


def test_figure_19_insertsucc_vs_successor_list_length(benchmark, figure_scale, bench_json_dir):
    result = run_figure(
        benchmark,
        "figure_19",
        bench_dir=bench_json_dir,
        succ_lengths=(2, 3, 4, 5, 6, 7, 8),
        peers=figure_scale["peers"],
        items=figure_scale["items"],
    )
    naive = {row[0]: row[1] for row in result["rows"]}
    pepper = {row[0]: row[2] for row in result["rows"]}
    # PEPPER is always at least as expensive as the naive insert.
    assert all(pepper[length] >= naive[length] for length in naive)
    # ... and the cost grows with the successor-list length.
    assert pepper[8] > pepper[2]
    # ... while the naive baseline stays essentially flat.
    assert naive[8] <= naive[2] * 3
