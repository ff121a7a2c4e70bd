"""Figure 20: insertSucc completion time vs. ring stabilization period.

Paper result: the naive insertSucc does not depend on the stabilization
period; the PEPPER insertSucc grows only mildly with it because the proactive
predecessor nudges decouple the protocol from the periodic rounds.
"""

from benchmarks.conftest import run_figure


def test_figure_20_insertsucc_vs_stabilization_period(benchmark, figure_scale, bench_json_dir):
    result = run_figure(
        benchmark,
        "figure_20",
        bench_dir=bench_json_dir,
        stabilization_periods=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        peers=figure_scale["peers"],
        items=figure_scale["items"],
    )
    naive = {row[0]: row[1] for row in result["rows"]}
    pepper = {row[0]: row[2] for row in result["rows"]}
    assert all(pepper[period] >= naive[period] for period in naive)
    # Thanks to proactive nudging, quadrupling the stabilization period must
    # not blow the PEPPER insertSucc up proportionally (stays within ~4x of the
    # fastest setting rather than growing by the period ratio).
    assert pepper[8.0] <= max(pepper[2.0] * 4, pepper[2.0] + 1.0)
