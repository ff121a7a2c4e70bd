"""Quickstart: define a scenario, run it through the registry, inspect the ring.

This is the registry-first workflow described in ``docs/SCENARIOS.md``: a
deployment is a declarative :class:`ScenarioSpec`, one shared driver executes
it, and the same spec can also be *materialised* for peer-level inspection.

Run with::

    python examples/quickstart.py
"""

from repro import check_consistent_successor_pointers, check_ring_connectivity
from repro.harness.scenarios import (
    PhaseSpec,
    QueryMixSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_experiment,
    paper_build_phase,
    register,
    run_spec,
)

# A small deployment with the paper's default parameters (successor lists of
# length 4, stabilization every 4 s, storage factor 5, replication 6) and all
# of the paper's correctness/availability protocols enabled.
SPEC = register(
    ScenarioSpec(
        name="quickstart",
        description="11 peers, 90 uniform items, 3 range queries",
        peers=11,
        seed=7,
        phases=(
            # Arrivals one per second plus the item stream, then 30 s of quiet.
            paper_build_phase(11, WorkloadSpec(items=90, insert_rate=3.0), join_period=1.0),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=3, selectivity=0.03)),
        ),
    )
)


def main() -> None:
    # One call runs the whole cell: the build phase (arrivals + item stream +
    # settle), then the query phase -- and returns the measurements as a
    # ScenarioResult.
    print("Running the 'quickstart' scenario through the registry...")
    result = run_spec(SPEC, seed=7)
    print(
        f"  ring={result.ring_members} members, items={result.items_stored}/"
        f"{result.items_requested}, queries={result.queries_complete}/{result.queries_run} "
        f"complete ({result.query_mean_hops:.1f} mean hops)"
    )
    print(f"  {result.rpc_calls} RPCs in {result.sim_time_s:.0f} simulated seconds;")
    print(f"  per-method profile: {dict(sorted(result.rpc_per_method.items()))}")

    # The same spec can be materialised when you want to poke at the peers
    # directly: play only its build phase, then drive the ring by hand.
    print("\nMaterialising the same spec for inspection...")
    experiment = build_experiment(SPEC, seed=7)
    index = experiment.index
    experiment.run_phases(SPEC.phases[:1], total_peers=SPEC.peers)

    print(f"Ring members: {len(index.ring_members())}, free peers: {len(index.free_peers())}")
    for peer in index.ring_members():
        print(f"  {peer.address}: range {peer.store.range}, {peer.store.item_count()} items")

    # Range query (lb, ub]: all objects with keys in (300, 600].
    outcome = experiment.run_query(300.0, 600.0)
    print(f"\nQuery (300, 600] -> {len(outcome.keys)} items over {outcome.hops} ring hops")

    # The correctness checkers from the paper's definitions.
    print("Consistent successor pointers:", check_consistent_successor_pointers(index.live_peers()).ok)
    print("Ring connectivity:", check_ring_connectivity(index.live_peers()).ok)


if __name__ == "__main__":
    main()
