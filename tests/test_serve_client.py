"""Serve layer: QueryClient routing, in-flight tracking, replica-read safety."""

import pytest

from repro.serve.tracker import READ_METHODS, InFlightTracker
from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=81, peers=9)


def expected_keys(keys, lb, ub):
    return sorted(k for k in keys if lb < k <= ub)


# ----------------------------------------------------------------- routing policies
def test_all_routing_policies_return_identical_results(cluster):
    index, keys = cluster
    for lb, ub in ((keys[4], keys[30]), (keys[0], keys[-1])):
        results = {
            routing: index.range_query_now(lb, ub, routing=routing)
            for routing in ("primary", "replica_lb", "cached")
        }
        for routing, result in results.items():
            assert result["complete"], routing
            assert result["keys"] == expected_keys(keys, lb, ub), routing
            assert result["routing"] == routing


def test_unknown_routing_policy_is_rejected(cluster):
    index, _keys = cluster
    with pytest.raises(ValueError):
        index.query_client(routing="telepathy")


def test_query_client_is_cached_per_entry_and_policy(cluster):
    index, _keys = cluster
    a = index.query_client(routing="cached")
    b = index.query_client(routing="cached")
    c = index.query_client(routing="primary")
    assert a is b
    assert a is not c


# ----------------------------------------------------------------- tracker accounting
def test_tracker_settles_to_zero_in_flight(cluster):
    index, keys = cluster
    index.range_query_now(keys[2], keys[40], routing="replica_lb")
    index.run(5.0)  # let any expiry timers of dropped messages fire
    tracker = index.serve_tracker
    assert tracker.issued == tracker.completed
    assert sum(tracker.in_flight.values()) == 0


def test_replica_lb_spreads_reads_over_the_replica_set(cluster):
    index, keys = cluster
    before = dict(index.serve_tracker.read_load)
    for _ in range(10):
        index.range_query_now(keys[10], keys[14], routing="replica_lb")
        index.run(0.2)
    deltas = {
        address: count - before.get(address, 0)
        for address, count in index.serve_tracker.read_load.items()
        if count - before.get(address, 0) > 0
    }
    # A 10x-repeated single-owner window lands on more than one peer.
    assert len(deltas) >= 2, deltas


def test_least_loaded_breaks_ties_by_cumulative_load_then_position():
    tracker = InFlightTracker()
    assert tracker.least_loaded(["a", "b", "c"]) == "a"
    tracker.rpc_issued("x", "a", "serve_read")
    tracker.rpc_completed("a")  # not in flight, but cumulatively served
    assert tracker.least_loaded(["a", "b", "c"]) == "b"
    tracker.rpc_issued("x", "b", "serve_read")  # b now in flight
    assert tracker.least_loaded(["a", "b", "c"]) == "c"


def test_tracker_ignores_non_read_methods_for_read_load():
    tracker = InFlightTracker()
    tracker.rpc_issued("x", "a", "ring_ping")
    assert tracker.read_load == {}
    assert tracker.outstanding("a") == 1
    tracker.rpc_completed("a")
    assert tracker.outstanding("a") == 0
    assert "serve_read" in READ_METHODS and "serve_meta" not in READ_METHODS


def test_read_load_variance_counts_idle_peers_as_zero():
    tracker = InFlightTracker()
    for _ in range(4):
        tracker.rpc_issued("x", "hot", "serve_read")
    # {4, 0}: mean 2, population variance 4.
    assert tracker.read_load_variance(["hot", "idle"]) == pytest.approx(4.0)
    assert tracker.read_load_variance([]) == 0.0


# ----------------------------------------------------------------- cached routing
def test_cached_routing_revalidates_and_invalidates_on_writes():
    index, keys = build_cluster(seed=82, peers=8)
    lb, ub = keys[5], keys[25]
    first = index.range_query_now(lb, ub, routing="cached")
    assert first["cached"] is False
    second = index.range_query_now(lb, ub, routing="cached")
    assert second["cached"] is True
    assert second["hops"] == 0
    assert second["keys"] == first["keys"]
    # A write inside the window bumps the owner's store version; the next
    # cached read must miss and see the new key.
    new_key = (keys[10] + keys[11]) / 2.0
    assert index.insert_item_now(new_key)
    third = index.range_query_now(lb, ub, routing="cached")
    assert third["cached"] is False
    assert new_key in third["keys"]
    assert index.metrics.count("serve_cache_invalidate") >= 1


def test_validated_cache_hit_reports_its_validation_latency():
    index, keys = build_cluster(seed=83, peers=8)
    lb, ub = keys[5], keys[25]
    index.range_query_now(lb, ub, routing="cached")
    hit = index.range_query_now(lb, ub, routing="cached")
    assert hit["cached"] is True
    # Revalidation is at least one serve_meta round trip to each owner.
    assert hit["end_time"] - hit["start_time"] > 0.0


# ----------------------------------------------------------------- replica-read safety
def _replica_of(index, owner):
    """A live peer holding a pushed replica set for ``owner``."""
    for peer in index.ring_members():
        if peer.address == owner.address:
            continue
        if owner.address in peer.replication._push_state:
            return peer
    return None


def _serve_read(index, caller, target, payload):
    def proc():
        return (yield caller.call(target.address, "serve_read", payload))

    return index.run_process(proc())


def test_replica_refuses_reads_at_a_version_it_never_saw():
    index, keys = build_cluster(seed=83, peers=8)
    owner = index.ring_members()[2]
    replica = _replica_of(index, owner)
    assert replica is not None
    lo, hi, _full = owner.store.range.as_tuple()
    # Mutate the owner after its last push: the recorded push version is now
    # behind the primary's live version.  The 0.25 offset keeps the probe off
    # the 15-spaced workload key grid, so the insert is a genuinely new item.
    probe = ((lo + hi) / 2.0 if lo < hi else hi - 1.0) + 0.25
    assert index.insert_item_now(probe)
    assert owner.store.owns_key(probe)
    assert owner.store.items.version > replica.replication._push_state[owner.address][0]
    response = _serve_read(
        index,
        index.ring_members()[0],
        replica,
        {
            "owner": owner.address,
            "lb": lo,
            "ub": hi,
            "version": owner.store.items.version,
        },
    )
    assert response["ok"] is False
    assert response["reason"] in ("stale", "missing")
    # The end-to-end strong read is nevertheless correct: the client falls
    # back to the primary on the refusal.
    result = index.range_query_now(lo, hi, routing="replica_lb", consistency="strong")
    assert result["complete"]
    assert probe in result["keys"]


def test_replica_never_serves_a_tombstoned_copy():
    index, keys = build_cluster(seed=84, peers=8)
    owner = index.ring_members()[3]
    replica = _replica_of(index, owner)
    assert replica is not None
    version, _stamp, pushed = replica.replication._push_state[owner.address]
    assert pushed, "settled cluster must have pushed replica keys"
    victim = pushed[0]
    assert index.delete_item_now(victim)
    index.run(1.0)  # let the tombstone cast land on the replica
    assert replica.replication._tombstoned(victim)
    # Eventual-consistency read (no version check): the tombstoned copy must
    # be refused, never returned as a live item.
    response = _serve_read(
        index,
        index.ring_members()[0],
        replica,
        {"owner": owner.address, "lb": victim - 1.0, "ub": victim + 1.0, "version": None},
    )
    assert response["ok"] is False
    assert response["reason"] == "tombstoned"
    # End to end, the deleted key is gone under every routing policy.
    for routing in ("primary", "replica_lb"):
        result = index.range_query_now(
            victim - 1.0, victim + 1.0, routing=routing, consistency="eventual"
        )
        assert victim not in result["keys"], routing


def test_replica_failure_mid_query_falls_back_and_stays_correct():
    """Killing the chosen replica mid-read degrades to the primary, never to
    a wrong answer: every query over the owner's own window stays exact."""
    index, keys = build_cluster(seed=85, peers=9)
    owner = index.ring_members()[2]
    replica = _replica_of(index, owner)
    assert replica is not None
    lo, hi, full = owner.store.range.as_tuple()
    assert not full
    want = expected_keys(keys, lo, hi)
    assert want, "owner must hold workload keys"

    def fail_replica_mid_query():
        yield index.sim.timeout(0.003)  # inside the first hops of the query
        index.fail_peer(replica.address)

    index.sim.process(fail_replica_mid_query())
    # The owner's primary copy never moves, so replica_lb must return the
    # exact window contents on every attempt -- during the failure, and
    # through failure detection and replica revival afterwards.
    for attempt in range(8):
        result = index.range_query_now(lo, hi, routing="replica_lb", timeout=90.0)
        assert result["complete"], attempt
        assert sorted(result["keys"]) == want, attempt
        index.run(2.0)
