"""Tests for the content routers (linear walk and hierarchical pointer table)."""

import math

import pytest

from repro.router.hierarchical import HierarchicalRingRouter
from repro.router.linear import LinearRouter
from repro.router import make_router
from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=61, peers=10)


@pytest.fixture(scope="module")
def large_cluster():
    """A settled, static ring of 96 peers, and its tables after two refresh periods.

    The tables are captured before any test routes, so the check on them
    does not depend on which tests ran first.
    """
    keys = [float(k) for k in range(10, 10 + 1200 * 8, 8)]
    index, keys = build_cluster(seed=3, peers=96, keys=keys, spacing=0.05, settle=30.0)
    index.run(2 * index.config.router_refresh_period)
    tables = {peer.address: list(peer.router.table) for peer in index.ring_members()}
    return index, keys, tables


def _clockwise(index, start, end):
    return end - start if end >= start else index.config.key_space - start + end


def _probe(index, peer, key):
    def probe():
        response = yield peer.call(peer.address, "ds_probe", {"key": key})
        return response

    return index.run_process(probe())


def test_make_router_selects_implementation():
    index, _keys = build_cluster(seed=62, peers=3, keys=[200.0, 220.0, 240.0])
    peer = index.ring_members()[0]
    linear = make_router(peer, peer.ring, peer.store, index.config.copy(router="linear"))
    hierarchical = make_router(peer, peer.ring, peer.store, index.config)
    assert isinstance(linear, LinearRouter)
    assert isinstance(hierarchical, HierarchicalRingRouter)


def test_hierarchical_routing_finds_owner_for_every_key(cluster):
    index, keys = cluster
    start = index.ring_members()[0]
    for key in keys[::5]:
        found = index.run_process(start.router.find_responsible(key))
        assert found is not None
        assert index.peers[found].store.owns_key(key)


def test_linear_routing_finds_owner(cluster):
    index, keys = cluster
    peer = index.ring_members()[0]
    linear = LinearRouter(peer, peer.ring, peer.store, index.config)
    for key in keys[::7]:
        found = index.run_process(linear.find_responsible(key))
        assert found is not None
        assert index.peers[found].store.owns_key(key)


def test_routing_from_every_member_converges(cluster):
    index, keys = cluster
    key = keys[len(keys) // 2]
    owners = set()
    for peer in index.ring_members():
        owners.add(index.run_process(peer.router.find_responsible(key)))
    assert len(owners) == 1


def test_local_owner_short_circuits(cluster):
    index, keys = cluster
    key = keys[0]
    owner = next(p for p in index.ring_members() if p.store.owns_key(key))
    found = index.run_process(owner.router.find_responsible(key))
    assert found == owner.address


def test_router_table_is_populated_after_refresh(cluster):
    index, _keys = cluster
    index.run(2 * index.config.router_refresh_period)
    populated = [p for p in index.ring_members() if p.router.table]
    assert len(populated) >= len(index.ring_members()) // 2


def test_routing_survives_a_failed_peer(cluster):
    index, keys = cluster
    victim = index.ring_members()[3]
    index.fail_peer(victim.address)
    index.run(20.0)
    start = index.ring_members()[0]
    key = keys[10]
    found = index.run_process(start.router.find_responsible(key))
    assert found is not None
    assert index.peers[found].alive


def test_probe_reports_ownership_and_successor(cluster):
    index, keys = cluster
    key = keys[0]
    owner = next(p for p in index.ring_members() if p.store.owns_key(key))
    response = _probe(index, owner, key)
    assert set(response) == {"owns", "successor", "next"}
    assert response["owns"] is True
    assert response["successor"] is not None


def test_hierarchical_router_reuses_the_linear_loop():
    assert HierarchicalRingRouter.find_responsible is LinearRouter.find_responsible


def test_linear_router_probe_never_jumps():
    index, keys = build_cluster(seed=63, peers=4, keys=[200.0, 220.0, 240.0, 260.0])
    peer = index.ring_members()[0]
    LinearRouter(peer, peer.ring, peer.store, index.config)  # re-registers ds_probe
    assert all(_probe(index, peer, key)["next"] is None for key in keys)


def test_lookups_take_logarithmic_probes(large_cluster):
    index, keys, _tables = large_cluster
    members = index.ring_members()
    assert len(members) >= 64
    bound = 2 * math.ceil(math.log2(len(members))) + 2
    recorded = index.metrics.count("route_hops")
    for peer in members:
        for key in keys[::97]:
            found = index.run_process(peer.router.find_responsible(key))
            assert found is not None and index.peers[found].store.owns_key(key)
    hops = index.metrics.values("route_hops")[recorded:]
    assert len(hops) == len(members) * len(keys[::97])
    assert max(hops) <= bound


def test_table_values_are_first_hand_after_refresh(large_cluster):
    index, _keys, tables = large_cluster
    entries = [entry for table in tables.values() for entry in table]
    assert entries
    for address, value in entries:
        assert value is not None
        assert value == index.peers[address].ring.value


def test_probe_next_never_passes_the_key(large_cluster):
    index, keys, _tables = large_cluster
    jumps = 0
    for peer in index.ring_members()[::4]:
        for key in keys[::61]:
            response = _probe(index, peer, key)
            if response["next"] is None:
                continue
            jumps += 1
            assert not response["owns"]
            pointer_value = index.peers[response["next"]].ring.value
            assert _clockwise(index, peer.ring.value, pointer_value) <= _clockwise(
                index, peer.ring.value, key
            )
    assert jumps > 0


def test_pointers_that_loop_fall_back_to_the_successor_walk():
    index, keys = build_cluster(seed=64, peers=8)
    key = keys[len(keys) // 2]
    members = index.ring_members()
    owner = next(p for p in members if p.store.owns_key(key))
    decoy, start = [p for p in members if p is not owner][:2]
    for peer in members:
        # Every table claims the decoy sits exactly at the key: each hop jumps
        # to it, and the decoy (skipping itself) hands back its successor.
        peer.router.table = [(decoy.address, key)]
    hops_before = index.metrics.count("route_hops")
    found = index.run_process(start.router.find_responsible(key))
    assert found == owner.address
    assert index.metrics.count("route_hops") == hops_before + 1


def test_a_dead_pointer_costs_one_timeout_per_lookup():
    index, _keys = build_cluster(seed=65, peers=8)
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    start, victim, owner = members[0], members[3], members[5]
    index.fail_peer(victim.address)
    index.run(10.0)  # the ring routes around the victim ...
    for peer in index.ring_members():
        # ... but every table still names it, as before the next refresh.
        peer.router.table = [(victim.address, victim.ring.value)]
    timeouts = index.network.stats.rpc_timeouts
    found = index.run_process(start.router.find_responsible(owner.ring.value))
    assert found == owner.address
    assert index.network.stats.rpc_timeouts == timeouts + 1
