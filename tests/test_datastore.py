"""Unit tests for the Data Store component (on live peers of a small cluster)."""

import pytest

from repro.datastore.items import Item
from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=21, peers=8)


def owner_of(index, key):
    for peer in index.ring_members():
        if peer.store.owns_key(key):
            return peer
    return None


def test_every_key_has_exactly_one_owner(cluster):
    index, keys = cluster
    for key in keys:
        owners = [p for p in index.ring_members() if p.store.owns_key(key)]
        assert len(owners) == 1, f"key {key} owned by {owners}"


def test_items_reside_at_their_owner(cluster):
    index, keys = cluster
    for key in keys:
        owner = owner_of(index, key)
        assert owner is not None
        assert key in owner.store.items


def test_ranges_partition_the_key_space(cluster):
    index, _keys = cluster
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    for peer, successor in zip(members, members[1:] + members[:1]):
        # Each peer's range ends at its own value and the successor's range
        # starts there: together they partition the circle.
        assert peer.store.range.high == peer.ring.value
        assert successor.store.range.low == peer.ring.value


def test_storage_balance_respects_bounds(cluster):
    index, _keys = cluster
    config = index.config
    overloaded = [
        peer
        for peer in index.ring_members()
        if peer.store.item_count() > config.overflow_threshold
    ]
    # A peer may only stay above 2*sf when there is no free peer left to split
    # with (the paper's balance guarantee presumes spare peers exist).
    if index.pool.available() > 0:
        assert not overloaded, [
            (peer.address, peer.store.item_count()) for peer in overloaded
        ]


def test_store_and_remove_via_rpc(cluster):
    index, _keys = cluster
    owner = index.ring_members()[0]
    key = owner.store.range.high - 0.001
    if not owner.store.owns_key(key):
        pytest.skip("picked key outside range (wrapping peer)")

    def roundtrip():
        stored = yield owner.call(owner.address, "ds_store_item", {"item": {"skv": key, "payload": "x"}})
        removed = yield owner.call(owner.address, "ds_remove_item", {"skv": key})
        return stored, removed

    stored, removed = index.run_process(roundtrip())
    assert stored["stored"]
    assert removed["removed"]


def test_store_rejects_keys_outside_range(cluster):
    index, _keys = cluster
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    peer = members[1]
    foreign_key = members[2].store.range.high  # owned by the other peer

    def attempt():
        response = yield peer.call(peer.address, "ds_store_item", {"item": {"skv": foreign_key}})
        return response

    response = index.run_process(attempt())
    assert response == {"stored": False, "reason": "not_responsible"}


def test_get_local_items_filters_by_interval(cluster):
    index, keys = cluster
    owner = owner_of(index, keys[3])

    def fetch():
        response = yield owner.call(
            owner.address, "ds_get_local_items", {"lb": keys[3] - 0.5, "ub": keys[3] + 0.5}
        )
        return response

    response = index.run_process(fetch())
    returned = [item["skv"] for item in response["items"]]
    assert keys[3] in returned


def test_deactivate_clears_store():
    from repro.datastore.store import DataStore

    index, keys = build_cluster(seed=31, peers=4, keys=[float(k) for k in range(200, 500, 20)])
    peer = index.ring_members()[-1]
    items_before = peer.store.item_count()
    assert items_before >= 0
    removed = peer.store.deactivate()
    assert not peer.store.active
    assert peer.store.range is None
    assert len(removed) == items_before
    assert peer.store.item_count() == 0


def test_set_range_low_to_high_becomes_full():
    index, _ = build_cluster(seed=32, peers=3, keys=[float(k) for k in range(200, 320, 20)])
    peer = index.ring_members()[0]
    peer.store.set_range_low(peer.store.range.high, reason="test")
    assert peer.store.range.full


def test_overflow_triggers_split_callback():
    index, keys = build_cluster(seed=33, peers=3, keys=[float(k) for k in range(200, 320, 20)])
    peer = index.ring_members()[0]
    calls = []
    peer.store.on_overflow = lambda: calls.append("overflow")
    for offset in range(index.config.overflow_threshold + 2):
        peer.store.store_local(Item(peer.store.range.high - 0.0001 * (offset + 1)))
    assert calls


def test_underflow_triggers_merge_callback():
    index, keys = build_cluster(seed=34, peers=3, keys=[float(k) for k in range(200, 320, 20)])
    peer = index.ring_members()[0]
    calls = []
    peer.store.on_underflow = lambda: calls.append("underflow")
    for key in list(peer.store.items.keys()):
        peer.store.remove_local(key)
    assert calls
