"""Hierarchical (P-Ring style) content router.

The P-Ring Content Router indexes the ring itself with a hierarchy of rings so
that the peer responsible for any search key value is reached in a logarithmic
number of hops even under skewed key distributions.  We implement the same
capability with the classic pointer-doubling construction: every peer maintains
a table whose level-``i`` pointer is (approximately) ``2**i`` ring positions
away, refreshed periodically by asking the level-``i-1`` peer for *its*
level-``i-1`` pointer; each pointer carries the ring value its peer reported
for itself.  Routing is greedy and iterative, as in Chord: each probed peer
answers with the farthest pointer in *its own* table that does not overshoot
the target key, so every hop roughly halves the remaining distance.  A dead
hop restarts from our successor; pointers that lead in a circle make the
lookup finish as a plain successor walk.

The construction differs from the paper's hierarchy-of-rings in mechanism but
matches it in the property the rest of the system relies on: O(log N) routing
over an order-preserving, skew-tolerant key assignment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.index.config import IndexConfig
from repro.maintenance.adaptive import router_cadence
from repro.ring.chord import RingListener
from repro.router.linear import LinearRouter
from repro.transport import RpcError


class _RefreshTightener(RingListener):
    """Feed ring neighbourhood changes back into the refresh cadence.

    A changed successor or predecessor means membership moved right next to
    this peer -- exactly when a backed-off routing table is most likely to be
    stale -- so the refresh controller is reset to its base period.
    """

    def __init__(self, cadence):
        self.cadence = cadence

    def on_successor_changed(self, ring, new_address: str) -> None:
        self.cadence.note_change()

    def on_predecessor_changed(self, ring, old_address, old_value, new_address, new_value) -> None:
        self.cadence.note_change()

    def on_predecessor_failed(self, ring, old_address, old_value) -> None:
        self.cadence.note_failure()


class HierarchicalRingRouter(LinearRouter):
    """Logarithmic-hop router built by pointer doubling."""

    def __init__(self, node, ring, store, config: IndexConfig, metrics=None, history=None):
        super().__init__(node, ring, store, config, metrics=metrics, history=history)
        # table[i] = (address, value) of the peer ~2**i positions clockwise.
        self.table: List[Tuple[str, float]] = []
        # Refresh cadence (fixed unless ``config.adaptive_maintenance``).
        # Under adaptive maintenance the loop backs off while consecutive
        # refreshes validate clean -- same pointers, no RPC errors -- and
        # tightens the moment the table changes or the ring reports a
        # neighbourhood change.
        self._cadence = router_cadence(
            config.adaptive_maintenance, config.router_refresh_period
        )
        ring.add_listener(_RefreshTightener(self._cadence))
        node.register_handler("route_table_entry", self._handle_table_entry)
        node.every(
            self._cadence.interval,
            self._refresh_table,
            jitter=config.stabilization_jitter,
            name="router-refresh",
            initial_delay=config.router_refresh_period,
        )

    # ------------------------------------------------------------------ table maintenance
    def _handle_table_entry(self, payload, request):
        """RPC: our own ring value and a slice of our routing table from ``level``.

        ``span`` entries are returned per request (pointer doubling used to ask
        for one level per round trip; batching the reply halves the refresh
        traffic, the dominant RPC at 1000+ peers).  Past the end of our table
        the reply falls back to our first live successor, with the value our
        successor list records for it.  ``value`` lets the caller stamp its
        pointer to us first-hand.
        """
        level = payload.get("level", 0)
        span = max(1, payload.get("span", 1))
        entries = [
            {"address": address, "value": value}
            for address, value in self.table[level : level + span]
        ]
        if not entries:
            successor = self.ring.first_live_successor()
            if successor is not None:
                entries.append(
                    {"address": successor, "value": self._successor_value(successor)}
                )
        return {"value": self.ring.value, "entries": entries}

    def _successor_value(self, address: str) -> Optional[float]:
        """The ring value our successor list records for ``address``."""
        for entry in self.ring.succ_list:
            if entry.address == address:
                return entry.value
        return None

    def _refresh_table(self):
        """Rebuild the pointer table by (batched) doubling along the ring.

        Each contacted peer returns two consecutive table entries, so the
        pointer spread stays geometric (ratios alternate ~2x and ~1.5x) at half
        the round trips.  Each contacted peer also reports its own ring value,
        which replaces the second-hand one its pointer was built from (that
        one may be stale).  The walk stops as soon as a pointer's clockwise
        distance stops growing -- the doubling has wrapped around the ring, and
        levels beyond that add traffic without shortening any route.

        The refresh outcome feeds the cadence controller: a walk that
        completes without hitting a dead pointer validated clean (the loop may
        back off).  Exact pointer equality is deliberately *not* required --
        far pointers drift between rounds because every peer rebuilds its
        table asynchronously from everyone else's, and that drift is benign
        (the pointer spread stays geometric over live peers).  Staleness
        proper is what tightens the cadence: a failed refresh hop here, a
        dead hop during routing, or a ring neighbourhood change via
        :class:`_RefreshTightener`.
        """
        if not self.ring.is_joined:
            return
        successor = self.ring.first_live_successor()
        if successor is None:
            self.table = []
            return
        size = self.config.router_table_size
        own_value = self.ring.value
        new_table: List[Tuple[str, float]] = []
        seen = {self.node.address}
        last_distance = -1.0

        def farther(value) -> bool:
            """Whether ``value`` lies past the last pointer (recording it if so)."""
            nonlocal last_distance
            if value is None:
                return True
            distance = self._clockwise(own_value, value)
            if distance <= last_distance:
                return False  # wrapped past our own position
            last_distance = distance
            return True

        current, current_value = successor, self._successor_value(successor)
        rpc_failed = False
        while current is not None and current not in seen and len(new_table) < size:
            floor = last_distance
            if not farther(current_value):
                break
            seen.add(current)
            new_table.append((current, current_value))
            if len(new_table) >= size:
                break
            try:
                response = yield self.node.call(
                    current, "route_table_entry", {"level": len(new_table) - 1, "span": 2}
                )
            except RpcError:
                rpc_failed = True
                break
            # Stamp the pointer with the value the peer reports for itself
            # and re-run the wrap check on that value.
            last_distance = floor
            if not farther(response["value"]):
                new_table.pop()
                break
            new_table[-1] = (current, response["value"])
            entries = response["entries"]
            for entry in entries[:-1]:
                address, value = entry["address"], entry["value"]
                if address in seen or len(new_table) >= size or not farther(value):
                    break
                seen.add(address)
                new_table.append((address, value))
            tail = entries[-1] if entries else {"address": None, "value": None}
            current, current_value = tail["address"], tail["value"]
        self.table = new_table
        if rpc_failed:
            self._cadence.note_failure()
        else:
            self._cadence.note_success()

    # ------------------------------------------------------------------ routing
    # The lookup loop is LinearRouter's; only where it jumps differs.  The
    # class keeps its own name for that loop because the benchmark's tracing
    # (perfbench/tracing.py) wraps ``find_responsible`` per router class.
    find_responsible = LinearRouter.find_responsible

    def _note_dead_hop(self) -> None:
        # A dead hop is first-hand staleness evidence: revalidate the table at
        # the base cadence until lookups run clean again.
        self._cadence.note_failure()

    def _next_hop(self, key: float) -> Optional[str]:
        """The farthest table pointer that does not pass ``key`` (closest preceding)."""
        own_value = self.ring.value
        target_distance = self._clockwise(own_value, key)
        best: Optional[str] = None
        best_distance = -1.0
        for address, value in self.table:
            if value is None or address == self.node.address:
                continue
            distance = self._clockwise(own_value, value)
            if distance <= target_distance and distance > best_distance:
                best = address
                best_distance = distance
        return best

    def _clockwise(self, start: float, end: float) -> float:
        """Clockwise distance from ``start`` to ``end`` on the key space."""
        if end >= start:
            return end - start
        return self.config.key_space - start + end
