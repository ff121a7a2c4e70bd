"""Linear (successor-walking) content router, and the one routing loop.

Every router sends the same ``ds_probe`` RPC and runs the same greedy,
iterative lookup (:meth:`LinearRouter.find_responsible`): each probed peer
answers whether it owns the key, its first live successor, and ``next`` -- its
own jump toward the key -- and the lookup follows ``next`` when there is one,
else the successor.  This router keeps no pointers, so it answers
``next=None`` and the lookup is a plain successor walk: O(N) messages, but
simple and robust.  :class:`~repro.router.hierarchical.HierarchicalRingRouter`
changes only where a lookup jumps.
"""

from __future__ import annotations

from typing import Optional

from repro.index.config import IndexConfig
from repro.transport import RpcError


class LinearRouter:
    """Find the peer responsible for a key by walking the ring."""

    def __init__(self, node, ring, store, config: IndexConfig, metrics=None, history=None):
        self.node = node
        self.ring = ring
        self.store = store
        self.config = config
        self.metrics = metrics
        self.history = history
        node.register_handler("ds_probe", self._handle_probe)

    # ------------------------------------------------------------------ helpers
    def _record_route(self, key: float, hops: int, found: Optional[str]) -> None:
        if self.history is not None:
            self.history.record(
                "route", peer=self.node.address, key=key, hops=hops, found=found
            )
        if self.metrics is not None:
            self.metrics.record("route_hops", hops)

    def _local_owner(self, key: float) -> bool:
        return self.store.owns_key(key)

    def _next_hop(self, key: float) -> Optional[str]:
        """Where this peer jumps toward ``key``; ``None``: take the successor."""
        return None

    def _note_dead_hop(self) -> None:
        """A probed peer did not answer (hook for routers that keep pointers)."""

    def _handle_probe(self, payload, request):
        """RPC: routing probe -- do we own ``key``, who follows us, where do we jump?"""
        key = payload["key"]
        owns = self._local_owner(key)
        return {
            "owns": owns,
            "successor": self.ring.first_live_successor(),
            "next": None if owns else self._next_hop(key),
        }

    # ------------------------------------------------------------------ routing
    def find_responsible(self, key: float, max_hops: int = 512):
        """Generator: the address of the peer responsible for ``key``, or ``None``.

        Greedy and iterative: the lookup starts at our own jump (or our
        successor) and then follows each probed peer's ``next`` (or its
        successor) until a peer owns the key.  A dead hop restarts from our
        successor, and no later jump goes to that peer again.  If jumps lead
        back to a peer already probed (stale pointers or ranges), the lookup
        finishes as a plain successor walk from our successor; a walk that
        comes back to a probed peer gives up.
        """
        if self._local_owner(key):
            self._record_route(key, 0, self.node.address)
            return self.node.address
        current = self._next_hop(key)
        jumped = current is not None
        walking = False
        if current is None:
            current = self.ring.first_live_successor()
        hops = 0
        visited = set()
        dead = set()
        while current is not None and hops < max_hops:
            if current in visited:
                if walking or not jumped:
                    break
                walking = True
                visited.clear()
                current = self.ring.first_live_successor()
                continue
            hops += 1
            visited.add(current)
            try:
                probe = yield self.node.call(current, "ds_probe", {"key": key})
            except RpcError:
                self._note_dead_hop()
                dead.add(current)
                current = self.ring.first_live_successor()
                visited.clear()
                continue
            if probe["owns"]:
                self._record_route(key, hops, current)
                return current
            next_hop = None if walking else probe["next"]
            if next_hop is None or next_hop in dead:
                next_hop = probe["successor"]
            else:
                jumped = True
            if next_hop == current:
                break
            current = next_hop
        self._record_route(key, hops, None)
        return None
