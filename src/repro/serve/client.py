"""The one client-facing query API: ``QueryClient``.

A :class:`QueryClient` is scoped to an entry peer and issues range queries
``(lb, ub]`` under a routing policy:

* ``primary`` -- the historical path: delegate to the peer's
  :class:`~repro.core.scan_range.RangeQueryEngine` (scanRange or the naive
  scan, per the deployment's ``use_scan_range`` flag).
* ``replica_lb`` -- a client-coordinated ring walk over ``serve_meta`` /
  ``serve_read``: each hop probes the owner, then reads the owner's window
  from whichever of {owner} ∪ {live replica holders} has the fewest RPCs in
  flight (per the transport-fed
  :class:`~repro.serve.tracker.InFlightTracker`).  A replica that cannot
  prove its copy current -- the owner's live ``ItemStore.version`` differs
  from its recorded push version, or a key is tombstoned/missing -- refuses,
  and the client falls back to the primary for that window, so the result
  set is always exactly the primary's.
* ``cached`` -- ``replica_lb`` plus a client-side result cache keyed on the
  exact ``(lb, ub]`` window.  Every hit is revalidated against the owners'
  live ``serve_meta`` (version *and* range: a predecessor change shrinks a
  range without bumping the version); any mismatch invalidates the entry and
  re-executes the query.

The ``consistency`` knob: ``strong`` (default) performs the version
validation above; ``eventual`` lets replicas serve their recorded push
snapshot without comparing it to the owner's live version (one probe fewer of
staleness, bounded by the replication refresh period).

All methods returning query results are simulation generators (drive them
with ``sim.run_process`` or from another process); result dicts carry the
same shape the engine always produced, plus ``routing``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.datastore.items import Item, items_from_wire
from repro.datastore.ranges import CircularRange, segments_cover_interval
from repro.transport import RpcError

ROUTING_POLICIES = ("primary", "replica_lb", "cached")
CONSISTENCY_LEVELS = ("strong", "eventual")

# A client-coordinated walk gives up after this many hops (matches the naive
# scan's historical bound) and caps its cache at this many distinct windows.
_MAX_HOPS = 256
_MAX_CACHE_ENTRIES = 128


class QueryClient:
    """Range queries from one entry peer under a routing/consistency policy."""

    def __init__(
        self,
        peer,
        routing: str = "primary",
        consistency: str = "strong",
        tracker=None,
        metrics=None,
    ):
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing {routing!r}; known: {', '.join(ROUTING_POLICIES)}"
            )
        if consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency {consistency!r}; "
                f"known: {', '.join(CONSISTENCY_LEVELS)}"
            )
        self.peer = peer
        self.routing = routing
        self.consistency = consistency
        self.tracker = tracker
        self.metrics = metrics
        # window -> (items by skv, validation deps [(owner, version, range)]).
        self._cache: Dict[Tuple[float, float], Tuple[Dict[float, Item], List[tuple]]] = {}

    # ------------------------------------------------------------------ helpers
    @property
    def node(self):
        return self.peer

    def _record_metric(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.record(name, value)

    def _result(
        self,
        query_id: str,
        lb: float,
        ub: float,
        items: Dict[float, Item],
        started: float,
        scan_started: float,
        hops: int,
        complete: bool,
        strategy: str,
    ) -> dict:
        finished = self.peer.sim.now
        ordered = sorted(items.values(), key=lambda item: item.skv)
        self._record_metric("range_query", finished - started)
        self._record_metric("scan_elapsed", finished - scan_started)
        return {
            "query_id": query_id,
            "lb": lb,
            "ub": ub,
            "items": ordered,
            "keys": [item.skv for item in ordered],
            "start_time": started,
            "end_time": finished,
            "scan_elapsed": finished - scan_started,
            "hops": hops,
            "complete": complete,
            "strategy": strategy,
            "routing": self.routing,
        }

    # ------------------------------------------------------------------ public API
    def query(self, lb: float, ub: float, timeout: float = 60.0):
        """Execute the range query ``(lb, ub]`` under this client's policy.

        Generator returning the standard result dict (items, keys, hops,
        ``complete``, timing) tagged with the routing policy used.
        """
        if self.routing == "primary":
            result = yield from self.peer.queries.query(lb, ub, timeout=timeout)
            result["routing"] = "primary"
            return result
        if self.routing == "cached":
            result = yield from self._cached_query(lb, ub, timeout)
            return result
        result = yield from self._replica_query(lb, ub, timeout)
        return result

    # ------------------------------------------------------------------ replica_lb
    def _reroute(self, key: float, deadline: float):
        """Find the responsible owner for ``key``, retrying while routing heals."""
        while self.peer.sim.now < deadline:
            address = yield from self.peer.router.find_responsible(key)
            if address is not None:
                return address
            yield self.peer.sim.timeout(0.25)
        return None

    def _pick_target(self, owner: str, replicas: List[str]) -> str:
        """Least-loaded of the owner and its live replica holders."""
        if self.tracker is None or not replicas:
            return owner
        candidates = [owner] + [address for address in replicas if address != owner]
        return self.tracker.least_loaded(candidates)

    def _replica_query(self, lb: float, ub: float, timeout: float):
        query_id = self.peer.queries._new_query_id()
        started = self.peer.sim.now
        deadline = started + timeout
        items: Dict[float, Item] = {}
        segments: List[Tuple[float, float]] = []
        deps: List[tuple] = []
        watermark = lb
        hops = 0

        current = yield from self._reroute(lb, deadline)
        scan_started = self.peer.sim.now
        while (
            current is not None
            and watermark < ub - 1e-12
            and hops < _MAX_HOPS
            and self.peer.sim.now < deadline
        ):
            hops += 1
            try:
                meta = yield self.peer.call(current, "serve_meta", {})
            except RpcError:
                # The owner died under us: wait out failure detection so the
                # ring can repair (a successor revives the items), then route
                # again from the watermark.
                yield self.peer.sim.timeout(self.peer.config.failure_detection_timeout)
                current = yield from self._reroute(watermark, deadline)
                continue
            if not meta.get("active") or meta.get("range") is None:
                yield self.peer.sim.timeout(0.25)
                current = yield from self._reroute(watermark, deadline)
                continue
            crange = CircularRange.from_tuple(tuple(meta["range"]))
            new_watermark = watermark
            for lo, hi in sorted(crange.intersect_interval(watermark, ub)):
                if lo > new_watermark + 1e-12:
                    # A gap belongs to peers further along the walk.
                    continue
                new_watermark = max(new_watermark, hi)
            if new_watermark > watermark:
                response = None
                target = self._pick_target(current, meta.get("replicas", ()))
                version = meta["version"] if self.consistency == "strong" else None
                if target != current:
                    try:
                        response = yield self.peer.call(
                            target,
                            "serve_read",
                            {
                                "owner": current,
                                "lb": watermark,
                                "ub": new_watermark,
                                "version": version,
                            },
                        )
                    except RpcError:
                        response = None
                    if response is not None and not response.get("ok"):
                        self._record_metric("serve_replica_rejected", 1)
                        response = None
                if response is None:
                    # Replica unusable (stale, tombstoned, missing, dead) or
                    # load balancing picked the owner outright.
                    try:
                        response = yield self.peer.call(
                            current,
                            "serve_read",
                            {
                                "owner": current,
                                "lb": watermark,
                                "ub": new_watermark,
                                "version": None,
                            },
                        )
                    except RpcError:
                        yield self.peer.sim.timeout(
                            self.peer.config.failure_detection_timeout
                        )
                        current = yield from self._reroute(watermark, deadline)
                        continue
                    if not response.get("ok"):
                        # The range moved between probe and read: re-route.
                        current = yield from self._reroute(watermark, deadline)
                        continue
                for item in items_from_wire(response["items"]):
                    items[item.skv] = item
                segments.append((watermark, new_watermark))
                deps.append((current, meta["version"], tuple(meta["range"])))
                watermark = new_watermark
                if watermark >= ub - 1e-12:
                    break
            successor = meta.get("successor")
            if successor is None or successor == current:
                current = yield from self._reroute(watermark, deadline)
            else:
                current = successor

        complete = segments_cover_interval(segments, lb, ub)
        result = self._result(
            query_id, lb, ub, items, started, scan_started, hops, complete, "replica_lb"
        )
        result["deps"] = deps
        return result

    # ------------------------------------------------------------------ cached
    def _cached_query(self, lb: float, ub: float, timeout: float):
        window = (lb, ub)
        started = self.peer.sim.now  # a hit's latency includes its validation
        entry = self._cache.get(window)
        if entry is not None:
            valid = yield from self._validate(entry[1])
            if valid:
                self._record_metric("serve_cache_hit", 1)
                query_id = self.peer.queries._new_query_id()
                result = self._result(
                    query_id, lb, ub, dict(entry[0]), started, started, 0, True, "cached"
                )
                result["cached"] = True
                return result
            self._cache.pop(window, None)
            self._record_metric("serve_cache_invalidate", 1)
        self._record_metric("serve_cache_miss", 1)
        result = yield from self._replica_query(lb, ub, timeout)
        result["strategy"] = "cached"
        result["cached"] = False
        if result["complete"] and result.get("deps"):
            if len(self._cache) >= _MAX_CACHE_ENTRIES:
                # FIFO eviction: drop the oldest window.
                self._cache.pop(next(iter(self._cache)))
            self._cache[window] = (
                {item.skv: item for item in result["items"]},
                list(result["deps"]),
            )
        return result

    def _validate(self, deps: List[tuple]):
        """Whether every dependency owner still matches its cached snapshot."""
        for owner, version, range_tuple in deps:
            try:
                meta = yield self.peer.call(owner, "serve_meta", {})
            except RpcError:
                return False
            if (
                not meta.get("active")
                or meta.get("version") != version
                or meta.get("range") is None
                or tuple(meta["range"]) != tuple(range_tuple)
            ):
                return False
        return True

    def invalidate(self) -> None:
        """Drop every cached window (e.g. after an out-of-band mutation)."""
        self._cache.clear()
