"""Message transport with latency, loss, and RPC semantics.

Peers in the paper communicate over a LAN with "known bounded delay"
(Section 2.1).  The :class:`Network` models that channel:

* every message experiences a latency drawn from a pluggable
  :class:`LatencyModel` (uniform, or LAN-vs-WAN two-tier);
* messages may be dropped with probability ``drop_probability``;
* a request to a failed (or departed) peer is silently lost, so the caller
  observes an :class:`RpcTimeout` after ``rpc_timeout`` seconds -- this is how
  failure detection costs enter the latency measurements (Figure 23).

The only communication primitive higher layers use is :meth:`Network.call`:
request/response RPC addressed by peer address and handler name.

Scenario specs select the model like any other deployment setting, through
the ``network`` field of their ``IndexConfig`` overrides: the 4-site WAN
cells set ``NetworkConfig(latency_model=LanWanLatency(sites=4))``, so they
are registry entries rather than bespoke network wiring.  The network also feeds
the adaptive maintenance subsystem: :meth:`Network.observed_rtt` reports the
mean measured round trip (seeded from the model's nominal latency until real
samples exist), which the RTT-scaled cadence controllers in
:mod:`repro.maintenance.cadence` consult before every maintenance round.

Scalability notes
-----------------
* The RPC expiry timer goes through the clock's
  ``schedule_timer``/``cancel_timer`` API and is cancelled as soon as the
  reply is delivered.  Under churn-free operation nearly every call completes
  in milliseconds while its timer spans the full ``rpc_timeout``; without
  cancellation those dead timers dominate the event queue of large
  deployments.  A cancel tombstones the heap entry.
* Messages due at exactly the same instant are *batched*: one engine entry
  drains the whole batch.  Only a degenerate model such as
  ``UniformLatency(x, x)`` lands many messages on one instant; under the
  default LAN and WAN models a batch is nearly always a single message.
* :meth:`Network.cast` is a fire-and-forget fast path for messages nobody
  waits on (replication refreshes, delete propagation): no reply event, no
  expiry timer, no reply message.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import Event, Simulator

# The RPC failure hierarchy, request record and stats counters are shared by
# every transport; they live in the dependency-free contract module and are
# re-exported here so historical ``repro.sim.network`` imports keep working.
from repro.transport.api import (  # noqa: F401  (re-exported)
    NetworkStats,
    RpcError,
    RpcRemoteError,
    RpcRequest,
    RpcTimeout,
    RpcUnreachable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.transport.endpoint import Endpoint


# --------------------------------------------------------------------------- latency models
class LatencyModel:
    """Per-message latency as a function of the two endpoint addresses."""

    def sample(self, rng, source: str, destination: str) -> float:
        raise NotImplementedError

    def nominal_latency(self) -> float:
        """Expected one-way latency of a typical message (no rng involved).

        Used to seed RTT-aware maintenance cadences before enough real
        messages have been observed to average over.
        """
        raise NotImplementedError

    def validate(self) -> None:
        """Raise ``ValueError`` for physically meaningless settings."""


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` (the paper's LAN model)."""

    low: float = 0.0005
    high: float = 0.003

    def sample(self, rng, source: str, destination: str) -> float:
        if self.high <= self.low:
            return self.low
        return rng.uniform(self.low, self.high)

    def nominal_latency(self) -> float:
        return (self.low + self.high) / 2.0

    def validate(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("latency bounds must satisfy 0 <= low <= high")


@dataclass(frozen=True)
class LanWanLatency(LatencyModel):
    """Two-tier model: peers hash into ``sites``; cross-site messages pay WAN cost.

    Addresses are assigned to sites by a stable CRC hash, so the site layout is
    a pure function of the deployment's addresses (reproducible across runs and
    processes).
    """

    sites: int = 4
    lan: UniformLatency = UniformLatency(0.0005, 0.003)
    wan: UniformLatency = UniformLatency(0.02, 0.08)

    def site_of(self, address: str) -> int:
        return zlib.crc32(address.encode("utf-8")) % self.sites

    def sample(self, rng, source: str, destination: str) -> float:
        if self.site_of(source) == self.site_of(destination):
            return self.lan.sample(rng, source, destination)
        return self.wan.sample(rng, source, destination)

    def nominal_latency(self) -> float:
        # Expected latency for uniformly random endpoint pairs: a message
        # crosses sites with probability (sites - 1) / sites.
        if self.sites <= 1:
            return self.lan.nominal_latency()
        cross = (self.sites - 1) / self.sites
        return cross * self.wan.nominal_latency() + (1 - cross) * self.lan.nominal_latency()

    def validate(self) -> None:
        if self.sites < 1:
            raise ValueError("LanWanLatency needs at least one site")
        self.lan.validate()
        self.wan.validate()


@dataclass
class NetworkConfig:
    """Tunable parameters of the message channel.

    The defaults approximate the paper's LAN cluster: uniform 0.5-3 ms per
    message, no loss.
    """

    drop_probability: float = 0.0
    rpc_timeout: float = 0.5
    latency_model: LatencyModel = UniformLatency(0.0005, 0.003)

    def validate(self) -> None:
        """Raise ``ValueError`` for physically meaningless settings."""
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive")
        self.latency_model.validate()


class _ReplyHandle:
    """The reply continuation handed to :meth:`Endpoint._handle_rpc`.

    A slotted record instead of a per-RPC closure.  A handle abandoned
    without being called (its node died mid-handler) is simply dropped to
    the garbage collector.
    """

    __slots__ = ("net", "request", "result", "timer")

    def __init__(self, net: "Network", request: RpcRequest, result: Event, timer: list):
        self.net = net
        self.request = request
        self.result = result
        self.timer = timer

    def __call__(self, value: Any, error: Optional[BaseException]) -> None:
        self.net._transmit_reply(self.request, self.result, self.timer, value, error)


# Metric series fed to an attached collector under a LanWanLatency model.
INTRA_SITE_LATENCY_METRIC = "net_latency_intra_site"
CROSS_SITE_LATENCY_METRIC = "net_latency_cross_site"


class Network:
    """Connects :class:`~repro.transport.endpoint.Endpoint` instances by address.

    ``metrics`` is an optional collector (anything with a
    ``record(name, value)`` method, e.g. :class:`repro.harness.metrics.Metrics`).
    When the resolved latency model is site-aware (:class:`LanWanLatency`),
    every message's sampled latency is recorded into the intra-site or
    cross-site series so WAN experiments can report latency histograms, and
    ``stats.per_site_rpcs`` counts RPCs by originating site.  Other models pay
    no per-message overhead.
    """

    def __init__(
        self,
        sim: Simulator,
        rng,
        config: Optional[NetworkConfig] = None,
        metrics=None,
    ):
        self.sim = sim
        self.rng = rng
        self.metrics = metrics
        self.config = config or NetworkConfig()
        self.config.validate()
        self.latency_model = self.config.latency_model
        # Site-aware instrumentation only exists under a two-tier model.
        self._site_of: Optional[Callable[[str], int]] = (
            self.latency_model.site_of
            if isinstance(self.latency_model, LanWanLatency)
            else None
        )
        self.stats = NetworkStats()
        self._nodes: Dict[str, "Endpoint"] = {}
        self._next_request_id = 0
        # Pending same-instant delivery batches, keyed on absolute delivery time.
        self._batches: Dict[float, List[Tuple[Callable[[Any], None], Any]]] = {}
        # The clock's timer API, bound once: it sits on the per-RPC path.
        self._schedule_timer = sim.schedule_timer
        self._cancel_timer = sim.cancel_timer
        # Optional RPC observer: anything with ``rpc_issued(source,
        # destination, method)`` / ``rpc_completed(destination)``.  Every
        # ``call`` issues exactly one completion -- on reply delivery or on
        # expiry, whichever settles the caller's event -- so an observer can
        # maintain per-destination in-flight counts (the serve layer's
        # :class:`~repro.serve.tracker.InFlightTracker` does).  Casts are not
        # observed: they have no completion signal.
        self.observer = None

    # -- membership --------------------------------------------------------
    def register(self, node: "Endpoint") -> None:
        """Attach ``node`` so other peers can address it."""
        self._nodes[node.address] = node

    def unregister(self, address: str) -> None:
        """Detach the node at ``address`` (it becomes unreachable)."""
        self._nodes.pop(address, None)

    def node(self, address: str) -> Optional["Endpoint"]:
        """Return the node registered at ``address``, if any."""
        return self._nodes.get(address)

    # -- latency model -----------------------------------------------------
    def _latency(self, source: str, destination: str) -> float:
        latency = self.latency_model.sample(self.rng, source, destination)
        stats = self.stats
        stats.latency_sum += latency
        stats.latency_samples += 1
        site_of = self._site_of
        if site_of is not None and self.metrics is not None:
            self.metrics.record(
                INTRA_SITE_LATENCY_METRIC
                if site_of(source) == site_of(destination)
                else CROSS_SITE_LATENCY_METRIC,
                latency,
            )
        return latency

    # Minimum sampled messages before the observed mean outweighs the model's
    # nominal latency in :meth:`observed_rtt`.
    _RTT_WARMUP_SAMPLES = 32

    def observed_rtt(self) -> float:
        """Mean observed round trip (2x the mean one-way latency).

        Until enough messages have been sampled the model's nominal latency is
        reported instead, so RTT-seeded maintenance cadences are sensible from
        the first round of a deployment's life.
        """
        stats = self.stats
        if stats.latency_samples >= self._RTT_WARMUP_SAMPLES:
            return 2.0 * stats.latency_sum / stats.latency_samples
        return 2.0 * self.latency_model.nominal_latency()

    def _dropped(self) -> bool:
        prob = self.config.drop_probability
        return prob > 0 and self.rng.random() < prob

    # -- batched delivery ---------------------------------------------------
    def _schedule_delivery(self, delay: float, func: Callable[[Any], None], arg: Any) -> None:
        """Deliver ``func(arg)`` after ``delay``; same-instant messages share one heap entry."""
        time = self.sim.now + delay
        batch = self._batches.get(time)
        if batch is None:
            self._batches[time] = batch = []
            self.sim.schedule_at(time, self._run_batch, time)
            self.stats.delivery_batches += 1
        batch.append((func, arg))

    def _run_batch(self, time: float) -> None:
        for func, arg in self._batches.pop(time):
            func(arg)

    # -- RPC ----------------------------------------------------------------
    def call(
        self,
        source: str,
        destination: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """Issue an RPC and return the event carrying the reply.

        The event succeeds with the handler's return value, or fails with an
        :class:`RpcError` subclass.  Callers are simulated processes and simply
        ``yield`` the returned event.
        """
        timeout = self.config.rpc_timeout if timeout is None else timeout
        result = self.sim.event()
        self.stats.record_call(method)
        site_of = self._site_of
        if site_of is not None:
            key = f"site{site_of(source)}"
            per_site = self.stats.per_site_rpcs
            per_site[key] = per_site.get(key, 0) + 1
        self._next_request_id += 1
        timer = self._schedule_timer(timeout, self._expire, (result, method, destination))
        if self.observer is not None:
            self.observer.rpc_issued(source, destination, method)
        self.stats.messages_sent += 1
        if self._dropped():
            self.stats.messages_dropped += 1
        else:
            request = RpcRequest(source, destination, method, payload, self._next_request_id)
            self._schedule_delivery(
                self._latency(source, destination),
                self._deliver_request,
                (request, result, timer),
            )
        return result

    def cast(self, source: str, destination: str, method: str, payload: Any = None) -> None:
        """Send a one-way message: no reply event, no expiry timer, no reply.

        The fire-and-forget fast path for traffic nobody waits on (replication
        refresh fan-outs, delete propagation).  The message still pays latency
        and loss like any other, still counts in the per-method call stats,
        and a dead destination swallows it silently -- exactly what a caller
        that discards the reply event of :meth:`call` observed, minus the
        event, timer and reply-message overhead.
        """
        self.stats.record_call(method)
        site_of = self._site_of
        if site_of is not None:
            key = f"site{site_of(source)}"
            per_site = self.stats.per_site_rpcs
            per_site[key] = per_site.get(key, 0) + 1
        self._next_request_id += 1
        self.stats.messages_sent += 1
        if self._dropped():
            self.stats.messages_dropped += 1
            return
        request = RpcRequest(source, destination, method, payload, self._next_request_id)
        self._schedule_delivery(
            self._latency(source, destination), self._deliver_cast, request
        )

    # -- internals ----------------------------------------------------------
    def _expire(self, pending: Tuple[Event, str, str]) -> None:
        result, method, destination = pending
        if not result.triggered:
            if self.observer is not None:
                self.observer.rpc_completed(destination)
            self.stats.rpc_timeouts += 1
            result.fail(RpcTimeout(f"{method} -> {destination} timed out"))

    def _deliver_request(self, transfer: Tuple[RpcRequest, Event, list]) -> None:
        request, result, timer = transfer
        node = self._nodes.get(request.destination)
        if node is None or not node.alive:
            return  # a dead or missing peer never answers; the caller times out
        node._handle_rpc(request, _ReplyHandle(self, request, result, timer))

    def _deliver_cast(self, request: RpcRequest) -> None:
        node = self._nodes.get(request.destination)
        if node is not None and node.alive:
            node._handle_cast(request)

    def _transmit_reply(
        self,
        request: RpcRequest,
        result: Event,
        timer: list,
        value: Any,
        error: Optional[BaseException],
    ) -> None:
        self.stats.messages_sent += 1
        if self._dropped():
            self.stats.messages_dropped += 1
            return
        self._schedule_delivery(
            self._latency(request.destination, request.source),
            self._deliver_reply,
            (result, timer, value, error),
        )

    def _deliver_reply(self, transfer: Tuple[Event, list, Any, Optional[BaseException]]) -> None:
        result, timer, value, error = transfer
        if result.triggered:
            # The expiry timer won the race; it already fired, so the handle
            # must not be cancelled -- see the timer contract.
            return
        # The reply made it first: cancel the timer (its argument names the
        # destination for the observer).
        pending = self._cancel_timer(timer)
        if pending is not None and self.observer is not None:
            self.observer.rpc_completed(pending[2])
        if error is None:
            result.succeed(value)
        else:
            result.fail(error)
