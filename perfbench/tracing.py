"""Per-layer tracing, installed from the benchmark's own files.

The traced run wraps the calls *into* each layer's public functions -- RPC
handlers (``Endpoint.register_handler``), periodic loops (``Endpoint.every``),
the message plane (``Network.call``/``cast`` and its delivery callbacks), the
engine (``Simulator.run``/``schedule_timer``/``cancel_timer``), routing
(``*Router.find_responsible``) and reads (``QueryClient.query``,
``RangeQueryEngine.query``) -- and keeps an exclusive-time ledger: a span's
self time is its duration minus the spans nested inside it.  Generator
handlers are timed step by step, so a handler that waits on an RPC is charged
only for the Python it runs, never for simulated waiting.

Nothing here changes what the system computes: the wrappers draw no random
numbers and schedule no events, and the traced window is checked to produce
exactly the untraced window's simulated outcome.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Dict, List

from repro.harness.metrics import nearest_rank

#: RPC method -> the layer that *issues* it.  Handlers are charged to the same
#: layer, so a handler registered by one package on behalf of another (the
#: router's ``ds_probe`` lives in ``datastore/store.py``) lands where the work
#: is caused.
METHOD_LAYER = {
    # ring/ + core/pepper_ring
    "ring_stabilize": "ring",
    "ring_ping": "ring",
    "ring_insert_successor": "ring",
    "ring_join": "ring",
    "ring_nudge": "ring",
    "ring_join_ack": "ring",
    "ring_leave_ack": "ring",
    "ring_joining_notice": "ring",
    "ring_leaving_notice": "ring",
    # datastore/ (item writes, split/merge, free-peer pool, rebalancer)
    "ds_store_item": "datastore",
    "ds_remove_item": "datastore",
    "ds_activate": "datastore",
    "ds_split_complete": "datastore",
    "ds_redistribute_request": "datastore",
    "ds_absorb_items": "datastore",
    "ds_bulk_get": "datastore",
    "ds_bulk_put": "datastore",
    "pool_acquire": "datastore",
    "pool_release": "datastore",
    # router/
    "ds_probe": "router",
    "route_table_entry": "router",
    # replication/
    "rep_store_replicas": "replication",
    "rep_remove_replica": "replication",
    # core/scan_range (scanRange, and the naive scan's item/successor fetches)
    "scan_begin": "scan",
    "scan_continue": "scan",
    "query_deliver": "scan",
    "ring_successor_info": "scan",
    "ds_get_local_items": "scan",
    # serve/
    "serve_meta": "serve",
    "serve_read": "serve",
}

def module_layer(module: str) -> str:
    """The layer a periodic loop belongs to, from its action's module."""
    if module.startswith(("repro.ring", "repro.core.pepper_ring")):
        return "ring"
    if module.startswith("repro.core.scan_range"):
        return "scan"
    for layer in ("datastore", "router", "replication", "serve"):
        if module.startswith(f"repro.{layer}"):
            return layer
    return "other"


class Ledger:
    """Exclusive wall time per ledger key, plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Start a fresh ledger (between spans only: the stack must be empty)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.stack: List[str] = ["bench"]
        self.mark = time.perf_counter()
        self.counts.clear()  # cleared in place: the wrappers hold a reference
        self.loop_rounds: Dict[str, int] = defaultdict(int)
        self.lookup_latency: List[float] = []
        self.serve_hops: List[int] = []

    def enter(self, key: str) -> None:
        now = time.perf_counter()
        self.self_s[self.stack[-1]] += now - self.mark
        self.stack.append(key)
        self.mark = now

    def exit(self) -> None:
        now = time.perf_counter()
        self.self_s[self.stack.pop()] += now - self.mark
        self.mark = now

    def close(self) -> None:
        """Charge the time since the last boundary to the open span."""
        now = time.perf_counter()
        self.self_s[self.stack[-1]] += now - self.mark
        self.mark = now


def timed(generator, key: str, ledger: Ledger):
    """Drive ``generator`` one step at a time, charging each step to ``key``."""
    enter, leave = ledger.enter, ledger.exit
    value = None
    error = None
    while True:
        enter(key)
        try:
            out = generator.send(value) if error is None else generator.throw(error)
        except StopIteration as stop:
            leave()
            return stop.value
        except BaseException:
            leave()
            raise
        leave()
        try:
            value = yield out
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as caught:
            value = None
            error = caught


def _span(function, key: str, ledger: Ledger):
    """Wrap a synchronous call as a span; a returned generator is timed too."""
    enter, leave = ledger.enter, ledger.exit

    def wrapper(*args, **kwargs):
        enter(key)
        try:
            out = function(*args, **kwargs)
        finally:
            leave()
        if inspect.isgenerator(out):
            return timed(out, key, ledger)
        return out

    return wrapper


def install(ledger: Ledger) -> None:
    """Patch the layer entry points; affects deployments built afterwards."""
    from repro.core.scan_range import RangeQueryEngine
    from repro.router.hierarchical import HierarchicalRingRouter
    from repro.router.linear import LinearRouter
    from repro.serve.client import QueryClient
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.transport.endpoint import Endpoint

    counts = ledger.counts
    enter, leave = ledger.enter, ledger.exit

    register_handler = Endpoint.register_handler

    def traced_register_handler(self, method, handler):
        register_handler(self, method, _span(handler, METHOD_LAYER.get(method, "other"), ledger))

    every = Endpoint.every

    def traced_every(self, period, action, jitter=0.0, initial_delay=None, name=""):
        layer = module_layer(getattr(action, "__module__", None) or "")
        spanned = _span(action, f"{layer}/loop", ledger)

        def round_():
            ledger.loop_rounds[f"{layer}/{name}"] += 1
            return spanned()

        return every(self, period, round_, jitter, initial_delay, name)

    Endpoint.register_handler = traced_register_handler
    Endpoint.every = traced_every

    call, cast = Network.call, Network.cast

    def traced_call(self, source, destination, method, payload=None, timeout=None):
        counts["net.calls"] += 1
        if method == "serve_read" and payload.get("owner") != destination:
            counts["serve.replica_reads"] += 1
        enter("net")
        try:
            return call(self, source, destination, method, payload, timeout)
        finally:
            leave()

    def traced_cast(self, source, destination, method, payload=None):
        counts["net.casts"] += 1
        enter("net")
        try:
            return cast(self, source, destination, method, payload)
        finally:
            leave()

    Network.call = traced_call
    Network.cast = traced_cast
    Network._run_batch = _span(Network._run_batch, "net", ledger)
    Network._expire = _span(Network._expire, "net", ledger)

    Simulator.run = _span(Simulator.run, "sim", ledger)
    schedule_timer, cancel_timer = Simulator.schedule_timer, Simulator.cancel_timer

    def traced_schedule_timer(self, delay, func, arg=None):
        counts["sim.timers_armed"] += 1
        return schedule_timer(self, delay, func, arg)

    def traced_cancel_timer(self, entry):
        counts["sim.timers_cancelled"] += 1
        return cancel_timer(self, entry)

    Simulator.schedule_timer = traced_schedule_timer
    Simulator.cancel_timer = traced_cancel_timer

    def lookup(router, generator):
        sim = router.node.sim
        started = sim.now
        counts["router.lookups"] += 1
        address = yield from timed(generator, "router", ledger)
        ledger.lookup_latency.append(sim.now - started)
        if address is None:
            counts["router.lookup_failures"] += 1
        return address

    for cls in (LinearRouter, HierarchicalRingRouter):
        original = cls.__dict__["find_responsible"]

        def traced_find(self, key, max_hops=512, _original=original):
            generator = _original(self, key, max_hops)
            if ledger.stack[-1] == "router":
                return generator  # the hierarchical router's fallback walk
            return lookup(self, generator)

        cls.find_responsible = traced_find

    client_query = QueryClient.query

    def serve_query(self, lb, ub, timeout=60.0):
        counts["serve.queries"] += 1
        result = yield from timed(client_query(self, lb, ub, timeout), "serve", ledger)
        ledger.serve_hops.append(result["hops"])
        return result

    QueryClient.query = serve_query

    engine_query = RangeQueryEngine.query

    def scan_query(self, lb, ub, strategy=None, timeout=60.0):
        counts["scan.queries"] += 1
        result = yield from timed(engine_query(self, lb, ub, strategy, timeout), "scan", ledger)
        if not result["complete"]:
            counts["scan.incomplete"] += 1
        return result

    RangeQueryEngine.query = scan_query


# --------------------------------------------------------------------------- the traced window
def _layer_self(ledger: Ledger, layer: str) -> float:
    return ledger.self_s.get(layer, 0.0) + ledger.self_s.get(f"{layer}/loop", 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _TraceHooks:
    """Snapshot the counters around the traced window (see workloads.Hooks)."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.wrap = lambda generator: timed(generator, "client", ledger)
        self.before_timing = ledger.reset

    def ready(self, window) -> None:
        index = window.index
        stats = index.network.stats
        self.per_method_before = dict(stats.per_method)
        self.rpc_before, self.timeouts_before = stats.rpc_calls, stats.rpc_timeouts
        self.history_before = len(index.history.operations)
        self.metric_counts_before = {
            name: index.metrics.count(name)
            for name in ("serve_replica_rejected", "insert_succ", "leave")
        }

    def after_window(self, window, plane: dict) -> None:
        self.ledger.close()
        self.metrics, self.checks, self.lines = _layer_metrics(self, window, plane)


def traced_window(
    workload, seed: int, subrun: int, seconds: int, untraced: dict, setup_walls: dict
) -> dict:
    """Replay one sub-run on an identical deployment with tracing installed."""
    from report import fingerprint
    from workloads import run_subrun

    ledger = Ledger()
    install(ledger)
    hooks = _TraceHooks(ledger)
    traced, _walls = run_subrun(workload, seed, subrun, seconds, hooks)
    metrics = hooks.metrics
    metrics["setup.build_s"] = setup_walls.get("build", 0.0)
    metrics["setup.settle_s"] = setup_walls.get("settle", 0.0)
    metrics["trace.overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1.0
    checks = dict(hooks.checks)
    checks["tracing leaves the simulated outcome unchanged"] = fingerprint(traced) == fingerprint(
        untraced
    )
    report = [f"per-layer (traced replay of sub-run {subrun}):"]
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        report.append(f"  {name:<28} {shown}")
    report.extend(hooks.lines)
    report.append(
        f"  traced run_s {traced['run_s']:.3f}s, untraced run_s {untraced['run_s']:.3f}s"
    )
    for name, ok in checks.items():
        report.append(f"  self-check {'ok  ' if ok else 'FAIL'} {name}")
    return {"metrics": metrics, "report": report, "correct": all(checks.values())}


def _layer_metrics(hooks: _TraceHooks, window, plane: dict):
    """Per-layer metrics of the window just run, plus the accounting self-checks."""
    ledger = hooks.ledger
    index = window.index
    stats = index.network.stats
    per_method_before = hooks.per_method_before
    rpc_before = hooks.rpc_before
    per_method = {
        method: count - per_method_before.get(method, 0)
        for method, count in stats.per_method.items()
        if count - per_method_before.get(method, 0)
    }
    rpcs = defaultdict(int)
    for method, count in per_method.items():
        rpcs[METHOD_LAYER.get(method, "other")] += count
    window_ops = index.history.operations[hooks.history_before:]
    kinds = defaultdict(int)
    for op in window_ops:
        kinds[op.kind] += 1
    metric_delta = {
        name: index.metrics.count(name) - before
        for name, before in hooks.metric_counts_before.items()
    }
    members = [peer.address for peer in index.ring_members()]
    counts = ledger.counts
    lookups_done = len(ledger.lookup_latency)
    latency_ms = sorted(value * 1000.0 for value in ledger.lookup_latency) or [0.0]
    run_s = plane["run_s"]
    loop_self = sum(value for key, value in ledger.self_s.items() if key.endswith("/loop"))

    metrics = {
        "sim.events": plane["events"],
        "sim.timers_armed": counts["sim.timers_armed"],
        "sim.timers_cancelled": counts["sim.timers_cancelled"],
        "sim.self_s": ledger.self_s.get("sim", 0.0),
        "net.rpcs": counts["net.calls"],
        "net.casts": counts["net.casts"],
        "net.messages": plane["messages"],
        "net.rpc_timeouts": stats.rpc_timeouts - hooks.timeouts_before,
        "net.self_s": ledger.self_s.get("net", 0.0),
        "router.lookups": counts["router.lookups"],
        "router.probes_per_lookup": _ratio(
            per_method.get("ds_probe", 0), counts["router.lookups"]
        ),
        "router.lookup_p50_ms": nearest_rank(latency_ms, 0.5),
        "router.lookup_p99_ms": nearest_rank(latency_ms, 0.99),
        "router.lookup_fail_frac": _ratio(counts["router.lookup_failures"], lookups_done),
        "router.refresh_rpcs": per_method.get("route_table_entry", 0),
        "router.rpcs": rpcs["router"],
        "router.self_s": _layer_self(ledger, "router"),
        "serve.queries": counts["serve.queries"],
        "serve.hops_per_query": _ratio(sum(ledger.serve_hops), len(ledger.serve_hops)),
        "serve.replica_reads": counts["serve.replica_reads"],
        "serve.replica_refusals": metric_delta["serve_replica_rejected"],
        "serve.load_var": index.serve_tracker.read_load_variance(members),
        "serve.rpcs": rpcs["serve"],
        "serve.self_s": _layer_self(ledger, "serve"),
        "scan.queries": counts["scan.queries"],
        "scan.continue_per_query": _ratio(
            per_method.get("scan_continue", 0), counts["scan.queries"]
        ),
        "scan.incomplete": counts["scan.incomplete"],
        "scan.rpcs": rpcs["scan"],
        "scan.self_s": _layer_self(ledger, "scan"),
        "ring.rpcs": rpcs["ring"],
        "ring.stabilize_rounds": ledger.loop_rounds.get("ring/ring-stabilize", 0),
        "ring.joins": metric_delta["insert_succ"],
        "ring.leaves": metric_delta["leave"],
        "ring.self_s": _layer_self(ledger, "ring"),
        "datastore.rpcs": rpcs["datastore"],
        "datastore.splits": kinds["split_finished"],
        "datastore.merges": kinds["merge_finished"],
        "datastore.self_s": _layer_self(ledger, "datastore"),
        "replication.rpcs": rpcs["replication"],
        "replication.self_s": _layer_self(ledger, "replication"),
        "loops.rounds": sum(ledger.loop_rounds.values()),
        "loops.self_s": loop_self,
        "client.self_s": ledger.self_s.get("client", 0.0),
        "mem.history_ops": len(index.history.operations),
        "mem.metric_samples": sum(index.metrics.count(name) for name in index.metrics.names()),
    }

    # Self-checks: the layer split must account for everything it claims to.
    ledger_total = sum(ledger.self_s.values())
    window_rpcs = stats.rpc_calls - rpc_before
    checks = {
        "every RPC method maps to a layer": rpcs.get("other", 0) == 0,
        "per-layer RPCs sum to the window's NetworkStats total": sum(rpcs.values()) == window_rpcs,
        "wrapped calls + casts equal NetworkStats rpc_calls": (
            counts["net.calls"] + counts["net.casts"] == window_rpcs
        ),
        "layer self times account for the traced run_s (within 2%)": abs(ledger_total - run_s)
        <= 0.02 * run_s,
    }
    lines = [
        "  rpcs by method: " + ", ".join(f"{m}={c}" for m, c in sorted(per_method.items())),
        "  loop rounds: " + ", ".join(f"{k}={v}" for k, v in sorted(ledger.loop_rounds.items())),
        "  self time by ledger key: "
        + ", ".join(f"{k}={v:.3f}s" for k, v in sorted(ledger.self_s.items()))
        + f" (total {ledger_total:.3f}s)",
    ]
    return metrics, checks, lines
