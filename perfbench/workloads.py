"""Workload definitions, seeded input generation and the measured window.

Each workload is one deployment from the scenario registry plus an open-loop
schedule of reads, writes and failures.  Every input -- keys, query windows,
arrival times, entry peers, failure victims -- is drawn here from the
``--seed`` argument; the system under test only ever sees the generated
operations, issued through the public ``PRingIndex`` API.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.correctness import (
    ItemTimeline,
    QueryRecord,
    audit_reachability,
    check_query_result,
    count_lost_items,
)
from repro.harness.metrics import nearest_rank
from repro.harness.phases import PhaseSpec
from repro.harness.scenarios import build_experiment, get_scenario
from repro.serve.workload import open_loop_queries

#: Client deadline (simulated seconds): an operation that has not returned a
#: complete, correct result this long after it was due counts as failed, at
#: the deadline.
DEADLINE = 5.0
#: Simulated seconds the window keeps running after the last arrival so every
#: operation either answers or passes its deadline.
DRAIN = DEADLINE + 1.0
#: Never fail the ring below this many members.
MIN_MEMBERS = 4
#: The window runs in slices of this many simulated seconds; the throughput
#: metric is the median events-per-wall-second over slices, so a transient
#: stall of the (shared) machine moves it by a few ranks, not by its length.
SLICE = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # registry deployment built at setup
    sim_per_second: float  # simulated window seconds per --seconds, over all sub-runs
    subruns: int  # independent cold setup + window pairs per run
    read_rate: float  # reads per simulated second (Poisson)
    read_width: float  # window width as a fraction of the key space
    routing: str  # QueryClient routing policy
    hotspots: int = 0  # 0: uniform windows; else zipf(1.1) over this many windows
    insert_rate: float = 0.0
    delete_rate: float = 0.0
    failures_per_100s: float = 0.0  # fail-stop failures, one replacement each

    @property
    def writes(self) -> bool:
        return self.insert_rate > 0 or self.delete_rate > 0

    @property
    def churn(self) -> bool:
        return self.failures_per_100s > 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_churn",
            scenario="paper_default",
            sim_per_second=96.0,
            subruns=16,
            read_rate=2.0,
            read_width=0.1,
            routing="primary",
            insert_rate=1.0,
            delete_rate=1.0,
            failures_per_100s=12.0,
        ),
        Workload(
            name="read_zipf_1000",
            scenario="scale_1000",
            sim_per_second=2.3,
            subruns=3,
            read_rate=10.0,
            read_width=1.5 / 1000,
            routing="replica_lb",
            hotspots=8,
        ),
        Workload(
            name="mixed_churn_300",
            scenario="scale_300",
            sim_per_second=12.0,
            subruns=4,
            read_rate=20.0,
            read_width=1.5 / 300,
            routing="replica_lb",
            hotspots=8,
            insert_rate=2.5,
            delete_rate=2.5,
            failures_per_100s=12.0,
        ),
    )
}


# --------------------------------------------------------------------------- setup
def setup_phases(workload: Workload) -> Tuple[PhaseSpec, ...]:
    """The setup lifecycle of ``workload``'s registry deployment: build, settle.

    A phased spec (the scale cells) contributes its own ``build`` and
    ``settle`` phases.  A flat spec (``paper_default``) resolves to one
    ``build`` phase whose quiet tail is split off into a ``settle`` phase, so
    the two are timed separately there too.
    """
    spec = get_scenario(workload.scenario)
    phases = spec.resolved_phases()
    if spec.phases:
        return tuple(phase for phase in phases if phase.name in ("build", "settle"))
    build = phases[0]
    return (
        replace(build, settle=0.0),
        PhaseSpec(name="settle", settle=build.settle),
    )


def setup(workload: Workload, seed: int):
    """Build and settle one cold deployment; returns (experiment, phase walls)."""
    spec = get_scenario(workload.scenario)
    experiment = build_experiment(spec, seed)
    results, _, _ = experiment.run_phases(setup_phases(workload), total_peers=spec.peers)
    return experiment, {result.phase: result.wall_clock_s for result in results}


# --------------------------------------------------------------------------- inputs
@dataclass
class Inputs:
    """One window's operations, all drawn from the seed before the run."""

    reads: List[Tuple[float, float, float, float]]  # (at, lb, ub, entry draw)
    inserts: List[Tuple[float, float, float]]  # (at, key, entry draw)
    deletes: List[Tuple[float, float, float]]  # (at, key draw, entry draw)
    failures: List[Tuple[float, float]]  # (at, victim draw)


def _poisson(rng: random.Random, rate: float, duration: float) -> List[float]:
    times: List[float] = []
    if rate <= 0:
        return times
    clock = rng.expovariate(rate)
    while clock < duration:
        times.append(clock)
        clock += rng.expovariate(rate)
    return times


def deployment_seed(workload: Workload, seed: int, subrun: int) -> int:
    """The configuration seed of one sub-run's deployment."""
    return random.Random(f"perfbench/{workload.name}/{seed}/{subrun}/deployment").randrange(2**31)


def make_inputs(
    workload: Workload, seed: int, subrun: int, duration: float, key_space: float
) -> Inputs:
    """Draw one sub-run's inputs; one independent stream per input kind."""

    def stream(kind: str) -> random.Random:
        return random.Random(f"perfbench/{workload.name}/{seed}/{subrun}/{kind}")

    entries = stream("entries")
    width = key_space * workload.read_width
    if workload.hotspots:
        schedule = open_loop_queries(
            workload.read_rate,
            duration,
            key_space,
            stream("reads"),
            hotspots=workload.hotspots,
            alpha=1.1,
            selectivity=workload.read_width,
        )
        reads = [(query.at, query.lb, query.ub, entries.random()) for query in schedule]
    else:
        rng = stream("reads")
        reads = []
        for at in _poisson(rng, workload.read_rate, duration):
            lb = rng.uniform(0.0, key_space - width)
            reads.append((at, lb, lb + width, entries.random()))
    rng = stream("inserts")
    inserts = [
        (at, rng.uniform(0.0, key_space), entries.random())
        for at in _poisson(rng, workload.insert_rate, duration)
    ]
    rng = stream("deletes")
    deletes = [
        (at, rng.random(), entries.random())
        for at in _poisson(rng, workload.delete_rate, duration)
    ]
    rng = stream("failures")
    failures = [
        (at, rng.random())
        for at in _poisson(rng, workload.failures_per_100s / 100.0, duration)
    ]
    return Inputs(reads, inserts, deletes, failures)


# --------------------------------------------------------------------------- window
class Window:
    """Plays one workload's inputs against a settled deployment, open loop.

    Arrivals are scheduled in simulated time independently of completions;
    each operation runs as its own simulated process and is timed from the
    instant it was due.
    """

    def __init__(self, workload: Workload, index, inputs: Inputs, duration: float, wrap=None):
        self.workload = workload
        self.index = index
        self.inputs = inputs
        self.duration = duration
        # Optional generator wrapper (the traced run charges client-side
        # facade code to its own ledger entry through it).
        self.wrap = wrap or (lambda generator: generator)
        self.reads: List[Optional[dict]] = [None] * len(inputs.reads)
        self.inserts: List[Optional[Tuple[float, bool]]] = [None] * len(inputs.inserts)
        self.deletes: List[Optional[Tuple[float, bool]]] = [None] * len(inputs.deletes)
        self.deleted_keys: List[Optional[float]] = [None] * len(inputs.deletes)
        self.live_keys = set(_acknowledged_keys(self.index.history.operations))
        self.acked_keys = set(self.live_keys)
        self.failed_peers: List[str] = []
        self.start = 0.0

    # -- drivers -------------------------------------------------------------
    def _entry(self, draw: float) -> str:
        members = self.index.ring_members()
        return members[int(draw * len(members))].address

    def _read(self, slot: int):
        _at, lb, ub, draw = self.inputs.reads[slot]
        client = self.index.query_client(routing=self.workload.routing, via=self._entry(draw))
        result = yield from client.query(lb, ub, timeout=DEADLINE)
        self.reads[slot] = result

    def _insert(self, slot: int):
        _at, key, draw = self.inputs.inserts[slot]
        stored = yield from self.index.insert_item(key, via=self._entry(draw))
        self.inserts[slot] = (self.index.sim.now, stored)
        if stored:
            self.acked_keys.add(key)
            self.live_keys.add(key)

    def _delete(self, slot: int):
        _at, pick, draw = self.inputs.deletes[slot]
        if not self.live_keys:
            self.deletes[slot] = (self.index.sim.now, False)
            return
        candidates = sorted(self.live_keys)
        key = candidates[int(pick * len(candidates))]
        self.live_keys.discard(key)
        self.deleted_keys[slot] = key
        removed = yield from self.index.delete_item(key, via=self._entry(draw))
        self.deletes[slot] = (self.index.sim.now, removed)

    def _fail(self, draw: float) -> None:
        members = self.index.ring_members()
        if len(members) <= MIN_MEMBERS:
            return
        victim = members[int(draw * len(members))].address
        self.index.fail_peer(victim)
        self.failed_peers.append(victim)
        self.index.add_peer()

    def _arrivals(self):
        sim = self.index.sim
        events = (
            [(at, 0, slot) for slot, (at, *_rest) in enumerate(self.inputs.failures)]
            + [(at, 1, slot) for slot, (at, *_rest) in enumerate(self.inputs.inserts)]
            + [(at, 2, slot) for slot, (at, *_rest) in enumerate(self.inputs.deletes)]
            + [(at, 3, slot) for slot, (at, *_rest) in enumerate(self.inputs.reads)]
        )
        events.sort()
        for at, kind, slot in events:
            delay = self.start + at - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            if kind == 0:
                self._fail(self.inputs.failures[slot][1])
            elif kind == 1:
                sim.process(self.wrap(self._insert(slot)))
            elif kind == 2:
                sim.process(self.wrap(self._delete(slot)))
            else:
                sim.process(self.wrap(self._read(slot)))

    def run(self, before_timing=None) -> dict:
        """Play the window plus its drain; returns wall time and plane counters.

        ``before_timing`` is called just before the clock starts (the traced
        run resets its ledger there).
        """
        index = self.index
        stats = index.network.stats
        live_before = len(index.live_peers())
        messages_before = stats.messages_sent
        events_before = index.sim.events_processed
        self.start = index.sim.now
        index.sim.process(self._arrivals(), name="perfbench-arrivals")
        end = self.start + self.duration + DRAIN
        steps = int((end - self.start) / SLICE)
        boundaries = [self.start + SLICE * step for step in range(1, steps)]
        slice_rates = []
        gc.collect()
        if before_timing is not None:
            before_timing()
        started = mark = time.perf_counter()
        for boundary in boundaries + [end]:
            events = index.sim.events_processed
            index.run(boundary - index.sim.now)
            now = time.perf_counter()
            slice_rates.append((index.sim.events_processed - events) / (now - mark))
            mark = now
        run_s = time.perf_counter() - started
        live_after = len(index.live_peers())
        return {
            "run_s": run_s,
            "slice_rates": slice_rates,
            "messages": stats.messages_sent - messages_before,
            "events": index.sim.events_processed - events_before,
            "mean_live_peers": (live_before + live_after) / 2.0,
        }


def _acknowledged_keys(operations) -> List[float]:
    return [
        op.get("skv")
        for op in operations
        if op.kind == "index_insert_done" and op.get("stored")
    ]


# --------------------------------------------------------------------------- oracles
def _reachable_keys(index) -> set:
    """Keys a full primary scan would return: copies inside their holder's range."""
    keys = set()
    for peer in index.ring_members():
        store = peer.store
        if not (peer.alive and store.active):
            continue
        for item in store.items.all_items():
            if store.range is None or store.range.contains(item.skv):
                keys.add(item.skv)
    return keys


def expected_read_results(window: Window) -> Optional[Dict[Tuple[float, float], frozenset]]:
    """Exact expected result per query window, for a workload with no writes or churn.

    Taken before the window starts: with no writes and no failures the
    reachable key set cannot change, so equality with it is the oracle.
    """
    if window.workload.writes or window.workload.churn:
        return None
    reachable = _reachable_keys(window.index)
    return {
        (lb, ub): frozenset(key for key in reachable if lb < key <= ub)
        for _at, lb, ub, _draw in window.inputs.reads
    }


def _percentiles(latencies_ms: List[float]) -> Tuple[float, float]:
    ordered = sorted(latencies_ms)
    return nearest_rank(ordered, 0.5), nearest_rank(ordered, 0.99)


def score(window: Window, expected, plane: dict) -> dict:
    """Score every arrival of one sub-run against its oracle (untimed).

    Returns the raw outcome: per-arrival latencies (a failed operation at the
    deadline), failure counts, the item-availability tally and the message
    plane's counters.  Everything except ``run_s`` is a pure function of the
    inputs.
    """
    index = window.index
    deadline_ms = DEADLINE * 1000.0
    timeline = None
    if expected is None:
        timeline = ItemTimeline(index.history.history())

    read_latencies: List[float] = []
    read_failed = incomplete = wrong = 0
    for (at, lb, ub, _draw), result in zip(window.inputs.reads, window.reads):
        due = window.start + at
        ok = False
        if result is not None and result["complete"]:
            if expected is not None:
                correct = frozenset(result["keys"]) == expected[(lb, ub)]
            else:
                record = QueryRecord(
                    lb, ub, result["start_time"], result["end_time"], result["keys"]
                )
                correct = check_query_result(timeline, record).ok
            wrong += not correct
            ok = correct and result["end_time"] - due <= DEADLINE
        elif result is not None:
            incomplete += 1
        if ok:
            read_latencies.append((result["end_time"] - due) * 1000.0)
        else:
            read_failed += 1
            read_latencies.append(deadline_ms)

    write_latencies: List[float] = []
    write_failed = 0
    writes = list(zip(window.inputs.inserts, window.inserts)) + list(
        zip(window.inputs.deletes, window.deletes)
    )
    for (at, *_rest), outcome in writes:
        due = window.start + at
        if outcome is not None and outcome[1] and outcome[0] - due <= DEADLINE:
            write_latencies.append((outcome[0] - due) * 1000.0)
        else:
            write_failed += 1
            write_latencies.append(deadline_ms)

    if window.workload.churn:
        # Def. 7 speaks of the quiesced system: give failure detection and
        # replica revival one maintenance period (untimed) before the audit.
        config = index.config
        index.run(max(config.stabilization_period, config.replication_refresh_period))
    reachable = _reachable_keys(index)
    deleted = {key for key in window.deleted_keys if key is not None}
    lost = (window.acked_keys - deleted) - reachable
    strict_lost = count_lost_items(index.history.history(), index.ring_members())
    audit = audit_reachability(index.ring_members())
    return {
        "run_s": plane["run_s"],
        "read_latencies": read_latencies,
        "write_latencies": write_latencies,
        "msgs_per_peer_s": plane["messages"] / plane["mean_live_peers"] / (window.duration + DRAIN),
        "slice_rates": plane["slice_rates"],
        "details": {
            "reads": len(read_latencies),
            "reads_failed": read_failed,
            "reads_incomplete": incomplete,
            "reads_unfinished": sum(result is None for result in window.reads),
            "reads_wrong": wrong,
            "writes": len(write_latencies),
            "writes_failed": write_failed,
            "failures_injected": len(window.failed_peers),
            "items_acknowledged": len(window.acked_keys),
            "items_lost": len(lost),
            "items_lost_def7_strict": len(strict_lost),
            "items_stranded": audit.items_stranded,
            "window_events": plane["events"],
            "window_messages": plane["messages"],
        },
    }


class Hooks:
    """Callbacks around one sub-run's window (the traced run overrides them)."""

    wrap = None  # generator wrapper for client-side operation processes

    def ready(self, window: Window) -> None:
        """The deployment is settled and the inputs are drawn."""

    def before_timing(self) -> None:
        """The window's wall clock is about to start."""

    def after_window(self, window: Window, plane: dict) -> None:
        """The window and its drain have run; oracles have not."""


def run_subrun(
    workload: Workload, seed: int, subrun: int, seconds: int, hooks: Optional[Hooks] = None
):
    """One cold setup plus one measured window; returns (outcome, setup walls)."""
    hooks = hooks or Hooks()
    gc.collect()
    started = time.perf_counter()
    experiment, phase_walls = setup(workload, deployment_seed(workload, seed, subrun))
    setup_s = time.perf_counter() - started
    duration = seconds * workload.sim_per_second / workload.subruns
    inputs = make_inputs(workload, seed, subrun, duration, experiment.config.key_space)
    window = Window(workload, experiment.index, inputs, duration, wrap=hooks.wrap)
    expected = expected_read_results(window)
    hooks.ready(window)
    plane = window.run(before_timing=hooks.before_timing)
    hooks.after_window(window, plane)
    outcome = score(window, expected, plane)
    return outcome, dict(phase_walls, setup=setup_s)


def combine(workload: Workload, outcomes: List[dict]) -> dict:
    """Fold the sub-runs into the run's end-to-end metrics.

    Per-arrival metrics pool every arrival of every sub-run (failures at the
    deadline); per-window costs (``run_s``, ``msgs_per_peer_s``) are the
    median over sub-runs, so one pathological window moves them by at most
    one rank; ``events_per_s`` is the median over every slice of every window.
    """
    reads = [value for outcome in outcomes for value in outcome["read_latencies"]]
    writes = [value for outcome in outcomes for value in outcome["write_latencies"]]
    details = {
        name: sum(outcome["details"][name] for outcome in outcomes)
        for name in outcomes[0]["details"]
    }
    metrics = {
        "run_s": statistics.median(outcome["run_s"] for outcome in outcomes),
        "msgs_per_peer_s": statistics.median(outcome["msgs_per_peer_s"] for outcome in outcomes),
        "events_per_s": statistics.median(
            rate for outcome in outcomes for rate in outcome["slice_rates"]
        ),
        "read_fail_frac": details["reads_failed"] / len(reads),
        "item_loss_frac": details["items_lost"] / details["items_acknowledged"],
    }
    metrics["read_p50_ms"], metrics["read_p99_ms"] = _percentiles(reads)
    if workload.writes:
        metrics["write_p50_ms"], metrics["write_p99_ms"] = _percentiles(writes)
        metrics["write_fail_frac"] = details["writes_failed"] / len(writes)
    details["subrun_msgs_per_peer_s"] = [
        round(outcome["msgs_per_peer_s"], 3) for outcome in outcomes
    ]
    return {
        "subrun_run_s": [round(outcome["run_s"], 3) for outcome in outcomes],
        "subrun_events_per_s": [
            round(statistics.median(outcome["slice_rates"])) for outcome in outcomes
        ],
        "metrics": metrics,
        "details": details,
        "attempted": len(reads) + len(writes),
        "failed": details["reads_failed"] + details["writes_failed"],
    }
