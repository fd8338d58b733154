"""The benchmark's three workloads, one repetition each.

:func:`run_rep` builds one workload from its seed, runs it on the
default single-process path, checks its outputs and returns three
dictionaries:

``host``
    wall-clock figures of this repetition (set-up, run, phases, RSS);
``exact``
    simulated results and work counters — a deterministic function of
    the seed, so every repetition at one seed must report them equal;
``traced``
    self time per layer plus the counters only a wrapper can see
    (present when a :class:`~layers.Tracer` is given).

Every random draw derives from the seed: the farm's RNG registry is
seeded with it, and the fault schedule draws from its own generator
seeded with ``(seed, FAULT_STREAM)``.
"""

from __future__ import annotations

import gc
import heapq
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.checks.campaign import CHAOS_PARAMS, build_named_farm
from repro.checks.invariants import CheckWindows, InvariantMonitor, monitor_trace
from repro.farm import build_testbed
from repro.node.faults import FaultPlan
from repro.node.osmodel import OSParams
from repro.sim.trace import Trace

import layers

#: farm constructions timed per repetition; ``setup_s`` is the median
#: over every construction of the run
SETUP_REPEATS = 10
#: simulated-time slice at which the pending-event queue is sampled
SLICE_S = 0.5
#: mean gap between injected faults (open-loop Poisson arrivals), seconds
FAULT_GAP_S = 3.0
#: second key of the fault schedule's generator seed
FAULT_STREAM = 0xFA17
#: percentiles tried for a tail, highest first
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
#: seconds one calibration round takes on the reference machine: about
#: the mean round time on the 2-CPU x86-64 container the benchmark was
#: built on
CALIBRATION_REF_S = 0.0004


@dataclass(frozen=True)
class Size:
    """How big a workload runs."""

    #: §4.1 testbed nodes (3 adapters each)
    testbed_nodes: int
    #: fault window / traffic duration, simulated seconds
    body_s: float
    #: testbed steady state after discovery, simulated seconds
    testbed_body_s: float


FULL = Size(testbed_nodes=110, body_s=300.0, testbed_body_s=60.0)
#: a seconds-long version of every workload, for the benchmark's self-tests
TOY = Size(testbed_nodes=12, body_s=20.0, testbed_body_s=20.0)


class GateError(RuntimeError):
    """The repetition's outputs are wrong: the benchmark must not report."""


class _CalibrationNode:
    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}

    def on(self, t: float, key: int) -> float:
        self.counts[key] = self.counts.get(key, 0) + 1
        return t + 0.001 * (key % 7)


class Calibration:
    """A fixed round of pure-Python event-queue work — heap pushes and
    pops, method calls, dict updates, like the simulator's own hot path —
    timed after every simulated slice of an untraced run.

    The shared host's speed drifts by tens of percent within seconds.
    Each round measures the speed right after one slice; the mean round
    time, weighted by the host time of the slice before it, tracks the
    drift the run lived through, and scaling the run time by
    ``CALIBRATION_REF_S / weighted mean`` reports it in seconds of the
    reference machine. A set-up build, a few milliseconds long, is
    scaled by the round timed right before it instead.
    """

    ROUND = 300

    def __init__(self) -> None:
        self.nodes = [_CalibrationNode() for _ in range(64)]
        self.total = 0.0
        self._weighted = 0.0
        self._weight = 0.0

    def round_s(self) -> float:
        """Host seconds one round takes now."""
        nodes = self.nodes
        queue = [(0.0, i, i) for i in range(64)]
        seq = 64
        gc.disable()
        t0 = perf_counter()
        for _ in range(self.ROUND):
            t, _, key = heapq.heappop(queue)
            t = nodes[key % 64].on(t, key)
            seq += 1
            heapq.heappush(queue, (t + 0.01, seq, (key * 31 + 7) % 1009))
        round_s = perf_counter() - t0
        gc.enable()
        return round_s

    def after_slice(self, slice_s: float) -> None:
        """Time one round and weight it by the slice it follows."""
        round_s = self.round_s()
        self.total += round_s
        self._weighted += slice_s * round_s
        self._weight += slice_s

    def speed(self) -> float:
        """Reference-machine seconds per second measured here."""
        if not self._weighted:
            return 1.0
        return CALIBRATION_REF_S * self._weight / self._weighted


class ProgramCounts:
    """Counters of the shard runner and the invariant monitor, read from
    the program by class-level wrappers in every workload — so a
    workload that should bypass a layer reads zero only when the program
    really did."""

    def __init__(self) -> None:
        self.epochs = 0
        self.cross_messages = 0
        #: invariant monitors of the latest build
        self.monitors: List[Any] = []

    def install(self) -> None:
        from repro.checks.invariants import InvariantMonitor
        from repro.sim.shard.runner import ShardWorker

        step = ShardWorker.step
        finish = ShardWorker.finish
        monitor_init = InvariantMonitor.__init__
        counts = self

        def counted_step(self: Any, payload: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
            counts.epochs += 1
            return step(self, payload)

        def counted_finish(self: Any, payload: Any) -> Dict[int, Dict[str, Any]]:
            out = finish(self, payload)
            counts.cross_messages += sum(r["cross_sent"] for r in out.values())
            return out

        def registered_init(self: Any, *args: Any, **kwargs: Any) -> None:
            monitor_init(self, *args, **kwargs)
            counts.monitors.append(self)

        ShardWorker.step = counted_step
        ShardWorker.finish = counted_finish
        InvariantMonitor.__init__ = registered_init

    def new_build(self) -> None:
        """Forget the monitors of a discarded build."""
        self.monitors.clear()

    def report(self) -> Dict[str, int]:
        return {
            "shard.epochs": self.epochs,
            "shard.cross_messages": self.cross_messages,
            "checks.count": sum(sum(m.checks.values()) for m in self.monitors),
        }


class Probe:
    """Host timings and queue samples of one repetition; an untraced
    repetition also runs a :class:`Calibration` round per slice."""

    def __init__(self, tracer: Optional[layers.Tracer], counts: ProgramCounts) -> None:
        self.tracer = tracer
        self.counts = counts
        self.setup_cal = Calibration()
        #: set-up times, each in reference-machine seconds
        self.setups: List[float] = []
        self.peak_pending = 0
        self.t_run = self.t_stable = self.t_end = 0.0
        #: layer -> self time of the measured run (traced runs only)
        self.layer_self_s: Dict[str, float] = {}
        self.calibration = Calibration() if tracer is None else None
        self.cal_at_stable = 0.0
        self.t_slice = 0.0

    def timed_setup(self, build: Callable[[], Any]) -> Any:
        """Build ``SETUP_REPEATS`` times, keep the last build."""
        for _ in range(SETUP_REPEATS):
            built = None  # frees the previous build before the next is timed
            built = self.timed_build(build)
        return built

    def timed_build(self, build: Callable[[], Any]) -> Any:
        """One build, timed and scaled by a calibration round right before."""
        gc.collect()
        self.counts.new_build()
        speed = CALIBRATION_REF_S / self.setup_cal.round_s()
        t0 = perf_counter()
        built = build()
        self.setups.append((perf_counter() - t0) * speed)
        return built

    def start_run(self) -> None:
        if self.tracer is not None:
            self.tracer.reset()
            self.t_run = self.tracer.last
        else:
            self.t_run = perf_counter()
        self.t_slice = self.t_run

    def stable(self) -> None:
        if not self.t_stable:
            self.t_stable = perf_counter()
            if self.calibration is not None:
                self.cal_at_stable = self.calibration.total

    def end_run(self) -> None:
        if self.tracer is not None:
            # one clock reading closes both the books and the run, so the
            # layers' self times sum to run_s exactly
            self.tracer.stop()
            self.t_end = self.tracer.last
            # the gate's checks after the run must not count
            self.layer_self_s = self.tracer.report()
        else:
            self.t_end = perf_counter()

    def slice_done(self, pending: int) -> None:
        """End of one simulated slice: sample the queue, calibrate."""
        if pending > self.peak_pending:
            self.peak_pending = pending
        if self.calibration is not None:
            self.calibration.after_slice(perf_counter() - self.t_slice)
            self.t_slice = perf_counter()

    def sampled_run(self, sim: Any) -> None:
        """Sample the queue after each ``sim.run`` slice (instance-level
        wrapper: the class and every other simulator stay untouched)."""
        engine_run = sim.run

        def run(until: Optional[float] = None, max_events: Optional[int] = None) -> float:
            now = engine_run(until=until, max_events=max_events)
            self.slice_done(sim.pending_count())
            return now

        sim.run = run

    def host(self) -> Dict[str, Any]:
        """Wall-clock figures; calibration rounds are not part of them."""
        cal = self.calibration
        cal_total = cal.total if cal is not None else 0.0
        discovery = self.t_stable - self.t_run - self.cal_at_stable
        body = self.t_end - self.t_stable - (cal_total - self.cal_at_stable)
        speed = cal.speed() if cal is not None else 1.0
        return {
            "setups": self.setups,
            "run_raw_s": discovery + body,
            "run_s": (discovery + body) * speed,
            "discovery_s": discovery,
            "body_s": body,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


# ----------------------------------------------------------------------
# shared extraction
# ----------------------------------------------------------------------
def metric_total(registry: Any, name: str) -> float:
    """Sum of a counter/gauge over every label set."""
    registry.collect()
    return sum(m.value for m in registry if m.name == name and hasattr(m, "value"))


def tail(values: List[float]) -> Dict[str, float]:
    """Median and the highest ladder percentile with >= 10 samples beyond
    it (nearest rank); zeros when there are no samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}

    def rank(p: float) -> int:
        return min(n - 1, max(0, int(np.ceil(p / 100.0 * n)) - 1))

    pct = next((p for p in TAIL_LADDER if n - 1 - rank(p) >= 10), 50.0)
    return {"p50": ordered[rank(50.0)], "tail": ordered[rank(pct)], "tail_pct": pct, "n": n}


def hist_tail(hist: Any) -> Dict[str, float]:
    """:func:`tail` over a bucketed latency histogram (the program's own
    percentile estimate, which is what its reports show)."""
    n = hist.count
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    return {"p50": hist.percentile(50.0), "tail": hist.percentile(pct), "tail_pct": pct, "n": n}


def protocol_counts(counters: Dict[str, int], registry: Any, notes: List[Any]) -> Dict[str, Any]:
    """Per-layer work counters every workload shares."""
    prepares = counters.get("gs.2pc.prepare", 0)
    commits = counters.get("gs.2pc.commit", 0)
    settle = [n.detail["elapsed"] for n in notes if n.kind == "move_completed"]
    return {
        "gs.heartbeats": int(metric_total(registry, "gs.hb.sent")),
        "gs.view_installs": counters.get("gs.view.install", 0),
        "gs.2pc_prepares": prepares,
        "gs.2pc_commits": commits,
        "gs.commit_ratio": commits / prepares if prepares else 0.0,
        "gs.form_timeouts": counters.get("gs.form.timeout", 0),
        "gsc.reports": counters.get("gsc.report", 0),
        "gsc.notifications": len(notes),
        "reconfig.moves": counters.get("gs.reconfig.move", 0),
        "reconfig.completed": len(settle),
        "reconfig.failed": sum(1 for n in notes if n.kind == "move_failed"),
        "move_settle_s": statistics.median(settle) if settle else 0.0,
    }


def segment_counts(stats: List[Dict[str, int]], events: int) -> Dict[str, Any]:
    delivered = sum(s["frames_delivered"] for s in stats)
    return {
        "net.frames_sent": sum(s["frames_sent"] for s in stats),
        "net.frames_delivered": delivered,
        "net.frames_lost": sum(s["frames_lost"] for s in stats),
        "net.events_per_delivery": events / delivered if delivered else 0.0,
    }


def farm_counts(farm: Any, probe: Probe) -> Dict[str, Any]:
    """Counters of a single-simulator farm run."""
    sim = farm.sim
    segs = [
        {"frames_sent": s.frames_sent, "frames_delivered": s.frames_delivered,
         "frames_lost": s.frames_lost}
        for s in farm.fabric.segments.values()
    ]
    return {
        "sim_s": sim.now,
        "sim.events": sim.events_executed,
        "sim.events_per_sim_s": sim.events_executed / sim.now,
        "sim.cancelled": sim.events_cancelled,
        "sim.peak_pending": probe.peak_pending,
        **probe.counts.report(),
        **segment_counts(segs, sim.events_executed),
        **protocol_counts(dict(sim.trace.counters), sim.metrics, list(farm.bus.history)),
    }


def no_model(**present: Any) -> Dict[str, Any]:
    """Modelled-system results a workload does not produce, as zeros."""
    out: Dict[str, Any] = {
        "detect_p50_s": 0.0, "detect_tail_s": 0.0, "detect_tail_pct": 0.0,
        "detect_miss_ratio": 0.0, "gsc.detections": 0,
        "req_p50_ms": 0.0, "req_tail_ms": 0.0, "req_tail_pct": 0.0,
        "req_fail_ratio": 0.0, "moves_per_hour": 0.0,
        "workload.issued": 0, "workload.completed": 0,
        "workload.failed": 0, "workload.retried": 0, "faults": 0,
    }
    out.update(present)
    return out


def sampled_discovery(farm: Any, probe: Probe, timeout: float) -> float:
    """Discovery through ``Farm.run_until_stable`` with queue sampling."""
    probe.sampled_run(farm.sim)
    probe.start_run()
    farm.start()
    stable = farm.run_until_stable(timeout=timeout, step=SLICE_S)
    if stable is None:
        raise GateError(f"GSC never stabilized within {timeout:.0f} simulated seconds")
    probe.stable()
    return stable


def run_sliced(sim: Any, until: float) -> None:
    while sim.now < until:
        sim.run(until=min(sim.now + SLICE_S, until))


# ----------------------------------------------------------------------
# testbed110
# ----------------------------------------------------------------------
def testbed110(seed: int, probe: Probe, size: Size) -> Dict[str, Any]:
    """§4.1 testbed: discovery to stability, then quiet steady state."""
    n_nodes = size.testbed_nodes
    farm = probe.timed_setup(
        lambda: build_testbed(n_nodes, seed=seed, trace=Trace(store=False))
    )
    stable = sampled_discovery(farm, probe, timeout=300.0)
    run_sliced(farm.sim, farm.sim.now + size.testbed_body_s)
    probe.end_run()
    gsc = farm.gsc()
    issues = gsc.verify_topology()
    if issues:
        raise GateError(f"discovered topology disagrees with the configdb: {issues[:3]}")
    if len(gsc.adapters) != 3 * n_nodes or len(gsc.groups) != 3:
        raise GateError(
            f"GSC knows {len(gsc.adapters)} adapters in {len(gsc.groups)} AMGs, "
            f"expected {3 * n_nodes} in 3"
        )
    return {"stable_s": stable, **farm_counts(farm, probe), **no_model()}


# ----------------------------------------------------------------------
# oceano55-faults
# ----------------------------------------------------------------------
def poisson_faults(farm: Any, seed: int, start: float, duration: float) -> tuple:
    """Open-loop fault schedule over ``duration`` seconds: a Poisson
    process of mean gap ``FAULT_GAP_S`` conditioned on its count (uniform
    arrival times), half node crash/restart and half adapter fail/repair
    in random order, one fault per node at a time.

    Returns ``(plan, last_heal)``. Every draw happens here, at plan time,
    in a fixed order, so the schedule is a function of the seed and the
    farm layout alone; fixing the count keeps the work of one run close
    to that of another.
    """
    from repro.net.nic import NicState

    rng = np.random.default_rng((seed, FAULT_STREAM))
    n = int(round(duration / FAULT_GAP_S))
    times = np.sort(rng.uniform(start, start + duration, n))
    crashes = rng.permutation(np.arange(n) < n // 2)
    picks = rng.random(n)
    modes = rng.choice(["fail_full", "fail_send", "fail_recv"], n)
    downs = np.where(crashes, rng.uniform(5.0, 15.0, n), rng.uniform(4.0, 12.0, n))
    plan = FaultPlan()
    nodes = sorted(farm.hosts)
    nics = sorted(
        (str(nic.ip), name)
        for name in nodes
        for nic in farm.hosts[name].adapters[1:]
        if nic.port is not None
    )
    busy_until = dict.fromkeys(nodes, 0.0)
    last_heal = start
    for t, crash, pick, mode, down in zip(times.tolist(), crashes, picks, modes, downs.tolist()):
        if crash:
            free = [node for node in nodes if busy_until[node] <= t]
            node = free[int(pick * len(free))]
            plan.crash_node(t, node).restart_node(t + down, node)
        else:
            free_nics = [(ip, node) for ip, node in nics if busy_until[node] <= t]
            ip, node = free_nics[int(pick * len(free_nics))]
            plan.fail_adapter(t, ip, NicState(str(mode))).repair_adapter(t + down, ip)
        busy_until[node] = t + down
        last_heal = max(last_heal, t + down)
    return plan, last_heal


def oceano55_faults(seed: int, probe: Probe, size: Size) -> Dict[str, Any]:
    """Océano 55-node farm under a Poisson crash/adapter fault stream."""
    os_params = OSParams.fast()

    def build() -> tuple:
        farm = build_named_farm(
            "oceano55", seed=seed, params=CHAOS_PARAMS, os_params=os_params,
            trace=monitor_trace(),
        )
        windows = CheckWindows.from_params(farm.params, os_params)
        return farm, windows, InvariantMonitor(farm, windows=windows)

    farm, windows, monitor = probe.timed_setup(build)
    stable = sampled_discovery(farm, probe, timeout=180.0)
    monitor.start()
    plan, last_heal = poisson_faults(farm, seed, farm.sim.now + 1.0, size.body_s)
    plan.arm(farm.sim, farm.fabric, farm.hosts)
    run_sliced(farm.sim, last_heal + windows.settle_time)
    monitor.finalize()
    probe.end_run()
    if monitor.violations:
        raise GateError(f"invariant violations: {[v.as_dict() for v in monitor.violations[:3]]}")
    if plan.pending_actions():
        raise GateError(f"{len(plan.pending_actions())} planned faults never fired")
    # a missed obligation is a detection_latency violation, which fails the
    # gate above: a run that reports reads 0 here
    obligations = monitor.checks["detection_latency"]
    misses = sum(1 for v in monitor.violations if v.invariant == "detection_latency")
    detect = tail(monitor.latencies)
    return {
        "stable_s": stable,
        **farm_counts(farm, probe),
        **no_model(
            **{
                "detect_p50_s": detect["p50"],
                "detect_tail_s": detect["tail"],
                "detect_tail_pct": detect["tail_pct"],
                "detect_miss_ratio": misses / obligations if obligations else 0.0,
                "gsc.detections": detect["n"],
                "faults": len(plan.actions) // 2,
            }
        ),
    }


# ----------------------------------------------------------------------
# oceano-traffic
# ----------------------------------------------------------------------
class _SetupOnly(Exception):
    """Raised once a throwaway set-up is built, before the first epoch."""


def _traffic_setup(seed: int, size: Size) -> None:
    """One throwaway traffic-plane set-up: ends with :class:`_SetupOnly`
    raised from the worker pool's construction."""
    from repro.workload import traffic

    try:
        traffic.run_traffic_case(seed=seed, duration=size.body_s)
    except _SetupOnly:
        pass


def oceano_traffic(seed: int, probe: Probe, size: Size) -> Dict[str, Any]:
    """The traffic plane's default case, 300 s of requests, through the
    inline shard runner; wrappers here only mark set-up end, sample the
    islands' queues and capture the runner's result."""
    from repro.runner.workers import PersistentWorkerPool
    from repro.sim.shard.runner import ShardWorker
    from repro.workload import traffic

    state: Dict[str, Any] = {"setup_only": True, "result": None}
    pool_init = PersistentWorkerPool.__init__
    worker_step = ShardWorker.step
    run_sharded = traffic.run_sharded

    def pool_init_marked(self: Any, *args: Any, **kwargs: Any) -> None:
        pool_init(self, *args, **kwargs)
        if state["setup_only"]:
            self.terminate()
            raise _SetupOnly
        probe.start_run()

    next_sample = [SLICE_S]

    def step_sampled(self: Any, payload: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
        out = worker_step(self, payload)
        if payload["until"] >= next_sample[0]:
            next_sample[0] += SLICE_S
            probe.slice_done(sum(h.sim.pending_count() for h in self.hosts.values()))
        if any(r["stable_time"] is not None for r in out.values()):
            probe.stable()
        return out

    def run_sharded_captured(*args: Any, **kwargs: Any) -> Any:
        state["result"] = run_sharded(*args, **kwargs)
        return state["result"]

    if probe.tracer is not None:
        # the coordinator is a module-level function: give it its span here
        run_sharded_captured = probe.tracer.wrap(
            run_sharded_captured, layers.LAYERS.index("shard")
        )

    PersistentWorkerPool.__init__ = pool_init_marked
    ShardWorker.step = step_sampled
    traffic.run_sharded = run_sharded_captured
    try:
        for _ in range(SETUP_REPEATS):
            probe.timed_build(lambda: _traffic_setup(seed, size))
        state["setup_only"] = False
        probe.counts.new_build()
        row = traffic.run_traffic_case(seed=seed, duration=size.body_s)
        probe.end_run()
    finally:
        PersistentWorkerPool.__init__ = pool_init
        ShardWorker.step = worker_step
        traffic.run_sharded = run_sharded
    res = state["result"]
    if res.stable_time is None:
        raise GateError("GSC never stabilized before the request stream opened")
    if row["violations"]:
        raise GateError(f"invariant violations: {row['violations'][:3]}")
    req = row["requests"]
    if req["completed"] + req["failed"] != req["issued"] or req["issued"] == 0:
        raise GateError(f"request accounting broken: {req}")
    reg = res.metrics
    events = res.events_executed
    lat = hist_tail(reg.histogram("traffic.latency_s"))
    checks = row["checks"]
    program = probe.counts.report()
    if program["checks.count"] != sum(checks.values()):
        raise GateError(
            f"the islands' monitors ran {program['checks.count']} checks, "
            f"the report says {sum(checks.values())}"
        )
    if program["shard.cross_messages"] != res.cross_messages:
        raise GateError(
            f"the workers sent {program['shard.cross_messages']} cut messages, "
            f"the report says {res.cross_messages}"
        )
    return {
        "stable_s": res.stable_time,
        "sim_s": res.duration,
        "sim.events": events,
        "sim.events_per_sim_s": events / res.duration,
        "sim.cancelled": int(metric_total(reg, "sim.events.cancelled")),
        "sim.peak_pending": probe.peak_pending,
        **program,
        **segment_counts(list(res.segment_stats.values()), events),
        **protocol_counts(res.counters, reg, res.notifications),
        **no_model(
            **{
                "gsc.detections": checks["detection_latency"] - row["waived"],
                "req_p50_ms": lat["p50"] * 1000.0,
                "req_tail_ms": lat["tail"] * 1000.0,
                "req_tail_pct": lat["tail_pct"],
                "req_fail_ratio": req["failed"] / req["issued"],
                "moves_per_hour": row["moves_per_hour"],
                "workload.issued": req["issued"],
                "workload.completed": req["completed"],
                "workload.failed": req["failed"],
                "workload.retried": req["retried"],
            }
        ),
    }


RUNNERS = {
    "testbed110": testbed110,
    "oceano55-faults": oceano55_faults,
    "oceano-traffic": oceano_traffic,
}


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def _count_wrapped(counts: Dict[str, Any]) -> None:
    """Counters only a wrapper sees: ``OSModel.handle`` calls and their
    simulated queueing wait, and ``AdapterProtocol.on_frame`` calls.
    Installed beneath the span wrappers, so their cost lands in the
    layer they count."""
    from repro.gulfstream.adapter_proto import AdapterProtocol
    from repro.node.osmodel import OSModel

    waits: List[float] = []
    counts["waits"] = waits
    counts["frames"] = 0
    handle = OSModel.handle
    on_frame = AdapterProtocol.on_frame

    def counted_handle(self: Any, fn: Any, *args: Any) -> Any:
        ev = handle(self, fn, *args)
        waits.append(ev.time - self.sim.now)
        return ev

    def counted_on_frame(self: Any, frame: Any) -> None:
        counts["frames"] += 1
        on_frame(self, frame)

    OSModel.handle = counted_handle
    AdapterProtocol.on_frame = counted_on_frame


def run_rep(workload: str, seed: int, traced: bool, size: Size = FULL) -> Dict[str, Any]:
    """One repetition in this process; raises :class:`GateError` when
    the program's outputs are wrong."""
    tracer = None
    counts: Dict[str, Any] = {}
    program = ProgramCounts()
    program.install()
    if traced:
        tracer = layers.Tracer()
        _count_wrapped(counts)
        layers.install(tracer)
    probe = Probe(tracer, program)
    exact = RUNNERS[workload](seed, probe, size)
    out: Dict[str, Any] = {"host": probe.host(), "exact": exact}
    if tracer is not None:
        waits = counts["waits"]
        out["traced"] = {
            "self_s": probe.layer_self_s,
            "node.handled": len(waits),
            "node.wait_p50_ms": statistics.median(waits) * 1000.0 if waits else 0.0,
            "node.wait_max_ms": max(waits) * 1000.0 if waits else 0.0,
            "gs.frames": counts["frames"],
        }
    return out
