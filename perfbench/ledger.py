"""The traced run: a per-layer ledger measured from outside the program.

Nothing here adds tracing inside ``src/``.  The ledger is built from
three sources:

* the program's own observers, attached through their public hooks:
  :class:`repro.obs.SimProfiler` (per-process dispatch time, event,
  timestep and delta counts) via ``run_point(observer=...)`` or
  ``ctx.attach_observer``, and :class:`repro.obs.telemetry.SweepTelemetry`
  via ``SweepEngine(telemetry=...)``;
* the simulation object hierarchy (``ctx.find_object``), which maps
  each process to the module of the class that owns it, and so to a
  layer;
* timing wrappers that this file installs, for the traced run only,
  around public functions of a layer: bus-socket ``transport``,
  ``MemorySlave.access``, the SHIP codec, the ``ShipChannel`` calls and
  ``OcpPinMaster.transport``.

Self time is a span minus the child spans it contains: the socket's
time is taken out of its traffic master's dispatch, the slave's time
out of whichever span called it, the codec's time out of the channel.
A call made inline by a process counts toward the layer that owns the
process.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import Dict, List

import repro.models.wrappers as model_wrappers
import repro.ship.channel as ship_channel
from repro.apps import LEVEL_BUILDERS, reference_output
from repro.cam.bus import BusCam
from repro.cam.crossbar import CrossbarCam
from repro.cam.memory import MemorySlave
from repro.explore import run_point
from repro.obs import SimProfiler
from repro.ocp.pin import OcpPinMaster
from repro.obs.telemetry import SweepTelemetry

from perfbench import parts
from perfbench import workloads as wl

#: Module prefix of a process's owning class -> layer (first match).
LAYER_OF_MODULE = (
    ("repro.cam.memory", "slave"),
    ("repro.cam", "cam"),
    ("repro.explore", "explore"),
    ("repro.models", "models"),
    ("repro.ship", "ship"),
    ("repro.rtl", "rtl"),
    ("repro.ocp", "ocp"),
    ("repro.accessors", "accessors"),
    ("repro.kernel", "kernel"),
    ("repro.apps", "app"),
)

#: Clock period of the prototype-level pipeline (``build_prototype_level``).
PIN_CLOCK_FS = 10_000_000

#: Self times on ``sparse`` must add up to the simulate time within this.
SELF_TIME_TOLERANCE = 0.10


def layer_of(process) -> str:
    """The layer owning ``process``: its nearest named ancestor's module."""
    name = process.name
    while "." in name:
        name = name.rsplit(".", 1)[0]
        owner = process.ctx.find_object(name)
        if owner is not None:
            module = type(owner).__module__
            for prefix, layer in LAYER_OF_MODULE:
                if module.startswith(prefix):
                    return layer
            return "other"
    return "other"


class LayerProfiler(SimProfiler):
    """``SimProfiler`` that also sums dispatch time per owning layer."""

    def __init__(self):
        super().__init__()
        self.layer_s: Dict[str, float] = defaultdict(float)
        self._layer_by_name: Dict[str, str] = {}

    def on_process_suspend(self, process, now_fs: int,
                           wall_s: float) -> None:
        super().on_process_suspend(process, now_fs, wall_s)
        layer = self._layer_by_name.get(process.name)
        if layer is None:
            layer = self._layer_by_name[process.name] = layer_of(process)
        self.layer_s[layer] += wall_s


class Timers:
    """Accumulated host time of the wrapped public calls."""

    def __init__(self):
        self.socket_s = 0.0
        self.slave_s = 0.0
        self.slave_in_socket_s = 0.0
        self.slave_calls = 0
        self.codec_s = 0.0
        self.codec_in_channel_s = 0.0
        self.messages = 0
        self.message_bytes = 0
        self.channel_s = 0.0
        self.pin_s = 0.0
        #: set while a wrapped generator of that kind is being resumed
        self.in_socket = False
        self.in_channel = False
        self.in_pin = False


def _timed_resumes(gen, timers: Timers, total: str, flag: str):
    """Delegate to ``gen``, adding the host time of each resume.

    A wrapped call made inside another resume of the same kind (a split
    burst re-entering ``transport``, a crossbar socket calling its path
    bus) is already inside the outer span and is passed straight
    through.
    """
    if getattr(timers, flag):
        return (yield from gen)
    value, error = None, None
    while True:
        setattr(timers, flag, True)
        t0 = time.perf_counter()
        try:
            yielded = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            setattr(timers, total,
                    getattr(timers, total) + time.perf_counter() - t0)
            setattr(timers, flag, False)
        try:
            value, error = (yield yielded), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the wrapped call
            value, error = None, exc


@contextlib.contextmanager
def instrumented(timers: Timers):
    """Install the timing wrappers; remove them on exit."""
    saved = []

    def patch(owner, name, replacement):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def socket_factory(original):
        def master_socket(self, name, priority=0):
            socket = original(self, name, priority)
            if not getattr(socket, "_perfbench_timed", False):
                transport = socket.transport
                socket.transport = lambda request: _timed_resumes(
                    transport(request), timers, "socket_s", "in_socket")
                socket._perfbench_timed = True
            return socket
        return master_socket

    for cls in (BusCam, CrossbarCam):
        patch(cls, "master_socket", socket_factory(cls.master_socket))

    access = MemorySlave.access

    def timed_access(self, request):
        t0 = time.perf_counter()
        try:
            return access(self, request)
        finally:
            elapsed = time.perf_counter() - t0
            timers.slave_s += elapsed
            timers.slave_calls += 1
            if timers.in_socket:
                timers.slave_in_socket_s += elapsed

    patch(MemorySlave, "access", timed_access)

    def codec(original, encodes):
        def timed(arg):
            t0 = time.perf_counter()
            try:
                return original(arg)
            finally:
                elapsed = time.perf_counter() - t0
                timers.codec_s += elapsed
                if timers.in_channel:
                    timers.codec_in_channel_s += elapsed
                if encodes:
                    timers.messages += 1
        if not encodes:
            return timed

        def timed_encode(obj):
            data = timed(obj)
            timers.message_bytes += len(data)
            return data
        return timed_encode

    for module in (ship_channel, model_wrappers):
        patch(module, "encode_message",
              codec(module.encode_message, encodes=True))
        patch(module, "decode_message",
              codec(module.decode_message, encodes=False))

    def channel_call(original):
        def call(self, *args, **kwargs):
            return _timed_resumes(original(self, *args, **kwargs),
                                  timers, "channel_s", "in_channel")
        return call

    for name in ("send", "recv", "request", "reply"):
        patch(ship_channel.ShipChannel, name,
              channel_call(getattr(ship_channel.ShipChannel, name)))

    pin_transport = OcpPinMaster.transport
    patch(OcpPinMaster, "transport",
          lambda self, request: _timed_resumes(
              pin_transport(self, request), timers, "pin_s", "in_pin"))
    try:
        yield timers
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# traced parts
# ---------------------------------------------------------------------------


def trace_explore(regime, seed: int, checks, digest) -> dict:
    """One traced pass over the design space, each point also untraced."""
    specs = wl.explore_specs(regime)
    timers = Timers()
    totals = defaultdict(float)
    layer_s = defaultdict(float)
    for index, config in enumerate(wl.explore_configs(seed)):
        point_seed = wl.explore_point_seed(seed, index)
        c0 = time.process_time()
        plain = run_point(config, specs, workload_name=regime.name,
                          seed=point_seed)
        c1 = time.process_time()
        profiler = LayerProfiler()
        with instrumented(timers):
            w0 = time.perf_counter()
            traced = run_point(config, specs, workload_name=regime.name,
                               seed=point_seed, observer=profiler)
            call_s = time.perf_counter() - w0
        totals["untraced_cpu_s"] += c1 - c0
        totals["traced_cpu_s"] += time.process_time() - c1
        problems = parts.point_problems(traced, specs)
        if parts.simulated_dict(traced) != parts.simulated_dict(plain):
            problems.append("trace_perturbed: the traced point's "
                            "results differ from the untraced run")
        checks.record(f"traced explore[{index}] {config.name}", problems)
        digest.add("explore", parts.simulated_dict(traced))
        totals["simulate_s"] += traced.wall_seconds
        totals["build_s"] += call_s - traced.wall_seconds
        totals["dispatch_s"] += profiler.dispatch_wall_s
        totals["dispatches"] += profiler.total_activations
        totals["events"] += profiler.events_fired
        totals["timesteps"] += profiler.timesteps
        totals["txns"] += sum(m.completed for m in traced.masters)
        totals["points"] += 1
        totals["utilization"] += traced.utilization
        for layer, seconds in profiler.layer_s.items():
            layer_s[layer] += seconds
    txns = totals["txns"]
    slave_in_bus = timers.slave_s - timers.slave_in_socket_s
    self_s = {
        "kernel": totals["simulate_s"] - totals["dispatch_s"],
        "explore": layer_s["explore"] - timers.socket_s,
        "cam": (timers.socket_s - timers.slave_in_socket_s
                + layer_s["cam"] - slave_in_bus),
        "slave": timers.slave_s,
    }
    return {
        "totals": totals,
        "self_s": self_s,
        "metrics": {
            "kernel.sched_us_per_txn": 1e6 * self_s["kernel"] / txns,
            "kernel.dispatches_per_txn": totals["dispatches"] / txns,
            "kernel.events_per_txn": totals["events"] / txns,
            "kernel.timesteps_per_txn": totals["timesteps"] / txns,
            "explore.traffic_us_per_txn": 1e6 * self_s["explore"] / txns,
            "explore.build_ms_per_point":
                1e3 * totals["build_s"] / totals["points"],
            "cam.socket_us_per_txn": 1e6 * timers.socket_s / txns,
            "cam.bus_us_per_txn":
                1e6 * (layer_s["cam"] - slave_in_bus) / txns,
            "cam.utilization": totals["utilization"] / totals["points"],
            "slave.us_per_access":
                1e6 * timers.slave_s / max(1, timers.slave_calls),
            "slave.accesses_per_txn": timers.slave_calls / txns,
            "trace.self_sum_frac":
                sum(self_s.values()) / totals["simulate_s"],
        },
    }


def trace_flow(seed: int, checks, digest) -> dict:
    """Each level once untraced and once traced."""
    blocks_by_level = wl.FLOW_BLOCKS
    levels = {}
    untraced_cpu = traced_cpu = 0.0
    for name, builder in LEVEL_BUILDERS:
        blocks = blocks_by_level[name]
        c0 = time.process_time()
        plain = parts.run_level(name, builder, blocks)
        c1 = time.process_time()
        timers = Timers()
        profiler = LayerProfiler()
        with instrumented(timers):
            system = builder(blocks)
            system.ctx.attach_observer(profiler)
            w0 = time.perf_counter()
            parts.simulate_level(name, system)
            wall = time.perf_counter() - w0
        traced_cpu += time.process_time() - c1
        untraced_cpu += c1 - c0
        record = parts.level_record(name, blocks, system)
        problems = parts.level_problems(name, system,
                                        reference_output(blocks))
        if record != parts.level_record(name, blocks, plain):
            problems.append(f"trace_perturbed: traced {name} level "
                            "differs from the untraced run")
        checks.record(f"traced flow {name}", problems)
        digest.add("flow", record)
        levels[name] = {
            "blocks": blocks, "wall_s": wall, "timers": timers,
            "layer_s": dict(profiler.layer_s),
            "dispatch_s": profiler.dispatch_wall_s,
            "deltas": system.ctx.delta_count,
            "cycles": record["sim_fs"] // PIN_CLOCK_FS,
        }
    pin = levels["prototype"]
    ship_levels = [levels["component-assembly"], levels["ccatb"]]
    messages = sum(lv["timers"].messages for lv in ship_levels)
    codec_s = sum(lv["timers"].codec_s for lv in ship_levels)
    channel_self_s = sum(lv["timers"].channel_s
                         - lv["timers"].codec_in_channel_s
                         for lv in ship_levels)
    cam = levels["cam"]
    return {
        "untraced_cpu_s": untraced_cpu,
        "traced_cpu_s": traced_cpu,
        "levels": levels,
        "metrics": {
            "kernel.sched_us_per_block":
                1e6 * (pin["wall_s"] - pin["dispatch_s"]) / pin["blocks"],
            "kernel.deltas_per_block": pin["deltas"] / pin["blocks"],
            "ship.codec_us_per_msg": 1e6 * codec_s / messages,
            "ship.bytes_per_msg": sum(lv["timers"].message_bytes
                                      for lv in ship_levels) / messages,
            "ship.channel_us_per_msg": 1e6 * channel_self_s / messages,
            "models.wrapper_us_per_block":
                1e6 * cam["layer_s"].get("models", 0.0) / cam["blocks"],
            "rtl.core_us_per_cycle":
                1e6 * pin["layer_s"].get("rtl", 0.0) / pin["cycles"],
            "ocp.pin_us_per_cycle":
                1e6 * pin["timers"].pin_s / pin["cycles"],
            "accessors.us_per_cycle":
                1e6 * pin["layer_s"].get("accessors", 0.0) / pin["cycles"],
        },
    }


WORKER_PHASES = ("setup", "restore", "simulate", "serialize")


def batch_round_trips_s(spans, blobs) -> float:
    """Summed batch round trips, not counting backlog wait.

    A batch span runs from submit to reply, but the pool feeds a worker
    its next batch only once the previous reply is in, so a batch's
    round trip starts at the later of its submit and the previous reply
    from the same worker.  ``blobs`` is only checked to carry one
    worker telemetry blob per batch.
    """
    batches = sorted((s for s in spans if s["track"] == "batches"),
                     key=lambda s: s["t1"])
    if len(batches) != len(blobs):
        raise RuntimeError(
            f"{len(batches)} batch spans but {len(blobs)} worker blobs")
    last_reply = {}
    total = 0.0
    for span in batches:
        worker = span["args"].get("worker")
        start = max(span["t0"], last_reply.get(worker, span["t0"]))
        total += span["t1"] - start
        last_reply[worker] = span["t1"]
    return total


def trace_sweep(regime, seed: int, work_dir: str, checks, digest) -> dict:
    """Pool spawn, first run and steady rounds with telemetry attached."""
    points = parts.sweep_points(regime, seed)
    specs = list(points[0].specs)
    telemetry = SweepTelemetry()
    engine = parts.make_engine(work_dir, "trace", telemetry=telemetry)
    rounds: List[dict] = []
    try:
        t0 = time.perf_counter()
        engine.dispatch_overhead_s()
        spawn_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.run(points)
        first_s = time.perf_counter() - t0
        first = None
        for index in range(parts.TRACED_SWEEP_ROUNDS):
            span_mark = len(telemetry.spans.spans)
            blob_mark = len(telemetry.worker_blobs)
            t0 = time.perf_counter()
            outcomes = engine.run(points)
            wall = time.perf_counter() - t0
            dicts = parts.check_sweep_round(
                outcomes, engine, specs, f"traced sweep[{index}]", checks)
            if first is None:
                first = dicts
                for data in dicts:
                    digest.add("sweep", data)
            record = telemetry.run_records[-1]
            batch_s = batch_round_trips_s(
                telemetry.spans.spans[span_mark:],
                telemetry.worker_blobs[blob_mark:])
            recovery = engine.last_recovery or {}
            rounds.append({
                "wall_s": wall,
                "timing": record["timing"],
                "batch_s": batch_s,
                "batches": engine.last_batches,
                "requeues": recovery.get("requeues", 0),
                "quarantined": engine.last_quarantined,
            })
    finally:
        engine.close()
        telemetry.close()
    n = len(points) * len(rounds)
    phase_s = {
        phase: sum(r["timing"][f"worker_{phase}_s"] for r in rounds)
        for phase in WORKER_PHASES
    }
    worker_s = sum(phase_s.values())
    batches = sum(r["batches"] for r in rounds)
    dispatch_s = sum(r["timing"]["dispatch_s"] for r in rounds)
    return {
        "metrics": {
            "sweep.setup_ms_per_point": 1e3 * phase_s["setup"] / n,
            "sweep.serialize_ms_per_point":
                1e3 * phase_s["serialize"] / n,
            "sweep.simulate_ms_per_point": 1e3 * phase_s["simulate"] / n,
            "sweep.ipc_ms_per_batch":
                1e3 * (sum(r["batch_s"] for r in rounds) - worker_s)
                / batches,
            "sweep.cache_ms_per_run": 1e3 * statistics.fmean(
                r["timing"]["cache_s"] for r in rounds),
            "sweep.worker_busy_frac":
                worker_s / (dispatch_s * engine.workers),
            "sweep.batches_per_run": batches / len(rounds),
            "sweep.requeues": sum(r["requeues"] for r in rounds),
            "sweep.quarantined": sum(r["quarantined"] for r in rounds),
            "sweep.pool_spawn_s": spawn_s,
            "snapshot.materialize_s": first_s - statistics.median(
                r["wall_s"] for r in rounds),
            "snapshot.restore_ms_per_point":
                1e3 * phase_s["restore"] / n,
        },
    }


def run_traced(regime, seed: int, work_dir: str, checks, digest):
    """The whole traced run; returns ``(per_layer_metrics, report)``.

    ``report`` holds the self-time split and exact counts the runner
    prints beside the digest.
    """
    sweep = trace_sweep(regime, seed, work_dir, checks, digest)
    explore = trace_explore(regime, seed, checks, digest)
    flow = trace_flow(seed, checks, digest)
    accuracy = parts.run_accuracy(regime, seed, checks, digest)
    metrics = {}
    metrics.update(sweep["metrics"])
    metrics.update(explore["metrics"])
    metrics.update(flow["metrics"])
    metrics["cam.rtl_diverged_frac"] = accuracy.diverged_frac
    totals = explore["totals"]
    metrics["trace.overhead_ratio"] = (
        (totals["traced_cpu_s"] + flow["traced_cpu_s"])
        / (totals["untraced_cpu_s"] + flow["untraced_cpu_s"]))
    frac = metrics["trace.self_sum_frac"]
    checks.record("traced self-time sum", [] if abs(frac - 1.0) <= (
        SELF_TIME_TOLERANCE) else [
        f"self_time_mismatch: kernel+explore+cam+slave self times are "
        f"{frac:.3f} of the simulate time"])
    report = {
        "self_s": explore["self_s"],
        "simulate_s": totals["simulate_s"],
        "counts": {
            "explore.txns": int(totals["txns"]),
            "kernel.dispatches": int(totals["dispatches"]),
            "kernel.events": int(totals["events"]),
            "kernel.timesteps": int(totals["timesteps"]),
            "flow.deltas": {name: level["deltas"]
                            for name, level in flow["levels"].items()},
        },
        "divergences": accuracy.divergences,
    }
    return metrics, report
