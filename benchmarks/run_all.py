"""Benchmark trajectory harness for the simulation kernel.

Runs a fixed set of kernel-throughput workloads plus the E1
abstraction-level comparison, writes ``BENCH_kernel.json`` at the repo
root (events/sec, wall time, speedup vs. the recorded baseline in
``benchmarks/baseline.json``), and **fails loudly** — non-zero exit —
when any workload regresses more than 10% against that baseline.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full run
    PYTHONPATH=src python benchmarks/run_all.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_all.py --write-baseline

``--quick`` scales every workload down ~10x so the whole harness runs
in a couple of seconds; quick numbers are too noisy to gate on, so the
timing regression checks are skipped (the JSON is still written,
flagged ``"quick": true``).  The deterministic observability checks —
an attached observer must see kernel hooks, a detached one must see
none — gate in every mode, and full runs additionally require the
obs-disabled ``timed_storm`` rate to stay within ``OBS_OFF_TOLERANCE``
(2%) of the recorded baseline, proving instrumentation is free when
off.

``--write-baseline`` re-records ``benchmarks/baseline.json`` from the
current run — do this only on a commit whose numbers you want future
runs measured against.

``--chaos kill-worker[:N]`` (default ``kill-worker:1``) configures the
chaos determinism gate: the E3 sweep reruns with N workers SIGKILLed
mid-run and must complete every point with results bit-identical to
the undisturbed run — the self-healing runtime's headline guarantee.
``--chaos off`` skips it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

# Make the package and the sibling bench modules importable no matter
# where the harness is invoked from.
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.kernel import Clock, Event, EventQueue, Module, SimContext, ns

REGRESSION_TOLERANCE = 0.10   # fail when >10% below baseline
#: The observability layer must be free when disabled: the obs-off
#: timed_storm rate may not sit more than 2% below the recorded
#: baseline (full runs only; quick numbers are too noisy).
OBS_OFF_TOLERANCE = 0.02
#: Sweep telemetry must likewise be free when off: the telemetry-off
#: warm parallel sweep rate may not sit more than 2% below the
#: recorded ``sweep_points_per_s`` baseline (full multi-CPU runs only,
#: mirroring the obs-off gate).  The structural form of the same
#: guarantee — ``repro.obs.telemetry`` must never even be imported on
#: a telemetry-off sweep — gates in every mode.
TELEMETRY_OFF_TOLERANCE = 0.02
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"


# ---------------------------------------------------------------------------
# Kernel-throughput workloads.  Each returns (units, wall_seconds) where
# ``units`` is the number of scheduler-visible operations performed, so
# units/wall is an events-per-second figure comparable across kernels.
# ---------------------------------------------------------------------------

def timed_storm(scale: float, observer=None):
    """Pure timed-wait throughput: independent periodic threads.

    ``observer`` optionally attaches a :class:`repro.obs.SimObserver`
    before the run — the overhead experiment times the same workload
    with and without one.
    """
    n_procs, n_waits = 20, max(1, int(2000 * scale))
    ctx = SimContext()

    def make(i):
        period = ns(10 + i)

        def body():
            for _ in range(n_waits):
                yield period
        return body

    for i in range(n_procs):
        ctx.register_thread(make(i), f"p{i}")
    if observer is not None:
        ctx.attach_observer(observer)
    start = time.perf_counter()
    ctx.run()
    return n_procs * n_waits, time.perf_counter() - start


def timed_events(scale: float):
    """notify_after storm: timed event notifications with waiters."""
    n_events, n_rounds = 30, max(1, int(1500 * scale))
    ctx = SimContext()
    events = [Event(ctx, f"e{i}") for i in range(n_events)]

    def make_waiter(ev):
        def body():
            while True:
                yield ev
        return body

    def driver():
        for _ in range(n_rounds):
            for i, ev in enumerate(events):
                ev.notify_after(ns(1 + i))
            yield ns(100)

    for i, ev in enumerate(events):
        ctx.register_thread(make_waiter(ev), f"w{i}")
    ctx.register_thread(driver, "driver")
    start = time.perf_counter()
    ctx.run()
    return n_events * n_rounds, time.perf_counter() - start


def delta_chain(scale: float):
    """Delta-notification ping-pong: pure evaluate/notify cycling."""
    n_rounds = max(1, int(30000 * scale))
    ctx = SimContext(max_deltas_per_timestep=10 ** 9)
    e1, e2 = Event(ctx, "e1"), Event(ctx, "e2")
    count = [0]

    def ping():
        while count[0] < n_rounds:
            e2.notify_delta()
            yield e1

    def pong():
        while True:
            yield e2
            count[0] += 1
            e1.notify_delta()

    ctx.register_thread(ping, "ping")
    ctx.register_thread(pong, "pong")
    start = time.perf_counter()
    ctx.run()
    return ctx.delta_count, time.perf_counter() - start


def clock_tree(scale: float):
    """A clock fanning out to statically-sensitive methods."""
    n_methods, cycles = 10, max(1, int(3000 * scale))
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    hits = [0]

    def m():
        hits[0] += 1

    for i in range(n_methods):
        ctx.register_method(m, f"m{i}", sensitive=[clk.posedge_event],
                            dont_initialize=True)
    start = time.perf_counter()
    ctx.run(ns(10 * cycles))
    return hits[0], time.perf_counter() - start


def event_queue_storm(scale: float):
    """EventQueue multi-notification traffic (one trigger per notify)."""
    n_queues, n_notifies = 8, max(1, int(1500 * scale))
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    queues = [EventQueue(f"q{i}", top) for i in range(n_queues)]
    got = [0]

    def make_waiter(q):
        def body():
            while True:
                yield q.event
                got[0] += 1
        return body

    def driver():
        for r in range(n_notifies):
            for q in queues:
                q.notify(ns(1 + (r % 7)))
            yield ns(50)

    for i, q in enumerate(queues):
        ctx.register_thread(make_waiter(q), f"w{i}")
    ctx.register_thread(driver, "driver")
    start = time.perf_counter()
    ctx.run()
    return got[0], time.perf_counter() - start


# ---------------------------------------------------------------------------
# Observability overhead experiment.
# ---------------------------------------------------------------------------

def measure_obs_overhead(scale: float, repeats: int) -> dict:
    """Best-of-N timed_storm rate without and with an attached observer.

    The "on" case attaches a bare no-op :class:`repro.obs.SimObserver`,
    so the ratio isolates the cost of the hook calls and the dispatch
    timing themselves, not any particular consumer.
    """
    from repro.obs import SimObserver

    best_off = 0.0
    best_on = 0.0
    for _ in range(repeats):
        units, wall = timed_storm(scale)
        best_off = max(best_off, units / wall if wall > 0 else 0.0)
        units, wall = timed_storm(scale, observer=SimObserver())
        best_on = max(best_on, units / wall if wall > 0 else 0.0)
    return {
        "off_rate_per_s": round(best_off),
        "on_rate_per_s": round(best_on),
        "on_off_ratio": round(best_on / best_off, 4) if best_off else 0.0,
    }


def noop_hook_check() -> list:
    """Deterministic observability sanity checks; returns failures.

    Two invariants that must hold on every commit, quick mode included:
    an attached observer sees kernel activity, and with no observer
    attached a run calls no hook and never reads the host clock — the
    kernel module's ``time`` is swapped for a stub whose
    ``perf_counter`` raises, so the check is immune to wall-clock noise.
    """
    import repro.kernel.context as context_module
    from repro.obs import CountingObserver

    failures = []
    counting = CountingObserver()
    timed_storm(0.01, observer=counting)
    if counting.total == 0:
        failures.append("attached CountingObserver saw no kernel hooks")
    if counting.activations == 0:
        failures.append("attached observer saw no process activations")

    class NoClock:
        @staticmethod
        def perf_counter():
            raise AssertionError("perf_counter read with no observer")

    detached = CountingObserver()
    ctx = SimContext()
    ctx.attach_observer(detached)
    ctx.detach_observer()

    def body():
        for _ in range(10):
            yield ns(10)

    ctx.register_thread(body, "p")
    real_time = context_module.time
    context_module.time = NoClock
    try:
        ctx.run()
    except AssertionError:
        failures.append(
            "kernel read the host clock with no observer attached"
        )
    finally:
        context_module.time = real_time
    hooks = detached.total + detached.run_starvations
    if hooks:
        failures.append(f"detached observer still received {hooks} hooks")
    return failures


def fault_off_check() -> list:
    """Deterministic fault-machinery-off checks; returns failures.

    Fault injection must be strictly opt-in and free when off: channels
    and buses default to ``fault_injector = None``, and with no injector
    attached no fault rule may ever be evaluated on the transfer paths.
    The second property is enforced structurally — every
    ``FaultRule.matches`` is replaced with a bomb for the duration of a
    bus+SHIP workload — so it cannot be masked by wall-clock noise.
    """
    from repro.cam import GenericBus, MemorySlave
    from repro.faults.plan import FaultRule
    from repro.ocp import OcpCmd, OcpRequest
    from repro.ship import ShipChannel, ShipInt

    failures = []
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    chan = ShipChannel("chan", top)
    bus = GenericBus("bus", top, clock_period=ns(10))
    if chan.fault_injector is not None:
        failures.append("ShipChannel constructs with a fault injector")
    if bus.fault_injector is not None:
        failures.append("BusCam constructs with a fault injector")

    original = FaultRule.matches

    def bomb(self, *args, **kwargs):
        raise AssertionError("fault rule evaluated")

    FaultRule.matches = bomb
    try:
        mem = MemorySlave("mem", top, size=4096)
        bus.attach_slave(mem, 0, 4096)
        sock = bus.master_socket("m0")
        tx = chan.claim_end("tx")
        rx = chan.claim_end("rx")

        def master():
            for i in range(20):
                yield from sock.transport(
                    OcpRequest(OcpCmd.WR, 0, data=[i], burst_length=1))
                yield from chan.send(tx, ShipInt(i))

        def sink():
            while True:
                yield from chan.recv(rx)

        ctx.register_thread(master, "m")
        ctx.register_thread(sink, "s")
        try:
            ctx.run()
        except AssertionError:
            failures.append(
                "fault rule evaluated with no injector attached"
            )
    finally:
        FaultRule.matches = original
    return failures


# ---------------------------------------------------------------------------
# Design-space sweep experiment (E3 space, parallel vs serial, cache).
# ---------------------------------------------------------------------------

#: Worker processes the parallel sweep measurement uses by default
#: (override with ``--sweep-workers``).
SWEEP_WORKERS = 4

#: No-op dispatch round-trips to probe; the *minimum* is recorded, so
#: more probes just tighten the estimate.
DISPATCH_PROBES = 10


def _sweep_space_and_specs(scale: float):
    """The E3 benchmark space and (scaled) workload the sweep runs."""
    from repro.explore import DesignSpace, standard_workloads

    space = DesignSpace(
        fabrics=("plb", "opb", "ahb", "generic", "crossbar"),
        arbiters=("static-priority", "round-robin"),
        clock_periods=(ns(10),),
        max_bursts=(16,),
    )
    specs = [s.scaled(scale) for s in standard_workloads()["mixed"]]
    return space, specs


def _det_row(result) -> tuple:
    """Simulation-derived fields only — wall clock excluded."""
    return (
        result.config.name, result.workload, result.mean_latency_ns,
        result.throughput_mbps, result.utilization, result.sim_time_ns,
        result.total_bytes,
    )


def _available_cpus() -> int:
    """CPUs this process may actually use (honest ``cpus`` record)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def measure_sweep(scale: float, repeats: int,
                  workers: int = SWEEP_WORKERS):
    """Warm-pool parallel-vs-serial sweep on the E3 space; returns
    ``(record, failures)``.

    Times the legacy serial :func:`repro.explore.explore` loop against
    a persistent-pool :class:`repro.sweep.SweepEngine` over the same
    points (best of N each).  The engine's first run — which spawns and
    warms the worker pool — is timed separately as ``warmup_wall_s``;
    the gated ``parallel_points_per_s`` figure measures warm runs,
    i.e. steady-state dispatch, which is what repeated sweeps actually
    pay.  A no-op dispatch probe records ``dispatch_overhead_ms``
    (submit to worker-side start), and the warm-cache section times
    resume against a fresh on-disk store.

    Deterministic gates in every mode: engine results must equal the
    serial loop's bit-for-bit, warm runs must spawn **zero** new
    processes, the second cached run must hit for 100% of points,
    cached results must equal computed ones,
    ``repro.obs.telemetry`` must never get imported on the
    telemetry-off sweeps, and a telemetry-on pass over the same points
    must reproduce the telemetry-off results bit-for-bit.
    """
    import tempfile

    from repro.explore import explore
    from repro.sweep import SweepEngine, SweepStore, points_for_space

    space, specs = _sweep_space_and_specs(scale)
    points = points_for_space(space, specs, workload="mixed")
    failures = []

    best_serial = None
    serial_results = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = explore(space, specs, workload_name="mixed")
        wall = time.perf_counter() - start
        if best_serial is None or wall < best_serial:
            best_serial, serial_results = wall, results

    with SweepEngine(workers=workers) as engine:
        # First run spawns + warms the pool; timed separately so the
        # gated steady-state number measures dispatch, not fork.
        start = time.perf_counter()
        parallel_outcomes = engine.run(points)
        warmup_wall = time.perf_counter() - start
        warm_pids = sorted(engine.pool_pids())
        spawns_after_warmup = engine.pool_spawns

        best_parallel = None
        for _ in range(repeats):
            start = time.perf_counter()
            outcomes = engine.run(points)
            wall = time.perf_counter() - start
            if best_parallel is None or wall < best_parallel:
                best_parallel, parallel_outcomes = wall, outcomes

        # Warm-pool gate: repeated run() calls must reuse the warmed
        # processes — zero new spawns, identical worker PIDs.
        if engine.pool_spawns != spawns_after_warmup:
            failures.append(
                f"warm runs spawned "
                f"{engine.pool_spawns - spawns_after_warmup} new "
                f"worker process(es); the pool must persist"
            )
        if sorted(engine.pool_pids()) != warm_pids:
            failures.append(
                "worker PIDs changed across runs; the pool was respawned"
            )
        pool_stats = {
            "spawned": engine.pool_spawns,
            "reused_runs": engine.pool_reuses,
            "batches_per_run": engine.last_batches,
        }
        dispatch_overhead_s = min(
            engine.dispatch_overhead_s()
            for _ in range(max(DISPATCH_PROBES, repeats))
        )

    serial_rows = [_det_row(r) for r in serial_results]
    parallel_rows = [_det_row(o.result) for o in parallel_outcomes]
    if serial_rows != parallel_rows:
        failures.append(
            "parallel sweep results differ from the serial explore() "
            "loop"
        )

    # Structural telemetry-off guarantee: none of the sweeps above had
    # telemetry attached, so the telemetry module must never have been
    # imported — the off path is import-free, not just cheap.  (The
    # telemetry-on measurement below imports it, so order matters.)
    if "repro.obs.telemetry" in sys.modules:
        failures.append(
            "repro.obs.telemetry was imported during telemetry-off "
            "sweeps; the off path must stay import-free"
        )

    # Telemetry-on measurement: same points, warm pool, full telemetry
    # (ledger + progress stream + merged trace).  Gates: results must
    # stay bit-identical to the telemetry-off run, and the measured
    # on/off ratio is recorded for the trajectory.
    with tempfile.TemporaryDirectory(prefix="bench_tel_") as tel_dir:
        from repro.obs.telemetry import SweepTelemetry

        telemetry = SweepTelemetry(
            ledger=tel_dir,
            trace_path=os.path.join(tel_dir, "trace.json"),
        )
        with SweepEngine(workers=workers,
                         telemetry=telemetry) as tel_engine:
            tel_engine.run(points)  # spawn + warm off the clock
            best_tel = None
            tel_outcomes = None
            for _ in range(repeats):
                start = time.perf_counter()
                outcomes = tel_engine.run(points)
                wall = time.perf_counter() - start
                if best_tel is None or wall < best_tel:
                    best_tel, tel_outcomes = wall, outcomes
        telemetry.close()
        if [_det_row(o.result) for o in tel_outcomes] != parallel_rows:
            failures.append(
                "telemetry-on sweep results differ from telemetry-off "
                "ones; telemetry must be observation-only"
            )

    with tempfile.TemporaryDirectory(prefix="bench_sweep_") as cache_dir:
        with SweepEngine(workers=workers,
                         store=SweepStore(cache_dir)) as cached_engine:
            cold_outcomes = cached_engine.run(points)
            start = time.perf_counter()
            warm_outcomes = cached_engine.run(points)
            warm_wall = time.perf_counter() - start
            hit_rate = (cached_engine.last_cached / len(points)
                        if points else 0.0)
            if hit_rate < 1.0:
                failures.append(
                    f"warm-cache sweep re-simulated "
                    f"{cached_engine.last_computed} of {len(points)} "
                    f"points"
                )
            if ([_det_row(o.result) for o in warm_outcomes]
                    != [_det_row(o.result) for o in cold_outcomes]):
                failures.append(
                    "cached sweep results differ from computed ones"
                )

    cpus = _available_cpus()
    record = {
        "points": len(points),
        "workers": workers,
        "cpus": cpus,
        "serial_wall_s": round(best_serial, 5),
        "warmup_wall_s": round(warmup_wall, 5),
        "parallel_wall_s": round(best_parallel, 5),
        "speedup_vs_serial": round(best_serial / best_parallel, 2)
        if best_parallel > 0 else float("inf"),
        "parallel_points_per_s": round(len(points) / best_parallel, 2)
        if best_parallel > 0 else float("inf"),
        "serial_points_per_s": round(len(points) / best_serial, 2)
        if best_serial > 0 else float("inf"),
        "dispatch_overhead_ms": round(dispatch_overhead_s * 1e3, 4),
        "per_point_ms": {
            "serial": round(best_serial / len(points) * 1e3, 4),
            "parallel_warm": round(best_parallel / len(points) * 1e3, 4),
        },
        "pool": pool_stats,
        "warm_cache_wall_s": round(warm_wall, 5),
        "cache_hit_rate": hit_rate,
        "telemetry_on_wall_s": round(best_tel, 5),
        "telemetry_on_points_per_s": round(len(points) / best_tel, 2)
        if best_tel > 0 else float("inf"),
        # Warm telemetry-on rate over warm telemetry-off rate; the
        # full-stack telemetry cost on this workload (informational —
        # the gated guarantee is the *off* path staying free).
        "telemetry_on_off_ratio": round(best_parallel / best_tel, 4)
        if best_tel > 0 else 0.0,
    }
    if cpus == 1:
        # A single-CPU box cannot show parallel speedup — the number
        # measures dispatch overhead, not core scaling; the baseline
        # rate gate is skipped (see compare()) and the
        # dispatch_overhead_ms gate carries the regression protection.
        record["speedup_note"] = (
            "1 cpu available: speedup reflects dispatch overhead only; "
            "points-per-s baseline gate skipped"
        )
    return record, failures


# ---------------------------------------------------------------------------
# Warm-start checkpoint experiment (boot-phase reuse across a sweep).
# ---------------------------------------------------------------------------

def _warm_specs_and_boot(scale: float):
    """A deliberately boot-heavy workload for the warm-start measure.

    The boot phase carries ~10x the measured phase's transactions, so
    resuming from a boot checkpoint skips most of each point's work —
    the regime checkpointing exists for (long deterministic warm-up,
    short measured window).
    """
    from repro.explore import BootSpec, MasterTrafficSpec
    from repro.kernel import ms

    measured = max(8, int(40 * scale))
    boot_txns = max(80, int(400 * scale))
    specs = (
        MasterTrafficSpec("cpu", pattern="random", base=0x0,
                          size=1 << 14, burst_length=1, gap=ns(40),
                          transactions=measured, priority=0),
        MasterTrafficSpec("dma", pattern="stream", base=0x100000,
                          size=1 << 14, burst_length=8, gap=ns(60),
                          transactions=measured, priority=1),
    )
    boot = BootSpec(specs=tuple(
        MasterTrafficSpec(f"boot_{s.name}", pattern=s.pattern,
                          base=s.base, size=s.size,
                          burst_length=s.burst_length, gap=s.gap,
                          transactions=boot_txns, priority=s.priority)
        for s in specs
    ), until=ms(1))
    return specs, boot, measured, boot_txns


def measure_warm_start(scale: float, repeats: int,
                       workers: int = SWEEP_WORKERS):
    """Warm-started vs cold sweep on a boot-heavy workload; returns
    ``(record, failures)``.

    Cold runs simulate boot + measured phases per point; warm runs
    resume every point from its family's boot checkpoint
    (``repro.snapshot``) and simulate only the measured suffix.  The
    checkpoint materialization pass runs off the clock (it is paid
    once per family, not per run), mirroring how the sweep CLI
    amortizes it across resumed sessions.

    Deterministic gates in every mode, quick included: warm results
    must be **bit-identical** to cold ones, and every point must
    actually resume warm (zero cold fallbacks).  The trajectory gates
    ``warm_start_per_point_ms`` and ``checkpoint_restore_ms`` against
    the recorded baseline on full runs.
    """
    import tempfile

    from repro.explore import DesignSpace, materialize_boot_checkpoint
    from repro.explore.runner import decode_payload, run_point
    from repro.kernel import ms
    from repro.snapshot import Checkpoint
    from repro.sweep import SweepEngine, points_for_space

    failures = []
    space = DesignSpace(
        fabrics=("generic", "crossbar"),
        arbiters=("static-priority",),
        clock_periods=(ns(10),),
        max_bursts=(16,),
    )
    specs, boot, measured_txns, boot_txns = _warm_specs_and_boot(scale)

    def mk_points():
        return points_for_space(space, specs, workload="warmbench",
                                max_sim_time=ms(5), seed=3, boot=boot)

    n_points = len(mk_points())

    with SweepEngine(workers=workers) as engine:
        engine.run(mk_points())  # spawn + warm the pool off the clock
        best_cold = None
        cold_outcomes = None
        for _ in range(repeats):
            start = time.perf_counter()
            outcomes = engine.run(mk_points())
            wall = time.perf_counter() - start
            if best_cold is None or wall < best_cold:
                best_cold, cold_outcomes = wall, outcomes
    cold_rows = [_det_row(o.result) for o in cold_outcomes]

    with tempfile.TemporaryDirectory(prefix="bench_ckpt_") as ckpt_dir:
        with SweepEngine(workers=workers, checkpoint_dir=ckpt_dir,
                         warm_start=True) as engine:
            # First run materializes the boot checkpoints (paid once
            # per family) and re-warms this engine's pool.
            start = time.perf_counter()
            engine.run(mk_points())
            materialize_wall = time.perf_counter() - start
            families = engine.session_checkpoints

            best_warm = None
            warm_outcomes = None
            for _ in range(repeats):
                start = time.perf_counter()
                outcomes = engine.run(mk_points())
                wall = time.perf_counter() - start
                if best_warm is None or wall < best_warm:
                    best_warm, warm_outcomes = wall, outcomes
            if engine.last_warm_points != n_points:
                failures.append(
                    f"warm sweep resumed only {engine.last_warm_points} "
                    f"of {n_points} points from checkpoints"
                )
        warm_rows = [_det_row(o.result) for o in warm_outcomes]
        if warm_rows != cold_rows:
            failures.append(
                "warm-started sweep results differ from the cold sweep; "
                "checkpoint restore must be bit-deterministic"
            )

        # Restore micro-measure: checkpoint load + state overlay cost
        # for one point, isolated from simulation time (best of N).
        point = mk_points()[0]
        digest = materialize_boot_checkpoint(
            point.to_payload(), ckpt_dir, point.family_key())
        best_load = None
        best_restore = None
        for _ in range(max(repeats, 3)):
            start = time.perf_counter()
            checkpoint = Checkpoint.load(ckpt_dir, digest)
            load_wall = time.perf_counter() - start
            timings: dict = {}
            kwargs = decode_payload(point.to_payload())
            kwargs["warm_snapshot"] = checkpoint.snapshot
            run_point(timings=timings, **kwargs)
            restore_wall = load_wall + timings.get("restore_s", 0.0)
            if best_load is None or load_wall < best_load:
                best_load = load_wall
            if best_restore is None or restore_wall < best_restore:
                best_restore = restore_wall

    record = {
        "points": n_points,
        "workers": workers,
        "cpus": _available_cpus(),
        "boot_transactions": boot_txns,
        "measured_transactions": measured_txns,
        "checkpoint_families": families,
        "cold_wall_s": round(best_cold, 5),
        "warm_wall_s": round(best_warm, 5),
        "materialize_wall_s": round(materialize_wall, 5),
        "cold_per_point_ms": round(best_cold / n_points * 1e3, 4),
        "warm_start_per_point_ms": round(best_warm / n_points * 1e3, 4),
        # <1.0 = warm wins; the boot-heavy workload should sit well
        # below 1.0 (most of each cold point is skipped warm-up).
        "warm_over_cold_ratio": round(best_warm / best_cold, 4)
        if best_cold > 0 else float("inf"),
        "checkpoint_load_ms": round(best_load * 1e3, 4),
        "checkpoint_restore_ms": round(best_restore * 1e3, 4),
        "deterministic": warm_rows == cold_rows,
    }
    return record, failures


# ---------------------------------------------------------------------------
# Chaos determinism experiment (self-healing sweep runtime).
# ---------------------------------------------------------------------------

def measure_chaos(scale: float, workers: int, spec: str):
    """Chaos determinism gate; returns ``(record, failures)``.

    Runs the E3 benchmark sweep once undisturbed and once under a
    :class:`repro.sweep.ChaosPlan` that SIGKILLs workers on scheduled
    batch pickups.  Deterministic gates in every mode: the chaos run
    must deliver every scheduled kill, respawn every victim, complete
    every point (nothing quarantined — there is no poison point, only
    murdered workers), and produce results **bit-identical** to the
    undisturbed run.  This is the headline self-healing guarantee:
    crash recovery replays lost work through the same canonical
    ``decode → run_point → to_dict`` path, so recovery can never
    change a result, only its schedule.
    """
    from repro.sweep import ChaosPlan, SweepEngine, points_for_space

    space, specs = _sweep_space_and_specs(scale)
    points = points_for_space(space, specs, workload="mixed")
    failures = []
    plan = ChaosPlan.parse(spec)

    with SweepEngine(workers=workers) as engine:
        start = time.perf_counter()
        calm_rows = [_det_row(o.result) for o in engine.run(points)]
        calm_wall = time.perf_counter() - start

    with SweepEngine(workers=workers, chaos=plan) as chaos_engine:
        start = time.perf_counter()
        chaos_outcomes = chaos_engine.run(points)
        chaos_wall = time.perf_counter() - start
        recovery = dict(chaos_engine.session_recovery)
        quarantined = chaos_engine.last_quarantined

    if plan.struck != plan.kills:
        failures.append(
            f"chaos delivered {plan.struck} of {plan.kills} scheduled "
            f"worker kill(s)"
        )
    if recovery.get("worker_respawns", 0) < plan.struck:
        failures.append(
            f"chaos killed {plan.struck} worker(s) but only "
            f"{recovery.get('worker_respawns', 0)} respawned"
        )
    if quarantined:
        failures.append(
            f"chaos run quarantined {quarantined} point(s); killed "
            f"workers must only delay points, never fail them"
        )
    chaos_rows = [_det_row(o.result) for o in chaos_outcomes
                  if not o.failed]
    if chaos_rows != calm_rows:
        failures.append(
            "chaos-run sweep results differ from the undisturbed run; "
            "crash recovery must be bit-deterministic"
        )

    record = {
        "plan": str(plan),
        "points": len(points),
        "workers": workers,
        "kills_delivered": plan.struck,
        "recovery": recovery,
        "quarantined": quarantined,
        "calm_wall_s": round(calm_wall, 5),
        "chaos_wall_s": round(chaos_wall, 5),
        # >1.0 = recovery cost (respawn backoff + requeued work); the
        # trajectory record, not a gated number — wall noise under
        # SIGKILL is inherently high.
        "chaos_over_calm_ratio": round(chaos_wall / calm_wall, 3)
        if calm_wall > 0 else float("inf"),
        "deterministic": chaos_rows == calm_rows,
    }
    return record, failures


# ---------------------------------------------------------------------------
# Statistical evaluation experiment (replication overhead + CRN).
# ---------------------------------------------------------------------------

#: Fixed replicate count for the replication-overhead measurement.
STATS_REPLICATES = 4


def measure_stats(scale: float, repeats: int,
                  workers: int = SWEEP_WORKERS):
    """Replicated-run overhead and CRN variance reduction; returns
    ``(record, failures)``.

    Times a fixed-R :class:`repro.stats.ReplicatedRunner` pass over the
    benchmark space against single-run ``engine.run()`` on the same
    warm pool, recording the per-replicate cost relative to a plain
    per-point run (``overhead_ratio`` — the price of the replication
    layer itself, since the simulations are identical work).

    Deterministic gates in every mode: two replicated passes must
    produce bit-identical report rows (the ensemble determinism
    invariant), and on the close-pair clock comparison (same fabric,
    10ns vs 12ns, screening-length workload — the regime CRN is for)
    the common-random-numbers difference stddev must be strictly
    smaller than the independent-seeds one.
    """
    import dataclasses

    from repro.explore import DesignSpace, standard_workloads
    from repro.stats import ReplicatedRunner, ReplicationPolicy, \
        paired_compare
    from repro.sweep import SweepEngine, points_for_space

    failures = []
    space = DesignSpace(
        fabrics=("plb", "generic", "crossbar"),
        arbiters=("static-priority", "round-robin"),
        clock_periods=(ns(10),),
        max_bursts=(16,),
    )
    specs = [s.scaled(scale) for s in standard_workloads()["mixed"]]
    points = points_for_space(space, specs, workload="mixed")
    policy = ReplicationPolicy(r_min=STATS_REPLICATES,
                               r_max=STATS_REPLICATES)

    with SweepEngine(workers=workers) as engine:
        engine.run(points)  # spawn + warm the pool off the clock

        best_single = None
        for _ in range(repeats):
            start = time.perf_counter()
            engine.run(points)
            wall = time.perf_counter() - start
            if best_single is None or wall < best_single:
                best_single = wall

        runner = ReplicatedRunner(engine, policy)
        best_repl = None
        first_rows = None
        for _ in range(repeats):
            start = time.perf_counter()
            outcomes = runner.run(points)
            wall = time.perf_counter() - start
            if best_repl is None or wall < best_repl:
                best_repl = wall
            rows = [o.row() for o in outcomes]
            if first_rows is None:
                first_rows = rows
            elif rows != first_rows:
                failures.append(
                    "replicated passes over the same points produced "
                    "different report rows"
                )
        total_replicates = len(points) * STATS_REPLICATES

        # CRN vs independent seeds on the close-pair clock comparison.
        # Screening-length specs regardless of --quick: variance
        # reduction is a statistical property of the short, contended
        # regime, not a throughput number to scale.
        short_specs = [s.scaled(0.1)
                       for s in standard_workloads()["mixed"]]
        crn_space = DesignSpace(
            fabrics=("plb",), arbiters=("round-robin",),
            clock_periods=(ns(10),), max_bursts=(16,),
        )
        point_a = points_for_space(crn_space, short_specs,
                                   workload="mixed")[0]
        point_b = dataclasses.replace(
            point_a,
            config=dataclasses.replace(point_a.config,
                                       clock_period=ns(12)),
        )
        crn = paired_compare(engine, point_a, point_b, replicates=8,
                             crn=True)
        ind = paired_compare(engine, point_a, point_b, replicates=8,
                             crn=False)
        if ind.difference.stddev > 0:
            ratio = crn.difference.stddev / ind.difference.stddev
        else:
            ratio = 0.0 if crn.difference.stddev == 0 else float("inf")
        if ratio >= 1.0:
            failures.append(
                f"CRN did not reduce the paired-difference stddev on "
                f"the close-pair clock comparison: {crn.difference.stddev:.3f}"
                f" (crn) vs {ind.difference.stddev:.3f} (independent)"
            )

    per_replicate = best_repl / total_replicates
    per_point = best_single / len(points)
    record = {
        "points": len(points),
        "replicates_per_point": STATS_REPLICATES,
        "workers": workers,
        "cpus": _available_cpus(),
        "single_wall_s": round(best_single, 5),
        "replicated_wall_s": round(best_repl, 5),
        "replicates_per_s": round(total_replicates / best_repl, 2)
        if best_repl > 0 else float("inf"),
        "per_replicate_ms": round(per_replicate * 1e3, 4),
        "per_point_single_ms": round(per_point * 1e3, 4),
        # >1.0 means a replicate costs more than a plain point run —
        # the replication layer's own overhead (seed derivation, extra
        # point objects, pooling) on identical simulation work.
        "overhead_ratio": round(per_replicate / per_point, 3)
        if per_point > 0 else float("inf"),
        "crn_variance_ratio": round(ratio, 4),
        "crn_difference_stddev": round(crn.difference.stddev, 4),
        "independent_difference_stddev": round(ind.difference.stddev, 4),
    }
    return record, failures


KERNEL_WORKLOADS = [
    ("timed_storm", timed_storm),
    ("timed_events", timed_events),
    ("delta_chain", delta_chain),
    ("clock_tree", clock_tree),
    ("event_queue_storm", event_queue_storm),
]


def run_kernel_workloads(scale: float, repeats: int) -> dict:
    results = {}
    for name, fn in KERNEL_WORKLOADS:
        best = None
        for _ in range(repeats):
            units, wall = fn(scale)
            rate = units / wall if wall > 0 else float("inf")
            if best is None or rate > best[0]:
                best = (rate, units, wall)
        results[name] = {
            "units": best[1],
            "wall_s": round(best[2], 5),
            "rate_per_s": round(best[0]),
        }
    return results


def run_e1_levels(repeats: int) -> dict:
    """Best-of-N wall time for each E1 abstraction level."""
    import bench_e1_sim_speed as e1

    results = {}
    for name, runner in e1.LEVELS:
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            runner()
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
        results[name] = {
            "wall_s": round(best, 5),
            "transactions": 2 * e1.TRANSACTIONS,
        }
    return results


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------

def compare(kernel: dict, e1: dict, baseline: dict,
            sweep: Optional[dict] = None,
            stats: Optional[dict] = None,
            warm: Optional[dict] = None):
    """Annotate results with speedups; return the list of regressions."""
    regressions = []
    # Warm-start trajectory gates (lower is better for both keys).
    for key, label in (("warm_start_per_point_ms",
                        "warm/warm_start_per_point_ms"),
                       ("checkpoint_restore_ms",
                        "warm/checkpoint_restore_ms")):
        base_value = baseline.get(key)
        if warm and base_value and warm.get(key):
            measured = warm[key]
            warm[f"baseline_{key}"] = base_value
            ratio = base_value / measured
            warm[f"{key}_vs_baseline"] = round(ratio, 2)
            if measured > base_value * (1.0 + REGRESSION_TOLERANCE):
                regressions.append((label, ratio))
    base_repl_rate = baseline.get("stats_replicates_per_s")
    if stats and base_repl_rate:
        ratio = stats["replicates_per_s"] / base_repl_rate
        stats["baseline_replicates_per_s"] = base_repl_rate
        stats["vs_baseline"] = round(ratio, 2)
        if stats.get("cpus", 1) <= 1:
            # Same reasoning as the sweep rate gate: one CPU measures
            # core starvation, not the replication layer.  The
            # deterministic gates in measure_stats() still apply.
            stats["vs_baseline_note"] = "rate gate skipped on 1 cpu"
        elif ratio < 1.0 - REGRESSION_TOLERANCE:
            regressions.append(("stats/replicates_per_s", ratio))
    base_sweep_rate = baseline.get("sweep_points_per_s")
    if sweep and base_sweep_rate:
        ratio = sweep["parallel_points_per_s"] / base_sweep_rate
        sweep["baseline_points_per_s"] = base_sweep_rate
        sweep["vs_baseline"] = round(ratio, 2)
        if sweep.get("cpus", 1) <= 1:
            # One CPU starves the pool of parallelism; the rate gate
            # would measure core starvation, not dispatch overhead.
            # dispatch_overhead_ms (below) still gates.
            sweep["vs_baseline_note"] = "rate gate skipped on 1 cpu"
        elif ratio < 1.0 - REGRESSION_TOLERANCE:
            regressions.append(("sweep/parallel_points_per_s", ratio))
        elif ratio < 1.0 - TELEMETRY_OFF_TOLERANCE:
            # Tighter telemetry-off gate, mirroring the obs-off one:
            # the sweeps behind parallel_points_per_s run with no
            # telemetry attached, so any drop beyond 2% vs the
            # recorded baseline means the telemetry layer is taxing
            # the off path it promised to leave alone.
            regressions.append(("sweep/telemetry_off_rate", ratio))
    base_overhead = baseline.get("sweep_dispatch_overhead_ms")
    if sweep and base_overhead and sweep.get("dispatch_overhead_ms"):
        measured = sweep["dispatch_overhead_ms"]
        sweep["baseline_dispatch_overhead_ms"] = base_overhead
        # Lower is better: regress when the warm-pool no-op dispatch
        # latency grows more than the standard tolerance.
        overhead_ratio = base_overhead / measured
        sweep["dispatch_vs_baseline"] = round(overhead_ratio, 2)
        if measured > base_overhead * (1.0 + REGRESSION_TOLERANCE):
            regressions.append(
                ("sweep/dispatch_overhead_ms", overhead_ratio))
    base_rates = baseline.get("kernel_rate_per_s", {})
    for name, row in kernel.items():
        base = base_rates.get(name)
        if not base:
            continue
        speedup = row["rate_per_s"] / base
        row["baseline_rate_per_s"] = base
        row["speedup"] = round(speedup, 2)
        if speedup < 1.0 - REGRESSION_TOLERANCE:
            regressions.append((f"kernel/{name}", speedup))
    base_walls = baseline.get("e1_wall_s", {})
    for name, row in e1.items():
        base = base_walls.get(name)
        if not base:
            continue
        speedup = base / row["wall_s"] if row["wall_s"] > 0 else float("inf")
        row["baseline_wall_s"] = base
        row["speedup"] = round(speedup, 2)
        if speedup < 1.0 - REGRESSION_TOLERANCE:
            regressions.append((f"e1/{name}", speedup))
    return regressions


def print_report(kernel: dict, e1: dict) -> None:
    print(f"{'workload':<22}{'units':>9}{'wall':>10}{'rate/s':>12}"
          f"{'speedup':>9}")
    print("-" * 62)
    for name, row in kernel.items():
        speed = row.get("speedup")
        print(f"{name:<22}{row['units']:>9}{row['wall_s'] * 1e3:>8.1f}ms"
              f"{row['rate_per_s']:>12}"
              f"{('x%.2f' % speed) if speed else '-':>9}")
    for name, row in e1.items():
        speed = row.get("speedup")
        print(f"{'e1/' + name:<22}{row['transactions']:>9}"
              f"{row['wall_s'] * 1e3:>8.1f}ms{'':>12}"
              f"{('x%.2f' % speed) if speed else '-':>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run all kernel benchmarks and record the trajectory."
    )
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller workloads, no regression gate "
                             "(CI smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of N repeats (default 3)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON trajectory record")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="recorded baseline to compare against")
    parser.add_argument("--write-baseline", action="store_true",
                        help="re-record the baseline from this run")
    parser.add_argument("--sweep-workers", type=int,
                        default=SWEEP_WORKERS,
                        help="worker processes for the sweep "
                             f"measurement (default {SWEEP_WORKERS})")
    parser.add_argument("--require-sweep-speedup", action="store_true",
                        help="fail unless the warm parallel sweep "
                             "beats the serial rate (skipped, with a "
                             "note, when only 1 CPU is available)")
    parser.add_argument("--chaos", default="kill-worker:1",
                        metavar="SPEC",
                        help="chaos determinism gate plan "
                             "(kill-worker[:N], default kill-worker:1; "
                             "'off' skips the chaos measurement)")
    args = parser.parse_args(argv)

    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    scale = 0.1 if args.quick else 1.0
    if args.quick:
        # Shrink the E1 transaction stream before the bench module loads.
        os.environ.setdefault("E1_TRANSACTIONS", "10")

    kernel = run_kernel_workloads(scale, args.repeat)
    e1 = run_e1_levels(args.repeat)
    obs = measure_obs_overhead(scale, args.repeat)
    sweep, sweep_failures = measure_sweep(scale, args.repeat,
                                          workers=args.sweep_workers)
    if args.require_sweep_speedup:
        if sweep["cpus"] < 2:
            print("--require-sweep-speedup: skipped (1 cpu available)")
        elif sweep["speedup_vs_serial"] <= 1.0:
            sweep_failures.append(
                f"warm parallel sweep did not beat serial on "
                f"{sweep['cpus']} cpus: speedup "
                f"x{sweep['speedup_vs_serial']:.2f} "
                f"({sweep['parallel_points_per_s']} vs "
                f"{sweep['serial_points_per_s']} points/s)"
            )
    stats, stats_failures = measure_stats(scale, args.repeat,
                                          workers=args.sweep_workers)
    warm, warm_failures = measure_warm_start(scale, args.repeat,
                                             workers=args.sweep_workers)
    chaos, chaos_failures = None, []
    if args.chaos != "off":
        chaos, chaos_failures = measure_chaos(
            scale, workers=args.sweep_workers, spec=args.chaos)
    obs_failures = (noop_hook_check() + fault_off_check()
                    + sweep_failures + stats_failures + warm_failures
                    + chaos_failures)

    baseline = {}
    if args.baseline.exists() and not args.quick:
        baseline = json.loads(args.baseline.read_text())
    regressions = compare(kernel, e1, baseline, sweep=sweep, stats=stats,
                          warm=warm)
    base_obs_off = baseline.get("obs_off_rate_per_s")
    if base_obs_off:
        obs["baseline_off_rate_per_s"] = base_obs_off
        ratio = obs["off_rate_per_s"] / base_obs_off
        obs["off_vs_baseline"] = round(ratio, 4)
        if ratio < 1.0 - OBS_OFF_TOLERANCE:
            regressions.append(("obs/off_rate", ratio))

    record = {
        "quick": args.quick,
        "python": platform.python_version(),
        "repeat": args.repeat,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "obs_off_tolerance": OBS_OFF_TOLERANCE,
        "telemetry_off_tolerance": TELEMETRY_OFF_TOLERANCE,
        "kernel": kernel,
        "e1": e1,
        "obs": obs,
        "sweep": sweep,
        "stats": stats,
        "warm_start": warm,
        "chaos": chaos,
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    print_report(kernel, e1)
    print(f"\nobs overhead: off {obs['off_rate_per_s']}/s, "
          f"on {obs['on_rate_per_s']}/s "
          f"(ratio {obs['on_off_ratio']:.3f})")
    print(f"sweep: {sweep['points']} points — serial "
          f"{sweep['serial_wall_s'] * 1e3:.0f}ms, warm parallel "
          f"{sweep['parallel_wall_s'] * 1e3:.0f}ms with "
          f"{sweep['workers']} workers on {sweep['cpus']} cpu(s) "
          f"(x{sweep['speedup_vs_serial']:.2f}, warmup "
          f"{sweep['warmup_wall_s'] * 1e3:.0f}ms, dispatch "
          f"{sweep['dispatch_overhead_ms']:.2f}ms), warm cache "
          f"{sweep['warm_cache_wall_s'] * 1e3:.1f}ms at "
          f"{sweep['cache_hit_rate']:.0%} hits")
    print(f"sweep telemetry: on "
          f"{sweep['telemetry_on_wall_s'] * 1e3:.0f}ms "
          f"({sweep['telemetry_on_points_per_s']} points/s, "
          f"x{sweep['telemetry_on_off_ratio']:.3f} of telemetry-off); "
          f"off path import-free")
    print(f"stats: {stats['points']} points x "
          f"{stats['replicates_per_point']} replicates in "
          f"{stats['replicated_wall_s'] * 1e3:.0f}ms "
          f"({stats['replicates_per_s']:.1f} replicates/s, "
          f"x{stats['overhead_ratio']:.2f} per-replicate vs plain "
          f"point), CRN variance ratio "
          f"{stats['crn_variance_ratio']:.2f}")
    print(f"warm start: {warm['points']} points "
          f"(boot {warm['boot_transactions']} / measured "
          f"{warm['measured_transactions']} txns) — cold "
          f"{warm['cold_per_point_ms']:.1f}ms/pt, warm "
          f"{warm['warm_start_per_point_ms']:.1f}ms/pt "
          f"(x{warm['warm_over_cold_ratio']:.2f} of cold), restore "
          f"{warm['checkpoint_restore_ms']:.2f}ms, "
          f"{warm['checkpoint_families']} checkpoint family(ies), "
          f"results "
          f"{'bit-identical' if warm['deterministic'] else 'DIVERGED'}")
    if chaos is not None:
        print(f"chaos: {chaos['plan']} on {chaos['points']} points — "
              f"{chaos['kills_delivered']} kill(s), "
              f"{chaos['recovery'].get('worker_respawns', 0)} "
              f"respawn(s), {chaos['quarantined']} quarantined, "
              f"results {'bit-identical' if chaos['deterministic'] else 'DIVERGED'} "
              f"(x{chaos['chaos_over_calm_ratio']:.2f} wall vs calm)")
    print(f"wrote {args.output}")

    if obs_failures:
        print("\nOBSERVABILITY CHECK FAILED:", file=sys.stderr)
        for failure in obs_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.write_baseline:
        new_baseline = {
            "recorded": f"python {platform.python_version()}, "
                        f"{time.strftime('%Y-%m-%d')}",
            "note": "Update by running `python benchmarks/run_all.py "
                    "--write-baseline` on the commit you want to measure "
                    "against.",
            "kernel_rate_per_s": {
                name: row["rate_per_s"] for name, row in kernel.items()
            },
            "e1_wall_s": {
                name: row["wall_s"] for name, row in e1.items()
            },
            "obs_off_rate_per_s": obs["off_rate_per_s"],
            "sweep_points_per_s": sweep["parallel_points_per_s"],
            "sweep_dispatch_overhead_ms": sweep["dispatch_overhead_ms"],
            "stats_replicates_per_s": stats["replicates_per_s"],
            "warm_start_per_point_ms": warm["warm_start_per_point_ms"],
            "checkpoint_restore_ms": warm["checkpoint_restore_ms"],
        }
        args.baseline.write_text(json.dumps(new_baseline, indent=2) + "\n")
        print(f"re-recorded baseline at {args.baseline}")
        return 0

    if regressions:
        print("\nREGRESSION: the following workloads fell below the "
              f"recorded baseline (tolerance {REGRESSION_TOLERANCE:.0%}, "
              f"obs-off {OBS_OFF_TOLERANCE:.0%}):",
              file=sys.stderr)
        for name, speedup in regressions:
            print(f"  {name}: x{speedup:.2f} of baseline", file=sys.stderr)
        return 1
    if baseline:
        print("no regressions vs. recorded baseline "
              f"(tolerance {REGRESSION_TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
