"""The measured parts of one benchmark run, and their correctness checks.

Each part drives the program only through its public entry points:
``run_point`` (serial exploration), ``SweepEngine.run`` (pooled
screening sweep), the ``LEVEL_BUILDERS`` pipeline builders (flow
levels) and ``BusCam.master_socket`` / ``RtlBusCore.master_port`` (the
accuracy pass).  In-process parts are timed in process CPU time; the
pooled sweep and set-up are timed in wall time, because their
parallelism is part of what they deliver.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps import LEVEL_BUILDERS, reference_output
from repro.cam.arbiters import make_arbiter
from repro.cam.bus import BusCam, BusTiming
from repro.cam.memory import MemorySlave
from repro.explore import run_point
from repro.kernel import Clock, Module, SimContext, ns, us
from repro.ocp.types import OcpCmd, OcpRequest
from repro.rtl import RtlBusCore
from repro.sweep import SweepEngine, points_for_space

from perfbench import workloads as wl

#: Minimum passes over the design space (2 x 60 points: >= 100
#: samples, so at least 10 lie beyond the p90).
MIN_PASSES = 2
#: Explore points between two flow repetitions, and between two sweep
#: rounds (per pass: 30 flow repetitions, 10 sweep rounds).  A single
#: repetition or round varies by 10-20 % on a shared host, so each
#: part needs dozens of samples per run for a steady median.
FLOW_EVERY = 2
SWEEP_EVERY = 6
#: Sweep rounds in the traced run.
TRACED_SWEEP_ROUNDS = 5
#: Set-up repetitions; set-up time is their median.
SETUP_REPS = 5
#: Pooled results re-simulated in process for the parity check.
SWEEP_SAMPLE = 4
#: Accuracy-pass bus: pipelined with split read/write data paths.
ACCURACY_TIMING = BusTiming(arb_cycles=1, addr_cycles=1,
                            cycles_per_beat=1, pipelined=True,
                            split_rw=True)
ACCURACY_PERIOD = ns(10)


#: Host seconds one :func:`calibration_kernel` call takes at the
#: reference speed.  Every reported time is scaled to that speed.
REF_CAL_S = 0.005


class _CalEvent:
    __slots__ = ("when", "owner", "payload")

    def __init__(self, when, owner, payload):
        self.when = when
        self.owner = owner
        self.payload = payload


def calibration_kernel(steps: int = 2400) -> int:
    """A fixed interpreter-bound job independent of the program.

    A miniature event loop over generators, with small-object and dict
    churn, so host-speed drift moves it the way it moves the
    simulator.  It imports nothing from ``repro``: a change to the
    program cannot change it.
    """
    table = {}

    def body(k):
        buf = []
        for i in range(steps // 16):
            buf.append(_CalEvent(i, k, [i, k, i ^ k]))
            if len(buf) > 32:
                buf = buf[16:]
            table[(k, i & 63)] = buf[-1].payload
            yield (i * 7 + k) % 19 + 1

    heap = [(0, k, body(k)) for k in range(16)]
    heapq.heapify(heap)
    seq = len(heap)
    while heap:
        now, _, gen = heapq.heappop(heap)
        for delay in gen:
            seq += 1
            heapq.heappush(heap, (now + delay, seq, gen))
            break
    return len(table)


class RefTimer:
    """Times units of work in host seconds scaled to the reference speed.

    The host's speed drifts by 10-25 % over seconds on a shared
    machine.  Each unit is bracketed by :func:`calibration_kernel`
    runs and its time is multiplied by ``REF_CAL_S`` over their mean,
    so drift cancels while a change to the program moves the scaled
    time exactly as it moves the raw one.  ``clock`` is
    :func:`time.process_time` for in-process work and
    :func:`time.perf_counter` for work spread over processes.
    """

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self._last_cal = self._calibrate()
        #: raw (unscaled) seconds of every measured unit
        self.raw_s: List[float] = []

    def _calibrate(self) -> float:
        t0 = self.clock()
        calibration_kernel()
        return self.clock() - t0

    def measure(self, fn):
        """Run ``fn()``; returns ``(result, scaled_seconds)``.

        A full collection first gives every unit the same starting
        garbage-collector state; the collection itself is not timed.
        """
        gc.collect()
        before = self._last_cal
        t0 = self.clock()
        result = fn()
        raw = self.clock() - t0
        self._last_cal = self._calibrate()
        self.raw_s.append(raw)
        return result, raw * REF_CAL_S * 2 / (before + self._last_cal)


class Checks:
    """Counts attempted operations and records the ones that failed.

    One failed operation counts once, whatever number of checks it
    broke; every broken check is printed by name.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: List[tuple] = []

    def record(self, label: str, problems: List[str]) -> None:
        """Count one operation; record it as failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failures.append((label, problems))

    @property
    def failed(self) -> int:
        """Operations that broke at least one check."""
        return len(self.failures)


def point_problems(result, specs) -> List[str]:
    """Checks on one design point's result (faults are off)."""
    problems = []
    wanted = {s.name: s.transactions for s in specs}
    for master in result.masters:
        if master.completed != wanted[master.name]:
            problems.append(
                f"truncated_point: {master.name} completed "
                f"{master.completed} of {wanted[master.name]}")
        if master.errors:
            problems.append(
                f"bus_error: {master.name} saw {master.errors} error "
                "responses with faults off")
    return problems


def simulated_dict(result) -> dict:
    """A result's ``to_dict()`` without its host-time field."""
    data = result.to_dict()
    data.pop("wall_seconds")
    return data


class Digest:
    """SHA-256 over every simulated statistic a run reports."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def add(self, tag: str, payload) -> None:
        """Fold one tagged JSON-able record into the digest."""
        line = json.dumps([tag, payload], sort_keys=True,
                          separators=(",", ":"))
        self._sha.update(line.encode("utf-8") + b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# serial CCATB exploration
# ---------------------------------------------------------------------------


class ExplorePart:
    """Serial ``run_point`` over the design space, one point a step."""

    def __init__(self, regime, seed: int, checks: Checks, digest: Digest):
        self.regime = regime
        self.seed = seed
        self.checks = checks
        self.digest = digest
        self.configs = wl.explore_configs(seed)
        self.specs = wl.explore_specs(regime)
        self.timer = RefTimer()
        self.point_s: List[float] = []
        self.txns = 0
        self.utilization: List[float] = []

    def step(self) -> None:
        """Simulate the next point (passes repeat with fresh seeds).

        The digest covers the first :data:`MIN_PASSES` passes, the
        work every run does.
        """
        index = len(self.point_s)
        config = self.configs[index % len(self.configs)]
        point_seed = wl.explore_point_seed(self.seed, index)
        result, seconds = self.timer.measure(lambda: run_point(
            config, self.specs, workload_name=self.regime.name,
            seed=point_seed))
        self.point_s.append(seconds)
        self.txns += sum(m.completed for m in result.masters)
        self.utilization.append(result.utilization)
        self.checks.record(f"explore[{index}] {config.name}",
                           point_problems(result, self.specs))
        if index < MIN_PASSES * len(self.configs):
            self.digest.add("explore", simulated_dict(result))

    def metrics(self) -> Dict[str, float]:
        total = sum(self.point_s)
        point_ms = [t * 1e3 for t in self.point_s]
        return {
            "txn_per_s": self.txns / total,
            "points_per_s": len(self.point_s) / total,
            "point_ms_p50": statistics.median(point_ms),
            "point_ms_p90": quantile(point_ms, 0.9),
        }


# ---------------------------------------------------------------------------
# set-up and the pooled screening sweep
# ---------------------------------------------------------------------------


def sweep_workers() -> int:
    """Pool size: the CPUs this process may use, 2 to 4."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 2
    return max(2, min(4, cpus))


def sweep_points(regime, seed: int) -> list:
    """One warm-startable screening point per design-space config."""
    specs, boot = wl.sweep_specs_and_boot(regime)
    return points_for_space(wl.SPACE, specs,
                            workload=f"screen-{regime.name}",
                            seed=wl.sweep_seed(seed), boot=boot)


def time_import(root: str) -> None:
    """Import the simulation stack in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c",
         "import repro.explore, repro.sweep, repro.apps"],
        env=env, cwd=root, check=True,
    )


def make_engine(work_dir: str, tag: str, telemetry=None) -> SweepEngine:
    """A warm-starting engine with a fresh checkpoint directory.

    It has no result store, so nothing is ever served from cache, and
    the store's per-point ``fsync`` -- disk latency, which on a shared
    host is noise unrelated to the program -- stays out of the rounds.
    """
    return SweepEngine(
        workers=sweep_workers(), warm_start=True,
        checkpoint_dir=os.path.join(work_dir, f"ckpt-{tag}"),
        telemetry=telemetry,
    )


def check_sweep_round(outcomes, engine, specs, label: str,
                      checks: Checks) -> List[dict]:
    """Record every pooled outcome; returns their simulated dicts."""
    dicts = []
    for outcome in outcomes:
        name = f"{label} {outcome.point.config.name}"
        if outcome.failed:
            checks.record(name, [
                f"quarantined: {outcome.failure.get('kind')} "
                f"{outcome.failure.get('error_type')}"])
            dicts.append(None)
            continue
        checks.record(name, point_problems(outcome.result, specs))
        dicts.append(simulated_dict(outcome.result))
    if engine.last_warm_points != len(outcomes):
        checks.record(f"{label} warm start", [
            f"cold_fallback: only {engine.last_warm_points} of "
            f"{len(outcomes)} points resumed from a boot checkpoint"])
    return dicts


def worker_peak_rss_mb(pids) -> float:
    """Summed peak resident set of live worker processes (Linux)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class SweepPart:
    """Set-up, then one steady sweep round a step.

    One set-up is a fresh interpreter importing the simulation stack
    plus the first ``run()`` of a fresh warm-starting engine, which
    spawns the pool, materialises the boot checkpoints and loads them
    into the workers.  The last set-up's engine stays up for the
    rounds; each round reruns every point.  Call :meth:`close` when
    done.
    """

    def __init__(self, regime, seed: int, root: str, work_dir: str,
                 checks: Checks, digest: Digest):
        self.seed = seed
        self.work_dir = work_dir
        self.checks = checks
        self.digest = digest
        self.points = sweep_points(regime, seed)
        self.specs = list(self.points[0].specs)
        self.timer = RefTimer(time.perf_counter)
        self.setup_s: List[float] = []
        self.round_s: List[float] = []
        self.first: Optional[List[dict]] = None
        self.worker_peak_rss_mb = 0.0
        self.engine = None
        try:
            for rep in range(SETUP_REPS):
                self.setup_s.append(self.timer.measure(
                    lambda: self._set_up(root, rep))[1])
        except BaseException:
            self.close()
            raise

    def _set_up(self, root: str, rep: int) -> None:
        if self.engine is not None:
            self.engine.close()
        time_import(root)
        self.engine = make_engine(self.work_dir, f"setup{rep}")
        self.engine.run(self.points)

    def step(self) -> None:
        rounds = len(self.round_s)
        outcomes, seconds = self.timer.measure(
            lambda: self.engine.run(self.points))
        self.round_s.append(seconds)
        dicts = check_sweep_round(outcomes, self.engine, self.specs,
                                  f"sweep[{rounds}]", self.checks)
        if self.first is None:
            self.first = dicts
            for data in dicts:
                self.digest.add("sweep", data)
        elif dicts != self.first:
            self.checks.record(f"sweep[{rounds}] determinism", [
                "sweep_nondeterministic: a round's results differ from "
                "the first round's"])

    def close(self) -> None:
        """Record the workers' peak RSS and stop the pool."""
        if self.engine is not None:
            self.worker_peak_rss_mb = worker_peak_rss_mb(
                self.engine.pool_pids())
            self.engine.close()
            self.engine = None

    def check_parity(self) -> None:
        """Compare the first round with in-process ``run_point``."""
        check_sweep_parity(self.points, self.first, self.seed,
                           self.checks)

    def metrics(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "sweep_points_per_s": statistics.median(
                len(self.points) / s for s in self.round_s),
        }


def check_sweep_parity(points, pooled: List[dict], seed: int,
                       checks: Checks) -> None:
    """Pooled warm results must equal in-process cold ``run_point``."""
    rng = wl.rng_for(seed, "sweep-sample")
    for index in sorted(rng.sample(range(len(points)), SWEEP_SAMPLE)):
        point = points[index]
        local = run_point(
            point.config, list(point.specs),
            workload_name=point.workload,
            max_sim_time=point.max_sim_time, seed=point.seed,
            boot=point.boot,
        )
        problems = []
        if simulated_dict(local) != pooled[index]:
            problems.append(
                "sweep_mismatch: pooled result differs from in-process "
                "run_point")
        checks.record(f"sweep parity {point.config.name}", problems)


# ---------------------------------------------------------------------------
# flow levels
# ---------------------------------------------------------------------------


def simulate_level(name: str, system) -> None:
    """Run a built pipeline level to completion."""
    if name == "prototype":
        # the prototype's free-running clock never starves; its sink
        # stops the simulation after the last block
        system.ctx.run(us(1_000_000))
    else:
        system.ctx.run()


def run_level(name: str, builder, blocks: int):
    """Build and simulate one pipeline level; returns the system."""
    system = builder(blocks)
    simulate_level(name, system)
    return system


def level_record(name: str, blocks: int, system) -> dict:
    """Simulated statistics of one level run, for the digest."""
    outputs = json.dumps(system.outputs()).encode("utf-8")
    return {
        "level": name, "blocks": blocks,
        "sim_fs": system.ctx.last_activity_time.femtoseconds,
        "deltas": system.ctx.delta_count,
        "outputs_sha256": hashlib.sha256(outputs).hexdigest(),
    }


def level_problems(name: str, system, golden) -> List[str]:
    """The flow check: a level's sink must record the golden blocks."""
    if system.outputs() != golden:
        return [f"flow_output_mismatch: {name} outputs differ from "
                "reference_output"]
    return []


FLOW_METRIC = {
    "component-assembly": "flow_pv_blocks_per_s",
    "ccatb": "flow_ccatb_blocks_per_s",
    "cam": "flow_cam_blocks_per_s",
    "prototype": "flow_pin_blocks_per_s",
}


class FlowPart:
    """One repetition of the next flow level a step (round-robin)."""

    def __init__(self, checks: Checks, digest: Digest):
        self.checks = checks
        self.digest = digest
        self.timer = RefTimer()
        self.golden = {name: reference_output(blocks)
                       for name, blocks in wl.FLOW_BLOCKS.items()}
        self.rates: Dict[str, List[float]] = {
            name: [] for name, _ in LEVEL_BUILDERS}
        self.steps = 0

    def step(self) -> None:
        name, builder = LEVEL_BUILDERS[self.steps % len(LEVEL_BUILDERS)]
        self.steps += 1
        blocks = wl.FLOW_BLOCKS[name]
        system, seconds = self.timer.measure(
            lambda: run_level(name, builder, blocks))
        rates = self.rates[name]
        self.checks.record(f"flow {name}[{len(rates)}]",
                           level_problems(name, system, self.golden[name]))
        if not rates:
            self.digest.add("flow", level_record(name, blocks, system))
        rates.append(blocks / seconds)

    def metrics(self) -> Dict[str, float]:
        return {FLOW_METRIC[name]: statistics.median(rates)
                for name, rates in self.rates.items()}


# ---------------------------------------------------------------------------
# the timed run
# ---------------------------------------------------------------------------


def run_timed_parts(regime, seed: int, root: str, work_dir: str,
                    budget_s: float, checks: Checks, digest: Digest):
    """Set up, then interleave the timed parts for ``budget_s`` seconds.

    The host's speed drifts within a run, so the parts take turns: in
    each pass over the design space, a flow repetition follows every
    :data:`FLOW_EVERY` points and a sweep round every
    :data:`SWEEP_EVERY` points.  Every part then sees the same mix of
    host states.  At least :data:`MIN_PASSES` passes run; then more
    while another pass fits the budget.
    """
    explore = ExplorePart(regime, seed, checks, digest)
    flow = FlowPart(checks, digest)
    sweep = SweepPart(regime, seed, root, work_dir, checks, digest)
    try:
        start = time.perf_counter()
        passes = 0
        while True:
            elapsed = time.perf_counter() - start
            if passes >= MIN_PASSES and (
                    elapsed + elapsed / passes > budget_s):
                break
            for i in range(len(explore.configs)):
                explore.step()
                if i % FLOW_EVERY == FLOW_EVERY - 1:
                    flow.step()
                if i % SWEEP_EVERY == SWEEP_EVERY - 1:
                    sweep.step()
            passes += 1
    finally:
        sweep.close()
    sweep.check_parity()
    return explore, flow, sweep


# ---------------------------------------------------------------------------
# CCATB-vs-RTL accuracy pass (outside the timed window)
# ---------------------------------------------------------------------------


def _request(req: wl.PlanRequest) -> OcpRequest:
    if req.is_read:
        return OcpRequest(OcpCmd.RD, req.addr, burst_length=req.beats)
    return OcpRequest(OcpCmd.WR, req.addr, data=[0x5A] * req.beats,
                      burst_length=req.beats)


def replay(plan: wl.AccuracyPlan, level: str) -> List[List[int]]:
    """Completion cycle of every request, per master, on one bus model."""
    ctx = SimContext(name=f"accuracy_{level}")
    top = Module("top", ctx=ctx)
    arbiter = make_arbiter(plan.arbiter)
    if level == "ccatb":
        bus = BusCam("bus", top, clock_period=ACCURACY_PERIOD,
                     timing=ACCURACY_TIMING, arbiter=arbiter)
        attach = bus.master_socket
    else:
        clock = Clock("clk", top, period=ACCURACY_PERIOD)
        bus = RtlBusCore("bus", top, clock=clock, timing=ACCURACY_TIMING,
                         arbiter=arbiter)
        attach = bus.master_port
    memory = MemorySlave("mem", top, size=wl.ACCURACY_MEMORY,
                         read_wait=1, write_wait=1)
    bus.attach_slave(memory, 0, wl.ACCURACY_MEMORY)
    completions: List[List[int]] = [[] for _ in plan.masters]
    running = [len(plan.masters)]

    def master(index, requests, port):
        for req in requests:
            if req.gap_cycles:
                yield ACCURACY_PERIOD * req.gap_cycles
            yield from port.transport(_request(req))
            completions[index].append(ctx.now // ACCURACY_PERIOD)
        running[0] -= 1
        if running[0] == 0:
            # the RTL core's clock never starves: stop explicitly
            ctx.stop()

    for index, requests in enumerate(plan.masters):
        port = attach(f"m{index}", priority=index)
        ctx.register_thread(
            lambda i=index, r=requests, p=port: master(i, r, p),
            f"master{index}")
    ctx.run(us(1_000))
    return completions


def first_divergence(ccatb, rtl) -> Optional[tuple]:
    """``(master, seq, ccatb_cycle, rtl_cycle)`` of the earliest mismatch."""
    found = None
    for master, (a, b) in enumerate(zip(ccatb, rtl)):
        for seq, (x, y) in enumerate(zip(a, b)):
            if x != y:
                if found is None or min(x, y) < min(found[2], found[3]):
                    found = (master, seq, x, y)
                break
    return found


@dataclass
class AccuracyOutcome:
    err_pct: float
    diverged_frac: float
    divergences: List[tuple]


def run_accuracy(regime, seed: int, checks: Checks,
                 digest: Digest) -> AccuracyOutcome:
    """Replay seeded plans on ``BusCam`` and ``RtlBusCore``."""
    errors = []
    divergences = []
    plans = wl.accuracy_plans(seed, regime)
    for index, plan in enumerate(plans):
        ccatb = replay(plan, "ccatb")
        rtl = replay(plan, "rtl")
        problems = []
        if [len(c) for c in ccatb] != [len(r) for r in rtl] or any(
                len(c) != len(reqs)
                for c, reqs in zip(ccatb, plan.masters)):
            problems.append(
                f"accuracy_incomplete: plan {index} did not complete "
                "every request on both models")
        checks.record(f"accuracy plan {index}", problems)
        digest.add("accuracy", [ccatb, rtl])
        for a, b in zip(ccatb, rtl):
            errors.extend(abs(x - y) / y for x, y in zip(a, b))
        found = first_divergence(ccatb, rtl)
        if found is not None:
            divergences.append((index,) + found)
    return AccuracyOutcome(
        err_pct=100.0 * statistics.fmean(errors),
        diverged_frac=len(divergences) / len(plans),
        divergences=divergences,
    )


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
