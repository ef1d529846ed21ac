"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is the
separate traced run and prints the per-layer ledger.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metric -> unit, in print order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "txn_per_s": "txn/s",
    "points_per_s": "points/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "sweep_points_per_s": "points/s",
    "flow_pv_blocks_per_s": "blocks/s",
    "flow_ccatb_blocks_per_s": "blocks/s",
    "flow_cam_blocks_per_s": "blocks/s",
    "flow_pin_blocks_per_s": "blocks/s",
    "ccatb_cycle_err_pct": "%",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (the traced run prints every one).
PER_LAYER_UNITS = {
    "kernel.sched_us_per_txn": "us",
    "kernel.dispatches_per_txn": "count",
    "kernel.events_per_txn": "count",
    "kernel.timesteps_per_txn": "count",
    "kernel.sched_us_per_block": "us",
    "kernel.deltas_per_block": "count",
    "explore.traffic_us_per_txn": "us",
    "explore.build_ms_per_point": "ms",
    "cam.socket_us_per_txn": "us",
    "cam.bus_us_per_txn": "us",
    "cam.utilization": "ratio",
    "cam.rtl_diverged_frac": "ratio",
    "slave.us_per_access": "us",
    "slave.accesses_per_txn": "count",
    "ship.codec_us_per_msg": "us",
    "ship.bytes_per_msg": "bytes",
    "ship.channel_us_per_msg": "us",
    "models.wrapper_us_per_block": "us",
    "rtl.core_us_per_cycle": "us",
    "ocp.pin_us_per_cycle": "us",
    "accessors.us_per_cycle": "us",
    "sweep.setup_ms_per_point": "ms",
    "sweep.serialize_ms_per_point": "ms",
    "sweep.simulate_ms_per_point": "ms",
    "sweep.ipc_ms_per_batch": "ms",
    "sweep.cache_ms_per_run": "ms",
    "sweep.worker_busy_frac": "ratio",
    "sweep.batches_per_run": "count",
    "sweep.requeues": "count",
    "sweep.quarantined": "count",
    "sweep.pool_spawn_s": "s",
    "snapshot.materialize_s": "s",
    "snapshot.restore_ms_per_point": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sparse", "contended"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import parts
    from perfbench import workloads as wl

    regime = wl.REGIMES[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"run-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    checks = parts.Checks()
    digest = parts.Digest()
    print(f"workload={regime.name} traffic={regime.traffic} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"sweep_workers={parts.sweep_workers()}")
    try:
        if args.trace:
            metrics = run_traced(regime, args.seed, work_dir, checks,
                                 digest)
        else:
            metrics = run_timed(regime, args.seed, args.seconds,
                                work_dir, checks, digest)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"digest.sim_sha256 {digest.hexdigest()}")
    for label, problems in checks.failures:
        for problem in problems:
            print(f"FAILED {problem.split(':')[0]} [{label}] {problem}")
    print(f"failed_frac = {checks.failed / checks.attempted:.6f} ratio "
          f"({checks.failed} of {checks.attempted} operations)")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def print_divergences(divergences) -> None:
    for plan, master, seq, ccatb, rtl in divergences:
        print(f"accuracy.first_divergence plan={plan} master=m{master} "
              f"seq={seq} ccatb_cycle={ccatb} rtl_cycle={rtl}")


def run_timed(regime, seed, seconds, work_dir, checks, digest) -> dict:
    """The untraced run: every end-to-end metric."""
    from perfbench import parts

    explore, flow, sweep = parts.run_timed_parts(
        regime, seed, str(ROOT), str(work_dir), seconds, checks, digest)
    accuracy = parts.run_accuracy(regime, seed, checks, digest)
    print_divergences(accuracy.divergences)
    utilization = statistics.fmean(explore.utilization)
    print(f"counts explore_points={len(explore.point_s)} "
          f"flow_reps={flow.steps} sweep_rounds={len(sweep.round_s)} "
          f"sweep_points_per_round={len(sweep.points)} "
          f"accuracy_diverged_frac={accuracy.diverged_frac:.4f} "
          f"cam.utilization={utilization:.4f}")
    sweep_raw = sweep.timer.raw_s
    print(f"raw_host_s explore={sum(explore.timer.raw_s):.3f} "
          f"flow={sum(flow.timer.raw_s):.3f} "
          f"setup={sum(sweep_raw[:parts.SETUP_REPS]):.3f} "
          f"sweep={sum(sweep_raw[parts.SETUP_REPS:]):.3f} (unscaled)")
    metrics = {}
    metrics.update(sweep.metrics())
    metrics.update(explore.metrics())
    metrics.update(flow.metrics())
    metrics["ccatb_cycle_err_pct"] = accuracy.err_pct
    metrics["peak_rss_mb"] = (parts.own_peak_rss_mb()
                              + sweep.worker_peak_rss_mb)
    return metrics


def run_traced(regime, seed, work_dir, checks, digest) -> dict:
    """The traced run: every per-layer metric, plus exact counts."""
    from perfbench import ledger

    metrics, report = ledger.run_traced(regime, seed, str(work_dir),
                                        checks, digest)
    print_divergences(report["divergences"])
    self_s = report["self_s"]
    print("self_time_s " + " ".join(
        f"{layer}={seconds:.6f}" for layer, seconds in self_s.items())
        + f" sum={sum(self_s.values()):.6f}"
        f" simulate={report['simulate_s']:.6f}")
    print("exact_counts " + json.dumps(report["counts"], sort_keys=True))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
