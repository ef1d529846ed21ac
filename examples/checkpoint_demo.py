#!/usr/bin/env python3
"""Checkpoint/restore walkthrough: save a simulation, resume it later.

Three scenes, all built on ``repro.snapshot``:

1. **Round trip** — run a CAM bus workload to a mid-run instant,
   capture the full kernel state, restore it into a *fresh* build and
   finish the run; the finals are byte-identical to an uninterrupted
   run.
2. **Checkpoint files** — the same snapshot saved as a content-
   addressed, digest-verified ``Checkpoint`` file and loaded back.
3. **Fault replay** — checkpoint just before a fault injection and
   replay only the suffix, including a what-if variant that mutates
   the restored model before resuming.

Run:  python examples/checkpoint_demo.py
"""

from repro.cam import GenericBus, MemorySlave
from repro.explore.workload import MasterTrafficSpec, TrafficMaster
from repro.faults import FaultPlan, MemoryFaultInjector
from repro.kernel import Module, SimContext, ns, us
from repro.snapshot import Checkpoint, FaultReplay, SnapshotError

HORIZON = us(1000)


def build():
    """A fresh, structurally identical model on every call.

    Determinism of the builder is the whole contract: a snapshot only
    restores into a build whose object tree matches the captured one.
    """
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    spec = MasterTrafficSpec("m", pattern="random", transactions=60,
                             gap=ns(50))
    bus = GenericBus("bus", top, clock_period=ns(10))
    mem = MemorySlave("mem", top, size=spec.size, read_wait=1,
                      write_wait=1)
    bus.attach_slave(mem, spec.base, spec.size)
    tm = TrafficMaster("tm", top, socket=bus.master_socket(spec.name),
                       spec=spec, seed=7)
    return ctx, tm, mem


def fingerprint(ctx, tm, mem):
    """The facts that must survive a save/restore round trip."""
    return (tm.completed, tm.bytes_done, tm.latency.total_ns,
            mem.reads, mem.writes, ctx._now_fs, ctx._delta_count)


def capture_mid_run():
    """Run a fresh build to the first capturable ladder instant.

    An instant in the middle of a bus transaction is not quiescent
    (the requester waits on a transient per-transaction event), and
    ``capture`` refuses it — so probe a ladder instead of trusting one
    hard-coded time.
    """
    for t_ns in (777, 1303, 2222, 3001, 4747):
        ctx, tm, mem = build()
        ctx.run(ns(t_ns))
        try:
            return Checkpoint.capture(ctx, "checkpoint-demo"), t_ns
        except SnapshotError:
            print(f"  t={t_ns}ns is mid-transaction, trying later...")
    raise SystemExit("no capturable instant found")


def main():
    # Scene 1: capture mid-run, restore into a fresh build, finish.
    print("== save -> restore -> run ==")
    ctx, tm, mem = build()
    ctx.run(HORIZON)
    cold = fingerprint(ctx, tm, mem)
    print(f"cold run: {tm.completed} transactions, "
          f"{tm.bytes_done} bytes")

    checkpoint, t_ns = capture_mid_run()
    print(f"captured at t={t_ns}ns "
          f"(digest {checkpoint.digest[:16]}...)")
    ctx2, tm2, mem2 = build()
    checkpoint.resume(ctx2)
    ctx2.run(until=HORIZON)
    warm = fingerprint(ctx2, tm2, mem2)
    print(f"warm run: {tm2.completed} transactions, "
          f"{tm2.bytes_done} bytes")
    assert warm == cold, "restored run diverged from the cold run"
    print("byte-identical: yes")

    # Scene 2: the same checkpoint through its on-disk file format.
    print("\n== checkpoint file ==")
    path = checkpoint.save("demo_checkpoints")
    print(f"saved {path}")
    loaded = Checkpoint.load("demo_checkpoints", checkpoint.digest)
    ctx3, tm3, mem3 = build()
    loaded.resume(ctx3)
    ctx3.run(until=HORIZON)
    assert fingerprint(ctx3, tm3, mem3) == cold
    print("loaded, verified and resumed: byte-identical again")

    # Scene 3: fault replay — simulate the prefix once, replay the
    # suffix from a checkpoint taken just before the injection.
    print("\n== fault replay ==")

    def faulty_builder():
        ctx, tm, mem = build()
        top = ctx.objects["top"]
        plan = FaultPlan(seed=13)
        MemoryFaultInjector("seu", top, memory=mem, plan=plan,
                            period=us(2))
        return ctx, {"fault_plan": plan}

    replayer = FaultReplay(faulty_builder)
    base_ctx, base_extras = replayer.baseline(HORIZON)
    base_plan = base_extras["fault_plan"]
    print(f"baseline campaign: {base_plan.count()} fault(s), "
          f"digest {base_plan.digest()[:16]}...")

    # Restore before the second flip (period us(2) -> t = us(4)).
    snapshot, chosen_fs = replayer.checkpoint_before(
        us(4)._fs, [ns(500 * k)._fs for k in range(1, 8)])
    print(f"checkpointed the prefix at {chosen_fs / 1e6:.0f}ns")
    ctx4, extras = replayer.replay(snapshot, HORIZON)
    assert extras["fault_plan"].digest() == base_plan.digest()
    print("replay reproduces the exact fault log")

    def disarm(ctx, extras):
        injector = ctx.objects["top.seu"]
        injector.max_flips = injector.flips

    ctx5, what_if = replayer.replay(snapshot, HORIZON, mutate=disarm)
    print(f"what-if variant (injector disarmed after restore): "
          f"{what_if['fault_plan'].count()} fault(s) instead of "
          f"{base_plan.count()}")


if __name__ == "__main__":
    main()
