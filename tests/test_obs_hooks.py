"""Kernel instrumentation hooks: attach/detach, hook coverage, no-op path."""

import pytest

import repro.kernel.context as context_module
from repro.kernel import Signal, SimContext, SimulationError, ns
from repro.obs import CountingObserver, ObserverGroup, SimObserver


def _workload(ctx):
    """A small design exercising every hook kind: timed waits, delta
    notifications, and signal writes (update phases)."""
    sig = Signal("s", ctx=ctx, init=0, check_writer=False)

    def writer():
        for i in range(5):
            sig.write(i + 1)
            yield ns(10)

    def waiter():
        for _ in range(5):
            yield sig.default_event()

    ctx.register_thread(writer, "writer")
    ctx.register_thread(waiter, "waiter")


class TestAttachDetach:
    def test_attach_exposes_observer(self, ctx):
        obs = SimObserver()
        assert ctx.observer is None
        ctx.attach_observer(obs)
        assert ctx.observer is obs

    def test_second_observer_rejected(self, ctx):
        ctx.attach_observer(SimObserver())
        with pytest.raises(SimulationError, match="ObserverGroup"):
            ctx.attach_observer(SimObserver())

    def test_same_observer_reattach_ok(self, ctx):
        obs = SimObserver()
        ctx.attach_observer(obs)
        ctx.attach_observer(obs)
        assert ctx.observer is obs

    def test_detach(self, ctx):
        obs = SimObserver()
        ctx.attach_observer(obs)
        ctx.detach_observer()
        assert ctx.observer is None

    def test_detach_specific_other_is_noop(self, ctx):
        obs = SimObserver()
        ctx.attach_observer(obs)
        ctx.detach_observer(SimObserver())
        assert ctx.observer is obs


class TestHookCoverage:
    def test_all_hook_kinds_fire(self, ctx):
        counting = CountingObserver()
        _workload(ctx)
        ctx.attach_observer(counting)
        ctx.run()
        assert counting.activations > 0
        assert counting.suspensions == counting.activations
        assert counting.event_fires > 0
        assert counting.update_phases > 0     # signal writes
        assert counting.delta_cycles > 0
        assert counting.time_advances > 0     # timed waits

    def test_detached_observer_sees_nothing(self, ctx):
        counting = CountingObserver()
        _workload(ctx)
        ctx.attach_observer(counting)
        ctx.detach_observer()
        ctx.run()
        assert counting.total == 0
        assert counting.run_starvations == 0

    def test_instrumentation_off_reads_no_clock(self, ctx, monkeypatch):
        """With no observer the event loop never reads the host clock:
        the kernel module's ``time`` is replaced by a stub whose
        ``perf_counter`` raises.  (That it calls no hook either is
        ``test_detached_observer_sees_nothing``.)"""

        class NoClock:
            @staticmethod
            def perf_counter():
                raise AssertionError("perf_counter read with no observer")

        monkeypatch.setattr(context_module, "time", NoClock)
        _workload(ctx)
        ctx.run()
        assert ctx.now == ns(50)

    def test_observed_run_is_identical(self):
        """Instrumentation must not change simulation semantics."""
        plain = SimContext()
        _workload(plain)
        plain.run()

        observed = SimContext()
        _workload(observed)
        observed.attach_observer(CountingObserver())
        observed.run()

        assert observed.now == plain.now
        assert observed.delta_count == plain.delta_count

    def test_delta_counter_matches_kernel(self, ctx):
        counting = CountingObserver()
        _workload(ctx)
        ctx.attach_observer(counting)
        ctx.run()
        assert counting.delta_cycles == ctx.delta_count


class TestObserverGroup:
    def test_fans_out_to_all_children(self, ctx):
        a, b = CountingObserver(), CountingObserver()
        _workload(ctx)
        ctx.attach_observer(ObserverGroup(a, b))
        ctx.run()
        assert a.total > 0
        assert a.activations == b.activations
        assert a.delta_cycles == b.delta_cycles
        assert a.total == b.total

    def test_empty_group_is_harmless(self, ctx):
        _workload(ctx)
        ctx.attach_observer(ObserverGroup())
        ctx.run()
        assert ctx.now == ns(50)
