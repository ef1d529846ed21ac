"""Tests for the persistent warm-worker sweep runtime.

Pins the properties the perf work relies on: the pool spawns once and
is reused across ``SweepEngine.run()`` calls (zero new processes on a
warm second run), batched shards produce bit-identical results to the
inline path for every worker count / batch size combination,
``workers="auto"`` resolves to the CPU count, multi-stage strategies
share one pool, and pool lifecycle (close, respawn, metrics) behaves.
"""

import os
from dataclasses import replace

import pytest

from repro.kernel import ns, us
from repro.explore import (
    BootSpec,
    DesignSpace,
    MasterTrafficSpec,
    run_payload_batch,
)
from repro.sweep import (
    SuccessiveHalving,
    SweepEngine,
    SweepStore,
    WorkerPool,
    points_for_space,
    ranked,
    resolve_workers,
)


def small_specs(transactions=8):
    """A tiny two-master workload that keeps each point fast."""
    return (
        MasterTrafficSpec("cpu", pattern="random", base=0x0,
                          size=1 << 12, burst_length=1, gap=ns(50),
                          transactions=transactions, priority=0),
        MasterTrafficSpec("dma", pattern="stream", base=0x1000,
                          size=1 << 12, burst_length=8, gap=ns(80),
                          transactions=transactions, priority=1),
    )


def small_points(transactions=8):
    space = DesignSpace(fabrics=("plb", "generic"),
                        arbiters=("static-priority", "round-robin"))
    return points_for_space(space, small_specs(transactions),
                            workload="w", max_sim_time=us(2_000))


def det_rows(outcomes):
    return [o.row() for o in outcomes]


class TestResolveWorkers:
    def test_none_means_serial(self):
        assert resolve_workers(None) == 1

    def test_auto_resolves_to_cpu_count(self):
        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)
        assert resolve_workers(" AUTO ") == max(1, os.cpu_count() or 1)

    def test_numeric_strings_and_floors(self):
        assert resolve_workers("3") == 3
        assert resolve_workers(0) == 1
        assert resolve_workers(-2) == 1

    def test_engine_accepts_auto(self):
        engine = SweepEngine(workers="auto")
        assert engine.workers == max(1, os.cpu_count() or 1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestWarmPoolReuse:
    def test_second_run_spawns_zero_new_processes(self):
        points = small_points()
        with SweepEngine(workers=2) as engine:
            assert engine.pool_spawns == 0  # lazy: nothing spawned yet
            first = engine.run(points)
            assert engine.pool_spawns == 2
            pids = sorted(engine.pool_pids())
            assert len(pids) == 2
            second = engine.run(points)
            # the acceptance gate: a warm second run reuses the exact
            # same processes — zero new spawns, identical PIDs
            assert engine.pool_spawns == 2
            assert sorted(engine.pool_pids()) == pids
            assert engine.pool_reuses == 1
            assert det_rows(first) == det_rows(second)

    def test_close_then_run_spawns_a_fresh_generation(self):
        points = small_points()
        engine = SweepEngine(workers=2)
        baseline = det_rows(engine.run(points))
        engine.close()
        assert engine.pool_pids() == []
        again = engine.run(points)  # engine stays usable after close
        assert engine.pool_spawns == 2  # new pool counts its own spawns
        assert det_rows(again) == baseline
        engine.close()

    def test_close_is_idempotent(self):
        engine = SweepEngine(workers=2)
        engine.close()
        engine.close()

    def test_serial_engine_never_spawns(self):
        engine = SweepEngine(workers=1)
        engine.run(small_points())
        assert engine.pool_spawns == 0
        assert engine.pool is None
        assert engine.dispatch_overhead_s() == 0.0

    def test_single_pending_point_stays_inline(self):
        engine = SweepEngine(workers=4)
        engine.run(small_points()[:1])
        assert engine.pool_spawns == 0
        assert engine.last_batches == 0
        engine.close()


class TestBatching:
    def test_oversubscribe_controls_batch_count(self):
        points = small_points()  # 4 points
        with SweepEngine(workers=2, oversubscribe=1) as engine:
            coarse = engine.run(points)
            assert engine.last_batches == 2  # ceil(4 / (2*1)) = 2 each
        with SweepEngine(workers=2, oversubscribe=4) as engine:
            fine = engine.run(points)
            assert engine.last_batches == 4  # batch size floors at 1
        assert det_rows(coarse) == det_rows(fine)

    def test_batch_size_never_changes_results(self):
        points = small_points()
        inline = det_rows(ranked(SweepEngine(workers=1).run(points)))
        for workers, oversubscribe in ((2, 1), (2, 4), (4, 2)):
            with SweepEngine(workers=workers,
                             oversubscribe=oversubscribe) as engine:
                assert (det_rows(ranked(engine.run(points)))
                        == inline)

    def test_oversubscribe_validation(self):
        with pytest.raises(ValueError, match="oversubscribe"):
            SweepEngine(workers=2, oversubscribe=0)

    def test_worker_batch_entry_point_matches_inline(self):
        # the pool's worker-side entry must canonicalize identically
        # to the reference decoder (modulo wall clock, which is the
        # one field that legitimately differs between two runs) —
        # including a point with a boot phase
        from repro.sweep.engine import _compute_payload

        def scrub(result):
            return {k: v for k, v in result.items()
                    if k != "wall_seconds"}

        specs = small_specs()
        boot = BootSpec(specs=(replace(specs[0], name="boot_cpu",
                                       transactions=4),),
                        until=us(1))
        points = small_points()[:2]
        points.append(replace(points[0], boot=boot))
        payloads = [p.to_payload() for p in points]
        results, blob = run_payload_batch(payloads)
        assert blob is None
        assert ([scrub(r) for r in results]
                == [scrub(_compute_payload(p)) for p in payloads])


class TestPoolDirect:
    def test_run_batches_restores_order(self):
        payloads = [p.to_payload() for p in small_points()]
        with WorkerPool(workers=2) as pool:
            batches = [payloads[:1], payloads[1:3], payloads[3:]]
            results, blobs, _ = pool.run_batches(batches)
            assert blobs == []
            assert [len(b) for b in results] == [1, 2, 1]
            flat = [r for batch in results for r in batch]
            # order-restored: config names line up with the inputs
            assert ([r["config"]["fabric"] for r in flat]
                    == [p["config"]["fabric"] for p in payloads])
            assert pool.batches_dispatched == 3
            assert pool.points_dispatched == 4

    def test_ping_measures_nonnegative_dispatch_latency(self):
        with WorkerPool(workers=2) as pool:
            overhead = pool.ping()
            assert 0.0 <= overhead < 5.0

    def test_ping_records_per_worker_latency_in_stats(self):
        with WorkerPool(workers=2) as pool:
            pool.ping()
            assert sorted(pool.ping_latencies) == [0, 1]
            assert all(0.0 <= v < 5.0
                       for v in pool.ping_latencies.values())
            stats = pool.stats()
            assert sorted(stats["ping_latency_s"]) == ["0", "1"]
            assert stats["workers"] == 2
            assert stats["generation"] == 1
            assert stats["spawned"] == 2

    def test_spawn_count_survives_close(self):
        pool = WorkerPool(workers=2)
        pool.ensure_started()
        assert pool.spawn_count == 2
        pool.close()
        assert not pool.started
        pool.ensure_started()
        assert pool.spawn_count == 4  # second generation counted
        pool.close()


class TestStrategiesShareThePool:
    def test_successive_halving_reuses_one_pool_across_stages(self):
        space = DesignSpace(
            fabrics=("plb", "opb", "generic", "crossbar"),
            arbiters=("static-priority",),
        )
        search = SuccessiveHalving(space, small_specs(transactions=8),
                                   workload="w",
                                   max_sim_time=us(5_000), eta=2)
        with SweepEngine(workers=2) as engine:
            search.run(engine)
            # screen stage spawned the pool; the finals stage (and any
            # later run) reused it instead of respawning
            assert engine.pool_spawns == 2
            assert engine.pool_reuses == 1

    def test_grid_then_grid_on_one_engine_reuses(self, tmp_path):
        points = small_points()
        store = SweepStore(tmp_path / "cache")
        with SweepEngine(workers=2, store=store) as engine:
            engine.run(points)
            spawned = engine.pool_spawns
            engine.run(points, rerun=True)
            assert engine.pool_spawns == spawned
            assert engine.pool_reuses == 1


class TestPoolMetrics:
    def test_pool_reuse_and_batch_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        points = small_points()
        with SweepEngine(workers=2, metrics=registry) as engine:
            engine.run(points)
            engine.run(points)
        snapshot = registry.snapshot()
        assert snapshot["sweep.pool_reuses"]["value"] == 1
        assert snapshot["sweep.batches"]["value"] == engine.last_batches * 2
        assert snapshot["sweep.points_computed"]["value"] == 2 * len(points)

    def test_inline_runs_do_not_count_reuses(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        points = small_points()
        engine = SweepEngine(workers=1, metrics=registry)
        engine.run(points)
        engine.run(points)
        snapshot = registry.snapshot()
        assert "sweep.pool_reuses" not in snapshot or (
            snapshot["sweep.pool_reuses"]["value"] == 0)


class TestCliWorkersAuto:
    def test_parser_accepts_auto_and_counts(self):
        from repro.sweep.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["--workers", "auto"]).workers == "auto"
        assert parser.parse_args(["--workers", "3"]).workers == 3

    def test_parser_rejects_garbage(self, capsys):
        from repro.sweep.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--workers", "lots"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--workers", "0"])
        capsys.readouterr()
