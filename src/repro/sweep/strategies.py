"""Search strategies over a communication-architecture design space.

Three ways to spend a simulation budget, all driving the same
:class:`~repro.sweep.engine.SweepEngine` (and therefore all sharing its
worker pool and result cache):

* :class:`GridSearch` — exhaustive: every config in the space.
* :class:`RandomSearch` — seeded uniform sampling without replacement;
  the classic cheap baseline when the space outgrows exhaustive sweeps.
* :class:`SuccessiveHalving` — early-stop screening: every config runs
  a shortened workload first, only the top ``1/eta`` survivors re-run
  at full length.  Because screened and full-length runs have different
  content keys, both stages cache independently — and because both
  stages drive the *same* engine, the finals stage reuses the warm
  worker pool the screen spawned instead of paying process startup
  twice (visible as ``engine.pool_reuses`` / the ``sweep.pool_reuses``
  metric).

Every strategy is deterministic for a given seed and returns outcomes
ranked best-first on the chosen objective.

Every strategy also accepts an optional ``replication`` policy
(:class:`repro.stats.ReplicationPolicy`): the points that produce the
final ranking then run as seed-replicated ensembles through
:class:`repro.stats.ReplicatedRunner` — same engine, same warm pool —
and ``run()`` returns :class:`repro.stats.ReplicatedOutcome` objects
ranked by their CI-backed estimates instead of bare single-run
outcomes.  :class:`SuccessiveHalving` keeps its screening stage
single-run (screening is triage, not measurement) and replicates only
the finalists.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.kernel.simtime import SimTime
from repro.explore.runner import FaultSpec
from repro.explore.workload import MasterTrafficSpec
from repro.sweep.engine import SweepEngine, SweepOutcome, ranked
from repro.sweep.points import SweepPoint, points_for_space


def _run_replicated(engine: SweepEngine, points, objective: str,
                    replication):
    """Replicate ``points`` per ``replication`` and rank by estimate.

    The import is deferred so :mod:`repro.sweep` stays importable
    without :mod:`repro.stats` on the path of every plain sweep (and
    the two packages avoid a module-level import cycle).
    """
    from repro.stats.replicate import ReplicatedRunner, ranked_replicated

    runner = ReplicatedRunner(engine, policy=replication,
                              metrics=engine.metrics)
    return ranked_replicated(runner.run(points, objective=objective),
                             objective)


class GridSearch:
    """Exhaustive sweep: one point per config in the space."""

    def __init__(self, space, specs: Sequence[MasterTrafficSpec],
                 workload: str = "workload",
                 max_sim_time: Optional[SimTime] = None,
                 seed: int = 1, faults: Optional[FaultSpec] = None,
                 boot=None):
        self.points = points_for_space(
            space, specs, workload=workload, max_sim_time=max_sim_time,
            seed=seed, faults=faults, boot=boot,
        )

    def run(self, engine: SweepEngine,
            objective: str = "mean_latency_ns",
            replication=None) -> List[SweepOutcome]:
        """Run every point; return outcomes ranked best-first.

        With a ``replication`` policy every point runs as a replicated
        ensemble and the ranking is by CI-backed estimate.
        """
        if replication is not None:
            return _run_replicated(engine, self.points, objective,
                                   replication)
        return ranked(engine.run(self.points), objective)


class RandomSearch:
    """Seeded random sampling (without replacement) from the space."""

    def __init__(self, space, specs: Sequence[MasterTrafficSpec],
                 samples: int, workload: str = "workload",
                 max_sim_time: Optional[SimTime] = None,
                 seed: int = 1, faults: Optional[FaultSpec] = None,
                 boot=None):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        configs = list(space)
        if samples < len(configs):
            # String seeding for cross-process stability, matching the
            # traffic generator's convention.
            rng = random.Random(f"sweep-random:{seed}")
            configs = rng.sample(configs, samples)
        self.points = points_for_space(
            configs, specs, workload=workload, max_sim_time=max_sim_time,
            seed=seed, faults=faults, boot=boot,
        )

    def run(self, engine: SweepEngine,
            objective: str = "mean_latency_ns",
            replication=None) -> List[SweepOutcome]:
        """Run the sampled points; return outcomes ranked best-first.

        With a ``replication`` policy every sampled point runs as a
        replicated ensemble and the ranking is by CI-backed estimate.
        """
        if replication is not None:
            return _run_replicated(engine, self.points, objective,
                                   replication)
        return ranked(engine.run(self.points), objective)


class SuccessiveHalving:
    """Screen on a short workload, re-run the best at full length.

    Every config first simulates with each spec's transaction count
    scaled down to ``screen_fraction``; the top ``ceil(n / eta)`` by
    the objective then re-run the full workload.  The final ranking
    comes only from full-length runs, so early stopping never distorts
    the reported numbers — it only prunes who earns a full run.
    """

    def __init__(self, space, specs: Sequence[MasterTrafficSpec],
                 workload: str = "workload",
                 max_sim_time: Optional[SimTime] = None,
                 seed: int = 1, faults: Optional[FaultSpec] = None,
                 eta: int = 2, screen_fraction: float = 0.25,
                 boot=None):
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if not 0.0 < screen_fraction <= 1.0:
            raise ValueError("screen_fraction must be in (0, 1]")
        self.eta = eta
        self.screen_fraction = screen_fraction
        self.full_points = points_for_space(
            space, specs, workload=workload, max_sim_time=max_sim_time,
            seed=seed, faults=faults, boot=boot,
        )
        short_specs = tuple(s.scaled(screen_fraction) for s in specs)
        self.screen_points = [
            SweepPoint(
                config=p.config, specs=short_specs, workload=p.workload,
                max_sim_time=p.max_sim_time, seed=p.seed, faults=p.faults,
                memory_read_wait=p.memory_read_wait,
                memory_write_wait=p.memory_write_wait,
                record_series=p.record_series,
                boot=p.boot,
            )
            for p in self.full_points
        ]
        #: screening-stage outcomes of the most recent :meth:`run`
        self.last_screen: List[SweepOutcome] = []

    def run(self, engine: SweepEngine,
            objective: str = "mean_latency_ns",
            replication=None) -> List[SweepOutcome]:
        """Screen, prune to the top ``1/eta``, re-run them in full.

        Both stages run on ``engine`` — one engine, one warm pool: the
        finals dispatch onto the workers the screen already spawned.
        With a ``replication`` policy the screening stage stays
        single-run (it only decides who survives) and the finalists
        run as replicated ensembles ranked by CI-backed estimate.
        When the engine has telemetry attached, the stages tag their
        run-ledger records ``screen`` and ``finals`` respectively.
        """
        telemetry = getattr(engine, "telemetry", None)
        prior_phase = telemetry.phase if telemetry is not None else None
        try:
            if telemetry is not None:
                telemetry.phase = "screen"
            self.last_screen = ranked(engine.run(self.screen_points),
                                      objective)
            survivors = max(1, math.ceil(len(self.last_screen)
                                         / self.eta))
            keep = {
                o.point.config.cache_key()
                for o in self.last_screen[:survivors]
            }
            finalists = [
                p for p in self.full_points
                if p.config.cache_key() in keep
            ]
            if telemetry is not None:
                telemetry.phase = "finals"
            if replication is not None:
                return _run_replicated(engine, finalists, objective,
                                       replication)
            return ranked(engine.run(finalists), objective)
        finally:
            if telemetry is not None:
                telemetry.phase = prior_phase
