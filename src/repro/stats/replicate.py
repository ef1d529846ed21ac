"""Replicated runs with sequential stopping over the warm sweep pool.

A single simulation of a design point yields one number per objective —
a point estimate with no error bar, which makes close rankings noise.
:class:`ReplicatedRunner` fixes that: it derives R independent
replicate seeds from the point's content key
(:func:`repro.stats.seeds.replicate_seed`), runs the replicates through
an existing :class:`~repro.sweep.engine.SweepEngine` — so they shard
across the persistent warm worker pool and cache individually for free
— and pools the per-replicate objective values into a t-based
:class:`~repro.stats.estimate.MetricEstimate`.

:class:`ReplicationPolicy` adds the sequential stopping rule of the
form "replicate until the 95% CI half-width is within 2% of the mean,
capped at 8 replicates": each round runs one more replicate for every
point whose interval is still too wide, and every round batches *all*
active points' pending replicates into one ``engine.run()`` call so
the pool stays saturated.  Because each replicate's result is fully
deterministic (content-keyed seeds, canonical result round-trip), the
stopping decisions — and therefore the final replicate counts and
estimates — are bit-identical across pool sizes and cache states.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.stats.estimate import (
    DEFAULT_CONFIDENCE,
    MetricEstimate,
    estimate_from_samples,
)
from repro.stats.seeds import replicate_seed
from repro.sweep.engine import (
    OBJECTIVES,
    SweepEngine,
    SweepOutcome,
    objective_value,
)
from repro.sweep.points import SweepPoint


@dataclass(frozen=True)
class ReplicationPolicy:
    """How many replicates to run, and when to stop early.

    With ``ci_target=None`` (the default) every point runs exactly
    ``r_max`` replicates.  With a target set, every point starts at
    ``r_min`` replicates and grows one per round until the estimate's
    relative half-width at ``confidence`` is within ``ci_target``, or
    ``r_max`` is reached — whichever comes first.
    """

    r_min: int = 2
    r_max: int = 8
    ci_target: Optional[float] = None
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.r_min < 1:
            raise ValueError(f"r_min must be >= 1, got {self.r_min}")
        if self.r_max < self.r_min:
            raise ValueError(
                f"r_max ({self.r_max}) must be >= r_min ({self.r_min})"
            )
        if self.ci_target is not None and not self.ci_target > 0.0:
            raise ValueError(
                f"ci_target must be positive, got {self.ci_target}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )

    @property
    def fixed(self) -> bool:
        """True when no stopping rule applies (always run ``r_max``)."""
        return self.ci_target is None

    @property
    def initial_replicates(self) -> int:
        """Replicates the first round runs for every point."""
        return self.r_max if self.fixed else self.r_min


@dataclass
class ReplicatedOutcome:
    """One design point's pooled estimate plus its replicates.

    ``outcomes`` holds the individual replicate outcomes in replicate
    order — including quarantined ones (``result=None`` plus a
    ``failure`` record), which the estimate ignores; ``estimate``
    pools the successful replicates' objective values.  ``met_target``
    is False whenever the policy had no target (fixed replication) or
    the point hit ``r_max`` with the interval still too wide.
    """

    point: SweepPoint
    key: str
    objective: str
    outcomes: List[SweepOutcome]
    estimate: MetricEstimate
    met_target: bool = False

    @property
    def replicates(self) -> int:
        """How many replicates this point ran (attempts, not successes)."""
        return len(self.outcomes)

    @property
    def quarantined(self) -> int:
        """How many replicates ended quarantined instead of measured."""
        return sum(1 for o in self.outcomes if o.failed)

    @property
    def successes(self) -> int:
        """How many replicates produced a measurable result."""
        return len(self.outcomes) - self.quarantined

    @property
    def result(self):
        """The first successful replicate's result — the
        representative sample; None when every replicate quarantined."""
        for outcome in self.outcomes:
            if not outcome.failed:
                return outcome.result
        return None

    def values(self) -> List[float]:
        """Successful replicates' objective values, in replicate order."""
        return [objective_value(o.result, self.objective)
                for o in self.outcomes if not o.failed]

    def row(self) -> dict:
        """Deterministic report row for this replicated point.

        Only simulation-derived fields appear (no wall-clock times, no
        cache provenance), so rows are bit-identical across pool sizes,
        batch sizes, and cold/warm cache states.
        """
        est = self.estimate
        return {
            "config": self.point.config.name,
            "workload": self.point.workload,
            "objective": self.objective,
            "mean": est.mean,
            "half_width": est.half_width,
            "relative_half_width": est.relative_half_width,
            "confidence": est.confidence,
            "replicates": self.replicates,
            "quarantined": self.quarantined,
            "met_target": self.met_target,
            "stddev": est.stddev,
            "values": self.values(),
            "key": self.key,
        }


def ranked_replicated(
    outcomes: Sequence[ReplicatedOutcome],
    objective: str = "mean_latency_ns",
) -> List[ReplicatedOutcome]:
    """Replicated outcomes sorted best-first on the estimate's mean.

    Mirrors :func:`repro.sweep.engine.ranked`: the objective's
    direction decides the sign, ties break on the config cache key
    then the workload name so the ranking is total and reproducible,
    and points whose every replicate quarantined (no measurable value
    at all) are skipped — reports list them separately.
    """
    _, higher_better = OBJECTIVES[objective]
    sign = -1.0 if higher_better else 1.0
    return sorted(
        (o for o in outcomes if o.successes > 0),
        key=lambda o: (sign * o.estimate.mean,
                       o.point.config.cache_key(), o.point.workload),
    )


class ReplicatedRunner:
    """Runs design points as seed-replicated ensembles with CIs.

    The runner owns no pool and no cache — it drives the
    :class:`~repro.sweep.engine.SweepEngine` it is given, so replicates
    parallelize on the engine's warm workers and individual replicate
    results land in the engine's content-addressed store (a resumed
    sweep replays them for free).  Replicate points differ from the
    base point only in their derived seed.

    Metrics (optional :class:`repro.obs.MetricsRegistry`) appear under
    ``stats.*``: replicate counts, early-stop outcomes, and the latest
    pooled estimate per objective.
    """

    def __init__(self, engine: SweepEngine,
                 policy: Optional[ReplicationPolicy] = None,
                 metrics=None):
        self.engine = engine
        self.policy = policy if policy is not None else ReplicationPolicy()
        self.metrics = metrics
        #: replicate simulations requested by the most recent :meth:`run`
        self.last_replicates = 0
        #: rounds (engine.run calls) of the most recent :meth:`run`
        self.last_rounds = 0

    def replicate_point(self, point: SweepPoint, replicate: int,
                        base: Optional[str] = None) -> SweepPoint:
        """The concrete sweep point of one replicate.

        ``base`` overrides the seed-derivation base key; CRN pairing
        passes :func:`repro.stats.seeds.crn_pair_base` here so both
        sides of a comparison draw identical traffic.
        """
        base_key = point.key() if base is None else base
        return dataclasses.replace(
            point, seed=replicate_seed(base_key, replicate))

    def run(self, points: Sequence[SweepPoint],
            objective: str = "mean_latency_ns",
            bases: Optional[Sequence[str]] = None,
            ) -> List[ReplicatedOutcome]:
        """Replicate every point per the policy; outcomes in input order.

        Each round gathers the pending replicates of *every* still-
        active point into a single ``engine.run()`` call, so the warm
        pool works on the whole frontier at once instead of draining
        point by point.  ``bases`` (parallel to ``points``) overrides
        the per-point seed-derivation base keys — the CRN hook.

        Quarantined replicates (see :mod:`repro.sweep.recovery`) count
        as attempts toward ``r_max`` but contribute no value to the
        pooled estimate, so a poison seed narrows a point's sample —
        it never loops the study forever or aborts it.
        """
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; expected one of "
                f"{sorted(OBJECTIVES)}"
            )
        points = list(points)
        if bases is not None and len(bases) != len(points):
            raise ValueError(
                f"bases ({len(bases)}) must parallel points "
                f"({len(points)})"
            )
        base_keys = [
            p.key() if bases is None else bases[i]
            for i, p in enumerate(points)
        ]
        policy = self.policy
        reps: List[List[SweepOutcome]] = [[] for _ in points]
        active = list(range(len(points)))
        self.last_replicates = 0
        self.last_rounds = 0
        telemetry = getattr(self.engine, "telemetry", None)
        while active:
            batch: List[tuple] = []
            for i in active:
                want = (policy.initial_replicates if not reps[i]
                        else len(reps[i]) + 1)
                for r in range(len(reps[i]), want):
                    batch.append((i, r))
            batch_points = [
                self.replicate_point(points[i], r, base=base_keys[i])
                for i, r in batch
            ]
            if telemetry is not None:
                # Stamped onto the round's run-ledger record, so the
                # ledger shows which engine runs were replication
                # rounds and how wide the active frontier still was.
                telemetry.context["replication"] = {
                    "round": self.last_rounds + 1,
                    "replicates": len(batch),
                    "active_points": len(active),
                }
            for (i, _), outcome in zip(batch,
                                       self.engine.run(batch_points)):
                reps[i].append(outcome)
            self.last_replicates += len(batch)
            self.last_rounds += 1
            still_active = []
            for i in active:
                if policy.fixed:
                    if len(reps[i]) < policy.r_max:
                        still_active.append(i)
                    continue
                estimate = self._pooled(reps[i], objective)
                if (not estimate.meets(policy.ci_target)
                        and len(reps[i]) < policy.r_max):
                    still_active.append(i)
            active = still_active
        if telemetry is not None:
            telemetry.context.pop("replication", None)
            telemetry.record_replication({
                "points": len(points),
                "objective": objective,
                "replicates": self.last_replicates,
                "rounds": self.last_rounds,
                "quarantined": sum(
                    1 for outcomes in reps for o in outcomes if o.failed
                ),
                "r_min": policy.r_min,
                "r_max": policy.r_max,
                "ci_target": policy.ci_target,
            })

        results = []
        for i, point in enumerate(points):
            estimate = self._pooled(reps[i], objective)
            met = (not policy.fixed
                   and estimate.meets(policy.ci_target))
            results.append(ReplicatedOutcome(
                point=point, key=base_keys[i], objective=objective,
                outcomes=reps[i], estimate=estimate, met_target=met,
            ))
        self._publish(results, objective)
        return results

    def _pooled(self, outcomes: List[SweepOutcome],
                objective: str) -> MetricEstimate:
        """Pool one point's successful replicate values into a t-based
        estimate.

        Quarantined replicates contribute no value.  A point whose
        every replicate quarantined gets an honest "no data" estimate
        (NaN mean, one-sample infinite half-width) instead of raising,
        so one poison point cannot abort a whole replication study.
        """
        values = [objective_value(o.result, objective)
                  for o in outcomes if not o.failed]
        quarantined = len(outcomes) - len(values)
        return estimate_from_samples(
            values if values else [float("nan")],
            confidence=self.policy.confidence,
            method="replicates",
            diagnostics={"replicates": len(values),
                         "quarantined": quarantined},
        )

    def _publish(self, results: List[ReplicatedOutcome],
                 objective: str) -> None:
        """Publish run statistics into the attached metrics registry."""
        if self.metrics is None:
            return
        self.metrics.counter("stats.points_total").inc(len(results))
        self.metrics.counter("stats.replicates_total").inc(
            self.last_replicates)
        self.metrics.counter("stats.points_met_target").inc(
            sum(1 for r in results if r.met_target))
        if not self.policy.fixed:
            self.metrics.counter("stats.points_capped").inc(
                sum(1 for r in results if not r.met_target))
        quarantined = sum(r.quarantined for r in results)
        if quarantined:
            self.metrics.counter("stats.replicates_quarantined").inc(
                quarantined)
        summary = self.metrics.estimate(f"stats.estimate.{objective}")
        for outcome in results:
            if outcome.successes:
                summary.record(outcome.estimate)

    def __repr__(self) -> str:
        return (
            f"ReplicatedRunner(policy={self.policy!r}, "
            f"engine={self.engine!r})"
        )
