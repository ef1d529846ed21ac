"""Common-random-numbers paired comparison of two design points.

Ranking two configs by independently-seeded runs wastes most of the
replication budget on noise both configs share (the workload's random
addresses, gaps, and payloads).  Common random numbers removes that
shared noise: replicate ``r`` of config A and replicate ``r`` of
config B derive their seeds from the *same* base
(:func:`repro.stats.seeds.crn_pair_base`), so both simulate identical
traffic and the per-replicate differences ``A_r - B_r`` cancel the
workload variance.  The CI of the mean difference is then computed
from those paired differences — typically several times tighter than
the independent-seeds interval at the same replicate count, which is
exactly what the estimator self-tests and the benchmark's
``crn_variance_ratio`` record measure.

The substream discipline matters: every traffic master draws each
decision kind from its own ``(master, stream)`` RNG substream, so a
config that consumes fewer draws of one kind (say, clamped bursts
drawing fewer payload words) does not desynchronize every later
address and gap draw — with one shared RNG, "common" random numbers
would silently stop being common.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.stats.estimate import (
    DEFAULT_CONFIDENCE,
    MetricEstimate,
    estimate_from_samples,
)
from repro.stats.replicate import ReplicatedRunner, ReplicationPolicy
from repro.stats.seeds import crn_pair_base
from repro.sweep.engine import OBJECTIVES, SweepEngine
from repro.sweep.points import SweepPoint


@dataclass
class PairedComparison:
    """The outcome of one A-vs-B comparison.

    ``difference`` is the t-based estimate of ``mean(A) - mean(B)``
    computed over the per-replicate differences; with ``crn=True``
    those replicates shared traffic, without it they were independent.
    """

    point_a: SweepPoint
    point_b: SweepPoint
    objective: str
    estimate_a: MetricEstimate
    estimate_b: MetricEstimate
    difference: MetricEstimate
    crn: bool

    @property
    def significant(self) -> bool:
        """True when the difference CI excludes zero."""
        return not self.difference.covers(0.0)

    @property
    def better(self) -> Optional[str]:
        """Name of the significantly better config, or None.

        "Better" follows the objective's direction (lower latency
        wins, higher throughput wins); an interval straddling zero
        means the comparison is not yet resolved at this confidence.
        """
        if not self.significant:
            return None
        _, higher_better = OBJECTIVES[self.objective]
        a_wins = (self.difference.mean > 0.0) == higher_better
        winner = self.point_a if a_wins else self.point_b
        return winner.config.name

    def row(self) -> dict:
        """Deterministic report row (simulation-derived fields only)."""
        return {
            "config_a": self.point_a.config.name,
            "config_b": self.point_b.config.name,
            "objective": self.objective,
            "crn": self.crn,
            "mean_a": self.estimate_a.mean,
            "mean_b": self.estimate_b.mean,
            "difference": self.difference.mean,
            "difference_half_width": self.difference.half_width,
            "difference_stddev": self.difference.stddev,
            "replicates": self.difference.n,
            "significant": self.significant,
            "better": self.better,
        }


def paired_compare(
    engine: SweepEngine,
    point_a: SweepPoint,
    point_b: SweepPoint,
    objective: str = "mean_latency_ns",
    replicates: int = 8,
    confidence: float = DEFAULT_CONFIDENCE,
    crn: bool = True,
    metrics=None,
) -> PairedComparison:
    """Compare two design points replicate-by-replicate.

    Runs ``replicates`` replicates of each point through ``engine``
    (both points' replicates batch into the same pool dispatches) and
    reports the CI of the per-replicate difference.  ``crn=True``
    derives both sides' replicate seeds from the shared
    :func:`~repro.stats.seeds.crn_pair_base`, so replicate ``r`` of A
    and of B drive identical traffic; ``crn=False`` keeps the seeds
    independent — run both ways on the same pair to measure the
    variance reduction CRN buys.
    """
    if replicates < 2:
        raise ValueError(
            f"paired comparison needs >= 2 replicates, got {replicates}"
        )
    runner = ReplicatedRunner(
        engine,
        policy=ReplicationPolicy(r_min=replicates, r_max=replicates,
                                 confidence=confidence),
        metrics=metrics,
    )
    bases = None
    if crn:
        shared = crn_pair_base(point_a.key(), point_b.key())
        bases = [shared, shared]
    outcome_a, outcome_b = runner.run(
        [point_a, point_b], objective=objective, bases=bases,
    )
    values_a = outcome_a.values()
    values_b = outcome_b.values()
    differences = [a - b for a, b in zip(values_a, values_b)]
    method = "paired-crn" if crn else "paired-independent"
    difference = estimate_from_samples(
        differences, confidence=confidence, method=method,
        diagnostics={"replicates": len(differences)},
    )
    if metrics is not None:
        metrics.estimate(f"stats.difference.{objective}").record(
            difference)
    return PairedComparison(
        point_a=point_a, point_b=point_b, objective=objective,
        estimate_a=outcome_a.estimate, estimate_b=outcome_b.estimate,
        difference=difference, crn=crn,
    )
