"""Seeded inputs of the benchmark's workloads.

A workload is a traffic regime.  Every run measures the same four
parts -- the serial CCATB exploration pass, the pooled warm-started
screening sweep, the flow levels and the CCATB-vs-RTL accuracy pass --
and the workload decides how busy the bus is in the parts that carry
bus traffic:

* ``sparse``: the E3 ``cpu_random`` mix.  The bus is idle at most
  submits (utilisation 0.15-0.31), so kernel scheduling, traffic
  masters and the CAM's master side do the work.  An idle-bus fast
  path in the CAM shows here.
* ``contended``: the E3 ``contended`` mix, three masters on one
  region (utilisation 0.5-0.92).  Arbitration is busy at nearly every
  submit, so an idle-bus fast path is bypassed and should change
  nothing here.

The flow pipeline carries no bus traffic mix of its own; both
workloads run it on the program's fixed test pattern
(``repro.apps.pipeline.generate_block``), :data:`FLOW_BLOCKS` blocks
per repetition.

Every other input the program receives is derived from the workload
seed: the same seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.explore import (
    ArchitectureConfig,
    BootSpec,
    DesignSpace,
    MasterTrafficSpec,
    standard_workloads,
)
from repro.kernel import ns, us

#: The E3 design space: 5 fabrics x 3 arbiters x 2 clocks x 2 bursts.
SPACE = DesignSpace(
    fabrics=("plb", "opb", "ahb", "generic", "crossbar"),
    arbiters=("static-priority", "round-robin", "tdma"),
    clock_periods=(ns(10), ns(5)),
    max_bursts=(2, 16),
)

#: Blocks per flow repetition, per level.  Fixed rather than seeded:
#: the per-block rate of a pipeline depends on its length (fill and
#: drain), so a seeded count would add spread without new coverage.
#: Sized so one repetition takes about 0.1 s of host time on a
#: 2-CPU container, so no level is a millisecond timing.
FLOW_BLOCKS = {
    "component-assembly": 800,
    "ccatb": 600,
    "cam": 80,
    "prototype": 16,
}

#: Transactions each master issues in a sweep point's measured phase
#: and in its boot phase (a screening stage runs short points).
SWEEP_MEASURED_TXNS = 60
SWEEP_BOOT_TXNS = 40
#: Boot horizon; every boot of the space finishes well before it.
SWEEP_BOOT_UNTIL = us(12)


@dataclass(frozen=True)
class Regime:
    """One workload: which E3 traffic mix drives the bus parts."""

    name: str
    #: ``standard_workloads()`` key of the bus traffic
    traffic: str
    #: largest idle gap, in bus cycles, between accuracy-plan requests
    accuracy_max_gap: int


REGIMES = {
    "sparse": Regime("sparse", "cpu_random", accuracy_max_gap=6),
    "contended": Regime("contended", "contended", accuracy_max_gap=1),
}


def rng_for(seed: int, part: str) -> random.Random:
    """The RNG of one part of a run (string seeds are process-stable)."""
    return random.Random(f"perfbench:{seed}:{part}")


def explore_specs(regime: Regime) -> List[MasterTrafficSpec]:
    """The E3 traffic mix of the serial exploration pass."""
    return list(standard_workloads()[regime.traffic])


def explore_configs(seed: int) -> List[ArchitectureConfig]:
    """The design space in a seeded order (one pass)."""
    configs = list(SPACE)
    rng_for(seed, "explore-order").shuffle(configs)
    return configs


def explore_point_seed(seed: int, index: int) -> int:
    """Traffic seed of the ``index``-th serial exploration point."""
    return rng_for(seed, f"explore-point-{index}").randrange(1, 2**31)


def sweep_specs_and_boot(regime: Regime) -> Tuple[list, BootSpec]:
    """Short measured specs plus a boot phase for the screening sweep."""
    base = standard_workloads()[regime.traffic]
    per_master = max(1, SWEEP_MEASURED_TXNS // len(base))
    specs = [
        MasterTrafficSpec(
            s.name, pattern=s.pattern, base=s.base, size=s.size,
            burst_length=s.burst_length, gap=s.gap,
            read_fraction=s.read_fraction, transactions=per_master,
            priority=s.priority, word_bytes=s.word_bytes,
        )
        for s in base
    ]
    boot = BootSpec(specs=tuple(
        MasterTrafficSpec(
            f"boot_{s.name}", pattern=s.pattern, base=s.base,
            size=s.size, burst_length=s.burst_length, gap=s.gap,
            read_fraction=s.read_fraction, transactions=SWEEP_BOOT_TXNS,
            priority=s.priority, word_bytes=s.word_bytes,
        )
        for s in base
    ), until=SWEEP_BOOT_UNTIL)
    return specs, boot


def sweep_seed(seed: int) -> int:
    """Traffic seed shared by every point of the screening sweep."""
    return rng_for(seed, "sweep").randrange(1, 2**31)


@dataclass(frozen=True)
class PlanRequest:
    """One request of an accuracy plan: idle gap, then the burst."""

    is_read: bool
    beats: int
    addr: int
    gap_cycles: int


@dataclass(frozen=True)
class AccuracyPlan:
    """Per-master request lists replayed on both bus models."""

    arbiter: str
    masters: Tuple[Tuple[PlanRequest, ...], ...]


#: Plans per accuracy pass; enough that the mean error steadies.
ACCURACY_PLANS = 600
#: Requests per master in one plan.
ACCURACY_REQUESTS = 12
#: Bytes of the memory the plans address.
ACCURACY_MEMORY = 1 << 13


def accuracy_plans(seed: int, regime: Regime) -> List[AccuracyPlan]:
    """Seeded contended multi-master plans (2-3 masters, zero gaps too)."""
    rng = rng_for(seed, "accuracy")
    plans = []
    for _ in range(ACCURACY_PLANS):
        masters = []
        for _ in range(rng.choice((2, 3))):
            requests = []
            for _ in range(ACCURACY_REQUESTS):
                beats = rng.randint(1, 8)
                addr = rng.randrange(0, ACCURACY_MEMORY - beats * 4, 4)
                requests.append(PlanRequest(
                    is_read=rng.random() < 0.5, beats=beats, addr=addr,
                    gap_cycles=rng.randint(0, regime.accuracy_max_gap),
                ))
            masters.append(tuple(requests))
        plans.append(AccuracyPlan(
            arbiter=rng.choice(("static-priority", "round-robin")),
            masters=tuple(masters),
        ))
    return plans
