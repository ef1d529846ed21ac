"""Host-cost budget of a CCATB transaction, counted in Python calls.

CCATB models are there to make communication-architecture exploration
fast, and on CPython the cost of one simulated bus transaction is
mostly the Python functions it calls: kernel dispatches and wakes, the
traffic master, the bus process, the arbiter and the slave.  This test
profiles a fixed handful of E3 design points and counts the calls of
functions whose code lives in ``src/repro``, per completed transaction.

Wall time is too noisy to gate on a shared machine; a call count is
exact and moves only when the code does.  Built-ins and the standard
library are left out, so the count does not move with their internals
either (CPython 3.12 inlines comprehensions, so it counts a few percent
fewer frames than 3.10 and 3.11).  The bounds are the figures measured
on CPython 3.11 plus 5 % headroom; a change that needs more calls per
transaction must say why and raise them on purpose.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

import repro
from repro.explore import ArchitectureConfig, run_point, standard_workloads
from repro.kernel import ns

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: One point per fabric, with every arbiter and both clocks and burst
#: limits of the E3 space among them.
POINTS = (
    ArchitectureConfig("plb", "static-priority", ns(10), 16),
    ArchitectureConfig("opb", "round-robin", ns(5), 2),
    ArchitectureConfig("ahb", "tdma", ns(10), 2),
    ArchitectureConfig("generic", "static-priority", ns(5), 16),
    ArchitectureConfig("crossbar", "round-robin", ns(10), 16),
)

#: Upper bound on ``src/repro`` calls per transaction, per workload.
BUDGET = {
    "cpu_random": 43.0,  # 40.95 measured
    "contended": 40.0,  # 38.10 measured
}


def repro_calls_per_transaction(workload: str) -> float:
    """``src/repro`` calls per completed transaction over :data:`POINTS`
    (each point built and run by ``run_point``, as a sweep does)."""
    specs = standard_workloads()[workload]
    profile = cProfile.Profile()
    transactions = 0
    for seed, config in enumerate(POINTS, start=1):
        profile.enable()
        result = run_point(config, specs, seed=seed)
        profile.disable()
        transactions += sum(m.completed for m in result.masters)
    calls = sum(
        counts[1]
        for (filename, _, _), counts in pstats.Stats(profile).stats.items()
        if os.path.abspath(filename).startswith(_SRC)
    )
    return calls / transactions


@pytest.mark.parametrize("workload", sorted(BUDGET))
def test_calls_per_transaction_within_budget(workload):
    measured = repro_calls_per_transaction(workload)
    assert measured <= BUDGET[workload], (
        f"{workload}: {measured:.2f} src/repro calls per transaction, "
        f"budget {BUDGET[workload]}"
    )
