"""Built-in instrument wiring: FIFOs, recorders, and channel throughput.

Helpers that connect existing model objects to a
:class:`~repro.obs.metrics.MetricsRegistry` without the models importing
the observability layer themselves.  The bus CAMs and the OCP pin
monitor take a ``metrics`` constructor argument directly; for everything
else these functions retrofit instruments onto live objects.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry, TimeWeightedGauge


def watch_fifo(fifo, registry: MetricsRegistry,
               name: Optional[str] = None) -> TimeWeightedGauge:
    """Publish ``fifo``'s occupancy as a time-weighted gauge.

    The kernel FIFO samples the gauge from its update phase, so the
    gauge's :meth:`~repro.obs.metrics.TimeWeightedGauge.mean` is the
    exact average occupancy over simulated time.  Returns the gauge.
    """
    gauge = registry.time_weighted(
        name or f"fifo.{fifo.full_name}.occupancy"
    )
    gauge.set_at(fifo.num_available(), fifo.ctx._now_fs)
    fifo._occupancy_gauge = gauge
    return gauge


def watch_recorder(recorder, registry: MetricsRegistry,
                   prefix: str = "trace") -> None:
    """Publish a recorder's stream as throughput counters.

    Subscribes to a :class:`~repro.trace.transaction.TransactionRecorder`
    and accumulates ``{prefix}.transactions``, ``{prefix}.bytes`` and a
    ``{prefix}.latency_ns`` histogram, plus a per-kind transaction
    counter ``{prefix}.kind.<kind>`` — the one recorder-to-registry
    wiring, used for the OCP/SHIP channel throughput instrument.
    """
    txns = registry.counter(f"{prefix}.transactions")
    nbytes = registry.counter(f"{prefix}.bytes")
    latency = registry.histogram(f"{prefix}.latency_ns")

    def listener(rec):
        txns.inc()
        nbytes.inc(rec.nbytes)
        latency.observe(rec.latency.to("ns"))
        registry.counter(f"{prefix}.kind.{rec.kind}").inc()

    recorder.subscribe(listener)
