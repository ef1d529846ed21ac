"""``repro.trace`` — waveform tracing, transaction recording, statistics.

* :class:`VcdTracer` dumps signal changes to IEEE 1364 VCD files.
* :class:`TransactionRecorder` captures completed TLM transactions with
  timestamps, sizes and attributes; the exploration and accuracy
  experiments are built on its output.  To publish its stream into a
  metrics registry, use :func:`repro.obs.watch_recorder`.
* :mod:`repro.trace.stats` holds the one streaming moment accumulator,
  :class:`OnlineStats` (Welford mean/variance, min/max, total, exact
  merge), and :class:`TimeStats`, its view over simulated durations.
"""

from repro.trace.stats import OnlineStats, TimeStats
from repro.trace.transaction import TransactionRecord, TransactionRecorder
from repro.trace.vcd import VcdTracer, VcdWriter

__all__ = [
    "OnlineStats",
    "TimeStats",
    "TransactionRecord",
    "TransactionRecorder",
    "VcdTracer",
    "VcdWriter",
]
