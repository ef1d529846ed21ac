"""Pinned wire formats of the moment accumulators.

Checkpoints store ``TimeStats.__snapshot__()`` and worker telemetry
blobs carry ``HistogramMetric.snapshot()`` dicts merged through
``MetricsRegistry.merge``.  The literals below were recorded once and
are compared with exact float equality, so any change to the dict
layout or to the order of the float operations behind it fails here.
"""

from repro.obs import HistogramMetric, MetricsRegistry
from repro.trace import TimeStats

DURATIONS_FS = (10_000_000, 25_000_000, 7_500_000, 1_000_000_000, 0,
                333_333, 17)
LEFT = (3.5, 12.25, 7.0, 0.1, 99.9)
RIGHT = (41.0, 0.3, 5.125)

TIME_STATS_SNAPSHOT = {
    "count": 7,
    "mean": 148.97619285714285,
    "m2": 845424.0188434288,
    "minimum": 0.0,
    "maximum": 1000.0,
    "total": 1042.83335,
}

HISTOGRAM_SNAPSHOT = {
    "type": "histogram",
    "count": 5,
    "mean": 24.549999999999997,
    "stddev": 37.8888374062863,
    "min": 0.1,
    "max": 99.9,
    "total": 122.75,
}

MERGED_SNAPSHOT = {
    "worker.lat": {
        "type": "histogram",
        "count": 8,
        "mean": 21.146874999999998,
        "stddev": 32.25128979373344,
        "min": 0.1,
        "max": 99.9,
        "total": 169.175,
    },
    "worker.txn": {"type": "counter", "value": 8},
}


def test_time_stats_snapshot_format():
    stats = TimeStats()
    for fs in DURATIONS_FS:
        stats.add_fs(fs)
    assert stats.__snapshot__() == TIME_STATS_SNAPSHOT


def test_time_stats_restores_pinned_snapshot():
    stats = TimeStats()
    stats.__restore__(dict(TIME_STATS_SNAPSHOT))
    assert stats.__snapshot__() == TIME_STATS_SNAPSHOT
    assert stats.count == 7
    assert stats.mean_ns == 148.97619285714285
    assert stats.min_ns == 0.0
    assert stats.max_ns == 1000.0
    assert stats.total_ns == 1042.83335


def test_histogram_metric_snapshot_format():
    hist = HistogramMetric("lat")
    for value in LEFT:
        hist.observe(value)
    assert hist.snapshot() == HISTOGRAM_SNAPSHOT


def test_registry_merge_of_worker_snapshots():
    left, right = MetricsRegistry(), MetricsRegistry()
    for value in LEFT:
        left.histogram("lat").observe(value)
    for value in RIGHT:
        right.histogram("lat").observe(value)
    left.counter("txn").inc(5)
    right.counter("txn").inc(3)
    merged = MetricsRegistry()
    merged.merge(left.snapshot(), prefix="worker.")
    assert merged.snapshot()["worker.lat"] == HISTOGRAM_SNAPSHOT
    merged.merge(right.snapshot(), prefix="worker.")
    assert merged.snapshot() == MERGED_SNAPSHOT
