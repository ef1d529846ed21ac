"""Streaming statistics used by bus monitors and the exploration engine.

Everything here is *online* (O(1) memory per statistic) so monitors can be
left attached during long architecture-exploration sweeps without
accumulating per-sample storage — except :class:`Histogram`, which uses a
fixed bin array.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.kernel.simtime import FS_PER_NS, SimTime, ZERO_TIME


class OnlineStats:
    """Welford-style running count/mean/variance with min/max."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum", "total")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.total = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the running moments."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Running mean (0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def sample_variance(self) -> float:
        """Unbiased (n-1) sample variance; 0 below two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def sample_stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.sample_variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean (sample stddev / sqrt(n))."""
        if self.count < 2:
            return 0.0
        return self.sample_stddev / math.sqrt(self.count)

    def confidence_interval(
        self, confidence: float = 0.95,
    ) -> Tuple[float, float]:
        """Two-sided t-based CI for the mean at ``confidence``.

        Because the moments merge exactly (:meth:`merge` is Chan's
        parallel algorithm), the interval computed from a merged
        statistic equals the one computed over the combined stream —
        the merge-safe CI the replicated sweep runner pools on.  Below
        two samples the interval is unbounded.
        """
        if self.count < 2:
            return (-math.inf, math.inf)
        # Lazy import: repro.stats builds on this module, so the
        # t-quantile lookup must not be a module-level dependency.
        from repro.stats.estimate import t_quantile

        half = t_quantile(
            0.5 + confidence / 2.0, self.count - 1) * self.sem
        return (self.mean - half, self.mean + half)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two statistics (Chan's parallel algorithm)."""
        merged = OnlineStats()
        n = self.count + other.count
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged.count = n
        merged.total = self.total + other.total
        merged._mean = self._mean + delta * other.count / n
        merged._m2 = (
            self._m2 + other._m2
            + delta * delta * self.count * other.count / n
        )
        mins = [m for m in (self.minimum, other.minimum) if m is not None]
        maxs = [m for m in (self.maximum, other.maximum) if m is not None]
        merged.minimum = min(mins) if mins else None
        merged.maximum = max(maxs) if maxs else None
        return merged

    def __snapshot__(self) -> dict:
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "total": self.total,
        }

    def __restore__(self, state: dict) -> None:
        self.count = state["count"]
        self._mean = state["mean"]
        self._m2 = state["m2"]
        self.minimum = state["minimum"]
        self.maximum = state["maximum"]
        self.total = state["total"]

    def __repr__(self) -> str:
        return (
            f"OnlineStats(n={self.count}, mean={self.mean:.4g}, "
            f"std={self.stddev:.4g}, min={self.minimum}, max={self.maximum})"
        )


class TimeStats:
    """OnlineStats over :class:`SimTime` samples (stored as ns floats)."""

    __slots__ = ("_stats",)

    def __init__(self):
        self._stats = OnlineStats()

    def add(self, duration: SimTime) -> None:
        """Fold one duration into the statistics."""
        self.add_fs(duration._fs)

    def add_fs(self, femtoseconds: int) -> None:
        """:meth:`add` for a duration in integer femtoseconds."""
        self._stats.add(femtoseconds / FS_PER_NS)

    @property
    def count(self) -> int:
        """Number of samples."""
        return self._stats.count

    @property
    def mean_ns(self) -> float:
        """Mean duration in nanoseconds."""
        return self._stats.mean

    @property
    def min_ns(self) -> float:
        """Minimum duration in nanoseconds."""
        return self._stats.minimum or 0.0

    @property
    def max_ns(self) -> float:
        """Maximum duration in nanoseconds."""
        return self._stats.maximum or 0.0

    @property
    def stddev_ns(self) -> float:
        """Standard deviation in nanoseconds."""
        return self._stats.stddev

    @property
    def total_ns(self) -> float:
        """Summed duration in nanoseconds."""
        return self._stats.total

    def __snapshot__(self) -> dict:
        return self._stats.__snapshot__()

    def __restore__(self, state: dict) -> None:
        self._stats.__restore__(state)

    def __repr__(self) -> str:
        return (
            f"TimeStats(n={self.count}, mean={self.mean_ns:.2f} ns, "
            f"max={self.max_ns:.2f} ns)"
        )


class Histogram:
    """Fixed-width histogram with under/overflow bins."""

    def __init__(self, low: float, high: float, bins: int = 20):
        if high <= low:
            raise ValueError(f"histogram bounds inverted: [{low}, {high})")
        if bins < 1:
            raise ValueError("histogram needs at least one bin")
        self.low = low
        self.high = high
        self.bins = bins
        self.counts: List[int] = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self._width = (high - low) / bins

    def add(self, value: float) -> None:
        """Bin one sample (under/overflow counted)."""
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            # The division can round up to ``bins`` for values one ulp
            # below ``high`` when the bin width itself rounded down;
            # clamp instead of raising IndexError.
            index = int((value - self.low) / self._width)
            self.counts[min(index, self.bins - 1)] += 1

    @property
    def total(self) -> int:
        """All samples including under/overflow."""
        return sum(self.counts) + self.underflow + self.overflow

    def bin_edges(self) -> List[Tuple[float, float]]:
        """The ``(low, high)`` edges of every bin."""
        return [
            (self.low + i * self._width, self.low + (i + 1) * self._width)
            for i in range(self.bins)
        ]

    def __snapshot__(self) -> dict:
        return {
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    def __restore__(self, state: dict) -> None:
        self.counts = list(state["counts"])
        self.underflow = state["underflow"]
        self.overflow = state["overflow"]

    def quantile(self, q: float) -> float:
        """Approximate quantile from binned data (midpoint rule)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        target = q * self.total
        seen = self.underflow
        if seen >= target:
            return self.low
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= target:
                return self.low + (i + 0.5) * self._width
        return self.high


class ThroughputMeter:
    """Accumulates byte/transaction counts over simulated time."""

    def __init__(self):
        self.bytes = 0
        self.transactions = 0
        self.start_time: Optional[SimTime] = None
        self.end_time: Optional[SimTime] = None

    def record(self, now: SimTime, nbytes: int) -> None:
        """Account one transfer at simulated time ``now``."""
        if self.start_time is None:
            self.start_time = now
        self.end_time = now
        self.bytes += nbytes
        self.transactions += 1

    @property
    def elapsed(self) -> SimTime:
        """Simulated time between first and last transfer."""
        if self.start_time is None or self.end_time is None:
            return ZERO_TIME
        return self.end_time - self.start_time

    def __snapshot__(self) -> dict:
        return {
            "bytes": self.bytes,
            "transactions": self.transactions,
            "start_fs": None if self.start_time is None
            else self.start_time._fs,
            "end_fs": None if self.end_time is None else self.end_time._fs,
        }

    def __restore__(self, state: dict) -> None:
        self.bytes = state["bytes"]
        self.transactions = state["transactions"]
        start, end = state["start_fs"], state["end_fs"]
        self.start_time = None if start is None else SimTime._from_fs(start)
        self.end_time = None if end is None else SimTime._from_fs(end)

    def bytes_per_second(self) -> float:
        """Byte rate over the active window."""
        elapsed_s = self.elapsed.to("sec")
        return self.bytes / elapsed_s if elapsed_s > 0 else 0.0

    def transactions_per_second(self) -> float:
        """Transfer rate over the active window."""
        elapsed_s = self.elapsed.to("sec")
        return self.transactions / elapsed_s if elapsed_s > 0 else 0.0


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the standard summary for speedup ratios."""
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
