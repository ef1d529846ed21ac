"""Synthetic traffic generation for architecture exploration.

Real exploration runs replay application traffic; the paper has no
public traces, so the workload generator produces the classic
patterns communication-architecture studies sweep (and experiment E3
uses): streaming DMA, random CPU-like access, and request/response
ping-pong.  Generation is fully deterministic per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional

from repro.kernel.errors import SimulationError
from repro.kernel.module import Module
from repro.kernel.simtime import FS_PER_NS, SimTime, ns
from repro.ocp.types import OcpCmd, OcpRequest, OcpResp
from repro.trace.stats import TimeStats

#: Supported traffic patterns.
PATTERNS = ("stream", "random", "pingpong")

#: RNG substream names a traffic master draws from, in the order they
#: exist: addresses, read/write coin flips, inter-transaction gaps,
#: write payload words.  Keeping each decision on its own stream is
#: what makes common-random-numbers work across design points — a
#: config that clamps bursts (consuming fewer data words) no longer
#: desynchronizes the address and gap draws of every later
#: transaction.
SUBSTREAMS = ("addr", "rw", "gap", "data")


def _rng_json(rng: random.Random) -> list:
    """JSON-able encoding of ``Random.getstate()`` (tuple -> lists)."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _rng_from_json(payload) -> tuple:
    """Inverse of :func:`_rng_json` (lists -> the setstate tuple)."""
    version, internal, gauss = payload
    return (version, tuple(internal), gauss)


def substream_seed(seed: int, master: str, stream: str) -> str:
    """Canonical seed string of one ``(master, stream)`` RNG substream.

    Seed with a string, not a tuple hash: str/bytes seeding is stable
    across interpreter processes, while ``tuple.__hash__`` includes the
    PYTHONHASHSEED-salted string hash and silently breaks cross-process
    reproducibility.  The exact format is a compatibility contract
    pinned by tests, like ``cache_key()``: changing it changes every
    simulated traffic draw.
    """
    if stream not in SUBSTREAMS:
        raise ValueError(
            f"unknown substream {stream!r}; expected one of {SUBSTREAMS}"
        )
    return f"{seed}:{master}:{stream}"


class _Substream:
    """One ``(master, stream)`` RNG of a :class:`TrafficMaster`, seeded
    on first use.

    String seeding (a SHA-512 of the seed, then a Mersenne Twister
    fill) is not free, and a boot master that a warm start restores as
    finished never draws, so it never seeds a stream.  The first read
    stores the generator in the instance dict, where later reads find
    it without calling back here (a non-data descriptor).
    """

    def __set_name__(self, owner, attr: str) -> None:
        self.attr = attr
        self.stream = attr[len("_rng_"):]

    def __get__(self, master, owner=None):
        if master is None:
            return self
        rng = random.Random(
            substream_seed(master._seed, master.spec.name, self.stream))
        master.__dict__[self.attr] = rng
        return rng


@dataclass
class MasterTrafficSpec:
    """Traffic description for one bus master.

    Parameters
    ----------
    pattern:
        ``stream`` — sequential bursts walking the region (DMA-like);
        ``random`` — uniformly random aligned addresses (CPU-like);
        ``pingpong`` — alternating write/read to the same line
        (synchronization-flag traffic).
    gap:
        Mean idle time between transactions (uniform in [0, 2*gap]).
    read_fraction:
        Probability a transaction is a read (ignored by ``pingpong``).
    transactions:
        How many transactions to issue (None = until simulation ends).
    """

    name: str
    pattern: str = "stream"
    base: int = 0x0
    size: int = 1 << 16
    burst_length: int = 4
    gap: SimTime = ns(100)
    read_fraction: float = 0.5
    transactions: Optional[int] = 200
    priority: int = 0
    word_bytes: int = 4

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown traffic pattern {self.pattern!r}; expected one "
                f"of {PATTERNS}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        span = self.burst_length * self.word_bytes
        if span > self.size:
            raise ValueError("burst does not fit the address region")

    def to_dict(self) -> dict:
        """JSON-able dict (``gap`` as integer femtoseconds)."""
        return {
            "name": self.name,
            "pattern": self.pattern,
            "base": self.base,
            "size": self.size,
            "burst_length": self.burst_length,
            "gap_fs": self.gap.femtoseconds,
            "read_fraction": self.read_fraction,
            "transactions": self.transactions,
            "priority": self.priority,
            "word_bytes": self.word_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MasterTrafficSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            pattern=data["pattern"],
            base=data["base"],
            size=data["size"],
            burst_length=data["burst_length"],
            gap=SimTime(data["gap_fs"]),
            read_fraction=data["read_fraction"],
            transactions=data["transactions"],
            priority=data["priority"],
            word_bytes=data["word_bytes"],
        )

    def scaled(self, fraction: float) -> "MasterTrafficSpec":
        """A copy with ``transactions`` scaled down to ``fraction``.

        Used by early-stop sweep strategies to screen design points on
        a shortened workload; an unbounded spec (``transactions=None``)
        is returned unchanged.  At least one transaction survives.
        """
        if self.transactions is None or fraction >= 1.0:
            return self
        return MasterTrafficSpec(
            name=self.name, pattern=self.pattern, base=self.base,
            size=self.size, burst_length=self.burst_length, gap=self.gap,
            read_fraction=self.read_fraction,
            transactions=max(1, int(self.transactions * fraction)),
            priority=self.priority, word_bytes=self.word_bytes,
        )


class TrafficMaster(Module):
    """Drives one blocking-transport socket with generated traffic.

    Every decision kind draws from its own RNG substream seeded by
    :func:`substream_seed` — the common-random-numbers discipline
    paired design-point comparisons rely on.  ``record_series=True``
    additionally stores the per-transaction latency series (ns floats,
    completion order) for steady-state estimation in
    :mod:`repro.stats`.
    """

    _rng_addr = _Substream()
    _rng_rw = _Substream()
    _rng_gap = _Substream()
    _rng_data = _Substream()

    def __init__(self, name, parent=None, ctx=None,
                 socket=None, spec: MasterTrafficSpec = None,
                 seed: int = 1,
                 record_series: bool = False,
                 start_time: Optional[SimTime] = None):
        super().__init__(name, parent, ctx)
        if socket is None or spec is None:
            raise SimulationError(
                f"traffic master {name!r} needs a socket and a spec"
            )
        self.socket = socket
        self.spec = spec
        self._seed = seed
        self.latency = TimeStats()
        self.latency_series = [] if record_series else None
        self.bytes_done = 0
        self.completed = 0
        self.errors = 0
        self._last_done_fs = 0
        self.start_time = start_time
        self._stream_offset = 0
        self._index = 0
        self._pending_gap_fs: Optional[int] = None
        self.add_thread(self._drive, "drive")

    # -- request generation ------------------------------------------------------
    #
    # Draws call ``Random._randbelow(n)``, the exact body of
    # ``randrange(n)`` for ``n >= 1`` minus its argument checks: the
    # pinned results depend on the two drawing identically.

    def _next_request(self, index: int) -> OcpRequest:
        spec = self.spec
        span = spec.burst_length * spec.word_bytes
        if spec.pattern == "stream":
            addr = spec.base + self._stream_offset
            # Wrap to the region start once the next burst would not
            # fit, so every burst starts on a multiple of its span.
            offset = self._stream_offset + span
            self._stream_offset = offset if offset + span <= spec.size else 0
            is_read = self._rng_rw.random() < spec.read_fraction
        elif spec.pattern == "random":
            slots = (spec.size - span) // spec.word_bytes
            if slots < 1:
                slots = 1
            addr = (spec.base
                    + self._rng_addr._randbelow(slots) * spec.word_bytes)
            is_read = self._rng_rw.random() < spec.read_fraction
        else:  # pingpong
            addr = spec.base
            is_read = bool(index % 2)
        # The spec was validated once, so requests skip re-validation.
        if is_read:
            return OcpRequest.trusted(OcpCmd.RD, addr, [],
                                      spec.burst_length, spec.word_bytes)
        draw = self._rng_data._randbelow
        data = [draw(1 << 32) for _ in range(spec.burst_length)]
        return OcpRequest.trusted(OcpCmd.WR, addr, data, spec.burst_length,
                                  spec.word_bytes)

    def _gap_fs(self) -> int:
        mean_fs = self.spec.gap._fs
        if mean_fs == 0:
            return 0
        return self._rng_gap._randbelow(2 * mean_fs + 1)

    # -- the driver process ---------------------------------------------------------

    def _drive(self) -> Generator:
        spec = self.spec
        if self.start_time is not None:
            # Absolute anchor: the wait is recomputed from *now*, so a
            # master created at restore time parks at the same absolute
            # instant a cold run's master does.
            start_fs = self.start_time._fs
            while self.ctx._now_fs < start_fs:
                yield SimTime(start_fs - self.ctx._now_fs)
        ctx = self.ctx
        nbytes = spec.burst_length * spec.word_bytes  # of every request
        while spec.transactions is None or self._index < spec.transactions:
            gap_fs = self._pending_gap_fs
            if gap_fs is None:
                # Persist the drawn gap before yielding: a checkpoint
                # taken while parked on the gap must not redraw it on
                # restore (the RNG stream already advanced).
                gap_fs = self._pending_gap_fs = self._gap_fs()
            if gap_fs > 0:
                yield SimTime._from_fs(gap_fs)
            self._pending_gap_fs = None
            index = self._index
            request = self._next_request(index)
            begin_fs = ctx._now_fs
            response = yield from self.socket.transport(request)
            done_fs = ctx._now_fs
            elapsed_fs = done_fs - begin_fs
            self.latency.add_fs(elapsed_fs)
            if self.latency_series is not None:
                self.latency_series.append(elapsed_fs / FS_PER_NS)
            if response.resp is OcpResp.DVA:  # response.ok
                self.bytes_done += nbytes
            else:
                self.errors += 1
            self.completed += 1
            self._last_done_fs = done_fs
            self._index = index + 1

    @property
    def last_done(self) -> SimTime:
        """Completion time of the latest transaction (zero before any)."""
        return SimTime._from_fs(self._last_done_fs)

    # -- checkpoint/restore protocol (see repro.snapshot) --------------------

    def __snapshot__(self) -> dict:
        state = {
            "latency": self.latency.__snapshot__(),
            "latency_series": (
                list(self.latency_series)
                if self.latency_series is not None else None
            ),
            "bytes_done": self.bytes_done,
            "completed": self.completed,
            "errors": self.errors,
            "last_done_fs": self._last_done_fs,
            "stream_offset": self._stream_offset,
            "index": self._index,
            "pending_gap_fs": self._pending_gap_fs,
        }
        # A finished master never draws again: its RNG state is dead
        # weight in every checkpoint (boot masters are always finished).
        if not self.done:
            state["streams"] = {
                name: _rng_json(getattr(self, f"_rng_{name}"))
                for name in SUBSTREAMS
            }
        return state

    def __restore__(self, state: dict) -> None:
        self.latency.__restore__(state["latency"])
        if state["latency_series"] is None:
            self.latency_series = None
        else:
            self.latency_series = list(state["latency_series"])
        self.bytes_done = state["bytes_done"]
        self.completed = state["completed"]
        self.errors = state["errors"]
        self._last_done_fs = state["last_done_fs"]
        self._stream_offset = state["stream_offset"]
        self._index = state["index"]
        self._pending_gap_fs = state["pending_gap_fs"]
        if "streams" in state:
            streams = state["streams"]
            for name in SUBSTREAMS:
                # setstate overwrites the whole state: skip the seeding.
                rng = random.Random.__new__(random.Random)
                rng.setstate(_rng_from_json(streams[name]))
                self.__dict__[f"_rng_{name}"] = rng
        elif not self.done:
            from repro.snapshot.state import SnapshotError

            raise SnapshotError(
                f"traffic master {self.full_name!r} is unfinished but its "
                "state has no RNG streams"
            )

    @property
    def done(self) -> bool:
        """True once the requested transaction count completed."""
        return (
            self.spec.transactions is not None
            and self.completed >= self.spec.transactions
        )


def standard_workloads() -> dict:
    """The named workloads used by experiment E3: the three classic
    patterns plus a fully-contended one that removes any
    fabric-parallelism advantage."""
    return {
        "dma_stream": [
            MasterTrafficSpec("dma0", pattern="stream", base=0x0,
                              size=1 << 16, burst_length=8, gap=ns(50),
                              read_fraction=0.0, transactions=300,
                              priority=1),
            MasterTrafficSpec("dma1", pattern="stream", base=0x10000,
                              size=1 << 16, burst_length=8, gap=ns(50),
                              read_fraction=1.0, transactions=300,
                              priority=2),
        ],
        "cpu_random": [
            MasterTrafficSpec("cpu0", pattern="random", base=0x0,
                              size=1 << 16, burst_length=1, gap=ns(80),
                              read_fraction=0.7, transactions=400,
                              priority=0),
            MasterTrafficSpec("cpu1", pattern="random", base=0x10000,
                              size=1 << 16, burst_length=1, gap=ns(80),
                              read_fraction=0.7, transactions=400,
                              priority=1),
        ],
        "mixed": [
            MasterTrafficSpec("cpu", pattern="random", base=0x0,
                              size=1 << 16, burst_length=1, gap=ns(100),
                              read_fraction=0.8, transactions=300,
                              priority=0),
            MasterTrafficSpec("dma", pattern="stream", base=0x10000,
                              size=1 << 16, burst_length=16, gap=ns(200),
                              read_fraction=0.0, transactions=150,
                              priority=1),
            MasterTrafficSpec("sync", pattern="pingpong", base=0x20000,
                              size=1 << 12, burst_length=1, gap=ns(150),
                              read_fraction=0.5, transactions=200,
                              priority=2),
        ],
        # every master hammers ONE region: slave-side contention
        # dominates and fabric parallelism cannot help — the workload
        # that keeps exploration results honest
        "contended": [
            MasterTrafficSpec(f"m{i}", pattern="random", base=0x0,
                              size=1 << 14, burst_length=4, gap=ns(60),
                              read_fraction=0.5, transactions=200,
                              priority=i)
            for i in range(3)
        ],
    }
