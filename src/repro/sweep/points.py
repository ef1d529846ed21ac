"""Sweep points: the unit of work a design-space sweep schedules.

A :class:`SweepPoint` bundles everything :func:`repro.explore.run_point`
needs to simulate one design point — architecture config, workload
specs, fault pressure, seed, run bound — in a form that (a) serializes
to a plain-JSON payload a worker process can reconstruct, and (b) hashes
to a canonical content key the result cache stores under.

The key is a SHA-256 over a canonical JSON rendering of the point's
*identity*: the config's :meth:`~repro.explore.ArchitectureConfig.cache_key`,
every workload spec (SimTime fields as integer femtoseconds), the fault
spec, the seed, the memory wait states, the run bound, and
:data:`CODE_VERSION`.  Cosmetic fields (config labels) are excluded, so
relabelled but behaviourally identical points share cached results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.kernel.simtime import SimTime, us
from repro.explore.runner import BootSpec, FaultSpec, point_regions
from repro.explore.space import ArchitectureConfig
from repro.explore.workload import MasterTrafficSpec

#: Simulation-semantics version folded into every point key.  Bump this
#: whenever a change to the kernel, the CAM models, or the traffic
#: generator alters simulated results — every previously cached sweep
#: result is then invalidated at once instead of silently served stale.
CODE_VERSION = "sweep-2"


@dataclass(frozen=True)
class SweepPoint:
    """One design point scheduled by the sweep engine."""

    config: ArchitectureConfig
    specs: Tuple[MasterTrafficSpec, ...]
    workload: str = "workload"
    max_sim_time: SimTime = field(default_factory=lambda: us(10_000))
    seed: int = 1
    faults: Optional[FaultSpec] = None
    memory_read_wait: int = 1
    memory_write_wait: int = 1
    #: export per-transaction latency series on the result — changes
    #: the cached payload shape, so it is part of the identity too
    record_series: bool = False
    #: optional boot (warm-up) phase; boot traffic shifts the measured
    #: phase past the boot horizon, so it is part of the identity when
    #: set — and absent from it when None, keeping pre-boot keys stable
    boot: Optional[BootSpec] = None

    def __post_init__(self):
        # Tolerate lists from callers; the tuple keeps the point hashable.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def identity(self) -> dict:
        """The canonical JSON-able identity the content key hashes.

        Everything that can change the simulated outcome appears here;
        nothing cosmetic does.  The ``boot`` key is emitted only when a
        boot phase is set, so bootless points keep their historical
        keys (and cached results) byte-for-byte.
        """
        if self.boot is not None:
            return dict(self._base_identity(),
                        boot=self.boot.to_dict())
        return self._base_identity()

    def _base_identity(self) -> dict:
        return {
            "version": CODE_VERSION,
            "config": self.config.cache_key(),
            "workload": self.workload,
            "specs": [spec.to_dict() for spec in self.specs],
            "max_sim_time_fs": self.max_sim_time.femtoseconds,
            "seed": self.seed,
            "faults": None if self.faults is None
            else self.faults.to_dict(),
            "memory_read_wait": self.memory_read_wait,
            "memory_write_wait": self.memory_write_wait,
            "record_series": self.record_series,
        }

    def key(self) -> str:
        """Canonical content hash (hex SHA-256) of :meth:`identity`."""
        text = json.dumps(self.identity(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identity (``config/workload``) for
        quarantine rows, progress events, and error messages."""
        return f"{self.config.name}/{self.workload}"

    def to_payload(self) -> dict:
        """Plain-JSON transport form for worker processes.

        Unlike :meth:`identity` this keeps the full config dict
        (including the label, which the result's readable name needs).
        The ``boot`` key is emitted only when set, so bootless payloads
        keep their historical shape.
        """
        payload = {
            "config": self.config.to_dict(),
            "specs": [spec.to_dict() for spec in self.specs],
            "workload": self.workload,
            "max_sim_time_fs": self.max_sim_time.femtoseconds,
            "seed": self.seed,
            "faults": None if self.faults is None
            else self.faults.to_dict(),
            "memory_read_wait": self.memory_read_wait,
            "memory_write_wait": self.memory_write_wait,
            "record_series": self.record_series,
        }
        if self.boot is not None:
            payload["boot"] = self.boot.to_dict()
        return payload

    def family_key(self) -> Optional[str]:
        """Checkpoint-family content key; None for bootless points.

        Points sharing a family key boot through *identical* simulations
        up to the boot horizon, so one boot checkpoint warm-starts all
        of them.  The key hashes exactly the facts the boot phase
        depends on: code version, the architecture's behavioural
        ``cache_key``, the boot workload, seed, the fault spec (fault
        RNG draws happen during boot too), memory wait states, and the
        point's full region footprint — measured regions shape the
        memory roster the boot context is built with, so two points
        with different regions never share a checkpoint.
        """
        if self.boot is None:
            return None
        identity = {
            "version": CODE_VERSION,
            "config": self.config.cache_key(),
            "boot": self.boot.to_dict(),
            "seed": self.seed,
            "faults": None if self.faults is None
            else self.faults.to_dict(),
            "memory_read_wait": self.memory_read_wait,
            "memory_write_wait": self.memory_write_wait,
            "regions": point_regions(self.specs, self.boot),
        }
        text = json.dumps(identity, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepPoint":
        """Rebuild a point from :meth:`to_payload` output."""
        faults = payload.get("faults")
        boot = payload.get("boot")
        return cls(
            config=ArchitectureConfig.from_dict(payload["config"]),
            specs=tuple(
                MasterTrafficSpec.from_dict(s) for s in payload["specs"]
            ),
            workload=payload["workload"],
            max_sim_time=SimTime(payload["max_sim_time_fs"]),
            seed=payload["seed"],
            faults=None if faults is None else FaultSpec.from_dict(faults),
            memory_read_wait=payload["memory_read_wait"],
            memory_write_wait=payload["memory_write_wait"],
            record_series=payload.get("record_series", False),
            boot=None if boot is None else BootSpec.from_dict(boot),
        )


def points_for_space(
    space,
    specs: Sequence[MasterTrafficSpec],
    workload: str = "workload",
    max_sim_time: Optional[SimTime] = None,
    seed: int = 1,
    faults: Optional[FaultSpec] = None,
    boot: Optional[BootSpec] = None,
) -> list:
    """One :class:`SweepPoint` per config in ``space``, in space order."""
    bound = us(10_000) if max_sim_time is None else max_sim_time
    return [
        SweepPoint(config=config, specs=tuple(specs), workload=workload,
                   max_sim_time=bound, seed=seed, faults=faults,
                   boot=boot)
        for config in space
    ]
