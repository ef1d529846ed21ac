"""Durable, content-addressed checkpoints.

A :class:`Checkpoint` wraps a kernel snapshot with the three facts that
decide whether it may be reused: the *configuration key* (whatever
uniquely identifies the model build — e.g. an architecture's
``cache_key()`` plus the boot workload), the *simulation time* the
snapshot was taken at, and the snapshot *code version*.  The digest is
a SHA-256 over the canonical JSON of exactly those facts, so a
checkpoint can only ever be loaded for the (config, time, code)
triple it was captured from — change any of them and the digest, hence
the filename, changes.

On disk a checkpoint is one JSON file named ``<digest>.json`` inside a
checkpoint directory.  The file additionally records a SHA-256 of the
canonical snapshot body; :meth:`Checkpoint.load` recomputes both hashes
and raises :class:`CheckpointError` on any mismatch, so corruption is
detected at load time rather than surfacing as silently divergent
simulation results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.snapshot.state import SNAPSHOT_SCHEMA, SnapshotError

SNAPSHOT_CODE_VERSION = "snapshot-2"

CHECKPOINT_SCHEMA = 1


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or incompatible."""


def _canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def checkpoint_digest(config_key: str, sim_time_fs: int) -> str:
    """Content address for a (config, sim-time, code-version) triple."""
    return hashlib.sha256(_canonical({
        "config": config_key,
        "sim_time_fs": sim_time_fs,
        "code_version": SNAPSHOT_CODE_VERSION,
    })).hexdigest()


@dataclass
class Checkpoint:
    """A kernel snapshot plus the identity facts that gate its reuse."""

    config_key: str
    sim_time_fs: int
    snapshot: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return checkpoint_digest(self.config_key, self.sim_time_fs)

    @classmethod
    def capture(cls, ctx, config_key: str, *,
                extras: Optional[Dict[str, Any]] = None,
                meta: Optional[Dict[str, Any]] = None) -> "Checkpoint":
        snapshot = ctx.checkpoint(extras=extras)
        if snapshot["kernel"]["now_fs"] != ctx._now_fs:  # pragma: no cover
            raise CheckpointError("snapshot time drifted during capture")
        return cls(config_key=config_key, sim_time_fs=ctx._now_fs,
                   snapshot=snapshot, meta=dict(meta or {}))

    @staticmethod
    def path_for(directory: str, digest: str) -> str:
        """The on-disk path of a checkpoint with *digest* in *directory*."""
        return os.path.join(directory, f"{digest}.json")

    def save(self, directory: str) -> str:
        """Write ``<digest>.json`` into *directory*; returns the path."""
        os.makedirs(directory, exist_ok=True)
        body = _canonical(self.snapshot)
        record = {
            "schema": CHECKPOINT_SCHEMA,
            "digest": self.digest,
            "config_key": self.config_key,
            "sim_time_fs": self.sim_time_fs,
            "code_version": SNAPSHOT_CODE_VERSION,
            "body_sha256": hashlib.sha256(body).hexdigest(),
            "meta": self.meta,
            "snapshot": self.snapshot,
        }
        path = self.path_for(directory, self.digest)
        tmp = f"{path}.tmp.{os.getpid()}"
        # One C-encoder pass: ``json.dump`` to a file would re-encode
        # the record on the slower pure-Python encoder path.
        with open(tmp, "wb") as handle:
            handle.write(_canonical(record))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: str, digest: str) -> "Checkpoint":
        """Load and verify ``<digest>.json`` from *directory*."""
        path = cls.path_for(directory, digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint {digest} in {directory}")
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {digest}: {exc}")
        if record.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {digest}: unsupported schema "
                f"{record.get('schema')!r}"
            )
        if record.get("code_version") != SNAPSHOT_CODE_VERSION:
            raise CheckpointError(
                f"checkpoint {digest}: code version "
                f"{record.get('code_version')!r} != {SNAPSHOT_CODE_VERSION!r}"
            )
        snapshot = record.get("snapshot")
        if not isinstance(snapshot, dict) or \
                snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise CheckpointError(f"checkpoint {digest}: malformed snapshot")
        expected = checkpoint_digest(record.get("config_key", ""),
                                     record.get("sim_time_fs", -1))
        if expected != digest or record.get("digest") != digest:
            raise CheckpointError(
                f"checkpoint {digest}: digest mismatch (content addresses "
                f"{expected})"
            )
        body_sha = hashlib.sha256(_canonical(snapshot)).hexdigest()
        if body_sha != record.get("body_sha256"):
            raise CheckpointError(f"checkpoint {digest}: snapshot body corrupt")
        return cls(config_key=record["config_key"],
                   sim_time_fs=record["sim_time_fs"],
                   snapshot=snapshot, meta=dict(record.get("meta") or {}))

    def resume(self, ctx, *, extras: Optional[Dict[str, Any]] = None) -> None:
        """Restore this checkpoint's snapshot into a fresh context."""
        try:
            ctx.resume(self.snapshot, extras=extras)
        except SnapshotError as exc:
            raise CheckpointError(f"restore failed: {exc}") from exc
