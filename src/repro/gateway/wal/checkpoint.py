"""Checkpoints: the whole service state as one atomic JSON document.

A checkpoint serializes everything a :class:`PricingService` would need
to resume — relational catalog, workload log, cost model, advisor
config, and the open pricing period — through the existing
:mod:`repro.gateway.codec` round-trips, tagged with the WAL sequence it
covers (``wal_seq``): recovery loads the newest valid checkpoint and
replays only the WAL records past that sequence.

The open period is an exact image of its
:class:`~repro.fleet.engine.FleetEngine` (the codec's ``FleetEngine``
entry): bid rows, live blocks with their walk and departure pointers,
each game's solver internals, ledger and event log.
Restore decodes that image and dispatches nothing, so recovery costs
time proportional to the state plus the WAL tail, not to the period
run so far. The image is built only when a checkpoint is taken; dispatch
keeps no history for it.

Checkpoint files are written to a temp file, fsync'd, and renamed into
place, so a crash mid-checkpoint leaves at worst an ignorable ``*.tmp``;
each file carries a CRC32 over its canonical body and corrupt files make
recovery fall back to the previous checkpoint. A file of another format
(format 1 stored envelope history instead of an image, format 2 an image
with payments and grant maps) is refused with a
:class:`~repro.errors.RecoveryError` naming both formats.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.errors import RecoveryError, ReproError
from repro.gateway import codec
from repro.gateway.envelopes import API_VERSION
from repro.gateway.wal.records import (
    checksum,
    spliced_checksum_ok,
    with_checksum,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_GLOB",
    "checkpoint_path",
    "capture_state",
    "write_checkpoint",
    "load_checkpoint",
    "restore_service",
]

#: Bumped on any incompatible change to the checkpoint document shape
#: (2: the fleet section is a state image, not an envelope history;
#: 3: the image carries no payments or grant maps, which are sums over
#: the event log's rows).
CHECKPOINT_FORMAT = 3

#: How finished checkpoints are named inside a WAL directory (the
#: ``*.tmp`` staging twin is deliberately not matched).
CHECKPOINT_GLOB = "checkpoint-*.json"


def checkpoint_path(directory, wal_seq: int) -> Path:
    """Where the checkpoint covering ``wal_seq`` lives (sortable name)."""
    return Path(directory) / f"checkpoint-{int(wal_seq):012d}.json"


# --------------------------------------------------------------- capture --


def capture_state(service, *, wal_seq: int) -> dict:
    """The service's full durable state as one JSON-able document."""
    return {
        "format": CHECKPOINT_FORMAT,
        "api": API_VERSION,
        "wal_seq": int(wal_seq),
        "cost_model": asdict(service.cost_model),
        "advisor_config": asdict(service.advisor_config),
        "db": codec.encode(service.db),
        "log": codec.encode(service.log),
        "fleet": None if service.fleet is None else codec.encode(service.fleet),
    }


def write_checkpoint(directory, state: dict, probe=None) -> Path:
    """Atomically persist one captured state; returns the final path.

    Write-to-temp, fsync, rename, fsync-the-directory: a crash at any
    point leaves either the previous checkpoint set intact (plus at most
    a stale ``*.tmp`` that recovery ignores) or the complete new file.
    The file is the state's canonical JSON with its CRC spliced on, so
    the state is serialized once; :func:`load_checkpoint` reads any key
    order and spacing, including the older ``json.dump`` layout.
    """
    path = checkpoint_path(directory, state["wal_seq"])
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(with_checksum(state))
        handle.flush()
        os.fsync(handle.fileno())
    if probe is not None:
        probe("checkpoint:written")
    os.replace(tmp, path)
    directory_fd = os.open(Path(directory), os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return path


# --------------------------------------------------------------- restore --


def load_checkpoint(path) -> dict:
    """Read and verify one checkpoint document (shape, version, CRC).

    Every failure mode — unreadable file, junk JSON, missing fields,
    format/API mismatch, checksum mismatch — is a structured
    :class:`~repro.errors.RecoveryError`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise RecoveryError(
            f"checkpoint {path.name} is unreadable: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise RecoveryError(f"checkpoint {path.name} is not a JSON object")
    crc = payload.get("crc")
    # The written layout verifies from its own bytes; any other layout
    # (older json.dump files) through a canonical re-serialization.
    intact = (
        isinstance(crc, int)
        and not isinstance(crc, bool)
        and (
            spliced_checksum_ok(text, crc)
            or crc == checksum({k: v for k, v in payload.items() if k != "crc"})
        )
    )
    if not intact:
        raise RecoveryError(
            f"checkpoint {path.name} fails its checksum (corrupt bytes)"
        )
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"checkpoint {path.name} has format {payload.get('format')!r}; "
            f"this build reads only format {CHECKPOINT_FORMAT}"
        )
    if payload.get("api") != API_VERSION:
        raise RecoveryError(
            f"checkpoint {path.name} speaks API {payload.get('api')!r}; "
            f"this gateway speaks {API_VERSION!r}"
        )
    wal_seq = payload.get("wal_seq")
    if isinstance(wal_seq, bool) or not isinstance(wal_seq, int) or wal_seq < 0:
        raise RecoveryError(
            f"checkpoint {path.name} carries a bad wal_seq {wal_seq!r}"
        )
    for field in ("cost_model", "advisor_config", "db", "log"):
        if field not in payload:
            raise RecoveryError(
                f"checkpoint {path.name} is missing field {field!r}"
            )
    return payload


def restore_service(state: dict):
    """A fresh :class:`PricingService` equal to the captured one.

    Every section restores directly through its codec — the open period
    as the exact engine image — so nothing is re-dispatched.
    """
    from repro.advisor import AdvisorConfig
    from repro.db.catalog import Catalog
    from repro.db.costmodel import CostModel
    from repro.fleet.engine import FleetEngine
    from repro.gateway.service import PricingService

    try:
        db = codec.decode(state["db"])
        log = codec.decode(state["log"])
        fleet = None if state.get("fleet") is None else codec.decode(state["fleet"])
        if not isinstance(db, Catalog):
            raise RecoveryError(
                f"checkpoint 'db' decodes to {type(db).__name__}, not a Catalog"
            )
        if fleet is not None and not isinstance(fleet, FleetEngine):
            raise RecoveryError(
                f"checkpoint 'fleet' decodes to {type(fleet).__name__}, not a "
                "FleetEngine"
            )
        service = PricingService(
            db_catalog=db,
            cost_model=CostModel(**state["cost_model"]),
            advisor_config=AdvisorConfig(**state["advisor_config"]),
            fleet=fleet,
        )
    except RecoveryError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise RecoveryError(f"checkpoint does not restore: {exc}") from exc
    # The service built its own empty log; swap the restored one in.
    service.log = log
    return service
