"""Checkpoints: the whole service state as one atomic JSON document.

A checkpoint serializes everything a :class:`PricingService` would need
to resume — relational catalog, workload log, cost model, advisor
config, and the open pricing period — through the existing
:mod:`repro.gateway.codec` round-trips, tagged with the WAL sequence it
covers (``wal_seq``): recovery loads the newest valid checkpoint and
replays only the WAL records past that sequence.

The fleet engine is checkpointed *logically*: its internal state (numpy
schedules, lazy game states) is never serialized. Instead the service
records the ordered history of fleet-mutating envelopes since the last
``Configure`` and the checkpoint stores that history plus codec-encoded
copies of the ledger, event log, slot, and epoch. Restore replays the
history through a fresh engine — dispatch is deterministic — and then
*verifies* the rebuilt ledger/events/slot/epoch against the stored
copies, refusing (:class:`~repro.errors.RecoveryError`) on any
divergence rather than serving a mispriced period.

Checkpoint files are written to a temp file, fsync'd, and renamed into
place, so a crash mid-checkpoint leaves at worst an ignorable ``*.tmp``;
each file carries a CRC32 over its canonical body and corrupt files make
recovery fall back to the previous checkpoint.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.errors import RecoveryError, ReproError
from repro.gateway import codec
from repro.gateway.envelopes import (
    API_VERSION,
    ErrorReply,
    request_from_dict,
    to_dict,
)
from repro.gateway.wal.records import checksum, with_checksum

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_GLOB",
    "checkpoint_path",
    "capture_state",
    "write_checkpoint",
    "load_checkpoint",
    "restore_service",
]

#: Bumped on any incompatible change to the checkpoint document shape.
CHECKPOINT_FORMAT = 1

#: How finished checkpoints are named inside a WAL directory (the
#: ``*.tmp`` staging twin is deliberately not matched).
CHECKPOINT_GLOB = "checkpoint-*.json"


def checkpoint_path(directory, wal_seq: int) -> Path:
    """Where the checkpoint covering ``wal_seq`` lives (sortable name)."""
    return Path(directory) / f"checkpoint-{int(wal_seq):012d}.json"


# --------------------------------------------------------------- capture --


def capture_state(service, *, wal_seq: int) -> dict:
    """The service's full durable state as one JSON-able document."""
    if service.fleet is not None and service._fleet_history is None:
        raise RecoveryError(
            "the open period's fleet was attached externally; its "
            "construction is not in the gateway's dispatch history, so it "
            "cannot be checkpointed — open periods on a durable service "
            "with Configure instead"
        )
    state: dict = {
        "format": CHECKPOINT_FORMAT,
        "api": API_VERSION,
        "wal_seq": int(wal_seq),
        "engine_mode": service.engine.mode,
        "cost_model": asdict(service.cost_model),
        "advisor_config": asdict(service.advisor_config),
        "db": codec.encode(service.db),
        "log": codec.encode(service.log),
        "fleet": None,
    }
    if service.fleet is not None:
        # The in-memory history holds envelope objects (appends must stay
        # O(1) on the dispatch hot path); wire form is produced here, once
        # per checkpoint.
        state["fleet"] = {
            "history": [
                {"requests": [to_dict(r) for r in entry]}
                if isinstance(entry, list)
                else {"request": to_dict(entry)}
                for entry in service._fleet_history
            ],
            "slot": service.fleet.slot,
            "epoch": service.fleet.epoch,
            "ledger": codec.encode(service.fleet.ledger),
            "events": codec.encode(service.fleet.events),
        }
    return state


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
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise RecoveryError(
            f"checkpoint {path.name} is unreadable: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise RecoveryError(f"checkpoint {path.name} is not a JSON object")
    crc = payload.get("crc")
    body = {key: value for key, value in payload.items() if key != "crc"}
    if isinstance(crc, bool) or not isinstance(crc, int) or crc != checksum(body):
        raise RecoveryError(
            f"checkpoint {path.name} fails its checksum (corrupt bytes)"
        )
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"checkpoint {path.name} has format {payload.get('format')!r}; "
            f"this build reads format {CHECKPOINT_FORMAT}"
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
    for field in ("engine_mode", "cost_model", "advisor_config", "db", "log"):
        if field not in payload:
            raise RecoveryError(
                f"checkpoint {path.name} is missing field {field!r}"
            )
    return payload


def replay_history_entry(service, entry) -> None:
    """Re-dispatch one fleet-history entry; divergence is an error.

    History entries only record envelopes that *succeeded* originally,
    so an :class:`ErrorReply` (or a failed bulk run) during replay means
    the checkpoint does not describe the engine it claims to.
    """
    if not isinstance(entry, dict) or ("request" in entry) == ("requests" in entry):
        raise RecoveryError(f"malformed fleet-history entry {entry!r}")
    try:
        if "requests" in entry:
            requests = [request_from_dict(raw) for raw in entry["requests"]]
            acks = service.dispatch(requests)
            failed = getattr(acks, "failed", None)
            if failed is None:
                failed = next(
                    (r for r in acks if isinstance(r, ErrorReply)), None
                )
            if failed is not None:
                raise RecoveryError(
                    f"fleet history replay failed: [{failed.code}] "
                    f"{failed.message}"
                )
        else:
            reply = service.dispatch(request_from_dict(entry["request"]))
            if isinstance(reply, ErrorReply):
                raise RecoveryError(
                    f"fleet history replay failed: [{reply.code}] "
                    f"{reply.message}"
                )
    except RecoveryError:
        raise
    except ReproError as exc:
        raise RecoveryError(f"fleet history entry does not decode: {exc}") from exc


def restore_service(state: dict):
    """A fresh :class:`PricingService` equal to the captured one.

    The relational catalog and workload log restore directly through
    their codecs; the fleet restores by replaying its logical history and
    is then verified bit-for-bit (ledger, events, slot, epoch) against
    the encoded copies stored in the checkpoint.
    """
    from repro.advisor import AdvisorConfig
    from repro.db.catalog import Catalog
    from repro.db.costmodel import CostModel
    from repro.gateway.service import PricingService

    try:
        db = codec.decode(state["db"])
        log = codec.decode(state["log"])
        cost_model = CostModel(**state["cost_model"])
        advisor_config = AdvisorConfig(**state["advisor_config"])
        service = PricingService(
            db_catalog=db,
            cost_model=cost_model,
            engine_mode=state["engine_mode"],
            advisor_config=advisor_config,
        )
    except RecoveryError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise RecoveryError(f"checkpoint does not restore: {exc}") from exc
    if not isinstance(db, Catalog):
        raise RecoveryError(
            f"checkpoint 'db' decodes to {type(db).__name__}, not a Catalog"
        )
    # The service built its own empty log/engine pair; swap the restored
    # log in everywhere the service references it.
    service.log = log
    service.engine.log = log

    fleet_state = state.get("fleet")
    if fleet_state is not None:
        if not isinstance(fleet_state, dict) or not isinstance(
            fleet_state.get("history"), list
        ):
            raise RecoveryError("checkpoint 'fleet' section is malformed")
        # History replay re-runs Configure + every fleet mutation through
        # the normal dispatch path (no WAL is attached yet, so nothing is
        # re-logged); the catalog epoch moves only via the db section, so
        # pin it across the replay.
        db_epoch = db.epoch
        for entry in fleet_state["history"]:
            replay_history_entry(service, entry)
        db._epoch = db_epoch
        rebuilt = {
            "slot": None if service.fleet is None else service.fleet.slot,
            "epoch": None if service.fleet is None else service.fleet.epoch,
        }
        expected = {
            "slot": fleet_state.get("slot"),
            "epoch": fleet_state.get("epoch"),
        }
        if rebuilt != expected:
            raise RecoveryError(
                f"fleet history replay diverged from the checkpoint: "
                f"rebuilt {rebuilt}, checkpoint says {expected}"
            )
        if service.fleet is None:
            raise RecoveryError(
                "checkpoint records an open period but its history holds "
                "no Configure"
            )
        if codec.encode(service.fleet.ledger) != fleet_state.get("ledger"):
            raise RecoveryError(
                "fleet history replay diverged from the checkpoint: the "
                "rebuilt billing ledger does not match the stored copy"
            )
        if codec.encode(service.fleet.events) != fleet_state.get("events"):
            raise RecoveryError(
                "fleet history replay diverged from the checkpoint: the "
                "rebuilt event log does not match the stored copy"
            )
    return service
