"""Crash recovery: latest valid checkpoint plus the WAL tail.

:func:`recover` rebuilds a :class:`PricingService` whose observable state
is bit-identical to the uncrashed run: it restores the newest checkpoint
that verifies (falling back past corrupt ones), re-dispatches every WAL
record after the checkpoint's ``wal_seq`` in order, truncates a torn
final line, and hands the service a writer positioned at the next
sequence number.

The log may span several files: sealed, range-named segments from
rotation (:mod:`repro.gateway.wal.rotate`) plus the active
``wal.jsonl``. :func:`read_log` stitches them into one contiguous record
stream.

The failure policy is strict where it must be and tolerant where a crash
legitimately leaves debris:

- A **torn final line of the active file** (no trailing newline,
  unparsable or failing its CRC) is the signature of a crash mid-append;
  the record never became durable, so it is dropped and the file
  truncated back to the last valid prefix. Sealed segments get no such
  tolerance — they were fsync'd whole at rotation, so any flaw is
  corruption.
- **Anything wrong earlier in a file** — flipped bytes, duplicated or
  gapped sequence numbers, junk lines — means the log cannot be trusted
  and recovery refuses with :class:`~repro.errors.RecoveryError`.
- A checkpoint whose ``wal_seq`` points **past the end of the log** is
  also fatal: the log has lost durable records and replaying a shorter
  history would silently un-charge tenants. Symmetrically, a log whose
  first surviving record starts **after** ``wal_seq + 1`` (history
  garbage-collected past the checkpoint that needs it) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import RecoveryError, ReproError
from repro.gateway.envelopes import request_from_dict
from repro.gateway.wal.checkpoint import (
    CHECKPOINT_GLOB,
    load_checkpoint,
    restore_service,
)
from repro.gateway.wal.records import (
    WAL_FILENAME,
    WalRecord,
    decode_record,
    iter_jsonl,
)
from repro.gateway.wal.rotate import list_segments

__all__ = ["WalLog", "read_log", "recover"]


def _read_file(path, *, expect_first=None, torn_tail_ok=True):
    """Durable records of one WAL file plus the byte length they span.

    ``expect_first`` pins the sequence the file must start with
    (``None`` accepts any — the caller judges coverage separately);
    ``torn_tail_ok`` tolerates a crash-torn final line, which is only
    legitimate in the active file.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    records: list[WalRecord] = []
    valid_bytes = 0
    for line in iter_jsonl(path):
        # Only the final line can lack its newline: a torn append.
        torn_ok = torn_tail_ok and not line.complete
        if line.error is not None:
            if torn_ok:
                break
            raise RecoveryError(
                f"{path.name} line {line.lineno} is corrupt: {line.error}"
            )
        try:
            record = decode_record(line.payload, line.text)
        except RecoveryError as exc:
            if torn_ok:
                break
            raise RecoveryError(
                f"{path.name} line {line.lineno}: {exc}"
            ) from None
        expected = records[-1].seq + 1 if records else expect_first
        if expected is not None and record.seq != expected:
            if record.seq == expected - 1 and records:
                raise RecoveryError(
                    f"{path.name} line {line.lineno} duplicates sequence "
                    f"number {record.seq}"
                )
            raise RecoveryError(
                f"{path.name} line {line.lineno} has sequence {record.seq}; "
                f"expected {expected} (gap or reordering)"
            )
        records.append(record)
        valid_bytes = line.end_offset
    return records, valid_bytes


@dataclass
class WalLog:
    """One WAL directory's durable history, stitched across files."""

    records: list[WalRecord]
    segments: list[Path]
    active_first_seq: int  # first seq the active file holds (next_seq if none)
    active_valid_bytes: int  # offset past the active file's last valid record

    @property
    def first_seq(self) -> int:
        """Sequence of the oldest surviving record (0 when the log is empty)."""
        return self.records[0].seq if self.records else 0

    @property
    def last_seq(self) -> int:
        """Sequence of the newest surviving record (0 when the log is empty)."""
        return self.records[-1].seq if self.records else 0


def read_log(directory) -> WalLog:
    """Every durable record of a WAL directory: sealed segments in range
    order, then the active file, verified contiguous across the seams.

    A sealed segment must hold exactly the range its name claims; only
    the active file may end in a torn line. The stream may *start* at any
    sequence (garbage collection deletes from the oldest end) — whether a
    checkpoint bridges the discarded prefix is :func:`recover`'s call.
    """
    directory = Path(directory)
    records: list[WalRecord] = []
    segment_paths: list[Path] = []
    expected = None
    for first, last, path in list_segments(directory):
        if expected is not None and first != expected:
            raise RecoveryError(
                f"WAL segment {path.name} starts at sequence {first}; "
                f"expected {expected} (a middle segment is missing)"
            )
        seg_records, _ = _read_file(
            path, expect_first=first, torn_tail_ok=False
        )
        if not seg_records or seg_records[-1].seq != last:
            held = seg_records[-1].seq if seg_records else "none"
            raise RecoveryError(
                f"WAL segment {path.name} claims records {first}..{last} "
                f"but ends at {held}: a sealed segment was truncated"
            )
        records.extend(seg_records)
        segment_paths.append(path)
        expected = last + 1
    active_records, valid_bytes = _read_file(
        directory / WAL_FILENAME, expect_first=expected, torn_tail_ok=True
    )
    records.extend(active_records)
    if active_records:
        active_first = active_records[0].seq
    elif expected is not None:
        active_first = expected
    else:
        active_first = 0  # empty file, nothing to anchor; caller decides
    return WalLog(
        records=records,
        segments=segment_paths,
        active_first_seq=active_first,
        active_valid_bytes=valid_bytes,
    )


def _replay_record(service, record: WalRecord) -> None:
    """Re-dispatch one WAL record exactly as the crashed run did.

    The WAL also logs envelopes whose dispatch *failed* — dispatch is
    deterministic, so those replay to the same :class:`ErrorReply` and
    the same (unchanged) state; an error here is not divergence. What
    must not happen is the record failing to decode at all: that is
    framing-level corruption.
    """
    try:
        requests = [request_from_dict(raw) for raw in record.requests]
    except ReproError as exc:
        raise RecoveryError(
            f"WAL record seq {record.seq} does not decode: {exc}"
        ) from exc
    if record.batch:
        service.dispatch(requests)
    else:
        service.dispatch(requests[0])


def recover(
    directory,
    *,
    checkpoint_every: int | None = None,
    retain_checkpoints: int | None = None,
):
    """Rebuild the service persisted in ``directory`` after a crash.

    Loads the newest checkpoint that verifies, replays the WAL records
    past its ``wal_seq``, truncates any torn final line of the active
    file, and returns a live :class:`PricingService` with the WAL
    re-attached (appending at the next sequence number).
    ``checkpoint_every`` re-arms automatic checkpointing and
    ``retain_checkpoints`` re-arms rotation + garbage collection on the
    recovered service.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise RecoveryError(f"no WAL directory at {directory}")
    log = read_log(directory)
    last_seq = log.last_seq

    candidates = sorted(directory.glob(CHECKPOINT_GLOB), reverse=True)
    if not candidates:
        raise RecoveryError(
            f"no checkpoint in {directory}; a durable service always "
            "writes one at attach time, so this directory is not a WAL "
            "directory (or the checkpoint was deleted)"
        )
    failures: list[str] = []
    state = None
    for candidate in candidates:
        try:
            loaded = load_checkpoint(candidate)
        except RecoveryError as exc:
            failures.append(str(exc))
            continue
        if log.records and loaded["wal_seq"] > last_seq:
            raise RecoveryError(
                f"checkpoint {candidate.name} covers WAL sequence "
                f"{loaded['wal_seq']} but the log ends at {last_seq}: "
                "durable records are missing; refusing to serve a "
                "shorter history"
            )
        if not log.records and loaded["wal_seq"] > 0:
            # Post-GC steady state: everything the checkpoint covers was
            # compacted away. Legitimate only if rotation left its fresh
            # active file behind; a *missing* wal.jsonl means the log was
            # deleted out from under the checkpoint.
            if not (directory / WAL_FILENAME).exists():
                raise RecoveryError(
                    f"checkpoint {candidate.name} covers WAL sequence "
                    f"{loaded['wal_seq']} but {WAL_FILENAME} is missing: "
                    "durable records are missing; refusing to serve a "
                    "shorter history"
                )
        if log.records and loaded["wal_seq"] < log.first_seq - 1:
            failures.append(
                f"{candidate.name} covers WAL sequence {loaded['wal_seq']} "
                f"but the surviving log starts at {log.first_seq}: records "
                f"{loaded['wal_seq'] + 1}..{log.first_seq - 1} were "
                "garbage-collected past it"
            )
            continue
        state = loaded
        break
    if state is None:
        raise RecoveryError(
            "every checkpoint failed verification: " + "; ".join(failures)
        )

    service = restore_service(state)
    for record in log.records:
        if record.seq > state["wal_seq"]:
            _replay_record(service, record)

    wal_path = directory / WAL_FILENAME
    if wal_path.exists():
        size = wal_path.stat().st_size
        if log.active_valid_bytes < size:
            with open(wal_path, "rb+") as handle:
                handle.truncate(log.active_valid_bytes)
    next_seq = max(last_seq, state["wal_seq"]) + 1
    service._adopt_wal(
        directory,
        next_seq=next_seq,
        file_first_seq=log.active_first_seq or next_seq,
        checkpoint_every=checkpoint_every,
        retain_checkpoints=retain_checkpoints,
        records_since=max(last_seq - state["wal_seq"], 0),
    )
    return service
