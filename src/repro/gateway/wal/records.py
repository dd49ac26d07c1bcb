"""WAL record framing plus the shared JSONL line reader.

One WAL record is one JSON line (the same line discipline
:mod:`repro.gateway.trace` uses for request traces — :func:`iter_jsonl`
is the single reader both consume). A record wraps either one request
envelope in wire form or one group-committed batch of them::

    {"seq": 7, "epoch": 3, "request": {"api": "1.10", "kind": ...}, "crc": ...}
    {"seq": 8, "epoch": 3, "requests": [{...}, {...}], "crc": ...}

``seq`` is the contiguous per-log sequence number (first record is 1),
``epoch`` the catalog epoch the service held when the record was
appended, and ``crc`` a CRC32 over the canonical JSON serialization of
the record without its ``crc`` key. The nested envelope dictionaries are
exactly trace lines: stripping the framing turns a WAL into a replayable
trace.

Framing violations decode to :class:`~repro.errors.RecoveryError`, never
a bare ``KeyError``/``json.JSONDecodeError`` — recovery decides what is
tolerable (a torn final line) and what is not (corruption mid-file).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import RecoveryError

__all__ = [
    "WAL_FILENAME",
    "JsonlLine",
    "iter_jsonl",
    "WalRecord",
    "encode_record",
    "decode_record",
    "checksum",
    "with_checksum",
    "spliced_checksum_ok",
]

#: File the write-ahead log lives in, inside a service's WAL directory.
WAL_FILENAME = "wal.jsonl"


# ------------------------------------------------------ shared JSONL reader --


@dataclass(frozen=True)
class JsonlLine:
    """One physical line of a JSONL file, parsed as far as possible.

    ``payload`` is the decoded JSON value (``None`` with ``error`` set
    when the line is not UTF-8 or not JSON); ``complete`` records whether
    the line carried its trailing newline — a torn final append does not —
    and ``end_offset`` is the byte offset just past the line, which lets
    recovery truncate a log back to its last valid prefix. ``text`` is the
    decoded line, so a WAL reader can verify a record's checksum from its
    own bytes (:func:`decode_record`).
    """

    lineno: int
    payload: object
    error: str | None
    complete: bool
    end_offset: int
    text: str = ""


def iter_jsonl(path) -> Iterator[JsonlLine]:
    """Yield every non-blank line of ``path`` as a :class:`JsonlLine`.

    Never raises for line-level junk: undecodable bytes and malformed
    JSON come back as lines with ``error`` set, so consumers (trace
    replay, WAL recovery) choose their own failure policy per line.
    """
    data = Path(path).read_bytes()
    offset = 0
    lineno = 0
    length = len(data)
    while offset < length:
        newline = data.find(b"\n", offset)
        complete = newline != -1
        end = newline + 1 if complete else length
        raw = data[offset : newline if complete else length]
        offset = end
        lineno += 1
        if not raw.strip():
            continue
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            yield JsonlLine(lineno, None, f"not valid UTF-8: {exc}", complete, end)
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            yield JsonlLine(lineno, None, str(exc), complete, end, text)
            continue
        yield JsonlLine(lineno, payload, None, complete, end, text)


# ------------------------------------------------------------- WAL records --


def _canonical(payload) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def checksum(payload) -> int:
    """CRC32 over the canonical JSON serialization of ``payload``."""
    return zlib.crc32(_canonical(payload).encode("utf-8")) & 0xFFFFFFFF


def with_checksum(payload: dict) -> str:
    """``payload``'s canonical JSON with its :func:`checksum` spliced on
    as a trailing ``"crc"`` key.

    The body is serialized exactly once: the text *is* the canonical
    form the checksum covers. ``payload`` must be a non-empty object
    without a ``crc`` key of its own.
    """
    canonical = _canonical(payload)
    crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
    return f'{canonical[:-1]},"crc":{crc}}}'


def spliced_checksum_ok(text: str, crc: int) -> bool:
    """Whether ``text`` is exactly what :func:`with_checksum` wrote for a
    body whose checksum is ``crc``.

    Checks the text's own bytes, minus the spliced key, instead of a
    canonical re-serialization of the parsed body, so a verifier skips
    that ``dumps`` pass. False means the text is corrupt or not in the
    written layout; a checkpoint reader accepts the older ``json.dump``
    layout through :func:`checksum` over the parsed body.
    """
    suffix = f',"crc":{crc}}}'
    if not text.endswith(suffix):
        return False
    body = text[: -len(suffix)] + "}"
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF == crc


@dataclass(frozen=True)
class WalRecord:
    """One durably logged dispatch: a single envelope or a batch.

    ``requests`` holds the wire dictionaries (trace-shaped); ``batch``
    marks a batched-``dispatch`` group commit — recovery re-dispatches it
    as one batch, so its bulk runs are cut and ingested as they were live
    and the state lands bit-identical after a crash between the append
    and the apply.
    """

    seq: int
    epoch: int
    requests: tuple
    batch: bool


def encode_record(record: WalRecord) -> str:
    """One record -> its JSONL line (trailing newline included).

    The body is serialized exactly once (:func:`with_checksum`) — a bulk
    record at 50k users is megabytes of JSON, and a second ``dumps``
    pass for the checksum would double the append cost.
    """
    body: dict = {"seq": record.seq, "epoch": record.epoch}
    if record.batch:
        body["requests"] = list(record.requests)
    else:
        body["request"] = record.requests[0]
    return with_checksum(body) + "\n"


def _int_field(payload: dict, name: str) -> int:
    value = payload.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecoveryError(
            f"WAL record field {name!r} must be an integer, got {value!r}"
        )
    return value


def decode_record(payload, text: str) -> WalRecord:
    """Inverse of :func:`encode_record`; checksum and shape verified.

    ``text`` is the line ``payload`` was parsed from: the record's CRC
    is verified from those bytes (:func:`spliced_checksum_ok`), the
    layout :func:`encode_record` writes. Raises
    :class:`~repro.errors.RecoveryError` on any framing violation:
    non-object lines, missing or badly typed fields, an envelope body
    that is not exactly one of ``request``/``requests``, or a CRC
    mismatch (flipped bytes anywhere in the record).
    """
    if not isinstance(payload, dict):
        raise RecoveryError(
            f"a WAL record must be a JSON object, got {type(payload).__name__}"
        )
    seq = _int_field(payload, "seq")
    epoch = _int_field(payload, "epoch")
    crc = _int_field(payload, "crc")
    has_single = "request" in payload
    has_batch = "requests" in payload
    if has_single == has_batch:
        raise RecoveryError(
            "a WAL record carries exactly one of 'request'/'requests'"
        )
    extra = set(payload) - {"seq", "epoch", "crc", "request", "requests"}
    if extra:
        raise RecoveryError(f"WAL record carries unknown fields {sorted(extra)}")
    if not spliced_checksum_ok(text, crc):
        raise RecoveryError(
            f"checksum mismatch on WAL record seq {seq}: stored {crc} "
            f"(corrupt bytes)"
        )
    if has_batch:
        requests = payload["requests"]
        if not isinstance(requests, list) or not all(
            isinstance(r, dict) for r in requests
        ):
            raise RecoveryError(
                f"WAL record seq {seq}: 'requests' must be a list of envelopes"
            )
        return WalRecord(seq=seq, epoch=epoch, requests=tuple(requests), batch=True)
    request = payload["request"]
    if not isinstance(request, dict):
        raise RecoveryError(
            f"WAL record seq {seq}: 'request' must be an envelope object"
        )
    return WalRecord(seq=seq, epoch=epoch, requests=(request,), batch=False)
