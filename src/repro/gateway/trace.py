"""JSONL request traces: record, replay, and drive multi-tenant scenarios.

A trace is one request envelope per line, in wire form (see
:mod:`repro.gateway.envelopes`). The first line is normally a
``Configure`` envelope so the trace is self-contained::

    {"api": "1.10", "kind": "Configure", "optimizations": [["idx", 40.0]], "horizon": 4}
    {"api": "1.10", "kind": "SubmitBids", "tenant": "ann", "bids": [["idx", 1, [30.0, 30.0]]]}
    {"api": "1.10", "kind": "AdvanceSlots", "slots": 4}
    {"api": "1.10", "kind": "LedgerQuery", "tenant": "ann"}

:func:`replay` dispatches every line through
:class:`~repro.gateway.service.PricingService`, each run of consecutive
``SubmitBids`` lines as one batched ``dispatch``, so a fleet-scale trace
takes the columnar bulk path and costs what driving the engine directly
costs, while every line still gets the reply it would get alone.
Malformed lines become ``ErrorReply`` entries, never exceptions: a
replay always finishes and always yields one reply per request line.
The ``replay`` CLI command (``python -m repro replay trace.jsonl``) wraps
this module; new multi-tenant scenarios are a trace file away.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ProtocolError, ReproError
from repro.gateway.envelopes import (
    ErrorReply,
    Request,
    SubmitBids,
    request_from_dict,
    to_dict,
)
from repro.gateway.service import PricingService
from repro.gateway.wal.records import iter_jsonl

__all__ = ["ReplayResult", "iter_trace", "write_trace", "replay", "replay_path"]


@dataclass(frozen=True)
class ReplayResult:
    """One replayed trace: wire replies plus the service that served it."""

    replies: tuple
    service: PricingService

    @property
    def errors(self) -> tuple:
        """The ``ErrorReply`` dictionaries, in trace order."""
        return tuple(r for r in self.replies if r.get("kind") == "ErrorReply")

    def counts(self) -> dict:
        """``{reply kind: count}`` over the whole replay."""
        out: dict = {}
        for reply in self.replies:
            kind = reply.get("kind", "?")
            out[kind] = out.get(kind, 0) + 1
        return out


def write_trace(path, requests: Iterable[Request]) -> int:
    """Serialize requests to one JSONL file; returns the line count."""
    lines = [json.dumps(to_dict(request)) for request in requests]
    Path(path).write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
    return len(lines)


def iter_trace(path) -> Iterator[dict]:
    """Yield one raw JSON object per non-blank trace line.

    Unparseable lines — junk bytes that are not UTF-8 just as much as
    text that is not JSON — yield a synthetic ``{"kind": "<unparseable>"}``
    marker instead of raising, so a replay reports them as protocol
    errors in position rather than dying mid-file. The line discipline is
    :func:`repro.gateway.wal.records.iter_jsonl`, shared with the
    write-ahead log.
    """
    for line in iter_jsonl(path):
        if line.error is not None:
            yield {"kind": "<unparseable>", "error": line.error}
        else:
            yield line.payload


def replay(
    payloads: Iterable[dict], service: PricingService | None = None
) -> ReplayResult:
    """Dispatch raw envelope dictionaries in order; never raises per line.

    Each run of consecutive ``SubmitBids`` lines goes through one batched
    :meth:`PricingService.dispatch`, which routes it (non-revisable runs
    take the columnar intake path); everything else dispatches one by
    one.
    """
    if service is None:
        service = PricingService()
    replies: list[dict] = []
    bulk: list[SubmitBids] = []

    def flush() -> None:
        if bulk:
            replies.extend(
                to_dict(reply) for reply in service.dispatch(list(bulk))
            )
            bulk.clear()

    for payload in payloads:
        try:
            request = request_from_dict(payload)
        except ReproError as exc:
            flush()
            kind = payload.get("kind") if isinstance(payload, dict) else None
            if isinstance(payload, dict) and "error" in payload and kind == "<unparseable>":
                exc = ProtocolError(f"unparseable trace line: {payload['error']}")
            replies.append(
                to_dict(ErrorReply.of(exc, request_kind=str(kind or "")))
            )
            continue
        if isinstance(request, SubmitBids):
            bulk.append(request)
            continue
        flush()
        replies.append(to_dict(service.dispatch(request)))
    flush()
    return ReplayResult(replies=tuple(replies), service=service)


def replay_path(
    path, service: PricingService | None = None
) -> ReplayResult:
    """Replay one JSONL trace file."""
    return replay(iter_trace(path), service=service)
