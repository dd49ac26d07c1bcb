"""Spans around calls into each layer's public functions, from outside.

The benchmark's launcher (``program.py``) installs these wrappers in the
program's own process before the server or the workload starts; nothing
under ``src/`` knows about them. Each wrapped call becomes a frame on one
stack (the server dispatches on its event-loop thread and the checker
is single-threaded), so a span's self time is its duration minus the time
its wrapped children took.

Calls made hundreds of thousands of times per run (the mechanism's
per-game solve, a departure's exit price, codec calls) are only counted
and timed in aggregate; the rest are also kept as span rows with a name,
start, end, self time, parent and, for dispatch, the tenant ids of the
batch. Rows stay in memory and are written as JSONL by :meth:`Tracer.dump`.
Timestamps come from ``time.monotonic()``, the clock the load generator
uses in the benchmark's own process.
"""

from __future__ import annotations

import json
import os
import time

#: Dispatch batches longer than this are not tenant-tagged: the server's
#: group commit never builds one, and a large bulk intake would make the
#: span row as large as the input.
_MAX_TAGGED = 1024


class Tracer:
    def __init__(self) -> None:
        self.rows: list = []
        self.stats: dict = {}  # name -> [calls, total seconds, self seconds]
        self._stack: list = []  # frames: [child seconds, row id]
        self._ids = 0

    def wrap(self, owner, attr: str, name: str, *, keep: bool = True, tag=None):
        """Replace ``owner.attr`` with a timed wrapper recorded as ``name``.

        ``keep`` stores a span row per call; ``tag`` maps the call's
        positional arguments to the tenant ids stored on that row.
        """
        original = getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        rows = self.rows
        clock = time.monotonic

        def wrapper(*args, **kwargs):
            if keep:
                self._ids += 1
                frame = [0.0, self._ids]
            else:
                frame = [0.0, None]
            start = clock()
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if keep:
                    parent = next(
                        (f[1] for f in reversed(stack) if f[1] is not None), None
                    )
                    rows.append(
                        (frame[1], name, start, end, elapsed - frame[0],
                         parent, tag(args) if tag is not None else None)
                    )

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def totals(self) -> dict:
        """A copy of the aggregate counters (diff two to scope a phase)."""
        return {name: list(values) for name, values in self.stats.items()}

    def spans(self, since: int = 0):
        """Span rows as dicts, from row index ``since`` on."""
        for row_id, name, start, end, own, parent, tenants in self.rows[since:]:
            yield {
                "id": row_id, "name": name, "start": start, "end": end,
                "self": own, "parent": parent, "tenants": tenants,
            }

    def dump(self, path) -> None:
        """Write span rows as JSONL to ``path`` and the aggregate counters
        to ``path + '.stats.json'``; the JSONL appears last, atomically."""
        with open(f"{path}.stats.json", "w", encoding="utf-8") as handle:
            json.dump(self.stats, handle)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")
        os.replace(tmp, path)


def _dispatch_tenants(args):
    from repro.gateway.envelopes import Request

    batch = args[1]
    if isinstance(batch, Request):
        batch = (batch,)
    elif not isinstance(batch, (list, tuple)) or len(batch) > _MAX_TAGGED:
        return None
    return [
        getattr(request, "tenant", None) or type(request).__name__
        for request in batch
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core.online import AddOnState
    from repro.db import catalog, engine
    from repro.fleet.engine import FleetEngine
    from repro.gateway import server, service
    from repro.gateway.wal import recovery, writer

    wrap = tracer.wrap
    wrap(service.PricingService, "dispatch", "service.dispatch",
         tag=_dispatch_tenants)
    wrap(server, "request_from_dict", "codec.decode", keep=False)
    wrap(server, "to_dict", "codec.encode", keep=False)
    wrap(writer.WalWriter, "append_request", "wal.append")
    wrap(writer.WalWriter, "append_batch", "wal.append")
    wrap(writer, "encode_record", "wal.encode_record", keep=False)
    wrap(recovery, "read_log", "recovery.read_log")
    wrap(recovery, "load_checkpoint", "recovery.load_checkpoint")
    wrap(recovery, "restore_service", "recovery.restore_service")
    wrap(FleetEngine, "ingest_many", "fleet.ingest_many")
    wrap(FleetEngine, "advance_slots", "fleet.advance_slots")
    wrap(FleetEngine, "place_checked", "fleet.place_checked", keep=False)
    wrap(FleetEngine, "revise_bid", "fleet.revise_bid", keep=False)
    wrap(AddOnState, "apply_changes", "core.apply_changes", keep=False)
    wrap(AddOnState, "exit_price", "core.exit_price", keep=False)
    for method in ("halo_members", "progenitor_histogram", "top_contributor",
                   "halo_chain", "contributors_to"):
        wrap(engine.QueryEngine, method, "db.query")
    wrap(catalog.Catalog, "snapshot", "db.snapshot", keep=False)
