"""Open- and closed-loop load over ``GatewayClient`` connections.

One thread per connection, one ``GatewayClient`` per thread, at most
two and never more than ``os.cpu_count()``. Every request carries the connection it must
travel on, so a tenant's requests stay in order on one connection: its
revision is sent only after its bid was answered, and the trace join in
``run.py`` finds at most one request in flight per tenant.

Open loop: each request is due at a fixed offset from the phase start and
is timed from that due time, so a stall that delays later sends shows up
in their latency; how late sends ran is reported as the generator's lag.
Closed loop: each connection sends its next request as soon as the
previous one is answered, until the phase ends.

All timestamps are ``time.monotonic()``, the host's shared monotonic clock,
so they can be joined with spans recorded in the server process.
"""

from __future__ import annotations

import gc
import math
import os
import threading
import time

from repro.errors import ReproError
from repro.gateway.client import GatewayClient
from repro.gateway.envelopes import ErrorReply


class Op:
    """One request of a phase and what happened to it."""

    __slots__ = (
        "due", "request", "cls", "conn", "check",
        "sent", "done", "reply", "error",
    )

    def __init__(self, due, request, cls, conn, check=None):
        self.due = due  # seconds after the phase start (open loop only)
        self.request = request
        self.cls = cls  # "write", "read" or "tick"
        self.conn = conn
        self.check = check  # callable(reply) -> error message or None
        self.sent = None
        self.done = None
        self.reply = None
        self.error = None

    @property
    def ok(self) -> bool:
        return self.done is not None and self.error is None


def connections() -> int:
    """How many client connections (and threads) the load may use."""
    return max(1, min(2, os.cpu_count() or 1))


def send(client, op) -> None:
    """Send one op and record its times, reply and any error."""
    op.sent = time.monotonic()
    try:
        reply = client.request(op.request)
    except ReproError as exc:
        op.done = time.monotonic()
        op.error = f"{type(exc).__name__}: {exc}"
        return
    op.done = time.monotonic()
    op.reply = reply
    if isinstance(reply, ErrorReply):
        op.error = f"[{reply.code}] {reply.message}"
    elif op.check is not None:
        op.error = op.check(reply)


def _run_threads(target, clients) -> None:
    """Run one thread per connection; the generator's own garbage
    collector is paused meanwhile so its pauses do not read as latency."""
    threads = [
        threading.Thread(target=target, args=(i, client), daemon=True)
        for i, client in enumerate(clients)
    ]
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()


def open_loop(clients, ops) -> float:
    """Send every op at its due time on its connection; returns the
    phase's start instant (``op.due`` is relative to it)."""
    lanes = [[] for _ in clients]
    for op in sorted(ops, key=lambda o: o.due):
        lanes[op.conn].append(op)
    start = time.monotonic() + 0.05

    def lane(index, client):
        for op in lanes[index]:
            delay = start + op.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            send(client, op)

    _run_threads(lane, clients)
    return start


def closed_loop(clients, lanes, seconds: float):
    """Each connection sends its lane's ops back to back for ``seconds``;
    returns ``(ops sent, elapsed seconds)``. A lane that runs dry stops
    early, so lanes must hold more ops than the phase can send."""
    sent = [[] for _ in clients]
    start = time.monotonic()
    stop = start + seconds

    def lane(index, client):
        for op in lanes[index]:
            if time.monotonic() >= stop:
                return
            send(client, op)
            sent[index].append(op)

    _run_threads(lane, clients)
    elapsed = time.monotonic() - start
    for index, ops in enumerate(sent):
        if len(ops) == len(lanes[index]):
            raise RuntimeError(
                f"closed-loop lane {index} ran dry after {len(ops)} requests; "
                "generate more"
            )
    return [op for ops in sent for op in ops], elapsed


def open_clients(host, port, count):
    return [GatewayClient(host, port, timeout=30.0) for _ in range(count)]


def nearest_rank(samples, q: float) -> float:
    """The ``q`` quantile of raw samples by nearest rank (``q`` in (0, 1])."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples that lie beyond the nearest-rank ``q`` quantile of ``count``."""
    return count - max(1, math.ceil(q * count))
