"""Deterministic network-fault injection for the gateway server.

Where ``tests/crashpoints.py`` kills the *service* at WAL boundaries,
this module breaks the *network* around a live
:class:`~repro.gateway.server.GatewayServer`: clients that dribble bytes
(slow-loris), vanish mid-body, or tear the connection down before
reading their reply, and handlers stalled at the pre-dispatch seam. Each
fault is a plain blocking function against ``(host, port)``, so property
tests can interleave them at exact points of a sequential workload and
still compare final state bit-for-bit against a serial, fault-free run
(:func:`serial_fingerprint`).

The invariant every fault must preserve: a request the server never
fully received (or cancelled before dispatch) has **no** effect, and a
request the server dispatched has **exactly** its serial effect —
regardless of what the network did afterwards.

This module is a helper library for ``tests/test_netfaults.py``, not a
test module itself.
"""

from __future__ import annotations

import json
import socket
import time

from repro.gateway import fingerprint
from repro.gateway.envelopes import (
    AdvanceSlots,
    Configure,
    LedgerQuery,
    SubmitBids,
    to_dict,
)
from repro.gateway.service import PricingService

__all__ = [
    "workload",
    "serial_fingerprint",
    "drive",
    "slow_loris",
    "mid_body_disconnect",
    "torn_write",
    "Stall",
    "wait_for_dispatched",
]


def workload(tenants: int = 3, opts: int = 4, horizon: int = 6) -> list:
    """A small deterministic multi-tenant scenario (requests, in order)."""
    steps: list = [
        Configure(
            optimizations=tuple((f"opt{i}", 4.0) for i in range(opts)),
            horizon=horizon,
        )
    ]
    for index in range(tenants * opts):
        tenant = f"t{index % tenants}"
        opt = f"opt{index % opts}"
        steps.append(
            SubmitBids(
                tenant=tenant,
                bids=((opt, 1, (5.0 + index, 5.0 + index)),),
            )
        )
    steps.append(AdvanceSlots(slots=2))
    for index in range(tenants):
        steps.append(LedgerQuery(tenant=f"t{index}"))
    steps.append(AdvanceSlots(slots=1))
    return steps


def serial_fingerprint(steps) -> dict:
    """Final-state fingerprint of a serial, fault-free, network-free run.

    Drives the batched dispatch path one envelope at a time — the same facade
    entry the server's group commit uses — so the comparison isolates
    what the *fault layer* did, not scalar-vs-columnar intake (whose
    equivalence ``tests/test_gateway.py`` covers separately).
    """
    service = PricingService()
    for step in steps:
        service.dispatch([step])
    return fingerprint(service)


def drive(client, steps) -> list:
    """Send every step through one blocking client; returns the replies."""
    return [client.request(step) for step in steps]


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=10)
    sock.settimeout(10)
    return sock


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    except OSError:
        pass
    return b"".join(chunks)


def slow_loris(host: str, port: int) -> bytes:
    """Dribble half a request head and stall until the server cuts us off.

    Returns the raw response bytes — the server must answer with a typed
    ``deadline_exceeded`` 408, never leave the connection hanging.
    """
    sock = _connect(host, port)
    try:
        sock.sendall(b"POST /v1/bids HTTP/1.1\r\nContent-Le")
        return _read_all(sock)
    finally:
        sock.close()


def mid_body_disconnect(host: str, port: int, request=None) -> None:
    """Promise a body, send half of it, vanish.

    The envelope (a mutating one by default) must never dispatch: the
    server cannot know how it would have ended.
    """
    if request is None:
        request = SubmitBids(tenant="ghost", bids=(("opt0", 1, (99.0,)),))
    body = json.dumps(to_dict(request)).encode()
    head = (
        f"POST /v1/bids HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    sock = _connect(host, port)
    try:
        sock.sendall(head + body[: len(body) // 2])
    finally:
        sock.close()


def torn_write(host: str, port: int, request) -> None:
    """Send a complete valid request, then vanish before the reply.

    The write side tears instead of the read side: the server dispatched
    the envelope (it fully arrived), discovers the dead peer only when
    responding, and must absorb that quietly. The effect **is** durable —
    serial baselines must include this envelope.
    """
    payload = to_dict(request)
    body = json.dumps(payload).encode()
    path = "/v1/bids" if payload["kind"] in ("SubmitBids", "ReviseBid") else "/v1/slots"
    head = (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    sock = _connect(host, port)
    try:
        sock.sendall(head + body)
        # Abort with RST (SO_LINGER 0) instead of a graceful FIN so the
        # server's response write genuinely fails.
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
    finally:
        sock.close()


class Stall:
    """A ``stall_hook`` that sleeps before chosen batches (loop-side).

    ``delays`` maps batch index (0-based, in flush order) to seconds of
    stall. Everything the server claims *after* the stall must re-check
    for deadline-cancelled entries — that re-check is exactly what this
    seam exists to exercise.
    """

    def __init__(self, delays: dict) -> None:
        self.delays = dict(delays)
        self.batches = 0
        self.seen: list[list] = []

    async def __call__(self, requests: list) -> None:
        import asyncio

        index = self.batches
        self.batches += 1
        self.seen.append(list(requests))
        delay = self.delays.get(index, 0.0)
        if delay:
            await asyncio.sleep(delay)


def wait_for_dispatched(client, count: int, *, timeout: float = 5.0) -> dict:
    """Poll ``/v1/healthz`` until ``dispatched`` reaches ``count``.

    Faults like :func:`torn_write` get no reply to synchronize on; the
    health counters are the observable truth of what reached the core.
    """
    deadline = time.monotonic() + timeout
    while True:
        health = client.health()
        if health["dispatched"] >= count:
            return health
        if time.monotonic() > deadline:
            raise AssertionError(
                f"server never dispatched {count} envelopes: {health}"
            )
        time.sleep(0.005)
