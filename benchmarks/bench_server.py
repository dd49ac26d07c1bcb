"""Serving-layer throughput, tail latency, and group-commit efficiency.

The asyncio gateway server (:mod:`repro.gateway.server`) converts
client concurrency into *batch size*: concurrently arriving envelopes
share one batched ``dispatch`` call and — on a durable service — one WAL
fsync. This benchmark drives a durable in-process server over real
HTTP/1.1 loopback sockets with a pool of blocking clients and reports:

* sustained **requests/second** and **p50/p99 latency** at the headline
  scale (50,000 distinct tenants submitting bids), the percentiles by
  nearest rank over every raw client-observed sample;
* **fsyncs per request** — the group-commit dividend. The recorded
  headline is its inverse, requests-per-fsync (bigger is better), with
  a hard floor of 1.0: if batching ever degrades to an fsync per
  request, the durable serving path has regressed;
* **overload shedding**: a deliberately tiny admission bound under a
  stalled core must shed typed ``overloaded`` replies while every
  admitted request still completes — no hangs, no silent drops.

Run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_server.py
"""

from __future__ import annotations

import asyncio
import math
import tempfile
import threading
import time

import harness
from repro.gateway import Configure, ErrorReply, PricingService, SubmitBids
from repro.gateway.client import GatewayClient
from repro.gateway.server import ServerConfig, ServerThread

#: (users, client threads) — the headline scale and the CI smoke scale.
USERS, THREADS = harness.scale((50_000, 16), (400, 4))

SEED = 2012
OPTS = tuple((f"opt{i}", 50.0) for i in range(8))


def _nearest_rank(samples: list, q: float) -> float:
    """The ``q`` quantile of raw samples by nearest rank (``q`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _run_throughput():
    """Drive USERS unique-tenant submissions through a durable server;
    returns (req_per_s, p50_s, p99_s, fsyncs_per_request)."""
    with tempfile.TemporaryDirectory() as tmp:
        service = PricingService()
        service.attach_wal(tmp)
        thread = ServerThread(
            service,
            ServerConfig(
                port=0, max_pending=4 * THREADS, tenant_pending=THREADS
            ),
        )
        host, port = thread.start()
        setup = GatewayClient(host, port)
        setup.request(Configure(optimizations=OPTS, horizon=4))
        # Raw samples, one list per thread (no lock on the hot path),
        # merged for exact percentiles: histogram buckets would round.
        latencies: list[list] = [[] for _ in range(THREADS)]
        failures: list = []

        def worker(index: int) -> None:
            client = GatewayClient(host, port)
            samples = latencies[index]
            try:
                for user in range(index, USERS, THREADS):
                    request = SubmitBids(
                        tenant=f"u{user}",
                        bids=((OPTS[user % len(OPTS)][0], 1, (1.0,)),),
                    )
                    begin = time.perf_counter()
                    reply = client.request(request)
                    samples.append(time.perf_counter() - begin)
                    if isinstance(reply, ErrorReply):
                        failures.append(reply)
            finally:
                client.close()

        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        begin = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - begin
        health = setup.health()
        setup.close()
        thread.stop()
        service.close()

    assert not failures, f"bids rejected during the bench: {failures[:3]}"
    assert health["dispatched"] == USERS + 1  # every submit + the config
    merged = [sample for samples in latencies for sample in samples]
    assert len(merged) == USERS
    p50 = _nearest_rank(merged, 0.5)
    p99 = _nearest_rank(merged, 0.99)
    fsync_ratio = health["fsyncs"] / health["dispatched"]
    return USERS / elapsed, p50, p99, fsync_ratio


def _run_shedding():
    """Flood a tiny admission window over a stalled core; returns
    (served, shed, untyped_failures)."""

    async def stall(_requests) -> None:
        await asyncio.sleep(0.002)  # a deliberately slow pricing core

    service = PricingService()
    thread = ServerThread(
        service,
        ServerConfig(port=0, max_pending=THREADS),
        stall_hook=stall,
    )
    host, port = thread.start()
    served = []
    shed = []
    untyped = []
    per_thread = max(USERS // (THREADS * 50), 10)

    def worker() -> None:
        client = GatewayClient(host, port, max_attempts=1)
        try:
            for _ in range(per_thread):
                try:
                    reply = client.request(
                        Configure(optimizations=OPTS, horizon=4)
                    )
                except Exception as exc:  # hangs/raises are the failure mode
                    untyped.append(exc)
                    continue
                if isinstance(reply, ErrorReply):
                    assert reply.code == "overloaded", reply
                    shed.append(reply)
                else:
                    served.append(reply)
        finally:
            client.close()

    workers = [threading.Thread(target=worker) for _ in range(2 * THREADS)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    thread.stop()
    service.close()
    return len(served), len(shed), len(untyped)


def test_server_throughput_and_group_commit(emit):
    """Acceptance bar: fsyncs/request < 1 on the durable serving path."""
    req_per_s, p50, p99, fsync_ratio = _run_throughput()
    served, shed, untyped = _run_shedding()
    total = served + shed
    emit(
        "server_http",
        "\n".join(
            [
                "== asyncio serving layer over HTTP/1.1 loopback "
                f"({USERS} tenants, {THREADS} client threads, WAL on) ==",
                f"{'req/s':>10} {'p50 ms':>8} {'p99 ms':>8} {'fsync/req':>10}",
                f"{req_per_s:>10.0f} {p50 * 1e3:>8.2f} {p99 * 1e3:>8.2f} "
                f"{fsync_ratio:>10.3f}",
                f"overload flood: {served} served + {shed} shed typed "
                f"of {total} ({untyped} untyped failures)",
            ]
        ),
    )
    harness.record(
        "server_http",
        # Harness convention is "bigger is better": requests per fsync.
        # 1.0 means group commit stopped batching entirely.
        speedup=1.0 / max(fsync_ratio, 1e-9),
        n=USERS,
        seed=SEED,
        floor=1.0,
        extra={
            "req_per_s": round(req_per_s, 1),
            "p50_ms": round(p50 * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3),
            "fsyncs_per_request": round(fsync_ratio, 4),
            "threads": THREADS,
            "overload": {"served": served, "shed": shed, "untyped": untyped},
        },
    )
    assert untyped == 0, f"{untyped} requests failed without a typed reply"
    assert served > 0  # admission always lets *some* work through
    if harness.enforce_floors():
        assert fsync_ratio < 1.0, (
            f"group commit degraded to {fsync_ratio:.3f} fsyncs/request "
            f"at {USERS} tenants / {THREADS} threads"
        )
        assert shed > 0, "the overload flood never tripped admission control"


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_server_throughput_and_group_commit(_Stdout())
