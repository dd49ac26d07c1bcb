"""Observability overhead: the serving stack with metrics on vs off.

:mod:`repro.obs` instruments the hot serving paths — per-request server
accounting, WAL append/fsync timers, per-kind dispatch timers, per-slot
fleet timers. The whole point of the design (coarse granularity, no
per-bid metrics, timers that skip the clock when disabled) is that
having it all **enabled** costs almost nothing. This benchmark proves
it on the two workloads the instrumentation rides:

* the durable HTTP serving workload of ``bench_server.py`` (per-request
  counters + latency histograms + WAL append/fsync timers on every
  group commit);
* an in-process fleet period (the per-slot advance timer of
  :class:`~repro.fleet.FleetEngine`).

Each workload runs alternately with the process-wide registry disabled
and enabled (best of ``REPEATS`` per mode); the headline ratio is
``disabled_seconds / enabled_seconds`` per workload, and the floor
(full runs only) asserts the enabled run keeps >= 95% of the disabled
throughput — i.e. the instrumentation tax stays under 5%. Run as a
script for the table:

    PYTHONPATH=src python benchmarks/bench_obs.py
"""

from __future__ import annotations

import tempfile
import threading
import time

import harness
from repro import obs
from repro.cloudsim import OptimizationCatalog
from repro.fleet import FleetEngine
from repro.gateway import Configure, PricingService, SubmitBids
from repro.gateway.client import GatewayClient
from repro.gateway.server import ServerConfig, ServerThread
from repro.workloads.fleet import fleet_batches, fleet_game_costs

#: Server workload scale: (requests, client threads).
REQUESTS, THREADS = harness.scale((6_000, 8), (200, 4))

#: Fleet workload scale: (games, users, slots).
GAMES, USERS, SLOTS = harness.scale((40, 60_000, 400), (8, 2_000, 60))

REPEATS = 3
SEED = 2012
OPTS = tuple((f"opt{i}", 50.0) for i in range(8))

#: Enabled must keep >= 95% of disabled throughput (tax < ~5%).
OVERHEAD_FLOOR = 0.95


def _serve_once() -> float:
    """One durable serving run; returns wall seconds."""
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

        def worker(index: int) -> None:
            client = GatewayClient(host, port)
            try:
                for user in range(index, REQUESTS, THREADS):
                    client.request(
                        SubmitBids(
                            tenant=f"u{user}",
                            bids=((OPTS[user % len(OPTS)][0], 1, (1.0,)),),
                        )
                    )
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
        setup.close()
        thread.stop()
        service.close()
    return elapsed


def _fleet_once(catalog, batches) -> float:
    """One in-process fleet period; returns wall seconds."""
    begin = time.perf_counter()
    fleet = FleetEngine(catalog, SLOTS)
    fleet.ingest_many(batches)
    fleet.run_to_end()
    return time.perf_counter() - begin


def _best_of_modes(run) -> tuple[float, float]:
    """(disabled_best, enabled_best) seconds, modes alternated so drift
    hits both equally."""
    disabled, enabled = [], []
    for _ in range(REPEATS):
        obs.disable()
        try:
            disabled.append(run())
        finally:
            obs.enable()
        enabled.append(run())
    return min(disabled), min(enabled)


def test_obs_overhead_under_five_percent(emit):
    """Acceptance bar: enabled-metrics throughput >= 95% of disabled."""
    obs.reset()
    costs = fleet_game_costs(SEED, GAMES, 30.0)
    catalog = OptimizationCatalog.from_costs(costs)
    batches = fleet_batches(SEED + 1, USERS, GAMES, SLOTS, 4)

    server_off, server_on = _best_of_modes(_serve_once)
    fleet_off, fleet_on = _best_of_modes(
        lambda: _fleet_once(catalog, batches)
    )
    # The registry really was collecting during the enabled runs.
    snapshot = obs.snapshot()
    assert "repro_server_requests_total" in snapshot
    assert "repro_wal_append_seconds" in snapshot
    assert "repro_fleet_slot_advance_seconds" in snapshot

    server_ratio = server_off / server_on
    fleet_ratio = fleet_off / fleet_on
    headline = min(server_ratio, fleet_ratio)
    emit(
        "obs_overhead",
        "\n".join(
            [
                "== repro.obs overhead: metrics disabled vs enabled "
                f"(best of {REPEATS}) ==",
                f"{'workload':>12} {'off s':>9} {'on s':>9} {'off/on':>8}",
                f"{'server':>12} {server_off:>9.3f} {server_on:>9.3f} "
                f"{server_ratio:>7.3f}x",
                f"{'fleet':>12} {fleet_off:>9.3f} {fleet_on:>9.3f} "
                f"{fleet_ratio:>7.3f}x",
                f"(server: {REQUESTS} requests / {THREADS} threads, WAL on; "
                f"fleet: {GAMES} games / {USERS} users / {SLOTS} slots)",
            ]
        ),
    )
    harness.record(
        "obs_overhead",
        # Bigger is better: disabled/enabled throughput ratio, worst
        # workload. 1.0 means free; under OVERHEAD_FLOOR means the
        # instrumentation tax broke its budget.
        speedup=headline,
        n=REQUESTS,
        seed=SEED,
        floor=OVERHEAD_FLOOR if harness.enforce_floors() else None,
        extra={
            "server_ratio": round(server_ratio, 4),
            "fleet_ratio": round(fleet_ratio, 4),
            "server_off_s": round(server_off, 3),
            "server_on_s": round(server_on, 3),
            "fleet_off_s": round(fleet_off, 3),
            "fleet_on_s": round(fleet_on, 3),
            "threads": THREADS,
            "fleet": {"games": GAMES, "users": USERS, "slots": SLOTS},
        },
    )
    if harness.enforce_floors():
        assert headline >= OVERHEAD_FLOOR, (
            f"metrics overhead broke the 5% budget: server {server_ratio:.3f}x, "
            f"fleet {fleet_ratio:.3f}x disabled/enabled"
        )


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_obs_overhead_under_five_percent(_Stdout())
