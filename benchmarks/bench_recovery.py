"""Durability tax and recovery speed of the write-ahead-logged gateway.

Five measurements, one harness:

* **Steady-state overhead (gated)** — the same running-period stream is
  driven through a plain :class:`repro.gateway.PricingService` and one
  with :meth:`attach_wal` active: every round is one batched ``dispatch``
  call mixing a multi-slot ``AdvanceSlots`` tick, an analyst report
  burst of relational ``RunQuery`` envelopes against a six-figure-row
  snapshot table, a ``LedgerQuery`` and a late revisable ``SubmitBids``.
  The snapshot table is warmed (one untimed scan seals its columnar
  shadow) before either side is measured. Batched ``dispatch``
  is the WAL's group-commit boundary — one atomic record, one fsync per
  round — so the durability tax is one serialization pass plus one
  fsync against milliseconds of pricing and query work. The acceptance
  bar is **< 10% overhead with the WAL on** at the largest scale.
  Before any timing is trusted, the two sides' durable fingerprints
  (catalog, workload log, ledger, events, slot) are asserted
  bit-identical and the WAL directory is recovered and checked against
  the live service.

* **Bulk-intake burst (reported, not gated)** — the one-off period-open
  one batched ``dispatch`` of one envelope per user. The engine ingests 50k
  users in tens of milliseconds, so the WAL's single giant record
  (serialize + fsync) dominates; the table reports that burst tax
  honestly instead of hiding it inside the steady-state number.

* **Recovery wall-clock vs WAL length** — a service is killed after N
  singly-dispatched (therefore singly-logged) envelopes and
  :meth:`PricingService.recover` is timed rebuilding it from the base
  checkpoint plus an N-record replay; the recovered fingerprint must
  match the pre-kill service exactly. The rows land machine-readable in
  the trajectory entry (``extra["recovery"]``).

* **Tail checkpoint vs WAL alone (zero re-dispatch gated)** — an online
  period of revisable one-bid envelopes and ticks, each dispatched as
  its own batch, is recovered twice: from the WAL alone (base
  checkpoint plus every record) and from a checkpoint written after the
  last record. Both land on the live fingerprint; the checkpoint path
  must re-dispatch zero envelopes (read from ``repro_dispatch_total``,
  asserted at every scale). Times, directory sizes and the checkpoint
  path's stage split land in ``extra["tail_checkpoint"]``.

* **The same at 1M users (reported)** — a bulk-fed period of 200 games
  run halfway, so the checkpoint carries a million-user event log and
  ledger (``extra["tail_checkpoint_bulk"]``; smoke mode shrinks it).

Run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import harness
from repro import obs
from repro.cloudsim.catalog import OptimizationCatalog
from repro.db.schema import Schema
from repro.db.table import Table
from repro.gateway import fingerprint
from repro.gateway.envelopes import (
    AdvanceSlots,
    ErrorReply,
    LedgerQuery,
    RunQuery,
    SubmitBids,
)
from repro.gateway.service import BulkAcks, PricingService
from repro.gateway.wal import recovery
from repro.gateway.wal.checkpoint import (
    CHECKPOINT_GLOB,
    checkpoint_path,
    restore_service,
)
from repro.workloads.fleet import fleet_arrival_trace, fleet_game_costs

#: (games, users, slots, rounds, queries, table_rows) rows of the
#: overhead table; the last row is the bar. Smoke mode shrinks them so
#: CI proves the benchmark code runs.
SCALES = harness.scale(
    (
        (50, 12_500, 1000, 10, 6, 120_000),
        (200, 50_000, 6000, 15, 10, 240_000),
    ),
    ((5, 300, 50, 5, 2, 2_000),),
)

#: WAL lengths (records) for the recovery-time sweep.
WAL_LENGTHS = harness.scale((100, 400, 1600), (10, 30))

#: (games, bids) of the tail-checkpoint period: one-bid revisable
#: envelopes of durations 1-4 starting 2-22 slots ahead, one tick per
#: ``TAIL_BIDS_PER_TICK`` bids.
TAIL_SCALE = harness.scale((50, 4000), (8, 200))
TAIL_BIDS_PER_TICK = 50
TAIL_HORIZON = 200

#: (games, users, slots) of the bulk-fed tail-checkpoint period.
BULK_TAIL_SCALE = harness.scale((200, 1_000_000, 2000), (10, 2000, 50))

#: Maximum tolerated WAL-on/WAL-off wall-clock overhead at the bar scale.
OVERHEAD_CEILING = 0.10
SEED = 2012
MAX_DURATION = 4
MEAN_COST = 30.0
HALO_GROUPS = 400


def _intake(trace) -> list[SubmitBids]:
    return [
        SubmitBids(
            tenant=arrival.user,
            bids=(
                (
                    arrival.optimization,
                    arrival.bid.start,
                    arrival.bid.schedule.values,
                ),
            ),
        )
        for arrival in trace
    ]


def _snapshot_table(rows: int) -> Table:
    table = Table("snap_01", Schema.of(pid="int", halo="int"))
    for i in range(rows):
        table.insert((i, i % HALO_GROUPS))
    return table


def _steady_rounds(
    games: int, slots: int, rounds: int, queries: int, trace
) -> list[list]:
    """The post-intake period as batched-``dispatch`` group-commit rounds.

    Each round is one multi-slot tick, an analyst report burst of
    ``queries`` membership pulls, one tenant statement, and (while a
    future slot exists) one late revisable bid.
    """
    chunk = slots // rounds
    steps = []
    for i in range(rounds):
        step = [
            AdvanceSlots(slots=chunk),
            *(
                RunQuery(
                    tenant="analyst",
                    query="members",
                    table="snap_01",
                    halo=(i * 7 + q * 13 + 1) % HALO_GROUPS,
                )
                for q in range(queries)
            ),
            LedgerQuery(tenant=trace[i % len(trace)].user),
        ]
        start = (i + 1) * chunk + 1
        if start <= slots:  # the final tick has no future slot to bid on
            step.append(
                SubmitBids(
                    tenant=f"late-{i}",
                    bids=((f"game-{i % games}", start, (5.0,)),),
                    revisable=True,
                )
            )
        steps.append(step)
    return steps


def measure_steady_point(
    games: int,
    users: int,
    slots: int,
    rounds: int,
    queries: int,
    table_rows: int,
    repeats: int = 5,
) -> tuple[float, float, float, float]:
    """Best-of-``repeats`` seconds for one scale.

    Returns ``(plain_s, wal_s, burst_plain_s, burst_wal_s)``: the timed
    steady-state stream and the one-off bulk-intake burst, each on both
    sides. Parity (identical fingerprints, recoverable WAL) is asserted
    on the first repeat before any timing is trusted.
    """
    costs = fleet_game_costs(SEED, games, MEAN_COST)
    trace = fleet_arrival_trace(SEED + 1, users, games, slots, MAX_DURATION)
    intake = _intake(trace)
    rounds_steps = _steady_rounds(games, slots, rounds, queries, trace)
    catalog = OptimizationCatalog.from_costs(costs)

    def _build(wal_dir: Path | None) -> PricingService:
        service = PricingService(catalog, horizon=slots)
        service.db.create_table(_snapshot_table(table_rows))
        # Warm the snapshot table (first scan seals the columnar shadow,
        # a one-time cost that would otherwise swamp round timings) —
        # before the WAL attaches, so neither side logs the warmup.
        reply = service.dispatch(
            RunQuery(tenant="analyst", query="members", table="snap_01", halo=0)
        )
        if isinstance(reply, ErrorReply):
            raise AssertionError(f"warmup query failed: {reply.message}")
        if wal_dir is not None:
            service.attach_wal(wal_dir)  # base checkpoint, untimed
        return service

    def _run(service) -> tuple[float, float]:
        # Same GC regime for both sides: the resident request population
        # makes generational passes near-full scans, and which side eats
        # one is allocation-clock luck.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            acks = service.dispatch(intake)
            if not isinstance(acks, BulkAcks):  # an envelope was refused
                refused = [r for r in acks if isinstance(r, ErrorReply)]
                raise AssertionError(f"bulk intake failed: {refused[0]}")
            burst = time.perf_counter() - started
            started = time.perf_counter()
            for step in rounds_steps:
                for reply in service.dispatch(step):
                    if isinstance(reply, ErrorReply):
                        raise AssertionError(
                            f"steady-state dispatch failed: [{reply.code}] "
                            f"{reply.message}"
                        )
            return burst, time.perf_counter() - started
        finally:
            gc.enable()

    # Parity first: identical fingerprints on both sides, and the WAL
    # actually recovers to the state of the live service it logged.
    with tempfile.TemporaryDirectory() as tmp:
        plain = _build(None)
        burst_plain, plain_s = _run(plain)
        durable = _build(Path(tmp))
        burst_wal, wal_s = _run(durable)
        if fingerprint(plain) != fingerprint(durable):
            raise AssertionError("WAL-attached run diverges from the plain run")
        live = fingerprint(durable)
        durable.close()
        recovered = PricingService.recover(Path(tmp))
        if fingerprint(recovered) != live:
            raise AssertionError("recovered state diverges from the live run")
        recovered.close()
        del plain, durable, recovered, live
    gc.collect()

    for _ in range(repeats - 1):
        b, s = _run(_build(None))
        burst_plain, plain_s = min(burst_plain, b), min(plain_s, s)
        with tempfile.TemporaryDirectory() as tmp:
            b, s = _run(_build(Path(tmp)))
        burst_wal, wal_s = min(burst_wal, b), min(wal_s, s)
    return plain_s, wal_s, burst_plain, burst_wal


def measure_recovery_point(records: int) -> float:
    """Seconds to recover a service whose WAL holds ``records`` records."""
    games, slots = 16, 64
    costs = fleet_game_costs(SEED, games, MEAN_COST)
    trace = fleet_arrival_trace(SEED + 1, records, games, slots, MAX_DURATION)
    catalog = OptimizationCatalog.from_costs(costs)
    with tempfile.TemporaryDirectory() as tmp:
        service = PricingService(catalog, horizon=slots)
        service.attach_wal(Path(tmp))
        for request in _intake(trace):
            reply = service.dispatch(request)
            if isinstance(reply, ErrorReply):
                raise AssertionError(f"dispatch failed: {reply.message}")
        expected = fingerprint(service)
        service.close()

        started = time.perf_counter()
        recovered = PricingService.recover(Path(tmp))
        elapsed = time.perf_counter() - started
        if fingerprint(recovered) != expected:
            raise AssertionError(
                f"recovery of a {records}-record WAL diverges from the "
                "pre-kill service"
            )
        recovered.close()
    return elapsed


def _dispatched() -> float:
    """Envelopes dispatched so far, over every kind."""
    return sum(
        value
        for name, _, _, value in obs.REGISTRY.wire()
        if name == "repro_dispatch_total"
    )


def _digest(service: PricingService) -> str:
    """A hash of the service's :func:`fingerprint`: at a million users the
    encoded fingerprint itself is hundreds of megabytes, so races compare
    digests instead of holding it."""
    text = json.dumps(fingerprint(service), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _size_mb(directory: Path) -> float:
    return sum(p.stat().st_size for p in directory.iterdir()) / 1e6


def _tail_period(games: int, bids: int) -> tuple[dict, list]:
    """Costs on an even grid and the online period's envelopes."""
    rng = np.random.default_rng(SEED)
    costs = {f"game-{j}": 10.0 + 40.0 * j / games for j in range(games)}
    steps: list = []
    slot = 0
    for i in range(bids):
        duration = int(rng.integers(1, 5))
        values = tuple(float(v) for v in rng.uniform(0.5, 4.0, duration).round(2))
        game = f"game-{int(rng.integers(games))}"
        start = slot + int(rng.integers(2, 23))
        steps.append(
            SubmitBids(
                tenant=f"user-{i}", bids=((game, start, values),), revisable=True
            )
        )
        if (i + 1) % TAIL_BIDS_PER_TICK == 0:
            steps.append(AdvanceSlots(slots=1))
            slot += 1
    return costs, steps


def _race_recoveries(live_dir: Path, live: str, repeats: int) -> dict:
    """Recover ``live_dir`` (tail checkpoint) and a copy holding only the
    base checkpoint, alternately; best-of-``repeats`` seconds, directory
    sizes, and the envelopes each recovery re-dispatched."""
    wal_dir = live_dir.with_name(live_dir.name + "-wal-only")
    shutil.copytree(live_dir, wal_dir)
    for path in wal_dir.glob(CHECKPOINT_GLOB):
        if path != checkpoint_path(wal_dir, 0):
            path.unlink()
    out: dict = {}
    sides = (("wal_only", wal_dir), ("tail", live_dir))
    for _ in range(repeats):
        for name, directory in sides:
            gc.collect()
            before = _dispatched()
            started = time.perf_counter()
            recovered = PricingService.recover(directory)
            elapsed = time.perf_counter() - started
            out[f"{name}_redispatched"] = int(_dispatched() - before)
            if _digest(recovered) != live:
                raise AssertionError(f"{name} recovery diverges from the live run")
            recovered.close()
            del recovered
            out[f"{name}_s"] = round(min(out.get(f"{name}_s", elapsed), elapsed), 4)
    for name, directory in sides:
        out[f"{name}_mb"] = round(_size_mb(directory), 3)
    # Where the checkpoint path's time goes, stage by stage.
    newest = max(live_dir.glob(CHECKPOINT_GLOB))
    started = time.perf_counter()
    recovery.read_log(live_dir)
    read_s = time.perf_counter() - started
    state = recovery.load_checkpoint(newest)
    load_s = time.perf_counter() - started - read_s
    restore_service(state).close()
    restore_s = time.perf_counter() - started - read_s - load_s
    out["tail_stages_s"] = {
        "read_log": round(read_s, 4),
        "load_checkpoint": round(load_s, 4),
        "restore_service": round(restore_s, 4),
    }
    out["ratio"] = round(out["tail_s"] / out["wal_only_s"], 3)
    if out["tail_redispatched"] != 0:
        raise AssertionError(
            f"recovery from a tail checkpoint re-dispatched "
            f"{out['tail_redispatched']} envelopes; it must dispatch none"
        )
    return out


def measure_tail_checkpoint(games: int, bids: int, repeats: int = 3) -> dict:
    """WAL-only recovery against recovery from a tail checkpoint, on an
    online period dispatched one envelope per batch."""
    costs, steps = _tail_period(games, bids)
    with tempfile.TemporaryDirectory() as tmp:
        live_dir = Path(tmp) / "live"
        service = PricingService(costs, horizon=TAIL_HORIZON)
        service.attach_wal(live_dir)
        for step in steps:
            (reply,) = service.dispatch([step])
            if isinstance(reply, ErrorReply):
                raise AssertionError(f"dispatch failed: {reply.message}")
        service.checkpoint()
        live = _digest(service)
        implemented = len(service.fleet.implemented)
        service.close()
        out = _race_recoveries(live_dir, live, repeats)
    if out["wal_only_redispatched"] != len(steps):
        raise AssertionError("WAL-only recovery must replay every envelope")
    return {"games": games, "bids": bids, "implemented": implemented, **out}


def measure_bulk_tail(games: int, users: int, slots: int) -> dict:
    """The same race on a bulk-fed period run halfway: one intake batch,
    one multi-slot tick, then the tail checkpoint."""
    costs = fleet_game_costs(SEED, games, MEAN_COST)
    intake = _intake(
        fleet_arrival_trace(SEED + 1, users, games, slots, MAX_DURATION)
    )
    with tempfile.TemporaryDirectory() as tmp:
        live_dir = Path(tmp) / "live"
        service = PricingService(costs, horizon=slots)
        service.attach_wal(live_dir)
        if not isinstance(service.dispatch(intake), BulkAcks):
            raise AssertionError("bulk intake failed")
        del intake
        service.dispatch(AdvanceSlots(slots=slots // 2))
        service.checkpoint()
        live = _digest(service)
        service.close()
        del service
        out = _race_recoveries(live_dir, live, repeats=1)
    return {"games": games, "users": users, "slots": slots, **out}


def test_wal_overhead_and_recovery_time(emit):
    """Acceptance bar: < 10% WAL overhead at 200 games / 50k users."""
    rows = []
    for games, users, slots, rounds, queries, table_rows in SCALES:
        plain_s, wal_s, burst_plain, burst_wal = measure_steady_point(
            games, users, slots, rounds, queries, table_rows
        )
        rows.append(
            (games, users, slots, plain_s, wal_s, burst_plain, burst_wal)
        )
    recovery_rows = [
        (records, measure_recovery_point(records)) for records in WAL_LENGTHS
    ]
    tail = measure_tail_checkpoint(*TAIL_SCALE)
    bulk_tail = measure_bulk_tail(*BULK_TAIL_SCALE)
    table = "\n".join(
        [
            "== steady-state stream, WAL on vs off "
            "(bit-identical fingerprints and recovery asserted) ==",
            f"{'games':>6} {'users':>7} {'slots':>6} "
            f"{'plain s':>9} {'wal s':>9} {'overhead':>9} {'burst tax':>10}",
        ]
        + [
            f"{g:>6} {u:>7} {z:>6} {p:>9.3f} {w:>9.3f} {w / p - 1.0:>8.1%} "
            f"{bw / bp - 1.0:>9.1%}"
            for g, u, z, p, w, bp, bw in rows
        ]
        + [
            "",
            "== recovery wall-clock vs WAL length (checkpoint + replay) ==",
            f"{'records':>8} {'recover s':>10} {'records/s':>10}",
        ]
        + [
            f"{n:>8} {s:>10.3f} {n / s:>10.0f}"
            for n, s in recovery_rows
        ]
        + [
            "",
            "== tail checkpoint vs WAL alone (fingerprints asserted, "
            "zero re-dispatch gated) ==",
            f"{'period':>28} {'wal s':>8} {'tail s':>8} {'ratio':>6} "
            f"{'wal MB':>7} {'tail MB':>8}",
        ]
        + [
            f"{label:>28} {r['wal_only_s']:>8.3f} {r['tail_s']:>8.3f} "
            f"{r['ratio']:>6.2f} {r['wal_only_mb']:>7.2f} {r['tail_mb']:>8.2f}"
            for label, r in (
                (f"{tail['games']} games / {tail['bids']} bids", tail),
                (f"{bulk_tail['games']} games / {bulk_tail['users']} users", bulk_tail),
            )
        ]
        + [
            f"tail checkpoint stages: {tail['tail_stages_s']}",
            f"bulk-fed stages: {bulk_tail['tail_stages_s']}",
        ]
    )
    emit("recovery", table)
    games, users, _, plain_s, wal_s, burst_plain, burst_wal = rows[-1]
    overhead = wal_s / plain_s - 1.0
    harness.record(
        "recovery",
        # Harness convention is "bigger is better": plain/wal, i.e. 1.0
        # means durability is free.
        speedup=plain_s / wal_s,
        n=users,
        seed=SEED,
        floor=1.0 - OVERHEAD_CEILING,
        extra={
            "games": games,
            "overhead": round(overhead, 4),
            "burst_overhead": round(burst_wal / burst_plain - 1.0, 4),
            "scales": [list(r[:3]) for r in rows],
            "recovery": [[n, round(s, 4)] for n, s in recovery_rows],
            "tail_checkpoint": tail,
            "tail_checkpoint_bulk": bulk_tail,
        },
    )
    if harness.enforce_floors():
        assert overhead < OVERHEAD_CEILING, (
            f"the WAL adds {overhead:.1%} over the plain gateway at "
            f"{games} games / {users} users (ceiling {OVERHEAD_CEILING:.0%})"
        )


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_wal_overhead_and_recovery_time(_Stdout())
