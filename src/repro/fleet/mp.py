"""Shared-nothing multi-process fleet: every catalog shard on its own core.

:class:`MultiProcessFleet` implements the :class:`~repro.fleet.executor.
FleetExecutor` protocol by scattering a period's games across a pool of
``multiprocessing`` **spawn** workers. Each worker owns a disjoint set of
catalog shards (:meth:`~repro.fleet.shard.ShardMap.owner_of`: shard ``s``
to worker ``s % workers``) and runs a full
:class:`~repro.fleet.engine.FleetEngine` over *only its own games'* bids —
games are independent pricing games, so a worker's per-game floats are the
exact floats the single-process engine would compute. What cannot be
computed per-partition — the shared event log, billing ledger, payment
accumulation, and cross-game departure ordering — is replayed on the
master from per-slot deltas, in the exact global order the single-process
engine uses, which is what makes the whole construction **bit-identical**
(outcomes, metered costs, ledger, event log; property-tested in
``tests/test_fleet_mp.py``).

Master-side anatomy:

* **Intake mirror.** The master keeps a never-advanced ``FleetEngine``
  that every bid passes through first. It provides validation, the
  authoritative ``BidPlaced``/``BidRevised`` events, the epoch counter,
  revisable-bid handles and the departure index for free — and because it
  never processes a slot, it never pays for mechanism work.
* **Scatter/gather barrier per slot.** ``advance_slots`` fans one
  ``("advance", k)`` command to every worker and gathers per-slot deltas:
  each worker's engine reports its grants (in its shard-major order) and
  departure charges through the engine's ``slot_observer`` tap. The
  master k-way-merges grant blocks by
  :attr:`~repro.fleet.shard.ShardMap.process_rank` and replays
  departures in the master-computed global departure order, so every
  event, ledger entry, and float accumulation happens in single-process
  order.
* **Codec-dict pickling rule.** User and optimization ids cross the
  process boundary as :mod:`repro.gateway.codec` value dicts
  (``encode_value``/``decode_value``), so exactly the ids the wire
  protocol can express are the ids a multi-process fleet accepts —
  anything else raises :class:`~repro.errors.ProtocolError` *before* any
  state changes. Columnar batch arrays ride along as pickled numpy
  arrays.
* **Crash tolerance by replay.** The master records every mutating
  command per worker. A worker that dies (killed, OOM, crashed) is
  respawned from the spawn context, its history is replayed, and it is
  advanced back to the master's slot — deterministically identical to
  the lost worker, so a mid-period kill changes nothing about the
  period's outcome (tested with a literal ``Process.kill``).

Spawn-only is deliberate (DESIGN.md "Multi-process conventions"):
forked children would inherit the master's engine state and numpy
globals, and fork is unsafe under threads; spawn keeps workers' state
exactly "history replayed from nothing", which is also what makes
respawn correct.
"""

from __future__ import annotations

import heapq
import multiprocessing
from typing import Mapping

import numpy as np

from repro import obs
from repro.bids.additive import AdditiveBid
from repro.cloudsim.catalog import OptimizationCatalog
from repro.cloudsim.events import (
    OptimizationImplemented,
    UserCharged,
    UserDeparted,
    UserGranted,
)
from repro.core.outcome import OptId, UserId
from repro.errors import GameConfigError, MechanismError, ProtocolError
from repro.fleet.engine import FleetBatch, FleetEngine, FleetReport
from repro.fleet.executor import FleetExecutor
from repro.fleet.shard import ShardMap
from repro.gateway.codec import decode_value, encode_value

__all__ = ["MultiProcessFleet"]

# Master-side fleet instrumentation. Both live in the *master* process,
# so their values survive worker kills — a respawned worker rebuilds its
# own (worker-local, unread) registry, never this one. Worker labels are
# process ranks: cardinality == pool size.
_RESPAWNS_TOTAL = obs.REGISTRY.counter(
    "repro_fleet_respawns_total",
    "Worker processes respawned after a crash (master-side count).",
)
_CHUNK_SECONDS = obs.REGISTRY.histogram(
    "repro_fleet_worker_chunk_seconds",
    "Master wall time from chunk scatter until each worker's reply.",
    ("worker",),
)

#: Slots per scatter/gather round trip. Bounds per-message delta payloads
#: while amortizing pipe latency across many slots.
_ADVANCE_CHUNK = 32


class _WorkerDied(Exception):
    """A worker pipe broke mid-command (crash, kill, OOM)."""

    def __init__(self, worker: int) -> None:
        super().__init__(f"fleet worker {worker} died")
        self.worker = worker


# ----------------------------------------------------------- worker side --


class _NullEvents:
    """Worker engines drop events; the master's log is authoritative."""

    def record(self, event) -> None:
        pass

    def record_many(self, events) -> None:
        pass


class _NullLedger:
    """Worker engines drop ledger entries; the master replays them."""

    def invoice(self, *args, **kwargs) -> None:
        pass

    def build_outlay(self, *args, **kwargs) -> None:
        pass


class _SlotTap:
    """The worker's per-slot delta buffer behind ``slot_observer``.

    ``grants`` arrive in the worker engine's processing order (ascending
    process rank over the worker's own games), which is what lets the
    master k-way-merge blocks without re-sorting. ``charges`` carry the
    exact float the engine computed at departure (0.0 for a departure
    from a never-funded game).
    """

    __slots__ = ("grants", "charges")

    def __init__(self) -> None:
        self.grants: list = []
        self.charges: list = []

    def stepped(self, rank: int, users: list, implemented_cost) -> None:
        self.grants.append(
            (rank, [encode_value(user) for user in users], implemented_cost)
        )

    def charged(self, user, rank: int, amount: float) -> None:
        self.charges.append((encode_value(user), rank, amount))

    def take(self) -> dict:
        delta = {"grants": self.grants, "charges": self.charges}
        self.grants = []
        self.charges = []
        return delta


def _worker_main(conn) -> None:
    """One worker process: a command loop over a private fleet engine."""
    engine = None
    opt_ids: list = []
    tap = _SlotTap()
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):
            return
        try:
            result = None
            if command == "init":
                opt_ids = [decode_value(j) for j, _ in payload["opts"]]
                costs = dict(
                    zip(opt_ids, (cost for _, cost in payload["opts"]))
                )
                engine = FleetEngine(
                    OptimizationCatalog.from_costs(costs),
                    horizon=payload["horizon"],
                    shards=payload["shards"],
                )
                engine.events = _NullEvents()
                engine.ledger = _NullLedger()
                engine.slot_observer = tap
            elif command == "ingest":
                engine.ingest_many(
                    [
                        FleetBatch(
                            users=decode_value(block["users"]),
                            opt_ranks=block["ranks"],
                            starts=block["starts"],
                            values=block["values"],
                        )
                        for block in payload
                    ]
                )
            elif command == "place":
                user, rank, start, values = payload
                engine.place_bid(
                    decode_value(user),
                    opt_ids[rank],
                    AdditiveBid.over(start, values),
                )
            elif command == "revise":
                user, rank, new_values = payload
                engine.revise_bid(
                    decode_value(user), opt_ids[rank], decode_value(new_values)
                )
            elif command == "advance":
                result = []
                for _ in range(payload):
                    engine.advance_slot()
                    result.append(tap.take())
            elif command == "close":
                conn.close()
                return
            else:  # pragma: no cover - protocol bug guard
                raise ProtocolError(f"unknown fleet worker command {command!r}")
            reply = ("ok", result)
        except BaseException as exc:  # total: errors travel home as data
            reply = ("error", type(exc).__name__, str(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------- master side --


class MultiProcessFleet(FleetExecutor):
    """See the module docstring.

    Parameters
    ----------
    catalog, horizon, shards:
        Exactly :class:`~repro.fleet.engine.FleetEngine`'s; ``shards``
        also determines worker ownership, so pick ``shards >= workers``
        (``FleetEngine.build`` defaults to ``shards = workers``).
    workers:
        Worker process count (>= 1). Outcomes are bit-identical across
        worker counts for a fixed shard count.
    """

    def __init__(
        self,
        catalog: OptimizationCatalog,
        horizon: int,
        shards: int = 1,
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise GameConfigError(f"worker count must be >= 1, got {workers}")
        # The intake mirror validates catalog/horizon/shards and carries
        # the authoritative events, ledger, epoch, handles, and clock.
        self._intake = FleetEngine(catalog, horizon, shards=shards)
        self.workers = int(workers)
        self.catalog = self._intake.catalog
        self.horizon = self._intake.horizon
        self._opt_ids = list(self.catalog)
        n_games = len(self._opt_ids)
        shard_map = self._intake.shards
        self._proc_rank = shard_map.process_rank
        self._owner_arr = np.array(
            [shard_map.owner_of(rank, self.workers) for rank in range(n_games)],
            dtype=np.int64,
        )
        self._payments: dict[UserId, float] = {}
        self._granted_at: dict[tuple, int] = {}
        self._implemented: dict[OptId, int] = {}
        self._game_revenue = np.zeros(n_games)
        self._deps: tuple | None = None  # master's global departure order
        self._dp = 0
        self._closed = False
        # Everything needed to rebuild a worker from nothing: the init
        # command plus, per worker, every mutating command it was sent.
        self._init_msg = (
            "init",
            {
                "opts": [
                    (encode_value(j), self.catalog.get(j).cost)
                    for j in self._opt_ids
                ],
                "horizon": self.horizon,
                "shards": shard_map.shards,
            },
        )
        self._history: list[list] = [[] for _ in range(self.workers)]
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list = [None] * self.workers
        self._conns: list = [None] * self.workers
        for worker in range(self.workers):
            self._spawn(worker)

    # -------------------------------------------------------- worker pool --

    @property
    def processes(self) -> list:
        """Live worker :class:`multiprocessing.Process` handles (the
        crash tests kill these; treat as read-only)."""
        return list(self._procs)

    def _spawn(self, worker: int) -> None:
        """Start (or restart) one worker and replay it to the present."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-fleet-worker-{worker}",
        )
        proc.start()
        child_conn.close()
        self._procs[worker] = proc
        self._conns[worker] = parent_conn
        # Replay the worker's full command history — mutations and
        # advances interleaved exactly as first sent, so the rebuilt
        # worker's clock matches every command's original clock
        # (declaration slots, revision slots, residual scheduling).
        # Advance deltas were already merged; discard them.
        self._roundtrip(worker, self._init_msg)
        for message in self._history[worker]:
            self._roundtrip(worker, message)

    def _respawn(self, worker: int) -> None:
        _RESPAWNS_TOTAL.inc()
        proc = self._procs[worker]
        if proc is not None:
            try:
                proc.kill()
                proc.join(timeout=2.0)
            except (OSError, ValueError):
                pass
        try:
            self._conns[worker].close()
        except OSError:
            pass
        self._spawn(worker)

    def _roundtrip(self, worker: int, message: tuple):
        """One command round trip; a broken pipe raises ``_WorkerDied``."""
        conn = self._conns[worker]
        try:
            conn.send(message)
            reply = conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise _WorkerDied(worker) from exc
        if reply[0] == "error":
            _, name, text = reply
            raise MechanismError(
                f"fleet worker {worker} rejected {message[0]!r}: {name}: {text}"
            )
        return reply[1]

    def _mutate(self, worker: int, message: tuple) -> None:
        """Record-then-send. The history append comes first so a worker
        dying mid-command is recovered by replay (which includes the
        command) instead of an ambiguous resend."""
        self._history[worker].append(message)
        try:
            self._roundtrip(worker, message)
        except _WorkerDied:
            self._respawn(worker)

    # ------------------------------------------------------------- intake --

    def _ensure_usable(self) -> None:
        if self._closed:
            raise ProtocolError(
                "the fleet executor is closed; open a new period instead"
            )

    @property
    def slot(self) -> int:
        return self._intake.slot

    @property
    def epoch(self) -> int:
        return self._intake.epoch

    @property
    def ledger(self):
        return self._intake.ledger

    @property
    def events(self):
        return self._intake.events

    @property
    def shards(self) -> ShardMap:
        return self._intake.shards

    @property
    def bulk_intake_open(self) -> bool:
        return not self._closed and self._intake.bulk_intake_open

    @property
    def implemented(self) -> Mapping[OptId, int]:
        return self._implemented

    def bulk_keys(self) -> set:
        return self._intake.bulk_keys()

    def rank_of(self, optimization: OptId) -> int:
        return self._intake.rank_of(optimization)

    @property
    def rank_map(self) -> Mapping:
        return self._intake.rank_map

    def check_bid(
        self, user: UserId, optimization: OptId, bid: AdditiveBid
    ) -> int:
        return self._intake.check_bid(user, optimization, bid)

    def place_bid(
        self, user: UserId, optimization: OptId, bid: AdditiveBid
    ):
        rank = self.check_bid(user, optimization, bid)
        return self.place_checked(user, rank, optimization, bid)

    def place_checked(
        self, user: UserId, rank: int, optimization: OptId, bid: AdditiveBid
    ):
        self._ensure_usable()
        # Encode before committing: an id the wire codec cannot express
        # must fail with nothing placed anywhere (all-or-nothing).
        encoded_user = encode_value(user)
        handle = self._intake.place_checked(user, rank, optimization, bid)
        self._mutate(
            self._owner(rank),
            ("place", (encoded_user, rank, bid.start, bid.schedule.values)),
        )
        return handle

    def revise_bid(
        self, user: UserId, optimization: OptId, new_values: Mapping[int, float]
    ) -> None:
        self._ensure_usable()
        new_values = dict(new_values)
        encoded = (encode_value(user), encode_value(new_values))
        rank = self._intake.rank_of(optimization)
        self._intake.revise_bid(user, optimization, new_values)
        self._mutate(
            self._owner(rank), ("revise", (encoded[0], rank, encoded[1]))
        )

    def ingest(self, batch: FleetBatch) -> int:
        return self.ingest_many((batch,))

    def ingest_many(self, batches) -> int:
        self._ensure_usable()
        batches = [batch for batch in batches if len(batch) > 0]
        # Partition and encode first (raising ProtocolError on ids the
        # codec cannot express), then commit to the intake mirror, then
        # scatter — so a failure at any stage leaves no partial intake.
        per_worker = self._partition_batches(batches)
        count = self._intake.ingest_many(batches)
        for worker, blocks in enumerate(per_worker):
            if blocks:
                self._mutate(worker, ("ingest", blocks))
        return count

    def _owner(self, rank: int) -> int:
        return int(self._owner_arr[rank])

    def _partition_batches(self, batches) -> list:
        """Each batch split by owning worker, as codec-dict blocks."""
        per_worker: list[list] = [[] for _ in range(self.workers)]
        for batch in batches:
            ranks = np.asarray(batch.opt_ranks, dtype=np.int64)
            starts = np.asarray(batch.starts, dtype=np.int64)
            owners = self._owner_arr[ranks]
            for worker in range(self.workers):
                index = np.flatnonzero(owners == worker)
                if not len(index):
                    continue
                users = tuple(batch.users[i] for i in index.tolist())
                per_worker[worker].append(
                    {
                        "users": encode_value(users),
                        "ranks": ranks[index],
                        "starts": starts[index],
                        "values": batch.values[index],
                    }
                )
        return per_worker

    # --------------------------------------------------------------- loop --

    def advance_slots(self, slots: int) -> int:
        self._ensure_usable()
        if slots < 1:
            raise GameConfigError(f"must advance by >= 1 slot, got {slots}")
        if self._deps is None:
            # The engine's own departure schedule, read from the mirror
            # before the first advance; the mirror never finalizes, so its
            # intake columns stay available for ``bulk_keys``.
            self._deps = self._intake._departure_schedule()
        target = self.slot + int(slots)
        stop = min(target, self.horizon)
        while self.slot < stop:
            chunk = min(_ADVANCE_CHUNK, stop - self.slot)
            deltas = self._advance_chunk(chunk)
            base = self.slot
            for i in range(chunk):
                self._merge_slot(
                    base + 1 + i, [per_worker[i] for per_worker in deltas]
                )
            # Only a fully merged chunk enters the replay history; a
            # worker lost mid-chunk is replayed to the pre-chunk slot
            # and re-asked for this chunk (see _advance_chunk).
            done = ("advance", chunk)
            for history in self._history:
                history.append(done)
        if target > self.horizon:
            raise MechanismError(f"period is over after slot {self.horizon}")
        return self.slot

    def _advance_chunk(self, chunk: int) -> list:
        """Scatter one advance command, gather every worker's deltas.

        Sends first, then collects — the barrier is per chunk, so all
        workers run their slots concurrently. A worker found dead at
        either phase is respawned (replayed to the pre-chunk slot) and
        the chunk is re-requested from it alone.
        """
        message = ("advance", chunk)
        results: list = [None] * self.workers
        dead: list[int] = []
        begin = obs.REGISTRY.clock() if obs.REGISTRY.enabled else None
        for worker in range(self.workers):
            try:
                self._conns[worker].send(message)
            except (BrokenPipeError, ConnectionResetError, OSError):
                dead.append(worker)
        for worker in range(self.workers):
            if worker in dead:
                continue
            try:
                reply = self._conns[worker].recv()
            except (EOFError, ConnectionResetError, OSError):
                dead.append(worker)
                continue
            if reply[0] == "error":
                _, name, text = reply
                raise MechanismError(
                    f"fleet worker {worker} rejected 'advance': {name}: {text}"
                )
            results[worker] = reply[1]
            if begin is not None:
                _CHUNK_SECONDS.labels(worker=str(worker)).observe(
                    obs.REGISTRY.clock() - begin
                )
        for worker in dead:
            last: Exception | None = None
            for _ in range(2):
                try:
                    self._respawn(worker)
                    results[worker] = self._roundtrip(worker, message)
                    last = None
                    break
                except _WorkerDied as exc:
                    last = exc
            if begin is not None and results[worker] is not None:
                _CHUNK_SECONDS.labels(worker=str(worker)).observe(
                    obs.REGISTRY.clock() - begin
                )
            if last is not None:
                raise MechanismError(
                    f"fleet worker {worker} keeps dying mid-advance"
                ) from last
        return results

    def _merge_slot(self, t: int, worker_deltas: list) -> None:
        """Replay one slot's worker deltas in global single-process order.

        Grants (and implementations) first, k-way merged by process
        rank; then departures in the master's own global departure
        order, then handle departures, then the departure events — the
        exact sequence of ``FleetEngine.advance_slot``.
        """
        intake = self._intake
        record = intake.events.record
        opt_ids = self._opt_ids
        proc = self._proc_rank
        granted = self._granted_at
        blocks = [d["grants"] for d in worker_deltas if d and d["grants"]]
        if len(blocks) == 1:
            merged = blocks[0]
        else:
            merged = heapq.merge(*blocks, key=lambda grant: proc[grant[0]])
        for rank, users, implemented_cost in merged:
            optimization = opt_ids[rank]
            for user in users:
                user = decode_value(user)
                granted[(user, optimization)] = t
                record(UserGranted(t, user, optimization))
            if implemented_cost is not None:
                self._implemented[optimization] = t
                intake.ledger.build_outlay(t, optimization, implemented_cost)
                record(
                    OptimizationImplemented(t, optimization, implemented_cost)
                )

        charges: dict = {}
        for delta in worker_deltas:
            if not delta:
                continue
            for user, rank, amount in delta["charges"]:
                charges[(decode_value(user), rank)] = amount
        departed: dict = {}
        dep_slots, dep_ranks, dep_users = self._deps
        names = intake._users
        dp = self._dp
        n = len(dep_slots)
        while dp < n and dep_slots[dp] == t:
            user = names[dep_users[dp]]
            rank = dep_ranks[dp]
            dp += 1
            self._settle(t, user, rank, charges.pop((user, rank)), departed)
        self._dp = dp
        for key in intake._ends_at.pop(t, ()):
            user, rank = key
            if intake._handles[key].current.end != t:
                continue  # the departure moved by revision; invoice later
            self._settle(t, user, rank, charges.pop((user, rank)), departed)
        if charges:  # pragma: no cover - divergence bug guard
            raise MechanismError(
                f"fleet workers charged {len(charges)} departure(s) the "
                f"master never scheduled at slot {t}"
            )
        if departed:
            intake.events.record_many(
                [UserDeparted(t, user) for user in departed]
            )
        # The mirror's clock and epoch move exactly like the engine's:
        # +1 slot, +1 epoch per processed slot (bids already counted).
        intake.slot = t
        intake.epoch += 1

    def _settle(
        self, t: int, user, rank: int, amount: float, departed: dict
    ) -> None:
        """One departure, replaying ``FleetEngine._invoice`` float-for-
        float with the worker-computed amount (0.0 = never-funded game,
        which the engine's cold path also books as a plain 0.0)."""
        self._payments[user] = self._payments.get(user, 0.0) + amount
        if amount > 0:
            optimization = self._opt_ids[rank]
            self._intake.ledger.invoice(
                t, user, amount, memo=f"opt={optimization!r}"
            )
            self._intake.events.record(UserCharged(t, user, amount))
            self._game_revenue[rank] += amount
        departed[user] = None

    # ------------------------------------------------------------ queries --

    def report(self) -> FleetReport:
        return FleetReport(
            horizon=self.horizon,
            games=tuple(self._opt_ids),
            ledger=self._intake.ledger,
            events=self._intake.events,
            implemented=dict(self._implemented),
            granted_at=dict(self._granted_at),
            payments=dict(self._payments),
            game_revenue={
                j: float(self._game_revenue[r])
                for r, j in enumerate(self._opt_ids)
                if self._game_revenue[r] != 0.0
            },
            epoch=self.epoch,
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(("close", None))
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass
        for conn in self._conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)

    def __del__(self) -> None:  # pragma: no cover - gc-time best effort
        try:
            self.close()
        except Exception:
            pass
