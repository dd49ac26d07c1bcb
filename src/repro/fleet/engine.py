"""The fleet engine: hundreds of concurrent pricing games, one scheduler.

:class:`FleetEngine` runs every additive (AddOn) game of an optimization
catalog inside a single slot-synchronized loop. Where one
:class:`~repro.cloudsim.service.CloudService` per optimization would pay a
full Python slot-advance per game per slot — active-set bookkeeping,
residual recomputation, a mechanism step — the fleet makes one pass over
the whole fleet's arrivals and departures per slot:

* **Precomputed residual schedule.** A bid's per-slot residuals are fixed
  at placement (revisions rewrite only future slots), so the engine
  schedules them once instead of re-deriving them from an active set every
  slot. Bulk-ingested bids live in columnar arrays — one lexsorted
  ``(slot, shard-order)`` schedule shared by the whole fleet — and a slot
  is consumed by advancing a pointer, not by scanning per-game state.
* **Lazy games.** A game's sorted mechanism engine is not materialized
  until its bids could conceivably cover its cost. The proof is the same
  sound feasibility gate as
  :meth:`~repro.core.fastshapley.IncrementalShapley.settled` (a serviced
  set of size ``k`` needs bids summing to ``>= cost`` minus tolerances),
  tracked as an O(1) running total. For bulk bids even that tracking is
  precomputed: finalization reduces the schedule to per-``(slot, game)``
  group deltas with numpy, so a provably-idle group costs three scalar
  operations in the slot loop — amortized O(changed *groups*), not
  entries, across the entire fleet.
* **Batched dispatch.** Groups of games that might move are stepped
  through :meth:`repro.core.online.AddOnState.apply_changes`, the
  allocation-free batch entry point over the fused
  :meth:`~repro.core.fastshapley.IncrementalShapley.apply_and_solve`.
* **Array-backed shared state.** The schedule, its group index, the
  per-group deltas, and per-game revenue are flat parallel arrays; the
  ledger and event log are shared by every game.

Determinism is contractual (see DESIGN.md "Fleet conventions"): within a
slot, games step in shard-major order (:class:`~repro.fleet.shard.ShardMap`),
same-slot grants of one game are emitted in a fixed (type name, string)
user order, and departures are invoiced in placement order, so a fixed
trace replays to an identical event log regardless of how its changes
were discovered.

Each game lives in one of three states, only ever moving forward:

``vector-cold``
    Bulk schedule only; accounted by precomputed group deltas.
``dict-cold``
    Touched by :meth:`FleetEngine.place_bid` (the revisable per-bid path,
    which ``CloudService`` additive mode wraps): the current profile is an
    explicit dict, still gated without a mechanism engine.
``hot``
    The feasibility gate failed once: the profile is flushed into the
    game's :class:`~repro.core.online.AddOnState` and every later change
    is applied incrementally.

The per-bid entry points replicate ``CloudService``'s historical additive
semantics exactly; :meth:`FleetEngine.ingest` trusts its generator (one
bid per (user, optimization), no revisions) in exchange for vectorized
intake.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import obs
from repro.bids.additive import AdditiveBid
from repro.bids.revision import RevisableBid
from repro.cloudsim.catalog import OptimizationCatalog
from repro.cloudsim.events import (
    BidPlaced,
    BidRevised,
    EventLog,
    OptimizationImplemented,
    UserCharged,
    UserDeparted,
    UserGranted,
)
from repro.cloudsim.ledger import BillingLedger
from repro.core.fastshapley import GATE_SLACK as _GATE_SLACK
from repro.core.online import AddOnState
from repro.core.outcome import OptId, UserId
from repro.errors import GameConfigError, MechanismError, ProtocolError
from repro.fleet.shard import ShardMap

__all__ = ["FleetBatch", "FleetEngine", "FleetReport"]

# Per-slot granularity only (DESIGN.md "Metrics conventions"): the
# per-bid/per-group loops inside a slot are the fleet's hot path and
# stay uninstrumented — one observation per advanced slot is the floor.
_SLOT_SECONDS = obs.REGISTRY.histogram(
    "repro_fleet_slot_advance_seconds",
    "Wall time of one FleetEngine slot advance.",
)


@dataclass(frozen=True)
class FleetBatch:
    """A columnar block of additive bids, one row per (user, game) bid.

    ``values`` is an ``(n, d)`` float matrix of per-slot declared values —
    every bid in a batch spans the same duration ``d``; generators emit one
    batch per duration. ``opt_ranks`` addresses games by catalog rank (see
    :meth:`FleetEngine.rank_of`).
    """

    users: tuple
    opt_ranks: np.ndarray
    starts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.users)
        try:
            values = np.asarray(self.values, dtype=float)
        except (ValueError, TypeError) as exc:
            # Ragged rows (or junk cells) would otherwise surface as a
            # bare numpy ValueError; the wire boundary needs a typed code.
            raise ProtocolError(
                f"batch values do not form a rectangular matrix: {exc}"
            ) from None
        if values.ndim != 2:
            raise GameConfigError(
                f"values must be a 2-D (bids x slots) matrix, got {values.ndim}-D"
            )
        if not (len(self.opt_ranks) == len(self.starts) == values.shape[0] == n):
            raise GameConfigError(
                "users, opt_ranks, starts and values rows must align: "
                f"{n}/{len(self.opt_ranks)}/{len(self.starts)}/{values.shape[0]}"
            )
        if values.shape[1] < 1:
            raise GameConfigError("bids need at least one slot of values")
        object.__setattr__(self, "values", values)

    @property
    def duration(self) -> int:
        """Slots each bid in this batch spans."""
        return self.values.shape[1]

    def __len__(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class FleetReport:
    """End-of-period summary of one fleet run.

    ``epoch`` is the engine's mutation counter at report time (see
    :attr:`FleetEngine.epoch`), so a report is attributable to an exact
    point in the bid/slot history.
    """

    horizon: int
    games: tuple
    ledger: BillingLedger
    events: EventLog
    implemented: Mapping[OptId, int]
    granted_at: Mapping[tuple, int]
    payments: Mapping[UserId, float]
    game_revenue: Mapping[OptId, float]
    epoch: int = 0

    @property
    def cloud_balance(self) -> float:
        """Revenue minus build outlays across every game."""
        return self.ledger.balance

    def grant_slot(self, user: UserId, optimization: OptId) -> int | None:
        """Slot ``user`` gained access to ``optimization`` (None if never)."""
        return self.granted_at.get((user, optimization))

    def revenue_of(self, optimization: OptId) -> float:
        """Total invoiced for one game (0.0 for an unknown game)."""
        return self.game_revenue.get(optimization, 0.0)


class FleetEngine:
    """See the module docstring.

    Parameters
    ----------
    catalog:
        The fleet's optimizations; one independent AddOn game each.
    horizon:
        Number of slots in the shared amortization period ``T``.
    shards:
        Shard count for the deterministic slot-processing order.
    """

    def __init__(
        self, catalog: OptimizationCatalog, horizon: int, shards: int = 1
    ) -> None:
        if horizon < 1:
            raise GameConfigError(f"horizon must be >= 1, got {horizon}")
        if len(catalog) == 0:
            raise GameConfigError("catalog must offer at least one optimization")
        self.catalog = catalog
        self.horizon = horizon
        self.slot = 0  # last processed slot; slot 1 is processed first
        # Mutation counter, content-deterministic: +1 per accepted bid
        # (placed, revised, or bulk-ingested — batching does not matter)
        # and +1 per processed slot. Mirrors the db catalog's epoch so
        # fleet state is addressable the same way.
        self.epoch = 0
        self.ledger = BillingLedger()
        self.events = EventLog()
        self._opt_ids: list = list(catalog)
        self._rank_of: dict = {j: r for r, j in enumerate(self._opt_ids)}
        self._shards = ShardMap(len(self._opt_ids), shards)
        self._proc_rank = self._shards.process_rank
        self._states = [AddOnState(catalog.get(j).cost) for j in self._opt_ids]
        self._costs = [catalog.get(j).cost for j in self._opt_ids]
        n_games = len(self._opt_ids)
        # Per-game lifecycle (module docstring): hot flag, dict-cold
        # profile (None while vector-cold), and the cold gate accumulators.
        self._hot = [False] * n_games
        self._profile: list = [None] * n_games
        self._ctotal = [0.0] * n_games
        self._cnpos = [0] * n_games
        self._payments: dict[UserId, float] = {}
        self._granted_at: dict[tuple, int] = {}
        self._implemented: dict[OptId, int] = {}
        self._game_revenue = np.zeros(n_games)
        # Per-bid (revisable) path: handles plus per-slot residual buckets.
        self._handles: dict[tuple, RevisableBid] = {}
        self._pending: dict[int, dict[int, dict]] = {}
        self._ends_at: dict[int, list] = {}
        # Bulk (columnar) path: until the first slot finalizes them into
        # the flat schedule, its group index, and departures, ingested bids
        # sit in one set of growable columns per bid duration: duration ->
        # (user index, rank, start, row-major values). Every bid row gets
        # the next dense user index, so indices ascend in intake order;
        # ``_users`` maps them back to ids at event time.
        self._users: list = []
        self._columns: dict[int, tuple] = {}
        self._bulk_taken: set | None = None  # lazy (user, rank) intake guard
        self._entries: tuple | None = None  # (user, val) in (slot, shard) order
        self._groups: tuple | None = None  # flush/hot groups only, as lists
        self._by_rank: tuple | None = None  # (slot, user, val, offsets) by rank
        self._deps: tuple | None = None
        # Bulk entries of games converted to dict-cold by a handle bid: the
        # walk skips their (pre-filtered) groups, so undelivered entries
        # stream in from here instead: rank -> [slots, users, vals, ptr, n].
        self._late: dict[int, list] = {}
        self._gp = 0  # group pointer
        self._dp = 0  # departure pointer
        self._finalized = False

    # ------------------------------------------------------------- intake --

    @property
    def shards(self) -> ShardMap:
        """The fleet's shard map (processing-order contract)."""
        return self._shards

    @property
    def bulk_intake_open(self) -> bool:
        """True while :meth:`ingest` is still allowed (no slot processed)."""
        return self.slot == 0 and not self._finalized

    def bulk_keys(self) -> set:
        """``(user, rank)`` pairs taken by bulk intake so far.

        The live guard set (treat as read-only); untrusted boundaries
        copy it to seed their own duplicate checks over the trusting
        bulk path.
        """
        return self._bulk_keys()

    def rank_of(self, optimization: OptId) -> int:
        """Catalog rank of one optimization (bulk batches address by rank)."""
        rank = self._rank_of.get(optimization)
        if rank is None:
            raise GameConfigError(f"no optimization {optimization!r} in catalog")
        return rank

    @property
    def rank_map(self) -> Mapping:
        """Live ``{optimization: catalog rank}`` mapping (treat as
        read-only); bulk callers hoist its ``.get`` out of hot loops."""
        return self._rank_of

    def _bulk_keys(self) -> set:
        """(user, rank) pairs taken by bulk bids, built on first demand.

        Only the per-bid path ever needs it (its duplicate guard must also
        cover bulk intake — one handle bid on top of a bulk bid would
        double-schedule and double-invoice the user), so pure-bulk fleets
        never pay for the set.
        """
        if self._bulk_taken is None:
            taken = set()
            names = self._users
            for uidx, ranks, _, _ in self._columns.values():
                for index, rank in zip(uidx, ranks):
                    taken.add((names[index], rank))
            if self._deps is not None:
                _, dep_ranks, dep_users = self._deps
                for uidx, rank in zip(dep_users, dep_ranks):
                    taken.add((names[uidx], rank))
            self._bulk_taken = taken
        return self._bulk_taken

    def check_bid(
        self, user: UserId, optimization: OptId, bid: AdditiveBid
    ) -> int:
        """All of :meth:`place_bid`'s validation, mutation-free.

        Returns the game's catalog rank. Callers placing several bids
        atomically (the gateway's ``SubmitBids``) check every bid first
        so one bad bid cannot leave earlier ones committed.
        """
        rank = self._rank_of.get(optimization)
        if rank is None:
            raise GameConfigError(f"no optimization {optimization!r} in catalog")
        key = (user, rank)
        if key in self._handles or key in self._bulk_keys():
            raise GameConfigError(
                f"user {user!r} already bid on {optimization!r}; revise instead"
            )
        if bid.start <= self.slot:
            raise GameConfigError(
                f"bid for slots from {bid.start} is retroactive at slot {self.slot}"
            )
        if bid.end > self.horizon:
            raise GameConfigError(
                f"bid ends at {bid.end}, beyond the horizon {self.horizon}"
            )
        return rank

    def place_bid(
        self, user: UserId, optimization: OptId, bid: AdditiveBid
    ) -> RevisableBid:
        """Declare one revisable bid; semantics match ``CloudService``."""
        rank = self.check_bid(user, optimization, bid)
        return self.place_checked(user, rank, optimization, bid)

    def place_checked(
        self, user: UserId, rank: int, optimization: OptId, bid: AdditiveBid
    ) -> RevisableBid:
        """The mutation half of :meth:`place_bid`.

        The caller must have run :meth:`check_bid` against the *current*
        engine state (no intervening placements or slot advances) —
        atomic multi-bid callers check everything first, then commit
        through here without paying the validation twice.
        """
        key = (user, rank)
        if not self._hot[rank] and self._profile[rank] is None:
            self._materialize_profile(rank)
        handle = RevisableBid(bid, declared_at=self.slot + 1)
        self._handles[key] = handle
        self._schedule_residuals(user, rank, bid, bid.start)
        self._ends_at.setdefault(bid.end, []).append(key)
        self.events.record(
            BidPlaced(self.slot + 1, user, detail=f"opt={optimization!r}")
        )
        self.epoch += 1
        return handle

    def revise_bid(
        self, user: UserId, optimization: OptId, new_values: Mapping[int, float]
    ) -> None:
        """Upward revision of a previously placed (per-bid) bid."""
        rank = self._rank_of.get(optimization)
        if rank is None:
            raise GameConfigError(f"no optimization {optimization!r} in catalog")
        key = (user, rank)
        handle = self._handles.get(key)
        if handle is None:
            raise GameConfigError(
                f"user {user!r} has no bid on {optimization!r} to revise"
            )
        if any(slot > self.horizon for slot in new_values):
            raise GameConfigError("revision extends beyond the horizon")
        old_end = handle.current.end
        handle.revise(self.slot + 1, new_values)
        revised = handle.current
        if revised.end != old_end:
            # The departure moved: re-index the invoice slot.
            departures = self._ends_at.get(old_end, [])
            if key in departures:
                departures.remove(key)
            self._ends_at.setdefault(revised.end, []).append(key)
        # Future residuals changed; overwrite the scheduled entries.
        self._schedule_residuals(user, rank, revised, self.slot + 1)
        self.events.record(
            BidRevised(self.slot + 1, user, detail=f"opt={optimization!r}")
        )
        self.epoch += 1

    def _schedule_residuals(
        self, user: UserId, rank: int, bid: AdditiveBid, from_slot: int
    ) -> None:
        # Residuals change on every slot the bid covers, plus one trailing
        # zero right after the departure (if still inside the horizon). A
        # bid enters its game at its start slot, never earlier — even when
        # a revision is placed before the interval begins.
        pending = self._pending
        last = min(bid.end + 1, self.horizon)
        for t in range(max(from_slot, bid.start), last + 1):
            bucket = pending.get(t)
            if bucket is None:
                bucket = pending[t] = {}
            game = bucket.get(rank)
            if game is None:
                game = bucket[rank] = {}
            game[user] = bid.residual(t)

    def _materialize_profile(self, rank: int) -> None:
        """Vector-cold -> dict-cold: build the game's explicit profile.

        Replays the game's bulk entries up to the current slot (last value
        per user wins — the same floats the slot loop would have stored),
        seeds the gate accumulators with an exact recount, and registers
        the undelivered tail for per-slot late delivery.
        """
        profile: dict = {}
        if self._by_rank is not None:
            slots, users, vals, offsets = self._by_rank
            lo, hi = offsets[rank], offsets[rank + 1]
            slot_list = slots[lo:hi].tolist()
            user_list = users[lo:hi].tolist()
            val_list = vals[lo:hi].tolist()
            names = self._users
            current = self.slot
            i = 0
            n = hi - lo
            while i < n and slot_list[i] <= current:
                profile[names[user_list[i]]] = val_list[i]
                i += 1
            if i < n:
                self._late[rank] = [slot_list, user_list, val_list, i, n]
        self._profile[rank] = profile
        total = 0.0
        n_pos = 0
        for value in profile.values():
            if value > 0.0:
                total += value
                n_pos += 1
        self._ctotal[rank] = total
        self._cnpos[rank] = n_pos

    def ingest(self, batch: FleetBatch) -> int:
        """Bulk-load one columnar batch of bids; returns the bid count.

        Only allowed before the first slot is processed. The bulk path
        trusts its generator: one bid per (user, optimization), no later
        revision (use :meth:`place_bid` for revisable bids). Validation is
        vectorized and happens entirely before any state changes (one
        batch either lands whole or not at all); per-bid ``BidPlaced``
        events are still recorded so the event log stays complete.
        """
        return self.ingest_many((batch,))

    def ingest_many(self, batches) -> int:
        """Atomically bulk-load several batches; returns the bid count.

        Every batch is validated before *any* batch is committed, so a
        bad batch in the middle cannot leave earlier ones scheduled — the
        all-or-nothing property untrusted boundaries (the gateway's
        batched dispatch) build their own contract on.

        Raises :class:`~repro.errors.MechanismError` once the first slot
        closed bulk intake.
        """
        if self.slot > 0 or self._finalized:
            raise MechanismError(
                "bulk ingestion is only allowed before the first slot"
            )
        checked = [
            (batch, self._validate_batch(batch))
            for batch in batches
            if len(batch) > 0
        ]
        total = 0
        columns = self._columns
        for batch, (ranks, starts) in checked:
            base = len(self._users)
            self._users.extend(batch.users)
            n, duration = batch.values.shape
            group = columns.get(duration)
            if group is None:
                group = columns[duration] = (
                    array("q"), array("q"), array("q"), array("d")
                )
            group[0].extend(range(base, base + n))
            group[1].frombytes(ranks.tobytes())
            group[2].frombytes(starts.tobytes())
            group[3].frombytes(batch.values.tobytes())
            self.events.record_many([BidPlaced(1, user) for user in batch.users])
            total += n
        if checked:
            self._bulk_taken = None  # new bulk bids: rebuild guard on demand
        self.epoch += total
        return total

    def _validate_batch(self, batch: FleetBatch):
        """All of one batch's intake checks, mutation-free."""
        starts = np.asarray(batch.starts, dtype=np.int64)
        ranks = np.asarray(batch.opt_ranks, dtype=np.int64)
        values = batch.values
        if starts.min() < 1:
            raise GameConfigError("bulk bids must start at slot >= 1")
        ends = starts + values.shape[1] - 1
        if ends.max() > self.horizon:
            raise GameConfigError(
                f"bulk bids end at {int(ends.max())}, beyond the horizon "
                f"{self.horizon}"
            )
        if ranks.min() < 0 or ranks.max() >= len(self._opt_ids):
            raise GameConfigError("bulk bids address games outside the catalog")
        if not np.isfinite(values).all() or values.min() < 0:
            raise GameConfigError("bulk bid values must be finite and >= 0")
        if self._handles:
            # The symmetric duplicate guard: a bulk bid landing on a
            # (user, game) pair already taken by a handle bid would
            # double-schedule and double-invoice, exactly like the
            # reverse order place_bid rejects.
            handles = self._handles
            for user, rank in zip(batch.users, ranks.tolist()):
                if (user, rank) in handles:
                    raise GameConfigError(
                        f"user {user!r} already bid on "
                        f"{self._opt_ids[rank]!r}; revise instead"
                    )
        return ranks, starts

    def _finalize(self) -> None:
        """Flatten the intake columns into the array-backed schedule.

        Entries are first put back in intake order (ascending user index)
        so every tie below breaks exactly as in the order bids arrived.
        Produces, entirely in numpy:

        * per-entry ``(slot, rank, user, residual)`` lexsorted by
          ``(slot, shard order)`` — residuals are left-to-right suffix
          sums, bit-identical to ``AdditiveBid.residual``;
        * a group index over runs of equal ``(slot, rank)``, each with its
          gate deltas (sum of residual changes, net positive-bid count);
        * per game, its **flush slot**: the first slot at which the game's
          running bid total could cover its cost (the sound feasibility
          gate of :meth:`~repro.core.fastshapley.IncrementalShapley.settled`,
          evaluated for every group at once by segmented cumulative sums).
          Groups strictly before a game's flush slot provably leave its
          outcome untouched, so they are dropped from the slot walk
          entirely — a never-funded game costs the Python loop *nothing*;
        * the same entries re-sorted by ``(rank, slot)`` for profile
          materialization, and the departure schedule.
        """
        self._finalized = True
        if not self._columns:
            return
        slot_chunks, rank_chunks, val_chunks, user_chunks = [], [], [], []
        dtot_chunks, dpos_chunks = [], []
        for d, (uidx, batch_ranks, batch_starts, values) in self._columns.items():
            uidx = np.frombuffer(uidx, dtype=np.int64)
            batch_ranks = np.frombuffer(batch_ranks, dtype=np.int64)
            batch_starts = np.frombuffer(batch_starts, dtype=np.int64)
            values = np.frombuffer(values).reshape(-1, d)
            n = len(uidx)
            # Left-to-right suffix sums, vectorized across bids: column
            # order matches ``AdditiveBid.residual`` add-for-add, so the
            # scheduled floats are bit-identical to the per-bid path.
            residuals = np.empty((n, d + 1))
            residuals[:, d] = 0.0
            for i in range(d):
                acc = values[:, i].copy()
                for k in range(i + 1, d):
                    acc = acc + values[:, k]
                residuals[:, i] = acc
            # Gate deltas per entry: the profile's previous value for a
            # contiguous schedule is simply the previous residual.
            positive = residuals > 0.0
            dtotal = np.empty_like(residuals)
            dtotal[:, 0] = residuals[:, 0]
            dtotal[:, 1:] = residuals[:, 1:] - residuals[:, :-1]
            dnpos = positive.astype(np.int64)
            dnpos[:, 1:] -= positive[:, :-1]
            slots = batch_starts[:, None] + np.arange(d + 1)[None, :]
            keep = (slots <= self.horizon).ravel()
            slot_chunks.append(slots.ravel()[keep])
            rank_chunks.append(np.repeat(batch_ranks, d + 1)[keep])
            val_chunks.append(residuals.ravel()[keep])
            user_chunks.append(np.repeat(uidx, d + 1)[keep])
            dtot_chunks.append(dtotal.ravel()[keep])
            dpos_chunks.append(dnpos.ravel()[keep])
        columns = [
            np.concatenate(chunks)
            for chunks in (
                slot_chunks,
                rank_chunks,
                val_chunks,
                user_chunks,
                dtot_chunks,
                dpos_chunks,
            )
        ]
        runs = [group[0] for group in self._columns.values()]
        if any(a[-1] > b[0] for a, b in zip(runs, runs[1:])):
            # Durations arrived interleaved: back to intake order. User
            # indices already ascend within each duration's columns, so
            # this stable sort only merges sorted runs (and keeps each
            # bid's entries in slot order).
            intake = np.argsort(columns[3], kind="stable")
            columns = [column[intake] for column in columns]
        slots, ranks, vals, users, dtotal, dnpos = columns
        proc = np.asarray(self._proc_rank, dtype=np.int64)
        n_games = len(self._opt_ids)

        # Single combined-key stable argsorts beat two-pass lexsorts here.
        order = np.argsort(slots * n_games + proc[ranks], kind="stable")
        slots_s, ranks_s = slots[order], ranks[order]
        if len(slots_s):
            # Group boundaries: runs of equal (slot, rank) in slot order.
            boundary = np.empty(len(slots_s), dtype=bool)
            boundary[0] = True
            boundary[1:] = (slots_s[1:] != slots_s[:-1]) | (
                ranks_s[1:] != ranks_s[:-1]
            )
            g_start = np.flatnonzero(boundary)
            g_end = np.append(g_start[1:], len(slots_s))
            g_slot = slots_s[g_start]
            g_rank = ranks_s[g_start]
            g_dtot = np.add.reduceat(dtotal[order], g_start)
            g_dpos = np.add.reduceat(dnpos[order], g_start)
            flush_slot = self._flush_slots(g_slot, g_rank, g_dtot, g_dpos)
            live = g_slot >= flush_slot[g_rank]
            self._entries = (users[order], vals[order])
            self._groups = (
                g_slot[live].tolist(),
                g_rank[live].tolist(),
                g_start[live].tolist(),
                g_end[live].tolist(),
            )
        by_rank = np.argsort(
            ranks * np.int64(self.horizon + 2) + slots, kind="stable"
        )
        offsets = np.searchsorted(
            ranks[by_rank], np.arange(n_games + 1)
        ).tolist()
        self._by_rank = (slots[by_rank], users[by_rank], vals[by_rank], offsets)
        # Games already dict-cold (handle bids placed before the first
        # slot): their groups never reach the walk, so stream everything
        # through the late-delivery path.
        for rank, profile in enumerate(self._profile):
            if profile is not None and rank not in self._late:
                lo, hi = offsets[rank], offsets[rank + 1]
                if lo < hi:
                    self._late[rank] = [
                        self._by_rank[0][lo:hi].tolist(),
                        self._by_rank[1][lo:hi].tolist(),
                        self._by_rank[2][lo:hi].tolist(),
                        0,
                        hi - lo,
                    ]
        self._deps = self._departure_schedule()
        self._columns = {}

    def _departure_schedule(self) -> tuple:
        """The bulk bids' departures as ``(slots, ranks, user indices)``
        lists: slot order, intake order within a slot.

        Reads the intake columns without consuming them; ``_finalize``
        drops them afterwards.
        """
        slot_chunks, rank_chunks, user_chunks = [], [], []
        for d, (uidx, ranks, starts, _) in self._columns.items():
            slot_chunks.append(np.frombuffer(starts, dtype=np.int64) + (d - 1))
            rank_chunks.append(np.frombuffer(ranks, dtype=np.int64))
            user_chunks.append(np.frombuffer(uidx, dtype=np.int64))
        if not slot_chunks:
            return (), (), ()
        slots = np.concatenate(slot_chunks)
        users = np.concatenate(user_chunks)
        order = np.lexsort((users, slots))
        return (
            slots[order].tolist(),
            np.concatenate(rank_chunks)[order].tolist(),
            users[order].tolist(),
        )

    def _flush_slots(self, g_slot, g_rank, g_dtot, g_dpos):
        """First slot per game at which its bids might cover its cost.

        Segmented cumulative sums of the group gate deltas, in (rank, slot)
        order, give every game's running total and positive-bid count at
        every one of its groups; the first group passing the feasibility
        check is the game's flush slot (``maxint`` when none ever does).
        Like every use of the gate this only needs to be *sound* — cumsum
        float drift is absorbed by the gate's slack.
        """
        n_groups = len(g_slot)
        order = np.argsort(
            g_rank * np.int64(self.horizon + 2) + g_slot, kind="stable"
        )
        r_sorted = g_rank[order]
        first = np.empty(n_groups, dtype=bool)
        first[0] = True
        first[1:] = r_sorted[1:] != r_sorted[:-1]
        idx_first = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        cum_t = np.cumsum(g_dtot[order])
        cum_p = np.cumsum(g_dpos[order])
        base_t = np.where(idx_first > 0, cum_t[idx_first - 1], 0.0)[seg_id]
        base_p = np.where(idx_first > 0, cum_p[idx_first - 1], 0)[seg_id]
        total = cum_t - base_t
        n_pos = cum_p - base_p
        costs = np.asarray(self._costs)[r_sorted]
        feasible = (n_pos > 0) & (
            total >= costs - _GATE_SLACK * (n_pos + 1.0) * (costs + 1.0)
        )
        position = np.where(feasible, np.arange(n_groups), n_groups)
        first_feasible = np.minimum.reduceat(position, idx_first)
        flush_slot = np.full(
            len(self._opt_ids), np.iinfo(np.int64).max, dtype=np.int64
        )
        found = first_feasible < n_groups
        slots_sorted = g_slot[order]
        flush_slot[r_sorted[idx_first][found]] = slots_sorted[
            first_feasible[found]
        ]
        return flush_slot

    # --------------------------------------------------------------- loop --

    def advance_slots(self, slots: int) -> int:
        """Process ``slots`` further slots; returns the new clock."""
        if slots < 1:
            raise GameConfigError(f"must advance by >= 1 slot, got {slots}")
        for _ in range(int(slots)):
            self.advance_slot()
        return self.slot

    def advance_slot(self) -> int:
        """Process the next slot for every game; returns its number."""
        with _SLOT_SECONDS.time():
            return self._advance_one_slot()

    def _advance_one_slot(self) -> int:
        if self.slot >= self.horizon:
            raise MechanismError(f"period is over after slot {self.horizon}")
        if not self._finalized:
            self._finalize()
        t = self.slot + 1

        overlay = self._pending.pop(t, None)
        late = self._late
        groups = self._groups
        walk: list | None = None
        if groups is not None:
            g_slot, g_rank, g_start, g_end = groups
            gp = self._gp
            n = len(g_slot)
            if gp < n and g_slot[gp] == t:
                # Every surviving group belongs to a game at/after its
                # flush slot: first touch flushes the replayed profile,
                # later ones step the hot engine. Groups of late-delivery
                # (dict-cold) games are skipped — their entries stream in
                # through ``late`` instead.
                if overlay is None and not late:
                    # Pure-bulk hot path: dispatch in walk (= shard) order.
                    hot = self._hot
                    profile = self._profile
                    while gp < n and g_slot[gp] == t:
                        rank = g_rank[gp]
                        if hot[rank]:
                            self._apply_hot(t, rank, self._group_dict(gp))
                        elif profile[rank] is None:
                            # The precomputed flush: the replayed profile
                            # already includes this group's entries.
                            self._go_hot(rank, t)
                            self._apply_hot(t, rank, self._profile_flush(rank))
                        else:
                            self._step_game(t, rank, self._group_dict(gp))
                        gp += 1
                else:
                    # Mixed intake this slot: collect the walk groups and
                    # dispatch them together with the overlay below, in
                    # one shard-major pass (DESIGN.md's ordering contract
                    # holds across change sources).
                    walk = []
                    while gp < n and g_slot[gp] == t:
                        rank = g_rank[gp]
                        if rank not in late:
                            walk.append((rank, gp))
                        gp += 1
                self._gp = gp
        if late:
            overlay = self._drain_late(t, overlay)
        if walk or overlay:
            self._dispatch_merged(t, walk or (), overlay)

        self._invoice_departures(t)
        self.slot = t
        self.epoch += 1
        return t

    def _dispatch_merged(self, t: int, walk, overlay: dict | None) -> None:
        """One shard-major pass over bulk-walk groups and overlay changes.

        ``walk`` holds ``(rank, group index)`` pairs already in processing
        order; overlay ranks are merged in by process rank. A game present
        in both sources gets a single merged change set (same-slot per-bid
        revisions win over columnar entries).
        """
        proc = self._proc_rank
        merged: list = [(proc[rank], rank, gp) for rank, gp in walk]
        if overlay:
            walk_ranks = {rank for rank, _ in walk}
            merged.extend(
                (proc[rank], rank, None)
                for rank in overlay
                if rank not in walk_ranks
            )
            merged.sort()
        hot = self._hot
        profile = self._profile
        for _, rank, gp in merged:
            changes = None if gp is None else self._group_dict(gp)
            if overlay and rank in overlay:
                if changes is None:
                    changes = overlay[rank]
                else:
                    changes.update(overlay[rank])
            if gp is None:
                self._step_game(t, rank, changes)
            elif hot[rank]:
                self._apply_hot(t, rank, changes)
            elif profile[rank] is None:
                # Precomputed flush; the replayed profile already includes
                # this group's entries, and an overlay change for a
                # vector-cold game is impossible (handle bids convert the
                # game to dict-cold at placement).
                self._go_hot(rank, t)
                self._apply_hot(t, rank, self._profile_flush(rank))
            else:
                self._step_game(t, rank, changes)

    def _drain_late(self, t: int, overlay: dict | None) -> dict | None:
        """Deliver this slot's bulk entries of dict-cold games.

        Merged into the overlay (same-slot per-bid revisions win) so the
        shard-ordered dispatch below sees one change set per game.
        """
        names = self._users
        exhausted = []
        for rank, record in self._late.items():
            slot_list, user_list, val_list, i, n = record
            changed = None
            while i < n and slot_list[i] == t:
                if changed is None:
                    changed = {}
                changed[names[user_list[i]]] = val_list[i]
                i += 1
            record[3] = i
            if i >= n:
                exhausted.append(rank)
            if changed:
                if overlay is None:
                    overlay = {}
                existing = overlay.get(rank)
                if existing:
                    changed.update(existing)
                overlay[rank] = changed
        for rank in exhausted:
            del self._late[rank]
        return overlay

    def _group_dict(self, gp: int) -> dict:
        """Materialize one columnar group's ``{user: residual}`` dict."""
        users, vals = self._entries
        _, _, g_start, g_end = self._groups
        lo, hi = g_start[gp], g_end[gp]
        names = self._users
        return dict(
            zip(
                [names[u] for u in users[lo:hi].tolist()],
                vals[lo:hi].tolist(),
            )
        )

    def _go_hot(self, rank: int, t: int) -> None:
        """Vector-cold -> hot: reconstruct the profile for the flush."""
        slots, users, vals, offsets = self._by_rank
        lo, hi = offsets[rank], offsets[rank + 1]
        slot_list = slots[lo:hi].tolist()
        user_list = users[lo:hi].tolist()
        val_list = vals[lo:hi].tolist()
        names = self._users
        profile: dict = {}
        for i in range(hi - lo):
            if slot_list[i] > t:
                break
            profile[names[user_list[i]]] = val_list[i]
        self._profile[rank] = profile

    def _profile_flush(self, rank: int) -> dict:
        """Hand the materialized profile over exactly once."""
        profile = self._profile[rank]
        self._profile[rank] = None
        self._hot[rank] = True
        return profile

    def _step_game(self, t: int, rank: int, residuals: dict) -> None:
        """Dict-cold/hot dispatch for one game's changed residuals."""
        if self._hot[rank]:
            self._apply_hot(t, rank, residuals)
            return
        profile = self._profile[rank]
        if profile is None:
            # A vector-cold game reached through the overlay merge path:
            # materialize its dict profile first (exact, replayed).
            self._materialize_profile(rank)
            profile = self._profile[rank]
        total = self._ctotal[rank]
        n_pos = self._cnpos[rank]
        for user, bid in residuals.items():
            old = profile.get(user, 0.0)
            if old == bid:
                continue
            if bid != bid:  # NaN: fail exactly like the engine path
                raise MechanismError(
                    f"bid for user {user!r} must be >= 0, got {bid}"
                )
            profile[user] = bid
            if old > 0.0:
                total -= old
                n_pos -= 1
            if bid > 0.0:
                total += bid
                n_pos += 1
        if not n_pos:
            total = 0.0
        cost = self._costs[rank]
        self._cnpos[rank] = n_pos
        self._ctotal[rank] = total
        if not n_pos or total < cost - _GATE_SLACK * (n_pos + 1.0) * (cost + 1.0):
            # Provably still infeasible: the game's outcome is untouched,
            # so the sorted engine is not even materialized this slot.
            return
        self._apply_hot(t, rank, self._profile_flush(rank))

    def _apply_hot(self, t: int, rank: int, residuals: dict) -> None:
        state = self._states[rank]
        result = state.apply_changes(t, residuals)
        if result is None:
            return
        _, _, newly = result
        optimization = self._opt_ids[rank]
        granted = self._granted_at
        record = self.events.record
        for user in sorted(newly, key=_grant_order):
            granted[(user, optimization)] = t
            record(UserGranted(t, user, optimization))
        if state.implemented_at == t:
            cost = state.cost
            self._implemented[optimization] = t
            self.ledger.build_outlay(t, optimization, cost)
            record(OptimizationImplemented(t, optimization, cost))

    def _invoice_departures(self, t: int) -> None:
        departed: dict = {}
        payments = self._payments
        hot = self._hot
        deps = self._deps
        if deps is not None:
            dep_slots, dep_ranks, dep_users = deps
            names = self._users
            dp = self._dp
            n = len(dep_slots)
            while dp < n and dep_slots[dp] == t:
                user = names[dep_users[dp]]
                rank = dep_ranks[dp]
                dp += 1
                if hot[rank]:
                    self._invoice(t, user, rank, departed)
                else:
                    # A cold game has never serviced anyone: the departure
                    # owes exactly zero, no engine consultation needed.
                    payments[user] = payments.get(user, 0.0)
                    departed[user] = None
            self._dp = dp
        for key in self._ends_at.pop(t, ()):
            user, rank = key
            if self._handles[key].current.end != t:
                continue  # the departure moved by revision; invoice later
            self._invoice(t, user, rank, departed)
        if departed:
            self.events.record_many([UserDeparted(t, user) for user in departed])

    def _invoice(self, t: int, user: UserId, rank: int, departed: dict) -> None:
        amount = self._states[rank].exit_price(user)
        self._payments[user] = self._payments.get(user, 0.0) + amount
        if amount > 0:
            optimization = self._opt_ids[rank]
            self.ledger.invoice(t, user, amount, memo=f"opt={optimization!r}")
            self.events.record(UserCharged(t, user, amount))
            self._game_revenue[rank] += amount
        departed[user] = None

    def run_to_end(self) -> FleetReport:
        """Process every remaining slot and return the report."""
        while self.slot < self.horizon:
            self.advance_slot()
        return self.report()

    # ------------------------------------------------------------ queries --

    def state_of(self, optimization: OptId) -> AddOnState:
        """The live per-game state machine (read-mostly; for inspection)."""
        return self._states[self.rank_of(optimization)]

    @property
    def implemented(self) -> Mapping[OptId, int]:
        """Live ``{optimization: slot built}`` mapping (treat as
        read-only); cheaper than a full :meth:`report` when only the
        implementation set is needed per slot."""
        return self._implemented

    def report(self) -> FleetReport:
        """The current summary (complete once the period is over)."""
        return FleetReport(
            horizon=self.horizon,
            games=tuple(self._opt_ids),
            ledger=self.ledger,
            events=self.events,
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


def _grant_order(user) -> tuple:
    """Deterministic ordering for same-slot grants of one game."""
    return (str(type(user).__name__), str(user))
