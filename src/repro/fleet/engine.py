"""The fleet engine: hundreds of concurrent pricing games, one scheduler.

:class:`FleetEngine` runs every additive (AddOn) game of an optimization
catalog inside a single slot-synchronized loop. Where one loop per
optimization would pay a full Python slot-advance per game per slot —
active-set bookkeeping, residual recomputation, a mechanism step — the
fleet makes one pass over the whole fleet's arrivals and departures per
slot:

* **One columnar bid store.** Every bid is one row of growable
  per-duration columns (user, game, start, values), whether it arrived
  through bulk intake (:meth:`FleetEngine.ingest_many`), one
  :meth:`FleetEngine.place_bid`, or a :meth:`FleetEngine.revise_bid` —
  a revision appends a row that supersedes the bid's current one from
  the next slot on. A bid's per-slot residuals are fixed by its row, so
  the engine schedules them once instead of re-deriving them from an
  active set every slot.
* **Blocks.** The rows added since the last finalization form one
  block, finalized in numpy into a schedule of its own when the slot the
  earliest of them starts at is advanced: entries lexsorted by ``(slot,
  rank)``, consumed by advancing a pointer, not by scanning per-game
  state. A slot walks every live block; a game present in several merges
  their changes in row order, so a superseding row always wins. Finished
  blocks are dropped, and beyond a few live blocks the newest is merged
  into its predecessor when their sizes are within a factor of two, so
  bids placed across the period leave a logarithmic number of blocks to
  walk.
* **Lazy games.** A game's sorted mechanism engine is not materialized
  until its bids could conceivably cover its cost. The proof is the same
  sound feasibility gate as
  :meth:`~repro.core.fastshapley.IncrementalShapley.settled` (a serviced
  set of size ``k`` needs bids summing to ``>= cost`` minus tolerances),
  evaluated when a block is finalized, at its groups, over the gate
  profile every live block keeps per game: each game gets a **flush
  slot**, and its groups before it never reach the slot loop — a
  never-funded game costs the loop nothing but its departures.
* **Batched dispatch.** Groups of games that might move are stepped
  through :meth:`repro.core.online.AddOnState.apply_changes`, the
  allocation-free batch entry point over the fused
  :meth:`~repro.core.fastshapley.IncrementalShapley.apply_and_solve`.
* **Array-backed shared state.** The schedules, their group indexes, the
  per-group gate deltas, and per-game revenue are flat parallel arrays.
* **Columnar bookkeeping.** The event log and ledger, shared by every
  game, store rows, not objects (see
  :class:`~repro.cloudsim.events.EventLog` and
  :class:`~repro.cloudsim.ledger.BillingLedger`): placements, revisions,
  grants, builds, departures and charges append rows that reference the
  user objects the engine already holds. One slot's departures are one
  numpy cut per block; a cold game has never serviced anyone, so its
  departures owe zero and only get their row. Payments and grant slots
  are not kept in per-user dicts: :meth:`FleetEngine.report` sums them
  from the departure, charge and grant rows. Event and ledger-entry
  objects are built only when someone reads them.

Determinism is contractual (see DESIGN.md "Fleet conventions"): within a
slot, games step in ascending catalog rank, same-slot grants of one game
are emitted in a fixed (type name, string) user order, and departures are
invoiced in row order, so a fixed trace replays to an identical event log
regardless of how its changes were discovered.

A game is *cold* until its flush slot, then *hot*: at the flush its
profile is rebuilt from every block and handed to the game's
:class:`~repro.core.online.AddOnState` in one step, and every later change
is applied incrementally.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import Mapping

import numpy as np

from repro import obs
from repro.bids.additive import AdditiveBid
from repro.bids.revision import RevisableBid
from repro.cloudsim.catalog import OptimizationCatalog
from repro.cloudsim.events import (
    CHARGED,
    DEPARTED,
    GRANTED,
    IMPLEMENTED,
    PLACED,
    REVISED,
    EventLog,
    UserCharged,
    UserDeparted,
    UserGranted,
)
from repro.cloudsim.ledger import BillingLedger
from repro.core.fastshapley import GATE_SLACK as _GATE_SLACK
from repro.core.online import AddOnState
from repro.core.outcome import OptId, UserId
from repro.errors import BidError, GameConfigError, MechanismError, ProtocolError

__all__ = ["FleetBatch", "FleetEngine", "FleetReport"]

# Per-slot granularity only (DESIGN.md "Metrics conventions"): the
# per-bid/per-group loops inside a slot are the fleet's hot path and
# stay uninstrumented — one observation per advanced slot is the floor.
_SLOT_SECONDS = obs.REGISTRY.histogram(
    "repro_fleet_slot_advance_seconds",
    "Wall time of one FleetEngine slot advance.",
)

#: Flush slot of a game whose bids never might cover its cost.
_NEVER = int(np.iinfo(np.int64).max)

#: Live blocks kept before the newest is merged into its predecessor.
_MAX_BLOCKS = 8


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


class _Block:
    """One finalized block of rows: its schedule, gate profile and walk.

    ``rows``/``vals`` are its schedule entries (row index, residual) in
    walk order — ``(slot, rank, row)``. Runs of equal
    ``(slot, rank)`` form groups: group ``g`` spans entries
    ``gbound[g]:gbound[g + 1]``. ``by_rank`` lists the groups in
    ``(rank, slot)`` order, ``offsets`` cutting it per game; ``gkey``
    holds their ``rank * span + slot`` keys, and ``gtot``/``gpos`` the
    feasibility-gate profile there: the game's residual total and
    positive-bid count over this block's rows. ``walk`` holds the groups
    the slot loop visits (games at or after their flush slot) as
    ``(slot, rank, lo, hi)`` arrays consumed through ``gp``; ``deps`` the
    departures as ``(slot, rank, row)`` arrays consumed through ``dp``.
    ``walk_next``/``deps_next`` cache, as Python ints, the slot each
    pointer waits on, so a slot with nothing in this block costs no numpy
    call. ``last`` is the block's last entry slot.
    """

    def prefix(self, keys: np.ndarray, span: int) -> tuple:
        """Gate profile ``(total, positive count)`` of this block's rows
        at each ``rank * span + slot`` key."""
        at = np.searchsorted(self.gkey, keys, side="right") - 1
        hit = (at >= 0) & (self.gkey[at] // span == keys // span)
        return np.where(hit, self.gtot[at], 0.0), np.where(hit, self.gpos[at], 0)

    def tail(self, g: int) -> tuple:
        """``(slot, rank, row, residual)`` of the entries of groups ``g``
        on, in walk order."""
        sizes = np.diff(self.gbound[g:])
        lo = self.gbound[g]
        return (
            np.repeat(self.gslot[g:], sizes),
            np.repeat(self.grank[g:], sizes),
            self.rows[lo:],
            self.vals[lo:],
        )

    def rewalk(self, t: int, flush: np.ndarray) -> None:
        """Rebuild the walk arrays from slot ``t`` on under ``flush``."""
        gslot = self.gslot
        lo = int(np.searchsorted(gslot, t))
        live = lo + np.flatnonzero(gslot[lo:] >= flush[self.grank[lo:]])
        self.walk = (
            gslot[live],
            self.grank[live],
            self.gbound[live],
            self.gbound[live + 1],
        )
        self.walk_to(0)

    def walk_to(self, gp: int) -> None:
        """Point the walk at group ``gp``."""
        self.gp = gp
        wslot = self.walk[0]
        self.walk_next = int(wslot[gp]) if gp < len(wslot) else _NEVER

    def deps_to(self, dp: int) -> None:
        """Point the departures at entry ``dp``."""
        self.dp = dp
        dslot = self.deps[0]
        self.deps_next = int(dslot[dp]) if dp < len(dslot) else _NEVER

    def next_slot(self) -> int:
        """Earliest slot this block has a walk group or a departure at."""
        return min(self.walk_next, self.deps_next)


class FleetEngine:
    """See the module docstring.

    Parameters
    ----------
    catalog:
        The fleet's optimizations; one independent AddOn game each.
    horizon:
        Number of slots in the shared amortization period ``T``.
    """

    def __init__(self, catalog: OptimizationCatalog, horizon: int) -> None:
        if horizon < 1:
            raise GameConfigError(f"horizon must be >= 1, got {horizon}")
        if len(catalog) == 0:
            raise GameConfigError("catalog must offer at least one optimization")
        if len(catalog) * (horizon + 2) > np.iinfo(np.int64).max:
            # Every slot, and the group key below, must fit an int64.
            raise GameConfigError(
                f"horizon {horizon} is too long for {len(catalog)} games"
            )
        # Checkpoints image every field below exactly (the FleetEngine
        # entry of repro.gateway.codec): a new field must be imaged there,
        # or rebuilt from imaged ones, or a restored period diverges.
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
        self._states = [AddOnState(catalog.get(j).cost) for j in self._opt_ids]
        self._cost_of = np.array([catalog.get(j).cost for j in self._opt_ids])
        # Group key ``rank * span + slot``: slots run 1 .. horizon + 1.
        self._span = horizon + 2
        # Event details and invoice memos, one shared string per game.
        self._details = [f"opt={j!r}" for j in self._opt_ids]
        n_games = len(self._opt_ids)
        # Per game: hot flag and flush slot (module docstring).
        self._hot = [False] * n_games
        self._flush = np.full(n_games, _NEVER, dtype=np.int64)
        self._implemented: dict[OptId, int] = {}
        self._game_revenue = np.zeros(n_games)
        # The bid store. Every row gets the next dense index; ``_users``
        # and ``_ranks`` map it back to its (user, game) pair. Rows wait
        # in one set of growable columns per duration — (row, rank, start,
        # row-major values) — until the slot the earliest of them starts
        # at finalizes them into a block (``_open_start``: that slot);
        # ``_blocks`` keeps the finalized blocks (finished ones are
        # dropped when the next block arrives), ``_next`` the earliest
        # slot any of them acts at.
        self._users: list = []
        # A list, not an ``array``: grown by one row per served request,
        # an array took the server about two page faults per request.
        self._ranks: list = []
        self._columns: dict[int, tuple] = {}
        self._open_start = _NEVER
        self._blocks: list[_Block] = []
        self._next = _NEVER
        self._taken: list | None = None  # per game: user -> current row
        self._handles: dict[int, RevisableBid] = {}  # current row -> handle
        self._revised = False  # rows are superseded only by revisions

    # ------------------------------------------------------------- intake --

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

    def _guard(self) -> list:
        """Per game, ``user -> current row`` over every bid, built on demand.

        The duplicate guard of every entry point: one bid per (user,
        game), revised in place, never placed twice. Trusted bulk intake
        never builds it, so pure-bulk fleets never pay for it; once
        built, every append keeps it whole. Keyed per game, so a bid
        holds no key object of its own.
        """
        if self._taken is None:
            taken: list = [{} for _ in self._opt_ids]
            for row, (user, rank) in enumerate(zip(self._users, self._ranks)):
                taken[rank][user] = row
            self._taken = taken
        return self._taken

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
        if user in self._guard()[rank]:
            raise GameConfigError(
                f"user {user!r} already bid on {optimization!r}; revise instead"
            )
        schedule = bid.schedule
        if schedule.start <= self.slot:
            raise GameConfigError(
                f"bid for slots from {schedule.start} is retroactive at slot "
                f"{self.slot}"
            )
        if schedule.end > self.horizon:
            raise GameConfigError(
                f"bid ends at {schedule.end}, beyond the horizon {self.horizon}"
            )
        return rank

    def place_bid(
        self, user: UserId, optimization: OptId, bid: AdditiveBid
    ) -> RevisableBid:
        """Declare one revisable bid; returns its revision handle."""
        rank = self.check_bid(user, optimization, bid)
        return self.place_checked(user, rank, optimization, bid)

    def place_checked(
        self, user: UserId, rank: int, optimization: OptId, bid: AdditiveBid
    ) -> RevisableBid:
        """The mutation half of :meth:`place_bid`: one row append.

        The caller must have run :meth:`check_bid` against the *current*
        engine state (no intervening placements or slot advances) —
        atomic multi-bid callers check everything first, then commit
        through here without paying the validation twice.
        """
        handle = RevisableBid(bid, declared_at=self.slot + 1)
        schedule = bid.schedule
        row = self._append(user, rank, schedule.start, schedule.values)
        self._guard()[rank][user] = row
        self._handles[row] = handle
        self.events.append(PLACED, self.slot + 1, user, self._details[rank])
        self.epoch += 1
        return handle

    def revise_bid(
        self, user: UserId, optimization: OptId, new_values: Mapping[int, float]
    ) -> None:
        """Upward revision of a bid placed through :meth:`place_bid`.

        Appends a row that supersedes the bid's current row from the next
        slot on; bulk-ingested bids cannot be revised.
        """
        rank = self._rank_of.get(optimization)
        if rank is None:
            raise GameConfigError(f"no optimization {optimization!r} in catalog")
        game = self._guard()[rank]
        row = game.get(user)
        handle = self._handles.get(row)  # bulk rows have none
        if handle is None:
            raise GameConfigError(
                f"user {user!r} has no bid on {optimization!r} to revise"
            )
        if any(slot > self.horizon for slot in new_values):
            raise GameConfigError("revision extends beyond the horizon")
        _require_finite(new_values.values())
        revised = handle.revise(self.slot + 1, new_values)
        start = max(self.slot + 1, revised.start)
        values = revised.schedule.values[start - revised.start :]
        superseding = self._append(user, rank, start, values)
        self._revised = True
        game[user] = superseding
        self._handles[superseding] = self._handles.pop(row)
        self.events.append(REVISED, self.slot + 1, user, self._details[rank])
        self.epoch += 1

    def _append(self, user: UserId, rank: int, start: int, values) -> int:
        """Append one bid row to the open block; returns its row index."""
        row = len(self._users)
        self._users.append(user)
        self._ranks.append(rank)
        rows, ranks, starts, vals = self._column(len(values))
        rows.append(row)
        ranks.append(rank)
        starts.append(start)
        vals.extend(values)
        if start < self._open_start:
            self._open_start = start
        return row

    def _column(self, duration: int) -> tuple:
        """The open block's ``(row, rank, start, values)`` columns for one
        bid duration."""
        group = self._columns.get(duration)
        if group is None:
            group = self._columns[duration] = (
                array("q"), array("q"), array("q"), array("d")
            )
        return group

    def ingest(self, batch: FleetBatch) -> int:
        """Bulk-load one columnar batch of bids; returns the bid count.

        See :meth:`ingest_many`.
        """
        return self.ingest_many((batch,))

    def ingest_many(self, batches, *, checked: bool = False) -> int:
        """Atomically bulk-load several batches; returns the bid count.

        Bids may arrive at any slot, each starting after the current one;
        they cannot be revised later (use :meth:`place_bid` for that).
        Every batch is validated before *any* batch is committed, so a
        bad batch in the middle cannot leave earlier ones scheduled — the
        all-or-nothing property the gateway's bulk intake splits refused
        runs on, to give each envelope its own verdict. Every bid still
        gets its ``BidPlaced`` row, so the event log stays complete.

        Bulk intake trusts its generator for one bid per (user,
        optimization) until the engine tracks taken pairs — after any
        per-bid call, or once ``checked=True`` asks for it, as untrusted
        callers do. From then on a pair already bid, before or within
        these batches, fails the whole call.
        """
        validated = []
        for batch in batches:
            if len(batch) > 0:
                ranks, starts, first = self._validate_batch(batch)
                validated.append((batch, ranks, ranks.tolist(), starts, first))
        taken = self._guard() if checked else self._taken
        if taken is not None:
            self._claim(taken, [(b.users, ranks) for b, _, ranks, _, _ in validated])
        total = 0
        placed = self.slot + 1
        for batch, ranks, rank_list, starts, first in validated:
            base = len(self._users)
            self._users.extend(batch.users)
            self._ranks.extend(rank_list)
            n, duration = batch.values.shape
            group = self._column(duration)
            group[0].extend(range(base, base + n))
            group[1].frombytes(ranks.tobytes())
            group[2].frombytes(starts.tobytes())
            group[3].frombytes(batch.values.tobytes())
            self._open_start = min(self._open_start, first)
            self.events.extend(PLACED, placed, batch.users, "")
            total += n
        self.epoch += total
        return total

    def _claim(self, taken: list, bids: list) -> None:
        """Enter the rows about to be appended in the duplicate guard.

        ``bids`` holds ``(users, ranks)`` per batch, in commit order. A
        pair already bid, before or within these batches, withdraws the
        entries this call made and fails it, so nothing is committed.
        """
        row = len(self._users)
        for users, ranks in bids:
            for user, rank in zip(users, ranks):
                game = taken[rank]
                if user in game:
                    claimed = chain.from_iterable(zip(*pair) for pair in bids)
                    for done, at in islice(claimed, row - len(self._users)):
                        del taken[at][done]
                    raise GameConfigError(
                        f"user {user!r} already bid on "
                        f"{self._opt_ids[rank]!r}; revise instead"
                    )
                game[user] = row
                row += 1

    def _validate_batch(self, batch: FleetBatch):
        """All of one batch's intake checks, mutation-free; returns its
        ranks, its starts and the earliest start."""
        starts = np.asarray(batch.starts, dtype=np.int64)
        ranks = np.asarray(batch.opt_ranks, dtype=np.int64)
        values = batch.values
        first = int(starts.min())
        if first <= self.slot:
            raise GameConfigError(
                f"bulk bids from slot {first} are retroactive at slot {self.slot}"
            )
        # Python ints, so a start near the int64 limit cannot wrap.
        last = int(starts.max()) + values.shape[1] - 1
        if last > self.horizon:
            raise GameConfigError(
                f"bulk bids end at {last}, beyond the horizon {self.horizon}"
            )
        if ranks.min() < 0 or ranks.max() >= len(self._opt_ids):
            raise GameConfigError("bulk bids address games outside the catalog")
        if not np.isfinite(values).all() or values.min() < 0:
            raise GameConfigError("bulk bid values must be finite and >= 0")
        return ranks, starts, first

    # ------------------------------------------------------- finalization --

    def _finalize(self, t: int) -> None:
        """Finalize the open rows into a block; every one starts at ``t``
        or later.

        New bids only ever move a cold game's flush slot earlier, and only
        to a slot where they have a group, so the gate is checked there,
        over every live block; a flush that moves re-walks the older
        blocks holding the now-needed groups. Blocks whose every entry
        lies behind are dropped. Past ``_MAX_BLOCKS`` live blocks, the
        newest is merged into its predecessor while that one is at most
        twice its size, so live blocks stay few and each entry is merged
        a logarithmic number of times.
        """
        new = self._build_block()
        keys = new.gkey[~np.asarray(self._hot, dtype=bool)[new.gkey // self._span]]
        blocks = [b for b in self._blocks if b.last >= t]
        blocks.append(new)
        while len(blocks) > _MAX_BLOCKS:
            older, newer = blocks[-2:]
            if len(older.rows) > 2 * len(newer.rows):
                break
            blocks[-2:] = [self._merge(older, newer, t)]
        self._blocks = blocks
        moved = self._lower_flush(keys) if len(keys) else None
        if moved is not None:
            for older in blocks[:-1]:
                if moved[older.grank[np.searchsorted(older.gslot, t) :]].any():
                    older.rewalk(t, self._flush)
        blocks[-1].rewalk(t, self._flush)
        self._next = min([b.next_slot() for b in blocks])

    def _build_block(self) -> _Block:
        """Flatten the open columns into one block, entirely in numpy.

        Entries are first put back in row order (ascending row index) so
        every tie below breaks exactly as in the order bids arrived.
        Residuals are left-to-right suffix sums, bit-identical to
        ``AdditiveBid.residual``; the gate profile is the per-game running
        sum of the residual changes (total) and positive-bid counts.
        """
        slot_chunks, rank_chunks, val_chunks, row_chunks = [], [], [], []
        dep_chunks = []
        for d, (rows, ranks, starts, values) in self._columns.items():
            rows = np.frombuffer(rows, dtype=np.int64)
            ranks = np.frombuffer(ranks, dtype=np.int64)
            starts = np.frombuffer(starts, dtype=np.int64)
            values = np.frombuffer(values).reshape(-1, d)
            # Left-to-right suffix sums, vectorized across bids: column
            # order matches ``AdditiveBid.residual`` add-for-add.
            residuals = np.zeros((len(rows), d + 1))
            for i in range(d):
                acc = values[:, i].copy()
                for k in range(i + 1, d):
                    acc = acc + values[:, k]
                residuals[:, i] = acc
            slot_chunks.append((starts[:, None] + np.arange(d + 1)).ravel())
            rank_chunks.append(np.repeat(ranks, d + 1))
            val_chunks.append(residuals.ravel())
            row_chunks.append(np.repeat(rows, d + 1))
            dep_chunks.append((starts + (d - 1), ranks, rows))
        slots, ranks, vals, rows = (
            np.concatenate(chunks)
            for chunks in (slot_chunks, rank_chunks, val_chunks, row_chunks)
        )
        # Gate deltas per entry: a bid's entries are contiguous, and each
        # steps its profile contribution from the previous residual (none
        # before its first entry) to this one.
        first = np.empty(len(rows), dtype=bool)
        first[0] = True
        first[1:] = rows[1:] != rows[:-1]
        positive = vals > 0.0
        dtotal = vals - np.where(first, 0.0, np.roll(vals, 1))
        dnpos = positive.astype(np.int64) - (np.roll(positive, 1) & ~first)
        columns = [slots, ranks, vals, rows, dtotal, dnpos]
        if slots.max() > self.horizon:
            # The zero residual after a bid ending at the horizon.
            keep = slots <= self.horizon
            columns = [column[keep] for column in columns]
        runs = [group[0] for group in self._columns.values()]
        if any(a[-1] > b[0] for a, b in zip(runs, runs[1:])):
            # Durations arrived interleaved: back to row order. Row
            # indices already ascend within each duration's columns, so
            # this stable sort only merges sorted runs (and keeps each
            # bid's entries in slot order).
            intake = _stable_argsort(columns[3])
            columns = [column[intake] for column in columns]
        slots, ranks, vals, rows, dtotal, dnpos = columns
        self._columns = {}
        self._open_start = _NEVER
        deps = (np.concatenate(chunks) for chunks in zip(*dep_chunks))
        block, order, g_start = self._layout(slots, ranks, rows, vals, deps)
        ranks = block.gkey // self._span
        first = np.empty(len(ranks), dtype=bool)
        first[0] = True
        first[1:] = ranks[1:] != ranks[:-1]
        block.gtot, block.gpos = (
            _running(np.add.reduceat(deltas[order], g_start)[block.by_rank], first)
            for deltas in (dtotal, dnpos)
        )
        return block

    def _layout(self, slots, ranks, rows, vals, deps) -> tuple:
        """A block of the entries and departures given in row order.

        Also returns the walk-order permutation of the entries and the
        group starts within it. Entries are lexsorted by ``(slot, rank)``,
        groups indexed per game, and departures put in slot order, row
        order within a slot.
        """
        n_games = len(self._opt_ids)
        order = _stable_argsort(slots * n_games + ranks)
        slots_s, ranks_s = slots[order], ranks[order]
        # Group boundaries: runs of equal (slot, rank) in slot order.
        boundary = np.empty(len(slots_s), dtype=bool)
        boundary[0] = True
        boundary[1:] = (slots_s[1:] != slots_s[:-1]) | (ranks_s[1:] != ranks_s[:-1])
        g_start = np.flatnonzero(boundary)
        block = _Block()
        block.rows = rows[order]
        block.vals = vals[order]
        block.gslot = slots_s[g_start]
        block.grank = ranks_s[g_start]
        block.gbound = np.append(g_start, len(slots_s))
        keys = block.grank * self._span + block.gslot
        block.by_rank = _stable_argsort(keys)
        block.gkey = keys[block.by_rank]
        block.offsets = np.searchsorted(
            block.gkey, np.arange(n_games + 1) * self._span
        ).tolist()
        dep_slots, dep_ranks, dep_rows = deps
        by_slot = _stable_argsort(dep_rows)
        by_slot = by_slot[_stable_argsort(dep_slots[by_slot])]
        block.deps = (dep_slots[by_slot], dep_ranks[by_slot], dep_rows[by_slot])
        block.deps_to(0)
        block.last = int(slots_s[-1])
        return block, order, g_start

    def _merge(self, older: _Block, newer: _Block, t: int) -> _Block:
        """One block of ``older``'s entries and departures from slot ``t``
        on and all of ``newer``'s, whose rows all come later."""
        lo = int(np.searchsorted(older.gslot, t))
        slots, ranks, rows, vals = (
            np.concatenate(pair) for pair in zip(older.tail(lo), newer.tail(0))
        )
        deps = (
            np.concatenate((left[older.dp :], right))
            for left, right in zip(older.deps, newer.deps)
        )
        block = self._layout(slots, ranks, rows, vals, deps)[0]
        older_tot, older_pos = older.prefix(block.gkey, self._span)
        newer_tot, newer_pos = newer.prefix(block.gkey, self._span)
        block.gtot = older_tot + newer_tot
        block.gpos = older_pos + newer_pos
        return block

    def _lower_flush(self, keys: np.ndarray) -> np.ndarray | None:
        """Lower the flush slot of every game whose bids might cover its
        cost at one of ``keys`` (sorted ``rank * span + slot``).

        The gate profile there is summed over every live block. Returns
        the mask of games whose flush moved, or None. Like every use of
        the gate this only needs to be *sound*: float drift is absorbed
        by the gate's slack, and a superseded row still counted only errs
        toward flushing.
        """
        total, n_pos = 0.0, 0
        for block in self._blocks:
            more_tot, more_pos = block.prefix(keys, self._span)
            total = total + more_tot
            n_pos = n_pos + more_pos
        costs = self._cost_of[keys // self._span]
        feasible = (n_pos > 0) & (
            total >= costs - _GATE_SLACK * (n_pos + 1.0) * (costs + 1.0)
        )
        keys = keys[feasible]
        if not len(keys):
            return None
        ranks = keys // self._span
        first = np.empty(len(ranks), dtype=bool)
        first[0] = True
        first[1:] = ranks[1:] != ranks[:-1]
        ranks, slots = ranks[first], keys[first] % self._span
        moved = np.zeros(len(self._opt_ids), dtype=bool)
        moved[ranks] = slots < self._flush[ranks]
        self._flush[ranks] = np.minimum(self._flush[ranks], slots)
        return moved if moved.any() else None

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
        t = self.slot + 1
        if self._open_start <= t:
            self._finalize(t)
        if t >= self._next:
            self._walk(t)
            self._invoice_departures(t)
            self._next = min([b.next_slot() for b in self._blocks])
        self.slot = t
        self.epoch += 1
        return t

    def _walk(self, t: int) -> None:
        """Step every game with a walked group at slot ``t``, in rank order.

        A game with groups in several blocks gets one merged change set,
        later blocks (later rows) winning. A cold game's first walked
        group is its flush.
        """
        steps: list = []
        for block in self._blocks:
            if block.walk_next > t:
                continue
            wslot, wrank, wlo, whi = block.walk
            gp = block.gp
            end = int(wslot.searchsorted(t, side="right"))
            steps += zip(
                wrank[gp:end].tolist(),
                repeat(block),
                wlo[gp:end].tolist(),
                whi[gp:end].tolist(),
            )
            block.walk_to(end)
        if len(self._blocks) > 1:
            steps.sort(key=itemgetter(0))  # stable: block order per game
        hot = self._hot
        i = 0
        n = len(steps)
        while i < n:
            rank, block, lo, hi = steps[i]
            i += 1
            if not hot[rank]:
                while i < n and steps[i][0] == rank:
                    i += 1  # the flush reads every block's entries itself
                self._go_hot(t, rank)
                continue
            changes = dict(self._entries(block.rows[lo:hi], block.vals[lo:hi]))
            while i < n and steps[i][0] == rank:
                _, block, lo, hi = steps[i]
                i += 1
                changes.update(self._entries(block.rows[lo:hi], block.vals[lo:hi]))
            self._apply_hot(t, rank, changes)

    def _entries(self, rows: np.ndarray, vals: np.ndarray):
        """``(user, residual)`` pairs of schedule entries."""
        names = self._users
        return zip([names[u] for u in rows.tolist()], vals.tolist())

    def _go_hot(self, t: int, rank: int) -> None:
        """Cold -> hot: hand the game's profile as of slot ``t`` over.

        The profile is every block's entries of the game up to ``t``, last
        value per user winning — the same floats the slot loop would have
        delivered one slot at a time. Blocks are read in row order, and a
        superseding row covers every slot its predecessor still had, so
        the current row always wins.
        """
        row_parts, val_parts = [], []
        for block in self._blocks:
            groups = block.by_rank[block.offsets[rank] : block.offsets[rank + 1]]
            groups = groups[block.gslot[groups] <= t]
            if not len(groups):
                continue
            lo = block.gbound[groups]
            sizes = block.gbound[groups + 1] - lo
            ends = np.cumsum(sizes)
            entries = np.arange(ends[-1]) + np.repeat(lo - ends + sizes, sizes)
            row_parts.append(block.rows[entries])
            val_parts.append(block.vals[entries])
        rows, vals = np.concatenate(row_parts), np.concatenate(val_parts)
        self._hot[rank] = True
        self._apply_hot(t, rank, dict(self._entries(rows, vals)))

    def _apply_hot(self, t: int, rank: int, residuals: dict) -> None:
        state = self._states[rank]
        result = state.apply_changes(t, residuals)
        if result is None:
            return
        _, _, newly = result
        optimization = self._opt_ids[rank]
        self.events.extend(GRANTED, t, sorted(newly, key=_grant_order), optimization)
        if state.implemented_at == t:
            cost = state.cost
            self._implemented[optimization] = t
            self.ledger.build_outlay(t, optimization, cost)
            self.events.append(IMPLEMENTED, t, optimization, cost)

    def _invoice_departures(self, t: int) -> None:
        """Invoice the rows departing at ``t``, in row order.

        One numpy cut per block takes its departures at ``t``. A cold
        game has never serviced anyone, so its departures owe exactly
        zero and only get their ``UserDeparted`` row; a hot game prices
        each through ``exit_price``. Payments are not kept here: the
        report sums them from the departure and charge rows.
        """
        rows: list = []
        ranks: list = []
        for block in self._blocks:
            if block.deps_next > t:
                continue
            dep_slots, dep_ranks, dep_rows = block.deps
            dp = block.dp
            end = int(dep_slots.searchsorted(t, side="right"))
            rows += dep_rows[dp:end].tolist()
            ranks += dep_ranks[dp:end].tolist()
            block.deps_to(end)
        if not rows:
            return
        names = self._users
        users = [names[row] for row in rows]
        if self._revised:
            # A revised bid's superseding row departs instead of the old.
            taken = self._taken
            current = [
                taken[rank].get(user) == row
                for user, row, rank in zip(users, rows, ranks)
            ]
            users = list(compress(users, current))
            ranks = list(compress(ranks, current))
        hot, states = self._hot, self._states
        for user, rank in zip(users, ranks):
            if hot[rank]:
                amount = states[rank].exit_price(user)
                if amount > 0:
                    self.ledger.invoice(t, user, amount, memo=self._details[rank])
                    self.events.append(CHARGED, t, user, amount)
                    self._game_revenue[rank] += amount
        self.events.extend(DEPARTED, t, list(dict.fromkeys(users)))

    def run_to_end(self) -> FleetReport:
        """Process every remaining slot and return the report."""
        while self.slot < self.horizon:
            self.advance_slot()
        return self.report()

    # ------------------------------------------------------------ queries --

    @property
    def implemented(self) -> Mapping[OptId, int]:
        """Live ``{optimization: slot built}`` mapping (treat as
        read-only); cheaper than a full :meth:`report` when only the
        implementation set is needed per slot."""
        return self._implemented

    def _granted_at(self) -> dict:
        """``{(user, optimization): slot granted}`` in grant order, from
        the event log's grant rows."""
        column = self.events.column
        pairs = zip(column(UserGranted, "user"), column(UserGranted, "optimization"))
        return dict(zip(pairs, column(UserGranted, "slot")))

    def _payments(self) -> dict:
        """``{user: total invoiced}`` from the event log: every departed
        user in order of first departure, at 0.0 plus the user's charges,
        added in charge order — the sums invoicing would have kept."""
        column = self.events.column
        payments = dict.fromkeys(column(UserDeparted, "user"), 0.0)
        for user, amount in zip(
            column(UserCharged, "user"), column(UserCharged, "amount")
        ):
            payments[user] += amount
        return payments

    def report(self) -> FleetReport:
        """The current summary (complete once the period is over).

        Payments and grant slots are summed from the event log's rows,
        so a report costs O(events) numpy work plus one dict entry per
        departed user and per grant.
        """
        return FleetReport(
            horizon=self.horizon,
            games=tuple(self._opt_ids),
            ledger=self.ledger,
            events=self.events,
            implemented=dict(self._implemented),
            granted_at=self._granted_at(),
            payments=self._payments(),
            game_revenue={
                j: float(self._game_revenue[r])
                for r, j in enumerate(self._opt_ids)
                if self._game_revenue[r] != 0.0
            },
            epoch=self.epoch,
        )


def _require_finite(values) -> None:
    """Revised values must be finite, as bulk intake requires."""
    if not all(map(math.isfinite, values)):
        raise BidError("slot values must be finite")


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys.

    Packs each key with its position into one distinct int64 and sorts
    those values: numpy's vectorized value sort runs several times
    faster than its stable argsort on a million-bid block. Keys too
    large to pack fall back to the stable argsort.
    """
    n = len(keys)
    if not n or int(keys.max()) * n + n > np.iinfo(np.int64).max:
        return np.argsort(keys, kind="stable")
    return np.sort(keys * n + np.arange(n)) % n


def _running(deltas: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running sums of ``deltas`` restarted wherever ``first`` is set."""
    starts = np.flatnonzero(first)
    cum = np.cumsum(deltas)
    base = np.where(starts > 0, cum[starts - 1], 0)
    return cum - base[np.cumsum(first) - 1]


def _grant_order(user) -> tuple:
    """Deterministic ordering for same-slot grants of one game."""
    return (str(type(user).__name__), str(user))
