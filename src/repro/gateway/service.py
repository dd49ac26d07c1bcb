"""The gateway facade: one service, every subsystem behind one surface.

:class:`PricingService` owns a :class:`~repro.fleet.engine.FleetEngine`
(the pricing games), a relational :class:`~repro.db.catalog.Catalog` with
its :class:`~repro.db.engine.QueryEngine` (the value-measurement
substrate), and an :class:`~repro.advisor.OptimizationAdvisor` wired to
the service's :class:`~repro.advisor.WorkloadLog` — and exposes exactly
one entry point over all of them: ``dispatch(request) -> reply`` on the
envelopes of :mod:`repro.gateway.envelopes`.

Contracts (tested in ``tests/test_gateway.py``):

* **Typed in, typed out.** ``dispatch`` never raises for request-shaped
  failures — every :class:`~repro.errors.ReproError` comes back as an
  :class:`~repro.gateway.envelopes.ErrorReply` with a structured code.
  ``dispatch_json`` is the wire-level twin (dicts in, dicts out) and
  additionally converts decode-time junk into error replies, so a JSONL
  transport never sees an exception at all.
* **One intake rule, a verdict per envelope.** Every maximal run of
  consecutive non-revisable :class:`SubmitBids` envelopes, at any slot,
  batched or alone, is bulk-ingested as columnar
  :class:`~repro.fleet.engine.FleetBatch` blocks — duration-major and
  request-ordered, exactly the layout
  :func:`repro.workloads.fleet.fleet_batches` emits — so gateway outcomes
  and metered costs are bit-identical to driving the
  :class:`FleetEngine` directly (``benchmarks/bench_gateway.py`` holds
  the dispatch overhead under 15% at 50,000 users). A revisable envelope
  is placed bid by bid and keeps the handle a :class:`ReviseBid` needs.
  Either way every envelope gets exactly the reply it would get if
  dispatched alone: one tenant's bad bid never fails another's.
* **Slot-synchronized.** One :class:`AdvanceSlots` request moves every
  game in lock step; there is no per-game clock to drift.
* **Snapshot-isolated reads.** Every :class:`RunQuery` pins one catalog
  epoch (:meth:`~repro.db.catalog.Catalog.snapshot`) and runs a
  per-request engine against it: interleaved ``SubmitBids``/
  ``AdvanceSlots``/advice adoption cannot change a query mid-flight, the
  reply echoes the epoch served, and ``as_of`` re-reads a retained
  earlier epoch (``tests/test_snapshot_isolation.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.advisor import AdvisorConfig, OptimizationAdvisor, WorkloadLog
from repro.bids.additive import AdditiveBid
from repro.cloudsim.catalog import OptimizationCatalog
from repro.db.catalog import Catalog
from repro.db.costmodel import CostModel
from repro.db.engine import QueryEngine
from repro.db.snapshot import CatalogSnapshot
from repro.errors import (
    BidError,
    GameConfigError,
    MechanismError,
    ProtocolError,
    QueryError,
    RecoveryError,
    ReproError,
)
from repro import obs
from repro.fleet.engine import FleetBatch, FleetEngine, FleetReport
from repro.gateway import codec
from repro.gateway.envelopes import (
    QUERY_KINDS,
    AdvanceSlots,
    AdviseReply,
    AdviseRequest,
    BidsReply,
    ConfigReply,
    Configure,
    ErrorReply,
    LedgerQuery,
    LedgerReply,
    MetricsReply,
    MetricsRequest,
    QueryReply,
    Reply,
    Request,
    ReviseBid,
    ReviseReply,
    RunQuery,
    SlotReply,
    SubmitBids,
    request_from_dict,
    to_dict,
)

__all__ = [
    "PricingService",
    "TenantSession",
    "BulkAcks",
    "SNAPSHOT_RETENTION",
    "fingerprint",
]

#: Catalog snapshots the service retains for ``as_of`` time travel. Each
#: pinned epoch keeps its tables' buffers alive, so retention is bounded.
SNAPSHOT_RETENTION = 16

# Dispatch-level instrumentation (repro.obs). Label cardinality is
# bounded by construction: request kinds and query kinds are closed
# sets. Per DESIGN.md's conventions nothing below per-request
# granularity is metered here.
_DISPATCH_TOTAL = obs.REGISTRY.counter(
    "repro_dispatch_total",
    "Envelopes dispatched through PricingService, per request kind.",
    ("kind",),
)
_DISPATCH_SECONDS = obs.REGISTRY.histogram(
    "repro_dispatch_seconds",
    "PricingService dispatch latency per request kind.",
    ("kind",),
)
_QUERY_UNITS_TOTAL = obs.REGISTRY.counter(
    "repro_query_units_total",
    "Metered cost units charged through RunQuery, per query kind.",
    ("query",),
)
_CHECKPOINT_SECONDS = obs.REGISTRY.histogram(
    "repro_wal_checkpoint_seconds",
    "Wall time of one checkpoint (capture, write, rotation, GC).",
)

#: Envelope kinds that change no service state; a dispatch of nothing
#: else is not logged (see :meth:`PricingService.dispatch`).
_PURE_READS = (LedgerQuery, MetricsRequest)


class BulkAcks(Sequence):
    """Lazily built acknowledgments of one bulk-ingested run.

    A :class:`BulkAcks` means every envelope of the run landed, so its
    acks carry nothing the client does not already hold except the slot:
    building 50,000 reply objects eagerly would tax the hot path for
    that. Each :class:`BidsReply` is constructed only when it is read. A
    run holding a refused envelope comes back as a plain list instead.
    """

    __slots__ = ("_requests", "_slot")

    def __init__(self, requests, slot: int) -> None:
        self._requests = requests
        self._slot = slot

    def __len__(self) -> int:
        return len(self._requests)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_bids_reply(r, self._slot) for r in self._requests[index]]
        return _bids_reply(self._requests[index], self._slot)


def _bids_reply(request: SubmitBids, slot: int) -> BidsReply:
    """The acknowledgment of one landed :class:`SubmitBids`."""
    # Same fast path as the facade: bypass the frozen dataclass's
    # per-field object.__setattr__; indistinguishable from __init__'s.
    reply = BidsReply.__new__(BidsReply)
    reply.__dict__.update(
        tenant=request.tenant, accepted=len(request.bids), slot=slot
    )
    return reply


class PricingService:
    """See the module docstring.

    Parameters
    ----------
    catalog:
        Optimization catalog (or a plain ``{opt_id: cost}`` mapping) to
        open the pricing period with. Omit it to start unconfigured and
        open the period later via a :class:`Configure` request.
    horizon:
        Slots in the period (required with ``catalog``).
    db_catalog:
        The relational catalog queries run against (fresh and empty when
        omitted).
    cost_model:
        Cost model shared by the query engine and the advisor.
    engine_mode:
        Physical execution strategy of the query engine.
    fleet:
        Adopt an existing engine, at any slot, instead of building one
        (the workload-to-bid pipeline hands its assembled fleet over this
        way, and recovery its restored state image; mutually exclusive
        with ``catalog``). :meth:`attach_wal` can make an adopted fleet
        durable: its base checkpoint images the engine.
    """

    def __init__(
        self,
        catalog: OptimizationCatalog | Mapping | None = None,
        horizon: int | None = None,
        db_catalog: Catalog | None = None,
        cost_model: CostModel | None = None,
        engine_mode: str = "auto",
        advisor_config: AdvisorConfig | None = None,
        fleet: FleetEngine | None = None,
    ) -> None:
        self.fleet: FleetEngine | None = None
        self.db = db_catalog if db_catalog is not None else Catalog()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.log = WorkloadLog()
        self.engine = QueryEngine(
            self.db, self.cost_model, mode=engine_mode, log=self.log
        )
        self.advisor_config = (
            advisor_config if advisor_config is not None else AdvisorConfig()
        )
        self.last_advice = None  # full AdvisorOutcome of the latest round
        self._snapshots: dict[int, CatalogSnapshot] = {}  # epoch -> snapshot
        self._closed = False
        self._wal = None  # WalWriter once attach_wal()/recover() ran
        self._wal_dir: Path | None = None
        self._checkpoint_every: int | None = None
        self._retain_checkpoints: int | None = None
        self._records_since_checkpoint = 0
        self.wal_probe = None  # crash-injection seam (tests/crashpoints.py)
        if fleet is not None:
            if catalog is not None:
                raise GameConfigError(
                    "pass either a catalog to build a fleet or an existing "
                    "fleet, not both"
                )
            self.attach_fleet(fleet)
        elif catalog is not None:
            if horizon is None:
                raise GameConfigError("opening a period needs a horizon")
            self.configure(catalog, horizon)

    # ------------------------------------------------------------- period --

    def configure(
        self,
        catalog: OptimizationCatalog | Mapping,
        horizon: int,
    ) -> FleetEngine:
        """Open a (new) pricing period over ``catalog``.

        Reconfiguring replaces the fleet — the previous period's report
        stays reachable only if the caller kept it.
        """
        if not isinstance(catalog, OptimizationCatalog):
            catalog = OptimizationCatalog.from_costs(dict(catalog))
        self.fleet = FleetEngine(catalog, horizon=horizon)
        return self.fleet

    def attach_fleet(self, fleet: FleetEngine) -> FleetEngine:
        """Adopt an externally assembled engine as the current period.

        The engine's own duplicate guard covers the bids it already
        holds. A service that adopted its fleet can still be made durable
        afterwards (:meth:`attach_wal` images the engine in its base
        checkpoint), but a WAL-attached service refuses an adoption: the
        log could never replay it.
        """
        if self._wal is not None:
            raise GameConfigError(
                "a durable (WAL-attached) service must open periods via "
                "Configure; adopting an externally assembled fleet is not "
                "a logged envelope the WAL could replay"
            )
        self.fleet = fleet
        return fleet

    def _require_fleet(self) -> FleetEngine:
        if self.fleet is None:
            raise GameConfigError(
                "no pricing period is open; send a Configure request first"
            )
        return self.fleet

    @property
    def slot(self) -> int:
        """Last processed slot of the open period (0 before the first)."""
        return self._require_fleet().slot

    def session(self, tenant) -> "TenantSession":
        """A per-tenant handle that stamps ``tenant`` into every request."""
        return TenantSession(self, tenant)

    def report(self) -> FleetReport:
        """The open period's fleet report (complete once it is over)."""
        return self._require_fleet().report()

    def run_to_end(self) -> FleetReport:
        """Process every remaining slot and return the report.

        Routed through :meth:`dispatch` (one ``AdvanceSlots`` envelope
        covering the remaining slots) so a durable service logs the
        advance like any other state change; outcome-identical to
        :meth:`FleetEngine.run_to_end`, which advances the same slots
        then reports.
        """
        fleet = self._require_fleet()
        self._ensure_open()
        remaining = fleet.horizon - fleet.slot
        if remaining > 0:
            reply = self.dispatch(AdvanceSlots(slots=remaining))
            if isinstance(reply, ErrorReply):
                raise MechanismError(
                    f"run_to_end failed: [{reply.code}] {reply.message}"
                )
        return fleet.report()

    # ----------------------------------------------------------- dispatch --

    def dispatch(self, request_or_requests):
        """The one entry point: a request in, a reply out — or a request
        sequence in, a reply sequence out; errors come back as data.

        A single :class:`Request` dispatches alone. Any other (non-dict,
        non-string) iterable dispatches as a **batch**: one group commit
        and the fleet's columnar hot path, with each envelope getting the
        reply it would get alone (see :meth:`_dispatch_batch`).
        Wire-level dicts are not accepted here
        — they go through :meth:`dispatch_json` — and arrive back as a
        ``protocol``-coded :class:`ErrorReply` like every other
        request-shaped failure.

        On a durable service the envelope is fsync'd to the write-ahead
        log **before** any effect applies — a crash after the append
        replays the request on recovery; a crash before it means the
        request never happened. Failed dispatches are logged too: replay
        re-derives the same :class:`ErrorReply` deterministically. Pure
        reads (:class:`LedgerQuery`, :class:`MetricsRequest`) change no
        state, so one alone, or a batch of nothing else, is not logged
        and pays no fsync; a batch mixing them with other kinds is logged
        whole, so replay partitions it as live dispatch did.
        :class:`RunQuery` is always logged: it feeds the workload log and
        pins the snapshot epochs ``as_of`` reads depend on.
        """
        if isinstance(request_or_requests, Request):
            return self._dispatch_one(request_or_requests, log=True)
        if isinstance(request_or_requests, Iterable) and not isinstance(
            request_or_requests, (Mapping, str, bytes)
        ):
            return self._dispatch_batch(list(request_or_requests))
        return ErrorReply.of(
            ProtocolError(
                "dispatch() takes one Request or an iterable of Requests; "
                "wire-level dicts go through dispatch_json()"
            ),
            request_kind=type(request_or_requests).__name__,
        )

    def _dispatch_one(self, request: Request, *, log: bool) -> Reply:
        """One dispatch; ``log=False`` when a batch record already covers
        the envelope (batched-:meth:`dispatch` group commit)."""
        kind = type(request).__name__
        _DISPATCH_TOTAL.labels(kind=kind).inc()
        with _DISPATCH_SECONDS.labels(kind=kind).time():
            try:
                self._ensure_open()
                if (
                    log
                    and self._wal is not None
                    and not isinstance(request, _PURE_READS)
                ):
                    self._wal.append_request(self.db.epoch, to_dict(request))
                    self._records_since_checkpoint += 1
                reply = self._handle(request)
            except ReproError as exc:
                reply = ErrorReply.of(exc, request_kind=kind)
        self._probe("apply:done")
        if log:
            self._maybe_checkpoint()
        return reply

    def _dispatch_batch(self, requests: list) -> Sequence[Reply]:
        """Dispatch a batch; each envelope gets the reply it would get alone.

        Every maximal run of consecutive non-revisable :class:`SubmitBids`
        is bulk-ingested (:meth:`_ingest_run`); every other envelope
        dispatches on its own. Replies come back in request order: a
        batch that is one clean run as its lazy :class:`BulkAcks`, any
        other batch as a list.

        On a durable service the whole call is the **group-commit**
        boundary: one WAL record (one fsync) covers every envelope,
        appended before any effect applies. Recovery replays the record
        through this method as a unit, so the runs are cut and ingested
        the same way again and the state lands bit-identical.
        """
        if self._closed:
            # No batching on a closed service: every envelope gets its
            # own "closed" ErrorReply, nothing touches the WAL.
            return [self.dispatch(request) for request in requests]
        if self._wal is not None and not all(
            isinstance(request, _PURE_READS) for request in requests
        ):
            self._wal.append_batch(
                self.db.epoch, [to_dict(r) for r in requests]
            )
            self._records_since_checkpoint += 1
        replies: list = []
        run: list[SubmitBids] = []
        for request in requests:
            if isinstance(request, SubmitBids) and not request.revisable:
                run.append(request)
                continue
            if run:
                replies.extend(self._ingest_run(run))
                run = []
            replies.append(self._dispatch_one(request, log=False))
        if run and replies:
            replies.extend(self._ingest_run(run))
        elif run:
            replies = self._ingest_run(run)  # one clean run stays lazy
        self._maybe_checkpoint()
        return replies

    def dispatch_json(self, payload) -> dict:
        """Wire-level dispatch: JSON-able dict in, JSON-able dict out.

        Never raises for request-shaped failures — malformed envelopes
        decode into :class:`ErrorReply` dictionaries, which is what makes
        a JSONL transport total.
        """
        try:
            request = request_from_dict(payload)
        except ReproError as exc:
            kind = payload.get("kind") if isinstance(payload, Mapping) else None
            return to_dict(ErrorReply.of(exc, request_kind=str(kind or "")))
        return to_dict(self._dispatch_one(request, log=True))

    # The pre-1.5 entry points dispatch_many()/dispatch_dict() are gone:
    # API 1.5 unified them into dispatch()/dispatch_json() and kept
    # DeprecationWarning aliases for one release; API 1.6 removed them.

    # ----------------------------------------------------------- handlers --

    def _handle(self, request: Request) -> Reply:
        if isinstance(request, SubmitBids):
            if request.revisable:
                return self._submit(request)
            self._ingest([request])  # a run of one
            return _bids_reply(request, self.fleet.slot)
        if isinstance(request, ReviseBid):
            return self._revise(request)
        if isinstance(request, AdvanceSlots):
            return self._advance(request)
        if isinstance(request, RunQuery):
            return self._run_query(request)
        if isinstance(request, AdviseRequest):
            return self._advise(request)
        if isinstance(request, LedgerQuery):
            return self._ledger(request)
        if isinstance(request, MetricsRequest):
            # Reads the process-wide registry; deliberately stateless
            # (replaying one from a WAL is a no-op for service state).
            return MetricsReply(metrics=obs.REGISTRY.wire())
        if isinstance(request, Configure):
            costs: dict = {}
            for optimization, cost in request.optimizations:
                if optimization in costs:
                    # dict() would silently keep the last cost; a
                    # duplicated id in a trace must be loud, not a
                    # mispriced game.
                    raise GameConfigError(
                        f"optimization {optimization!r} listed twice"
                    )
                costs[optimization] = cost
            fleet = self.configure(costs, request.horizon)
            return ConfigReply(games=len(fleet.catalog), horizon=fleet.horizon)
        raise ProtocolError(
            f"{type(request).__name__} is not a dispatchable request"
        )

    def _submit(self, request: SubmitBids) -> BidsReply:
        fleet = self._require_fleet()
        # Validate everything before placing anything: one bad bid must
        # not leave the envelope's earlier bids committed behind an
        # ErrorReply (the per-bid twin of the bulk path's all-or-nothing).
        checked = []
        seen: set = set()
        for optimization, start, values in request.bids:
            bid = AdditiveBid.over(start, values)
            rank = fleet.check_bid(request.tenant, optimization, bid)
            if rank in seen:
                raise GameConfigError(
                    f"user {request.tenant!r} bids twice on {optimization!r} "
                    "in one envelope"
                )
            seen.add(rank)
            checked.append((optimization, rank, bid))
        for optimization, rank, bid in checked:
            fleet.place_checked(request.tenant, rank, optimization, bid)
        return _bids_reply(request, fleet.slot)

    def _revise(self, request: ReviseBid) -> ReviseReply:
        fleet = self._require_fleet()
        fleet.revise_bid(
            request.tenant, request.optimization, dict(request.new_values)
        )
        return ReviseReply(
            tenant=request.tenant,
            optimization=request.optimization,
            slot=fleet.slot,
        )

    def _advance(self, request: AdvanceSlots) -> SlotReply:
        fleet = self._require_fleet()
        if request.slots < 1:
            raise GameConfigError(
                f"must advance by >= 1 slot, got {request.slots}"
            )
        remaining = fleet.horizon - fleet.slot
        if request.slots > remaining:
            # Checked up front so an oversized advance moves nothing: an
            # ErrorReply must mean the clock did not move (the mutating
            # handlers are all-or-nothing).
            raise MechanismError(
                f"cannot advance {request.slots} slot(s); only {remaining} "
                f"remain before the horizon {fleet.horizon}"
            )
        fleet.advance_slots(request.slots)
        implemented = sorted(
            fleet.implemented.items(), key=lambda kv: str(kv[0])
        )
        return SlotReply(slot=fleet.slot, implemented=tuple(implemented))

    # -------------------------------------------------------- snapshots --

    def _pin_snapshot(self) -> CatalogSnapshot:
        """The current-epoch snapshot, cached so repeated reads share it."""
        epoch = self.db.epoch
        snap = self._snapshots.get(epoch)
        if snap is None:
            snap = self.db.snapshot()
            self._snapshots[epoch] = snap
            while len(self._snapshots) > SNAPSHOT_RETENTION:
                self._snapshots.pop(next(iter(self._snapshots)))
        return snap

    def _snapshot_for(self, as_of: int | None) -> CatalogSnapshot:
        """Resolve a request's ``as_of`` to a pinned snapshot.

        None (and the current epoch) read current state. An earlier epoch
        is served if the service still retains its snapshot — epochs are
        retained when a query pinned them, up to :data:`SNAPSHOT_RETENTION`
        — and rejected with a ``query``-coded error otherwise.
        """
        if as_of is None or as_of == self.db.epoch:
            return self._pin_snapshot()
        snap = self._snapshots.get(as_of)
        if snap is None:
            retained = sorted(self._snapshots)
            raise QueryError(
                f"epoch {as_of} is not retained (current epoch is "
                f"{self.db.epoch}; retained epochs: {retained})"
            )
        return snap

    def _run_query(self, request: RunQuery) -> QueryReply:
        if request.query not in QUERY_KINDS:
            raise ProtocolError(
                f"query must be one of {QUERY_KINDS}, got {request.query!r}"
            )
        snap = self._snapshot_for(request.as_of)
        # A per-request engine over the pinned snapshot: no shared mutable
        # engine state, so concurrent-style interleavings with mutating
        # requests cannot tear a query (and the log swap the shared engine
        # used to need is gone).
        engine = QueryEngine(
            snap,
            self.cost_model,
            mode=self.engine.mode,
            log=self.log if request.record else None,
        )
        with self.log.tenant(request.tenant):
            rows, units, source = self._execute_query(engine, request)
        _QUERY_UNITS_TOTAL.labels(query=request.query).inc(units)
        return QueryReply(
            tenant=request.tenant,
            query=request.query,
            rows=tuple(rows),
            units=units,
            source=source,
            epoch=snap.epoch,
        )

    def _execute_query(self, engine: QueryEngine, request: RunQuery):
        if request.query == "members":
            self._require_params(request, halo=True, table=True)
            result = engine.halo_members(request.table, request.halo)
            return result.rows, self.cost_model.units(result.meter), result.source
        if request.query == "histogram":
            self._require_params(request, table=True)
            result = engine.progenitor_histogram(request.table, request.pids)
            return result.rows, self.cost_model.units(result.meter), result.source
        if request.query == "top":
            self._require_params(request, halo=True, tables=2)
            top, meter = engine.top_contributor(
                request.tables[0], request.halo, request.tables[1]
            )
            return [(top,)], self.cost_model.units(meter), ""
        if request.query == "chain":
            self._require_params(request, halo=True, tables=1)
            chain, meter = engine.halo_chain(list(request.tables), request.halo)
            return [(h,) for h in chain], self.cost_model.units(meter), ""
        # "contributors": final table first, then the earlier snapshots.
        self._require_params(request, halo=True, tables=2)
        contributors, meter = engine.contributors_to(
            request.tables[0], request.halo, list(request.tables[1:])
        )
        rows = [(table, contributors[table]) for table in request.tables[1:]]
        return rows, self.cost_model.units(meter), ""

    @staticmethod
    def _require_params(
        request: RunQuery, halo: bool = False, table: bool = False, tables: int = 0
    ) -> None:
        if halo and request.halo is None:
            raise ProtocolError(f"{request.query!r} queries need 'halo'")
        if table and not request.table:
            raise ProtocolError(f"{request.query!r} queries need 'table'")
        if tables and len(request.tables) < tables:
            raise ProtocolError(
                f"{request.query!r} queries need >= {tables} 'tables', "
                f"got {len(request.tables)}"
            )

    def _advise(self, request: AdviseRequest) -> AdviseReply:
        base = self.advisor_config
        config = AdvisorConfig(
            horizon=(
                base.horizon if request.horizon is None else request.horizon
            ),
            dollars_per_byte=(
                base.dollars_per_byte
                if request.dollars_per_byte is None
                else request.dollars_per_byte
            ),
            runs_per_slot=(
                base.runs_per_slot
                if request.runs_per_slot is None
                else request.runs_per_slot
            ),
        )
        advisor = OptimizationAdvisor(self.db, self.cost_model, config)
        outcome = advisor.advise(self.log)
        self.last_advice = outcome
        return AdviseReply(
            candidates=tuple(c.name for c in outcome.candidates.candidates),
            funded=outcome.funded,
            adopted=outcome.adopted,
            build_units=self.cost_model.units(outcome.build_meter),
            epoch=self.db.epoch if outcome.epoch is None else outcome.epoch,
        )

    def _ledger(self, request: LedgerQuery) -> LedgerReply:
        fleet = self._require_fleet()
        statement = fleet.ledger.statement(request.tenant)
        return LedgerReply(
            tenant=request.tenant,
            invoices=tuple((e.slot, e.amount, e.memo) for e in statement),
            total=fleet.ledger.paid_by(request.tenant),
            cloud_balance=fleet.ledger.balance,
        )

    # --------------------------------------------------------- durability --

    def _ensure_open(self) -> None:
        if self._closed:
            raise ProtocolError(
                "the service is closed; no further requests are accepted"
            )

    def close(self) -> None:
        """Stop accepting requests and release the WAL (idempotent).

        Every further ``dispatch`` returns a ``protocol``-coded
        :class:`ErrorReply`; a closed durable service is recovered with
        :meth:`PricingService.recover`, not reused.
        """
        self._closed = True
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def _probe(self, stage: str) -> None:
        if self.wal_probe is not None:
            self.wal_probe(stage)

    def attach_wal(
        self,
        directory,
        *,
        checkpoint_every: int | None = None,
        retain_checkpoints: int | None = None,
    ):
        """Make this service durable: every dispatch logs to ``directory``.

        Writes a base checkpoint of the *current* state (so state built
        before attaching — preloaded tables, an open period, an adopted
        fleet — is covered)
        and then appends every accepted envelope to ``wal.jsonl`` before
        its effects apply. ``checkpoint_every`` automatically checkpoints
        after that many WAL records. ``retain_checkpoints=N`` turns on
        log compaction: each checkpoint seals the active file into a
        rotation segment and deletes checkpoints beyond the newest ``N``
        plus every segment they made redundant
        (:mod:`repro.gateway.wal.rotate`). The directory must not already
        hold a WAL — recover an existing one with :meth:`recover`.
        """
        from repro.gateway.wal.records import WAL_FILENAME
        from repro.gateway.wal.writer import WalWriter

        self._ensure_open()
        if self._wal is not None:
            raise GameConfigError(
                f"a WAL is already attached at {self._wal_dir}"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        existing = [directory / WAL_FILENAME, *directory.glob("checkpoint-*.json")]
        present = [p.name for p in existing if p.exists()]
        if present:
            raise RecoveryError(
                f"{directory} already holds durable state ({present}); "
                "use PricingService.recover() instead of attaching a "
                "fresh WAL over it"
            )
        if retain_checkpoints is not None and int(retain_checkpoints) < 1:
            raise GameConfigError(
                f"retain_checkpoints must be >= 1, got {retain_checkpoints}"
            )
        self._wal = WalWriter(directory / WAL_FILENAME, probe=self._probe)
        self._wal_dir = directory
        self._checkpoint_every = checkpoint_every
        self._retain_checkpoints = retain_checkpoints
        self._records_since_checkpoint = 0
        self.checkpoint()
        return directory

    def checkpoint(self) -> Path:
        """Write a checkpoint covering everything logged so far.

        With ``retain_checkpoints`` set, the checkpoint fsync is followed
        by log rotation and garbage collection: the active file is sealed
        into a segment and history fully covered by an aged-out
        checkpoint is deleted. The order matters — the new checkpoint is
        durable before anything it replaces is touched.
        """
        from repro.gateway.wal.checkpoint import capture_state, write_checkpoint

        if self._wal is None:
            raise GameConfigError(
                "no WAL is attached; attach_wal() before checkpointing"
            )
        self._probe("checkpoint:begin")
        with _CHECKPOINT_SECONDS.time(), obs.SPANS.span("checkpoint"):
            state = capture_state(self, wal_seq=self._wal.last_seq)
            path = write_checkpoint(self._wal_dir, state, probe=self._probe)
            self._records_since_checkpoint = 0
            if self._retain_checkpoints is not None:
                self.wal_gc(self._retain_checkpoints)
        self._probe("checkpoint:done")
        return path

    def wal_gc(self, retain_checkpoints: int):
        """Rotate the active WAL file and garbage-collect covered history.

        Seals the active file into a range-named segment, then deletes
        checkpoints beyond the newest ``retain_checkpoints`` and every
        sealed segment fully covered by the oldest survivor. Returns the
        :class:`~repro.gateway.wal.rotate.GcReport` of what was removed.
        Nothing the surviving checkpoints might need is ever deleted, so
        this is safe to run at any point after a checkpoint.
        """
        from repro.gateway.wal.rotate import collect_garbage

        if self._wal is None:
            raise GameConfigError(
                "no WAL is attached; attach_wal() before compacting"
            )
        self._wal.rotate()
        return collect_garbage(self._wal_dir, retain_checkpoints)

    def _maybe_checkpoint(self) -> None:
        if (
            self._wal is not None
            and self._checkpoint_every is not None
            and self._records_since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()

    @classmethod
    def recover(
        cls,
        directory,
        *,
        checkpoint_every: int | None = None,
        retain_checkpoints: int | None = None,
    ):
        """Rebuild the service persisted in ``directory`` after a crash.

        Restores the newest valid checkpoint, replays the WAL tail, and
        returns a live durable service bit-identical to the uncrashed
        one (see :mod:`repro.gateway.wal.recovery`).
        """
        from repro.gateway.wal.recovery import recover as _recover

        with obs.SPANS.span("recover"):
            return _recover(
                directory,
                checkpoint_every=checkpoint_every,
                retain_checkpoints=retain_checkpoints,
            )

    def _adopt_wal(
        self,
        directory,
        *,
        next_seq: int,
        checkpoint_every: int | None,
        records_since: int,
        file_first_seq: int | None = None,
        retain_checkpoints: int | None = None,
    ) -> None:
        """Re-attach the WAL of a just-recovered service (recovery only)."""
        from repro.gateway.wal.records import WAL_FILENAME
        from repro.gateway.wal.writer import WalWriter

        directory = Path(directory)
        self._wal = WalWriter(
            directory / WAL_FILENAME,
            next_seq=next_seq,
            file_first_seq=file_first_seq,
            probe=self._probe,
        )
        self._wal_dir = directory
        self._checkpoint_every = checkpoint_every
        self._retain_checkpoints = retain_checkpoints
        self._records_since_checkpoint = records_since

    # ---------------------------------------------------------- bulk path --

    def _ingest_run(self, requests: list[SubmitBids]) -> Sequence[Reply]:
        """Bulk-ingest a run of non-revisable SubmitBids, one verdict each.

        A clean run is one :meth:`_ingest` call and comes back as lazy
        :class:`BulkAcks`. A refused run committed nothing: it is split in
        halves, ingested in order, down to the single envelopes whose
        error becomes their own reply. Each envelope thus gets the reply
        a lone dispatch would have given it, at the cost of O(k log n)
        engine calls for k bad envelopes in a run of n.
        """
        # One counter bump for the whole run; the halves do not count.
        _DISPATCH_TOTAL.labels(kind="SubmitBids").inc(len(requests))
        replies = self._bisect(requests)
        self._probe("apply:done")
        return replies

    def _bisect(self, requests: list[SubmitBids]) -> Sequence[Reply]:
        try:
            self._ingest(requests)
        except ReproError as exc:
            if len(requests) == 1:
                return [ErrorReply.of(exc, request_kind="SubmitBids")]
            half = len(requests) // 2
            return [
                *self._bisect(requests[:half]),
                *self._bisect(requests[half:]),
            ]
        return BulkAcks(requests, self.fleet.slot)

    def _ingest(self, requests: list[SubmitBids]) -> None:
        """Bulk-ingest SubmitBids as duration-major FleetBatches.

        The grouping reproduces :func:`repro.workloads.fleet.fleet_batches`
        exactly — one batch per bid duration, ascending, bids in request
        order within a batch — so the scheduled entries (and therefore
        every outcome and metered cost downstream) are bit-identical to
        handing the engine pre-built batches. All or nothing: the first
        fault raises its :class:`~repro.errors.ReproError` and nothing is
        committed. The run succeeds exactly when each envelope, ingested
        alone in order, would.
        """
        fleet = self._require_fleet()
        rank_get = fleet.rank_map.get
        limit = fleet.horizon + 1
        # duration -> parallel (tenants, ranks, starts, values) columns,
        # filled in one pass so 50k envelopes cost one tight loop.
        columns: dict[int, tuple] = {}
        columns_get = columns.get
        for request in requests:
            tenant = request.tenant
            for optimization, start, values in request.bids:
                rank = rank_get(optimization)
                if rank is None:
                    raise GameConfigError(
                        f"no optimization {optimization!r} in catalog"
                    )
                # Bid-shape failures carry the same "bid" code the
                # per-bid path's AdditiveBid construction yields.
                if not values:
                    raise BidError("a slot schedule needs at least one slot")
                if start < 1:
                    raise BidError(f"start slot must be >= 1, got {start}")
                duration = len(values)
                # Python ints: refused here, a wire start past int64
                # never reaches the numpy columns to overflow or wrap.
                if start + duration > limit:
                    raise GameConfigError(
                        f"bid ends at {start + duration - 1}, beyond the "
                        f"horizon {fleet.horizon}"
                    )
                group = columns_get(duration)
                if group is None:
                    group = columns[duration] = ([], [], [], [])
                group[0].append(tenant)
                group[1].append(rank)
                group[2].append(start)
                group[3].append(values)
        batches = []
        for duration in sorted(columns):
            tenants, ranks, starts, values = columns[duration]
            # fromiter over the flattened rows builds the matrix at a
            # third of np.array's cost on a list of tuples.
            matrix = np.fromiter(
                chain.from_iterable(values), float, len(values) * duration
            ).reshape(-1, duration)
            if not np.isfinite(matrix).all() or matrix.min() < 0:
                raise BidError("slot values must be non-negative and finite")
            batches.append(
                FleetBatch(
                    users=tuple(tenants),
                    opt_ranks=np.array(ranks, dtype=np.int64),
                    starts=np.array(starts, dtype=np.int64),
                    values=matrix,
                )
            )
        # The gateway is an untrusted boundary: a (tenant,
        # optimization) pair bid twice, within this run or before it,
        # must fail the run, not double-schedule and double-invoice.
        fleet.ingest_many(batches, checked=True)


def fingerprint(service: PricingService) -> dict:
    """Every durable surface of a service, in comparable (encoded) form.

    The relational catalog (with its epoch), the workload log, and for an
    open period its slot plus the encoded fleet report: ledger, event
    log, payments, grant slots, implementations, per-game revenue and the
    fleet epoch. Recovery, fault-injection and benchmark parity checks
    compare services through this one function.
    """
    out = {"db": codec.encode(service.db), "log": codec.encode(service.log)}
    if service.fleet is not None:
        out["slot"] = service.fleet.slot
        out["report"] = codec.encode(service.fleet.report())
    return out


class TenantSession:
    """Sugar over :meth:`PricingService.dispatch` with the tenant bound.

    Sessions are cheap views — create one per tenant, keep none of the
    state: everything lives in the service.
    """

    def __init__(self, service: PricingService, tenant) -> None:
        self.service = service
        self.tenant = tenant

    def submit_bids(self, bids: Iterable[tuple], revisable: bool = False) -> Reply:
        """Submit ``(optimization, start, values)`` triples.

        Bulk-ingested unless ``revisable``: pass ``revisable=True`` for
        bids a later :meth:`revise_bid` will touch.
        """
        return self.service.dispatch(
            SubmitBids(tenant=self.tenant, bids=tuple(bids), revisable=revisable)
        )

    def revise_bid(self, optimization, new_values) -> Reply:
        """Revise one bid upward (mapping or ``(slot, value)`` pairs)."""
        return self.service.dispatch(
            ReviseBid(
                tenant=self.tenant,
                optimization=optimization,
                new_values=new_values,
            )
        )

    def run_query(self, query: str, **params) -> Reply:
        """Execute one workload query under this tenant's log context."""
        return self.service.dispatch(
            RunQuery(tenant=self.tenant, query=query, **params)
        )

    def ledger(self) -> Reply:
        """This tenant's billing statement."""
        return self.service.dispatch(LedgerQuery(tenant=self.tenant))
