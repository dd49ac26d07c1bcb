"""Workload-to-bid: metered query-cost savings become fleet bids.

This closes the loop the paper describes between physical design and
pricing. Each tenant declares the *workload* she will run — which table,
which columns, which probed keys, how many executions per slot, over
which service interval — and each candidate optimization is either a
hypothetical narrow view (:class:`~repro.db.savings.CandidateView`) or a
hypothetical index (:class:`~repro.db.savings.CandidateIndex`). The
:class:`~repro.db.savings.SavingsEstimator` turns (workload, candidate)
pairs into simulated seconds saved per slot; those savings *are* the
additive bids, and the candidate's storage footprint prices its period
cost ``C_j``. The resulting catalog and bids feed one
:class:`~repro.fleet.engine.FleetEngine`, so what the mechanisms share is
the physically-derived cost and what tenants bid is the physically-derived
benefit — no synthetic numbers anywhere in the chain. Views and indexes
travel the identical mechanism path: same quote type, same bid algebra,
same games (property-tested in ``tests/test_advisor_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.bids.additive import AdditiveBid
from repro.cloudsim.catalog import OptimizationCatalog, OptimizationSpec
from repro.db.savings import (
    Candidate,
    CandidateIndex,
    SavingsEstimator,
    SavingsQuote,
)
from repro.errors import GameConfigError
from repro.fleet.engine import FleetEngine

__all__ = [
    "TenantWorkload",
    "workload_bid",
    "candidate_catalog",
    "build_fleet",
    "build_service",
]


@dataclass(frozen=True)
class TenantWorkload:
    """One tenant's declared query workload for the period.

    The tenant runs ``runs_per_slot`` executions of a scan-shaped query
    over ``table_name`` touching ``columns``, in every slot of
    ``[start, end]``. ``key_columns`` names the columns those runs probe
    by key (equality or range): an index candidate only helps — and only
    earns a bid — when its column is among them. When only *some* of the
    runs probe a column, ``key_runs`` records the per-slot probing-run
    count per column (``((column, runs), ...)``); columns without an
    entry default to ``runs_per_slot`` — index savings are priced per
    probing run, not per pass of unrelated query shapes.
    """

    tenant: object
    table_name: str
    columns: tuple
    start: int
    end: int
    runs_per_slot: float = 1.0
    key_columns: tuple = ()
    key_runs: tuple = ()

    def __post_init__(self) -> None:
        if self.start < 1:
            raise GameConfigError(f"start slot must be >= 1, got {self.start}")
        if self.end < self.start:
            raise GameConfigError(
                f"end slot {self.end} precedes start slot {self.start}"
            )
        if self.runs_per_slot < 0:
            raise GameConfigError(
                f"runs per slot must be >= 0, got {self.runs_per_slot}"
            )
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "key_columns", tuple(self.key_columns))
        key_runs = tuple((column, float(runs)) for column, runs in self.key_runs)
        for column, runs in key_runs:
            if runs < 0:
                raise GameConfigError(
                    f"key runs for {column!r} must be >= 0, got {runs}"
                )
        object.__setattr__(self, "key_runs", key_runs)

    def probing_runs(self, column: str) -> float:
        """Per-slot runs that probe ``column`` (``runs_per_slot`` default)."""
        for key, runs in self.key_runs:
            if key == column:
                return runs
        return self.runs_per_slot


def workload_bid(
    estimator: SavingsEstimator,
    workload: TenantWorkload,
    candidate: Candidate,
    quote: SavingsQuote | None = None,
) -> AdditiveBid | None:
    """The bid ``workload`` implies for ``candidate`` (None when useless).

    A view candidate helps a workload when it covers the same table and
    every column the queries touch; an index candidate helps when its
    column is one the workload probes. Either way the per-slot value is
    the simulated seconds the tenant's runs save through it — from there
    on, views and indexes are indistinguishable to the games. Pass the
    candidate's precomputed ``quote`` (from
    :meth:`~repro.db.savings.SavingsEstimator.price_many`) to skip the
    estimator's catalog walk — the numbers are identical.
    """
    if candidate.table_name != workload.table_name:
        return None
    if isinstance(candidate, CandidateIndex):
        if candidate.column not in workload.key_columns:
            return None
        runs = workload.probing_runs(candidate.column)
    else:
        if not set(workload.columns) <= set(candidate.columns):
            return None
        runs = workload.runs_per_slot
    if quote is None:
        quote = estimator.quote(candidate)
    per_slot = quote.saving_seconds(runs, estimator.model.seconds_per_unit)
    if per_slot <= 0.0:
        return None
    duration = workload.end - workload.start + 1
    return AdditiveBid.over(workload.start, [per_slot] * duration)


def candidate_catalog(
    estimator: SavingsEstimator,
    candidates: Iterable[Candidate],
    dollars_per_byte: float,
    quotes: Mapping[str, SavingsQuote] | None = None,
) -> OptimizationCatalog:
    """Price each candidate's storage into an optimization catalog.

    ``C_j`` is the candidate's materialized size times the period storage
    rate — the same "cost of keeping the view for ``T``" the paper
    amortizes; an index candidate's size is its (key, rid) footprint
    priced at the same rate. Pass precomputed ``quotes`` (from
    :meth:`~repro.db.savings.SavingsEstimator.price_many`) to skip the
    per-candidate sizing pass.
    """
    if dollars_per_byte <= 0:
        raise GameConfigError(
            f"storage rate must be positive, got {dollars_per_byte}"
        )
    catalog = OptimizationCatalog()
    for candidate in candidates:
        size = (
            quotes[candidate.name].view_bytes
            if quotes is not None
            else estimator.quote(candidate).view_bytes
        )
        if isinstance(candidate, CandidateIndex):
            kind = "index"
            description = (
                f"{candidate.kind} index on "
                f"{candidate.table_name}.{candidate.column}"
            )
        else:
            kind = "view"
            description = (
                f"narrow view {candidate.columns!r} over "
                f"{candidate.table_name}"
            )
        catalog.register(
            OptimizationSpec(
                candidate.name,
                size * dollars_per_byte,
                kind=kind,
                description=description,
            )
        )
    return catalog


def build_fleet(
    estimator: SavingsEstimator,
    workloads: Sequence[TenantWorkload],
    candidates: Sequence[Candidate],
    horizon: int,
    dollars_per_byte: float,
    shards: int = 1,
) -> FleetEngine:
    """Assemble a fleet whose bids are workload-derived savings.

    Every (tenant, candidate) pair with a positive saving becomes one
    additive bid in the candidate's game; run the returned engine to
    see which physical designs the tenants collectively fund, and at
    what cost-shares.

    Candidates are priced once up front
    (:meth:`~repro.db.savings.SavingsEstimator.price_many`), then the
    (workload, candidate) sweep reuses the quotes — the generated bids are
    bit-identical to calling :func:`workload_bid` per pair, without the
    O(W x C) catalog walks.
    """
    quotes = estimator.price_many(candidates)
    catalog = candidate_catalog(
        estimator, candidates, dollars_per_byte, quotes=quotes
    )
    engine = FleetEngine(catalog, horizon=horizon, shards=shards)
    for workload in workloads:
        if workload.end > horizon:
            raise GameConfigError(
                f"tenant {workload.tenant!r} runs until slot {workload.end}, "
                f"beyond the horizon {horizon}"
            )
        for candidate in candidates:
            bid = workload_bid(
                estimator, workload, candidate, quote=quotes[candidate.name]
            )
            if bid is not None:
                engine.place_bid(workload.tenant, candidate.name, bid)
    return engine


def build_service(
    estimator: SavingsEstimator,
    workloads: Sequence[TenantWorkload],
    candidates: Sequence[Candidate],
    horizon: int,
    dollars_per_byte: float,
    shards: int = 1,
):
    """:func:`build_fleet`, handed over behind the gateway facade.

    Returns a :class:`~repro.gateway.PricingService` whose open period
    *is* the assembled fleet (same engine object, same bids), sharing the
    estimator's relational catalog and cost model — so callers dispatch
    envelopes (``AdvanceSlots``, ``LedgerQuery``, ...) against the
    workload-derived games instead of driving the engine object directly.
    """
    # Imported lazily: the gateway sits above the fleet in the layering.
    from repro.gateway.service import PricingService

    engine = build_fleet(
        estimator, workloads, candidates, horizon, dollars_per_byte, shards
    )
    return PricingService(
        db_catalog=estimator.catalog,
        cost_model=estimator.model,
        fleet=engine,
    )
