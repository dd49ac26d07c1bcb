"""The closed loop: mine, enumerate, price, play the games, adopt.

:class:`OptimizationAdvisor` drives one advising round end to end.
Candidate *values* are the metered savings tenants' logged workloads
would realize; candidate *costs* are storage footprints at the
configured rate; the pricing games decide which designs the tenants
collectively fund (:mod:`repro.fleet`); funded designs are then adopted
into the live catalog, where the stats-driven planner picks them up on
the very next query — no replanning step, no cache to invalidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.advisor.candidates import CandidateSet, enumerate_candidates
from repro.advisor.log import WorkloadLog
from repro.db.catalog import Catalog
from repro.db.costmodel import CostMeter, CostModel
from repro.db.savings import CandidateIndex, SavingsEstimator
from repro.errors import GameConfigError
from repro.fleet.pipeline import TenantWorkload, build_fleet

__all__ = ["AdvisorConfig", "AdvisorOutcome", "OptimizationAdvisor"]


@dataclass(frozen=True)
class AdvisorConfig:
    """Knobs of one advising round.

    ``horizon`` is the amortization period (slots) the pricing games run
    over; ``dollars_per_byte`` the period storage rate that prices each
    candidate's footprint into its game cost ``C_j``; ``runs_per_slot``
    scales the logged pass counts into per-slot execution rates (the log
    records one workload execution; tenants are assumed to repeat it this
    many times per slot).
    """

    horizon: int = 12
    dollars_per_byte: float = 1e-6
    runs_per_slot: float = 1.0

    def __post_init__(self) -> None:
        # Refused here, before a round runs ANALYZE on the catalog.
        if self.horizon < 1:
            raise GameConfigError(f"horizon must be >= 1, got {self.horizon}")
        for name in ("dollars_per_byte", "runs_per_slot"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise GameConfigError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class AdvisorOutcome:
    """Everything one advising round produced.

    ``epoch`` is the catalog epoch after adoption — the first epoch at
    which queries can see the funded designs. Queries pinned at earlier
    epochs keep running their old plans untouched.
    """

    candidates: CandidateSet
    quotes: Mapping
    report: object  # FleetReport, or None when nothing was priceable
    adopted: tuple
    build_meter: CostMeter = field(default_factory=CostMeter)
    epoch: int | None = None

    @property
    def funded(self) -> tuple:
        """Names of the optimizations the games funded, adoption order."""
        if self.report is None:
            return ()
        return tuple(sorted(self.report.implemented))


class OptimizationAdvisor:
    """See the module docstring for the loop this class drives."""

    def __init__(
        self,
        catalog: Catalog,
        model: CostModel | None = None,
        config: AdvisorConfig = AdvisorConfig(),
    ) -> None:
        self.catalog = catalog
        self.config = config
        self.estimator = SavingsEstimator(catalog, model)

    # ------------------------------------------------------------- mining --

    def mine_workloads(self, log: WorkloadLog) -> list[TenantWorkload]:
        """One :class:`TenantWorkload` per (tenant, table) in the log.

        ``runs_per_slot`` is the tenant's logged pass count over that
        table scaled by the config rate (every pass benefits from a
        covering view); ``columns`` the union a covering view must
        project; ``key_columns``/``key_runs`` the equality/range-probed
        columns with the pass counts of the templates that actually
        probe them — an index only earns bids for its probing passes,
        never for the table's unrelated query shapes.
        """
        grouped: dict[tuple, dict] = {}
        for tenant, template, usage in log.entries():
            key = (tenant, template.table_name)
            group = grouped.setdefault(
                key, {"passes": 0.0, "columns": {}, "keys": {}}
            )
            group["passes"] += usage.passes
            for column in template.columns:
                group["columns"].setdefault(column, None)
            if template.key_column is not None and usage.probes > 0:
                keys = group["keys"]
                keys[template.key_column] = (
                    keys.get(template.key_column, 0.0) + usage.passes
                )
        workloads = []
        for (tenant, table_name), group in grouped.items():
            workloads.append(
                TenantWorkload(
                    tenant=tenant,
                    table_name=table_name,
                    columns=tuple(group["columns"]),
                    start=1,
                    end=self.config.horizon,
                    runs_per_slot=group["passes"] * self.config.runs_per_slot,
                    key_columns=tuple(group["keys"]),
                    key_runs=tuple(
                        (column, passes * self.config.runs_per_slot)
                        for column, passes in group["keys"].items()
                    ),
                )
            )
        return workloads

    # -------------------------------------------------------------- games --

    def build_games(self, log: WorkloadLog, candidates: CandidateSet):
        """The fleet engine pricing every candidate against the log.

        Returns None when the log yields nothing priceable (no candidates
        or no workloads) — there is no game to play.
        """
        if len(candidates) == 0:
            return None
        workloads = self.mine_workloads(log)
        if not workloads:
            return None
        return build_fleet(
            self.estimator,
            workloads,
            list(candidates.candidates),
            horizon=self.config.horizon,
            dollars_per_byte=self.config.dollars_per_byte,
        )

    # ----------------------------------------------------------- adoption --

    def adopt(
        self,
        candidates: CandidateSet,
        funded,
        meter: CostMeter | None = None,
    ) -> tuple:
        """Create every funded design in the catalog; returns their names.

        Views materialize through their enumerated
        :class:`~repro.advisor.candidates.ViewSpec`; indexes build through
        the catalog's constructors. Build work is charged to ``meter`` —
        adoption is not free, it is simply *funded*. Names are adopted in
        sorted order for determinism; designs already present in the
        catalog (either kind) are skipped and not reported as adopted.

        The whole batch installs inside one
        :meth:`~repro.db.catalog.Catalog.epoch_batch`, so the catalog
        epoch moves exactly once: in-flight queries pinned before the
        boundary never see a half-installed design set, and the first
        query pinned after it sees all of them.
        """
        build_meter = meter if meter is not None else CostMeter()
        with self.catalog.epoch_batch():
            adopted = self._adopt_locked(candidates, funded, build_meter)
        return adopted

    def _adopt_locked(
        self, candidates: CandidateSet, funded, build_meter: CostMeter
    ) -> tuple:
        adopted = []
        for name in sorted(funded):
            candidate = candidates.by_name(name)
            if isinstance(candidate, CandidateIndex):
                if candidate.kind == "sorted":
                    if self.catalog.sorted_index(
                        candidate.table_name, candidate.column
                    ) is not None:
                        continue
                    self.catalog.create_sorted_index(
                        candidate.table_name, candidate.column, build_meter
                    )
                else:
                    if self.catalog.hash_index(
                        candidate.table_name, candidate.column
                    ) is not None:
                        continue
                    self.catalog.create_hash_index(
                        candidate.table_name, candidate.column, build_meter
                    )
            else:
                if self.catalog.has_view(name):
                    continue
                spec = candidates.view_specs[name]
                self.catalog.create_view(
                    spec.build(self.catalog, name), build_meter
                )
            adopted.append(name)
        return tuple(adopted)

    # ---------------------------------------------------------- the loop --

    def advise(self, log: WorkloadLog) -> AdvisorOutcome:
        """Run one full round: enumerate, price, play, adopt."""
        candidates = enumerate_candidates(self.catalog, log)
        quotes = self.estimator.price_many(candidates.candidates)
        engine = self.build_games(log, candidates)
        if engine is None:
            return AdvisorOutcome(
                candidates=candidates,
                quotes=quotes,
                report=None,
                adopted=(),
                epoch=self.catalog.epoch,
            )
        report = engine.run_to_end()
        build_meter = CostMeter()
        adopted = self.adopt(candidates, report.implemented, build_meter)
        return AdvisorOutcome(
            candidates=candidates,
            quotes=quotes,
            report=report,
            adopted=adopted,
            build_meter=build_meter,
            epoch=self.catalog.epoch,
        )
