"""Assembly of the full astronomy use-case (paper Section 7.2).

Builds the synthetic universe, loads snapshots into the relational engine,
defines the six astronomers (two halo groups x strides 1/2/4), measures
each workload's unoptimized runtime, calibrates the cost model to the
paper's 81 minutes for the first astronomer, and derives every
optimization's value (compute dollars saved per workload execution) and
cost (view storage dollars, mean-normalized to $2.31).

Per-view savings are computed analytically from per-table scan-pass counts:
the with-view plan differs from the without-view plan *only* in scan bytes
(same filters, probes and emits), so
``saving = passes x (wide_bytes - view_bytes) x scan_weight``. The identity
is verified against an actual re-run in the test suite and exposed here via
:meth:`AstronomyUseCase.run_workload_minutes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.astro.particles import ParticleSnapshot
from repro.astro.pricing import Ec2Pricing
from repro.astro.simulator import UniverseConfig, UniverseSimulator
from repro.astro.workload import AstronomerWorkload
from repro.db.catalog import Catalog
from repro.db.costmodel import CostModel
from repro.db.engine import QueryEngine
from repro.db.expr import Col, Const, Ne
from repro.db.operators import Filter, Project, SeqScan
from repro.db.planner import view_name_for
from repro.db.view import MaterializedView
from repro.errors import GameConfigError

__all__ = ["UseCaseConfig", "AstronomyUseCase", "build_use_case"]

#: The paper's published per-astronomer numbers, used for calibration and
#: available to the Figure 1 driver as `values="paper"`.
PAPER_RUNTIMES_MIN = (81.0, 36.0, 16.0, 83.0, 44.0, 17.0)
PAPER_FINAL_VIEW_SAVINGS_MIN = (44.0, 18.0, 8.0, 39.0, 23.0, 9.0)
PAPER_OTHER_VIEW_SAVINGS_MIN = 2.5
PAPER_MEAN_VIEW_COST = 2.31


@dataclass(frozen=True)
class UseCaseConfig:
    """Knobs for the synthetic use-case build.

    ``scaled`` builds a config whose universe holds ``factor`` times the
    default particle count, which the columnar path makes tractable.
    """

    universe: UniverseConfig = field(default_factory=UniverseConfig)
    seed: int = 20120827  # VLDB 2012 opening day
    halos_per_group: int = 5
    calibrate_minutes: float = 81.0
    mean_view_cost: float = PAPER_MEAN_VIEW_COST
    pricing: Ec2Pricing = field(default_factory=Ec2Pricing)

    @classmethod
    def scaled(cls, factor: int) -> "UseCaseConfig":
        """A config with ``factor``x the default universe's particles."""
        if factor < 1:
            raise GameConfigError(f"scale factor must be >= 1, got {factor}")
        base = UniverseConfig()
        universe = UniverseConfig(
            particles=base.particles * factor,
            halos=base.halos,
            snapshots=base.snapshots,
        )
        return cls(universe=universe)


@dataclass
class AstronomyUseCase:
    """Everything the Figure 1 experiment needs, in one object."""

    config: UseCaseConfig
    catalog: Catalog
    engine: QueryEngine
    snapshots: list
    table_names: list
    workloads: tuple
    runtimes_min: tuple
    view_costs: Mapping[str, float]
    savings_min: Mapping[tuple, float]
    pricing: Ec2Pricing

    @property
    def view_names(self) -> list[str]:
        """All 27 optimization (view) names, oldest snapshot first."""
        return [view_name_for(t) for t in self.table_names]

    @property
    def final_table(self) -> str:
        """The newest snapshot's table name."""
        return self.table_names[-1]

    def value_dollars(self, user: int, view_name: str) -> float:
        """Dollars one execution of ``user``'s workload saves via the view."""
        return self.pricing.compute_dollars(
            self.savings_min.get((user, view_name), 0.0)
        )

    def baseline_dollars(self, user: int) -> float:
        """Dollars one unoptimized execution of ``user``'s workload costs."""
        return self.pricing.compute_dollars(self.runtimes_min[user])

    def run_workload_minutes(self, user: int, with_views: Sequence[str] = ()) -> float:
        """Actually execute a workload with exactly the given views present.

        Used to verify the analytic savings; mutates the catalog's view set
        (creating or dropping views) to match ``with_views``.
        """
        wanted = set(with_views)
        unknown = wanted - set(self.view_names)
        if unknown:
            raise GameConfigError(f"unknown views: {sorted(unknown)}")
        for name in self.view_names:
            if name in wanted and not self.catalog.has_view(name):
                self.catalog.create_view(self._make_view(name))
            elif name not in wanted and self.catalog.has_view(name):
                self.catalog.drop_view(name)
        meter = self.workloads[user].run(self.engine, self.table_names)
        return self.engine.minutes_of(meter)

    def _make_view(self, view_name: str) -> MaterializedView:
        table_name = view_name.removeprefix("ph_")
        base = self.catalog.table(table_name)
        return MaterializedView(
            view_name,
            lambda: Project(
                Filter(SeqScan(base), Ne(Col("halo"), Const(-1))),
                ["pid", "halo"],
            ),
            depends_on=(table_name,),
        )


def build_use_case(config: UseCaseConfig = UseCaseConfig()) -> AstronomyUseCase:
    """Build the full use-case; see the module docstring for the steps."""
    snapshots = UniverseSimulator(config.universe, rng=config.seed).run()
    catalog = Catalog()
    table_names: list[str] = []
    for snapshot in snapshots:
        table = catalog.create_table(snapshot.to_table())
        table_names.append(table.name)

    workloads = _make_workloads(snapshots[-1], config.halos_per_group)
    engine = QueryEngine(catalog, CostModel())

    # Measure every workload without views; remember per-table pass counts.
    meters = [w.run(engine, table_names) for w in workloads]
    engine.recalibrate(config.calibrate_minutes * 60.0, meters[0])
    runtimes = tuple(engine.minutes_of(m) for m in meters)

    # Materialize all views once to size them, then price them.
    view_sizes: dict[str, int] = {}
    view_rows: dict[str, int] = {}
    for table_name in table_names:
        base = catalog.table(table_name)
        view = MaterializedView(
            view_name_for(table_name),
            lambda base=base: Project(
                Filter(SeqScan(base), Ne(Col("halo"), Const(-1))),
                ["pid", "halo"],
            ),
            depends_on=(table_name,),
        )
        view.refresh()
        view_sizes[view.name] = view.byte_size
        view_rows[view.name] = len(view.table)
    pricing = config.pricing.with_mean_view_cost(
        view_sizes.values(), config.mean_view_cost
    )
    view_costs = {
        name: pricing.view_dollars(size) for name, size in view_sizes.items()
    }

    # Analytic per-(user, view) savings from scan-pass counts.
    model = engine.cost_model
    savings: dict[tuple, float] = {}
    for user, meter in enumerate(meters):
        for table_name in table_names:
            passes = meter.counters.get(f"scan:{table_name}", 0.0)
            if passes == 0.0:
                continue
            base = catalog.table(table_name)
            vname = view_name_for(table_name)
            wide_bytes = len(base) * base.schema.row_width
            narrow_bytes = view_rows[vname] * 16  # (pid:int, halo:int)
            # The base path additionally pays one filter emit per clustered
            # row (the halo != -1 pre-filter the view absorbs); see
            # repro.db.planner._narrow_source for why this is exact.
            saved_units = passes * (
                (wide_bytes - narrow_bytes) * model.scan_byte_weight
                + view_rows[vname] * model.emit_weight
            )
            savings[(user, vname)] = saved_units * model.seconds_per_unit / 60.0

    return AstronomyUseCase(
        config=config,
        catalog=catalog,
        engine=engine,
        snapshots=snapshots,
        table_names=table_names,
        workloads=workloads,
        runtimes_min=runtimes,
        view_costs=view_costs,
        savings_min=savings,
        pricing=pricing,
    )


def _make_workloads(
    final_snapshot: ParticleSnapshot, halos_per_group: int
) -> tuple:
    """The six astronomers: two interleaved halo groups x strides 1/2/4."""
    labels, counts = np.unique(
        final_snapshot.halo[final_snapshot.halo >= 0], return_counts=True
    )
    if len(labels) < 2 * halos_per_group:
        raise GameConfigError(
            f"final snapshot has only {len(labels)} halos; need "
            f"{2 * halos_per_group} — increase particles or lower min_halo_members"
        )
    by_size = labels[np.argsort(-counts, kind="stable")]
    gamma_1 = tuple(int(h) for h in by_size[0 : 2 * halos_per_group : 2])
    gamma_2 = tuple(int(h) for h in by_size[1 : 2 * halos_per_group : 2])
    return (
        AstronomerWorkload("astro-1 (g1, every snapshot)", gamma_1, 1),
        AstronomerWorkload("astro-2 (g1, every 2nd)", gamma_1, 2),
        AstronomerWorkload("astro-3 (g1, every 4th)", gamma_1, 4),
        AstronomerWorkload("astro-4 (g2, every snapshot)", gamma_2, 1),
        AstronomerWorkload("astro-5 (g2, every 2nd)", gamma_2, 2),
        AstronomerWorkload("astro-6 (g2, every 4th)", gamma_2, 4),
    )
