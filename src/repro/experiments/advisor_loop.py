"""ADVISOR — the closed optimization loop on the astronomy workload.

Not a paper figure: this driver measures the codebase's own claim that
the :mod:`repro.advisor` loop — mine the logged workload, enumerate
candidate views *and* indexes, price them through the fleet games, adopt
the funded designs — cuts the astronomers' metered workload cost without
changing a single query result. It powers the ``advise`` CLI command and
``benchmarks/bench_advisor.py`` (which enforces the >= 3x floor at 40k
particles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.advisor import AdvisorOutcome
from repro.astro.simulator import UniverseConfig, UniverseSimulator
from repro.astro.workload import AstronomerWorkload
from repro.db.catalog import Catalog
from repro.errors import GameConfigError
from repro.experiments.common import ExperimentResult, Series
from repro.gateway.envelopes import AdviseRequest, ErrorReply
from repro.gateway.service import PricingService, TenantSession

__all__ = ["AdvisorLoopConfig", "AdvisorLoopResult", "run_advisor_loop"]


@dataclass(frozen=True)
class AdvisorLoopConfig:
    """Knobs of the advisor-loop measurement."""

    particles: int = 4000
    halos: int = 20
    snapshots: int = 4
    min_halo_members: int = 10
    halos_per_group: int = 3
    seed: int = 2012
    horizon: int = 12
    dollars_per_byte: float = 1e-6

    def __post_init__(self) -> None:
        if self.snapshots < 2:
            raise GameConfigError(
                f"need >= 2 snapshots for merger trees, got {self.snapshots}"
            )


def _loop_workloads(final_snapshot, halos_per_group: int, snapshots: int):
    """Two interleaved halo groups x every valid stride (1, 2, 4).

    Like the paper's six astronomers, but strides touching fewer than two
    snapshots are dropped so the loop also runs on short simulations.
    """
    labels, counts = np.unique(
        final_snapshot.halo[final_snapshot.halo >= 0], return_counts=True
    )
    if len(labels) < 2 * halos_per_group:
        raise GameConfigError(
            f"final snapshot has only {len(labels)} halos; need "
            f"{2 * halos_per_group} — increase particles or halos"
        )
    by_size = labels[np.argsort(-counts, kind="stable")]
    groups = (
        tuple(int(h) for h in by_size[0 : 2 * halos_per_group : 2]),
        tuple(int(h) for h in by_size[1 : 2 * halos_per_group : 2]),
    )
    strides = [s for s in (1, 2, 4) if len(range(0, snapshots, s)) >= 2]
    return tuple(
        AstronomerWorkload(f"astro-g{g + 1}-s{stride}", halos, stride)
        for g, halos in enumerate(groups)
        for stride in strides
    )


@dataclass(frozen=True)
class AdvisorLoopResult:
    """Outcome of one closed loop over the astronomy workload."""

    result: ExperimentResult
    outcome: AdvisorOutcome
    baseline_units: float
    advised_units: float

    @property
    def cost_ratio(self) -> float:
        """Metered-cost reduction: baseline over advised."""
        return self.baseline_units / self.advised_units


def _workload_units(
    session: TenantSession,
    workload: AstronomerWorkload,
    table_names: list[str],
    record: bool,
) -> float:
    """One astronomer's full workload through ``RunQuery`` envelopes.

    The envelope sequence issues exactly the engine calls
    :meth:`AstronomerWorkload.run` issues — one ``contributors`` and one
    ``chain`` query per studied halo — so the logged templates and the
    metered units are those of the direct engine path.
    """
    tables = workload.snapshot_tables(table_names)
    if len(tables) < 2:
        raise GameConfigError(
            f"workload {workload.name!r} needs at least two snapshots, "
            f"got {len(tables)}"
        )
    units = 0.0
    for halo in workload.final_halos:
        for query in ("contributors", "chain"):
            reply = session.run_query(
                query, tables=tuple(tables), halo=halo, record=record
            )
            if isinstance(reply, ErrorReply):
                raise GameConfigError(
                    f"workload query failed: [{reply.code}] {reply.message}"
                )
            units += reply.units
    return units


def run_advisor_loop(
    config: AdvisorLoopConfig = AdvisorLoopConfig(),
) -> AdvisorLoopResult:
    """Run the full loop once; see the module docstring.

    The whole loop goes through the gateway facade: every query is a
    ``RunQuery`` envelope dispatched under the astronomer's tenant
    session, and the advising round is one ``AdviseRequest``. The same
    service executes the same workloads before and after that round; the
    only thing that changes in between is the catalog's physical design
    (plus the ANALYZE statistics the round registers), so the per-tenant
    unit deltas are exactly what adoption bought.
    """
    universe = UniverseConfig(
        particles=config.particles,
        halos=config.halos,
        snapshots=config.snapshots,
        min_halo_members=config.min_halo_members,
    )
    snapshots = UniverseSimulator(universe, rng=config.seed).run()
    catalog = Catalog()
    table_names = []
    for snapshot in snapshots:
        table_names.append(catalog.create_table(snapshot.to_table()).name)
    workloads = _loop_workloads(
        snapshots[-1], config.halos_per_group, config.snapshots
    )

    service = PricingService(db_catalog=catalog)
    sessions = {w.name: service.session(w.name) for w in workloads}
    baseline = [
        _workload_units(sessions[w.name], w, table_names, record=True)
        for w in workloads
    ]

    reply = service.dispatch(
        AdviseRequest(
            horizon=config.horizon,
            dollars_per_byte=config.dollars_per_byte,
        )
    )
    if isinstance(reply, ErrorReply):
        raise GameConfigError(
            f"advising round failed: [{reply.code}] {reply.message}"
        )
    outcome = service.last_advice

    # The measurement re-run is not new workload signal: record=False.
    advised = [
        _workload_units(sessions[w.name], w, table_names, record=False)
        for w in workloads
    ]

    xs = tuple(range(len(workloads)))
    result = ExperimentResult(
        experiment="advisor_loop",
        x_label="astronomer (workload index)",
        y_label="metered workload cost [units]",
        series=(
            Series("baseline [units]", xs, tuple(baseline)),
            Series("advised [units]", xs, tuple(advised)),
            Series(
                "ratio [x]",
                xs,
                tuple(b / a for b, a in zip(baseline, advised)),
            ),
        ),
    )
    return AdvisorLoopResult(
        result=result,
        outcome=outcome,
        baseline_units=float(sum(baseline)),
        advised_units=float(sum(advised)),
    )
