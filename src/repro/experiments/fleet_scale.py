"""FLEET — fleet engine vs independent services, measured at scale.

Not a paper figure: this driver measures the codebase's own claim that the
:class:`~repro.fleet.engine.FleetEngine` runs hundreds of concurrent
pricing games faster than the same games as independent
:class:`~repro.cloudsim.service.CloudService` instances, while producing
bit-for-bit identical grants, prices, and payments (asserted on every
point before any timing is reported). ``benchmarks/bench_fleet.py``
enforces the headline speedup floor; this driver powers the ``fleet`` CLI
command and sweeps the game count.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

from repro.cloudsim.catalog import OptimizationCatalog
from repro.cloudsim.service import CloudService
from repro.errors import GameConfigError
from repro.experiments.common import ExperimentResult, Series
import numpy as np

from repro.fleet.engine import FleetBatch, FleetEngine
from repro.workloads.fleet import (
    fleet_arrival_trace,
    fleet_batches,
    fleet_game_costs,
)

__all__ = [
    "FleetPoint",
    "FleetScaleConfig",
    "run_fleet_scale",
    "measure_fleet_point",
    "measure_gateway_point",
]


@dataclass(frozen=True)
class FleetScaleConfig:
    """Knobs for the fleet-vs-services sweep."""

    games_grid: tuple = (25, 50, 100, 200)
    users_per_game: int = 250
    slots: int = 1000
    max_duration: int = 4
    mean_cost: float = 30.0
    repeats: int = 2
    seed: int = 2012

    def __post_init__(self) -> None:
        if self.users_per_game < 1:
            raise GameConfigError(
                f"users per game must be >= 1, got {self.users_per_game}"
            )
        if self.repeats < 1:
            raise GameConfigError(f"repeats must be >= 1, got {self.repeats}")


@dataclass(frozen=True)
class FleetPoint:
    """Best-of-repeats wall-clock seconds for one workload point.

    ``fleet_s`` is the bulk-fed fleet end to end (intake plus period); the
    ``bulk_*``/``per_bid_*`` pairs split intake from ``run_to_end`` for the
    fleet fed in bulk and fed one ``place_bid`` per arrival.
    """

    bids: int
    services_s: float
    fleet_s: float
    bulk_intake_s: float
    bulk_run_s: float
    per_bid_intake_s: float
    per_bid_run_s: float

    @property
    def speedup(self) -> float:
        """Independent services over the bulk-fed fleet."""
        return self.services_s / self.fleet_s


def measure_fleet_point(
    games: int,
    users: int,
    slots: int,
    max_duration: int = 4,
    mean_cost: float = 30.0,
    repeats: int = 2,
    seed: int = 2012,
) -> FleetPoint:
    """Time independent services against the fleet, fed both ways.

    Every side runs the *same* drawn population — the object-form trace and
    the columnar batches are generated with identical RNG consumption, so
    their bids are bit-identical. Before any timing is trusted, the
    services and the bulk-fed fleet are checked for identical payments,
    grants, and implementation slots, and the fleet fed one ``place_bid``
    per arrival for identical payments, grants, implementation slots and
    per-game revenue; best-of-``repeats`` timings absorb scheduler noise.
    """
    costs = fleet_game_costs(seed, games, mean_cost)
    trace = fleet_arrival_trace(seed + 1, users, games, slots, max_duration)
    by_game: dict = {}
    for arrival in trace:
        by_game.setdefault(arrival.optimization, []).append(arrival)
    batches = fleet_batches(seed + 1, users, games, slots, max_duration)
    catalog = OptimizationCatalog.from_costs(costs)

    def run_services():
        started = time.perf_counter()
        reports = {}
        for game, cost in costs.items():
            service = CloudService(
                OptimizationCatalog.from_costs({game: cost}),
                horizon=slots,
                mode="additive",
            )
            for arrival in by_game.get(game, ()):
                service.place_additive_bid(arrival.user, game, arrival.bid)
            reports[game] = service.run_to_end()
        return time.perf_counter() - started, reports

    def run_fleet(per_bid: bool):
        started = time.perf_counter()
        engine = FleetEngine(catalog, horizon=slots)
        if per_bid:
            for arrival in trace:
                engine.place_bid(arrival.user, arrival.optimization, arrival.bid)
        else:
            for batch in batches:
                engine.ingest(batch)
        fed = time.perf_counter()
        report = engine.run_to_end()
        return (fed - started, time.perf_counter() - fed), report

    services_s, service_reports = run_services()
    bulk, fleet_report = run_fleet(per_bid=False)
    per_bid, per_bid_report = run_fleet(per_bid=True)
    _assert_identical(service_reports, fleet_report)
    for field in ("payments", "granted_at", "implemented", "game_revenue"):
        if dict(getattr(per_bid_report, field)) != dict(
            getattr(fleet_report, field)
        ):
            raise AssertionError(f"place_bid-fed fleet {field} diverge from bulk")
    # Drop the parity artifacts (hundreds of thousands of event/ledger
    # objects) before the clean timing repeats: a heap full of survivors
    # turns every generational GC pass into a full scan, taxing whichever
    # side happens to run under it.
    del service_reports, fleet_report, per_bid_report
    gc.collect()
    bulk_runs, per_bid_runs = [bulk], [per_bid]
    for _ in range(repeats - 1):
        services_s = min(services_s, run_services()[0])
        bulk_runs.append(run_fleet(per_bid=False)[0])
        per_bid_runs.append(run_fleet(per_bid=True)[0])
    return FleetPoint(
        bids=len(trace),
        services_s=services_s,
        fleet_s=min(intake + run for intake, run in bulk_runs),
        bulk_intake_s=min(intake for intake, _ in bulk_runs),
        bulk_run_s=min(run for _, run in bulk_runs),
        per_bid_intake_s=min(intake for intake, _ in per_bid_runs),
        per_bid_run_s=min(run for _, run in per_bid_runs),
    )


def measure_gateway_point(
    games: int,
    users: int,
    slots: int,
    max_duration: int = 4,
    mean_cost: float = 30.0,
    repeats: int = 2,
    seed: int = 2012,
) -> tuple[float, float]:
    """CPU seconds ``(direct, gateway)`` for one workload point.

    Both sides start from the same 50k-scale *per-user* bid records —
    the position any real client is in. The *direct* side columnarizes
    the records into duration-major :class:`~repro.fleet.engine.FleetBatch`
    blocks itself, bulk-ingests them into a bare
    :class:`~repro.fleet.engine.FleetEngine`, and runs the period; the
    *gateway* side dispatches one pre-built ``SubmitBids`` envelope per
    user through one batched :meth:`~repro.gateway.PricingService.dispatch`
    (which does the identical regrouping behind the facade) and runs the
    same period through it. Both reports are asserted bit-identical to
    the report of pre-built :func:`~repro.workloads.fleet.fleet_batches`
    intake, compared in encoded form (:func:`repro.gateway.codec.encode`:
    payments, grants, implementations, per-game revenue, the ledger and
    the event log), before any timing is trusted.
    ``benchmarks/bench_gateway.py`` turns the ratio into the <15%
    dispatch-overhead gate. Both sides run single-threaded in this
    process with the GC off, so their CPU time (``time.process_time``)
    is the work each does; unlike wall time it leaves out the time the
    process is not scheduled.
    """
    from repro.gateway import codec
    from repro.gateway.envelopes import SubmitBids
    from repro.gateway.service import PricingService

    costs = fleet_game_costs(seed, games, mean_cost)
    batches = fleet_batches(seed + 1, users, games, slots, max_duration)
    trace = fleet_arrival_trace(seed + 1, users, games, slots, max_duration)
    requests = [
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

    def _timed(run):
        # Same GC regime for both sides: the resident population (50k
        # request/bid objects) makes generational passes effectively full
        # scans, and which side gets hit is luck of the allocation clock.
        gc.collect()
        gc.disable()
        try:
            started = time.process_time()
            result = run()
            return time.process_time() - started, result
        finally:
            gc.enable()

    def run_direct():
        def run():
            engine = FleetEngine(OptimizationCatalog.from_costs(costs), horizon=slots)
            rank_get = engine.rank_map.get
            columns: dict[int, tuple] = {}
            for arrival in trace:
                bid = arrival.bid
                values = bid.schedule.values
                group = columns.get(len(values))
                if group is None:
                    group = columns[len(values)] = ([], [], [], [])
                group[0].append(arrival.user)
                group[1].append(rank_get(arrival.optimization))
                group[2].append(bid.start)
                group[3].append(values)
            for duration in sorted(columns):
                tenants, ranks, starts, values = columns[duration]
                engine.ingest(
                    FleetBatch(
                        users=tuple(tenants),
                        opt_ranks=np.array(ranks, dtype=np.int64),
                        starts=np.array(starts, dtype=np.int64),
                        values=np.array(values, dtype=float),
                    )
                )
            return engine.run_to_end()

        return _timed(run)

    def run_gateway():
        def run():
            service = PricingService(
                OptimizationCatalog.from_costs(costs), horizon=slots
            )
            acks = service.dispatch(requests)
            if getattr(acks, "failed", None) is not None:
                raise AssertionError(f"bulk dispatch failed: {acks.failed}")
            return service.run_to_end()

        return _timed(run)

    # Pre-built batches are the engine's native intake; the sweep below
    # must match them bit for bit, proving neither columnarization path
    # (direct-from-records or gateway-from-envelopes) drifts.
    reference = FleetEngine(OptimizationCatalog.from_costs(costs), horizon=slots)
    for batch in batches:
        reference.ingest(batch)
    expected = codec.encode(reference.run_to_end())

    direct_s, direct_report = run_direct()
    gateway_s, gateway_report = run_gateway()
    for label, report in (
        ("direct-from-records", direct_report),
        ("gateway", gateway_report),
    ):
        if codec.encode(report) != expected:
            raise AssertionError(f"{label} report diverges from batch intake")
    del expected, direct_report, gateway_report
    gc.collect()
    for _ in range(repeats - 1):
        direct_s = min(direct_s, run_direct()[0])
        gateway_s = min(gateway_s, run_gateway()[0])
    return direct_s, gateway_s


def _assert_identical(service_reports: dict, fleet_report) -> None:
    payments: dict = {}
    granted: dict = {}
    implemented: dict = {}
    for report in service_reports.values():
        for user, paid in report.payments.items():
            payments[user] = payments.get(user, 0.0) + paid
        granted.update(report.granted_at)
        implemented.update(report.implemented)
    if payments != dict(fleet_report.payments):
        raise AssertionError("fleet payments diverge from independent services")
    if granted != dict(fleet_report.granted_at):
        raise AssertionError("fleet grants diverge from independent services")
    if implemented != dict(fleet_report.implemented):
        raise AssertionError(
            "fleet implementations diverge from independent services"
        )


def run_fleet_scale(config: FleetScaleConfig = FleetScaleConfig()) -> ExperimentResult:
    """Sweep the game count; returns seconds-per-side plus the speedup."""
    xs = tuple(int(g) for g in config.games_grid)
    services_y = []
    fleet_y = []
    speedup_y = []
    for games in xs:
        point = measure_fleet_point(
            games=games,
            users=games * config.users_per_game,
            slots=config.slots,
            max_duration=config.max_duration,
            mean_cost=config.mean_cost,
            repeats=config.repeats,
            seed=config.seed,
        )
        services_y.append(point.services_s)
        fleet_y.append(point.fleet_s)
        speedup_y.append(point.speedup)
    return ExperimentResult(
        experiment="fleet_scale",
        x_label="concurrent games (x%d users each)" % config.users_per_game,
        y_label="wall-clock seconds (and x speedup)",
        series=(
            Series("independent services [s]", xs, tuple(services_y)),
            Series("fleet engine [s]", xs, tuple(fleet_y)),
            Series("speedup [x]", xs, tuple(speedup_y)),
        ),
    )
