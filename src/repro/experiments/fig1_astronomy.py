"""Figure 1 — the astronomy use-case on an EC2-style subscription.

Six astronomers share 27 materialized-view optimizations over a year split
into 4 purchase quarters of 3 month-slots each. Each user picks a quarter
interval (one of the 10 possible ``(s, e)`` pairs — the paper enumerates
all ``10^6`` group combinations; we sample them, or enumerate exhaustively
when ``samples=None``), executes her workload ``x`` times in total (the
x-axis, 1 to 90), and splits the resulting value equally across her slots
(the paper's Section 7.4 convention).

Optimization values come either from the :mod:`repro.astro` engine
(``values="engine"``: measured query speedups priced at $0.25/hour) or from
the paper's published numbers (``values="paper"``: 44/18/8/39/23/9 minutes
saved by the final-snapshot view -> 18/7/3/16/9/4 cents, 2.5 minutes -> 1
cent for every other view, $2.31 per view cost).

Expected shape (Section 7.2): both approaches save real money; AddOn yields
28-47% of the baseline cost as utility and beats Regret by 18-118%, and
the cloud never loses money under AddOn while Regret's balance can go
substantially negative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.astro.usecase import (
    PAPER_FINAL_VIEW_SAVINGS_MIN,
    PAPER_MEAN_VIEW_COST,
    PAPER_OTHER_VIEW_SAVINGS_MIN,
    PAPER_RUNTIMES_MIN,
    AstronomyUseCase,
    UseCaseConfig,
    build_use_case,
)
from repro.baseline.regret import run_regret_additive_many
from repro.bids.additive import AdditiveBid
from repro.core.accounting import addon_total_utility
from repro.core.addon import run_addon
from repro.errors import GameConfigError
from repro.experiments.common import ExperimentResult, Series, as_tuple
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Fig1Config", "run_fig1_astronomy", "paper_value_table"]

#: Workload strides of the six astronomers, used by `values="paper"`.
PAPER_STRIDES = (1, 2, 4, 1, 2, 4)
PAPER_HOURLY_RATE = 0.25


@dataclass(frozen=True)
class Fig1Config:
    """Figure 1 setup; defaults match the paper.

    ``universe_scale`` only matters for ``values="engine"``: it
    multiplies the simulated universe's particle count (the columnar path
    is what makes scales of 10+ — tens of thousands of particles across
    27 snapshots — tractable).
    """

    executions: tuple = (1, 10, 20, 30, 40, 50, 60, 70, 80, 90)
    quarters: int = 4
    slots_per_quarter: int = 3
    samples: int | None = 150
    seed: int = 2012
    values: str = "engine"
    universe_scale: int = 1

    def __post_init__(self) -> None:
        if self.values not in ("engine", "paper"):
            raise GameConfigError(
                f"values must be 'engine' or 'paper', got {self.values!r}"
            )
        if self.quarters < 1:
            raise GameConfigError(f"quarters must be >= 1, got {self.quarters}")
        if self.slots_per_quarter < 1:
            raise GameConfigError(
                f"slots_per_quarter must be >= 1, got {self.slots_per_quarter}"
            )
        if self.universe_scale < 1:
            raise GameConfigError(
                f"universe_scale must be >= 1, got {self.universe_scale}"
            )


def paper_value_table(snapshots: int = 27) -> tuple[dict, dict, tuple]:
    """(per-view costs, per-(user, view) dollars/execution, baselines).

    Encodes the paper's published numbers for ``values="paper"``: view v27
    saves each user her published minutes; every other view her workload
    touches saves 2.5 minutes (about 1 cent).
    """
    view_ids = [f"v{k:02d}" for k in range(1, snapshots + 1)]
    costs = {v: PAPER_MEAN_VIEW_COST for v in view_ids}
    values: dict = {}
    for user, stride in enumerate(PAPER_STRIDES):
        touched = set(range(snapshots, 0, -stride))
        for k in range(1, snapshots + 1):
            if k not in touched:
                continue
            if k == snapshots:
                minutes = PAPER_FINAL_VIEW_SAVINGS_MIN[user]
            else:
                minutes = PAPER_OTHER_VIEW_SAVINGS_MIN
            values[(user, f"v{k:02d}")] = minutes / 60.0 * PAPER_HOURLY_RATE
    baselines = tuple(
        r / 60.0 * PAPER_HOURLY_RATE for r in PAPER_RUNTIMES_MIN
    )
    return costs, values, baselines


def _value_table(
    config: Fig1Config, use_case: AstronomyUseCase | None
) -> tuple[dict, dict, tuple, int]:
    """Resolve (costs, values, baselines, users) for the configured mode."""
    if config.values == "paper":
        costs, values, baselines = paper_value_table()
        return costs, values, baselines, len(PAPER_STRIDES)
    if use_case is None:
        use_case = build_use_case(UseCaseConfig.scaled(config.universe_scale))
    costs = dict(use_case.view_costs)
    users = len(use_case.workloads)
    values = {
        (user, view): use_case.value_dollars(user, view)
        for user in range(users)
        for view in use_case.view_names
        if use_case.value_dollars(user, view) > 0
    }
    baselines = tuple(use_case.baseline_dollars(u) for u in range(users))
    return costs, values, baselines, users


def _intervals(quarters: int) -> list[tuple[int, int]]:
    """All (start, end) quarter intervals — 10 of them for 4 quarters."""
    return [
        (s, e) for s in range(1, quarters + 1) for e in range(s, quarters + 1)
    ]


def run_fig1_astronomy(
    config: Fig1Config = Fig1Config(),
    use_case: AstronomyUseCase | None = None,
    rng: RngLike = None,
) -> ExperimentResult:
    """Reproduce Figure 1.

    Pass a prebuilt ``use_case`` to amortize the engine build across calls
    (the benchmarks do); it is ignored in ``values="paper"`` mode.
    """
    costs, values, baselines, users = _value_table(config, use_case)
    view_ids = list(costs)
    intervals = _intervals(config.quarters)
    spq = config.slots_per_quarter
    horizon = config.quarters * spq

    if config.samples is None:
        combos: Sequence = list(itertools.product(range(len(intervals)), repeat=users))
    else:
        generator = ensure_rng(config.seed if rng is None else rng)
        combos = generator.integers(
            0, len(intervals), size=(config.samples, users)
        )

    rows = np.zeros((len(combos), len(config.executions), 4))
    for c_idx, combo in enumerate(combos):
        user_intervals = [intervals[int(k)] for k in combo]
        for x_idx, executions in enumerate(config.executions):
            # x is the *total* number of workload executions per user; each
            # user spreads the resulting value equally over her slots (the
            # paper's Section 7.4 convention), and the baseline is the cost
            # of those executions without any optimization.
            baseline_cost = sum(
                executions * baselines[u] for u in range(len(user_intervals))
            )
            addon_utility = 0.0
            bids_by_view: dict = {}
            for view in view_ids:
                bids = {}
                for user, (s, e) in enumerate(user_intervals):
                    total_value = executions * values.get((user, view), 0.0)
                    if total_value <= 0:
                        continue
                    # Service is bought in whole quarters; the bid's slot
                    # granularity is finer (months by default), with the
                    # value split equally across the covered slots.
                    first_slot = (s - 1) * spq + 1
                    width = (e - s + 1) * spq
                    bids[user] = AdditiveBid.over(
                        first_slot, [total_value / width] * width
                    )
                if bids:
                    bids_by_view[view] = bids
                    outcome = run_addon(costs[view], bids, horizon=horizon)
                    addon_utility += addon_total_utility(outcome, bids)
            regret = run_regret_additive_many(
                costs, bids_by_view, horizon=horizon
            )
            rows[c_idx, x_idx] = (
                baseline_cost,
                addon_utility,
                regret.total_utility,
                regret.cloud_balance,
            )

    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    x = tuple(config.executions)
    names = ("Baseline Cost", "AddOn Utility", "Regret Utility", "Regret Balance")
    series = tuple(
        Series(name, x, as_tuple(mean[:, k]), as_tuple(std[:, k]))
        for k, name in enumerate(names)
    )
    return ExperimentResult(
        experiment=f"fig1-astronomy-{config.values}-values",
        x_label="workload executions per user per quarter",
        y_label="amount in $",
        series=series,
    )
