"""Scenario traces: full arrival scripts for the cloud-service simulator.

The figure experiments feed complete bid profiles to the batch runners;
integration tests and demos want the *service* exercised instead — users
arriving mid-period, placing bids on the fly. A trace is an ordered list
of arrival records that :func:`replay_additive_trace` feeds into a
:class:`~repro.fleet.engine.FleetEngine` slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bids.additive import AdditiveBid
from repro.cloudsim.catalog import OptimizationCatalog
from repro.errors import GameConfigError
from repro.fleet.engine import FleetEngine, FleetReport
from repro.utils.rng import RngLike, ensure_rng
from repro.workloads.arrivals import uniform_slots
from repro.workloads.values import uniform_values

__all__ = ["Arrival", "generate_additive_trace", "replay_additive_trace"]


@dataclass(frozen=True)
class Arrival:
    """One scripted arrival: who, for which optimization, with which bid."""

    user: object
    optimization: object
    bid: AdditiveBid


def generate_additive_trace(
    rng: RngLike,
    users: int,
    slots: int,
    optimizations: list,
    max_duration: int = 3,
) -> list[Arrival]:
    """A random arrival script over a pool of additive optimizations.

    Each user picks one optimization, an entry slot, a duration (clamped
    to the horizon), and a U[0,1) total value split evenly over her
    interval — the experiments' workload shape, but delivered as events.
    """
    if max_duration < 1:
        raise GameConfigError(f"max duration must be >= 1, got {max_duration}")
    if not optimizations:
        raise GameConfigError("need at least one optimization")
    generator = ensure_rng(rng)
    starts = uniform_slots(generator, users, slots)
    totals = uniform_values(generator, users)
    arrivals = []
    for k in range(users):
        start = int(starts[k])
        duration = int(generator.integers(1, max_duration + 1))
        duration = min(duration, slots - start + 1)
        per_slot = float(totals[k]) / duration
        optimization = optimizations[int(generator.integers(len(optimizations)))]
        arrivals.append(
            Arrival(
                user=f"user-{k}",
                optimization=optimization,
                bid=AdditiveBid.over(start, [per_slot] * duration),
            )
        )
    arrivals.sort(key=lambda a: (a.bid.start, str(a.user)))
    return arrivals


def replay_additive_trace(
    trace: list,
    costs: dict,
    horizon: int,
) -> FleetReport:
    """Feed a trace through a fresh fleet engine and run it out.

    Arrivals are placed just before their entry slot is processed, exactly
    as a live service would see them.
    """
    engine = FleetEngine(OptimizationCatalog.from_costs(costs), horizon=horizon)
    pending = sorted(trace, key=lambda a: a.bid.start)
    idx = 0
    for _ in range(horizon):
        upcoming = engine.slot + 1
        while idx < len(pending) and pending[idx].bid.start == upcoming:
            arrival = pending[idx]
            engine.place_bid(arrival.user, arrival.optimization, arrival.bid)
            idx += 1
        engine.advance_slot()
    return engine.report()
