"""Fleet-scale scenario generators: tens of thousands of bids, as arrays.

The per-figure generators in :mod:`repro.workloads.scenarios` build one
game at a time out of Python objects; at fleet scale (hundreds of games,
50k+ users) object-at-a-time intake is itself the bottleneck. These
generators emit :class:`~repro.fleet.engine.FleetBatch` columnar blocks —
one batch per bid duration, everything numpy — that
:meth:`~repro.fleet.engine.FleetEngine.ingest` loads without touching a
Python bid object, plus an object-form twin
(:func:`fleet_arrival_trace`) whose bids are bit-identical, used by the
equivalence tests and the per-game loop baseline of bench_fleet.
"""

from __future__ import annotations

import numpy as np

from repro.bids.additive import AdditiveBid
from repro.errors import GameConfigError
from repro.fleet.engine import FleetBatch
from repro.utils.rng import RngLike, ensure_rng
from repro.workloads.traces import Arrival

__all__ = ["fleet_game_costs", "fleet_batches", "fleet_arrival_trace"]


def fleet_game_costs(
    rng: RngLike, games: int, mean_cost: float
) -> dict[str, float]:
    """Per-game costs uniform on ``[0, 2c]``, keyed ``game-0 .. game-N-1``.

    The fleet twin of :func:`repro.workloads.substitutes.sample_costs`,
    with string ids matching :func:`fleet_batches`' rank order.
    """
    if games < 1:
        raise GameConfigError(f"need at least one game, got {games}")
    if mean_cost <= 0:
        raise GameConfigError(f"mean cost must be positive, got {mean_cost}")
    generator = ensure_rng(rng)
    draws = generator.uniform(0.0, 2.0 * mean_cost, size=games)
    return {f"game-{j}": max(float(c), 1e-12) for j, c in enumerate(draws)}


def _draw_fleet(
    rng: RngLike, users: int, games: int, slots: int, max_duration: int
):
    if users < 1:
        raise GameConfigError(f"need at least one user, got {users}")
    if games < 1:
        raise GameConfigError(f"need at least one game, got {games}")
    if not 1 <= max_duration <= slots:
        raise GameConfigError(
            f"max duration {max_duration} must be in [1, {slots}]"
        )
    generator = ensure_rng(rng)
    ranks = generator.integers(games, size=users)
    durations = generator.integers(1, max_duration + 1, size=users)
    # Arrival uniform over the slots the whole bid fits in.
    starts = 1 + np.floor(
        generator.random(users) * (slots - durations + 1)
    ).astype(np.int64)
    totals = generator.uniform(0.0, 1.0, size=users)
    return ranks, durations, starts, totals


def fleet_batches(
    rng: RngLike,
    users: int,
    games: int,
    slots: int,
    max_duration: int = 4,
) -> list[FleetBatch]:
    """Columnar fleet workload: one batch per bid duration.

    Each user bids on one uniformly-drawn game, arrives uniformly at a
    slot her whole bid fits in, and splits a U[0, 1) total value evenly
    over her duration — the experiments' workload shape, at fleet scale.
    User ids are dense ints ``0 .. users - 1``.
    """
    ranks, durations, starts, totals = _draw_fleet(
        rng, users, games, slots, max_duration
    )
    batches = []
    for d in range(1, max_duration + 1):
        mask = durations == d
        n = int(mask.sum())
        if n == 0:
            continue
        per_slot = totals[mask] / d
        batches.append(
            FleetBatch(
                users=tuple(np.flatnonzero(mask).tolist()),
                opt_ranks=ranks[mask],
                starts=starts[mask],
                values=np.repeat(per_slot[:, None], d, axis=1),
            )
        )
    return batches


def fleet_arrival_trace(
    rng: RngLike,
    users: int,
    games: int,
    slots: int,
    max_duration: int = 4,
) -> list[Arrival]:
    """The object-form twin of :func:`fleet_batches`.

    Drawn with the same RNG consumption, so the same seed yields the same
    population; each record's ``optimization`` is ``game-<rank>`` to match
    :func:`fleet_game_costs`. Bids are built so their slot values are
    bit-identical to the columnar form.
    """
    ranks, durations, starts, totals = _draw_fleet(
        rng, users, games, slots, max_duration
    )
    arrivals = []
    for u in range(users):
        d = int(durations[u])
        per_slot = float(totals[u]) / d
        arrivals.append(
            Arrival(
                user=u,
                optimization=f"game-{int(ranks[u])}",
                bid=AdditiveBid.over(int(starts[u]), [per_slot] * d),
            )
        )
    return arrivals
