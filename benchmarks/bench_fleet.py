"""Fleet engine vs N independent CloudService runs, at fleet scale.

Races the same multi-game workload two ways:

* **services** — one :class:`repro.cloudsim.CloudService` per
  optimization, each fed its own users through the object API and advanced
  through every slot: N independent per-game loops.
* **fleet** — one :class:`repro.fleet.FleetEngine` over the whole catalog,
  bulk-ingesting the identical population as columnar batches and making
  one pass over the fleet's arrivals/departures per slot.

The fleet is also fed the same population one ``place_bid`` per arrival;
both intake forms land in the same columnar store, so the table reports
intake cost per bid and ``run_to_end`` for each. Outcomes are checked
identical (payments, grants, implementation slots, exact equality — no
tolerance) across all three runs on every point before any timing is
trusted; timings are best-of-3 per side to absorb scheduler noise. The
acceptance bar is a >= 5x wall-clock speedup at 200 concurrent games and
50,000 users; run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import harness
from repro.experiments import measure_fleet_point

#: (games, users, slots) rows of the table; the last row is the bar.
#: Smoke mode shrinks them so CI proves the benchmark code runs.
SCALES = harness.scale(
    (
        (50, 12_500, 1000),
        (100, 25_000, 2000),
        (200, 50_000, 6000),
    ),
    ((5, 300, 50),),
)

SPEEDUP_FLOOR = 5.0
SEED = 2012


def test_fleet_speedup_at_200_games(emit):
    """Acceptance bar: >= 5x over independent services at 200 games."""
    rows = []
    for games, users, slots in SCALES:
        point = measure_fleet_point(
            games=games, users=users, slots=slots, repeats=3, seed=SEED
        )
        rows.append((games, users, slots, point))
    table = "\n".join(
        [
            "== fleet engine vs N independent CloudService runs "
            "(identical outcomes asserted) ==",
            f"{'games':>6} {'users':>7} {'slots':>6} "
            f"{'services s':>11} {'fleet s':>9} {'speedup':>9}",
        ]
        + [
            f"{g:>6} {u:>7} {z:>6} {p.services_s:>11.3f} {p.fleet_s:>9.3f} "
            f"{p.speedup:>8.1f}x"
            for g, u, z, p in rows
        ]
        + [
            "",
            "== fleet intake forms: bulk batches vs one place_bid per bid ==",
            f"{'games':>6} {'users':>7} {'slots':>6} {'bulk us/bid':>12} "
            f"{'bulk run s':>11} {'place us/bid':>13} {'place run s':>12}",
        ]
        + [
            f"{g:>6} {u:>7} {z:>6} {p.bulk_intake_s / p.bids * 1e6:>12.2f} "
            f"{p.bulk_run_s:>11.3f} {p.per_bid_intake_s / p.bids * 1e6:>13.2f} "
            f"{p.per_bid_run_s:>12.3f}"
            for g, u, z, p in rows
        ]
    )
    emit("fleet_engine", table)
    games, users, _, point = rows[-1]
    speedup = point.speedup
    harness.record(
        "fleet_engine",
        speedup=speedup,
        n=users,
        seed=SEED,
        floor=SPEEDUP_FLOOR,
        extra={"games": games, "scales": [list(r[:3]) for r in rows]},
    )
    if harness.enforce_floors():
        assert speedup >= SPEEDUP_FLOOR, (
            f"fleet only {speedup:.1f}x faster at {games} games / {users} users"
        )


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_fleet_speedup_at_200_games(_Stdout())
