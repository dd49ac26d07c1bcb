"""Gateway dispatch overhead vs driving the FleetEngine directly.

The gateway facade (:class:`repro.gateway.PricingService`) must not tax
the fleet's batched hot path: a batched ``dispatch`` regroups one
``SubmitBids`` envelope per user back into the same columnar
:class:`~repro.fleet.engine.FleetBatch` blocks the direct path ingests,
so the only added work is envelope handling. This benchmark races the
two on the identical drawn population:

* **direct** — pre-built columnar batches ingested into a bare
  ``FleetEngine``, run to the end of the period;
* **gateway** — one ``SubmitBids`` envelope per user through
  ``PricingService.dispatch``, the same period run through the
  facade.

Outcomes are asserted bit-identical — payments, grants, implementation
slots, per-game revenue, the billing ledger and the event log — before
any timing is trusted (inside ``measure_gateway_point``). Each side is
timed in CPU seconds of this process, which leave out the time it is not
scheduled. The acceptance bar is **< 15% dispatch overhead at 200 games /
50,000 users**; run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_gateway.py
"""

from __future__ import annotations

import harness
from repro.experiments import measure_gateway_point

#: (games, users, slots) rows of the table; the last row is the bar.
#: Smoke mode shrinks them so CI proves the benchmark code runs.
SCALES = harness.scale(
    (
        (50, 12_500, 1000),
        (200, 50_000, 6000),
    ),
    ((5, 300, 50),),
)

#: Maximum tolerated gateway/direct CPU-time overhead at the bar scale.
OVERHEAD_CEILING = 0.15
SEED = 2012


def test_gateway_overhead_at_50k_users(emit):
    """Acceptance bar: < 15% dispatch overhead at 200 games / 50k users."""
    rows = []
    for games, users, slots in SCALES:
        # Best-of-5: the measured gap is tens of milliseconds, so a
        # single scheduler hiccup on a shared box can swamp it at
        # best-of-3.
        direct_s, gateway_s = measure_gateway_point(
            games=games, users=users, slots=slots, repeats=5, seed=SEED
        )
        rows.append((games, users, slots, direct_s, gateway_s))
    table = "\n".join(
        [
            "== gateway dispatch vs direct FleetEngine "
            "(bit-identical outcomes, ledger and events asserted) ==",
            f"{'games':>6} {'users':>7} {'slots':>6} "
            f"{'direct CPU s':>13} {'gateway CPU s':>14} {'overhead':>9}",
        ]
        + [
            f"{g:>6} {u:>7} {z:>6} {d:>13.3f} {w:>14.3f} {w / d - 1.0:>8.1%}"
            for g, u, z, d, w in rows
        ]
    )
    emit("gateway_dispatch", table)
    games, users, _, direct_s, gateway_s = rows[-1]
    overhead = gateway_s / direct_s - 1.0
    harness.record(
        "gateway_dispatch",
        # The recorded headline keeps the harness convention of "bigger is
        # better": direct/gateway, i.e. 1.0 means a free abstraction.
        speedup=direct_s / gateway_s,
        n=users,
        seed=SEED,
        floor=1.0 - OVERHEAD_CEILING,
        extra={
            "games": games,
            "overhead": round(overhead, 4),
            "scales": [list(r[:3]) for r in rows],
        },
    )
    if harness.enforce_floors():
        assert overhead < OVERHEAD_CEILING, (
            f"gateway adds {overhead:.1%} over the direct fleet at "
            f"{games} games / {users} users (ceiling {OVERHEAD_CEILING:.0%})"
        )


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_gateway_overhead_at_50k_users(_Stdout())
