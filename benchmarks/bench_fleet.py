"""Fleet engine vs N engine-free per-game AddOn loops, at fleet scale.

Races the same multi-game workload two ways:

* **loops** — per optimization, one plain loop over its own
  :class:`repro.core.online.AddOnState`: bids indexed by start and end
  slot, every active bid's residual stepped each slot, ``exit_price``
  charged at each bid's end. The loops share nothing with the engine but
  the mechanism state, so an engine change moves one side of the ratio.
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
50,000 users.

A fleet-only row then splits one bulk-fed period at 200 games / 1M users /
2000 slots into its stages, in a fresh process so its peak RSS is the
period's own: intake, the first slot (which finalizes intake), the slot
walk (the mechanism's ``apply_changes`` inside it), departures, cyclic GC
(which overlaps the stages it interrupts), the slots after the first
that take over 50 ms, and the report. Run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time

import harness
from repro.cloudsim.catalog import OptimizationCatalog
from repro.core.online import AddOnState
from repro.experiments import measure_fleet_point
from repro.fleet.engine import FleetEngine
from repro.workloads.fleet import fleet_batches, fleet_game_costs

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

#: (games, users, slots) of the stage-split row.
SPLIT = harness.scale((200, 1_000_000, 2000), (5, 300, 50))

#: A slot after the first that takes longer than this is a slot tail.
TAIL_S = 0.050

SPEEDUP_FLOOR = 5.0
SEED = 2012


def measure_split(games: int, users: int, slots: int, seed: int = SEED) -> dict:
    """Seconds per stage of one bulk-fed period (see the module docstring).

    Times the engine's private ``_walk`` and ``_invoice_departures`` and
    ``AddOnState.apply_changes`` by wrapping them, so run it in a process
    of its own (:func:`split_in_subprocess`).
    """
    spent = {"walk_s": 0.0, "apply_changes_s": 0.0, "departures_s": 0.0, "gc_s": 0.0}

    def timed(stage, fn):
        def wrapper(*args):
            started = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[stage] += time.perf_counter() - started

        return wrapper

    gc_started = [0.0]

    def on_gc(phase, _info):
        if phase == "start":
            gc_started[0] = time.perf_counter()
        else:
            spent["gc_s"] += time.perf_counter() - gc_started[0]

    costs = fleet_game_costs(seed, games, 30.0)
    batches = fleet_batches(seed + 1, users, games, slots, 4)
    engine = FleetEngine(OptimizationCatalog.from_costs(costs), horizon=slots)
    engine._walk = timed("walk_s", engine._walk)
    engine._invoice_departures = timed("departures_s", engine._invoice_departures)
    AddOnState.apply_changes = timed("apply_changes_s", AddOnState.apply_changes)
    gc.callbacks.append(on_gc)
    try:
        started = time.perf_counter()
        engine.ingest_many(batches)
        intake_s = time.perf_counter() - started
        started = time.perf_counter()
        engine.advance_slot()
        first_s = time.perf_counter() - started
        ticks = []
        while engine.slot < engine.horizon:
            started = time.perf_counter()
            engine.advance_slot()
            ticks.append(time.perf_counter() - started)
        started = time.perf_counter()
        engine.report()
        report_s = time.perf_counter() - started
    finally:
        gc.callbacks.remove(on_gc)
    return {
        "games": games,
        "users": users,
        "slots": slots,
        "intake_s": intake_s,
        "first_slot_s": first_s,
        "later_slots_s": sum(ticks),
        **spent,
        "slots_over_50ms": sum(tick > TAIL_S for tick in ticks),
        "report_s": report_s,
        "run_to_end_s": first_s + sum(ticks) + report_s,
        "events": len(engine.events),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def split_in_subprocess(games: int, users: int, slots: int) -> dict:
    """:func:`measure_split` in a fresh interpreter (its own peak RSS)."""
    done = subprocess.run(
        [sys.executable, __file__, "--split", f"{games},{users},{slots}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_fleet_speedup_at_200_games(emit):
    """Acceptance bar: >= 5x over the per-game loops at 200 games."""
    rows = []
    for games, users, slots in SCALES:
        point = measure_fleet_point(
            games=games, users=users, slots=slots, repeats=3, seed=SEED
        )
        rows.append((games, users, slots, point))
    table = "\n".join(
        [
            "== fleet engine vs N engine-free per-game loops "
            "(identical outcomes asserted) ==",
            f"{'games':>6} {'users':>7} {'slots':>6} "
            f"{'loops s':>11} {'fleet s':>9} {'speedup':>9}",
        ]
        + [
            f"{g:>6} {u:>7} {z:>6} {p.loops_s:>11.3f} {p.fleet_s:>9.3f} "
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
    split = split_in_subprocess(*SPLIT)
    table += "\n".join(
        [
            "",
            "",
            f"== one bulk-fed period at {split['games']} games / "
            f"{split['users']} users / {split['slots']} slots, by stage ==",
            f"intake {split['intake_s']:.3f} s, first slot "
            f"{split['first_slot_s']:.3f} s, later slots "
            f"{split['later_slots_s']:.3f} s (walk {split['walk_s']:.3f} s with "
            f"apply_changes {split['apply_changes_s']:.3f} s inside, departures "
            f"{split['departures_s']:.3f} s), report {split['report_s']:.3f} s",
            f"run_to_end {split['run_to_end_s']:.3f} s, cyclic GC "
            f"{split['gc_s']:.3f} s, {split['slots_over_50ms']} later slots "
            f"over 50 ms, {split['events']} events, peak RSS "
            f"{split['peak_rss_mb']:.0f} MB",
        ]
    )
    emit("fleet_vs_game_loops", table)
    games, users, _, point = rows[-1]
    speedup = point.speedup
    harness.record(
        "fleet_vs_game_loops",
        speedup=speedup,
        n=users,
        seed=SEED,
        floor=SPEEDUP_FLOOR,
        extra={
            "games": games,
            "scales": [list(r[:3]) for r in rows],
            "loops_s": [round(r[3].loops_s, 4) for r in rows],
            "fleet_s": [round(r[3].fleet_s, 4) for r in rows],
            "split": {
                k: round(v, 3) if isinstance(v, float) else v
                for k, v in split.items()
            },
        },
    )
    if harness.enforce_floors():
        assert speedup >= SPEEDUP_FLOOR, (
            f"fleet only {speedup:.1f}x faster at {games} games / {users} users"
        )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--split"]:
        games, users, slots = map(int, sys.argv[2].split(","))
        print(json.dumps(measure_split(games, users, slots)))
        sys.exit(0)

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_fleet_speedup_at_200_games(_Stdout())
