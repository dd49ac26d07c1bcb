"""The closed optimization loop, measured on the astronomy workload.

Runs :func:`repro.experiments.advisor_loop.run_advisor_loop` at 40,000
particles: the astronomers' workloads execute unoptimized, the advisor
mines the workload log, enumerates candidate views and indexes, prices
them through the fleet games, and adopts whatever the tenants fund; the
workloads then re-execute against the adopted physical design.

The acceptance bar is a >= 3x cut in *metered* workload cost (simulated
cost units, not wall-clock), which is scale-independent and therefore
enforced even in smoke mode — the ratio is a property of the plans the
cost-based planner serves, not of the machine. Results are recorded via
``harness.record`` into the trajectory (``harness.TRAJECTORY_PATH``).
Run as a script:

    PYTHONPATH=src python benchmarks/bench_advisor.py
"""

from __future__ import annotations

import time

import harness
from repro.experiments.advisor_loop import AdvisorLoopConfig, run_advisor_loop

PARTICLES = harness.scale(40_000, 2_000)
SNAPSHOTS = 4
SEED = 2012
COST_FLOOR = 3.0


def test_advisor_cuts_metered_cost(emit):
    """Acceptance bar: >= 3x metered-cost cut at 40k particles."""
    started = time.perf_counter()
    loop = run_advisor_loop(
        AdvisorLoopConfig(
            particles=PARTICLES,
            halos=30,
            snapshots=SNAPSHOTS,
            min_halo_members=10,
            seed=SEED,
        )
    )
    elapsed = time.perf_counter() - started
    outcome = loop.outcome

    lines = [
        f"== advisor loop: {PARTICLES} particles x {SNAPSHOTS} snapshots, "
        f"{len(outcome.candidates)} candidates, {len(outcome.adopted)} adopted "
        f"({elapsed:.1f}s wall) ==",
        f"{'tenant':<14} {'baseline':>14} {'advised':>14} {'ratio':>7}",
    ]
    baseline_series = loop.result.get("baseline [units]")
    advised_series = loop.result.get("advised [units]")
    for i, x in enumerate(baseline_series.x):
        b, a = baseline_series.y[i], advised_series.y[i]
        lines.append(f"astro-{x:<8} {b:>14.0f} {a:>14.0f} {b / a:>6.1f}x")
    lines.append(
        f"{'workload':<14} {loop.baseline_units:>14.0f} "
        f"{loop.advised_units:>14.0f} {loop.cost_ratio:>6.1f}x"
    )
    lines.append(f"adopted: {', '.join(outcome.adopted)}")
    emit("advisor_loop", "\n".join(lines))

    harness.record(
        "advisor_loop",
        speedup=loop.cost_ratio,
        n=PARTICLES,
        seed=SEED,
        floor=COST_FLOOR,
        extra={
            "candidates": len(outcome.candidates),
            "adopted": list(outcome.adopted),
            "baseline_units": round(loop.baseline_units, 1),
            "advised_units": round(loop.advised_units, 1),
            "metric": "metered cost units (scale-independent)",
        },
    )

    # Metered units are deterministic simulated cost, not machine timing,
    # so this floor holds at smoke scale too and is always enforced.
    assert outcome.adopted, "the games funded nothing — no design adopted"
    assert loop.cost_ratio >= COST_FLOOR, (
        f"advisor only cut metered cost {loop.cost_ratio:.2f}x at "
        f"{PARTICLES} particles (floor {COST_FLOOR}x)"
    )


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_advisor_cuts_metered_cost(_Stdout())
