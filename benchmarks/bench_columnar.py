"""Columnar vs iterator execution on the merger-tree access-path workload.

Runs the same merger-tree step queries (``top_contributor`` over a pair of
snapshots) through the engine twice, for every access path the planner
can choose — base-table scan, materialized (pid, halo) view, and hash
indexes: once as it runs (the columnar vector operators) and once with
``repro.db.engine.to_vector`` patched out, which leaves every plan on the
row iterators. Before any timing is trusted, every query is checked for
**identical rows and identical CostMeter charges** across the two paths
(exact equality, no tolerance): the columnar path is a physical rewrite
and must be invisible to the paper's cost model.

The acceptance bar is a >= 10x wall-clock speedup on the workload at
40,000 particles; the vectorized friends-of-friends finder is raced
against its per-particle reference implementation at the same scale.
Run as a script for the full table:

    PYTHONPATH=src python benchmarks/bench_columnar.py
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

import harness
from repro.astro.halos import friends_of_friends, friends_of_friends_reference
from repro.astro.simulator import UniverseConfig, UniverseSimulator
from repro.db import Catalog, MaterializedView, QueryEngine
from repro.db.expr import Col, Const, Ne
from repro.db.operators import Filter, Project, SeqScan
from repro.db.planner import view_name_for

PARTICLES = harness.scale(40_000, 2_000)
HALOS_QUERIED = 8
SEED = 11
SPEEDUP_FLOOR = 10.0
FOF_FLOOR = 3.0
REPEATS = 3


def _load_catalog() -> tuple[list, int]:
    """Two PARTICLES-sized snapshots, returned as raw tables."""
    config = UniverseConfig(
        particles=PARTICLES, halos=30, snapshots=2, min_halo_members=10
    )
    snapshots = UniverseSimulator(config, rng=SEED).run()
    return [s.to_table() for s in snapshots], len(snapshots[-1].pids)


def _catalog_for(tables, path: str) -> Catalog:
    """A fresh catalog holding the tables plus one access path's helpers."""
    catalog = Catalog()
    for table in tables:
        catalog.create_table(table)
    names = [t.name for t in tables]
    if path == "view":
        for name in names:
            base = catalog.table(name)
            catalog.create_view(
                MaterializedView(
                    view_name_for(name),
                    lambda base=base: Project(
                        Filter(SeqScan(base), Ne(Col("halo"), Const(-1))),
                        ["pid", "halo"],
                    ),
                )
            )
    elif path == "index":
        catalog.create_hash_index(names[1], "halo")
        catalog.create_hash_index(names[0], "pid")
    return catalog


def _iterator_only():
    """Patch the vector path out: every plan runs on the row iterators."""
    return mock.patch("repro.db.engine.to_vector", lambda plan: None)


def _workload(engine: QueryEngine, newer: str, older: str) -> list:
    """One merger-tree pass: the top contributor of each queried halo."""
    return [
        engine.top_contributor(newer, halo, older)
        for halo in range(HALOS_QUERIED)
    ]


def _check_equivalent(results_iter, results_vec, path: str) -> None:
    for (top_i, meter_i), (top_v, meter_v) in zip(
        results_iter, results_vec, strict=True
    ):
        assert top_i == top_v, f"{path}: progenitors diverged"
        assert meter_i == meter_v, f"{path}: meters diverged"


def _time_best(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_access_paths(tables) -> dict[str, tuple[float, float]]:
    """{path: (iterator_s, vector_s)} with equivalence asserted per path."""
    newer, older = tables[1].name, tables[0].name
    timings: dict[str, tuple[float, float]] = {}
    for path in ("base", "view", "index"):
        engine = QueryEngine(_catalog_for(tables, path))
        with _iterator_only():
            reference = _workload(engine, newer, older)
        _check_equivalent(reference, _workload(engine, newer, older), path)
        with _iterator_only():
            iterator_s = _time_best(lambda: _workload(engine, newer, older))
        timings[path] = (
            iterator_s,
            _time_best(lambda: _workload(engine, newer, older)),
        )
    return timings


def measure_fof() -> tuple[float, float]:
    """(reference_s, vectorized_s) for the halo finder at PARTICLES."""
    rng = np.random.default_rng(SEED)
    centers = rng.uniform(0, 300, size=(30, 3))
    assignment = rng.integers(0, 30, size=PARTICLES)
    positions = centers[assignment] + rng.normal(0, 1.5, size=(PARTICLES, 3))
    vectorized = friends_of_friends(positions, 2.4, 10)
    start = time.perf_counter()
    reference = friends_of_friends_reference(positions, 2.4, 10)
    reference_s = time.perf_counter() - start
    assert np.array_equal(
        np.sort(np.bincount(vectorized[vectorized >= 0])),
        np.sort(np.bincount(reference[reference >= 0])),
    ), "halo finders disagree on cluster sizes"
    vector_s = _time_best(lambda: friends_of_friends(positions, 2.4, 10))
    return reference_s, vector_s


def test_columnar_speedup(emit):
    """Acceptance bar: >= 10x on the access-path workload at 40k particles."""
    tables, n = _load_catalog()
    timings = measure_access_paths(tables)
    fof_reference_s, fof_vector_s = measure_fof()

    iterator_total = sum(t[0] for t in timings.values())
    vector_total = sum(t[1] for t in timings.values())
    workload_speedup = iterator_total / vector_total
    fof_speedup = fof_reference_s / fof_vector_s

    lines = [
        f"== columnar vs iterator engine: merger-tree step x {HALOS_QUERIED} "
        f"halos, {n} particles (identical rows+meters asserted) ==",
        f"{'path':<10} {'iterator s':>11} {'vector s':>9} {'speedup':>9}",
    ]
    for path, (iterator_s, vector_s) in timings.items():
        lines.append(
            f"{path:<10} {iterator_s:>11.4f} {vector_s:>9.4f} "
            f"{iterator_s / vector_s:>8.1f}x"
        )
    lines.append(
        f"{'workload':<10} {iterator_total:>11.4f} {vector_total:>9.4f} "
        f"{workload_speedup:>8.1f}x"
    )
    lines.append(
        f"{'fof':<10} {fof_reference_s:>11.4f} {fof_vector_s:>9.4f} "
        f"{fof_speedup:>8.1f}x"
    )
    emit("columnar_engine", "\n".join(lines))

    harness.record(
        "columnar_engine",
        speedup=workload_speedup,
        n=n,
        seed=SEED,
        floor=SPEEDUP_FLOOR,
        extra={
            "paths": {
                path: round(iterator_s / vector_s, 2)
                for path, (iterator_s, vector_s) in timings.items()
            },
            "fof_speedup": round(fof_speedup, 2),
            "halos_queried": HALOS_QUERIED,
        },
    )

    if harness.enforce_floors():
        assert workload_speedup >= SPEEDUP_FLOOR, (
            f"columnar path only {workload_speedup:.1f}x faster at {n} particles"
        )
        assert fof_speedup >= FOF_FLOOR, (
            f"vectorized halo finder only {fof_speedup:.1f}x faster"
        )


if __name__ == "__main__":

    class _Stdout:
        def __call__(self, name, text):
            print(text)

    test_columnar_speedup(_Stdout())
