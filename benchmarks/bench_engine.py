"""Relational-engine microbenchmarks: access paths and the halo finder.

Not a paper figure — these keep the substrate honest. The access-path
comparison is the physical fact the whole pricing story rests on: the
narrow view (and the hash index) really are cheaper ways to answer the
merger-tree queries, in wall-clock and in metered cost units alike.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.astro.halos import friends_of_friends
from repro.astro.simulator import UniverseConfig, UniverseSimulator
from repro.db import Catalog, CostModel, MaterializedView, QueryEngine
from repro.db.expr import Col, Const, Ne
from repro.db.operators import Filter, Project, SeqScan
from repro.db.planner import view_name_for


@pytest.fixture(scope="module")
def loaded_catalog():
    """Two 4k-particle snapshots on a catalog, no auxiliary structures."""
    config = UniverseConfig(
        particles=4000, halos=25, snapshots=2, min_halo_members=10
    )
    snapshots = UniverseSimulator(config, rng=11).run()
    catalog = Catalog()
    names = []
    for snapshot in snapshots:
        catalog.create_table(snapshot.to_table())
        names.append(snapshot.table_name)
    return catalog, names


def _with_view(catalog: Catalog, table_name: str) -> None:
    name = view_name_for(table_name)
    if not catalog.has_view(name):
        base = catalog.table(table_name)
        view = MaterializedView(
            name,
            lambda: Project(
                Filter(SeqScan(base), Ne(Col("halo"), Const(-1))),
                ["pid", "halo"],
            ),
        )
        catalog.create_view(view)


class TestAccessPaths:
    def test_top_contributor_base_scan(self, benchmark, loaded_catalog):
        catalog, names = loaded_catalog
        engine = QueryEngine(catalog)
        top, meter = benchmark(engine.top_contributor, names[1], 0, names[0])
        assert top is not None

    def test_top_contributor_with_view(self, benchmark, loaded_catalog):
        catalog, names = loaded_catalog
        for name in names:
            _with_view(catalog, name)
        engine = QueryEngine(catalog)
        try:
            top, meter = benchmark(engine.top_contributor, names[1], 0, names[0])
        finally:
            for name in names:
                catalog.drop_view(view_name_for(name))
        assert top is not None

    def test_top_contributor_with_indexes(self, benchmark, loaded_catalog):
        catalog, names = loaded_catalog
        catalog.create_hash_index(names[1], "halo")
        catalog.create_hash_index(names[0], "pid")
        engine = QueryEngine(catalog)
        top, meter = benchmark(engine.top_contributor, names[1], 0, names[0])
        assert top is not None

    def test_metered_costs_rank_the_paths(self, benchmark, loaded_catalog, emit):
        """Cost-unit ordering: index < view < base, and results agree."""
        shared, names = loaded_catalog
        # Fresh catalog over the same tables: earlier benchmarks leave
        # auxiliary structures behind in the shared one.
        catalog = Catalog()
        for name in names:
            catalog.create_table(shared.table(name))
        model = CostModel()
        engine = QueryEngine(catalog)

        def measure():
            base = engine.top_contributor(names[1], 0, names[0])
            for name in names:
                _with_view(catalog, name)
            view = engine.top_contributor(names[1], 0, names[0])
            for name in names:
                catalog.drop_view(view_name_for(name))
            catalog.create_hash_index(names[1], "halo")
            catalog.create_hash_index(names[0], "pid")
            index = engine.top_contributor(names[1], 0, names[0])
            return base, view, index

        (base_top, base_meter), (view_top, view_meter), (index_top, index_meter) = (
            benchmark.pedantic(measure, rounds=1, iterations=1)
        )

        base_units = model.units(base_meter)
        view_units = model.units(view_meter)
        index_units = model.units(index_meter)
        table = (
            "== engine access paths: one merger-tree step, 4000 particles ==\n"
            f"{'path':<8} {'cost units':>12} {'progenitor':>11}\n"
            f"{'base':<8} {base_units:>12.0f} {str(base_top):>11}\n"
            f"{'view':<8} {view_units:>12.0f} {str(view_top):>11}\n"
            f"{'index':<8} {index_units:>12.0f} {str(index_top):>11}"
        )
        emit("engine_access_paths", table)
        assert base_top == view_top == index_top
        assert view_units < base_units
        assert index_units < view_units


@pytest.fixture(scope="module")
def large_catalog():
    """Two 40k-particle snapshots — the columnar path's home turf."""
    config = UniverseConfig(
        particles=40_000, halos=30, snapshots=2, min_halo_members=10
    )
    snapshots = UniverseSimulator(config, rng=11).run()
    catalog = Catalog()
    names = []
    for snapshot in snapshots:
        catalog.create_table(snapshot.to_table())
        names.append(snapshot.table_name)
    return catalog, names


class TestColumnarAccessPaths:
    """The same access paths at 40k particles.

    ``benchmarks/bench_columnar.py`` asserts the >= 10x floor against the
    row iterators; these keep per-path wall-clock numbers visible at
    scale (timing the iterators at 40k per round would dominate the
    benchmark session).
    """

    def test_top_contributor_base_scan_vector(self, benchmark, large_catalog):
        catalog, names = large_catalog
        engine = QueryEngine(catalog)
        top, meter = benchmark(engine.top_contributor, names[1], 0, names[0])
        assert top is not None

    def test_top_contributor_with_view_vector(self, benchmark, large_catalog):
        catalog, names = large_catalog
        for name in names:
            _with_view(catalog, name)
        engine = QueryEngine(catalog)
        try:
            top, meter = benchmark(engine.top_contributor, names[1], 0, names[0])
        finally:
            for name in names:
                catalog.drop_view(view_name_for(name))
        assert top is not None

    def test_top_contributor_with_indexes_vector(self, benchmark, large_catalog):
        catalog, names = large_catalog
        catalog.create_hash_index(names[1], "halo")
        catalog.create_hash_index(names[0], "pid")
        engine = QueryEngine(catalog)
        top, meter = benchmark(engine.top_contributor, names[1], 0, names[0])
        assert top is not None

    def test_vector_meters_match_iterator(self, large_catalog):
        """The rewrite is invisible to the cost model, also at scale."""
        catalog, names = large_catalog
        engine = QueryEngine(catalog)
        with mock.patch("repro.db.engine.to_vector", lambda plan: None):
            top_i, meter_i = engine.top_contributor(names[1], 0, names[0])
        top_v, meter_v = engine.top_contributor(names[1], 0, names[0])
        assert top_i == top_v
        assert meter_i == meter_v


class TestHaloFinderScaling:
    @pytest.mark.parametrize("particles", [1000, 4000, 16000, 40000])
    def test_fof_scaling(self, benchmark, particles):
        rng = np.random.default_rng(5)
        centers = rng.uniform(0, 300, size=(30, 3))
        assignment = rng.integers(0, 30, size=particles)
        positions = centers[assignment] + rng.normal(0, 1.5, size=(particles, 3))
        labels = benchmark(
            friends_of_friends, positions, 2.4, 10
        )
        assert labels.max() >= 0
