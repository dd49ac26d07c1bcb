"""The columnar path is invisible: identical rows, identical meters.

Property tests pitting every vector operator and the vector engine against
the iterator originals on randomized inputs. Equality is exact — same
tuples in the same order, same Python value types, and bit-identical
CostMeter totals (including the named counters) — because the metered
work is the paper's cost model and the physical rewrite must not move it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.astro.halos import friends_of_friends, friends_of_friends_reference
from repro.db import (
    And,
    Catalog,
    Col,
    ColumnBatch,
    Const,
    CostMeter,
    Eq,
    Filter,
    Ge,
    GroupCount,
    HashIndex,
    HashJoin,
    In,
    IndexLookup,
    Lt,
    MaterializedView,
    Ne,
    Not,
    Or,
    Project,
    QueryEngine,
    Schema,
    SeqScan,
    Sort,
    Table,
    to_vector,
)
from repro.db import engine as engine_module
from repro.db.planner import histogram_plan, members_plan, view_name_for
from repro.errors import SchemaError

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),   # pid-ish key
        st.integers(min_value=-1, max_value=5),   # halo-ish group
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    max_size=40,
)


def make_table(rows, name="t") -> Table:
    table = Table(name, Schema.of(k="int", g="int", v="float"))
    table.extend(rows)
    return table


def assert_equivalent(plan) -> list:
    """Materialize ``plan`` both ways; assert rows, types, meters match."""
    vector_plan = to_vector(plan)
    assert vector_plan is not None, f"{type(plan).__name__} must translate"
    iterator_meter, vector_meter = CostMeter(), CostMeter()
    iterator_rows = plan.materialize(iterator_meter)
    vector_rows = vector_plan.materialize(vector_meter)
    assert iterator_rows == vector_rows
    assert iterator_meter == vector_meter
    for iterator_row, vector_row in zip(iterator_rows, vector_rows):
        for a, b in zip(iterator_row, vector_row):
            assert type(a) is type(b), (a, b)
    return iterator_rows


class TestOperatorEquivalence:
    @given(rows=rows_strategy)
    @settings(max_examples=100)
    def test_scan(self, rows):
        assert_equivalent(SeqScan(make_table(rows)))

    @given(rows=rows_strategy, a=st.integers(-1, 5), b=st.integers(0, 30))
    @settings(max_examples=100)
    def test_filter_predicates(self, rows, a, b):
        table = make_table(rows)
        predicates = [
            Eq(Col("g"), Const(a)),
            Ne(Col("g"), Const(a)),
            Lt(Col("k"), Const(b)),
            Ge(Col("k"), Const(b)),
            And(Ne(Col("g"), Const(-1)), Lt(Col("k"), Const(b))),
            Or(Eq(Col("g"), Const(a)), Eq(Col("k"), Const(b))),
            Not(Eq(Col("g"), Const(a))),
            In(Col("k"), {b, b + 1, 29}),
            In(Col("k"), frozenset()),
        ]
        for predicate in predicates:
            assert_equivalent(Filter(SeqScan(table), predicate))

    @given(rows=rows_strategy)
    @settings(max_examples=100)
    def test_project_and_group(self, rows):
        table = make_table(rows)
        assert_equivalent(Project(SeqScan(table), ["v", "k"]))
        assert_equivalent(GroupCount(SeqScan(table), "g"))
        assert_equivalent(
            GroupCount(
                Project(Filter(SeqScan(table), Ne(Col("g"), Const(-1))), ["k", "g"]),
                "g",
            )
        )

    @given(rows=rows_strategy, keys=st.lists(st.integers(0, 30), max_size=10))
    @settings(max_examples=100)
    def test_index_lookup(self, rows, keys):
        table = make_table(rows)
        index = HashIndex(table, "k")
        assert_equivalent(IndexLookup(index, keys))

    @given(
        rows=rows_strategy,
        teams=st.lists(
            st.tuples(st.integers(-1, 5), st.sampled_from("abcdef")),
            max_size=10,
            unique_by=lambda t: t[0],
        ),
    )
    @settings(max_examples=100)
    def test_hash_join(self, rows, teams):
        left = make_table(rows, "left")
        right = Table("right", Schema.of(tid="int", tname="str"))
        right.extend(teams)
        assert_equivalent(HashJoin(SeqScan(left), SeqScan(right), "g", "tid"))

    @given(rows=rows_strategy, teams=st.lists(st.integers(-1, 5), max_size=12))
    @settings(max_examples=60)
    def test_hash_join_duplicate_right_keys(self, rows, teams):
        left = make_table(rows, "left")
        right = Table("right", Schema.of(tid="int", rank="float"))
        right.extend((t, float(i)) for i, t in enumerate(teams))
        assert_equivalent(HashJoin(SeqScan(left), SeqScan(right), "g", "tid"))

    @given(rows=rows_strategy)
    @settings(max_examples=50)
    def test_untranslatable_falls_back(self, rows):
        table = make_table(rows)
        assert to_vector(Sort(SeqScan(table), "v")) is None


def snapshot_catalog(rng, n, path):
    """A randomized two-snapshot catalog with one access path installed."""
    catalog = Catalog()
    names = []
    for index in (1, 2):
        name = f"snap_0{index}"
        pids = rng.permutation(n)
        halos = rng.integers(-1, max(2, n // 6), size=n)
        table = Table.from_columns(
            name,
            Schema.of(
                pid="int", x="float", y="float", z="float", vx="float",
                vy="float", vz="float", mass="float", halo="int",
            ),
            {
                "pid": pids,
                "x": rng.normal(size=n), "y": rng.normal(size=n),
                "z": rng.normal(size=n), "vx": rng.normal(size=n),
                "vy": rng.normal(size=n), "vz": rng.normal(size=n),
                "mass": rng.uniform(0.5, 2.0, size=n),
                "halo": halos,
            },
        )
        catalog.create_table(table)
        names.append(name)
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
        for name in names:
            catalog.create_hash_index(name, "halo")
            catalog.create_hash_index(name, "pid")
    return catalog, names


class TestEngineEquivalence:
    @pytest.mark.parametrize("path", ["base", "view", "index"])
    @pytest.mark.parametrize("seed", [0, 7, 2012])
    def test_planner_plans_all_translate(self, path, seed):
        rng = np.random.default_rng(seed)
        catalog, names = snapshot_catalog(rng, n=int(rng.integers(30, 400)), path=path)
        sources = set()
        for name in names:
            for halo in range(-1, 5):
                choice = members_plan(catalog, name, halo)
                assert to_vector(choice.plan) is not None
                sources.add(choice.source)
            for keys in (frozenset(), frozenset(range(3)), frozenset(range(60))):
                choice = histogram_plan(catalog, name, keys)
                assert to_vector(choice.plan) is not None
                sources.add(choice.source)
        assert path in sources

    @pytest.mark.parametrize("path", ["base", "view", "index"])
    @pytest.mark.parametrize("seed", [0, 7, 2012])
    def test_merger_tree_queries(self, monkeypatch, path, seed):
        rng = np.random.default_rng(seed)
        catalog, names = snapshot_catalog(rng, n=int(rng.integers(30, 400)), path=path)
        engine = QueryEngine(catalog)

        def workload():
            members = [engine.halo_members(names[1], halo) for halo in range(5)]
            tops = [
                engine.top_contributor(names[1], halo, names[0])
                for halo in range(5)
            ]
            histogram = engine.progenitor_histogram(names[0], frozenset(range(40)))
            chain = engine.halo_chain([names[1], names[0]], 0)
            return members, tops, histogram, chain

        members_v, tops_v, histogram_v, chain_v = workload()
        with monkeypatch.context() as patch:
            # The iterator reference: no plan gets a vector translation.
            patch.setattr(engine_module, "to_vector", lambda plan: None)
            members_i, tops_i, histogram_i, chain_i = workload()
        for result_i, result_v in zip(
            members_i + [histogram_i], members_v + [histogram_v], strict=True
        ):
            assert result_i.rows == result_v.rows
            assert result_i.meter == result_v.meter
            assert result_i.source == result_v.source
        assert tops_i == tops_v  # (halo, meter) pairs
        assert chain_i == chain_v

    def test_untranslatable_plan_runs_the_iterator(self):
        table = make_table([(1, 0, 2.0), (2, 1, 1.0), (3, 0, 3.0)])
        catalog = Catalog()
        catalog.create_table(table)
        plan = Sort(SeqScan(table), "v")
        expected_meter, meter = CostMeter(), CostMeter()
        expected = plan.materialize(expected_meter)
        assert QueryEngine(catalog).execute_plan(plan, meter) == expected
        assert meter == expected_meter


class TestColumnarTable:
    @given(rows=rows_strategy)
    @settings(max_examples=100)
    def test_from_columns_equals_row_inserts(self, rows):
        by_rows = make_table(rows)
        by_columns = Table.from_columns(
            "t",
            by_rows.schema,
            {
                "k": np.asarray([r[0] for r in rows], dtype=np.int64),
                "g": np.asarray([r[1] for r in rows], dtype=np.int64),
                "v": np.asarray([r[2] for r in rows], dtype=np.float64),
            },
        )
        assert list(by_rows.rows()) == list(by_columns.rows())
        assert by_rows.byte_size == by_columns.byte_size

    def test_from_columns_validates(self):
        schema = Schema.of(k="int", v="float")
        with pytest.raises(SchemaError):
            Table.from_columns("t", schema, {"k": [1.5], "v": [1.0]})
        with pytest.raises(SchemaError):
            Table.from_columns("t", schema, {"k": [1]})
        with pytest.raises(SchemaError):
            Table.from_columns("t", schema, {"k": [1, 2], "v": [1.0]})
        with pytest.raises(SchemaError):
            Table.from_columns(
                "t", Schema.of(s="str"), {"s": np.asarray([1, 2])}
            )

    @given(rows=rows_strategy)
    @settings(max_examples=60)
    def test_column_cache_invalidated_by_insert(self, rows):
        table = make_table(rows)
        before = table.column_array("k").tolist()
        table.insert((99, 0, 1.0))
        after = table.column_array("k").tolist()
        assert after == before + [99]

    def test_batch_rows_are_python_types(self):
        table = Table.from_columns(
            "t",
            Schema.of(k="int", v="float", s="str"),
            {"k": np.arange(3), "v": np.linspace(0, 1, 3), "s": ["a", "b", "c"]},
        )
        for row in table.as_batch().to_rows():
            assert type(row[0]) is int
            assert type(row[1]) is float
            assert type(row[2]) is str

    def test_batch_length_mismatch_rejected(self):
        schema = Schema.of(k="int", v="float")
        with pytest.raises(SchemaError):
            ColumnBatch(schema, [np.arange(3), np.arange(2.0)])


class TestFriendsOfFriendsEquivalence:
    positions_strategy = st.lists(
        st.tuples(
            st.floats(0.0, 50.0, allow_nan=False),
            st.floats(0.0, 50.0, allow_nan=False),
            st.floats(0.0, 50.0, allow_nan=False),
        ),
        max_size=60,
    )

    @staticmethod
    def partition(labels):
        groups: dict = {}
        for index, label in enumerate(labels.tolist()):
            groups.setdefault(label, set()).add(index)
        unclustered = frozenset(groups.pop(-1, set()))
        return set(map(frozenset, groups.values())), unclustered

    @given(
        points=positions_strategy,
        link=st.floats(0.5, 5.0, allow_nan=False),
        min_members=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_partition_as_reference(self, points, link, min_members):
        positions = np.asarray(points, dtype=float).reshape(-1, 3)
        vectorized = friends_of_friends(positions, link, min_members)
        reference = friends_of_friends_reference(positions, link, min_members)
        assert self.partition(vectorized) == self.partition(reference)

    @given(points=positions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_labels_ordered_by_descending_size(self, points):
        positions = np.asarray(points, dtype=float).reshape(-1, 3)
        labels = friends_of_friends(positions, 2.0, min_members=2)
        clustered = labels[labels >= 0]
        if clustered.size:
            sizes = np.bincount(clustered)
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
