"""A small relational engine: the substrate under the astronomy use-case.

The paper's motivating optimizations are materialized views over universe
simulation snapshots (Section 2). To derive optimization *values* (query
speedups) and *costs* (view storage) from first principles rather than
hard-coding the paper's numbers, this package implements just enough of a
database: tables with typed schemas, iterator-style physical operators
with cost accounting, hash and sorted indexes, materialized views, a
cost model mapping logical work to simulated wall-clock time, and a small
rule-based planner with a what-if API for pricing hypothetical views.

Everything is deliberately laptop-scale and deterministic; the engine's
purpose is faithful *relative* costs (wide scan vs narrow view scan vs
index probe), which is what the pricing mechanisms consume.
"""

from repro.db.schema import Column, Schema
from repro.db.table import Table, TableSnapshot
from repro.db.expr import And, Col, Const, Eq, Ge, Gt, In, Le, Lt, Ne, Not, Or
from repro.db.index import HashIndex, SortedIndex
from repro.db.operators import (
    Filter,
    GroupCount,
    HashJoin,
    IndexLookup,
    Project,
    SeqScan,
)
from repro.db.extra_operators import Distinct, GroupAggregate, Limit, Sort, top_k
from repro.db.columnar import ColumnBatch
from repro.db.vec_operators import (
    VecFilter,
    VecGroupCount,
    VecHashJoin,
    VecIndexLookup,
    VecOperator,
    VecProject,
    VecScan,
    to_vector,
)
from repro.db.view import MaterializedView
from repro.db.catalog import Catalog
from repro.db.snapshot import CatalogSnapshot, ViewSnapshot
from repro.db.costmodel import CostMeter, CostModel
from repro.db.engine import QueryEngine, QueryResult
from repro.db.savings import (
    Candidate,
    CandidateIndex,
    CandidateView,
    SavingsEstimator,
    SavingsQuote,
)
from repro.db.stats import ColumnStats, TableStats, analyze

__all__ = [
    "Column",
    "Schema",
    "Table",
    "TableSnapshot",
    "Col",
    "Const",
    "Eq",
    "Ne",
    "Lt",
    "Le",
    "Gt",
    "Ge",
    "In",
    "And",
    "Or",
    "Not",
    "HashIndex",
    "SortedIndex",
    "SeqScan",
    "IndexLookup",
    "Filter",
    "Project",
    "HashJoin",
    "GroupCount",
    "Sort",
    "Limit",
    "Distinct",
    "GroupAggregate",
    "top_k",
    "ColumnBatch",
    "VecOperator",
    "VecScan",
    "VecFilter",
    "VecProject",
    "VecIndexLookup",
    "VecHashJoin",
    "VecGroupCount",
    "to_vector",
    "QueryResult",
    "MaterializedView",
    "ColumnStats",
    "TableStats",
    "analyze",
    "Catalog",
    "CatalogSnapshot",
    "ViewSnapshot",
    "CostMeter",
    "CostModel",
    "QueryEngine",
    "Candidate",
    "CandidateIndex",
    "CandidateView",
    "SavingsEstimator",
    "SavingsQuote",
]
