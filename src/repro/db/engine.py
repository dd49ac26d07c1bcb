"""Query engine facade: execute plans, track cost, answer workload queries."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.catalog import Catalog  # noqa: F401 - re-exported surface
from repro.db.costmodel import CostMeter, CostModel
from repro.db.snapshot import CatalogSnapshot  # noqa: F401 - annotation
from repro.db.operators import Operator
from repro.db.planner import histogram_plan, members_plan
from repro.db.vec_operators import to_vector
from repro.errors import QueryError

__all__ = ["QueryResult", "QueryEngine"]


@dataclass(frozen=True)
class QueryResult:
    """Rows plus the metered cost of producing them.

    ``epoch`` is the catalog epoch the query's snapshot was pinned at —
    every row in ``rows`` reflects exactly that catalog state.
    """

    rows: list
    meter: CostMeter
    source: str
    epoch: int = 0

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            columns = len(self.rows[0]) if self.rows else 0
            raise QueryError(
                f"expected one scalar, got {len(self.rows)} row(s) x "
                f"{columns} column(s)"
            )
        return self.rows[0][0]


class QueryEngine:
    """Runs the astronomy workload's queries against a catalog.

    All methods return metered results; ``minutes_of`` converts a meter to
    simulated wall-clock time through the engine's cost model.

    Every plan runs through the columnar vector operators when it has a
    vector translation (every plan the planner builds does) and through
    the row-at-a-time iterator operators otherwise. Both paths return
    identical rows and charge identical meters, so the path never shows
    in a result.

    ``log`` optionally attaches a workload recorder (duck-typed to
    :class:`repro.advisor.WorkloadLog`): every query records its
    *normalized template* — shape, table, touched columns, probed key —
    through ``log.record_query(...)``, never its constants. The advisor
    mines those templates into candidate optimizations.

    Every query pins one :meth:`Catalog.snapshot
    <repro.db.catalog.Catalog.snapshot>` before planning and executes
    entirely against it, so concurrent catalog mutation cannot change a
    query mid-flight; multi-step queries (:meth:`top_contributor`,
    :meth:`halo_chain`, :meth:`contributors_to`) pin one snapshot for all
    their steps. The pinned epoch is recorded on the result and in the
    workload log. The single-step methods accept ``at`` — an existing
    :class:`~repro.db.snapshot.CatalogSnapshot` — to run at an earlier
    pinned state instead. Each method resolves every table it names in
    its snapshot before it records anything, so a query that fails on a
    missing table leaves the workload log untouched.
    """

    def __init__(
        self,
        catalog: "Catalog | CatalogSnapshot",
        cost_model: CostModel | None = None,
        log=None,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.log = log

    def minutes_of(self, meter: CostMeter) -> float:
        """Simulated minutes of the metered work."""
        return self.cost_model.minutes(meter)

    def recalibrate(self, target_seconds: float, meter: CostMeter) -> None:
        """Rescale the cost model so ``meter``'s work takes ``target_seconds``."""
        self.cost_model = self.cost_model.calibrated(target_seconds, meter)

    def execute_plan(self, plan: Operator, meter: CostMeter) -> list[tuple]:
        """Materialize one plan, vectorized whenever it translates."""
        vector_plan = to_vector(plan)
        if vector_plan is not None:
            return vector_plan.materialize(meter)
        return plan.materialize(meter)

    # ------------------------------------------------------------ queries --

    def pin(self):
        """Pin the current catalog state for use as an ``at`` argument."""
        return self.catalog.snapshot()

    def _pinned(self, at, *table_names: str):
        """The query's snapshot, once every table it names resolves there."""
        snap = at if at is not None else self.catalog.snapshot()
        for name in table_names:
            snap.table(name)
        return snap

    def halo_members(self, table_name: str, halo_id: int, at=None) -> QueryResult:
        """Particle ids of one halo in one snapshot."""
        snap = self._pinned(at, table_name)
        if self.log is not None:
            self.log.record_query(
                kind="members",
                table_name=table_name,
                columns=("pid", "halo"),
                key_column="halo",
                excluded=(("halo", -1),),
                epoch=snap.epoch,
            )
        meter = CostMeter()
        choice = members_plan(snap, table_name, halo_id)
        rows = self.execute_plan(choice.plan, meter)
        return QueryResult(
            rows=rows, meter=meter, source=choice.source, epoch=snap.epoch
        )

    def progenitor_histogram(
        self, table_name: str, member_pids, at=None
    ) -> QueryResult:
        """(halo, count) pairs for ``member_pids`` within one snapshot."""
        snap = self._pinned(at, table_name)
        keys = frozenset(member_pids)
        if self.log is not None:
            # Logged probes match what the plan will actually issue: one
            # per distinct key, regardless of input duplicates.
            self.log.record_query(
                kind="histogram",
                table_name=table_name,
                columns=("pid", "halo"),
                key_column="pid",
                excluded=(("halo", -1),),
                probes=float(len(keys)),
                epoch=snap.epoch,
            )
        meter = CostMeter()
        choice = histogram_plan(snap, table_name, keys)
        rows = self.execute_plan(choice.plan, meter)
        return QueryResult(
            rows=rows, meter=meter, source=choice.source, epoch=snap.epoch
        )

    def top_contributor(
        self,
        from_table: str,
        halo_id: int,
        to_table: str,
        exclude_unclustered: bool = True,
        at=None,
    ) -> tuple[int | None, CostMeter]:
        """The halo in ``to_table`` contributing most particles to
        ``halo_id`` of ``from_table`` — the merger-tree step query.

        Returns ``(halo, meter)``; halo is None when no member particle is
        clustered in the target snapshot. Ties break toward the smaller
        halo id for determinism. Unclustered particles (halo == -1) are
        skipped unless ``exclude_unclustered`` is False.
        """
        snap = self._pinned(at, from_table, to_table)
        total = CostMeter()
        members = self.halo_members(from_table, halo_id, at=snap)
        total.merge(members.meter)
        pids = frozenset(row[0] for row in members.rows)
        if not pids:
            return None, total

        histogram = self.progenitor_histogram(to_table, pids, at=snap)
        total.merge(histogram.meter)
        best: tuple[int, int] | None = None
        for halo, count in histogram.rows:
            if exclude_unclustered and halo == -1:
                continue
            if best is None or count > best[1] or (count == best[1] and halo < best[0]):
                best = (halo, count)
        return (best[0] if best is not None else None), total

    def halo_chain(
        self, tables_newest_first: list[str], halo_id: int, at=None
    ) -> tuple[list, CostMeter]:
        """Recursive progenitor chain (paper Section 7.2 part (b)).

        ``tables_newest_first[0]`` holds ``halo_id``; the query walks back
        through the remaining snapshots, at each step following the halo
        contributing the most particles to the current one. Returns the
        chain (newest first, None entries once the lineage dies) and the
        combined meter.
        """
        if not tables_newest_first:
            raise QueryError("need at least one snapshot table")
        snap = self._pinned(at, *tables_newest_first)
        total = CostMeter()
        chain: list = [halo_id]
        current = halo_id
        for newer, older in zip(tables_newest_first, tables_newest_first[1:]):
            if current is None:
                chain.append(None)
                continue
            progenitor, meter = self.top_contributor(newer, current, older, at=snap)
            total.merge(meter)
            chain.append(progenitor)
            current = progenitor
        return chain, total

    def contributors_to(
        self, final_table: str, halo_id: int, earlier_tables: list[str], at=None
    ) -> tuple[dict, CostMeter]:
        """Part (a) of the workload: for each earlier snapshot, the halo
        contributing the most particles to ``halo_id`` of ``final_table``.

        Unlike :meth:`halo_chain` this always compares against the *final*
        snapshot's membership, re-reading it for every earlier snapshot —
        which is why the final snapshot's view is so much more valuable
        than the others (the paper's 44-minute vs 2.5-minute savings).
        """
        snap = self._pinned(at, final_table, *earlier_tables)
        total = CostMeter()
        result: dict = {}
        for older in earlier_tables:
            top, meter = self.top_contributor(final_table, halo_id, older, at=snap)
            total.merge(meter)
            result[older] = top
        return result, total
