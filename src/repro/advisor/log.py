"""Workload mining: normalized query templates with pass counts.

A :class:`WorkloadLog` is the advisor's input. The query engine reports
every execution's *template* — query shape, table, touched columns,
probed key column, rows the query never needs — through
:meth:`WorkloadLog.record_query`; constants (halo ids, probe sets) are
never recorded, so identical query shapes aggregate into one template
regardless of their parameters. Counts are kept per ``(tenant,
template)`` because tenants' pass counts become their bids in the
pricing games downstream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import GameConfigError

__all__ = ["QueryTemplate", "TemplateUsage", "WorkloadLog"]

#: Tenant tag used when queries are recorded outside a ``tenant`` block.
DEFAULT_TENANT = "tenant-0"


@dataclass(frozen=True)
class QueryTemplate:
    """One normalized query shape.

    ``columns`` are the columns the query touches (what a covering view
    must project); ``key_column`` the column it probes by equality (or by
    range, for ``kind="range"`` templates); ``excluded`` lists ``(column,
    value)`` pairs whose rows the query never needs — the filter a
    materialized view may absorb (the astronomy queries exclude
    ``("halo", -1)``, the unclustered particles).
    """

    kind: str
    table_name: str
    columns: tuple
    key_column: str | None = None
    excluded: tuple = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise GameConfigError(
                f"template over {self.table_name!r} touches no columns"
            )
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(
            self, "excluded", tuple((c, v) for c, v in self.excluded)
        )


@dataclass
class TemplateUsage:
    """Aggregated counts of one (tenant, template) pair.

    ``passes`` counts full executions of the template; ``probes`` the
    total key probes those passes issued (a semi-join probing ``k`` keys
    adds ``k`` per pass). ``last_epoch`` is the catalog epoch of the most
    recent recorded execution (None until a recording supplies one), so
    mined templates — and the savings quotes priced from them — are
    attributable to the catalog state they were observed under.
    """

    passes: float = 0.0
    probes: float = 0.0
    last_epoch: int | None = None


class WorkloadLog:
    """Accumulates per-tenant template usage from engine executions.

    Attach to a :class:`~repro.db.engine.QueryEngine` via its ``log``
    parameter; wrap each tenant's workload in :meth:`tenant` so the
    counts are attributed::

        log = WorkloadLog()
        engine = QueryEngine(catalog, log=log)
        with log.tenant("astro-1"):
            engine.halo_members("snap_02", 4)
    """

    def __init__(self) -> None:
        self._usage: dict[tuple, TemplateUsage] = {}
        self._tenant = DEFAULT_TENANT

    @contextmanager
    def tenant(self, tag):
        """Attribute queries recorded inside the block to ``tag``."""
        previous = self._tenant
        self._tenant = tag
        try:
            yield self
        finally:
            self._tenant = previous

    def record_query(
        self,
        *,
        kind: str,
        table_name: str,
        columns,
        key_column: str | None = None,
        excluded=(),
        probes: float = 1.0,
        passes: float = 1.0,
        epoch: int | None = None,
    ) -> QueryTemplate:
        """Record one executed query under the current tenant.

        This is the engine-facing entry point (see
        :meth:`repro.db.engine.QueryEngine.halo_members`); it normalizes
        the arguments into a :class:`QueryTemplate` and delegates to
        :meth:`record`.
        """
        template = QueryTemplate(
            kind=kind,
            table_name=table_name,
            columns=tuple(columns),
            key_column=key_column,
            excluded=tuple(excluded),
        )
        self.record(template, probes=probes, passes=passes, epoch=epoch)
        return template

    def record(
        self,
        template: QueryTemplate,
        probes: float = 1.0,
        passes: float = 1.0,
        epoch: int | None = None,
    ) -> None:
        """Aggregate ``passes`` executions of ``template`` (with their
        total ``probes``) under the current tenant. ``epoch``, when given,
        stamps the usage's ``last_epoch``."""
        if passes <= 0:
            raise GameConfigError(f"passes must be > 0, got {passes}")
        if probes < 0:
            raise GameConfigError(f"probes must be >= 0, got {probes}")
        key = (self._tenant, template)
        usage = self._usage.get(key)
        if usage is None:
            usage = self._usage[key] = TemplateUsage()
        usage.passes += passes
        usage.probes += probes
        if epoch is not None:
            usage.last_epoch = epoch

    # ------------------------------------------------------------ queries --

    def __len__(self) -> int:
        return len(self._usage)

    @property
    def tenants(self) -> list:
        """Distinct tenant tags, in first-recorded order."""
        seen: dict = {}
        for tenant, _ in self._usage:
            seen.setdefault(tenant, None)
        return list(seen)

    @property
    def tables(self) -> list[str]:
        """Distinct table names, in first-recorded order."""
        seen: dict = {}
        for _, template in self._usage:
            seen.setdefault(template.table_name, None)
        return list(seen)

    def entries(self) -> Iterator[tuple]:
        """Iterate ``(tenant, template, usage)`` in recorded order."""
        for (tenant, template), usage in self._usage.items():
            yield tenant, template, usage

    def templates_of(self, table_name: str) -> list[QueryTemplate]:
        """Distinct templates over one table, in first-recorded order."""
        seen: dict = {}
        for _, template in self._usage:
            if template.table_name == table_name:
                seen.setdefault(template, None)
        return list(seen)

    def usage_of(self, tenant, template: QueryTemplate) -> TemplateUsage:
        """Counts of one (tenant, template) pair (zeros when never seen)."""
        return self._usage.get((tenant, template), TemplateUsage())
