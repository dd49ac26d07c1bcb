"""Wire codec for the public value objects.

Every value object the gateway can hand a tenant — :class:`ShapleyResult`,
the four mechanism outcomes, :class:`FleetReport`, :class:`SavingsQuote`,
:class:`QueryResult` — round-trips through plain JSON-able dictionaries:
``from_dict(to_dict(x)) == x`` holds exactly, including after a real
``json.dumps``/``json.loads`` hop (property-tested in
``tests/test_gateway.py``). The encoding is versioned with the envelope
protocol (:data:`repro.gateway.envelopes.API_VERSION`); every encoded
object carries a ``"type"`` tag naming its class.

Python values that JSON cannot represent natively travel tagged:

========== =====================================
tuple      ``{"tuple": [items...]}``
frozenset  ``{"frozenset": [items...]}`` (sorted for stable output)
mapping    ``{"map": [[key, value], ...]}`` (insertion order kept)
========== =====================================

Scalars (str/int/float/bool/None) pass through untouched. Anything else
is rejected with :class:`~repro.errors.ProtocolError` — the wire format
is intentionally closed over what the public API actually returns.
"""

from __future__ import annotations

import base64
from array import array
from typing import Callable, Mapping

import numpy as np

from repro.advisor.log import QueryTemplate, TemplateUsage, WorkloadLog
from repro.bids.additive import AdditiveBid
from repro.bids.revision import RevisableBid
from repro.cloudsim import events as _ev
from repro.cloudsim.catalog import OptimizationCatalog, OptimizationSpec
from repro.cloudsim.ledger import BillingLedger
from repro.core.online import AddOnState
from repro.core.outcome import (
    AddOffOutcome,
    AddOnOutcome,
    ShapleyResult,
    SubstOffOutcome,
    SubstOnOutcome,
)
from repro.db.catalog import Catalog
from repro.db.costmodel import CostMeter
from repro.db.engine import QueryResult
from repro.db.index import HashIndex, SortedIndex
from repro.db.savings import SavingsQuote
from repro.db.schema import Column, Schema
from repro.db.stats import ColumnStats, TableStats
from repro.db.table import Table
from repro.db.view import MaterializedView
from repro.errors import ProtocolError, QueryError
from repro.fleet.engine import FleetEngine, FleetReport, _Block

__all__ = ["encode", "decode", "encode_value", "decode_value", "CODECS"]


# ------------------------------------------------------------- primitives --

_SCALARS = (str, int, float, bool, type(None))


def encode_value(value):
    """One Python value -> its JSON-able form (tagged where needed)."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return {"tuple": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        items = sorted(value, key=lambda v: (str(type(v).__name__), str(v)))
        return {"frozenset": [encode_value(v) for v in items]}
    if isinstance(value, (dict, Mapping)):
        return {"map": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    if isinstance(value, list):
        return {"tuple": [encode_value(v) for v in value]}
    raise ProtocolError(
        f"value of type {type(value).__name__} has no wire encoding"
    )


def decode_value(value):
    """Inverse of :func:`encode_value` (lists decode to tuples)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, list):
        return tuple(decode_value(v) for v in value)
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, payload),) = value.items()
            if tag == "tuple" and isinstance(payload, list):
                return tuple(decode_value(v) for v in payload)
            if tag == "frozenset" and isinstance(payload, list):
                return frozenset(decode_value(v) for v in payload)
            if tag == "map" and isinstance(payload, list):
                out = {}
                for pair in payload:
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise ProtocolError(f"malformed map pair {pair!r}")
                    out[decode_value(pair[0])] = decode_value(pair[1])
                return out
        raise ProtocolError(f"unknown tagged value {sorted(value)!r}")
    raise ProtocolError(
        f"value of type {type(value).__name__} has no wire decoding"
    )


def _decoded_map(payload) -> dict:
    mapping = decode_value(payload)
    if not isinstance(mapping, dict):
        raise ProtocolError(f"expected an encoded map, got {type(mapping).__name__}")
    return mapping


def _field(d: dict, name: str):
    try:
        return d[name]
    except KeyError:
        raise ProtocolError(
            f"encoded {d.get('type', 'object')!r} is missing field {name!r}"
        ) from None


# ---------------------------------------------------------- value objects --


def _enc_shapley(r: ShapleyResult) -> dict:
    return {
        "serviced": encode_value(r.serviced),
        "price": r.price,
        "payments": encode_value(dict(r.payments)),
        "rounds": r.rounds,
    }


def _dec_shapley(d: dict) -> ShapleyResult:
    serviced = decode_value(_field(d, "serviced"))
    if not isinstance(serviced, frozenset):
        raise ProtocolError("'serviced' must decode to a frozenset")
    return ShapleyResult(
        serviced=serviced,
        price=float(_field(d, "price")),
        payments=_decoded_map(_field(d, "payments")),
        rounds=int(_field(d, "rounds")),
    )


def _enc_addoff(o: AddOffOutcome) -> dict:
    # Per-game results nest full encoded objects, so they travel as raw
    # [key, encoded-dict] pairs rather than through encode_value (which
    # would re-tag the already-encoded dictionaries as maps).
    return {
        "results": [[encode_value(j), encode(r)] for j, r in o.results.items()],
        "costs": encode_value(dict(o.costs)),
    }


def _dec_addoff(d: dict) -> AddOffOutcome:
    pairs = _field(d, "results")
    if not isinstance(pairs, list):
        raise ProtocolError("'results' must be a list of pairs")
    results = {}
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ProtocolError(f"malformed results pair {pair!r}")
        results[decode_value(pair[0])] = decode(pair[1])
    return AddOffOutcome(
        results=results,
        costs=_decoded_map(_field(d, "costs")),
    )


def _enc_addon(o: AddOnOutcome) -> dict:
    return {
        "cost": o.cost,
        "horizon": o.horizon,
        "serviced_by_slot": encode_value(o.serviced_by_slot),
        "cumulative_by_slot": encode_value(o.cumulative_by_slot),
        "price_by_slot": encode_value(o.price_by_slot),
        "payments": encode_value(dict(o.payments)),
        "implemented_at": o.implemented_at,
    }


def _dec_addon(d: dict) -> AddOnOutcome:
    implemented_at = _field(d, "implemented_at")
    return AddOnOutcome(
        cost=float(_field(d, "cost")),
        horizon=int(_field(d, "horizon")),
        serviced_by_slot=decode_value(_field(d, "serviced_by_slot")),
        cumulative_by_slot=decode_value(_field(d, "cumulative_by_slot")),
        price_by_slot=decode_value(_field(d, "price_by_slot")),
        payments=_decoded_map(_field(d, "payments")),
        implemented_at=None if implemented_at is None else int(implemented_at),
    )


def _enc_substoff(o: SubstOffOutcome) -> dict:
    return {
        "costs": encode_value(dict(o.costs)),
        "implemented": encode_value(o.implemented),
        "grants": encode_value(dict(o.grants)),
        "payments": encode_value(dict(o.payments)),
        "shares": encode_value(dict(o.shares)),
    }


def _dec_substoff(d: dict) -> SubstOffOutcome:
    return SubstOffOutcome(
        costs=_decoded_map(_field(d, "costs")),
        implemented=decode_value(_field(d, "implemented")),
        grants=_decoded_map(_field(d, "grants")),
        payments=_decoded_map(_field(d, "payments")),
        shares=_decoded_map(_field(d, "shares")),
    )


def _enc_subston(o: SubstOnOutcome) -> dict:
    return {
        "costs": encode_value(dict(o.costs)),
        "horizon": o.horizon,
        "grants": encode_value(dict(o.grants)),
        "granted_at": encode_value(dict(o.granted_at)),
        "implemented_at": encode_value(dict(o.implemented_at)),
        "payments": encode_value(dict(o.payments)),
        "shares_by_slot": encode_value(o.shares_by_slot),
    }


def _dec_subston(d: dict) -> SubstOnOutcome:
    return SubstOnOutcome(
        costs=_decoded_map(_field(d, "costs")),
        horizon=int(_field(d, "horizon")),
        grants=_decoded_map(_field(d, "grants")),
        granted_at=_decoded_map(_field(d, "granted_at")),
        implemented_at=_decoded_map(_field(d, "implemented_at")),
        payments=_decoded_map(_field(d, "payments")),
        shares_by_slot=decode_value(_field(d, "shares_by_slot")),
    )


def _enc_quote(q: SavingsQuote) -> dict:
    return {
        "view_rows": q.view_rows,
        "view_bytes": q.view_bytes,
        "build_units": q.build_units,
        "saving_units_per_run": q.saving_units_per_run,
        "kind": q.kind,
        "epoch": q.epoch,
    }


def _dec_quote(d: dict) -> SavingsQuote:
    epoch = d.get("epoch")
    return SavingsQuote(
        view_rows=int(_field(d, "view_rows")),
        view_bytes=float(_field(d, "view_bytes")),
        build_units=float(_field(d, "build_units")),
        saving_units_per_run=float(_field(d, "saving_units_per_run")),
        kind=str(_field(d, "kind")),
        epoch=None if epoch is None else int(epoch),
    )


def _enc_meter(m: CostMeter) -> dict:
    return {
        "scan_bytes": m.scan_bytes,
        "probe_count": m.probe_count,
        "rows_emitted": m.rows_emitted,
        "build_bytes": m.build_bytes,
        "counters": encode_value(dict(m.counters)),
    }


def _dec_meter(d: dict) -> CostMeter:
    return CostMeter(
        scan_bytes=float(_field(d, "scan_bytes")),
        probe_count=int(_field(d, "probe_count")),
        rows_emitted=int(_field(d, "rows_emitted")),
        build_bytes=float(_field(d, "build_bytes")),
        counters=_decoded_map(_field(d, "counters")),
    )


def _enc_query_result(r: QueryResult) -> dict:
    return {
        "rows": [encode_value(row) for row in r.rows],
        "meter": encode(r.meter),
        "source": r.source,
        "epoch": r.epoch,
    }


def _dec_query_result(d: dict) -> QueryResult:
    rows = _field(d, "rows")
    if not isinstance(rows, list):
        raise ProtocolError("'rows' must be a list")
    return QueryResult(
        rows=[decode_value(row) for row in rows],
        meter=decode(_field(d, "meter")),
        source=str(_field(d, "source")),
        epoch=int(d.get("epoch", 0)),
    )


def _enc_ledger(ledger: BillingLedger) -> dict:
    return {
        "entries": [
            {
                "slot": slot,
                "kind": kind,
                "party": encode_value(party),
                "amount": amount,
                "memo": memo,
            }
            for slot, kind, party, amount, memo in ledger.rows()
        ]
    }


def _dec_ledger(d: dict) -> BillingLedger:
    ledger = BillingLedger()
    entries = _field(d, "entries")
    if not isinstance(entries, list):
        raise ProtocolError("'entries' must be a list")
    for raw in entries:
        if not isinstance(raw, dict):
            raise ProtocolError(f"malformed ledger entry {raw!r}")
        kind = _field(raw, "kind")
        slot = int(_field(raw, "slot"))
        party = decode_value(_field(raw, "party"))
        amount = float(_field(raw, "amount"))
        memo = str(_field(raw, "memo"))
        if kind == "invoice":
            ledger.invoice(slot, party, amount, memo)
        elif kind == "build":
            ledger.build_outlay(slot, party, -amount, memo)
        else:
            raise ProtocolError(f"unknown ledger entry kind {kind!r}")
    return ledger


#: Wire name -> (row code, field names, ``slot`` first) per event kind.
_EVENT_KINDS = {
    cls.__name__: (code, tuple(cls.__dataclass_fields__))
    for code, cls in enumerate(_ev.KINDS)
}


def _enc_events(log: _ev.EventLog) -> dict:
    encoded = []
    for cls, *values in log.rows():
        row = {"event": cls.__name__}
        for field, value in zip(_EVENT_KINDS[cls.__name__][1], values):
            row[field] = encode_value(value)
        encoded.append(row)
    return {"events": encoded}


def _dec_events(d: dict) -> _ev.EventLog:
    log = _ev.EventLog()
    events = _field(d, "events")
    if not isinstance(events, list):
        raise ProtocolError("'events' must be a list")
    for raw in events:
        if not isinstance(raw, dict):
            raise ProtocolError(f"malformed event {raw!r}")
        kind = _EVENT_KINDS.get(raw.get("event"))
        if kind is None:
            raise ProtocolError(f"unknown event type {raw.get('event')!r}")
        code, fields = kind
        slot, *values = (decode_value(_field(raw, name)) for name in fields)
        log.append(code, int(slot), *values)
    return log


def _enc_fleet_report(r: FleetReport) -> dict:
    return {
        "horizon": r.horizon,
        "games": encode_value(r.games),
        "ledger": encode(r.ledger),
        "events": encode(r.events),
        "implemented": encode_value(dict(r.implemented)),
        "granted_at": encode_value(dict(r.granted_at)),
        "payments": encode_value(dict(r.payments)),
        "game_revenue": encode_value(dict(r.game_revenue)),
        "epoch": r.epoch,
    }


def _dec_fleet_report(d: dict) -> FleetReport:
    return FleetReport(
        horizon=int(_field(d, "horizon")),
        games=decode_value(_field(d, "games")),
        ledger=decode(_field(d, "ledger")),
        events=decode(_field(d, "events")),
        implemented=_decoded_map(_field(d, "implemented")),
        granted_at=_decoded_map(_field(d, "granted_at")),
        payments=_decoded_map(_field(d, "payments")),
        game_revenue=_decoded_map(_field(d, "game_revenue")),
        epoch=int(d.get("epoch", 0)),
    )


# ------------------------------------------ durable state (checkpoints) --
#
# The Catalog, WorkloadLog and FleetEngine codecs exist for the WAL
# checkpoint path (:mod:`repro.gateway.wal.checkpoint`): unlike the reply
# codecs above they serialize *internal* engine state, so decoding
# reconstructs the private structures directly instead of replaying
# mutations — replay would bump table versions and the catalog epoch,
# re-run the pricing period, and a recovered service must report the
# exact epochs the crashed one did.


def _enc_table(t: Table) -> dict:
    return {
        "name": t.name,
        "schema": [[c.name, c.dtype] for c in t.schema.columns],
        "version": t.version,
        "rows": [list(row) for row in t.rows()],
    }


def _dec_table(d: dict) -> Table:
    raw_schema = _field(d, "schema")
    if not isinstance(raw_schema, list):
        raise ProtocolError("'schema' must be a list of [name, dtype] pairs")
    schema = Schema([Column(str(n), str(dt)) for n, dt in raw_schema])
    table = Table(str(_field(d, "name")), schema)
    rows = _field(d, "rows")
    if not isinstance(rows, list):
        raise ProtocolError("'rows' must be a list")
    table._rows = [schema.validate_row(row) for row in rows]
    table._version = int(_field(d, "version"))
    return table


def _unbuildable(name: str):
    def definition():
        raise QueryError(
            f"view {name!r} was restored without a rebuildable definition; "
            "it serves its materialized contents but cannot refresh"
        )

    return definition


def _enc_catalog(c: Catalog) -> dict:
    if c._batch_depth:
        raise ProtocolError(
            "cannot encode a catalog inside an open epoch_batch()"
        )
    views = []
    for name, view in c._views.items():
        spec = view.spec
        views.append(
            {
                "name": name,
                "depends_on": list(view.depends_on),
                "spec": None
                if spec is None
                else {
                    "table_name": spec.table_name,
                    "columns": list(spec.columns),
                    "excluded": [[col, val] for col, val in spec.excluded],
                },
                "build_cost_units": view.build_cost_units,
                "table": None if view.table is None else _enc_table(view.table),
            }
        )
    return {
        "epoch": c.epoch,
        "tables": [_enc_table(t) for t in c._tables.values()],
        "views": views,
        "hash_indexes": [
            [t, k, ix._covered_rows] for (t, k), ix in c._hash_indexes.items()
        ],
        "sorted_indexes": [
            [t, k, ix._covered_rows] for (t, k), ix in c._sorted_indexes.items()
        ],
        "stats": [
            {
                "table_name": s.table_name,
                "row_count": s.row_count,
                "row_width": s.row_width,
                "columns": [
                    {
                        "name": cs.name,
                        "distinct": cs.distinct,
                        "minimum": encode_value(cs.minimum),
                        "maximum": encode_value(cs.maximum),
                    }
                    for cs in s.columns.values()
                ],
            }
            for s in c._stats.values()
        ],
    }


def _dec_catalog(d: dict) -> Catalog:
    from repro.advisor.candidates import ViewSpec

    catalog = Catalog()
    tables = _field(d, "tables")
    views = _field(d, "views")
    if not isinstance(tables, list) or not isinstance(views, list):
        raise ProtocolError("'tables' and 'views' must be lists")
    for raw in tables:
        table = _dec_table(raw)
        catalog._tables[table.name] = table
        table._watchers.append(catalog._bump)
    for raw in views:
        if not isinstance(raw, dict):
            raise ProtocolError(f"malformed view entry {raw!r}")
        name = str(_field(raw, "name"))
        raw_spec = _field(raw, "spec")
        if raw_spec is not None:
            spec = ViewSpec(
                table_name=str(_field(raw_spec, "table_name")),
                columns=tuple(_field(raw_spec, "columns")),
                excluded=tuple(
                    (col, val) for col, val in _field(raw_spec, "excluded")
                ),
            )
            view = spec.build(catalog, name)
        else:
            view = MaterializedView(
                name,
                _unbuildable(name),
                depends_on=tuple(_field(raw, "depends_on")),
            )
        raw_table = _field(raw, "table")
        view.table = None if raw_table is None else _dec_table(raw_table)
        view.build_cost_units = float(_field(raw, "build_cost_units"))
        catalog._views[name] = view
    for field_name, cls, registry in (
        ("hash_indexes", HashIndex, catalog._hash_indexes),
        ("sorted_indexes", SortedIndex, catalog._sorted_indexes),
    ):
        entries = _field(d, field_name)
        if not isinstance(entries, list):
            raise ProtocolError(f"{field_name!r} must be a list")
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ProtocolError(f"malformed index entry {entry!r}")
            table_name, key, covered = entry
            table = catalog._tables.get(table_name)
            if table is None:
                raise ProtocolError(
                    f"index over unknown table {table_name!r}"
                )
            covered = int(covered)
            if not 0 <= covered <= len(table):
                raise ProtocolError(
                    f"index over {table_name!r} claims to cover {covered} "
                    f"of {len(table)} rows"
                )
            registry[(str(table_name), str(key))] = cls(
                table, str(key), covered=covered
            )
    stats = _field(d, "stats")
    if not isinstance(stats, list):
        raise ProtocolError("'stats' must be a list")
    for raw in stats:
        if not isinstance(raw, dict):
            raise ProtocolError(f"malformed stats entry {raw!r}")
        columns = {
            str(_field(cs, "name")): ColumnStats(
                name=str(_field(cs, "name")),
                distinct=int(_field(cs, "distinct")),
                minimum=decode_value(_field(cs, "minimum")),
                maximum=decode_value(_field(cs, "maximum")),
            )
            for cs in _field(raw, "columns")
        }
        catalog._stats[str(_field(raw, "table_name"))] = TableStats(
            table_name=str(_field(raw, "table_name")),
            row_count=int(_field(raw, "row_count")),
            row_width=int(_field(raw, "row_width")),
            columns=columns,
        )
    catalog._epoch = int(_field(d, "epoch"))
    return catalog


def _enc_log(log: WorkloadLog) -> dict:
    return {
        "entries": [
            {
                "tenant": encode_value(tenant),
                "template": {
                    "kind": template.kind,
                    "table_name": template.table_name,
                    "columns": list(template.columns),
                    "key_column": template.key_column,
                    "excluded": [
                        [col, encode_value(val)]
                        for col, val in template.excluded
                    ],
                },
                "passes": usage.passes,
                "probes": usage.probes,
                "last_epoch": usage.last_epoch,
            }
            for tenant, template, usage in log.entries()
        ]
    }


def _dec_log(d: dict) -> WorkloadLog:
    log = WorkloadLog()
    entries = _field(d, "entries")
    if not isinstance(entries, list):
        raise ProtocolError("'entries' must be a list")
    for raw in entries:
        if not isinstance(raw, dict):
            raise ProtocolError(f"malformed workload entry {raw!r}")
        raw_template = _field(raw, "template")
        template = QueryTemplate(
            kind=str(_field(raw_template, "kind")),
            table_name=str(_field(raw_template, "table_name")),
            columns=tuple(_field(raw_template, "columns")),
            key_column=_field(raw_template, "key_column"),
            excluded=tuple(
                (col, decode_value(val))
                for col, val in _field(raw_template, "excluded")
            ),
        )
        last_epoch = _field(raw, "last_epoch")
        log._usage[(decode_value(_field(raw, "tenant")), template)] = (
            TemplateUsage(
                passes=float(_field(raw, "passes")),
                probes=float(_field(raw, "probes")),
                last_epoch=None if last_epoch is None else int(last_epoch),
            )
        )
    return log


# The open period's FleetEngine is imaged exactly: every field the engine
# reads again, so a restored engine continues the period as the original
# would have, and restore re-dispatches nothing. Arrays travel as base64
# of their little-endian bytes; user ids and user-keyed maps go through
# encode_value, the ledger and event log through their own codecs.
# Derived state (rank maps, a solver's sorted bid array) is rebuilt;
# running sums such as a solver's bid total are stored, never summed
# again, so float drift carries over bit for bit.

_INT, _FLOAT = "<i8", "<f8"

#: A block's numpy columns and their wire dtypes (see ``_Block``).
_BLOCK_ARRAYS = (
    ("rows", _INT),
    ("vals", _FLOAT),
    ("gslot", _INT),
    ("grank", _INT),
    ("gbound", _INT),
    ("by_rank", _INT),
    ("gkey", _INT),
    ("gtot", _FLOAT),
    ("gpos", _INT),
)

#: An open-row column group: (row, rank, start, values) typecodes.
_COLUMN_TYPES = (("q", _INT), ("q", _INT), ("q", _INT), ("d", _FLOAT))


def _enc_array(values, dtype: str) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _dec_array(text, dtype: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ProtocolError("an encoded array must be a base64 string")
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype=dtype).astype(dtype.replace("<", "="))


def _enc_bid(bid: AdditiveBid) -> list:
    return [bid.start, list(bid.schedule.values)]


def _dec_bid(d) -> AdditiveBid:
    start, values = d
    return AdditiveBid.over(int(start), values)


def _enc_handle(row: int, handle: RevisableBid) -> list:
    revisions = [[at, _enc_bid(bid)] for at, bid in handle._revisions or ()]
    return [row, handle.declared_at, _enc_bid(handle._initial), revisions]


def _dec_handle(d) -> tuple:
    row, declared_at, initial, revisions = d
    handle = RevisableBid(_dec_bid(initial), declared_at=int(declared_at))
    if revisions:
        handle._revisions = [(int(at), _dec_bid(bid)) for at, bid in revisions]
    return int(row), handle


def _enc_game(state: AddOnState) -> list:
    solver = state._engine
    return [
        state.price,
        state.implemented_at,
        state._slot,
        encode_value(solver._bids),
        encode_value(solver.forced),
        solver._total,
    ]


def _dec_game(state: AddOnState, d) -> None:
    price, implemented_at, slot, bids, forced, total = d
    state.price = price
    state.implemented_at = None if implemented_at is None else int(implemented_at)
    state._slot = int(slot)
    solver = state._engine
    solver._bids = _decoded_map(bids)
    solver._forced = set(decode_value(forced))
    solver._rebuild()  # the sorted array and value index of _bids
    solver._total = float(total)


def _enc_block(b: _Block) -> dict:
    out = {name: _enc_array(getattr(b, name), dtype) for name, dtype in _BLOCK_ARRAYS}
    out.update(
        offsets=list(b.offsets),
        walk=[_enc_array(column, _INT) for column in b.walk],
        deps=[_enc_array(column, _INT) for column in b.deps],
        gp=b.gp,
        dp=b.dp,
        last=b.last,
    )
    return out


def _dec_block(d: dict) -> _Block:
    block = _Block()
    for name, dtype in _BLOCK_ARRAYS:
        setattr(block, name, _dec_array(_field(d, name), dtype))
    block.offsets = [int(x) for x in _field(d, "offsets")]
    block.walk = tuple(_dec_array(c, _INT) for c in _field(d, "walk"))
    block.deps = tuple(_dec_array(c, _INT) for c in _field(d, "deps"))
    block.walk_to(int(_field(d, "gp")))
    block.deps_to(int(_field(d, "dp")))
    block.last = int(_field(d, "last"))
    return block


def _enc_fleet(f: FleetEngine) -> dict:
    specs = [f.catalog.get(j) for j in f.catalog]
    return {
        "catalog": [
            [encode_value(s.opt_id), s.cost, s.kind, s.description] for s in specs
        ],
        "horizon": f.horizon,
        "slot": f.slot,
        "epoch": f.epoch,
        "ledger": encode(f.ledger),
        "events": encode(f.events),
        "games": [_enc_game(state) for state in f._states],
        "hot": list(f._hot),
        "flush": _enc_array(f._flush, _INT),
        "implemented": encode_value(f._implemented),
        "game_revenue": _enc_array(f._game_revenue, _FLOAT),
        "users": encode_value(f._users),
        "ranks": _enc_array(f._ranks, _INT),
        "columns": [
            [duration]
            + [_enc_array(c, dtype) for c, (_, dtype) in zip(group, _COLUMN_TYPES)]
            for duration, group in f._columns.items()
        ],
        "open_start": f._open_start,
        "blocks": [_enc_block(block) for block in f._blocks],
        "next": f._next,
        "handles": [_enc_handle(row, h) for row, h in f._handles.items()],
        "guarded": f._taken is not None,
        "revised": f._revised,
    }


def _dec_fleet(d: dict) -> FleetEngine:
    catalog = OptimizationCatalog()
    for opt_id, cost, kind, description in _field(d, "catalog"):
        catalog.register(
            OptimizationSpec(decode_value(opt_id), cost, str(kind), str(description))
        )
    fleet = FleetEngine(catalog, int(_field(d, "horizon")))
    fleet.slot = int(_field(d, "slot"))
    fleet.epoch = int(_field(d, "epoch"))
    fleet.ledger = decode(_field(d, "ledger"))
    fleet.events = decode(_field(d, "events"))
    for state, game in zip(fleet._states, _field(d, "games"), strict=True):
        _dec_game(state, game)
    fleet._hot = [bool(hot) for hot in _field(d, "hot")]
    fleet._flush = _dec_array(_field(d, "flush"), _INT)
    fleet._implemented = _decoded_map(_field(d, "implemented"))
    fleet._game_revenue = _dec_array(_field(d, "game_revenue"), _FLOAT)
    fleet._users = list(decode_value(_field(d, "users")))
    fleet._ranks = _dec_array(_field(d, "ranks"), _INT).tolist()
    fleet._columns = {
        int(duration): tuple(
            array(code, _dec_array(c, dtype).tobytes())
            for c, (code, dtype) in zip(group, _COLUMN_TYPES, strict=True)
        )
        for duration, *group in _field(d, "columns")
    }
    fleet._open_start = int(_field(d, "open_start"))
    fleet._blocks = [_dec_block(block) for block in _field(d, "blocks")]
    fleet._next = int(_field(d, "next"))
    fleet._handles = dict(_dec_handle(h) for h in _field(d, "handles"))
    fleet._revised = bool(_field(d, "revised"))
    if _field(d, "guarded"):
        fleet._guard()  # rebuilt from the rows: the last row per bid is current
    return fleet


# ------------------------------------------------------------- dispatch --

#: class -> (type tag, encoder, decoder). Order matters only for lookup by
#: isinstance below (exact class matches are tried first).
CODECS: dict[type, tuple[str, Callable, Callable]] = {
    ShapleyResult: ("ShapleyResult", _enc_shapley, _dec_shapley),
    AddOffOutcome: ("AddOffOutcome", _enc_addoff, _dec_addoff),
    AddOnOutcome: ("AddOnOutcome", _enc_addon, _dec_addon),
    SubstOffOutcome: ("SubstOffOutcome", _enc_substoff, _dec_substoff),
    SubstOnOutcome: ("SubstOnOutcome", _enc_subston, _dec_subston),
    SavingsQuote: ("SavingsQuote", _enc_quote, _dec_quote),
    CostMeter: ("CostMeter", _enc_meter, _dec_meter),
    QueryResult: ("QueryResult", _enc_query_result, _dec_query_result),
    BillingLedger: ("BillingLedger", _enc_ledger, _dec_ledger),
    _ev.EventLog: ("EventLog", _enc_events, _dec_events),
    FleetReport: ("FleetReport", _enc_fleet_report, _dec_fleet_report),
    Catalog: ("Catalog", _enc_catalog, _dec_catalog),
    WorkloadLog: ("WorkloadLog", _enc_log, _dec_log),
    FleetEngine: ("FleetEngine", _enc_fleet, _dec_fleet),
}

_BY_TAG = {tag: dec for _, (tag, _enc, dec) in CODECS.items()}


def encode(obj) -> dict:
    """One public value object -> its tagged JSON-able dictionary."""
    entry = CODECS.get(type(obj))
    if entry is None:
        raise ProtocolError(
            f"no wire codec for objects of type {type(obj).__name__}"
        )
    tag, enc, _dec = entry
    return {"type": tag, **enc(obj)}


def decode(d: dict):
    """Inverse of :func:`encode`; raises :class:`ProtocolError` on junk."""
    if not isinstance(d, dict):
        raise ProtocolError(f"expected an encoded object, got {type(d).__name__}")
    tag = d.get("type")
    dec = _BY_TAG.get(tag) if isinstance(tag, str) else None
    if dec is None:
        raise ProtocolError(f"unknown value-object type {tag!r}")
    try:
        return dec(d)
    except ProtocolError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ProtocolError(f"malformed {tag} payload: {exc}") from exc
