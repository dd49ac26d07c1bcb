"""The columnar event log and billing ledger.

``EventLog`` and ``BillingLedger`` store rows, not objects: the fleet
appends event rows (``append``/``extend``) and ledger lines, and events
or entries are built only when read. Two properties pin that down: row
appends and object appends build the same log, read for read and byte
for byte on the wire, and the ledger's indexed reads equal scans of its
lines; and a whole fleet period leaves no event or ledger-entry object
behind.
"""

from __future__ import annotations

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdditiveBid
from repro.cloudsim import BillingLedger, EventLog, OptimizationCatalog
from repro.cloudsim.events import (
    KINDS,
    Event,
    OptimizationImplemented,
    UserDeparted,
)
from repro.cloudsim.ledger import LedgerEntry
from repro.fleet import FleetEngine
from repro.gateway import codec
from repro.workloads import fleet_batches, fleet_game_costs

_SLOTS = st.integers(1, 6)
_USERS = st.sampled_from(["ann", "bob", 7, ("t", 1), "cara"])
_OPTS = st.sampled_from(["idx", "mv", 3])
_AMOUNTS = st.one_of(st.floats(0.0, 1e6, allow_nan=False), st.integers(0, 100))
_COSTS = st.one_of(st.floats(1e-3, 1e6, allow_nan=False), st.integers(1, 100))
_MEMOS = st.sampled_from(["", "opt='idx'", "opt='mv'"])
_SECONDS = {
    "BidPlaced": _MEMOS,
    "BidRevised": _MEMOS,
    "UserGranted": _OPTS,
    "OptimizationImplemented": _COSTS,
    "UserDeparted": st.none(),
    "UserCharged": _AMOUNTS,
}


@st.composite
def _runs(draw):
    """Event runs ``(code, slot, firsts, second)`` (rows sharing kind,
    slot and second field, as the fleet extends them) interleaved with
    ledger lines ``("invoice" | "build", slot, party, amount, memo)``."""
    ops = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.booleans()):
            code = draw(st.integers(0, len(KINDS) - 1))
            kind = KINDS[code]
            ids = _OPTS if kind is OptimizationImplemented else _USERS
            firsts = draw(st.lists(ids, min_size=1, max_size=4))
            second = draw(_SECONDS[kind.__name__])
            ops.append((code, draw(_SLOTS), firsts, second))
        elif draw(st.booleans()):
            ops.append(
                ("invoice", draw(_SLOTS), draw(_USERS), draw(_AMOUNTS), draw(_MEMOS))
            )
        else:
            ops.append(("build", draw(_SLOTS), draw(_OPTS), draw(_COSTS), draw(_MEMOS)))
    return ops


def _ledger(ops) -> BillingLedger:
    ledger = BillingLedger()
    for op in ops:
        if op[0] == "invoice":
            ledger.invoice(*op[1:])
        elif op[0] == "build":
            ledger.build_outlay(*op[1:])
    return ledger


def _by_rows(ops) -> EventLog:
    log = EventLog()
    for code, slot, firsts, second in (op for op in ops if type(op[0]) is int):
        if len(firsts) == 1:
            log.append(code, slot, firsts[0], second)
        else:
            log.extend(code, slot, firsts, second)
    return log


def _by_objects(ops) -> EventLog:
    log = EventLog()
    for code, slot, firsts, second in (op for op in ops if type(op[0]) is int):
        kind = KINDS[code]
        log.record_many(
            kind(slot, first) if kind is UserDeparted else kind(slot, first, second)
            for first in firsts
        )
    return log


def _same(x, y) -> bool:
    """Equal values of the same type (so int 0 is not float 0.0)."""
    return type(x) is type(y) and x == y


@settings(max_examples=150, deadline=None)
@given(ops=_runs())
def test_row_appends_and_object_appends_build_the_same_book(ops):
    rows_log = _by_rows(ops)
    objs_log = _by_objects(ops)

    assert rows_log == objs_log
    assert codec.encode(rows_log) == codec.encode(objs_log)
    assert codec.decode(codec.encode(rows_log)) == rows_log
    events = objs_log.all()
    assert rows_log.all() == events
    assert len(rows_log) == len(events)
    for kind in (*KINDS, Event):
        expected = [e for e in events if isinstance(e, kind)]
        assert list(rows_log.of_type(kind)) == expected
        assert list(objs_log.of_type(kind)) == expected
    for slot in range(8):
        expected = [e for e in events if e.slot == slot]
        assert list(rows_log.in_slot(slot)) == expected

    ledger = _ledger(ops)
    assert codec.decode(codec.encode(ledger)) == ledger
    entries = ledger.entries
    assert [op[1:] for op in ops if op[0] == "invoice"] == [
        (e.slot, e.party, e.amount, e.memo) for e in entries if e.kind == "invoice"
    ]
    for party in ("ann", "bob", 7, ("t", 1), "cara", "zed"):
        mine = [e for e in entries if e.kind == "invoice" and e.party == party]
        assert ledger.statement(party) == mine
        assert _same(ledger.paid_by(party), sum(e.amount for e in mine))
    assert _same(ledger.paid_by("zed"), 0)  # LedgerReply.total's int 0
    revenue = sum(e.amount for e in entries if e.kind == "invoice")
    outlays = -sum(e.amount for e in entries if e.kind == "build")
    assert _same(ledger.revenue, revenue)
    assert _same(ledger.outlays, outlays)
    assert _same(ledger.balance, revenue - outlays)


def _alive() -> int:
    gc.collect()
    return sum(isinstance(o, (Event, LedgerEntry)) for o in gc.get_objects())


def test_a_fleet_period_leaves_no_event_or_ledger_entry_objects():
    games, slots = 20, 40
    before = _alive()
    fleet = FleetEngine(
        OptimizationCatalog.from_costs(fleet_game_costs(11, games, 3.0)),
        horizon=slots,
    )
    for batch in fleet_batches(12, 10_000, games, slots, 4):
        fleet.ingest(batch)
    opts = list(fleet.catalog)
    for i in range(60):
        fleet.place_bid(
            f"p{i}", opts[i % games], AdditiveBid.over(2 + i % 30, [0.5, 0.5])
        )
    for i in range(0, 60, 3):
        fleet.revise_bid(f"p{i}", opts[i % games], {3 + i % 30: 2.0})
    fleet.advance_slots(slots)

    assert _alive() == before
    # The period did bookkeeping of every kind: placements, revisions,
    # grants, builds, departures and charges.
    for kind in KINDS:
        assert fleet.events.column(kind, "slot"), kind.__name__
    assert fleet.ledger.revenue > 0
