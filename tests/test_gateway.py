"""The tenant gateway: envelope round-trips, facade semantics, hot path.

Three contracts from DESIGN.md's "Gateway conventions":

* every envelope and every public value object survives
  ``from_dict(to_dict(x)) == x`` — including a real JSON hop;
* a batched ``PricingService.dispatch`` produces outcomes and metered costs
  bit-identical to driving the ``FleetEngine`` directly;
* no malformed envelope can make the gateway raise anything outside the
  ``ReproError`` hierarchy — the wire entry point never raises at all.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdditiveBid,
    GameConfigError,
    PricingService,
    ProtocolError,
    ReproError,
    run_addoff,
    run_addon,
    run_shapley,
    run_substoff,
    run_subston,
)
from repro.bids.substitutive import SubstitutableBid
from repro.cloudsim import BidPlaced, OptimizationCatalog
from repro.db import CandidateView, Catalog, SavingsEstimator, Schema, Table
from repro.errors import (
    BidError,
    DeadlineError,
    MechanismError,
    OverloadedError,
    QueryError,
    RevisionError,
    SchemaError,
)
from repro.fleet import TenantWorkload, build_service
from repro.fleet.engine import FleetEngine
from repro.gateway import (
    API_VERSION,
    AdvanceSlots,
    AdviseRequest,
    Configure,
    ErrorReply,
    LedgerQuery,
    RETRYABLE_CODES,
    ReviseBid,
    RunQuery,
    SubmitBids,
    error_code,
    from_dict,
    replay,
    reply_from_dict,
    request_from_dict,
    to_dict,
    write_trace,
)
from repro.gateway.service import fingerprint
from repro.gateway.trace import iter_trace
from repro.workloads.fleet import (
    fleet_arrival_trace,
    fleet_batches,
    fleet_game_costs,
)


def roundtrip(obj):
    """to_dict -> real JSON hop -> from_dict."""
    return from_dict(json.loads(json.dumps(to_dict(obj))))


# ------------------------------------------------------------- envelopes --

ENVELOPE_EXAMPLES = [
    Configure(optimizations=(("idx", 40.0), (("t", 1), 3.5)), horizon=6),
    SubmitBids(tenant="ann", bids=(("idx", 1, (30.0, 2.5)), ("v", 2, (1.0,)))),
    SubmitBids(tenant=7, bids=(), revisable=True),
    ReviseBid(tenant="bob", optimization="idx", new_values={3: 5.0, 4: 6.5}),
    AdvanceSlots(slots=3),
    RunQuery(tenant="t", query="members", table="snap_02", halo=3),
    RunQuery(tenant="t", query="chain", tables=("s2", "s1"), halo=0, record=False),
    RunQuery(tenant="t", query="histogram", table="s1", pids=(1, 2, 3)),
    AdviseRequest(horizon=5, dollars_per_byte=1e-7),
    AdviseRequest(),
    LedgerQuery(tenant=("compound", 3)),
]


class TestEnvelopeRoundTrips:
    @pytest.mark.parametrize("envelope", ENVELOPE_EXAMPLES, ids=lambda e: type(e).__name__)
    def test_request_round_trips_through_json(self, envelope):
        assert roundtrip(envelope) == envelope

    def test_replies_round_trip(self):
        service = PricingService({"idx": 40.0}, horizon=3)
        replies = [
            service.dispatch(SubmitBids(tenant="ann", bids=(("idx", 1, (50.0,)),))),
            service.dispatch(AdvanceSlots(slots=3)),
            service.dispatch(LedgerQuery(tenant="ann")),
            service.dispatch(SubmitBids(tenant="x", bids=(("nope", 1, (1.0,)),))),
        ]
        for reply in replies:
            assert roundtrip(reply) == reply
        assert isinstance(replies[-1], ErrorReply)

    def test_version_is_stamped_and_checked(self):
        wire = to_dict(AdvanceSlots(slots=1))
        assert wire["api"] == API_VERSION
        wire["api"] = "0.9"
        with pytest.raises(ProtocolError) as excinfo:
            request_from_dict(wire)
        assert excinfo.value.code == "version"

    def test_unknown_fields_rejected(self):
        wire = to_dict(AdvanceSlots(slots=1))
        wire["extra"] = True
        with pytest.raises(ProtocolError):
            request_from_dict(wire)

    @pytest.mark.parametrize(
        ("envelope", "field"),
        [
            (Configure(optimizations=(("idx", 40.0),), horizon=2), "workers"),
            (Configure(optimizations=(("idx", 40.0),), horizon=2), "shards"),
            (AdviseRequest(horizon=5), "shards"),
        ],
        ids=["workers", "shards", "advise-shards"],
    )
    def test_configure_carrying_a_pool_size_is_refused(self, envelope, field):
        # A stale client asking for a pool (removed in API 1.7) or a shard
        # count (removed in 1.9) gets an error naming the field, not a
        # period silently run in-process or in another order.
        wire = to_dict(envelope)
        wire[field] = 2
        with pytest.raises(ProtocolError) as excinfo:
            request_from_dict(wire)
        assert excinfo.value.code == "protocol"
        assert field in str(excinfo.value)


# ---------------------------------------------------------- value objects --


def _query_result():
    catalog = Catalog()
    table = Table("t", Schema.of(pid="int", halo="int"))
    table.extend((i, i % 3 - 1) for i in range(30))
    catalog.create_table(table)
    from repro.db import QueryEngine

    return QueryEngine(catalog).halo_members("t", 1)


def _fleet_report():
    engine = FleetEngine(
        OptimizationCatalog.from_costs({"a": 10.0, ("b", 2): 5.0}), horizon=4
    )
    engine.place_bid("ann", "a", AdditiveBid.over(1, [6.0, 6.0]))
    engine.place_bid(3, "a", AdditiveBid.over(2, [5.0]))
    engine.place_bid("eve", ("b", 2), AdditiveBid.over(1, [1.0]))
    return engine.run_to_end()


VALUE_EXAMPLES = [
    run_shapley(cost=100.0, bids={"ann": 60.0, "bob": 55.0, "eve": 20.0}),
    run_addoff(
        costs={"idx": 100.0, "view": 90.0},
        bids={"idx": {1: 70.0, 2: 60.0}, "view": {2: 30.0}},
    ),
    run_addon(
        cost=100.0,
        bids={1: AdditiveBid.over(1, [101.0]), 2: AdditiveBid.over(1, [16.0] * 3)},
        horizon=3,
    ),
    run_substoff(
        costs={"v1": 60.0, "v2": 100.0},
        bids={1: {"v1": 50.0, "v2": 50.0}, 2: {"v1": 40.0, "v2": 0.0}},
    ),
    run_subston(
        costs={"v1": 60.0, "v2": 50.0},
        bids={
            1: SubstitutableBid.over(1, [50.0, 50.0], {"v1", "v2"}),
            2: SubstitutableBid.over(2, [100.0], {"v2"}),
        },
        horizon=2,
    ),
    _fleet_report(),
    _query_result(),
]


class TestValueObjectRoundTrips:
    @pytest.mark.parametrize("obj", VALUE_EXAMPLES, ids=lambda o: type(o).__name__)
    def test_round_trips_through_json(self, obj):
        assert roundtrip(obj) == obj

    def test_savings_quote_round_trips(self):
        catalog = Catalog()
        table = Table("events", Schema.of(uid="int", ts="int", payload="str"))
        table.extend((i, i * 7, f"p{i}") for i in range(200))
        catalog.create_table(table)
        estimator = SavingsEstimator(catalog)
        quote = estimator.quote(CandidateView("v", "events", ("uid", "ts")))
        assert roundtrip(quote) == quote

    def test_fleet_report_round_trip_covers_ledger_and_events(self):
        report = _fleet_report()
        back = roundtrip(report)
        assert back.ledger == report.ledger
        assert back.events == report.events
        assert back.ledger.balance == report.ledger.balance

    @given(
        cost=st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
        bids=st.dictionaries(
            st.one_of(st.integers(0, 50), st.text(max_size=4)),
            st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
            max_size=12,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_shapley_round_trip_property(self, cost, bids):
        result = run_shapley(cost=cost, bids=bids)
        assert roundtrip(result) == result


# --------------------------------------------------- facade vs direct fleet --


class TestGatewayPreservesFleetPath:
    GAMES, USERS, SLOTS = 20, 1500, 150

    def _population(self, seed=2012):
        costs = fleet_game_costs(seed, self.GAMES, 30.0)
        batches = fleet_batches(seed + 1, self.USERS, self.GAMES, self.SLOTS, 4)
        trace = fleet_arrival_trace(seed + 1, self.USERS, self.GAMES, self.SLOTS, 4)
        return costs, batches, trace

    def test_dispatch_many_bit_identical_to_direct_engine(self):
        costs, batches, trace = self._population()
        direct = FleetEngine(OptimizationCatalog.from_costs(costs), horizon=self.SLOTS)
        for batch in batches:
            direct.ingest(batch)
        direct_report = direct.run_to_end()

        service = PricingService(
            OptimizationCatalog.from_costs(costs), horizon=self.SLOTS
        )
        requests = [
            SubmitBids(
                tenant=a.user,
                bids=((a.optimization, a.bid.start, a.bid.schedule.values),),
            )
            for a in trace
        ]
        replies = service.dispatch(requests)
        assert all(not isinstance(r, ErrorReply) for r in replies)
        report = service.run_to_end()

        assert dict(report.payments) == dict(direct_report.payments)
        assert dict(report.granted_at) == dict(direct_report.granted_at)
        assert dict(report.implemented) == dict(direct_report.implemented)
        assert dict(report.game_revenue) == dict(direct_report.game_revenue)
        assert report.ledger == direct_report.ledger
        assert report.events == direct_report.events

    def test_per_request_dispatch_matches_place_bid_path(self):
        costs, _, trace = self._population(seed=77)
        direct = FleetEngine(OptimizationCatalog.from_costs(costs), horizon=self.SLOTS)
        service = PricingService(
            OptimizationCatalog.from_costs(costs), horizon=self.SLOTS
        )
        for arrival in trace[:300]:
            direct.place_bid(arrival.user, arrival.optimization, arrival.bid)
            reply = service.dispatch(
                SubmitBids(
                    tenant=arrival.user,
                    bids=(
                        (
                            arrival.optimization,
                            arrival.bid.start,
                            arrival.bid.schedule.values,
                        ),
                    ),
                )
            )
            assert not isinstance(reply, ErrorReply)
        assert dict(direct.run_to_end().payments) == dict(
            service.run_to_end().payments
        )

    def test_mixed_batch_flushes_in_order(self):
        service = PricingService({"idx": 40.0}, horizon=4)
        replies = service.dispatch(
            [
                SubmitBids(tenant="ann", bids=(("idx", 1, (30.0, 15.0)),)),
                SubmitBids(tenant="bob", bids=(("idx", 1, (20.0,)),)),
                AdvanceSlots(slots=4),
                LedgerQuery(tenant="ann"),
            ]
        )
        kinds = [type(r).__name__ for r in replies]
        assert kinds == ["BidsReply", "BidsReply", "SlotReply", "LedgerReply"]
        assert replies[3].total > 0.0

    def test_revisable_bids_skip_bulk_and_stay_revisable(self):
        service = PricingService({"idx": 40.0}, horizon=4)
        replies = service.dispatch(
            [
                SubmitBids(
                    tenant="ann", bids=(("idx", 1, (10.0, 10.0)),), revisable=True
                ),
                SubmitBids(tenant="bob", bids=(("idx", 1, (5.0,)),)),
                ReviseBid(tenant="ann", optimization="idx", new_values={2: 35.0}),
            ]
        )
        assert [type(r).__name__ for r in replies] == [
            "BidsReply",
            "BidsReply",
            "ReviseReply",
        ]
        report = service.run_to_end()
        # Unrevised, slot-1 residuals (20 + 5) fall short of 40; the
        # revision lifts ann's residual to 45 and funds the game.
        assert report.implemented == {"idx": 1}

    def test_bulk_submitted_bids_cannot_be_revised(self):
        service = PricingService({"idx": 40.0}, horizon=4)
        replies = service.dispatch(
            [
                SubmitBids(tenant="ann", bids=(("idx", 1, (10.0, 10.0)),)),
                ReviseBid(tenant="ann", optimization="idx", new_values={2: 35.0}),
            ]
        )
        assert isinstance(replies[1], ErrorReply)
        assert replies[1].code == "game-config"

    def test_bulk_run_gives_each_envelope_its_verdict(self):
        # One tenant's bad bid must not fail another's: bob's unknown
        # optimization fails bob alone, and ann's bid lands in bulk.
        service = PricingService({"idx": 40.0}, horizon=4)
        replies = service.dispatch(
            [
                SubmitBids(tenant="ann", bids=(("idx", 1, (30.0,)),)),
                SubmitBids(tenant="bob", bids=(("nope", 1, (1.0,)),)),
            ]
        )
        assert [type(r).__name__ for r in replies] == ["BidsReply", "ErrorReply"]
        assert replies[1].code == "game-config" and "nope" in replies[1].message
        # ...and after ann's bid landed, re-sending it fails only itself.
        again = service.dispatch(
            [
                SubmitBids(tenant="cid", bids=(("idx", 1, (30.0,)),)),
                SubmitBids(tenant="ann", bids=(("idx", 1, (30.0,)),)),
            ]
        )
        assert [type(r).__name__ for r in again] == ["BidsReply", "ErrorReply"]
        assert "'ann' already bid" in again[1].message
        assert service.run_to_end().implemented == {"idx": 1}

    def test_batch_after_first_slot_gives_each_envelope_its_verdict(self):
        # Once the clock has moved, a batched run is still ingested in
        # bulk: ann's retroactive bid fails alone, bob's valid one lands.
        service = PricingService({"idx": 40.0}, horizon=4)
        service.dispatch(AdvanceSlots(slots=1))
        replies = service.dispatch(
            [
                SubmitBids(tenant="ann", bids=(("idx", 1, (30.0,)),)),
                SubmitBids(tenant="bob", bids=(("idx", 2, (50.0,)),)),
            ]
        )
        assert [type(r).__name__ for r in replies] == ["ErrorReply", "BidsReply"]
        assert replies[0].code == "game-config"
        assert "bob" not in replies[0].message
        assert service.run_to_end().implemented == {"idx": 2}

    def test_failed_bulk_run_commits_nothing(self):
        # A refused envelope commits none of its bids, across duration
        # batches: bob's valid idx bid must not stay scheduled (and later
        # invoiced) behind the error his beyond-horizon v bid earned.
        service = PricingService({"idx": 40.0, "v": 10.0}, horizon=2)
        replies = service.dispatch(
            [
                SubmitBids(tenant="ann", bids=(("idx", 1, (10.0,)),)),
                SubmitBids(
                    tenant="bob",
                    bids=(("idx", 1, (50.0,)), ("v", 1, (1.0, 1.0, 1.0))),
                ),
            ]
        )
        assert [type(r).__name__ for r in replies] == ["BidsReply", "ErrorReply"]
        assert replies[1].code == "game-config"
        # ...and the refused envelope must not squat on bob's pairs.
        retry = service.dispatch(
            [SubmitBids(tenant="bob", bids=(("v", 1, (11.0,)),))]
        )
        assert [type(r).__name__ for r in retry] == ["BidsReply"]
        report = service.run_to_end()
        assert report.implemented == {"v": 1}
        assert service.dispatch(LedgerQuery(tenant="bob")).total == 10.0
        assert service.dispatch(LedgerQuery(tenant="ann")).total == 0.0

    @pytest.mark.parametrize(
        "start, slots", [(2**63, 1), (2**63 - 1, 2)], ids=["past-int64", "wraps"]
    )
    def test_a_start_past_the_int64_range_is_beyond_the_horizon(self, start, slots):
        # Wire starts are unbounded ints. One of 2**63 must not overflow
        # the bulk columns, and one of 2**63-1 over two slots must not
        # wrap its end negative and land; both forms refuse alike.
        bid = ["idx", start, [1.0] * slots]
        for revisable in (False, True):
            service = PricingService({"idx": 40.0}, horizon=3)
            alone = service.dispatch_json(
                {"api": API_VERSION, "kind": "SubmitBids", "tenant": "eve",
                 "bids": [bid], "revisable": revisable}
            )
            assert alone["kind"] == "ErrorReply", alone
            assert alone["code"] == "game-config"
            assert "beyond the horizon" in alone["message"]
        service = PricingService({"idx": 40.0}, horizon=3)
        replies = service.dispatch(
            [
                SubmitBids(tenant="ann", bids=(("idx", 1, (50.0,)),)),
                SubmitBids(tenant="eve", bids=(tuple(bid),)),
            ]
        )
        assert [type(r).__name__ for r in replies] == ["BidsReply", "ErrorReply"]
        assert replies[1].code == "game-config"
        report = service.run_to_end()
        assert report.payments == {"ann": 40.0}

    def test_multi_bid_submit_is_atomic(self):
        # A duplicate inside one envelope must not leave the first bid
        # committed behind the ErrorReply, and a retry must then succeed.
        service = PricingService({"x": 10.0}, horizon=2)
        bad = SubmitBids(tenant="a", bids=(("x", 1, (5.0,)), ("x", 1, (5.0,))))
        reply = service.dispatch(bad)
        assert isinstance(reply, ErrorReply)
        retry = service.dispatch(SubmitBids(tenant="a", bids=(("x", 1, (5.0,)),)))
        assert not isinstance(retry, ErrorReply)

    def test_attach_fleet_seeds_duplicate_guard(self):
        import numpy as np

        from repro.fleet.engine import FleetBatch

        engine = FleetEngine(OptimizationCatalog.from_costs({"x": 10.0}), horizon=2)
        engine.ingest(
            FleetBatch(
                users=("ann",),
                opt_ranks=np.array([0]),
                starts=np.array([1]),
                values=np.array([[20.0]]),
            )
        )
        service = PricingService(fleet=engine)
        acks = service.dispatch(
            [SubmitBids(tenant="ann", bids=(("x", 1, (20.0,)),))]
        )
        assert isinstance(acks[0], ErrorReply) and acks[0].code == "game-config"
        report = service.run_to_end()
        assert report.payments.get("ann", 0.0) <= 10.0  # never double-invoiced

    def test_revision_after_departure_is_refused(self):
        # A departed stay cannot be reopened: the revision is a typed
        # error, the tenant is invoiced once, and the cloud breaks even.
        service = PricingService({"idx": 1.0}, horizon=3)
        service.dispatch(
            SubmitBids(tenant="ann", bids=(("idx", 1, (1.0,)),), revisable=True)
        )
        service.dispatch(AdvanceSlots(slots=1))
        reply = service.dispatch(
            ReviseBid(tenant="ann", optimization="idx", new_values={2: 0.0})
        )
        assert isinstance(reply, ErrorReply) and reply.code == "revision"
        service.dispatch(AdvanceSlots(slots=2))
        ledger = service.dispatch(LedgerQuery(tenant="ann"))
        assert [amount for _, amount, _ in ledger.invoices] == [1.0]
        assert ledger.total == 1.0
        assert ledger.cloud_balance == 0.0

    def test_oversized_advance_moves_nothing(self):
        # An ErrorReply must mean the clock did not move: no partial
        # advance (and no settlement) behind a "period is over" error.
        service = PricingService({"idx": 40.0}, horizon=2)
        service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        reply = service.dispatch(AdvanceSlots(slots=5))
        assert isinstance(reply, ErrorReply) and reply.code == "mechanism"
        assert service.slot == 0
        assert service.dispatch(LedgerQuery(tenant="a")).total == 0.0
        assert not isinstance(service.dispatch(AdvanceSlots(slots=2)), ErrorReply)

    def test_configure_rejects_duplicate_ids(self):
        service = PricingService()
        reply = service.dispatch(
            Configure(optimizations=(("idx", 40.0), ("idx", 25.0)), horizon=3)
        )
        assert isinstance(reply, ErrorReply) and reply.code == "game-config"
        assert service.fleet is None

    def test_malformed_construction_raises_protocol_error(self):
        # In-process construction (TenantSession included) must not leak
        # bare ValueError for request-shaped mistakes.
        for build in (
            lambda: SubmitBids(tenant="a", bids=(("x", 1),)),  # short triple
            lambda: SubmitBids(tenant="a", bids=(("x", "one", (1.0,)),)),
            lambda: Configure(optimizations=(("x",),), horizon=2),
            lambda: AdvanceSlots(slots="three"),
            lambda: ReviseBid(tenant="a", optimization="x", new_values=((1,),)),
        ):
            with pytest.raises(ProtocolError):
                build()

    def test_unhashable_ids_rejected_as_data(self):
        # Tenant/optimization ids key dicts throughout the engine; an
        # unhashable id must fail at envelope construction as a
        # ProtocolError (ErrorReply on the wire), never a TypeError
        # mid-dispatch.
        service = PricingService({"idx": 40.0}, horizon=2)
        for build in (
            lambda: SubmitBids(tenant=["ann"], bids=(("idx", 1, (5.0,)),)),
            lambda: SubmitBids(tenant="a", bids=((["idx"], 1, (5.0,)),)),
            lambda: ReviseBid(tenant={}, optimization="idx", new_values={2: 1.0}),
            lambda: LedgerQuery(tenant=["x"]),
            lambda: Configure(optimizations=((["a"], 5.0),), horizon=2),
        ):
            with pytest.raises(ProtocolError):
                build()
        # On the wire, JSON lists decode to (hashable) tuples; a JSON
        # object is the unhashable case and must come back as data.
        reply = service.dispatch_json(
            {"api": API_VERSION, "kind": "LedgerQuery", "tenant": {"a": 1}}
        )
        assert reply["kind"] == "ErrorReply" and reply["code"] == "protocol"

    @pytest.mark.parametrize(
        "revisable", [False, True], ids=["bulk", "per-bid"]
    )
    def test_error_codes_match_across_submit_paths(self, revisable):
        # The identical invalid envelope must yield the same stable code
        # alone and batched, and in either commit form (bulk rows for a
        # non-revisable envelope, per-bid placement for a revisable one).
        for bids in (
            (("idx", 1, ()),),        # empty schedule
            (("idx", 0, (1.0,)),),    # start before slot 1
            (("idx", 1, (-1.0,)),),   # negative value
        ):
            request = SubmitBids(tenant="a", bids=bids, revisable=revisable)
            alone = PricingService({"idx": 40.0}, horizon=2).dispatch(request)
            batched = PricingService({"idx": 40.0}, horizon=2).dispatch(
                [request]
            )[0]
            assert isinstance(alone, ErrorReply)
            assert alone.code == batched.code == "bid", (bids, alone, batched)

    def test_badly_typed_wire_fields_become_error_replies(self):
        service = PricingService({"idx": 40.0}, horizon=3)
        for payload in (
            {"api": API_VERSION, "kind": "AdvanceSlots", "slots": "three"},
            {"api": API_VERSION, "kind": "Configure", "optimizations": [], "horizon": "x"},
            {"api": API_VERSION, "kind": "RunQuery", "tenant": "t", "query": "members",
             "halo": "zero"},
            {"api": API_VERSION, "kind": "AdviseRequest", "horizon": [1]},
            # JSON numbers past float range, or infinite where an int
            # belongs, fail coercion with OverflowError.
            {"api": API_VERSION, "kind": "SubmitBids", "tenant": "t",
             "bids": [["idx", 1, [10**400]]]},
            {"api": API_VERSION, "kind": "SubmitBids", "tenant": "t",
             "bids": [["idx", float("inf"), [1.0]]]},
        ):
            reply = service.dispatch_json(payload)
            assert reply["kind"] == "ErrorReply" and reply["code"] == "protocol"
        # A horizon whose slots overflow the engine's int64 columns is
        # refused when the period opens, not when a slot wraps.
        reply = PricingService().dispatch_json(
            {"api": API_VERSION, "kind": "Configure",
             "optimizations": [["idx", 1.0]], "horizon": 2**63}
        )
        assert reply["kind"] == "ErrorReply" and reply["code"] == "game-config"

    def test_bulk_duplicates_rejected_not_double_invoiced(self):
        # dispatch() rejects a duplicate bid; the bulk path must not
        # silently accept (and double-invoice) the same envelope list.
        dup = SubmitBids(tenant="ann", bids=(("idx", 1, (50.0,)),))
        service = PricingService({"idx": 40.0}, horizon=1)
        replies = service.dispatch([dup, dup])
        assert [type(r).__name__ for r in replies] == ["BidsReply", "ErrorReply"]
        assert replies[1].code == "game-config"
        # Across two bulk runs as well.
        service2 = PricingService({"idx": 40.0}, horizon=1)
        assert [type(r).__name__ for r in service2.dispatch([dup])] == ["BidsReply"]
        second = service2.dispatch([dup])
        assert isinstance(second[0], ErrorReply) and second[0].code == "game-config"
        for report in (service.run_to_end(), service2.run_to_end()):
            assert report.payments["ann"] == 40.0


# -------------------------------------------------- per-envelope verdicts --

VERDICT_COSTS = {"a": 10.0, "b": 20.0}
VERDICT_HORIZON = 5
FAULTS = (
    "valid",
    "unknown-optimization",
    "empty-schedule",
    "start-0",
    "negative-value",
    "retroactive",
    "beyond-horizon",
    "past-int64",
)


@st.composite
def intake_batches(draw):
    """A pre-state and a batch of SubmitBids, valid and faulty mixed.

    The pre-state advances 0-2 slots after some envelopes landed alone;
    the batch mixes every fault of one bid, multi-bid envelopes,
    within-batch duplicates and re-sent landed envelopes, revisable or
    not, plus an occasional one-slot advance between them.
    """
    horizon = VERDICT_HORIZON
    advanced = draw(st.integers(0, 2))
    tenants = st.sampled_from(["t0", "t1", "t2", "t3"])

    def bid(fault, after):
        optimization = draw(st.sampled_from(sorted(VERDICT_COSTS)))
        start = draw(st.integers(after + 1, horizon))
        length = draw(st.integers(1, horizon - start + 1))
        values = draw(
            st.lists(st.floats(0.0, 15.0), min_size=length, max_size=length)
        )
        if fault == "unknown-optimization":
            optimization = "nope"
        elif fault == "empty-schedule":
            values = []
        elif fault == "start-0":
            start = 0
        elif fault == "negative-value":
            values[0] = -1.0
        elif fault == "retroactive":
            start = draw(st.integers(0, after))
        elif fault == "beyond-horizon":
            values += [1.0] * (horizon + 2 - start - len(values))
        elif fault == "past-int64":
            # 2**63 overflows int64; 2**63-1 wraps once it spans slots.
            start = 2**63 - draw(st.integers(0, 1))
            values += [1.0] * (2 - len(values))
        return (optimization, start, tuple(values))

    landed = [
        SubmitBids(tenant=draw(tenants), bids=(bid("valid", 0),))
        for _ in range(draw(st.integers(0, 3)))
    ]
    batch: list = []
    for _ in range(draw(st.integers(1, 8))):
        shape = draw(
            st.sampled_from(["one", "one", "multi", "duplicate", "re-sent", "tick"])
        )
        if shape == "duplicate" and batch:
            batch.append(draw(st.sampled_from(batch)))
        elif shape == "re-sent" and landed:
            batch.append(draw(st.sampled_from(landed)))
        elif shape == "tick":
            batch.append(AdvanceSlots(slots=1))
        else:
            count = 1 if shape == "one" else draw(st.integers(2, 3))
            batch.append(
                SubmitBids(
                    tenant=draw(tenants),
                    bids=tuple(
                        bid(draw(st.sampled_from(FAULTS)), advanced)
                        for _ in range(count)
                    ),
                    revisable=draw(st.booleans()),
                )
            )
    return landed, advanced, batch


class TestPerEnvelopeVerdicts:
    """A batch gets, envelope by envelope, the replies of dispatching the
    same envelopes one at a time: no tenant shares another's verdict."""

    @staticmethod
    def _service(landed, advanced):
        service = PricingService(VERDICT_COSTS, horizon=VERDICT_HORIZON)
        for request in landed:
            service.dispatch(request)
        if advanced:
            service.dispatch(AdvanceSlots(slots=advanced))
        return service

    @staticmethod
    def _placed(service):
        return Counter(
            (e.slot, e.user, e.detail)
            for e in service.fleet.events.of_type(BidPlaced)
        )

    @settings(max_examples=300, deadline=None)
    @given(case=intake_batches())
    def test_batched_replies_equal_one_at_a_time(self, case):
        landed, advanced, batch = case
        batched = self._service(landed, advanced)
        alone = self._service(landed, advanced)
        replies = [to_dict(reply) for reply in batched.dispatch(batch)]
        assert replies == [to_dict(alone.dispatch(request)) for request in batch]
        assert self._placed(batched) == self._placed(alone)
        assert batched.fleet.slot == alone.fleet.slot


# ------------------------------------------------------------ the facade --


class TestPricingService:
    def test_requires_open_period(self):
        service = PricingService()
        reply = service.dispatch(LedgerQuery(tenant="ann"))
        assert isinstance(reply, ErrorReply)
        assert reply.code == "game-config"
        reply = service.dispatch(
            Configure(optimizations=(("idx", 40.0),), horizon=3)
        )
        assert type(reply).__name__ == "ConfigReply"
        assert not isinstance(service.dispatch(LedgerQuery(tenant="ann")), ErrorReply)

    def test_session_binds_tenant(self):
        service = PricingService({"idx": 40.0}, horizon=3)
        session = service.session("ann")
        assert not isinstance(
            session.submit_bids([("idx", 1, (50.0,))], revisable=True),
            ErrorReply,
        )
        assert not isinstance(session.revise_bid("idx", {2: 60.0}), ErrorReply)
        service.dispatch(AdvanceSlots(slots=3))
        ledger = session.ledger()
        assert ledger.tenant == "ann"
        assert ledger.total == pytest.approx(40.0)

    def test_queries_and_advice_through_envelopes(self):
        import numpy as np

        db = Catalog()
        rng = np.random.default_rng(11)
        for name in ("snap_01", "snap_02"):
            db.create_table(
                Table.from_columns(
                    name,
                    Schema.of(pid="int", halo="int"),
                    {
                        "pid": np.arange(150),
                        "halo": rng.integers(-1, 4, size=150),
                    },
                )
            )
        service = PricingService(db_catalog=db)
        session = service.session("ada")
        members = session.run_query("members", table="snap_02", halo=0)
        assert members.units > 0 and len(members.rows) > 0
        top = session.run_query("top", tables=("snap_02", "snap_01"), halo=0)
        assert len(top.rows) == 1
        chain = session.run_query("chain", tables=("snap_02", "snap_01"), halo=0)
        assert len(chain.rows) == 2
        advice = service.dispatch(AdviseRequest(horizon=4, dollars_per_byte=1e-9))
        assert type(advice).__name__ == "AdviseReply"
        assert set(advice.adopted) <= set(advice.candidates)
        # record=False executions must not grow the workload log.
        before = len(service.log)
        session.run_query("members", table="snap_02", halo=1, record=False)
        assert len(service.log) == before

    def test_pipeline_build_service(self):
        catalog = Catalog()
        table = Table("events", Schema.of(uid="int", ts="int", payload="str"))
        table.extend((i, i * 7, f"p{i}") for i in range(1000))
        catalog.create_table(table)
        estimator = SavingsEstimator(catalog)
        narrow = CandidateView("v_uid", "events", ("uid", "ts"))
        tenants = [
            TenantWorkload(f"t{i}", "events", ("uid",), start=1, end=6)
            for i in range(4)
        ]
        service = build_service(
            estimator, tenants, [narrow], horizon=6, dollars_per_byte=1e-4
        )
        assert isinstance(service, PricingService)
        assert service.db is catalog
        report = service.run_to_end()
        assert report.implemented == {"v_uid": 1}
        statement = service.dispatch(LedgerQuery(tenant="t0"))
        assert statement.total > 0.0


# ----------------------------------------------------------------- errors --


class TestErrorMapping:
    CASES = [
        (RevisionError("x"), "revision"),
        (BidError("x"), "bid"),
        (MechanismError("x"), "mechanism"),
        (GameConfigError("x"), "game-config"),
        (SchemaError("x"), "schema"),
        (QueryError("x"), "query"),
        (ProtocolError("x"), "protocol"),
        (ProtocolError("x", code="version"), "version"),
        (ReproError("x"), "internal"),
    ]

    @pytest.mark.parametrize("exc,code", CASES, ids=lambda c: str(c))
    def test_hierarchy_maps_to_stable_codes(self, exc, code):
        if isinstance(exc, BaseException):
            assert error_code(exc) == code
            assert ErrorReply.of(exc).code == code

    def test_every_repro_error_subclass_has_a_code(self):
        def walk(cls):
            yield cls
            for sub in cls.__subclasses__():
                yield from walk(sub)

        for cls in walk(ReproError):
            exc = cls.__new__(cls)
            assert error_code(exc) != "", cls


class TestMalformedEnvelopeFuzz:
    """No malformed envelope may surface anything but ErrorReply/ReproError."""

    def _base_wires(self):
        return [to_dict(e) for e in ENVELOPE_EXAMPLES]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_decode_only_raises_repro_errors(self, data):
        wire = dict(data.draw(st.sampled_from(self._base_wires())))
        mutation = data.draw(st.sampled_from(["drop", "retype", "junk", "version"]))
        if mutation == "drop" and len(wire) > 2:
            del wire[data.draw(st.sampled_from(sorted(wire)))]
        elif mutation == "retype":
            key = data.draw(st.sampled_from(sorted(wire)))
            wire[key] = data.draw(
                st.one_of(st.none(), st.integers(), st.text(max_size=3), st.booleans())
            )
        elif mutation == "junk":
            wire[data.draw(st.text(min_size=1, max_size=6))] = data.draw(
                st.one_of(st.integers(), st.lists(st.integers(), max_size=3))
            )
        else:
            wire["api"] = data.draw(st.one_of(st.none(), st.text(max_size=4)))
        try:
            request_from_dict(wire)
        except ReproError:
            pass  # the only acceptable exception family

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_wire_dispatch_is_total(self, data):
        service = PricingService({"idx": 40.0}, horizon=3)
        payload = data.draw(
            st.one_of(
                st.none(),
                st.integers(),
                st.text(max_size=5),
                st.lists(st.integers(), max_size=3),
                st.dictionaries(st.text(max_size=6), st.integers(), max_size=4),
                st.sampled_from(self._base_wires()).map(dict),
            )
        )
        if isinstance(payload, dict) and data.draw(st.booleans()):
            payload.pop("tenant", None)
        if isinstance(payload, dict) and payload and data.draw(st.booleans()):
            # Retype one field: badly-typed scalars must become
            # ErrorReply data, never a raw TypeError.
            key = data.draw(st.sampled_from(sorted(payload)))
            payload[key] = data.draw(
                st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2))
            )
        reply = service.dispatch_json(payload)
        assert isinstance(reply, dict)
        assert reply["kind"] in {
            "ConfigReply",
            "BidsReply",
            "ReviseReply",
            "SlotReply",
            "QueryReply",
            "AdviseReply",
            "LedgerReply",
            "ErrorReply",
        }

    def test_decoded_garbage_value_objects(self):
        for junk in (
            {"type": "ShapleyResult"},
            {"type": "ShapleyResult", "serviced": 3, "price": "x", "payments": [], "rounds": 1},
            {"type": "Nope"},
            {"kind": None},
            [],
            "hello",
        ):
            with pytest.raises(ReproError):
                from_dict(junk)


# ----------------------------------------------------------------- traces --


class TestTraces:
    def test_write_then_replay_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        requests = [
            Configure(optimizations=(("idx", 40.0),), horizon=4),
            SubmitBids(tenant="ann", bids=(("idx", 1, (30.0, 15.0)),)),
            SubmitBids(tenant="bob", bids=(("idx", 1, (20.0,)),)),
            AdvanceSlots(slots=4),
            LedgerQuery(tenant="ann"),
        ]
        assert write_trace(path, requests) == 5
        result = replay(iter_trace(path))
        assert len(result.replies) == 5
        assert not result.errors
        assert result.counts()["BidsReply"] == 2
        assert result.service.report().implemented == {"idx": 1}

    def test_replay_never_raises_on_junk_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(
                [
                    "this is not json",
                    f'{{"api": "{API_VERSION}", "kind": "Mystery"}}',
                    '{"api": "9.9", "kind": "AdvanceSlots", "slots": 1}',
                    f'{{"api": "{API_VERSION}", "kind": "AdvanceSlots", "slots": 1}}',
                ]
            )
            + "\n"
        )
        result = replay(iter_trace(path))
        assert len(result.replies) == 4
        codes = [r["code"] for r in result.errors]
        assert codes == ["protocol", "protocol", "version", "game-config"]

    def test_replay_equals_direct_dispatch(self, tmp_path):
        requests = [
            Configure(optimizations=(("a", 20.0), ("b", 30.0)), horizon=5),
            SubmitBids(tenant="u1", bids=(("a", 1, (15.0, 10.0)),)),
            SubmitBids(tenant="u2", bids=(("a", 2, (12.0,)), ("b", 1, (5.0,)))),
            AdvanceSlots(slots=5),
        ]
        path = tmp_path / "t.jsonl"
        write_trace(path, requests)
        replayed = replay(iter_trace(path)).service.report()

        service = PricingService()
        service.dispatch(requests)
        direct = service.run_to_end()
        assert dict(replayed.payments) == dict(direct.payments)
        assert replayed.ledger == direct.ledger


# ---------------------------------------------------- service error paths --


class TestServiceErrorPaths:
    def _db_service(self) -> PricingService:
        db = Catalog()
        table = Table("snap_01", Schema.of(pid="int", halo="int"))
        for i in range(10):
            table.insert((i, i % 3))
        db.create_table(table)
        return PricingService(db_catalog=db)

    def test_dispatch_after_close_is_a_protocol_error(self):
        service = PricingService({"idx": 40.0}, horizon=3)
        service.close()
        reply = service.dispatch(LedgerQuery(tenant="ann"))
        assert isinstance(reply, ErrorReply)
        assert reply.code == "protocol"
        assert "closed" in reply.message
        many = service.dispatch(
            [
                SubmitBids(tenant="ann", bids=(("idx", 1, (5.0,)),)),
                AdvanceSlots(slots=1),
            ]
        )
        assert [r.code for r in many] == ["protocol", "protocol"]
        wire = service.dispatch_json(to_dict(AdvanceSlots(slots=1)))
        assert wire["kind"] == "ErrorReply"
        assert wire["code"] == "protocol"
        service.close()  # idempotent

    @pytest.mark.parametrize(
        "wire",
        [to_dict(e) for e in ENVELOPE_EXAMPLES],
        ids=lambda w: w["kind"],
    )
    def test_unknown_api_version_is_a_version_error_for_every_kind(self, wire):
        service = PricingService({"idx": 40.0}, horizon=3)
        reply = service.dispatch_json(dict(wire, api="9.9"))
        assert reply["kind"] == "ErrorReply"
        assert reply["code"] == "version"

    def test_as_of_at_the_snapshot_retention_eviction_boundary(self):
        from repro.gateway.service import SNAPSHOT_RETENTION

        service = self._db_service()
        table = service.db.table("snap_01")

        def members(as_of=None):
            return service.dispatch(
                RunQuery(
                    tenant="t", query="members", table="snap_01", halo=0,
                    as_of=as_of,
                )
            )

        pinned = []
        for i in range(SNAPSHOT_RETENTION):
            reply = members()
            assert not isinstance(reply, ErrorReply)
            pinned.append(reply.epoch)
            table.insert((100 + i, 0))
        assert len(set(pinned)) == SNAPSHOT_RETENTION
        # Exactly at capacity: the oldest pinned epoch is still served.
        at_boundary = members(as_of=pinned[0])
        assert not isinstance(at_boundary, ErrorReply)
        assert at_boundary.epoch == pinned[0]
        # Pinning one more epoch crosses the boundary and evicts it.
        over = members()
        assert not isinstance(over, ErrorReply)
        assert over.epoch not in pinned
        evicted = members(as_of=pinned[0])
        assert isinstance(evicted, ErrorReply)
        assert evicted.code == "query"
        assert str(pinned[0]) in evicted.message
        survivor = members(as_of=pinned[1])
        assert not isinstance(survivor, ErrorReply)
        assert survivor.epoch == pinned[1]

    @pytest.mark.parametrize(
        "query,params",
        [
            ("members", dict(table="nope", halo=1)),
            ("histogram", dict(table="nope", pids=(1, 2))),
            ("top", dict(tables=("snap_01", "nope"), halo=1)),
            ("chain", dict(tables=("snap_01", "nope"), halo=1)),
            ("contributors", dict(tables=("snap_01", "nope"), halo=1)),
        ],
        ids=["members", "histogram", "top", "chain", "contributors"],
    )
    def test_refused_query_records_nothing(self, tmp_path, query, params):
        # A template of a missing table in the log made every later
        # advising round fail, for every tenant, and across recovery.
        service = self._db_service()
        service.attach_wal(tmp_path)
        service.dispatch(RunQuery(tenant="t", query="members", table="snap_01", halo=1))
        before = fingerprint(service)
        bad = RunQuery(tenant="t", query=query, **params)
        reply = service.dispatch(bad)
        assert isinstance(reply, ErrorReply) and reply.code == "query"
        assert fingerprint(service) == before
        service.checkpoint()
        assert service.dispatch(bad).code == "query"
        service.close()
        recovered = PricingService.recover(tmp_path)
        try:
            assert fingerprint(recovered) == before
            advice = recovered.dispatch(AdviseRequest(horizon=4))
            assert type(advice).__name__ == "AdviseReply"
        finally:
            recovered.close()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dollars_per_byte", -1.0),
            ("dollars_per_byte", 0.0),
            ("dollars_per_byte", math.nan),
            ("dollars_per_byte", math.inf),
            ("runs_per_slot", math.nan),
            ("runs_per_slot", math.inf),
        ],
    )
    def test_refused_advice_leaves_the_catalog_alone(self, field, value):
        # Refused before the round runs ANALYZE, which moves the epoch
        # and registers statistics later plans read.
        service = self._db_service()
        service.dispatch(RunQuery(tenant="t", query="members", table="snap_01", halo=1))
        before = fingerprint(service)
        reply = service.dispatch(AdviseRequest(horizon=4, **{field: value}))
        assert isinstance(reply, ErrorReply) and reply.code == "game-config"
        assert fingerprint(service) == before


# ------------------------------------------------------ retryable contract --


class TestRetryableContract:
    """The serving-layer error codes and the ``retryable`` wire field."""

    def test_serving_exceptions_map_to_their_codes(self):
        assert error_code(OverloadedError("x")) == "overloaded"
        assert error_code(DeadlineError("x")) == "deadline_exceeded"

    def test_retryable_is_derived_from_the_code(self):
        for _exc, code in (
            (None, "overloaded"),
            (None, "deadline_exceeded"),
            (None, "bid"),
            (None, "protocol"),
            (None, "internal"),
        ):
            reply = ErrorReply(code=code, message="m", request_kind="SubmitBids")
            assert reply.retryable is (code in RETRYABLE_CODES)

    def test_retryable_codes_are_exactly_the_shed_codes(self):
        # Only errors where the server *guarantees* the request never
        # reached the pricing core may invite a retry — anything else
        # could double-submit.
        assert RETRYABLE_CODES == frozenset({"overloaded", "deadline_exceeded"})

    def test_retry_after_rides_the_exception_into_the_reply(self):
        reply = ErrorReply.of(OverloadedError("busy", retry_after=0.25))
        assert reply.code == "overloaded"
        assert reply.retryable is True
        assert reply.retry_after == 0.25

    def test_error_reply_round_trips_retry_fields(self):
        for code, retry_after in [
            ("overloaded", 0.05),
            ("deadline_exceeded", 0.0),
            ("bid", 0.0),
        ]:
            reply = ErrorReply(
                code=code,
                message="m",
                request_kind="SubmitBids",
                retry_after=retry_after,
            )
            wire = json.loads(json.dumps(to_dict(reply)))
            assert wire["retryable"] is (code in RETRYABLE_CODES)
            assert reply_from_dict(wire) == reply
            assert roundtrip(reply) == reply

    def test_legacy_error_wire_without_retryable_still_decodes(self):
        # Replies recorded before the field existed (e.g. old traces)
        # decode with retryable derived from their code.
        wire = {
            "api": API_VERSION,
            "kind": "ErrorReply",
            "code": "overloaded",
            "message": "m",
            "request_kind": "SubmitBids",
        }
        reply = reply_from_dict(wire)
        assert reply.retryable is True


# -------------------------------------------------- error-path trace replay --


class TestErrorPathTraceReplay:
    """Streams that mix requests with recorded error replies still replay."""

    def _lines(self):
        return [
            to_dict(Configure(optimizations=(("idx", 40.0),), horizon=3)),
            to_dict(SubmitBids(tenant="ann", bids=(("idx", 1, (50.0,)),))),
            to_dict(
                ErrorReply(
                    code="overloaded",
                    message="shed at the gateway",
                    request_kind="SubmitBids",
                    retry_after=0.05,
                )
            ),
            to_dict(
                ErrorReply(
                    code="deadline_exceeded",
                    message="cancelled before dispatch",
                    request_kind="LedgerQuery",
                )
            ),
            to_dict(AdvanceSlots(slots=3)),
            to_dict(LedgerQuery(tenant="ann")),
        ]

    def test_replay_preserves_ordering_and_never_raises(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = self._lines()
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        result = replay(iter_trace(path))
        # One reply per line, in order: reply records are not requests,
        # so they come back as typed protocol errors *in position* —
        # the surrounding requests still apply.
        assert len(result.replies) == len(lines)
        kinds = [r["kind"] for r in result.replies]
        assert kinds == [
            "ConfigReply",
            "BidsReply",
            "ErrorReply",
            "ErrorReply",
            "SlotReply",
            "LedgerReply",
        ]
        assert [r["code"] for r in result.errors] == ["protocol", "protocol"]
        assert result.service.report().implemented == {"idx": 1}

    def test_recorded_error_replies_decode_with_retry_fields(self):
        for wire in self._lines():
            if wire["kind"] != "ErrorReply":
                continue
            reply = reply_from_dict(json.loads(json.dumps(wire)))
            assert isinstance(reply, ErrorReply)
            assert reply.retryable is True
            assert reply.code in RETRYABLE_CODES


class TestUnifiedDispatchSurface:
    """API 1.5 folded ``dispatch_many``/``dispatch_dict`` into two entry
    points: ``dispatch`` (Request or request sequence) and
    ``dispatch_json`` (wire dicts). The warning aliases survived exactly
    one release; API 1.6 removed them."""

    def _service(self):
        return PricingService({"idx": 40.0}, horizon=3)

    def test_dispatch_takes_request_or_sequence(self):
        service = self._service()
        single = service.dispatch(SubmitBids(tenant="a", bids=(("idx", 1, (50.0,)),)))
        assert single.accepted == 1
        replies = service.dispatch(
            [
                SubmitBids(tenant="b", bids=(("idx", 1, (50.0,)),)),
                AdvanceSlots(slots=1),
            ]
        )
        assert [type(r).__name__ for r in replies] == ["BidsReply", "SlotReply"]
        # Generators are sequences too.
        more = service.dispatch(
            AdvanceSlots(slots=1) for _ in range(2)
        )
        assert [r.slot for r in more] == [2, 3]

    def test_dispatch_rejects_wire_dicts_as_data(self):
        service = self._service()
        wire = to_dict(AdvanceSlots(slots=1))
        reply = service.dispatch(wire)
        assert isinstance(reply, ErrorReply)
        assert reply.code == "protocol"
        assert "dispatch_json" in reply.message
        assert service.fleet.slot == 0  # nothing applied
        for junk in ("AdvanceSlots", b"AdvanceSlots", None, 7):
            reply = service.dispatch(junk)
            assert isinstance(reply, ErrorReply) and reply.code == "protocol"

    def test_deprecated_aliases_are_gone(self):
        service = self._service()
        assert not hasattr(service, "dispatch_many")
        assert not hasattr(service, "dispatch_dict")
        # The unified names never warn.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", DeprecationWarning)
            service.dispatch(AdvanceSlots(slots=1))
            service.dispatch_json(to_dict(AdvanceSlots(slots=1)))
