"""Integration tests for the cloud-service simulation layer."""

from __future__ import annotations

import math

import pytest

from repro import (
    AdditiveBid,
    BidError,
    GameConfigError,
    MechanismError,
    RevisionError,
    SubstitutableBid,
)
from repro.cloudsim import (
    BillingLedger,
    CloudService,
    EventLog,
    OptimizationCatalog,
    OptimizationImplemented,
    OptimizationSpec,
    UserCharged,
    UserGranted,
)
from repro.fleet import FleetEngine


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = OptimizationCatalog()
        catalog.register(OptimizationSpec("idx", 10.0, kind="index"))
        assert "idx" in catalog
        assert catalog.get("idx").cost == 10.0
        assert len(catalog) == 1

    def test_from_costs(self):
        catalog = OptimizationCatalog.from_costs({"a": 1.0, "b": 2.0})
        assert catalog.costs == {"a": 1.0, "b": 2.0}

    def test_duplicate_rejected(self):
        catalog = OptimizationCatalog.from_costs({"a": 1.0})
        with pytest.raises(GameConfigError):
            catalog.register(OptimizationSpec("a", 2.0))

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(GameConfigError):
            OptimizationSpec("a", 0.0)

    def test_unknown_lookup(self):
        with pytest.raises(GameConfigError):
            OptimizationCatalog().get("ghost")


class TestLedger:
    def test_balance(self):
        ledger = BillingLedger()
        ledger.build_outlay(1, "idx", 100.0)
        ledger.invoice(1, "ann", 60.0)
        ledger.invoice(2, "bob", 50.0)
        assert ledger.revenue == pytest.approx(110.0)
        assert ledger.outlays == pytest.approx(100.0)
        assert ledger.balance == pytest.approx(10.0)

    def test_statement(self):
        ledger = BillingLedger()
        ledger.invoice(1, "ann", 10.0, memo="a")
        ledger.invoice(2, "ann", 20.0, memo="b")
        ledger.invoice(2, "bob", 5.0)
        assert ledger.paid_by("ann") == pytest.approx(30.0)
        assert [e.memo for e in ledger.statement("ann")] == ["a", "b"]

    def test_validation(self):
        ledger = BillingLedger()
        with pytest.raises(GameConfigError):
            ledger.invoice(1, "ann", -1.0)
        with pytest.raises(GameConfigError):
            ledger.build_outlay(1, "idx", 0.0)


class TestAdditiveService:
    """Replays paper Example 3 through a one-game fleet engine, the AddOn
    service loop."""

    def make_service(self):
        catalog = OptimizationCatalog.from_costs({"opt": 100.0})
        service = FleetEngine(catalog, horizon=3)
        service.place_bid(1, "opt", AdditiveBid.over(1, [101.0]))
        service.place_bid(2, "opt", AdditiveBid.over(1, [16.0, 16.0, 16.0]))
        return service

    def test_example_3_trace(self):
        service = self.make_service()
        service.advance_slot()  # t=1: only user 1 serviced, pays 100
        assert service.report().payments.get(1) == pytest.approx(100.0)
        # Users 3 and 4 arrive before slot 2.
        service.place_bid(3, "opt", AdditiveBid.over(2, [26.0]))
        service.place_bid(4, "opt", AdditiveBid.over(2, [26.0]))
        report = service.run_to_end()
        assert report.payments[2] == pytest.approx(25.0)
        assert report.payments[3] == pytest.approx(25.0)
        assert report.payments[4] == pytest.approx(25.0)
        assert report.ledger.revenue == pytest.approx(175.0)
        assert report.cloud_balance == pytest.approx(75.0)
        assert report.implemented == {"opt": 1}

    def test_events_recorded(self):
        service = self.make_service()
        report = service.run_to_end()
        implemented = list(report.events.of_type(OptimizationImplemented))
        assert len(implemented) == 1
        assert implemented[0].slot == 1
        granted = list(report.events.of_type(UserGranted))
        assert {(e.user, e.slot) for e in granted} == {(1, 1)}
        charged = list(report.events.of_type(UserCharged))
        assert len(charged) == 1  # user 2's share never fits; only 1 pays

    def test_grant_slots(self):
        service = self.make_service()
        service.advance_slot()
        service.place_bid(3, "opt", AdditiveBid.over(2, [26.0]))
        service.place_bid(4, "opt", AdditiveBid.over(2, [26.0]))
        report = service.run_to_end()
        assert report.grant_slot(1, "opt") == 1
        assert report.grant_slot(2, "opt") == 2
        assert report.grant_slot(3, "opt") == 2

    def test_retroactive_bid_rejected(self):
        service = self.make_service()
        service.advance_slot()
        with pytest.raises(GameConfigError):
            service.place_bid(9, "opt", AdditiveBid.over(1, [50.0]))

    def test_bid_beyond_horizon_rejected(self):
        service = self.make_service()
        with pytest.raises(GameConfigError):
            service.place_bid(9, "opt", AdditiveBid.over(3, [1.0, 1.0]))

    def test_upward_revision_through_service(self):
        catalog = OptimizationCatalog.from_costs({"opt": 100.0})
        service = FleetEngine(catalog, horizon=2)
        service.place_bid(1, "opt", AdditiveBid.over(1, [40.0, 40.0]))
        service.advance_slot()  # 80 < 100: not implemented
        assert service.report().implemented == {}
        service.revise_bid(1, "opt", {2: 120.0})
        report = service.run_to_end()
        assert report.implemented == {"opt": 2}
        assert report.payments[1] == pytest.approx(100.0)

    def test_downward_revision_rejected(self):
        catalog = OptimizationCatalog.from_costs({"opt": 100.0})
        service = FleetEngine(catalog, horizon=2)
        service.place_bid(1, "opt", AdditiveBid.over(1, [40.0, 40.0]))
        with pytest.raises(RevisionError):
            service.revise_bid(1, "opt", {2: 10.0})

    def test_advance_past_horizon_rejected(self):
        service = self.make_service()
        service.run_to_end()
        with pytest.raises(MechanismError):
            service.advance_slot()


class TestSubstitutableService:
    """Replays paper Example 8 through the live service."""

    def test_example_8_trace(self):
        catalog = OptimizationCatalog.from_costs(
            {1: 60.0, 2: 100.0, 3: 50.0}, kind="view"
        )
        service = CloudService(catalog, horizon=3)
        service.place_substitutable_bid(
            1, SubstitutableBid.over(1, [50.0, 50.0], {1, 2})
        )
        service.advance_slot()
        service.place_substitutable_bid(
            2, SubstitutableBid.over(2, [50.0, 50.0], {1, 2, 3})
        )
        service.advance_slot()
        service.place_substitutable_bid(
            3, SubstitutableBid.over(3, [100.0], {3})
        )
        report = service.run_to_end()
        assert report.implemented == {1: 1, 3: 3}
        assert report.payments[1] == pytest.approx(30.0)
        assert report.payments[2] == pytest.approx(30.0)
        assert report.payments[3] == pytest.approx(50.0)
        assert report.cloud_balance == pytest.approx(0.0)
        assert report.grant_slot(2, 1) == 2

    def test_duplicate_bid_rejected(self):
        catalog = OptimizationCatalog.from_costs({1: 60.0})
        service = CloudService(catalog, horizon=2)
        service.place_substitutable_bid(1, SubstitutableBid.single_slot(1, 70.0, {1}))
        with pytest.raises(GameConfigError):
            service.place_substitutable_bid(
                1, SubstitutableBid.single_slot(2, 70.0, {1})
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_bid_refused_and_period_runs_out(self, bad):
        catalog = OptimizationCatalog.from_costs({"a": 10.0})
        service = CloudService(catalog, horizon=3)
        service.place_substitutable_bid(2, SubstitutableBid.over(1, [20.0], {"a"}))
        with pytest.raises(BidError):
            service.place_substitutable_bid(1, SubstitutableBid.over(2, [bad], {"a"}))
        report = service.run_to_end()
        assert service.slot == 3
        assert report.payments == {2: pytest.approx(10.0)}
        assert report.implemented == {"a": 1}

    def test_unknown_substitute_rejected(self):
        catalog = OptimizationCatalog.from_costs({1: 60.0})
        service = CloudService(catalog, horizon=2)
        with pytest.raises(GameConfigError):
            service.place_substitutable_bid(
                1, SubstitutableBid.single_slot(1, 70.0, {"ghost"})
            )


class TestServiceConfig:
    def test_bad_horizon(self):
        with pytest.raises(GameConfigError):
            CloudService(OptimizationCatalog.from_costs({"a": 1.0}), horizon=0)

    def test_empty_catalog(self):
        with pytest.raises(GameConfigError):
            CloudService(OptimizationCatalog(), horizon=1)

    def test_event_log_filters(self):
        log = EventLog()
        log.record(UserCharged(1, "ann", 5.0))
        log.record(UserCharged(2, "bob", 5.0))
        assert len(log) == 2
        assert len(list(log.of_type(UserCharged))) == 2
        assert len(list(log.in_slot(1))) == 1
