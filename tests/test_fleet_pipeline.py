"""The workload-to-bid pipeline: savings estimation through fleet pricing."""

from __future__ import annotations

import pytest

from repro import GameConfigError
from repro.db import (
    CandidateView,
    Catalog,
    CostModel,
    SavingsEstimator,
    Schema,
    Table,
)
from repro.fleet import TenantWorkload, build_fleet, candidate_catalog, workload_bid


def make_catalog(rows: int = 1000) -> Catalog:
    catalog = Catalog()
    table = Table(
        "events", Schema.of(uid="int", ts="int", payload="str", kind="int")
    )
    table.extend((i, i * 7, f"p{i}", i % 5) for i in range(rows))
    catalog.create_table(table)
    return catalog


@pytest.fixture()
def estimator() -> SavingsEstimator:
    return SavingsEstimator(make_catalog(), CostModel())


NARROW = CandidateView("v_uid_kind", "events", ("uid", "kind"))


class TestSavingsEstimator:
    def test_view_sizing(self, estimator):
        # events rows are int+int+str+int = 8+8+24+8 = 48 bytes wide; the
        # (uid, kind) view is 16 bytes per row.
        assert estimator.view_rows(NARROW) == 1000
        assert estimator.view_bytes(NARROW) == 16_000.0

    def test_saving_is_scan_byte_difference(self, estimator):
        model = estimator.model
        expected = (48_000.0 - 16_000.0) * model.scan_byte_weight
        assert estimator.saving_units_per_run(NARROW) == pytest.approx(expected)
        assert estimator.saving_seconds(NARROW, runs=2.0) == pytest.approx(
            2.0 * expected * model.seconds_per_unit
        )

    def test_filtered_view_adds_emit_savings(self, estimator):
        filtered = CandidateView(
            "v_filtered", "events", ("uid", "kind"), keep_fraction=0.5
        )
        model = estimator.model
        expected = (
            48_000.0 - 500 * 16
        ) * model.scan_byte_weight + 500 * model.emit_weight
        assert estimator.saving_units_per_run(filtered) == pytest.approx(expected)

    def test_useless_candidate_saves_nothing(self, estimator):
        wide = CandidateView(
            "v_wide", "events", ("uid", "ts", "payload", "kind")
        )
        assert estimator.saving_units_per_run(wide) == 0.0

    def test_build_cost_positive(self, estimator):
        assert estimator.build_units(NARROW) > 0

    def test_index_saving_clamped(self, estimator):
        generous = estimator.index_saving_units("events", probes=1, expected_matches=1)
        assert generous > 0
        hopeless = estimator.index_saving_units(
            "events", probes=10**9, expected_matches=0
        )
        assert hopeless == 0.0

    def test_candidate_validation(self):
        with pytest.raises(GameConfigError):
            CandidateView("v", "events", ())
        with pytest.raises(GameConfigError):
            CandidateView("v", "events", ("uid",), keep_fraction=0.0)
        with pytest.raises(GameConfigError):
            CandidateView("v", "events", ("uid",), keep_fraction=1.5)

    def test_negative_runs_rejected(self, estimator):
        with pytest.raises(GameConfigError):
            estimator.saving_seconds(NARROW, runs=-1.0)


class TestWorkloadBid:
    def workload(self, **overrides) -> TenantWorkload:
        fields = dict(
            tenant="acme",
            table_name="events",
            columns=("uid", "kind"),
            start=2,
            end=5,
            runs_per_slot=3.0,
        )
        fields.update(overrides)
        return TenantWorkload(**fields)

    def test_bid_spans_service_interval(self, estimator):
        bid = workload_bid(estimator, self.workload(), NARROW)
        assert bid is not None
        assert (bid.start, bid.end) == (2, 5)
        per_slot = estimator.saving_seconds(NARROW, 3.0)
        assert bid.value_at(3) == pytest.approx(per_slot)
        assert bid.total() == pytest.approx(4 * per_slot)

    def test_wrong_table_or_columns_yield_no_bid(self, estimator):
        other = CandidateView("v_other", "other_table", ("uid",))
        assert workload_bid(estimator, self.workload(), other) is None
        uncovering = CandidateView("v_uid", "events", ("uid",))
        assert (
            workload_bid(estimator, self.workload(), uncovering) is None
        ), "candidate missing a needed column cannot help"

    def test_workload_validation(self):
        with pytest.raises(GameConfigError):
            self.workload(start=0)
        with pytest.raises(GameConfigError):
            self.workload(end=1)
        with pytest.raises(GameConfigError):
            self.workload(runs_per_slot=-1.0)


class TestBuildFleet:
    def test_catalog_prices_storage(self, estimator):
        catalog = candidate_catalog(estimator, [NARROW], dollars_per_byte=0.001)
        assert catalog.get("v_uid_kind").cost == pytest.approx(16.0)
        assert catalog.get("v_uid_kind").kind == "view"
        with pytest.raises(GameConfigError):
            candidate_catalog(estimator, [NARROW], dollars_per_byte=0.0)

    def test_tenants_fund_a_worthwhile_view(self, estimator):
        workloads = [
            TenantWorkload(f"tenant-{i}", "events", ("uid", "kind"), 1, 6)
            for i in range(4)
        ]
        engine = build_fleet(
            estimator, workloads, [NARROW], horizon=6, dollars_per_byte=1e-4
        )
        report = engine.run_to_end()
        # Four tenants each save 32 units/slot (0.032 s); the view costs
        # 1.6: residuals 4 x 0.192 >> 1.6 at slot 1.
        assert report.implemented == {"v_uid_kind": 1}
        cost = engine.catalog.get("v_uid_kind").cost
        assert report.revenue_of("v_uid_kind") >= cost - 1e-9
        assert set(report.payments) == {f"tenant-{i}" for i in range(4)}

    def test_hopeless_view_stays_unbuilt(self, estimator):
        workloads = [
            TenantWorkload("solo", "events", ("uid", "kind"), 1, 2, 0.001)
        ]
        engine = build_fleet(
            estimator, workloads, [NARROW], horizon=3, dollars_per_byte=10.0
        )
        report = engine.run_to_end()
        assert report.implemented == {}
        assert report.ledger.revenue == 0.0

    def test_workload_beyond_horizon_rejected(self, estimator):
        workloads = [TenantWorkload("acme", "events", ("uid",), 1, 9)]
        candidates = [CandidateView("v_uid", "events", ("uid",))]
        with pytest.raises(GameConfigError):
            build_fleet(
                estimator, workloads, candidates, horizon=5, dollars_per_byte=1.0
            )
