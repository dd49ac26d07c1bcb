"""Equivalence of the three online execution paths.

The batch runners, the incremental state machines, and the cloud-service
loop must agree: same cumulative sets, same grants, same payments. These
property tests replay random games through all of them; the fleet engine,
the additive service loop, is checked against the batch AddOn runner in
``tests/test_fleet.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdditiveBid, SubstitutableBid, run_addon, run_subston
from repro.cloudsim import CloudService, OptimizationCatalog
from repro.core.online import AddOnState, SubstOnState

values = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def additive_games(draw, max_users=6, max_slots=5):
    cost = draw(st.floats(0.5, 100.0, allow_nan=False))
    bids = {}
    for i in range(draw(st.integers(1, max_users))):
        start = draw(st.integers(1, max_slots))
        duration = draw(st.integers(1, max_slots - start + 1))
        bids[i] = AdditiveBid.over(
            start, draw(st.lists(values, min_size=duration, max_size=duration))
        )
    return cost, bids


@st.composite
def substitutable_games(draw, max_users=5, max_slots=4):
    n_opts = draw(st.integers(1, 3))
    costs = {j: draw(st.floats(0.5, 60.0, allow_nan=False)) for j in range(n_opts)}
    bids = {}
    for i in range(draw(st.integers(1, max_users))):
        start = draw(st.integers(1, max_slots))
        duration = draw(st.integers(1, max_slots - start + 1))
        subs = draw(
            st.sets(st.integers(0, n_opts - 1), min_size=1, max_size=n_opts)
        )
        bids[i] = SubstitutableBid.over(
            start,
            draw(st.lists(values, min_size=duration, max_size=duration)),
            subs,
        )
    return costs, bids


class TestAddOnPaths:
    @settings(max_examples=150)
    @given(game=additive_games())
    def test_state_machine_matches_batch(self, game):
        cost, bids = game
        horizon = max(b.end for b in bids.values())
        batch = run_addon(cost, bids, horizon=horizon)

        state = AddOnState(cost)
        for t in range(1, horizon + 1):
            residuals = {
                u: (b.residual(t) if t >= b.start else 0.0)
                for u, b in bids.items()
            }
            state.step(t, residuals)
            assert state.cumulative == batch.cumulative(t)
            assert state.price == pytest.approx(batch.price_by_slot[t])
        assert state.implemented_at == batch.implemented_at


class TestSubstOnPaths:
    @settings(max_examples=100)
    @given(game=substitutable_games())
    def test_state_machine_matches_batch(self, game):
        costs, bids = game
        horizon = max(b.end for b in bids.values())
        batch = run_subston(costs, bids, horizon=horizon)

        state = SubstOnState(costs)
        for t in range(1, horizon + 1):
            matrix = {}
            for user, bid in bids.items():
                if user in state.grants:
                    continue
                if t >= bid.start:
                    residual = bid.residual(t)
                    matrix[user] = {
                        j: (residual if j in bid.substitutes else 0.0)
                        for j in costs
                    }
                else:
                    matrix[user] = {j: 0.0 for j in costs}
            state.step(t, matrix)
        assert state.grants == dict(batch.grants)
        assert state.granted_at == dict(batch.granted_at)
        assert state.implemented_at == dict(batch.implemented_at)

    @settings(max_examples=80)
    @given(game=substitutable_games())
    def test_cloud_service_matches_batch(self, game):
        costs, bids = game
        horizon = max(b.end for b in bids.values())
        batch = run_subston(costs, bids, horizon=horizon)

        service = CloudService(OptimizationCatalog.from_costs(costs), horizon=horizon)
        for user, bid in bids.items():
            service.place_substitutable_bid(user, bid)
        report = service.run_to_end()

        for user in bids:
            assert report.payments.get(user, 0.0) == pytest.approx(
                batch.payment(user)
            )
        assert report.implemented == dict(batch.implemented_at)
        for user, optimization in batch.grants.items():
            assert report.grant_slot(user, optimization) == batch.granted_at[user]
