"""The fleet engine against the seed path, property-tested bit-for-bit.

The acceptance contract of ``repro.fleet``: running N games through one
:class:`~repro.fleet.engine.FleetEngine` must produce *exactly* the
grants, prices, payments, and implementation slots of running each game
through its own :class:`~repro.cloudsim.service.CloudService` (which the
online-equivalence suite in turn ties to the batch mechanism runners).
Also covered: bulk-vs-per-bid intake parity, shard-count invariance,
replay determinism, and the ledger/event-log invariants of the fleet path.
"""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdditiveBid, GameConfigError, MechanismError, ProtocolError
from repro.cloudsim import (
    BidPlaced,
    CloudService,
    OptimizationCatalog,
    OptimizationImplemented,
    UserCharged,
    UserDeparted,
    UserGranted,
)
from repro.core.online import AddOnState, step_changed_many
from repro.fleet import FleetBatch, FleetEngine, ShardMap
from repro.fleet import engine as fleet_engine
from repro.workloads import fleet_arrival_trace, fleet_batches, fleet_game_costs

values = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def fleet_games(draw, max_games=4, max_users=8, max_slots=5):
    """A multi-game additive population plus upward revision events."""
    n_games = draw(st.integers(1, max_games))
    costs = {
        f"g{j}": draw(st.floats(0.5, 120.0, allow_nan=False))
        for j in range(n_games)
    }
    n_users = draw(st.integers(1, max_users))
    bids = []
    for i in range(n_users):
        game = f"g{draw(st.integers(0, n_games - 1))}"
        start = draw(st.integers(1, max_slots))
        duration = draw(st.integers(1, max_slots - start + 1))
        schedule = draw(st.lists(values, min_size=duration, max_size=duration))
        bids.append((i, game, AdditiveBid.over(start, schedule)))
    revisions = []
    for i, game, bid in bids:
        if draw(st.booleans()):
            continue
        at = draw(st.integers(1, max_slots))
        slot = draw(st.integers(at, max_slots + 1))
        bump = draw(st.floats(0.0, 30.0, allow_nan=False))
        revisions.append((at, i, game, slot, bump))
    return costs, bids, sorted(revisions), max_slots + 1


def _run_fleet(costs, bids, revisions, horizon, shards=1):
    engine = FleetEngine(
        OptimizationCatalog.from_costs(costs), horizon=horizon, shards=shards
    )
    handles = {}
    for user, game, bid in bids:
        handles[(user, game)] = engine.place_bid(user, game, bid)
    pending = list(revisions)
    while engine.slot < horizon:
        upcoming = engine.slot + 1
        while pending and pending[0][0] == upcoming:
            _, user, game, slot, bump = pending.pop(0)
            current = handles[(user, game)].current
            engine.revise_bid(
                user, game, {slot: current.value_at(slot) + bump}
            )
        engine.advance_slot()
    return engine.run_to_end()


def _run_services(costs, bids, revisions, horizon):
    services = {
        game: CloudService(
            OptimizationCatalog.from_costs({game: cost}),
            horizon=horizon,
            mode="additive",
        )
        for game, cost in costs.items()
    }
    handles = {}
    for user, game, bid in bids:
        handles[(user, game)] = services[game].place_additive_bid(user, game, bid)
    pending = list(revisions)
    for upcoming in range(1, horizon + 1):
        while pending and pending[0][0] == upcoming:
            _, user, game, slot, bump = pending.pop(0)
            current = handles[(user, game)].current
            services[game].revise_additive_bid(
                user, game, {slot: current.value_at(slot) + bump}
            )
        for service in services.values():
            service.advance_slot()
    return {game: service.report() for game, service in services.items()}


def _merge_reports(reports):
    payments: dict = {}
    granted: dict = {}
    implemented: dict = {}
    revenue = 0.0
    for report in reports.values():
        for user, paid in report.payments.items():
            payments[user] = payments.get(user, 0.0) + paid
        granted.update(report.granted_at)
        implemented.update(report.implemented)
        revenue += report.ledger.revenue
    return payments, granted, implemented, revenue


class TestFleetMatchesSeedPath:
    @settings(max_examples=120, deadline=None)
    @given(game=fleet_games())
    def test_bit_for_bit_identical(self, game):
        costs, bids, revisions, horizon = game
        fleet = _run_fleet(costs, bids, revisions, horizon)
        payments, granted, implemented, revenue = _merge_reports(
            _run_services(costs, bids, revisions, horizon)
        )
        # Exact equality on purpose: both paths must compute the same
        # floats, not merely close ones. (Total revenue is a cross-game
        # sum, so only its association order differs — approx there.)
        assert dict(fleet.payments) == payments
        assert dict(fleet.granted_at) == granted
        assert dict(fleet.implemented) == implemented
        assert fleet.ledger.revenue == pytest.approx(revenue, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(game=fleet_games(), shards=st.integers(1, 6))
    def test_shard_count_never_changes_outcomes(self, game, shards):
        costs, bids, revisions, horizon = game
        one = _run_fleet(costs, bids, revisions, horizon, shards=1)
        many = _run_fleet(costs, bids, revisions, horizon, shards=shards)
        assert dict(one.payments) == dict(many.payments)
        assert dict(one.granted_at) == dict(many.granted_at)
        assert dict(one.implemented) == dict(many.implemented)

    @settings(max_examples=40, deadline=None)
    @given(game=fleet_games())
    def test_replay_is_deterministic(self, game):
        costs, bids, revisions, horizon = game
        first = _run_fleet(costs, bids, revisions, horizon, shards=3)
        second = _run_fleet(costs, bids, revisions, horizon, shards=3)
        assert first.events.all() == second.events.all()
        assert first.ledger.entries == second.ledger.entries


class TestPlacementTimeInvariance:
    """Outcomes depend on the bids, not on the slot they were placed at."""

    # Up to ten slots of placements; a block limit of 1 or 2 makes the
    # engine merge blocks at nearly every slot.
    @settings(max_examples=120, deadline=None)
    @given(
        game=fleet_games(max_users=12, max_slots=10),
        shards=st.integers(1, 4),
        max_blocks=st.sampled_from([1, 2, 8]),
        data=st.data(),
    )
    def test_late_placement_matches_placing_everything_first(
        self, game, shards, max_blocks, data
    ):
        costs, bids, revisions, horizon = game
        reference = _run_fleet(costs, bids, revisions, horizon, shards=shards)
        first_revision: dict = {}
        for at, user, bid_game, _, _ in revisions:
            first_revision.setdefault((user, bid_game), at)
        # Each bid lands at a random slot before its start (and before its
        # first revision), through place_bid or a one-row ingest_many;
        # revised bids need place_bid's handle.
        placements: dict = {}
        for user, bid_game, bid in bids:
            revised_at = first_revision.get((user, bid_game))
            latest = min(bid.start, revised_at or bid.start) - 1
            slot = data.draw(st.integers(0, latest))
            bulk = revised_at is None and data.draw(st.booleans())
            placements.setdefault(slot, []).append((user, bid_game, bid, bulk))
        engine = FleetEngine(
            OptimizationCatalog.from_costs(costs), horizon=horizon, shards=shards
        )
        handles = {}
        pending = list(revisions)
        with mock.patch.object(fleet_engine, "_MAX_BLOCKS", max_blocks):
            self._feed(engine, placements, pending, handles)
        late = engine.report()
        assert dict(late.payments) == dict(reference.payments)
        assert dict(late.granted_at) == dict(reference.granted_at)
        assert dict(late.implemented) == dict(reference.implemented)
        assert dict(late.game_revenue) == dict(reference.game_revenue)

    @staticmethod
    def _feed(engine, placements, pending, handles):
        while engine.slot < engine.horizon:
            for user, bid_game, bid, bulk in placements.get(engine.slot, ()):
                if bulk:
                    engine.ingest_many(
                        [
                            FleetBatch(
                                users=(user,),
                                opt_ranks=np.array([engine.rank_of(bid_game)]),
                                starts=np.array([bid.start]),
                                values=np.array([bid.schedule.values]),
                            )
                        ]
                    )
                else:
                    handles[(user, bid_game)] = engine.place_bid(user, bid_game, bid)
            while pending and pending[0][0] == engine.slot + 1:
                _, user, bid_game, slot, bump = pending.pop(0)
                current = handles[(user, bid_game)].current
                engine.revise_bid(user, bid_game, {slot: current.value_at(slot) + bump})
            engine.advance_slot()


class TestBulkIngestParity:
    """The columnar intake must match per-bid placement exactly."""

    GAMES, USERS, SLOTS = 23, 2_000, 120

    # Intake shapes: one batch per duration (the generators' shape), and
    # one ingest_many call per bid in arrival order with durations
    # interleaved (the shape HTTP intake produces).
    @pytest.fixture(scope="class", params=["per_duration", "per_bid_calls"])
    def pair(self, request):
        costs = fleet_game_costs(5, self.GAMES, mean_cost=12.0)
        catalog = OptimizationCatalog.from_costs(costs)
        arrivals = fleet_arrival_trace(6, self.USERS, self.GAMES, self.SLOTS)
        bulk = FleetEngine(catalog, horizon=self.SLOTS, shards=4)
        if request.param == "per_duration":
            for batch in fleet_batches(6, self.USERS, self.GAMES, self.SLOTS):
                bulk.ingest(batch)
        else:
            for arrival in arrivals:
                batch = FleetBatch(
                    users=(arrival.user,),
                    opt_ranks=np.array([bulk.rank_of(arrival.optimization)]),
                    starts=np.array([arrival.bid.start]),
                    values=np.array([arrival.bid.schedule.values]),
                )
                bulk.ingest_many([batch])
        per_bid = FleetEngine(catalog, horizon=self.SLOTS, shards=4)
        for arrival in arrivals:
            per_bid.place_bid(arrival.user, arrival.optimization, arrival.bid)
        return bulk.run_to_end(), per_bid.run_to_end()

    def test_outcomes_identical(self, pair):
        bulk, per_bid = pair
        assert dict(bulk.payments) == dict(per_bid.payments)
        assert dict(bulk.granted_at) == dict(per_bid.granted_at)
        assert dict(bulk.implemented) == dict(per_bid.implemented)
        assert dict(bulk.game_revenue) == dict(per_bid.game_revenue)
        assert bulk.ledger.revenue == per_bid.ledger.revenue

    def test_mechanism_event_stream_identical(self, pair, request):
        # BidPlaced detail differs between intake paths by design, and
        # same-slot departures follow row order. One ingest_many call per
        # bid appends the rows in the per-bid path's order, so there the
        # whole event log and ledger match in order; one batch per
        # duration reorders the rows, so the grant/implementation
        # sequence and the per-slot departure and charge sets must match.
        bulk, per_bid = pair

        def stream(report):
            return [
                replace(e, detail="") if isinstance(e, BidPlaced) else e
                for e in report.events.all()
            ]

        if request.node.callspec.params["pair"] == "per_bid_calls":
            assert stream(bulk) == stream(per_bid)
            assert bulk.ledger.entries == per_bid.ledger.entries

        def grant_sequence(report):
            keep = (UserGranted, OptimizationImplemented)
            return [e for e in report.events.all() if isinstance(e, keep)]

        def per_slot(report, event_type, key):
            slots: dict = {}
            for event in report.events.of_type(event_type):
                slots.setdefault(event.slot, set()).add(key(event))
            return slots

        assert grant_sequence(bulk) == grant_sequence(per_bid)
        assert per_slot(bulk, UserDeparted, lambda e: e.user) == per_slot(
            per_bid, UserDeparted, lambda e: e.user
        )
        assert per_slot(bulk, UserCharged, lambda e: (e.user, e.amount)) == (
            per_slot(per_bid, UserCharged, lambda e: (e.user, e.amount))
        )

    def test_some_games_actually_funded(self, pair):
        bulk, _ = pair
        assert bulk.implemented, "vacuous parity: no game ever implemented"
        assert len(bulk.implemented) < self.GAMES, (
            "vacuous parity: every game implemented instantly"
        )


class TestFleetInvariants:
    """Ledger and event-log invariants under the fleet path."""

    @pytest.fixture(scope="class")
    def report(self):
        costs = fleet_game_costs(11, 30, mean_cost=10.0)
        engine = FleetEngine(
            OptimizationCatalog.from_costs(costs), horizon=150, shards=8
        )
        for batch in fleet_batches(12, 3_000, 30, 150):
            engine.ingest(batch)
        return engine.run_to_end()

    def test_events_slot_ordered_across_shards(self, report):
        slots = [event.slot for event in report.events.all()]
        assert slots == sorted(slots)

    def test_invoices_at_departure_equal_per_game_revenue(self, report):
        per_game: dict = {}
        for entry in report.ledger.entries:
            if entry.kind == "invoice":
                per_game[entry.memo] = per_game.get(entry.memo, 0.0) + entry.amount
        for game in report.games:
            assert per_game.get(f"opt={game!r}", 0.0) == pytest.approx(
                report.revenue_of(game), abs=1e-12
            )

    def test_charges_match_ledger(self, report):
        charged = sum(e.amount for e in report.events.of_type(UserCharged))
        assert charged == pytest.approx(report.ledger.revenue)
        assert report.ledger.revenue == pytest.approx(
            sum(report.payments.values())
        )

    def test_every_implemented_game_recovers_its_cost(self, report):
        costs = {e.party: -e.amount for e in report.ledger.entries if e.kind == "build"}
        assert set(costs) == set(report.implemented)
        for game, cost in costs.items():
            # Departing users pay the share at their departure slot, which
            # only falls afterwards: total revenue covers the build.
            assert report.revenue_of(game) >= cost - 1e-9

    def test_grants_precede_charges(self, report):
        granted_slots = {
            (e.user, e.optimization): e.slot
            for e in report.events.of_type(UserGranted)
        }
        assert granted_slots == dict(report.granted_at)
        implemented_slots = {
            e.optimization: e.slot
            for e in report.events.of_type(OptimizationImplemented)
        }
        assert implemented_slots == dict(report.implemented)

    def test_every_user_departs_exactly_once(self, report):
        departures = [e.user for e in report.events.of_type(UserDeparted)]
        assert len(departures) == len(set(departures)) == 3_000
        assert set(report.payments) == set(departures)


class TestFleetApi:
    def catalog(self, n=3, cost=60.0):
        return OptimizationCatalog.from_costs({f"g{j}": cost for j in range(n)})

    def test_config_validation(self):
        with pytest.raises(GameConfigError):
            FleetEngine(self.catalog(), horizon=0)
        with pytest.raises(GameConfigError):
            FleetEngine(OptimizationCatalog(), horizon=5)
        with pytest.raises(GameConfigError):
            FleetEngine(self.catalog(), horizon=5, shards=0)

    def test_place_bid_validation(self):
        engine = FleetEngine(self.catalog(), horizon=5)
        with pytest.raises(GameConfigError):
            engine.place_bid(1, "ghost", AdditiveBid.over(1, [5.0]))
        with pytest.raises(GameConfigError):
            engine.place_bid(1, "g0", AdditiveBid.over(4, [1.0, 1.0, 1.0]))
        engine.place_bid(1, "g0", AdditiveBid.over(2, [5.0]))
        with pytest.raises(GameConfigError):
            engine.place_bid(1, "g0", AdditiveBid.over(3, [5.0]))
        engine.advance_slot()
        with pytest.raises(GameConfigError):
            engine.place_bid(2, "g0", AdditiveBid.over(1, [5.0]))

    def test_ingest_validation(self):
        engine = FleetEngine(self.catalog(), horizon=5)

        def batch(**overrides):
            fields = dict(
                users=(1, 2),
                opt_ranks=np.array([0, 1]),
                starts=np.array([1, 2]),
                values=np.array([[3.0, 1.0], [2.0, 0.5]]),
            )
            fields.update(overrides)
            return FleetBatch(**fields)

        with pytest.raises(GameConfigError):
            engine.ingest(batch(starts=np.array([0, 2])))
        with pytest.raises(GameConfigError):
            engine.ingest(batch(starts=np.array([1, 5])))
        with pytest.raises(GameConfigError):
            engine.ingest(batch(opt_ranks=np.array([0, 9])))
        with pytest.raises(GameConfigError):
            engine.ingest(batch(values=np.array([[3.0, 1.0], [2.0, -0.5]])))
        assert engine.ingest(batch()) == 2
        engine.advance_slot()
        # Late intake is open, but a start at or before the current slot
        # is retroactive and the whole call commits nothing.
        epoch, events = engine.epoch, len(engine.events)
        with pytest.raises(GameConfigError):
            engine.ingest_many(
                [
                    batch(users=(3, 4), starts=np.array([2, 3])),
                    batch(users=(5, 6), starts=np.array([2, 1])),
                ]
            )
        assert (engine.epoch, len(engine.events)) == (epoch, events)
        assert engine.ingest(batch(users=(3, 4), starts=np.array([2, 3]))) == 2

    def test_ragged_batch_values_are_protocol_errors(self):
        with pytest.raises(ProtocolError):
            FleetBatch(
                users=("a", "b"),
                opt_ranks=np.array([0, 1]),
                starts=np.array([1, 1]),
                values=[[1.0, 2.0], [3.0]],
            )

    def test_misaligned_batch_columns_are_config_errors(self):
        with pytest.raises(GameConfigError):
            FleetBatch(
                users=("a", "b", "c"),
                opt_ranks=np.array([0, 1]),
                starts=np.array([1, 1]),
                values=np.ones((2, 2)),
            )

    def test_rank_round_trip(self):
        engine = FleetEngine(self.catalog(), horizon=5)
        assert [engine.rank_of(g) for g in engine.report().games] == [0, 1, 2]
        with pytest.raises(GameConfigError):
            engine.rank_of("ghost")

    def test_handle_bid_duplicating_bulk_bid_rejected(self):
        catalog = OptimizationCatalog.from_costs({"g0": 10.0, "g1": 10.0})
        engine = FleetEngine(catalog, horizon=5)
        engine.ingest(
            FleetBatch(
                users=("ann", "bob"),
                opt_ranks=np.array([0, 1]),
                starts=np.array([1, 2]),
                values=np.array([[3.0, 1.0], [2.0, 0.5]]),
            )
        )
        with pytest.raises(GameConfigError, match="already bid"):
            engine.place_bid("ann", "g0", AdditiveBid.over(2, [5.0]))
        # ... and symmetrically: a bulk bid landing on a handle-taken
        # (user, game) pair is rejected at ingest.
        engine.place_bid("cara", "g0", AdditiveBid.over(2, [5.0]))
        with pytest.raises(GameConfigError, match="already bid"):
            engine.ingest(
                FleetBatch(
                    users=("cara",),
                    opt_ranks=np.array([0]),
                    starts=np.array([1]),
                    values=np.array([[4.0]]),
                )
            )
        # Same user on a *different* game is fine.
        engine.place_bid("ann", "g1", AdditiveBid.over(3, [5.0]))
        report = engine.run_to_end()
        assert [e.user for e in report.events.of_type(UserDeparted)].count(
            "ann"
        ) == 2  # one departure per distinct end slot, never doubled

    def test_mixed_intake_keeps_shard_major_event_order(self):
        # A bulk bid on rank 1 and a handle bid on rank 0, both granting
        # in the same slot: rank 0 must step (and emit) first.
        catalog = OptimizationCatalog.from_costs({"g0": 10.0, "g1": 10.0})
        engine = FleetEngine(catalog, horizon=3)
        engine.ingest(
            FleetBatch(
                users=("bulk",),
                opt_ranks=np.array([1]),
                starts=np.array([2]),
                values=np.array([[12.0]]),
            )
        )
        engine.place_bid("handle", "g0", AdditiveBid.over(2, [12.0]))
        report = engine.run_to_end()
        grants = [
            (e.optimization, e.user) for e in report.events.of_type(UserGranted)
        ]
        assert grants == [("g0", "handle"), ("g1", "bulk")]

    def test_handle_bid_on_funded_bulk_game(self):
        # A per-bid placement landing on a game the bulk path already
        # funded must merge into the same slot step, not double-step it.
        catalog = OptimizationCatalog.from_costs({"g0": 10.0})
        engine = FleetEngine(catalog, horizon=6)
        engine.ingest(
            FleetBatch(
                users=("bulk-1", "bulk-2"),
                opt_ranks=np.array([0, 0]),
                starts=np.array([1, 1]),
                values=np.array([[8.0, 8.0], [8.0, 8.0]]),
            )
        )
        engine.advance_slot()  # funds g0: 16 >= 10
        assert engine.report().implemented == {"g0": 1}
        engine.place_bid("late", "g0", AdditiveBid.over(2, [9.0, 9.0]))
        report = engine.run_to_end()
        assert report.grant_slot("late", "g0") == 2
        assert report.payments["late"] > 0

    def test_late_bid_funding_a_cold_game_reaches_older_blocks(self):
        # ann and cara alone never cover g0's cost, so their block,
        # finalized at slot 2, skips g0 entirely; bob's later bid funds g0
        # at slot 3, after which cara's slot-5 entry from the older block
        # must still be stepped.
        def run(bob_at):
            engine = FleetEngine(
                OptimizationCatalog.from_costs({"g0": 10.0}), horizon=6
            )
            engine.ingest(
                FleetBatch(
                    users=("ann", "cara"),
                    opt_ranks=np.array([0, 0]),
                    starts=np.array([2, 5]),
                    values=np.array([[0.0, 6.0], [9.0, 0.0]]),
                )
            )
            for _ in range(bob_at):
                engine.advance_slot()
            engine.place_bid("bob", "g0", AdditiveBid.over(3, [5.0]))
            return engine.run_to_end()

        late, early = run(bob_at=2), run(bob_at=0)
        assert late.implemented == {"g0": 3}
        assert late.grant_slot("cara", "g0") == 5
        assert dict(late.payments) == dict(early.payments)
        assert dict(late.granted_at) == dict(early.granted_at)

    def test_merged_block_keeps_both_gate_profiles(self):
        # ann's block alone never covers g0's cost; bob's block merges
        # into it at slot 3, and only their profiles together fund g0.
        def run(bob_at):
            engine = FleetEngine(
                OptimizationCatalog.from_costs({"g0": 10.0}), horizon=5
            )
            engine.place_bid("ann", "g0", AdditiveBid.over(2, [0.0, 6.0]))
            for _ in range(bob_at):
                engine.advance_slot()
            engine.place_bid("bob", "g0", AdditiveBid.over(3, [6.0]))
            return engine.run_to_end()

        with mock.patch.object(fleet_engine, "_MAX_BLOCKS", 1):
            late = run(bob_at=2)
        early = run(bob_at=0)
        assert late.implemented == early.implemented == {"g0": 3}
        assert dict(late.granted_at) == dict(early.granted_at)
        assert dict(late.payments) == dict(early.payments)

    def test_revision_extends_departure(self):
        catalog = OptimizationCatalog.from_costs({"g0": 100.0})
        engine = FleetEngine(catalog, horizon=4)
        engine.place_bid(1, "g0", AdditiveBid.over(1, [40.0, 40.0]))
        engine.advance_slot()
        assert engine.report().implemented == {}
        engine.revise_bid(1, "g0", {3: 120.0})
        report = engine.run_to_end()
        assert report.implemented == {"g0": 2}
        assert report.payments[1] == pytest.approx(100.0)

    def test_advance_by_zero_slots_is_config_error(self):
        engine = FleetEngine(self.catalog(), horizon=3)
        with pytest.raises(GameConfigError):
            engine.advance_slots(0)
        assert engine.slot == 0

    def test_period_end(self):
        engine = FleetEngine(self.catalog(), horizon=1)
        engine.run_to_end()
        with pytest.raises(MechanismError):
            engine.advance_slot()


class TestShardMap:
    def test_round_robin_order(self):
        shard_map = ShardMap(7, shards=3)
        assert shard_map.order == [0, 3, 6, 1, 4, 2, 5]
        assert shard_map.members(1) == [1, 4]
        assert [shard_map.shard_of(r) for r in range(7)] == [0, 1, 2, 0, 1, 2, 0]
        ranks = sorted(range(7), key=shard_map.process_rank.__getitem__)
        assert ranks == shard_map.order

    def test_validation(self):
        with pytest.raises(GameConfigError):
            ShardMap(-1)
        with pytest.raises(GameConfigError):
            ShardMap(3, shards=0)
        with pytest.raises(GameConfigError):
            ShardMap(3).shard_of(3)
        with pytest.raises(GameConfigError):
            ShardMap(3, shards=2).members(2)

    def test_more_shards_than_games(self):
        shard_map = ShardMap(2, shards=5)
        assert shard_map.order == [0, 1]
        assert len(shard_map) == 5


class TestStepChangedMany:
    def test_matches_individual_steps(self):
        costs = {"a": 30.0, "b": 45.0}
        batch = {j: AddOnState(c) for j, c in costs.items()}
        single = {j: AddOnState(c) for j, c in costs.items()}
        rng = np.random.default_rng(3)
        for t in range(1, 12):
            changed = {
                j: {
                    int(u): float(rng.uniform(0, 20))
                    for u in rng.integers(0, 40, size=5)
                }
                for j in costs
                if rng.random() < 0.8
            }
            deltas = step_changed_many(batch, t, changed)
            assert set(deltas) == set(changed)
            for j, residuals in changed.items():
                delta = single[j].step_changed(t, residuals)
                assert delta == deltas[j]
        for j in costs:
            assert batch[j].cumulative == single[j].cumulative
            assert batch[j].price == single[j].price

    def test_infinite_bid_forces_through_batch(self):
        states = {"a": AddOnState(10.0)}
        deltas = step_changed_many(states, 1, {"a": {7: math.inf}})
        assert deltas["a"].newly_serviced == frozenset({7})
        assert states["a"].implemented_at == 1
