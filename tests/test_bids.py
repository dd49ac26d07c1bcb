"""Unit tests for the bid model (schedules, additive/substitutable, revision)."""

from __future__ import annotations

import math

import pytest

from repro import (
    AdditiveBid,
    BidError,
    RevisableBid,
    RevisionError,
    SlotValues,
    SubstitutableBid,
)


class TestSlotValues:
    def test_end_is_start_plus_length(self):
        sv = SlotValues(3, (1.0, 2.0, 3.0))
        assert sv.end == 5

    def test_value_at_inside_and_outside(self):
        sv = SlotValues(2, (10.0, 20.0))
        assert sv.value_at(1) == 0.0
        assert sv.value_at(2) == 10.0
        assert sv.value_at(3) == 20.0
        assert sv.value_at(4) == 0.0

    def test_residual(self):
        sv = SlotValues(1, (5.0, 6.0, 7.0))
        assert sv.residual(1) == pytest.approx(18.0)
        assert sv.residual(2) == pytest.approx(13.0)
        assert sv.residual(3) == pytest.approx(7.0)
        assert sv.residual(4) == 0.0

    def test_residual_before_start_is_total(self):
        sv = SlotValues(5, (1.0, 1.0))
        assert sv.residual(1) == pytest.approx(2.0)

    def test_total(self):
        assert SlotValues(1, (1.0, 2.0)).total() == pytest.approx(3.0)

    def test_slots_iteration(self):
        assert list(SlotValues(4, (0.0, 0.0, 0.0)).slots()) == [4, 5, 6]

    def test_from_mapping_fills_gaps(self):
        sv = SlotValues.from_mapping({2: 1.0, 5: 4.0})
        assert sv.start == 2
        assert sv.end == 5
        assert sv.value_at(3) == 0.0
        assert sv.value_at(5) == 4.0

    def test_scaled(self):
        sv = SlotValues(1, (2.0, 4.0)).scaled(0.5)
        assert sv.values == (1.0, 2.0)

    def test_rejects_bad_start(self):
        with pytest.raises(BidError):
            SlotValues(0, (1.0,))

    def test_rejects_empty(self):
        with pytest.raises(BidError):
            SlotValues(1, ())

    def test_rejects_negative_value(self):
        with pytest.raises(BidError):
            SlotValues(1, (1.0, -0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_value(self, bad):
        with pytest.raises(BidError):
            SlotValues(1, (1.0, bad))

    def test_rejects_empty_mapping(self):
        with pytest.raises(BidError):
            SlotValues.from_mapping({})


class TestAdditiveBid:
    def test_single_slot(self):
        bid = AdditiveBid.single_slot(3, 42.0)
        assert bid.start == 3
        assert bid.end == 3
        assert bid.total() == pytest.approx(42.0)

    def test_over(self):
        bid = AdditiveBid.over(2, [1.0, 2.0, 3.0])
        assert (bid.start, bid.end) == (2, 4)
        assert bid.residual(3) == pytest.approx(5.0)

    def test_from_mapping(self):
        bid = AdditiveBid.from_mapping({1: 3.0, 3: 4.0})
        assert bid.value_at(2) == 0.0
        assert bid.total() == pytest.approx(7.0)


class TestSubstitutableBid:
    def test_wants(self):
        bid = SubstitutableBid.single_slot(1, 9.0, {"a", "b"})
        assert bid.wants("a")
        assert not bid.wants("c")

    def test_requires_substitutes(self):
        with pytest.raises(BidError):
            SubstitutableBid.single_slot(1, 9.0, set())

    def test_matrix_row_uses_residual(self):
        bid = SubstitutableBid.over(1, [4.0, 6.0], {"a"})
        row = bid.matrix_row(["a", "b"], t=2)
        assert row == {"a": 6.0, "b": 0.0}

    def test_substitutes_frozen(self):
        bid = SubstitutableBid.single_slot(1, 9.0, {"a"})
        assert isinstance(bid.substitutes, frozenset)


class TestRevisableBid:
    def test_initial_view(self):
        bid = RevisableBid(AdditiveBid.over(1, [10.0, 10.0]))
        assert bid.as_of(1).total() == pytest.approx(20.0)
        assert bid.declared_at == 1

    def test_upward_revision_visible_after_placement(self):
        bid = RevisableBid(AdditiveBid.over(1, [10.0, 10.0, 10.0]))
        bid.revise(2, {2: 20.0})
        assert bid.as_of(1).value_at(2) == pytest.approx(10.0)
        assert bid.as_of(2).value_at(2) == pytest.approx(20.0)
        assert bid.as_of(3).value_at(2) == pytest.approx(20.0)

    def test_paper_example_revision(self):
        """Section 5.1: bid (1,3,[10,10,10]); at t=2 revise b(2)=20."""
        bid = RevisableBid(AdditiveBid.over(1, [10.0, 10.0, 10.0]))
        bid.revise(2, {2: 20.0, 3: 10.0})
        view = bid.as_of(2)
        assert view.value_at(2) == pytest.approx(20.0)
        assert view.value_at(3) == pytest.approx(10.0)

    def test_extension_grows_end(self):
        bid = RevisableBid(AdditiveBid.over(1, [5.0]))
        bid.revise(1, {2: 3.0})
        assert bid.current.end == 2
        assert bid.current.residual(1) == pytest.approx(8.0)

    def test_revision_after_the_end_rejected(self):
        # A stay can be extended while it lasts (at its last slot, too);
        # a departed stay cannot be reopened, so the bid stays as it was.
        bid = RevisableBid(AdditiveBid.over(1, [1.0]))
        with pytest.raises(RevisionError, match="ended at slot 1"):
            bid.revise(2, {2: 1.0})
        assert bid.current == AdditiveBid.over(1, [1.0])
        bid.revise(1, {2: 1.0})
        assert bid.current.end == 2

    def test_downward_revision_rejected(self):
        bid = RevisableBid(AdditiveBid.over(1, [10.0, 10.0]))
        with pytest.raises(RevisionError):
            bid.revise(2, {2: 5.0})

    def test_retroactive_revision_rejected(self):
        bid = RevisableBid(AdditiveBid.over(1, [10.0, 10.0]))
        with pytest.raises(RevisionError):
            bid.revise(2, {1: 50.0})

    def test_retroactive_declaration_rejected(self):
        with pytest.raises(RevisionError):
            RevisableBid(AdditiveBid.over(1, [10.0]), declared_at=2)

    def test_out_of_order_revision_rejected(self):
        bid = RevisableBid(AdditiveBid.over(1, [1.0, 1.0, 1.0]))
        bid.revise(3, {3: 2.0})
        with pytest.raises(RevisionError):
            bid.revise(2, {2: 2.0})

    def test_empty_revision_rejected(self):
        bid = RevisableBid(AdditiveBid.over(1, [1.0]))
        with pytest.raises(RevisionError):
            bid.revise(1, {})

    def test_as_of_before_declaration_raises(self):
        bid = RevisableBid(AdditiveBid.over(3, [1.0]), declared_at=2)
        with pytest.raises(RevisionError):
            bid.as_of(1)
