"""Upward-only bid revision (paper Section 5.1).

At slot ``t`` a user may revise her future values ``b_ij(t'), t' >= t``
upwards and may extend (never shrink) her departure slot ``e_i``. A bid can
never be retroactive. :class:`RevisableBid` records the revision history and
can answer "what did the bid look like as of slot ``t``", which is what the
online mechanisms consume.
"""

from __future__ import annotations

from typing import Mapping

from repro.bids.additive import AdditiveBid
from repro.bids.slots import SlotValues
from repro.errors import RevisionError

__all__ = ["RevisableBid"]


class RevisableBid:
    """An additive bid plus its legal revision history.

    The initial bid is declared at slot ``declared_at`` (defaults to the
    bid's start slot — a bid cannot be placed after the interval it covers
    begins, since that would make its earliest slots retroactive).
    """

    # One object per handle (no history list until the first revision):
    # the fleet keeps a handle per placed bid.
    __slots__ = ("_declared_at", "_initial", "_revisions")

    def __init__(self, initial: AdditiveBid, declared_at: int | None = None) -> None:
        declared_at = initial.start if declared_at is None else declared_at
        if declared_at > initial.start:
            raise RevisionError(
                f"bid declared at slot {declared_at} retroactively covers "
                f"slot {initial.start}"
            )
        if declared_at < 1:
            raise RevisionError(f"declaration slot must be >= 1, got {declared_at}")
        self._declared_at = declared_at
        self._initial = initial
        self._revisions: list[tuple[int, AdditiveBid]] | None = None

    @property
    def current(self) -> AdditiveBid:
        """The latest effective bid."""
        revisions = self._revisions
        return revisions[-1][1] if revisions else self._initial

    @property
    def declared_at(self) -> int:
        """Slot at which the initial bid was placed."""
        return self._declared_at

    def revise(self, at_slot: int, new_values: Mapping[int, float]) -> AdditiveBid:
        """Apply a revision at slot ``at_slot``; returns the new effective bid.

        ``new_values`` maps slots to their revised values. Every revised slot
        must be ``>= at_slot`` (no retroactive changes) and every revised
        value must be ``>=`` the current value (upward-only). Slots beyond
        the current ``end`` extend the interval, so ``e_i`` can only grow —
        while the stay lasts: a revision after ``end`` would reopen a
        departed stay (and invoice it twice), so it is refused.
        """
        revisions = self._revisions
        last_slot = revisions[-1][0] if revisions else self._declared_at
        current = self.current
        if at_slot < last_slot:
            raise RevisionError(
                f"revision at slot {at_slot} precedes last revision at {last_slot}"
            )
        if at_slot > current.end:
            raise RevisionError(
                f"revision at slot {at_slot} reopens a stay that ended at "
                f"slot {current.end}"
            )
        if not new_values:
            raise RevisionError("a revision must change at least one slot")
        for slot, value in new_values.items():
            if slot < at_slot:
                raise RevisionError(
                    f"revision at slot {at_slot} retroactively touches slot {slot}"
                )
            if value < current.value_at(slot):
                raise RevisionError(
                    f"revision lowers slot {slot} from {current.value_at(slot)} "
                    f"to {value}; revisions are upward-only"
                )
        new_end = max(current.end, max(new_values))
        merged = {
            t: new_values.get(t, current.value_at(t))
            for t in range(current.start, new_end + 1)
        }
        revised = AdditiveBid(SlotValues.from_mapping({current.start: merged[current.start], **merged}))
        if revisions is None:
            revisions = self._revisions = []
        revisions.append((at_slot, revised))
        return revised

    def as_of(self, t: int) -> AdditiveBid:
        """The bid as the cloud saw it at slot ``t``.

        Revisions placed after ``t`` are invisible; before the declaration
        slot the user has not been seen at all and ``RevisionError`` is
        raised (the mechanisms prune unseen users themselves via
        ``t >= s_i``).
        """
        if t < self.declared_at:
            raise RevisionError(
                f"bid was not declared until slot {self.declared_at}"
            )
        effective = self._initial
        for slot, bid in self._revisions or ():
            if slot <= t:
                effective = bid
        return effective
