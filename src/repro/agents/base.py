"""Agent interfaces.

An agent wraps a user's true valuation and answers two questions: what
does she *declare* (possibly several identities' worth of declarations),
and what utility does she *really* get from an outcome. Utilities are
always evaluated against the truth, regardless of what was declared.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from repro.bids.additive import AdditiveBid
from repro.bids.substitutive import SubstitutableBid
from repro.core.accounting import subston_realized_value
from repro.core.outcome import AddOnOutcome, SubstOnOutcome, UserId

__all__ = ["AdditiveAgent", "SubstitutableAgent"]


class AdditiveAgent(ABC):
    """A bidder in a single-optimization online additive game."""

    def __init__(self, user: UserId, truth: AdditiveBid) -> None:
        self.user = user
        self.truth = truth

    @abstractmethod
    def declarations(self) -> Mapping[UserId, AdditiveBid]:
        """The bid(s) this agent submits, keyed by identity."""

    def utility(self, outcome: AddOnOutcome) -> float:
        """True utility: realized value over all identities minus payments.

        A multi-identity agent realizes her value if *any* identity is
        serviced during a slot (she runs queries under that identity), but
        pays for all of them (Section 5.2).
        """
        identities = list(self.declarations())
        realized = 0.0
        for t in range(1, outcome.horizon + 1):
            serviced = outcome.serviced_by_slot[t]
            if any(identity in serviced for identity in identities):
                realized += self.truth.value_at(t)
        paid = sum(outcome.payment(identity) for identity in identities)
        return realized - paid


class SubstitutableAgent(ABC):
    """A bidder in an online substitutable game."""

    def __init__(self, user: UserId, truth: SubstitutableBid) -> None:
        self.user = user
        self.truth = truth

    @abstractmethod
    def declarations(self) -> Mapping[UserId, SubstitutableBid]:
        """The bid(s) this agent submits, keyed by identity."""

    def utility(self, outcome: SubstOnOutcome) -> float:
        """True utility across identities (value if any identity holds a
        grant in the true substitute set; payments for all identities)."""
        identities = list(self.declarations())
        realized = 0.0
        for identity in identities:
            value = subston_realized_value(outcome, identity, self.truth)
            realized = max(realized, value)
        paid = sum(outcome.payment(identity) for identity in identities)
        return realized - paid
