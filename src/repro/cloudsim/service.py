"""The cloud service loop for substitutable optimizations.

:class:`CloudService` runs one amortization period ``T`` of ``horizon``
slots of one SubstOn game across the catalog. Users place bids for future
slots, are granted service as soon as the mechanism admits them, and are
invoiced their final cost-share at their departure slot. Every step is
recorded in the event log and the billing ledger.

The loop drives :class:`~repro.core.online.SubstOnState` directly with
per-slot deltas (bids indexed by entry and departure slot), since the
cross-optimization phase loop cannot be split into independent games.
Additive games are independent per optimization; they run in
:class:`repro.fleet.FleetEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.bids.substitutive import SubstitutableBid
from repro.cloudsim.catalog import OptimizationCatalog
from repro.cloudsim.events import (
    BidPlaced,
    EventLog,
    OptimizationImplemented,
    UserCharged,
    UserDeparted,
    UserGranted,
)
from repro.cloudsim.ledger import BillingLedger
from repro.core.online import SubstOnState
from repro.core.outcome import OptId, UserId
from repro.errors import GameConfigError, MechanismError
from repro.utils.rng import RngLike

__all__ = ["CloudService", "ServiceReport"]


@dataclass(frozen=True)
class ServiceReport:
    """End-of-period summary of one service run."""

    horizon: int
    ledger: BillingLedger
    events: EventLog
    implemented: Mapping[OptId, int]
    granted_at: Mapping[tuple, int]
    payments: Mapping[UserId, float]

    @property
    def cloud_balance(self) -> float:
        """Revenue minus build outlays; the mechanisms keep this >= 0."""
        return self.ledger.balance

    def grant_slot(self, user: UserId, optimization: OptId) -> int | None:
        """Slot ``user`` gained access to ``optimization`` (None if never)."""
        return self.granted_at.get((user, optimization))


class CloudService:
    """See the module docstring.

    Parameters
    ----------
    catalog:
        The pool of optimizations bids name their substitutes from.
    horizon:
        Number of slots in the period ``T``.
    """

    def __init__(
        self,
        catalog: OptimizationCatalog,
        horizon: int,
        rng: RngLike = None,
        randomize_ties: bool = False,
    ) -> None:
        if horizon < 1:
            raise GameConfigError(f"horizon must be >= 1, got {horizon}")
        if len(catalog) == 0:
            raise GameConfigError("catalog must offer at least one optimization")
        self.catalog = catalog
        self.horizon = horizon
        self.slot = 0  # last processed slot; slot 1 is processed first
        self.ledger = BillingLedger()
        self.events = EventLog()
        self._payments: dict[UserId, float] = {}
        self._granted_at: dict[tuple, int] = {}
        self._implemented: dict[OptId, int] = {}
        # Entry/departure indexes: which bids become active at slot t,
        # and which must be invoiced (and then zeroed) at slot t.
        self._starts_at: dict[int, list] = {}
        self._ends_at: dict[int, list] = {}
        self._active: set = set()
        self._subston = SubstOnState(
            catalog.costs, rng=rng, randomize_ties=randomize_ties
        )
        self._subst_bids: dict[UserId, SubstitutableBid] = {}

    # -------------------------------------------------------------- bids --

    def place_substitutable_bid(self, user: UserId, bid: SubstitutableBid) -> None:
        """Declare a substitutable bid ``(s_i, e_i, b_i, J_i)``."""
        missing = bid.substitutes - set(self.catalog.costs)
        if missing:
            raise GameConfigError(
                f"unknown optimizations in substitute set: {sorted(map(str, missing))}"
            )
        if user in self._subst_bids:
            raise GameConfigError(f"user {user!r} already bid")
        if bid.start <= self.slot:
            raise GameConfigError(
                f"bid for slots from {bid.start} is retroactive at slot {self.slot}"
            )
        if bid.end > self.horizon:
            raise GameConfigError(
                f"bid ends at {bid.end}, beyond the horizon {self.horizon}"
            )
        self._subst_bids[user] = bid
        self._starts_at.setdefault(bid.start, []).append(user)
        self._ends_at.setdefault(bid.end, []).append(user)
        self.events.record(BidPlaced(self.slot + 1, user))

    # -------------------------------------------------------------- loop --

    def advance_slot(self) -> int:
        """Process the next slot; returns its number."""
        if self.slot >= self.horizon:
            raise MechanismError(f"period is over after slot {self.horizon}")
        t = self.slot + 1
        self._advance(t)
        self.slot = t
        return t

    def run_to_end(self) -> ServiceReport:
        """Process every remaining slot and return the report."""
        while self.slot < self.horizon:
            self.advance_slot()
        return self.report()

    def report(self) -> ServiceReport:
        """The current summary (complete once the period is over)."""
        return ServiceReport(
            horizon=self.horizon,
            ledger=self.ledger,
            events=self.events,
            implemented=dict(self._implemented),
            granted_at=dict(self._granted_at),
            payments=dict(self._payments),
        )

    # ---------------------------------------------------------- internals --

    def _advance(self, t: int) -> None:
        self._active.update(self._starts_at.pop(t, ()))
        changed: dict[UserId, dict[OptId, float]] = {}
        settled = []
        for user in self._active:
            if user in self._subston.grants:
                settled.append(user)  # locked: the engine forces her bid
                continue
            bid = self._subst_bids[user]
            residual = bid.residual(t)
            changed[user] = {
                j: (residual if j in bid.substitutes else 0.0)
                for j in self.catalog
            }
        self._active.difference_update(settled)

        delta = self._subston.step_changed(t, changed)
        for user, optimization in delta.new_grants.items():
            self._granted_at[(user, optimization)] = t
            self.events.record(UserGranted(t, user, optimization))
        for optimization in delta.new_implementations:
            cost = self.catalog.get(optimization).cost
            self._implemented[optimization] = t
            self.ledger.build_outlay(t, optimization, cost)
            self.events.record(OptimizationImplemented(t, optimization, cost))

        for user in self._ends_at.pop(t, ()):
            amount = self._subston.exit_price(user)
            self._payments[user] = amount
            if amount > 0:
                self.ledger.invoice(t, user, amount)
                self.events.record(UserCharged(t, user, amount))
            self.events.record(UserDeparted(t, user))
            # An unserviced departure stops contributing residuals; a
            # granted one keeps her forced bid in the denominator forever.
            self._subston.retire(user)
            self._active.discard(user)
