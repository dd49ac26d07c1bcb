"""The cloud service loop: bids in, grants and invoices out.

:class:`CloudService` runs one amortization period ``T`` of ``horizon``
slots in either *additive* mode (one independent AddOn game per catalog
optimization) or *substitutable* mode (one SubstOn game across the
catalog). Users place bids for future slots, may revise them upward, are
granted service as soon as the mechanism admits them, and are invoiced
their final cost-share at their departure slot. Every step is recorded in
the event log and the billing ledger.

Additive mode is a thin wrapper over the fleet scheduler
(:class:`repro.fleet.engine.FleetEngine`, sized to this one catalog).
The ``gateway`` property fronts the same engine with a
:class:`repro.gateway.PricingService` facade on demand; the object
methods below are retained for handle-based revision (envelopes carry
no :class:`~repro.bids.revision.RevisableBid` handles) and drive the
engine directly — new code should prefer the gateway surface. Bids
become rows of the engine's columnar store, and a slot is one batched
pass over the bids whose residuals actually changed, stepped
through the incremental engine's gated
:meth:`~repro.core.online.AddOnState.apply_changes` path. Substitutable
mode drives :class:`~repro.core.online.SubstOnState` directly with
per-slot deltas (bids indexed by entry and departure slot), since the
cross-optimization phase loop cannot be split into independent games.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.bids.additive import AdditiveBid
from repro.bids.revision import RevisableBid
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
    mode: str
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

    def realized_value(
        self, user: UserId, optimization: OptId, truth: AdditiveBid
    ) -> float:
        """True value realized from one grant, given the true schedule."""
        granted = self.granted_at.get((user, optimization))
        if granted is None:
            return 0.0
        return sum(truth.value_at(t) for t in range(granted, truth.end + 1))


class CloudService:
    """See the module docstring.

    Parameters
    ----------
    catalog:
        The purchasable optimizations.
    horizon:
        Number of slots in the period ``T``.
    mode:
        ``"additive"`` (independent AddOn per optimization) or
        ``"substitutable"`` (one SubstOn game).
    """

    def __init__(
        self,
        catalog: OptimizationCatalog,
        horizon: int,
        mode: str = "additive",
        rng: RngLike = None,
        randomize_ties: bool = False,
    ) -> None:
        if horizon < 1:
            raise GameConfigError(f"horizon must be >= 1, got {horizon}")
        if mode not in ("additive", "substitutable"):
            raise GameConfigError(f"unknown mode {mode!r}")
        if len(catalog) == 0:
            raise GameConfigError("catalog must offer at least one optimization")
        self.catalog = catalog
        self.horizon = horizon
        self.mode = mode

        if mode == "additive":
            # Imported here to keep repro.fleet -> repro.cloudsim the only
            # static dependency direction between the two packages. The
            # gateway facade over this engine is built lazily by the
            # ``gateway`` property so the many short-lived services the
            # experiment baselines construct never pay for it.
            from repro.fleet.engine import FleetEngine

            self._fleet = FleetEngine(catalog, horizon)
            self._gateway = None
            self.ledger = self._fleet.ledger
            self.events = self._fleet.events
        else:
            self._slot = 0  # last processed slot; slot 1 is processed first
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

    @property
    def slot(self) -> int:
        """Last processed slot (slot 1 is processed first)."""
        return self._fleet.slot if self.mode == "additive" else self._slot

    @property
    def gateway(self):
        """The :class:`~repro.gateway.PricingService` fronting this period.

        Additive mode only: envelopes dispatched against it address the
        very same games the object API below manipulates. Built on first
        access (lazily, to keep plain additive services cheap) around the
        service's own fleet engine.
        """
        self._require_mode("additive")
        if self._gateway is None:
            # Lazy upward import: cloudsim sits below the gateway in the
            # layering; only this property reaches up.
            from repro.gateway.service import PricingService

            self._gateway = PricingService(fleet=self._fleet)
        return self._gateway

    # -------------------------------------------------------------- bids --

    def place_additive_bid(
        self, user: UserId, optimization: OptId, bid: AdditiveBid
    ) -> RevisableBid:
        """Declare a bid for one optimization; returns the revisable handle."""
        self._require_mode("additive")
        return self._fleet.place_bid(user, optimization, bid)

    def revise_additive_bid(
        self, user: UserId, optimization: OptId, new_values: Mapping[int, float]
    ) -> None:
        """Upward revision of a previously placed bid."""
        self._require_mode("additive")
        self._fleet.revise_bid(user, optimization, new_values)

    def place_substitutable_bid(self, user: UserId, bid: SubstitutableBid) -> None:
        """Declare a substitutable bid ``(s_i, e_i, b_i, J_i)``."""
        self._require_mode("substitutable")
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
        if self.mode == "additive":
            return self._fleet.advance_slot()
        if self._slot >= self.horizon:
            raise MechanismError(f"period is over after slot {self.horizon}")
        t = self._slot + 1
        self._advance_substitutable(t)
        self._slot = t
        return t

    def run_to_end(self) -> ServiceReport:
        """Process every remaining slot and return the report."""
        while self.slot < self.horizon:
            self.advance_slot()
        return self.report()

    def report(self) -> ServiceReport:
        """The current summary (complete once the period is over)."""
        if self.mode == "additive":
            fleet = self._fleet.report()
            return ServiceReport(
                horizon=self.horizon,
                mode=self.mode,
                ledger=fleet.ledger,
                events=fleet.events,
                implemented=dict(fleet.implemented),
                granted_at=dict(fleet.granted_at),
                payments=dict(fleet.payments),
            )
        return ServiceReport(
            horizon=self.horizon,
            mode=self.mode,
            ledger=self.ledger,
            events=self.events,
            implemented=dict(self._implemented),
            granted_at=dict(self._granted_at),
            payments=dict(self._payments),
        )

    # ---------------------------------------------------------- internals --

    def _require_mode(self, mode: str) -> None:
        if self.mode != mode:
            raise GameConfigError(
                f"service is in {self.mode!r} mode; operation needs {mode!r}"
            )

    def _advance_substitutable(self, t: int) -> None:
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
