"""Incremental per-slot state machines for the online mechanisms.

The batch runners (:func:`repro.core.addon.run_addon`,
:func:`repro.core.subston.run_subston`) replay a complete bid profile; the
fleet engine (:mod:`repro.fleet`, AddOn) and the cloud-service simulator
(:mod:`repro.cloudsim`, SubstOn) instead advance slot by slot as agents
arrive, revise and depart. All share these state machines, which encode
the two rules that make the mechanisms work online:

* previously serviced users are *forced* (infinite residual bid) so the
  cumulative set only grows and shares only shrink;
* in the substitutable case a granted user is additionally *locked* to her
  optimization (zero bids elsewhere) so she can never switch.

Both states are backed by :class:`repro.core.fastshapley.IncrementalShapley`
engines that keep the bid profile sorted between slots. Two entry points
per state:

* ``step(t, full_profile)`` — the compatibility path used by the batch
  runners: the caller hands over every bid it wants considered and the
  state diffs it against the stored profile (users present last slot but
  omitted now are dropped, exactly as the seed recomputation treated them).
* ``step_changed(t, changes)`` — the incremental path: only the bids that
  actually changed are handed over, everything else persists, and the
  returned delta carries just what changed, so a slot with ``m`` changed
  bids costs O(m log n) instead of a full recomputation over all ``n``
  users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.fastshapley import IncrementalShapley
from repro.core.outcome import OptId, ShapleyResult, SubstOffOutcome, UserId
from repro.errors import MechanismError
from repro.utils.numeric import close, is_positive_finite
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "AddOnState",
    "AddOnSlotDelta",
    "SubstOnState",
    "SubstOnSlotDelta",
]


@dataclass(frozen=True)
class AddOnSlotDelta:
    """What one incremental AddOn slot changed.

    ``newly_serviced`` holds only the users that entered the cumulative set
    this slot, so consuming a delta is O(changes), never O(n).
    """

    slot: int
    price: float
    serviced_count: int
    newly_serviced: frozenset


@dataclass(frozen=True)
class SubstOnSlotDelta:
    """What one incremental SubstOn slot changed."""

    slot: int
    shares: Mapping[OptId, float]
    new_grants: Mapping[UserId, OptId]
    new_implementations: tuple


class AddOnState:
    """Slot-by-slot evolution of AddOn for a single optimization."""

    def __init__(self, cost: float) -> None:
        if not is_positive_finite(cost):
            raise MechanismError(f"optimization cost must be positive, got {cost}")
        self.cost = cost
        self.price: float = 0.0
        self.implemented_at: int | None = None
        self._engine = IncrementalShapley(cost)
        self._slot = 0

    @property
    def implemented(self) -> bool:
        """True once some slot's residuals covered the cost."""
        return self.implemented_at is not None

    @property
    def cumulative(self) -> frozenset:
        """``CS_j`` — every user serviced so far (they are the forced set)."""
        return self._engine.forced

    def _advance_to(self, t: int) -> None:
        if t <= self._slot:
            raise MechanismError(f"slots must advance; got {t} after {self._slot}")
        self._slot = t

    def step(self, t: int, residual_bids: Mapping[UserId, float]) -> ShapleyResult:
        """Advance to slot ``t`` with the complete residual-bid profile.

        ``residual_bids`` must cover every user the caller wants considered
        (users in the cumulative set are forced regardless of their entry,
        and may be omitted; tracked users omitted here stop being
        considered). Slots must be visited in increasing order.
        """
        self._advance_to(t)
        engine = self._engine
        dropped = [u for u in engine.tracked() if u not in residual_bids]
        engine.set_bids(residual_bids)
        for user in dropped:
            engine.set_bid(user, 0.0)

        k, price, rounds = engine.solve_with_rounds()
        if k:
            engine.promote_serviced(price)
            self.price = price
        else:
            self.price = 0.0
        if self.implemented_at is None and k:
            self.implemented_at = t
        serviced = engine.forced
        payments = {user: price for user in serviced} if k else {}
        return ShapleyResult(serviced, self.price, payments, rounds)

    def step_changed(
        self, t: int, changed_bids: Mapping[UserId, float]
    ) -> AddOnSlotDelta:
        """Advance to slot ``t`` applying only the bids that changed.

        Bids not mentioned persist from the previous slot. Cost is
        O(m log n) for ``m`` entries in ``changed_bids`` (promotion into
        the cumulative set is amortized O(1) per user over the whole game).
        """
        result = self.apply_changes(t, changed_bids)
        if result is None:
            # Provably unchanged slot: the serviced set is exactly the
            # forced set and the price is the cached one.
            return AddOnSlotDelta(
                slot=t,
                price=self.price,
                serviced_count=self._engine.forced_count(),
                newly_serviced=frozenset(),
            )
        price, serviced_count, newly = result
        return AddOnSlotDelta(
            slot=t, price=price, serviced_count=serviced_count, newly_serviced=newly
        )

    def apply_changes(
        self, t: int, changed_bids: Mapping[UserId, float]
    ) -> tuple | None:
        """The lean batch entry point behind :meth:`step_changed`.

        Same state transition, but returns ``None`` when the slot provably
        changed nothing (no new grants, price already cached) and a bare
        ``(price, serviced_count, newly_serviced)`` tuple otherwise — no
        delta object is allocated on the no-change path, which is what the
        fleet dispatcher hammers hundreds of thousands of times per run.

        The no-change proof is :meth:`IncrementalShapley.settled`: when it
        holds, the fixed point is exactly the forced set, so the solve and
        the promotion scan are skipped outright and a slot costs only its
        O(m log n) bid splices. Both the gate and the solve live in the
        engine's fused :meth:`IncrementalShapley.apply_and_solve`.
        """
        if t <= self._slot:
            raise MechanismError(f"slots must advance; got {t} after {self._slot}")
        self._slot = t
        result = self._engine.apply_and_solve(changed_bids)
        if result is None:
            return None
        k, price, newly = result  # non-None implies k >= 1 and newly != {}
        self.price = price
        if self.implemented_at is None:
            self.implemented_at = t
        return price, k, newly

    def exit_price(self, user: UserId) -> float:
        """What ``user`` owes if she departs now (her current cost-share)."""
        # Direct membership test against the engine's forced set: the fleet
        # invoices every departure through here, so no method hops.
        return self.price if user in self._engine._forced else 0.0


class SubstOnState:
    """Slot-by-slot evolution of SubstOn across an optimization pool.

    One :class:`IncrementalShapley` engine per optimization holds the
    current residual-bid column; the per-slot SubstOff phase loop solves
    each engine (a scan over already-sorted bids) instead of rebuilding the
    full bid matrix. Granting a user locks her permanently: she is forced
    on her optimization's engine and removed from every other, which is
    exactly the paper's inf-on-own / zero-elsewhere locking rule.
    """

    def __init__(
        self,
        costs: Mapping[OptId, float],
        rng: RngLike = None,
        randomize_ties: bool = False,
    ) -> None:
        for optimization, cost in costs.items():
            if not is_positive_finite(cost):
                raise MechanismError(
                    f"cost of {optimization!r} must be positive, got {cost}"
                )
        self.costs = dict(costs)
        self.grants: dict[UserId, OptId] = {}
        self.granted_at: dict[UserId, int] = {}
        self.implemented_at: dict[OptId, int] = {}
        self.shares: dict[OptId, float] = {}
        self._engines = {j: IncrementalShapley(c) for j, c in self.costs.items()}
        self._known: set = set()  # unserviced users with a stored row
        self._rng = rng
        self._randomize_ties = randomize_ties
        self._slot = 0

    def _advance_to(self, t: int) -> None:
        if t <= self._slot:
            raise MechanismError(f"slots must advance; got {t} after {self._slot}")
        self._slot = t

    def _store_row(self, user: UserId, row: Mapping[OptId, float]) -> None:
        unknown = set(row) - set(self.costs)
        if unknown:
            raise MechanismError(
                f"user {user!r} bids on unknown optimizations: "
                f"{sorted(map(str, unknown))}"
            )
        for j, engine in self._engines.items():
            engine.set_bid(user, float(row.get(j, 0.0)))
        self._known.add(user)

    def step(
        self, t: int, residual_bids: Mapping[UserId, Mapping[OptId, float]]
    ) -> SubstOffOutcome:
        """Advance to slot ``t``; returns the slot's SubstOff outcome.

        ``residual_bids`` holds each unserviced user's residual value per
        optimization (zero rows for unseen users are fine and equivalent to
        omission); granted users are forced/locked internally. Known
        unserviced users omitted from the mapping stop being considered.
        """
        self._advance_to(t)
        for user in [u for u in self._known if u not in residual_bids]:
            self.retire(user)
        for user, row in residual_bids.items():
            if user in self.grants:
                continue
            self._store_row(user, row)
        new_grants, new_impls, slot_shares, phase_order = self._run_phases(t)
        payments = {
            user: slot_shares[optimization]
            for user, optimization in self.grants.items()
        }
        return SubstOffOutcome(
            costs=dict(self.costs),
            implemented=tuple(phase_order),
            grants=dict(self.grants),
            payments=payments,
            shares=dict(slot_shares),
        )

    def step_changed(
        self, t: int, changed_rows: Mapping[UserId, Mapping[OptId, float]]
    ) -> SubstOnSlotDelta:
        """Advance to slot ``t`` applying only the rows that changed.

        Rows not mentioned persist from the previous slot; rows for granted
        users are ignored (they are locked). The returned delta carries the
        new grants and implementations only, so consuming it is O(changes).
        """
        self._advance_to(t)
        for user, row in changed_rows.items():
            if user in self.grants:
                continue
            self._store_row(user, row)
        new_grants, new_impls, slot_shares, _ = self._run_phases(t)
        return SubstOnSlotDelta(
            slot=t,
            shares=slot_shares,
            new_grants=new_grants,
            new_implementations=tuple(new_impls),
        )

    def retire(self, user: UserId) -> None:
        """Stop considering an unserviced user (her residuals reached 0).

        Granted users cannot be retired — the paper keeps departed users'
        forced bids in the denominator so later users' shares keep falling.
        """
        if user in self.grants:
            return
        for engine in self._engines.values():
            engine.remove(user)
        self._known.discard(user)

    def _run_phases(self, t: int):
        """The SubstOff phase loop over the persistent engines.

        Each phase solves every not-yet-chosen optimization, implements the
        feasible one with the smallest cost-share (ties broken by ``costs``
        order, or uniformly at random when ``randomize_ties``), locks its
        serviced users, and repeats until nothing is feasible. Matches
        :func:`repro.core.substoff.run_substoff` decision-for-decision.
        """
        generator = ensure_rng(self._rng) if self._randomize_ties else None
        chosen_this_slot: set = set()
        phase_order: list = []
        slot_shares: dict[OptId, float] = {}
        new_grants: dict[UserId, OptId] = {}
        new_impls: list = []

        while True:
            feasible: list[tuple[OptId, float]] = []
            for j in self.costs:
                if j in chosen_this_slot:
                    continue
                engine = self._engines[j]
                if engine.settled():
                    # Fixed point is exactly the forced set: infeasible when
                    # it is empty, and ``cost / forced`` (the same division
                    # the solve would perform) otherwise — no scan needed.
                    forced = engine.forced_count()
                    if forced:
                        feasible.append((j, engine.cost / forced))
                    continue
                k, price = engine.solve()
                if k:
                    feasible.append((j, price))
            if not feasible:
                break

            min_share = min(price for _, price in feasible)
            tied = [j for j, price in feasible if close(price, min_share)]
            if generator is not None and len(tied) > 1:
                chosen = tied[int(generator.integers(len(tied)))]
            else:
                chosen = tied[0]
            share = next(price for j, price in feasible if j == chosen)

            engine = self._engines[chosen]
            for user in engine.serviced(share):
                if user in self.grants:
                    continue
                self.grants[user] = chosen
                self.granted_at[user] = t
                self._known.discard(user)
                new_grants[user] = chosen
                engine.force(user)
                for other, other_engine in self._engines.items():
                    if other != chosen:
                        other_engine.remove(user)
            if chosen not in self.implemented_at:
                self.implemented_at[chosen] = t
                new_impls.append(chosen)
            slot_shares[chosen] = share
            phase_order.append(chosen)
            chosen_this_slot.add(chosen)

        self.shares = dict(slot_shares)
        return new_grants, new_impls, slot_shares, phase_order

    def exit_price(self, user: UserId) -> float:
        """What ``user`` owes if she departs now."""
        optimization = self.grants.get(user)
        if optimization is None:
            return 0.0
        return self.shares.get(optimization, 0.0)
