"""Sort-once Shapley solving and the incremental mechanism engine.

The seed implementation of Mechanism 1 recomputed the eviction fixed point
by rebuilding the candidate set round after round — O(n * rounds) set
churn per call, repeated from scratch at every slot by the online
mechanisms. This module replaces that loop with two cooperating pieces:

* :func:`largest_affordable_prefix` — the closed-form of the fixed point.
  With bids sorted, the serviced set of the Shapley Value Mechanism is the
  top-``k`` bidders for the largest ``k`` whose ``k``-th highest bid covers
  the even share ``C / k``: sort once, then a single descending scan finds
  ``k``. (Why this equals the iterative fixed point: every feasible set is
  a subset of each intermediate set of the eviction loop, so the loop
  converges to the unique maximal feasible set; for any size ``k`` the best
  candidate set is the top-``k`` bidders, hence the maximal feasible set is
  the top-``k*`` prefix for the largest feasible ``k*``.)
* :class:`IncrementalShapley` — a persistent sorted-bid structure for the
  online mechanisms. Between slots only ``m`` bids change, so a slot step
  re-sorts nothing: each changed bid is spliced in or out of the sorted
  array with a bisect (O(log n) comparisons plus a C-speed ``memmove``),
  and the scan resumes from the top. Users forced by the online rules
  (once serviced, always serviced) are promoted out of the array exactly
  once, so maintaining the cumulative set is amortized O(1) per user.

Ties and tolerances follow :mod:`repro.utils.numeric` exactly, which is
what makes the engine bit-for-bit equivalent to the seed loop: the keep
rule is ``isclose_or_greater(bid, share)`` and the final price is the same
``C / k`` division.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Iterator, Mapping, Tuple

from repro.core.outcome import UserId
from repro.errors import MechanismError
from repro.utils.numeric import close, is_positive_finite, isclose_or_greater

__all__ = [
    "GATE_SLACK",
    "IncrementalShapley",
    "largest_affordable_prefix",
    "eviction_fixed_point",
    "eviction_rounds",
    "solve_shapley",
]

#: Slack factor of the feasibility gate: a profile is provably infeasible
#: when its bid total is below ``cost - GATE_SLACK * (n + 1) * (cost + 1)``.
#: The margin absorbs the keep rule's per-user tolerances (n times
#: ``ABS_TOL + REL_TOL * price``) plus the float drift of incrementally
#: maintained totals, with a 4x safety factor. Every copy of the gate —
#: :meth:`IncrementalShapley.settled`, the fused
#: :meth:`IncrementalShapley.apply_and_solve`, and the fleet scheduler's
#: precomputed flush slots (:mod:`repro.fleet.engine`) — must use this one
#: constant: fleet laziness is sound only while the gates agree.
GATE_SLACK = 4e-9


def largest_affordable_prefix(
    cost: float, vals: list, forced: int
) -> Tuple[int, float]:
    """Largest ``k`` such that the ``k``-th highest bid covers ``cost / k``.

    ``vals`` holds the finite positive bids in ascending order; ``forced``
    counts users with infinite bids (always in the serviced set). Returns
    ``(k, cost / k)``, or ``(0, 0.0)`` when no prefix is affordable.
    """
    n_finite = len(vals)
    for k in range(n_finite + forced, 0, -1):
        if k <= forced:
            return k, cost / k
        if isclose_or_greater(vals[n_finite - (k - forced)], cost / k):
            return k, cost / k
    return 0, 0.0


def eviction_fixed_point(
    cost: float, vals: list, forced: int
) -> Tuple[int, float, int]:
    """The eviction loop's fixed point, by trajectory replay.

    Every intermediate set of the seed loop is a value-threshold set, so
    the whole trajectory is determined by its sizes: one bisect per round
    replaces one set rebuild, giving O(rounds * log n) instead of
    O(rounds * n). Returns ``(size, price, rounds)`` — the same fixed point
    :func:`largest_affordable_prefix` characterizes in closed form, plus
    the round count the :class:`~repro.core.outcome.ShapleyResult` trace
    reports.
    """
    size = len(vals) + forced
    rounds = 0
    while size:
        rounds += 1
        price = cost / size
        idx = bisect_left(vals, price)
        while idx > 0 and close(vals[idx - 1], price):
            idx -= 1
        survivors = forced + len(vals) - idx
        if survivors == size:
            return size, price, rounds
        size = survivors
    return 0, 0.0, rounds


def eviction_rounds(cost: float, vals: list, forced: int) -> int:
    """Rounds the seed eviction loop would take on the same profile."""
    return eviction_fixed_point(cost, vals, forced)[2]


def solve_shapley(
    cost: float, bids: Mapping[UserId, float]
) -> Tuple[frozenset, float, int]:
    """One-shot solve: validate, sort once, scan once.

    Returns ``(serviced, price, rounds)``; the caller wraps them in a
    :class:`~repro.core.outcome.ShapleyResult`. The serviced set and price
    come from the descending scan; the round count needs the trajectory
    replay (:func:`eviction_fixed_point`) — both are O(n - k) or better
    after the sort, which dominates.
    """
    vals: list = []
    forced = 0
    for user, bid in bids.items():
        if bid < 0 or math.isnan(bid):
            raise MechanismError(f"bid for user {user!r} must be >= 0, got {bid}")
        if math.isinf(bid):
            forced += 1
        elif bid > 0:
            vals.append(bid)
    vals.sort()
    k, price = largest_affordable_prefix(cost, vals, forced)
    rounds = eviction_rounds(cost, vals, forced)
    if k == 0:
        return frozenset(), 0.0, rounds
    serviced = frozenset(
        user for user, bid in bids.items() if isclose_or_greater(bid, price)
    )
    return serviced, price, rounds


class IncrementalShapley:
    """Persistent Shapley engine for one optimization.

    Holds the current bid of every tracked user in a sorted array so that a
    slot with ``m`` changed bids costs ``m`` splices instead of a full
    re-sort, plus the forced set of users the online mechanisms pin into
    the outcome (infinite residual bids).

    The bulk entry point :meth:`set_bids` falls back to a wholesale rebuild
    when most of the profile changed, so batch replays never degrade below
    the one-shot sort.
    """

    __slots__ = ("cost", "_bids", "_forced", "_vals", "_users_at", "_total")

    def __init__(self, cost: float) -> None:
        if not is_positive_finite(cost):
            raise MechanismError(f"optimization cost must be positive, got {cost}")
        self.cost = cost
        self._bids: dict = {}  # user -> current finite bid (>= 0)
        self._forced: set = set()  # users pinned into every outcome
        self._vals: list = []  # ascending sorted positive finite bids
        self._users_at: dict = {}  # bid value -> set of users at that value
        self._total = 0.0  # running sum of _vals (for the settled gate)

    # ------------------------------------------------------------- updates --

    def set_bid(self, user: UserId, bid: float) -> None:
        """Declare/replace one user's bid; no-op when unchanged or forced.

        An infinite bid forces the user. Forced users ignore later finite
        updates — the online rules never release a serviced user.
        """
        bid = float(bid)
        if bid < 0 or math.isnan(bid):
            raise MechanismError(f"bid for user {user!r} must be >= 0, got {bid}")
        if user in self._forced:
            return
        if math.isinf(bid):
            self.force(user)
            return
        old = self._bids.get(user)
        if old == bid:
            return
        if old is not None and old > 0:
            self._splice_out(old, user)
        self._bids[user] = bid
        if bid > 0:
            insort(self._vals, bid)
            self._users_at.setdefault(bid, set()).add(user)
            self._total += bid

    def set_bids(self, updates: Mapping[UserId, float]) -> None:
        """Apply many bid updates, rebuilding wholesale when cheaper.

        Splicing the sorted array per update wins while the delta is small
        against the tracked population; past that, one C-speed re-sort
        beats per-item memmoves, so a bulk delta never degrades below the
        one-shot solve.
        """
        self.update_bids(updates)

    def update_bids(self, updates: Mapping[UserId, float]) -> tuple:
        """Apply many bid updates; returns the users newly forced by ``inf``.

        Same state transition as :meth:`set_bids` (it is the implementation
        behind it), but reports which users crossed into the forced set
        because this batch carried an infinite bid — the online mechanisms
        must surface those alongside promotions.
        """
        newly_forced: list = []
        if len(updates) > max(16, len(self._bids) // 4):
            # Validate the whole batch before touching any state, so a bad
            # entry cannot leave _bids out of sync with the sorted array.
            for user, bid in updates.items():
                bid = float(bid)
                if bid < 0 or math.isnan(bid):
                    raise MechanismError(
                        f"bid for user {user!r} must be >= 0, got {bid}"
                    )
            changed = False
            for user, bid in updates.items():
                bid = float(bid)
                if user in self._forced:
                    continue
                if math.isinf(bid):
                    self._bids.pop(user, None)
                    self._forced.add(user)
                    newly_forced.append(user)
                    changed = True
                elif self._bids.get(user) != bid:
                    self._bids[user] = bid
                    changed = True
            if changed:
                self._rebuild()
            return tuple(newly_forced)
        forced = self._forced
        for user, bid in updates.items():
            bid = float(bid)
            if bid < 0 or math.isnan(bid):
                raise MechanismError(
                    f"bid for user {user!r} must be >= 0, got {bid}"
                )
            if user in forced:
                continue
            self.set_bid(user, bid)
            if bid == math.inf:
                newly_forced.append(user)
        return tuple(newly_forced)

    def apply_and_solve(self, updates: Mapping[UserId, float]) -> tuple | None:
        """Fused update + gate + solve + promote — the fleet hot path.

        Applies ``updates`` like :meth:`update_bids`, then decides the slot
        in one go. Returns ``None`` when the outcome provably did not move
        (the serviced set is still exactly the forced set and the cached
        price stands), else ``(k, price, newly)`` with ``newly`` the
        non-empty frozenset of users newly pinned into the serviced set
        (promotions plus explicit ``inf`` bids). The splice loop is inlined
        because the fleet dispatcher crosses it hundreds of thousands of
        times per run; the state transition is identical to
        :meth:`set_bid` applied per entry.
        """
        newly_forced: list | None = None
        bids = self._bids
        if len(updates) > max(16, len(bids) // 4):
            forced_batch = self.update_bids(updates)
            if forced_batch:
                newly_forced = list(forced_batch)
        else:
            forced = self._forced
            vals = self._vals
            users_at = self._users_at
            total = self._total
            inf = math.inf
            for user, bid in updates.items():
                bid = float(bid)
                if bid < 0.0 or bid != bid:
                    self._total = total
                    raise MechanismError(
                        f"bid for user {user!r} must be >= 0, got {bid}"
                    )
                if user in forced:
                    continue
                if bid == inf:
                    old = bids.pop(user, None)
                    if old is not None and old > 0.0:
                        vals.pop(bisect_left(vals, old))
                        at_old = users_at[old]
                        at_old.discard(user)
                        if not at_old:
                            del users_at[old]
                        total = total - old if vals else 0.0
                    forced.add(user)
                    if newly_forced is None:
                        newly_forced = [user]
                    else:
                        newly_forced.append(user)
                    continue
                old = bids.get(user)
                if old == bid:
                    continue
                if old is not None and old > 0.0:
                    vals.pop(bisect_left(vals, old))
                    at_old = users_at[old]
                    at_old.discard(user)
                    if not at_old:
                        del users_at[old]
                    total = total - old if vals else 0.0
                bids[user] = bid
                if bid > 0.0:
                    insort(vals, bid)
                    at_bid = users_at.get(bid)
                    if at_bid is None:
                        users_at[bid] = {user}
                    else:
                        at_bid.add(user)
                    total += bid
            self._total = total

        cost = self.cost
        vals = self._vals
        n_forced = len(self._forced)
        n = len(vals)
        if not n:
            settled = True
        elif n_forced:
            settled = not isclose_or_greater(vals[-1], cost / (n_forced + n))
        else:
            settled = self._total < cost - GATE_SLACK * (n + 1.0) * (cost + 1.0)
        if settled:
            if not newly_forced:
                return None
            return n_forced, cost / n_forced, frozenset(newly_forced)
        k, price, _ = eviction_fixed_point(cost, vals, n_forced)
        if not k:
            return None  # k == 0 implies no forced users: nothing changed
        newly = self.promote_serviced(price)
        if newly_forced:
            newly |= frozenset(newly_forced)
        if not newly:
            return None  # k == forced count: price is the cached cost / k
        return k, price, newly

    def remove(self, user: UserId) -> None:
        """Forget a user entirely (including a forced one)."""
        old = self._bids.pop(user, None)
        if old is not None and old > 0:
            self._splice_out(old, user)
        self._forced.discard(user)

    def force(self, user: UserId) -> None:
        """Pin ``user`` into every future serviced set (infinite bid)."""
        if user in self._forced:
            return
        old = self._bids.pop(user, None)
        if old is not None and old > 0:
            self._splice_out(old, user)
        self._forced.add(user)

    def _splice_out(self, value: float, user: UserId) -> None:
        self._vals.pop(bisect_left(self._vals, value))
        users = self._users_at[value]
        users.discard(user)
        if not users:
            del self._users_at[value]
        # An empty array re-anchors the running sum exactly, so drift from
        # incremental +=/-= churn cannot accumulate across games.
        self._total = self._total - value if self._vals else 0.0

    def _rebuild(self) -> None:
        self._vals = sorted(v for v in self._bids.values() if v > 0)
        self._users_at = {}
        for user, bid in self._bids.items():
            if bid > 0:
                self._users_at.setdefault(bid, set()).add(user)
        self._total = float(sum(self._vals))

    # ------------------------------------------------------------- queries --

    @property
    def forced(self) -> frozenset:
        """The users pinned into every outcome (read-only view)."""
        return frozenset(self._forced)

    def forced_count(self) -> int:
        """Number of forced users (no set materialization)."""
        return len(self._forced)

    def tracked(self) -> Iterator[UserId]:
        """The non-forced users currently holding a declared bid."""
        return iter(self._bids)

    def __len__(self) -> int:
        return len(self._bids) + len(self._forced)

    def solve(self) -> Tuple[int, float]:
        """``(serviced size, common share)`` for the current profile.

        Uses the trajectory replay (O(rounds * log n)) rather than the
        descending scan: between slots the profile barely moves, so paying
        O(n - k) scan steps per slot would dwarf the O(m log n) updates.
        """
        size, price, _ = eviction_fixed_point(
            self.cost, self._vals, len(self._forced)
        )
        return size, price

    def rounds(self) -> int:
        """Seed-equivalent eviction round count for the current profile."""
        return eviction_rounds(self.cost, self._vals, len(self._forced))

    def solve_with_rounds(self) -> Tuple[int, float, int]:
        """``(size, price, rounds)`` from a single fixed-point replay."""
        return eviction_fixed_point(self.cost, self._vals, len(self._forced))

    def settled(self) -> bool:
        """O(1) proof that no tracked (non-forced) user can be serviced.

        When true, :meth:`solve` is guaranteed to return ``(forced,
        cost / forced)`` for a non-empty forced set and ``(0, 0.0)``
        otherwise, so callers may skip the solve and the promotion scan
        entirely. Two sound rejections back the claim:

        * forced set non-empty — every feasible size ``k = f + m`` with
          ``m >= 1`` needs the top tracked bid to pass the keep rule at
          ``cost / k >= cost / (f + n)``; ``isclose_or_greater`` is
          monotone in its threshold, so failing at the *smallest* possible
          share rules out every larger one exactly.
        * forced set empty — a serviced set of size ``k`` pays ``k`` shares
          of ``cost / k``, so the bids must sum to at least the cost (minus
          ``k`` keep-rule tolerances); a running total short of that, with a
          slack wide enough to absorb both the tolerances and the float
          drift of incremental updates, proves infeasibility.

        False never lies the other way — it only means the fast proof does
        not apply and the caller must solve.
        """
        vals = self._vals
        if not vals:
            return True
        forced = len(self._forced)
        if forced:
            return not isclose_or_greater(vals[-1], self.cost / (forced + len(vals)))
        slack = GATE_SLACK * (len(vals) + 1.0) * (self.cost + 1.0)
        return self._total < self.cost - slack

    def serviced(self, price: float) -> frozenset:
        """Materialize the serviced set at the given share."""
        out = set(self._forced)
        vals = self._vals
        idx = len(vals)
        last = None
        while idx > 0:
            value = vals[idx - 1]
            if not isclose_or_greater(value, price):
                break
            if value != last:
                out |= self._users_at[value]
                last = value
            idx -= 1
        return frozenset(out)

    def promote_serviced(self, price: float) -> frozenset:
        """Force every non-forced user whose bid covers ``price``.

        Returns the newly forced users. Each user crosses into the forced
        set at most once over an engine's lifetime, so the total promotion
        work is O(n) amortized across all slots.
        """
        newly: set = set()
        vals = self._vals
        while vals and isclose_or_greater(vals[-1], price):
            value = vals[-1]
            users = self._users_at.pop(value)
            while vals and vals[-1] == value:
                vals.pop()
                self._total -= value
            for user in users:
                del self._bids[user]
            self._forced |= users
            newly |= users
        if not vals:
            self._total = 0.0
        return frozenset(newly)
