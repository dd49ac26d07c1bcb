"""Billing ledger: who paid what, and whether the cloud broke even."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GameConfigError

__all__ = ["LedgerEntry", "BillingLedger"]

_INVOICE, _BUILD = "invoice", "build"


@dataclass(frozen=True)
class LedgerEntry:
    """One ledger line; ``amount`` > 0 is user revenue, < 0 a cloud outlay."""

    slot: int
    kind: str
    party: object
    amount: float
    memo: str = ""


class BillingLedger:
    """Double-purpose book: user invoices and cloud build outlays.

    Lines are stored as five columns (slot, kind, party, amount, memo)
    and built as :class:`LedgerEntry` objects only when read (the entry
    :meth:`invoice` and :meth:`build_outlay` return is not kept). Parties
    must be hashable: a per-party index lists each party's invoice
    lines. What each read costs, for ``n`` lines:

    * :meth:`statement`/:meth:`paid_by` — O(that party's invoices);
    * :attr:`revenue`/:attr:`outlays`/:attr:`balance` — O(1) until a
      line of that kind is added, then one ``sum()`` over that kind's
      amounts. The totals are ``sum()`` over the amounts in append
      order, so they equal a scan of the lines bit for bit on every
      interpreter (a ``+=`` running total would not where ``sum``
      compensates rounding, as it does from Python 3.12);
    * :meth:`rows`, :attr:`entries` and ``==`` — O(n); only
      :attr:`entries` builds entries.
    """

    def __init__(self) -> None:
        self._slots: list = []
        self._kinds: list = []
        self._parties: list = []
        self._amounts: list = []
        self._memos: list = []
        # party -> position of its invoice line, or a list of positions
        # once it has several: an int holds no GC-tracked object.
        self._invoices: dict = {}
        self._invoiced: list = []  # invoice amounts, in order
        self._built: list = []  # build amounts (negative), in order
        self._revenue = None  # cached sum() of _invoiced
        self._outlays = None  # cached -sum() of _built

    def __eq__(self, other: object) -> bool:
        """Ledgers are equal when their entry sequences are (wire contract:
        a gateway round-trip must reproduce the book line for line)."""
        if not isinstance(other, BillingLedger):
            return NotImplemented
        return (
            self._slots == other._slots
            and self._kinds == other._kinds
            and self._parties == other._parties
            and self._amounts == other._amounts
            and self._memos == other._memos
        )

    __hash__ = None  # mutable book: identity hashing would lie across edits

    def invoice(self, slot: int, user, amount: float, memo: str = "") -> LedgerEntry:
        """Record a user payment (at her departure slot)."""
        if amount < 0:
            raise GameConfigError(f"invoice amounts must be >= 0, got {amount}")
        at = self._invoices.get(user)
        if at is None:
            self._invoices[user] = len(self._slots)
        elif type(at) is int:
            self._invoices[user] = [at, len(self._slots)]
        else:
            at.append(len(self._slots))
        self._invoiced.append(amount)
        self._revenue = None
        return self._append(slot, _INVOICE, user, amount, memo)

    def build_outlay(
        self, slot: int, optimization, cost: float, memo: str = ""
    ) -> LedgerEntry:
        """Record the cloud paying to implement an optimization."""
        if cost <= 0:
            raise GameConfigError(f"build costs must be positive, got {cost}")
        amount = -cost
        self._built.append(amount)
        self._outlays = None
        return self._append(slot, _BUILD, optimization, amount, memo)

    def _append(self, slot: int, kind: str, party, amount, memo: str) -> LedgerEntry:
        """Add one line to the columns; returns it as an entry, which
        the book itself does not keep."""
        self._slots.append(slot)
        self._kinds.append(kind)
        self._parties.append(party)
        self._amounts.append(amount)
        self._memos.append(memo)
        return LedgerEntry(slot, kind, party, amount, memo)

    def _entry(self, i: int) -> LedgerEntry:
        return LedgerEntry(
            self._slots[i],
            self._kinds[i],
            self._parties[i],
            self._amounts[i],
            self._memos[i],
        )

    def rows(self):
        """``(slot, kind, party, amount, memo)`` per line, in order."""
        return zip(self._slots, self._kinds, self._parties, self._amounts, self._memos)

    @property
    def entries(self) -> list[LedgerEntry]:
        """All lines, in order."""
        return [LedgerEntry(*row) for row in self.rows()]

    @property
    def revenue(self) -> float:
        """Total user payments."""
        if self._revenue is None:
            self._revenue = sum(self._invoiced)
        return self._revenue

    @property
    def outlays(self) -> float:
        """Total build costs (positive number)."""
        if self._outlays is None:
            self._outlays = -sum(self._built)
        return self._outlays

    @property
    def balance(self) -> float:
        """Revenue minus outlays; negative means the cloud lost money."""
        return self.revenue - self.outlays

    def paid_by(self, user) -> float:
        """Total invoiced to one user (int 0 for a party never invoiced)."""
        amounts = self._amounts
        return sum(amounts[i] for i in self._positions(user))

    def statement(self, user) -> list[LedgerEntry]:
        """All invoice lines of one user."""
        return [self._entry(i) for i in self._positions(user)]

    def _positions(self, user):
        at = self._invoices.get(user, ())
        return (at,) if type(at) is int else at
