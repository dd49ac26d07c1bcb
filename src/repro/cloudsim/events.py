"""Typed event records emitted by the cloud-service simulation."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from itertools import repeat, starmap
from typing import Iterator

import numpy as np

__all__ = [
    "Event",
    "BidPlaced",
    "BidRevised",
    "UserGranted",
    "OptimizationImplemented",
    "UserDeparted",
    "UserCharged",
    "EventLog",
    "KINDS",
    "PLACED",
    "REVISED",
    "GRANTED",
    "IMPLEMENTED",
    "DEPARTED",
    "CHARGED",
]


@dataclass(frozen=True)
class Event:
    """Base event: everything carries the slot it happened in."""

    slot: int


@dataclass(frozen=True)
class BidPlaced(Event):
    """A user declared her (initial) bid."""

    user: object
    detail: str = ""


@dataclass(frozen=True)
class BidRevised(Event):
    """A user revised future values upward."""

    user: object
    detail: str = ""


@dataclass(frozen=True)
class UserGranted(Event):
    """A user entered an optimization's serviced set."""

    user: object
    optimization: object


@dataclass(frozen=True)
class OptimizationImplemented(Event):
    """The cloud built an optimization."""

    optimization: object
    cost: float


@dataclass(frozen=True)
class UserDeparted(Event):
    """A user reached her departure slot."""

    user: object


@dataclass(frozen=True)
class UserCharged(Event):
    """A departing user was invoiced her cost-share."""

    user: object
    amount: float


#: The event kinds an :class:`EventLog` stores; a row's kind code is the
#: kind's position here.
KINDS = (
    BidPlaced,
    BidRevised,
    UserGranted,
    OptimizationImplemented,
    UserDeparted,
    UserCharged,
)
PLACED, REVISED, GRANTED, IMPLEMENTED, DEPARTED, CHARGED = range(len(KINDS))
_CODE = {kind: code for code, kind in enumerate(KINDS)}
_CODE_BYTES = [bytes((code,)) for code in range(len(KINDS))]
#: Per kind, the names of the fields after ``slot`` (one or two).
_FIELDS = tuple(tuple(f.name for f in fields(kind))[1:] for kind in KINDS)


class EventLog:
    """Append-only event history, stored as four columns.

    Every event is one row: its kind code (an index into :data:`KINDS`),
    its slot, its first field after the slot (the user; an
    implementation's optimization) and its second field (detail,
    optimization, cost or amount; None for a departure). The object
    columns reference objects the caller already holds, so a row costs
    25 bytes. :meth:`append` and :meth:`extend` add rows without building
    an event; :meth:`record` takes an event object. Events are built
    only when read. What each read costs, for ``n`` rows:

    * ``len`` — O(1);
    * :meth:`column` — one numpy pass over the kind codes, then one
      read per matching row, no events;
    * :meth:`of_type`/:meth:`in_slot` — one numpy pass over the kind or
      slot column, then one event built per matching row;
    * ``==`` — O(n), builds no events;
    * :meth:`all` — n events built.
    """

    def __init__(self) -> None:
        self._kinds = bytearray()
        self._slots = array("q")
        self._firsts: list = []
        self._seconds: list = []

    def __eq__(self, other: object) -> bool:
        """Logs are equal when their event sequences are (wire contract:
        a gateway round-trip must reproduce the history event for event)."""
        if not isinstance(other, EventLog):
            return NotImplemented
        return (
            self._kinds == other._kinds
            and self._slots == other._slots
            and self._firsts == other._firsts
            and self._seconds == other._seconds
        )

    __hash__ = None  # append-only log: identity hashing would lie across edits

    def record(self, event: Event) -> None:
        """Append one event object."""
        code = _CODE[type(event)]
        names = _FIELDS[code]
        second = getattr(event, names[1]) if len(names) > 1 else None
        self.append(code, event.slot, getattr(event, names[0]), second)

    def record_many(self, events) -> None:
        """Append an iterable of event objects in order."""
        for event in events:
            self.record(event)

    def append(self, kind: int, slot: int, first, second=None) -> None:
        """Append one row of kind code ``kind`` (see the class docstring)."""
        self._kinds.append(kind)
        self._slots.append(slot)
        self._firsts.append(first)
        self._seconds.append(second)

    def extend(self, kind: int, slot: int, firsts, second=None) -> None:
        """Append one row of ``kind`` at ``slot`` per item of the sequence
        ``firsts``, every row sharing ``second``."""
        n = len(firsts)
        self._kinds += _CODE_BYTES[kind] * n
        self._slots.extend(repeat(slot, n))
        self._firsts += firsts
        self._seconds += [second] * n

    def rows(self) -> Iterator[tuple]:
        """``(kind, slot, first, second)`` per row, in order; the kind is
        the event class."""
        return zip(
            map(KINDS.__getitem__, self._kinds),
            self._slots,
            self._firsts,
            self._seconds,
        )

    def column(self, kind: type, field: str) -> list:
        """One field of every event of exactly one kind, in order."""
        code = _CODE[kind]
        picked = np.flatnonzero(self._codes() == code)
        if field == "slot":
            return np.frombuffer(self._slots, np.int64)[picked].tolist()
        values = self._firsts if field == _FIELDS[code][0] else self._seconds
        return [values[i] for i in picked.tolist()]

    def all(self) -> list[Event]:
        """Every event in order."""
        return list(starmap(_build, self.rows()))

    def of_type(self, event_type: type) -> Iterator[Event]:
        """Events of one type (subclasses included), in order."""
        codes = [
            code for code, kind in enumerate(KINDS) if issubclass(kind, event_type)
        ]
        return self._built(np.isin(self._codes(), codes))

    def in_slot(self, slot: int) -> Iterator[Event]:
        """Events of one slot, in order."""
        return self._built(np.frombuffer(self._slots, np.int64) == slot)

    def _codes(self) -> np.ndarray:
        """The kind codes, one per row, as a read-only array."""
        return np.frombuffer(self._kinds, np.uint8)

    def _built(self, picked: np.ndarray) -> Iterator[Event]:
        """The events of the rows where ``picked`` (a row mask) is set."""
        kinds, slots = self._kinds, self._slots
        firsts, seconds = self._firsts, self._seconds
        return (
            _build(KINDS[kinds[i]], slots[i], firsts[i], seconds[i])
            for i in np.flatnonzero(picked).tolist()
        )

    def __len__(self) -> int:
        return len(self._firsts)


def _build(kind: type, slot: int, first, second) -> Event:
    if kind is UserDeparted:
        return kind(slot, first)
    return kind(slot, first, second)
