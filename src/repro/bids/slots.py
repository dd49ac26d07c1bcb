"""Value schedules over contiguous 1-indexed time slots.

The paper divides the optimization's amortization period ``T`` into slots
``1..z`` and describes a user's value as a function ``v_ij(t)`` that is zero
outside her service interval ``[s_i, e_i]``. :class:`SlotValues` is that
function restricted to its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import BidError

__all__ = ["SlotValues"]


@dataclass(frozen=True)
class SlotValues:
    """A non-negative, finite value schedule over slots ``start .. start+len-1``.

    Parameters
    ----------
    start:
        First slot of the support (1-indexed, per the paper's ``s_i``).
    values:
        Value obtained at each slot of ``[start, end]`` if the user has
        access to the optimization during that slot.
    """

    start: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.start < 1:
            raise BidError(f"start slot must be >= 1, got {self.start}")
        if not self.values:
            raise BidError("a slot schedule needs at least one slot")
        coerced = tuple(float(v) for v in self.values)
        if not all(0 <= v < math.inf for v in coerced):  # NaN fails both
            raise BidError(
                f"slot values must be non-negative and finite, got {coerced}"
            )
        object.__setattr__(self, "values", coerced)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float]) -> "SlotValues":
        """Build a schedule from a ``{slot: value}`` mapping.

        Slots missing inside the spanned interval are filled with zero.
        """
        if not mapping:
            raise BidError("cannot build a schedule from an empty mapping")
        start = min(mapping)
        end = max(mapping)
        return cls(start, tuple(mapping.get(t, 0.0) for t in range(start, end + 1)))

    @property
    def end(self) -> int:
        """Last slot of the support (the paper's ``e_i``)."""
        return self.start + len(self.values) - 1

    def value_at(self, t: int) -> float:
        """``v(t)`` — zero outside ``[start, end]``."""
        if t < self.start or t > self.end:
            return 0.0
        return self.values[t - self.start]

    def residual(self, t: int) -> float:
        """``sum_{tau >= t} v(tau)`` — the residual value used by AddOn."""
        if t > self.end:
            return 0.0
        lo = max(t, self.start)
        return sum(self.values[lo - self.start :])

    def total(self) -> float:
        """Total value over the whole support."""
        return sum(self.values)

    def slots(self) -> Iterator[int]:
        """Iterate the support slots in order."""
        return iter(range(self.start, self.end + 1))

    def scaled(self, factor: float) -> "SlotValues":
        """Copy with every value multiplied by ``factor`` (must keep values >= 0)."""
        return SlotValues(self.start, tuple(v * factor for v in self.values))
