"""Seeded random-number-generator helpers.

Every stochastic entry point in the library accepts an ``rng`` argument that
may be ``None`` (fresh default generator), an integer seed, or an existing
:class:`numpy.random.Generator`. Centralizing the coercion here keeps the
experiment drivers reproducible and the call sites tidy.

``numpy.random`` loads on the first call, not with this module (``RngLike``
names the generator type as a string): the server imports this module
through the mechanisms but never draws a number.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import GameConfigError

RngLike = Union[None, int, "np.random.Generator"]

__all__ = ["ensure_rng", "spawn_rngs", "RngLike"]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields an OS-seeded generator; an ``int`` is used as a seed; an
    existing generator is returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, int, or numpy Generator, got {type(rng)!r}")


def spawn_rngs(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used by trial runners so each trial gets its own stream and results do
    not depend on evaluation order.
    """
    if count < 0:
        raise GameConfigError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
