"""Deterministic sharding of a fleet's optimization catalog.

The fleet engine processes every changed game of a slot in one pass; the
shard map pins down the *order* of that pass so fleet runs are reproducible
regardless of how the slot's changes were discovered. Games are ranked by
catalog insertion order and dealt round-robin across shards (rank ``r``
lands on shard ``r % shards``, balancing load for any catalog ordering);
within a slot, shards are processed in ascending shard index and games
within a shard in ascending rank. DESIGN.md's "Fleet conventions" section
makes this ordering contractual.
"""

from __future__ import annotations

from repro.errors import GameConfigError

__all__ = ["ShardMap"]


class ShardMap:
    """Round-robin shard assignment with a total processing order.

    Parameters
    ----------
    n_games:
        Number of games (catalog size); ranks are ``0 .. n_games - 1`` in
        catalog insertion order.
    shards:
        Shard count; may exceed ``n_games`` (the extra shards stay empty).
    """

    __slots__ = ("n_games", "shards", "_order", "_process_rank")

    def __init__(self, n_games: int, shards: int = 1) -> None:
        if n_games < 0:
            raise GameConfigError(f"game count must be >= 0, got {n_games}")
        if shards < 1:
            raise GameConfigError(f"shard count must be >= 1, got {shards}")
        self.n_games = n_games
        self.shards = shards
        self._order = [
            rank for shard in range(shards) for rank in range(shard, n_games, shards)
        ]
        self._process_rank = [0] * n_games
        for position, rank in enumerate(self._order):
            self._process_rank[rank] = position

    def shard_of(self, rank: int) -> int:
        """Shard holding the game with catalog rank ``rank``."""
        if not 0 <= rank < self.n_games:
            raise GameConfigError(f"rank {rank} outside [0, {self.n_games})")
        return rank % self.shards

    @property
    def order(self) -> list[int]:
        """Ranks in slot-processing order (shard-major, copy)."""
        return list(self._order)

    @property
    def process_rank(self) -> list[int]:
        """``process_rank[rank]`` = position of that game in the slot pass.

        Returned as the live list (callers treat it as read-only); the fleet
        engine uses it as a sort key when merging change sources.
        """
        return self._process_rank

    def members(self, shard: int) -> list[int]:
        """Ranks assigned to one shard, in processing order."""
        if not 0 <= shard < self.shards:
            raise GameConfigError(f"shard {shard} outside [0, {self.shards})")
        return list(range(shard, self.n_games, self.shards))

    def __len__(self) -> int:
        return self.shards
