"""Fleet-scale pricing: many concurrent games, one slot-synchronized engine.

:mod:`repro.cloudsim` simulates one service period for one catalog with a
per-optimization Python loop; this package batches *hundreds* of
concurrent additive pricing games into a single scheduler
(:class:`~repro.fleet.engine.FleetEngine`) that makes one pass over the
fleet's arrivals and departures per slot — amortized O(changed bids)
across all games — over a sharded, deterministically ordered catalog
(:class:`~repro.fleet.shard.ShardMap`). The workload-to-bid pipeline
(:mod:`repro.fleet.pipeline`) feeds it bids derived from
:mod:`repro.db`'s cost model instead of synthetic numbers, closing the
paper's loop between physical design and pricing.

``CloudService``'s additive mode is a thin wrapper over this engine, so
the single-catalog service and the fleet share one mechanism path.
"""

from repro.fleet.engine import FleetBatch, FleetEngine, FleetReport
from repro.fleet.pipeline import (
    TenantWorkload,
    build_fleet,
    build_service,
    candidate_catalog,
    workload_bid,
)
from repro.fleet.shard import ShardMap

__all__ = [
    "FleetBatch",
    "FleetEngine",
    "FleetReport",
    "ShardMap",
    "TenantWorkload",
    "workload_bid",
    "candidate_catalog",
    "build_fleet",
    "build_service",
]
