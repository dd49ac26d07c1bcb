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
from repro.fleet.executor import FleetExecutor
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
    "FleetExecutor",
    "FleetReport",
    "MultiProcessFleet",
    "ShardMap",
    "TenantWorkload",
    "workload_bid",
    "candidate_catalog",
    "build_fleet",
    "build_service",
]


def __getattr__(name: str):
    # MultiProcessFleet resolves lazily: repro.fleet.mp pulls in
    # multiprocessing and the gateway codec, which a process that only
    # runs the in-process engine (such as `repro serve`) never needs.
    if name == "MultiProcessFleet":
        from repro.fleet.mp import MultiProcessFleet

        return MultiProcessFleet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
