"""Fleet-scale pricing: many concurrent games, one slot-synchronized engine.

This package batches *hundreds* of concurrent additive pricing games
into a single scheduler (:class:`~repro.fleet.engine.FleetEngine`) that
makes one pass over the fleet's arrivals and departures per slot —
amortized O(changed bids) across all games — stepping the games in
catalog order. It is the one additive game runner: a one-game engine is
the AddOn service loop, and :func:`repro.run_addon` is the paper
reference the tests check every fleet game against. The workload-to-bid
pipeline (:mod:`repro.fleet.pipeline`) feeds it bids derived from
:mod:`repro.db`'s cost model instead of synthetic numbers, closing the
paper's loop between physical design and pricing.
"""

from repro.fleet.engine import FleetBatch, FleetEngine, FleetReport
from repro.fleet.pipeline import (
    TenantWorkload,
    build_fleet,
    build_service,
    candidate_catalog,
    workload_bid,
)

__all__ = [
    "FleetBatch",
    "FleetEngine",
    "FleetReport",
    "TenantWorkload",
    "workload_bid",
    "candidate_catalog",
    "build_fleet",
    "build_service",
]
