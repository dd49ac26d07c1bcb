"""repro — a reproduction of "How to Price Shared Optimizations in the Cloud".

Upadhyaya, Balazinska, Suciu. PVLDB 5(6), 2012.

The package implements the paper's four cost-sharing mechanisms for shared
database optimizations (AddOff, AddOn, SubstOff, SubstOn, all built on the
Shapley Value Mechanism), the regret-amortization baseline it compares
against, the astronomy use-case substrate (universe simulator, halo finder,
merger-tree workload, mini relational engine with materialized views), the
fleet engine (:mod:`repro.fleet`) that batches hundreds of concurrent
pricing games into one slot-synchronized scheduler with workload-derived
bids, the closed optimization loop (:mod:`repro.advisor`) that mines
executed workloads into priceable view and index candidates and adopts
whatever the pricing games fund, the unified tenant gateway
(:mod:`repro.gateway`) that fronts all of it with one versioned,
JSON-round-trippable ``dispatch(request) -> reply`` surface
(:class:`~repro.gateway.PricingService`), and experiment drivers that
regenerate every figure in the paper's evaluation.

Quickstart
----------
>>> from repro import run_shapley
>>> result = run_shapley(cost=100.0, bids={"ann": 60.0, "bob": 55.0, "eve": 20.0})
>>> sorted(result.serviced), result.price
(['ann', 'bob'], 50.0)

`API.md` at the repository root documents the public surface with one
runnable snippet per entry.
"""

import importlib

from repro import obs

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # observability
    "obs",
    # bids
    "SlotValues",
    "AdditiveBid",
    "SubstitutableBid",
    "RevisableBid",
    # mechanisms
    "run_shapley",
    "run_addoff",
    "run_addon",
    "run_substoff",
    "run_subston",
    # outcomes
    "ShapleyResult",
    "AddOffOutcome",
    "AddOnOutcome",
    "SubstOffOutcome",
    "SubstOnOutcome",
    "accounting",
    # fleet
    "FleetBatch",
    "FleetEngine",
    "FleetReport",
    # gateway (the public service surface)
    "API_VERSION",
    "PricingService",
    "TenantSession",
    # relational substrate and the closed loop
    "Catalog",
    "QueryEngine",
    "SavingsEstimator",
    "OptimizationAdvisor",
    # errors
    "ReproError",
    "BidError",
    "RevisionError",
    "MechanismError",
    "GameConfigError",
    "SchemaError",
    "QueryError",
    "ProtocolError",
]

#: Public name -> the module that defines it. Resolved on first access
#: (PEP 562), so ``import repro.gateway.server`` loads the serving path
#: and not the figures or the astronomy substrate.
_LAZY = {
    **dict.fromkeys(
        ("SlotValues", "AdditiveBid", "SubstitutableBid", "RevisableBid"),
        "repro.bids",
    ),
    **dict.fromkeys(
        (
            "run_shapley", "run_addoff", "run_addon", "run_substoff",
            "run_subston", "ShapleyResult", "AddOffOutcome", "AddOnOutcome",
            "SubstOffOutcome", "SubstOnOutcome", "accounting",
        ),
        "repro.core",
    ),
    **dict.fromkeys(
        ("FleetBatch", "FleetEngine", "FleetReport"), "repro.fleet"
    ),
    **dict.fromkeys(
        ("API_VERSION", "PricingService", "TenantSession"), "repro.gateway"
    ),
    **dict.fromkeys(("Catalog", "QueryEngine", "SavingsEstimator"), "repro.db"),
    "OptimizationAdvisor": "repro.advisor",
    **dict.fromkeys(
        (
            "ReproError", "BidError", "RevisionError", "MechanismError",
            "GameConfigError", "SchemaError", "QueryError", "ProtocolError",
        ),
        "repro.errors",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value
