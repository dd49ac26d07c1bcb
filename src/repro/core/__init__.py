"""The paper's mechanisms (Sections 4-6) and their outcome types.

* :func:`~repro.core.shapley.run_shapley` — Mechanism 1, the Shapley Value
  Mechanism for a single optimization in a single slot.
* :func:`~repro.core.addoff.run_addoff` — AddOff, offline additive games.
* :func:`~repro.core.addon.run_addon` — Mechanism 2, online additive games.
* :func:`~repro.core.substoff.run_substoff` — Mechanism 3, offline
  substitutable games.
* :func:`~repro.core.subston.run_subston` — Mechanism 4, online
  substitutable games.
* :mod:`~repro.core.accounting` — utility / payment / balance bookkeeping
  shared by the mechanisms and the experiment drivers.
* :mod:`~repro.core.fastshapley` — the sort-once/single-scan solver and the
  :class:`~repro.core.fastshapley.IncrementalShapley` engine that keeps the
  online mechanisms' per-slot work proportional to what changed. Its fused
  :meth:`~repro.core.fastshapley.IncrementalShapley.apply_and_solve` (with
  the O(1) :meth:`~repro.core.fastshapley.IncrementalShapley.settled`
  feasibility gate) backs the batch entry point
  :meth:`~repro.core.online.AddOnState.apply_changes` that the fleet
  dispatcher (:mod:`repro.fleet`) drives.
"""

from repro.core.outcome import (
    AddOffOutcome,
    AddOnOutcome,
    ShapleyResult,
    SubstOffOutcome,
    SubstOnOutcome,
)
from repro.core.fastshapley import IncrementalShapley
from repro.core.moulin import equal_shares, run_moulin, weighted_shares
from repro.core.online import AddOnState, SubstOnState
from repro.core.shapley import run_shapley
from repro.core.addoff import run_addoff
from repro.core.addon import run_addon
from repro.core.substoff import run_substoff
from repro.core.subston import run_subston
from repro.core import accounting

__all__ = [
    "ShapleyResult",
    "AddOffOutcome",
    "AddOnOutcome",
    "SubstOffOutcome",
    "SubstOnOutcome",
    "run_shapley",
    "run_addoff",
    "run_addon",
    "run_substoff",
    "run_subston",
    "AddOnState",
    "SubstOnState",
    "IncrementalShapley",
    "run_moulin",
    "equal_shares",
    "weighted_shares",
    "accounting",
]
