"""Cloud-service simulation: the online mechanisms run as a live service.

The experiment drivers replay complete bid profiles through the batch
mechanism runners; this package instead holds the pieces of the *service*
the paper envisions: an optimization catalog, an event log of users
arriving / being granted / departing over slots, and a billing ledger
invoicing users at departure. :class:`CloudService` runs one substitutable
(SubstOn) period over them; additive games run in
:class:`repro.fleet.FleetEngine`, which keeps the same catalog, event log
and ledger.
"""

from repro.cloudsim.catalog import OptimizationCatalog, OptimizationSpec
from repro.cloudsim.events import (
    BidPlaced,
    BidRevised,
    EventLog,
    OptimizationImplemented,
    UserCharged,
    UserDeparted,
    UserGranted,
)
from repro.cloudsim.ledger import BillingLedger, LedgerEntry
from repro.cloudsim.service import CloudService, ServiceReport

__all__ = [
    "OptimizationCatalog",
    "OptimizationSpec",
    "EventLog",
    "BidPlaced",
    "BidRevised",
    "UserGranted",
    "UserDeparted",
    "UserCharged",
    "OptimizationImplemented",
    "BillingLedger",
    "LedgerEntry",
    "CloudService",
    "ServiceReport",
]
