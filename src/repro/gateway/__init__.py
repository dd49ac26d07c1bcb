"""The unified tenant gateway: one versioned API over every subsystem.

The repo's subsystems — the core mechanisms, the fleet engine, the
relational query engine, the optimization advisor — each grew their own
entry point. This package is the single stable surface in front of all of
them:

* :mod:`repro.gateway.envelopes` — typed, JSON-round-trippable request
  and reply envelopes (``SubmitBids``, ``RunQuery``, ``AdviseRequest``,
  ``LedgerQuery``, ``ReviseBid``, ``AdvanceSlots``, ``Configure``, and
  ``ErrorReply`` with structured codes mapped from the
  :class:`~repro.errors.ReproError` hierarchy), versioned by
  :data:`API_VERSION`.
* :mod:`repro.gateway.codec` — ``to_dict``/``from_dict`` wire codecs for
  every public value object (:class:`~repro.core.outcome.ShapleyResult`,
  the four mechanism outcomes, :class:`~repro.fleet.engine.FleetReport`,
  :class:`~repro.db.savings.SavingsQuote`,
  :class:`~repro.db.engine.QueryResult`).
* :mod:`repro.gateway.service` — the :class:`PricingService` facade:
  ``dispatch(request_or_batch) -> reply(s)`` over one
  fleet engine, one relational catalog, one advisor; per-tenant
  :class:`TenantSession` handles; the batched columnar hot path
  preserved bit-for-bit through the boundary; and ``fingerprint``, the
  one comparable digest of a service's durable state.
* :mod:`repro.gateway.trace` — JSONL request traces and the ``replay``
  driver behind the ``python -m repro replay`` command.
* :mod:`repro.gateway.server` / :mod:`repro.gateway.client` — the
  asyncio HTTP serving layer behind ``python -m repro serve`` (admission
  control, deadlines, group commit, graceful drain) and its blocking
  retry-aware client.

``to_dict``/``from_dict`` at this package level dispatch over both
worlds: envelopes (``"kind"``-tagged) and value objects
(``"type"``-tagged).
"""

from __future__ import annotations

import importlib
from typing import Mapping

from repro.errors import ProtocolError
from repro.gateway import codec as _codec
from repro.gateway import envelopes as _envelopes

__all__ = [
    "API_VERSION",
    "to_dict",
    "from_dict",
    # envelopes
    "Request",
    "Reply",
    "Configure",
    "SubmitBids",
    "ReviseBid",
    "AdvanceSlots",
    "RunQuery",
    "AdviseRequest",
    "LedgerQuery",
    "MetricsRequest",
    "ConfigReply",
    "BidsReply",
    "ReviseReply",
    "SlotReply",
    "QueryReply",
    "AdviseReply",
    "LedgerReply",
    "MetricsReply",
    "ErrorReply",
    "ERROR_CODES",
    "RETRYABLE_CODES",
    "error_code",
    "request_from_dict",
    "reply_from_dict",
    # facade
    "PricingService",
    "TenantSession",
    "BulkAcks",
    "fingerprint",
    # traces
    "ReplayResult",
    "write_trace",
    "iter_trace",
    "replay",
    "replay_path",
    # serving layer
    "GatewayServer",
    "ServerConfig",
    "ServerThread",
    "GatewayClient",
    "GatewayUnavailable",
]


#: Public name -> the submodule that defines it. Resolved on first
#: access (PEP 562): the server imports this package on its way to
#: ``repro.gateway.server`` and must not pay for the client or traces.
_LAZY = {
    **dict.fromkeys(
        (
            "API_VERSION", "Request", "Reply", "Configure", "SubmitBids",
            "ReviseBid", "AdvanceSlots", "RunQuery", "AdviseRequest",
            "LedgerQuery", "MetricsRequest", "ConfigReply", "BidsReply",
            "ReviseReply", "SlotReply", "QueryReply", "AdviseReply",
            "LedgerReply", "MetricsReply", "ErrorReply", "ERROR_CODES",
            "RETRYABLE_CODES", "error_code", "request_from_dict",
            "reply_from_dict",
        ),
        "repro.gateway.envelopes",
    ),
    **dict.fromkeys(
        ("PricingService", "TenantSession", "BulkAcks", "fingerprint"),
        "repro.gateway.service",
    ),
    **dict.fromkeys(
        ("ReplayResult", "write_trace", "iter_trace", "replay", "replay_path"),
        "repro.gateway.trace",
    ),
    **dict.fromkeys(
        ("GatewayServer", "ServerConfig", "ServerThread"),
        "repro.gateway.server",
    ),
    **dict.fromkeys(
        ("GatewayClient", "GatewayUnavailable"), "repro.gateway.client"
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def to_dict(obj) -> dict:
    """Serialize an envelope or a public value object to a JSON-able dict."""
    if isinstance(obj, (_envelopes.Request, _envelopes.Reply)):
        return _envelopes.to_dict(obj)
    return _codec.encode(obj)


def from_dict(d):
    """Inverse of :func:`to_dict`: reconstruct an envelope or value object."""
    if isinstance(d, Mapping):
        # "type" wins: value objects may carry a "kind" *field* (e.g. a
        # SavingsQuote's index kind), but only envelopes are kind-tagged.
        if "type" in d:
            return _codec.decode(dict(d))
        if "kind" in d:
            return _envelopes.envelope_from_dict(d)
    raise ProtocolError(
        "expected a dict with a 'kind' (envelope) or 'type' (value object) tag"
    )
