"""Versioned request/response envelopes of the tenant gateway.

Every interaction with the :class:`~repro.gateway.service.PricingService`
facade is one *request envelope* in, one *reply envelope* out. Envelopes
are frozen dataclasses that round-trip through plain JSON-able
dictionaries — ``request_from_dict(to_dict(req)) == req`` holds exactly,
including after a ``json.dumps``/``json.loads`` hop — so the same
protocol works in-process today and over any wire transport later.

Wire shape
----------
A serialized envelope is a flat JSON object::

    {"api": "1.9", "kind": "SubmitBids", "tenant": "ann", "bids": [...]}

``api`` is :data:`API_VERSION` (checked on decode; a mismatch raises
:class:`~repro.errors.ProtocolError` with code ``"version"``), ``kind``
names the envelope class, and the remaining keys are its fields. Anything
malformed — unknown kind, missing or badly-typed fields — raises
:class:`~repro.errors.ProtocolError`; nothing in this module ever lets a
bare ``KeyError``/``ValueError`` escape (fuzz-tested in
``tests/test_gateway.py``).

Errors travel as data: :meth:`ErrorReply.of` maps the
:class:`~repro.errors.ReproError` hierarchy onto stable structured codes
(:data:`ERROR_CODES`) so remote callers can dispatch on ``code`` without
importing this package's exception classes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

from repro.errors import (
    BidError,
    DeadlineError,
    GameConfigError,
    MechanismError,
    OverloadedError,
    ProtocolError,
    QueryError,
    RecoveryError,
    ReproError,
    RevisionError,
    SchemaError,
)

__all__ = [
    "API_VERSION",
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
    "to_dict",
    "request_from_dict",
    "reply_from_dict",
    "envelope_from_dict",
]

#: Protocol version every envelope carries. Bumped on any incompatible
#: change to an envelope's fields or semantics; decode rejects mismatches.
#: 1.3 added epoch plumbing: ``RunQuery.as_of`` and the ``epoch`` field on
#: :class:`QueryReply` and :class:`AdviseReply`. 1.4 added the serving
#: layer's load-shedding surface: the ``overloaded``/``deadline_exceeded``
#: error codes and the ``retryable``/``retry_after`` fields on
#: :class:`ErrorReply`. 1.5 added the executor seam: a :class:`Configure`
#: field picked the fleet backend (in-process or a shared-nothing
#: multi-process pool) and :class:`ConfigReply` echoed the pool size.
#: 1.6 added the observability surface — the :class:`MetricsRequest`/
#: :class:`MetricsReply` pair reading the process-wide
#: :mod:`repro.obs` registry — and removed the deprecated
#: ``dispatch_many``/``dispatch_dict`` aliases API 1.5 had kept as
#: warning shims. 1.7 deleted the pool and its pool-size field from
#: both envelopes: a :class:`Configure` that still carries it is refused
#: as an unknown field, and the in-process engine is the only backend.
#: 1.8 made every fleet bid a row of one columnar store: same-slot
#: departures follow one row order across bulk and per-bid intake, which
#: changes the event log and ledger of mixed-intake periods.
#: 1.9 deleted the fleet's shard count: games step in catalog order
#: within a slot, and a :class:`Configure` or :class:`AdviseRequest` that
#: still carries ``shards`` is refused as an unknown field.
API_VERSION = "1.9"

#: Query kinds :class:`RunQuery` accepts (the astronomy workload surface).
QUERY_KINDS = ("members", "histogram", "top", "chain", "contributors")


def _require_hashable(value, what: str):
    """Tenant and optimization ids key dicts all the way down; rejecting
    unhashables at envelope construction keeps that failure as data
    (ProtocolError -> ErrorReply) instead of a mid-dispatch TypeError."""
    try:
        hash(value)
    except TypeError:
        raise ProtocolError(
            f"{what} must be hashable, got {type(value).__name__}"
        ) from None
    return value


class _Normalized:
    """Shared coercion harness: subclasses normalize in ``_normalize``.

    Coercion failures (bad types, short tuples) become
    :class:`ProtocolError` so no public construction path — in-process
    ``TenantSession`` calls included — leaks a bare
    ``ValueError``/``TypeError`` for request-shaped mistakes.
    """

    def __post_init__(self) -> None:
        try:
            self._normalize()
        except ProtocolError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed {type(self).__name__} envelope: {exc}"
            ) from exc

    def _normalize(self) -> None:
        """Coerce and validate fields; overridden per envelope."""


@dataclass(frozen=True)
class Request(_Normalized):
    """Marker base for request envelopes."""


@dataclass(frozen=True)
class Reply(_Normalized):
    """Marker base for reply envelopes."""


# ------------------------------------------------------------- requests --


@dataclass(frozen=True)
class Configure(Request):
    """(Re)open a pricing period: catalog of optimizations plus horizon.

    ``optimizations`` is a tuple of ``(opt_id, cost)`` pairs. Traces start
    with one of these so a replay is fully self-contained.
    """

    optimizations: tuple
    horizon: int

    def _normalize(self) -> None:
        # Coercion doubles as wire-side type checking: a badly-typed
        # field raises here, which the decoder turns into ProtocolError.
        object.__setattr__(
            self,
            "optimizations",
            tuple(
                (_require_hashable(opt, "an optimization id"), float(cost))
                for opt, cost in self.optimizations
            ),
        )
        object.__setattr__(self, "horizon", int(self.horizon))


@dataclass(frozen=True)
class SubmitBids(Request):
    """One tenant's additive bids: ``(optimization, start, values)`` triples.

    ``values`` is the per-slot value schedule from ``start`` on — exactly
    an :class:`~repro.bids.AdditiveBid`'s constructor arguments.
    ``revisable`` marks bids a later :class:`ReviseBid` will touch: every
    bid becomes one row of the fleet's columnar store either way, but only
    a revisable bid keeps the handle a revision needs, so a batched
    dispatch before the first slot ingests non-revisable runs in bulk and
    places revisable ones one by one.
    """

    tenant: object
    bids: tuple
    revisable: bool = False

    def _normalize(self) -> None:
        _require_hashable(self.tenant, "a tenant id")
        object.__setattr__(
            self,
            "bids",
            tuple(
                (
                    _require_hashable(opt, "an optimization id"),
                    int(start),
                    tuple(float(v) for v in values),
                )
                for opt, start, values in self.bids
            ),
        )
        object.__setattr__(self, "revisable", bool(self.revisable))


@dataclass(frozen=True)
class ReviseBid(Request):
    """Upward revision of one previously submitted bid.

    ``new_values`` is a tuple of ``(slot, value)`` pairs (a mapping is
    accepted and normalized).
    """

    tenant: object
    optimization: object
    new_values: tuple

    def _normalize(self) -> None:
        _require_hashable(self.tenant, "a tenant id")
        _require_hashable(self.optimization, "an optimization id")
        values = self.new_values
        if isinstance(values, Mapping):
            values = tuple(values.items())
        object.__setattr__(
            self,
            "new_values",
            tuple((int(slot), float(value)) for slot, value in values),
        )


@dataclass(frozen=True)
class AdvanceSlots(Request):
    """Advance the shared pricing clock by ``slots`` slots."""

    slots: int = 1

    def _normalize(self) -> None:
        object.__setattr__(self, "slots", int(self.slots))


@dataclass(frozen=True)
class RunQuery(Request):
    """Execute one workload query against the service's relational catalog.

    ``query`` is one of :data:`QUERY_KINDS`; ``table``/``tables``/``halo``/
    ``pids`` parameterize it (see
    :meth:`repro.gateway.service.PricingService.dispatch`). ``record``
    controls whether the execution feeds the advisor's workload log.
    ``as_of`` pins the query to an earlier catalog epoch the service still
    retains (None — the default — reads the current state); the reply
    echoes the epoch actually served.
    """

    tenant: object
    query: str
    table: str = ""
    tables: tuple = ()
    halo: int | None = None
    pids: tuple = ()
    record: bool = True
    as_of: int | None = None

    def _normalize(self) -> None:
        _require_hashable(self.tenant, "a tenant id")
        object.__setattr__(self, "query", str(self.query))
        object.__setattr__(self, "table", str(self.table))
        object.__setattr__(self, "tables", tuple(str(t) for t in self.tables))
        if self.halo is not None:
            object.__setattr__(self, "halo", int(self.halo))
        object.__setattr__(self, "pids", tuple(int(p) for p in self.pids))
        object.__setattr__(self, "record", bool(self.record))
        if self.as_of is not None:
            object.__setattr__(self, "as_of", int(self.as_of))


@dataclass(frozen=True)
class AdviseRequest(Request):
    """Run one closed advising round over the accumulated workload log.

    ``None`` fields fall back to the service's advisor defaults.
    """

    horizon: int | None = None
    dollars_per_byte: float | None = None
    runs_per_slot: float | None = None

    def _normalize(self) -> None:
        for name, cast in (
            ("horizon", int),
            ("dollars_per_byte", float),
            ("runs_per_slot", float),
        ):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, cast(value))


@dataclass(frozen=True)
class LedgerQuery(Request):
    """One tenant's billing statement for the current period."""

    tenant: object

    def _normalize(self) -> None:
        _require_hashable(self.tenant, "a tenant id")


@dataclass(frozen=True)
class MetricsRequest(Request):
    """Read the process-wide :mod:`repro.obs` metrics registry.

    Carries no parameters: the reply is one deterministic dump of every
    family (API 1.6). Read-only — dispatching it never touches service
    state, so it is always safe to retry.
    """


# --------------------------------------------------------------- replies --


@dataclass(frozen=True)
class ConfigReply(Reply):
    """The period is open: game count and horizon echoed back."""

    games: int
    horizon: int


@dataclass(frozen=True)
class BidsReply(Reply):
    """Bids accepted into their games."""

    tenant: object
    accepted: int
    slot: int


@dataclass(frozen=True)
class ReviseReply(Reply):
    """A revision was applied."""

    tenant: object
    optimization: object
    slot: int


@dataclass(frozen=True)
class SlotReply(Reply):
    """The clock advanced; ``implemented`` is the cumulative
    ``(optimization, slot built)`` set, sorted by optimization."""

    slot: int
    implemented: tuple

    def _normalize(self) -> None:
        object.__setattr__(
            self,
            "implemented",
            tuple((opt, int(slot)) for opt, slot in self.implemented),
        )


@dataclass(frozen=True)
class QueryReply(Reply):
    """Rows plus the metered cost units of producing them.

    ``epoch`` is the catalog epoch the query was served at — the snapshot
    all of its rows reflect.
    """

    tenant: object
    query: str
    rows: tuple
    units: float
    source: str = ""
    epoch: int = 0

    def _normalize(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        object.__setattr__(self, "epoch", int(self.epoch))


@dataclass(frozen=True)
class AdviseReply(Reply):
    """One advising round's verdict.

    ``epoch`` is the catalog epoch after adoption — queries from this
    epoch on can see the newly funded designs.
    """

    candidates: tuple
    funded: tuple
    adopted: tuple
    build_units: float
    epoch: int = 0

    def _normalize(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "funded", tuple(self.funded))
        object.__setattr__(self, "adopted", tuple(self.adopted))
        object.__setattr__(self, "epoch", int(self.epoch))


@dataclass(frozen=True)
class LedgerReply(Reply):
    """One tenant's statement: ``(slot, amount, memo)`` invoice lines."""

    tenant: object
    invoices: tuple
    total: float
    cloud_balance: float

    def _normalize(self) -> None:
        object.__setattr__(
            self,
            "invoices",
            tuple(
                (int(slot), float(amount), str(memo))
                for slot, amount, memo in self.invoices
            ),
        )


def _deep_tuple(value):
    """Lists and tuples -> nested tuples (hashable, wire-normal)."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(v) for v in value)
    return value


@dataclass(frozen=True)
class MetricsReply(Reply):
    """One deterministic dump of the metrics registry.

    ``metrics`` is :meth:`repro.obs.MetricsRegistry.wire`'s flat tuple
    form — ``(name, kind, ((label, value), ...), value)`` per series,
    histogram values as ``(buckets, counts, sum, count)`` — tuples and
    JSON scalars only, so the envelope round-trips exactly like every
    other one.
    """

    metrics: tuple = ()

    def _normalize(self) -> None:
        object.__setattr__(self, "metrics", _deep_tuple(self.metrics))


#: Exception class -> structured wire code, most-derived first. The scan
#: order matters: ``RevisionError`` must map to ``"revision"`` although it
#: is also a ``BidError``.
ERROR_CODES: tuple = (
    (RevisionError, "revision"),
    (BidError, "bid"),
    (MechanismError, "mechanism"),
    (GameConfigError, "game-config"),
    (SchemaError, "schema"),
    (QueryError, "query"),
    (ProtocolError, "protocol"),
    (RecoveryError, "recovery"),
    (OverloadedError, "overloaded"),
    (DeadlineError, "deadline_exceeded"),
    (ReproError, "internal"),
)

#: Codes a client may retry without risking a duplicated effect: the
#: request was shed *before* it reached the pricing core. Everything else
#: (a rejected bid, a malformed envelope, a failed query) is a verdict on
#: the request itself — retrying a non-idempotent rejected bid could
#: double-schedule it, so those codes never mark themselves retryable.
RETRYABLE_CODES = frozenset({"overloaded", "deadline_exceeded"})


def error_code(exc: BaseException) -> str:
    """The structured code for one exception (``"internal"`` fallback)."""
    if isinstance(exc, ProtocolError):
        return exc.code
    for cls, code in ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal"


@dataclass(frozen=True)
class ErrorReply(Reply):
    """A request failed; ``code`` is stable across releases, ``message``
    is human-oriented and free to change.

    ``retryable`` is *derived* from the code (:data:`RETRYABLE_CODES`) at
    construction — the wire field exists so remote clients can branch on
    one boolean without carrying the code table, but a decoded envelope
    always agrees with its code; a forged mismatch is normalized away.
    ``retry_after`` is the server's back-off hint in seconds (0 when it
    has none), only meaningful on retryable codes.
    """

    code: str
    message: str
    request_kind: str = ""
    retryable: bool = False
    retry_after: float = 0.0

    def _normalize(self) -> None:
        object.__setattr__(self, "code", str(self.code))
        object.__setattr__(self, "retryable", self.code in RETRYABLE_CODES)
        object.__setattr__(self, "retry_after", float(self.retry_after))

    @classmethod
    def of(cls, exc: BaseException, request_kind: str = "") -> "ErrorReply":
        """Map one exception onto its wire reply."""
        return cls(
            code=error_code(exc),
            message=str(exc),
            request_kind=request_kind,
            retry_after=getattr(exc, "retry_after", 0.0),
        )


# --------------------------------------------------------- wire encoding --

_REQUESTS = {
    cls.__name__: cls
    for cls in (
        Configure,
        SubmitBids,
        ReviseBid,
        AdvanceSlots,
        RunQuery,
        AdviseRequest,
        LedgerQuery,
        MetricsRequest,
    )
}

_REPLIES = {
    cls.__name__: cls
    for cls in (
        ConfigReply,
        BidsReply,
        ReviseReply,
        SlotReply,
        QueryReply,
        AdviseReply,
        LedgerReply,
        MetricsReply,
        ErrorReply,
    )
}


def _jsonable(value):
    """Envelope field -> JSON-able (tuples nest as lists)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _tupled(value):
    """JSON field -> envelope-normal form (lists nest as tuples)."""
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def to_dict(envelope) -> dict:
    """One envelope -> its flat JSON-able dictionary."""
    cls = type(envelope)
    if cls.__name__ not in _REQUESTS and cls.__name__ not in _REPLIES:
        raise ProtocolError(f"{cls.__name__} is not a gateway envelope")
    out = {"api": API_VERSION, "kind": cls.__name__}
    for field in fields(envelope):
        out[field.name] = _jsonable(getattr(envelope, field.name))
    return out


def _from_dict(d, registry: dict, expected: str):
    if not isinstance(d, Mapping):
        raise ProtocolError(
            f"an envelope must be a JSON object, got {type(d).__name__}"
        )
    api = d.get("api")
    if api != API_VERSION:
        raise ProtocolError(
            f"envelope speaks API {api!r}; this gateway speaks {API_VERSION!r}",
            code="version",
        )
    kind = d.get("kind")
    # Only string tags can name a class; anything else (including
    # unhashable junk) is malformed, not merely unknown.
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProtocolError(f"unknown {expected} kind {kind!r}")
    names = {field.name for field in fields(cls)}
    extra = set(d) - names - {"api", "kind"}
    if extra:
        raise ProtocolError(
            f"{kind} envelope carries unknown fields {sorted(extra)}"
        )
    kwargs = {}
    for field in fields(cls):
        if field.name in d:
            kwargs[field.name] = _tupled(d[field.name])
    try:
        return cls(**kwargs)
    except ProtocolError:
        raise
    except ReproError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(f"malformed {kind} envelope: {exc}") from exc


def request_from_dict(d) -> Request:
    """Decode one request envelope; raises :class:`ProtocolError` on junk."""
    return _from_dict(d, _REQUESTS, "request")


def reply_from_dict(d) -> Reply:
    """Decode one reply envelope; raises :class:`ProtocolError` on junk."""
    return _from_dict(d, _REPLIES, "reply")


def envelope_from_dict(d):
    """Decode either direction (requests tried first)."""
    if isinstance(d, Mapping):
        kind = d.get("kind")
        if isinstance(kind, str) and kind in _REPLIES:
            return reply_from_dict(d)
    return request_from_dict(d)
