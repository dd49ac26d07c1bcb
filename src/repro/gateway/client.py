"""Blocking HTTP client for the gateway server, with disciplined retries.

:class:`GatewayClient` is the reference consumer of
:mod:`repro.gateway.server`: one keep-alive TCP connection, envelopes in,
envelopes out. It frames the small HTTP/1.1 subset the server speaks
itself rather than going through ``http.client``:

- ``TCP_NODELAY`` is set, and each request leaves as **one** ``sendall``
  of head and body together.
- The reply is read into one buffer and its head parsed in one pass:
  the status line, ``Content-Length`` and ``Connection``. The body is
  read to exactly that length; a reply that arrives with surplus bytes
  after its body closes the connection, so nothing is carried over.
- ``Content-Length`` is the only framing accepted. A reply with a
  missing or bad length, any ``Transfer-Encoding``, or a body that does
  not decode (JSON, or UTF-8 text for the scrape) is a *malformed reply*,
  handled exactly like a torn connection below.

Its retry policy is the part worth copying:

- An :class:`ErrorReply` is retried **only** when it says so
  (``retryable: true`` — the ``overloaded`` and ``deadline_exceeded``
  codes, where the server guarantees the request never reached the
  pricing core). A rejected bid or malformed envelope is a verdict, not
  a transient — retrying it could double-submit; it is returned as-is.
- Transport failures are retried only when they cannot have half-applied
  a mutation: a refused connection (the request never left) always
  retries; a *fresh* connection that died mid-exchange retries only for
  read-only kinds (``RunQuery``, ``AdviseRequest``, ``LedgerQuery``,
  ``MetricsRequest``) —
  a mutating envelope may or may not have been committed, and the
  caller, not this client, must decide. On a **reused** keep-alive
  connection, two failures are the idle-timeout race and retry freshly
  for every kind: the send fails, or the peer closes or resets the
  connection before any reply byte arrives (the server guarantees a
  response before closing any connection whose request it processed).
  Any other failure there — a timeout, a torn or malformed reply — is
  handled as on a fresh connection.
- Backoff is capped exponential with **full jitter** (decorrelates a
  thundering herd after a shed) and never waits less than the server's
  own ``retry_after`` hint.

When transport-level retries are exhausted the client raises
:class:`GatewayUnavailable`. A *typed* shed that outlives its retries
(the server kept answering ``overloaded``) is returned as the final
:class:`ErrorReply` instead — errors travel as data here, same as
everywhere else in the gateway.
"""

from __future__ import annotations

import json
import random
import socket
import time

from repro import obs
from repro.errors import ReproError
from repro.gateway.envelopes import (
    Reply,
    Request,
    reply_from_dict,
    to_dict,
)
from repro.gateway.server import (
    DEADLINE_HEADER,
    HEALTH_PATH,
    METRICS_PATH,
    path_for_kind,
)

__all__ = ["GatewayClient", "GatewayUnavailable", "READ_ONLY_KINDS"]

#: Request kinds with no durable effect: safe to retry after a torn
#: exchange, because replaying them cannot double-charge anyone.
READ_ONLY_KINDS = frozenset(
    {"RunQuery", "AdviseRequest", "LedgerQuery", "MetricsRequest"}
)

_RECV_BYTES = 65536
_MAX_HEAD = 65536  # a reply head larger than this is malformed

_RETRIES_TOTAL = obs.REGISTRY.counter(
    "repro_client_retries_total",
    "Request attempts beyond the first, by request kind.",
    ("kind",),
)
_BACKOFF_SECONDS = obs.REGISTRY.counter(
    "repro_client_backoff_seconds_total",
    "Total time spent sleeping between retries.",
)


class GatewayUnavailable(ReproError):
    """Retries exhausted (or retrying would risk a duplicated effect)."""


class _Unanswered(ConnectionError):
    """The server cannot have processed the request: the send failed, or
    the peer closed or reset the connection before any reply byte."""


class GatewayClient:
    """One keep-alive connection to a gateway server.

    ``max_attempts`` bounds tries per request (first try included);
    ``base_delay``/``max_delay`` shape the capped-exponential backoff;
    ``rng`` injects determinism into the jitter for tests. Not
    thread-safe — one client per thread, since the connection carries
    one exchange at a time.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        max_attempts: int = 5,
        base_delay: float = 0.02,
        max_delay: float = 1.0,
        rng: random.Random | None = None,
        sleep=time.sleep,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self._rng = rng or random.Random()
        self._sleep = sleep
        self._sock: socket.socket | None = None

    # ------------------------------------------------------------ public --

    def request(self, request: Request, *, deadline: float | None = None) -> Reply:
        """Send one envelope, honoring the retry policy; returns the
        decoded reply. ``deadline`` (seconds) is forwarded as the
        ``X-Repro-Deadline`` header."""
        payload = to_dict(request)
        kind = payload["kind"]
        path = path_for_kind(kind)
        read_only = kind in READ_ONLY_KINDS
        body = json.dumps(payload).encode()
        extra = ""
        if deadline is not None:
            extra = f"{DEADLINE_HEADER}: {float(deadline)!r}\r\n"
        message = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        ).encode("latin-1") + body

        last_failure = ""
        last_shed: Reply | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                _RETRIES_TOTAL.labels(kind=kind).inc()
            fresh = False
            try:
                sock, fresh = self._connection()
                # Past here a mutation may have landed.
                raw = _json(self._exchange(sock, message))
            except ConnectionRefusedError as exc:
                # Nothing listening: the request never left this process.
                self._drop_connection()
                last_failure = f"connection refused: {exc}"
            except (OSError, GatewayUnavailable) as exc:
                self._drop_connection()
                idle_closed = not fresh and isinstance(exc, _Unanswered)
                if not (read_only or idle_closed):
                    raise GatewayUnavailable(
                        f"connection to {self.host}:{self.port} died "
                        f"mid-exchange on a mutating {kind} ({exc}); "
                        "the server may or may not have committed it — "
                        "not retrying"
                    ) from exc
                last_failure = f"transport failure: {exc}"
            else:
                reply = reply_from_dict(raw)
                if not getattr(reply, "retryable", False):
                    return reply
                last_shed = reply  # typed shed; worth another try
                hint = getattr(reply, "retry_after", 0.0)
                self._backoff(attempt, floor=hint)
                continue
            self._backoff(attempt)
        if last_shed is not None:
            return last_shed  # still typed data, not an exception
        raise GatewayUnavailable(
            f"{self.max_attempts} attempts to {self.host}:{self.port}"
            f"{path} all failed; last: {last_failure}"
        )

    def health(self) -> dict:
        """One GET of ``/v1/healthz`` (raw counters dict); retried only
        across the stale keep-alive race, never on a fresh connection."""
        return self._get(HEALTH_PATH, _json)

    def metrics_text(self) -> str:
        """One GET of ``/v1/metrics`` (the server's Prometheus text
        exposition); same retry stance as :meth:`health`."""
        return self._get(METRICS_PATH, _text)

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ----------------------------------------------------------- innards --

    def _get(self, path: str, decode):
        message = (
            f"GET {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n\r\n"
        ).encode("latin-1")
        while True:
            sock, fresh = self._connection()
            try:
                return decode(self._exchange(sock, message))
            except (OSError, GatewayUnavailable):
                self._drop_connection()
                if fresh:
                    raise

    def _connection(self) -> tuple[socket.socket, bool]:
        """The keep-alive socket plus whether it was opened just now
        (a reused one may have been idle-closed by the server)."""
        if self._sock is not None:
            return self._sock, False
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock, True

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _exchange(self, sock: socket.socket, message: bytes) -> bytes:
        """Send one request in one ``sendall`` and return its reply body;
        drops the connection afterwards when the reply says it will close."""
        try:
            sock.sendall(message)
        except OSError as exc:
            raise _Unanswered(f"send failed: {exc}") from exc
        body, keep_alive = _read_reply(sock)
        if not keep_alive:
            self._drop_connection()
        return body

    def _backoff(self, attempt: int, *, floor: float = 0.0) -> None:
        """Capped exponential with full jitter, never below ``floor``."""
        if attempt >= self.max_attempts - 1:
            return  # no point sleeping before giving up
        ceiling = min(self.max_delay, self.base_delay * (2**attempt))
        delay = max(self._rng.uniform(0, ceiling), floor)
        _BACKOFF_SECONDS.inc(delay)
        self._sleep(delay)


def _read_reply(sock: socket.socket) -> tuple[bytes, bool]:
    """Read one reply: ``(body, whether the connection stays open)``.

    A peer that closes or resets before the first reply byte raises
    :class:`_Unanswered`, one that closes later :class:`ConnectionError`;
    a reply framed by anything but a valid ``Content-Length`` raises
    :class:`GatewayUnavailable`.
    """
    data = b""
    end = -1
    while end < 0:
        if len(data) > _MAX_HEAD:
            raise GatewayUnavailable(f"reply head exceeds {_MAX_HEAD} bytes")
        try:
            chunk = sock.recv(_RECV_BYTES)
        except ConnectionResetError as exc:
            if data:
                raise
            raise _Unanswered(f"reset before the reply: {exc}") from exc
        if not chunk:
            if not data:
                raise _Unanswered("connection closed before the reply")
            raise ConnectionError("connection closed mid reply head")
        start = max(len(data) - 3, 0)  # a terminator split across chunks
        data += chunk
        end = data.find(b"\r\n\r\n", start)

    status_line, *lines = data[:end].decode("latin-1").split("\r\n")
    version, _, rest = status_line.partition(" ")
    status = rest.partition(" ")[0]
    if not (
        version.startswith("HTTP/1.")
        and len(status) == 3
        and status.isascii()
        and status.isdigit()
    ):
        raise GatewayUnavailable(f"malformed status line {status_line!r}")
    keep_alive = version == "HTTP/1.1"
    length = None
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise GatewayUnavailable(f"malformed reply header {line!r}")
        name = name.strip().lower()
        if name == "content-length":
            value = value.strip()
            if not (value.isascii() and value.isdigit() and len(value) < 16):
                raise GatewayUnavailable(f"bad Content-Length {value!r}")
            if length is not None and int(value) != length:
                raise GatewayUnavailable("conflicting Content-Length headers")
            length = int(value)
        elif name == "transfer-encoding":
            raise GatewayUnavailable(
                f"unsupported Transfer-Encoding {value.strip()!r}"
            )
        elif name == "connection":
            tokens = value.lower().replace(" ", "").split(",")
            if "close" in tokens:
                keep_alive = False
            elif "keep-alive" in tokens:
                keep_alive = True
    if length is None:
        raise GatewayUnavailable("reply carries no Content-Length")

    body = data[end + 4 :]
    if len(body) > length:
        return body[:length], False  # surplus bytes: never reuse them
    if len(body) < length:
        buffer = bytearray(length)
        have = len(body)
        buffer[:have] = body
        with memoryview(buffer) as view:
            while have < length:
                got = sock.recv_into(view[have:])
                if not got:
                    raise ConnectionError("connection closed mid-reply body")
                have += got
        body = bytes(buffer)
    return body, keep_alive


def _json(body: bytes):
    try:
        return json.loads(body)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise GatewayUnavailable(f"reply body is not JSON: {exc}") from None


def _text(body: bytes) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GatewayUnavailable(f"reply body is not UTF-8: {exc}") from None
