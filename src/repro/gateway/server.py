"""Fault-tolerant asyncio serving layer for the pricing gateway.

:class:`GatewayServer` exposes :class:`~repro.gateway.PricingService`
over a handwritten HTTP/1.1 JSON protocol (stdlib ``asyncio`` only — no
third-party web framework), one small curl-able endpoint per resource::

    POST /v1/bids     SubmitBids | ReviseBid
    POST /v1/slots    Configure | AdvanceSlots
    POST /v1/query    RunQuery
    POST /v1/advise   AdviseRequest
    POST /v1/ledger   LedgerQuery
    POST /v1/metrics  MetricsRequest
    GET  /v1/healthz  liveness + serving counters (never sheds)
    GET  /v1/metrics  Prometheus text exposition of repro.obs (never sheds)

The robustness machinery is the point, not an afterthought:

- **Admission control.** At most ``max_pending`` envelopes may be
  queued-or-in-flight overall and ``tenant_pending`` per tenant (the
  fair-share bound: one chatty tenant cannot starve the rest). Beyond
  either bound the request is shed *immediately* with a typed
  ``overloaded`` :class:`ErrorReply` carrying ``retry_after`` — never
  queued unboundedly, never a hung connection.
- **Deadlines.** A request may carry an ``X-Repro-Deadline`` header
  (seconds it is willing to wait). Expired work is cancelled *before*
  it reaches the pricing core and answered with ``deadline_exceeded``.
  Work that already entered a write batch replies late with the real
  result instead — both deadline codes are retryable, so lying about
  committed work would invite a client retry and a double-submit.
- **Group commit.** Concurrently arriving envelopes are batched into
  one batched ``dispatch`` call — on a durable service one WAL record and
  one fsync for the whole batch. The commit is adaptive: admission starts
  the flush at once, so it runs on the next event-loop turn and takes
  everything that arrived in that turn. ``dispatch`` and its fsync hold
  the loop thread, so whatever arrives during one commit forms the next
  batch; there is no linger timer, which would only add latency. This is
  what keeps fsyncs/request below 1 under concurrency
  (``benchmarks/bench_server.py`` gates it).
- **Graceful drain.** :meth:`GatewayServer.drain` (wired to SIGTERM by
  :func:`serve`) stops accepting, answers stragglers ``overloaded``,
  lets queued work finish, checkpoints a durable service, and closes.
  An *abrupt* death (:meth:`GatewayServer.abort`, or a real kill -9) is
  also safe: every WAL record is fsync'd before its effects apply, so
  ``PricingService.recover`` resumes bit-identical.

Malformed input never raises out of the connection handler: undecodable
envelopes come back as ``protocol``-coded replies exactly as
``PricingService.dispatch_json`` would produce, a half-sent request
(mid-body disconnect) is discarded without side effects, and a
slow-loris read is cut off by ``read_timeout`` with a
``deadline_exceeded`` reply. ``tests/netfaults.py`` injects each of
these faults deterministically and ``tests/test_netfaults.py`` proves
service state stays bit-identical to a serial run regardless.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from dataclasses import dataclass

from repro import obs
from repro.errors import GameConfigError
from repro.gateway.envelopes import ErrorReply, request_from_dict, to_dict

__all__ = [
    "ROUTES",
    "HEALTH_PATH",
    "METRICS_PATH",
    "DEADLINE_HEADER",
    "HTTP_STATUS",
    "path_for_kind",
    "ServerConfig",
    "GatewayServer",
    "ServerThread",
    "serve",
]

#: Resource path -> request kinds it accepts (all via POST).
ROUTES = {
    "/v1/bids": ("SubmitBids", "ReviseBid"),
    "/v1/slots": ("Configure", "AdvanceSlots"),
    "/v1/query": ("RunQuery",),
    "/v1/advise": ("AdviseRequest",),
    "/v1/ledger": ("LedgerQuery",),
    "/v1/metrics": ("MetricsRequest",),
}

HEALTH_PATH = "/v1/healthz"

#: GET here answers with the Prometheus text exposition of
#: :data:`repro.obs.REGISTRY` (POST dispatches a MetricsRequest).
METRICS_PATH = "/v1/metrics"

#: Request header naming the seconds a caller will wait (lower-cased).
DEADLINE_HEADER = "x-repro-deadline"

#: Structured error code -> HTTP status. Client-caused rejections are
#: 4xx, state conflicts 409, service-side failures 5xx; ``overloaded``
#: is the classic 429 and ``deadline_exceeded`` a 504 (the gateway gave
#: up on the caller's behalf).
HTTP_STATUS = {
    "overloaded": 429,
    "deadline_exceeded": 504,
    "protocol": 400,
    "version": 400,
    "bid": 400,
    "schema": 400,
    "query": 400,
    "revision": 409,
    "mechanism": 409,
    "game-config": 409,
    "recovery": 500,
    "internal": 500,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

_MAX_LINE = 8192
_MAX_HEADERS = 100
_MAX_BODY = 8 * 1024 * 1024

# Serving-layer instrumentation (repro.obs). Endpoint labels come from
# the closed ROUTES table (plus the two GET paths) and shed codes from
# the two admission verdicts — bounded cardinality by construction.
_REQUESTS_TOTAL = obs.REGISTRY.counter(
    "repro_server_requests_total",
    "HTTP requests received, per known endpoint.",
    ("endpoint",),
)
_REQUEST_SECONDS = obs.REGISTRY.histogram(
    "repro_server_request_seconds",
    "Wall time from parsed request to response written, per endpoint.",
    ("endpoint",),
)
_PENDING_GAUGE = obs.REGISTRY.gauge(
    "repro_server_pending",
    "Envelopes queued or in flight (the admission gauge).",
)
_SHEDS_TOTAL = obs.REGISTRY.counter(
    "repro_server_sheds_total",
    "Typed sheds, per error code.",
    ("code",),
)
_BATCH_SIZE = obs.REGISTRY.histogram(
    "repro_server_batch_size",
    "Live envelopes per group-commit dispatch batch.",
    buckets=tuple(float(2**k) for k in range(10)),
)
_FSYNCS_PER_REQUEST = obs.REGISTRY.gauge(
    "repro_server_fsyncs_per_request",
    "WAL fsyncs divided by dispatched envelopes (group-commit dividend).",
)

_KIND_TO_PATH = {
    kind: path for path, kinds in ROUTES.items() for kind in kinds
}


def path_for_kind(kind: str) -> str:
    """The resource endpoint serving one request kind (client side)."""
    try:
        return _KIND_TO_PATH[kind]
    except KeyError:
        raise GameConfigError(
            f"no endpoint serves request kind {kind!r}"
        ) from None


@dataclass
class ServerConfig:
    """Knobs for one :class:`GatewayServer` (all have safe defaults).

    ``port=0`` binds an ephemeral port — tests and benchmarks read the
    real one back from :attr:`GatewayServer.address`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 64  # global admission bound (queued + in flight)
    tenant_pending: int = 16  # per-tenant fair-share bound
    read_timeout: float = 5.0  # slow-loris guard on request reads
    retry_after: float = 0.05  # hint carried by overloaded replies


class _TornRequest(Exception):
    """The peer vanished mid-request: nothing arrived, nothing happens."""


class _BadRequest(Exception):
    """The bytes are not HTTP we accept; answered 400 then closed."""


class _Entry:
    """One admitted envelope waiting in the group-commit queue."""

    __slots__ = ("request", "kind", "future", "deadline", "claimed")

    def __init__(self, request, kind, future, deadline):
        self.request = request
        self.kind = kind
        self.future = future
        self.deadline = deadline  # loop-clock instant, or None
        self.claimed = False  # True once committed to a dispatch batch


class GatewayServer:
    """The asyncio serving loop around one :class:`PricingService`.

    All dispatch happens on the event-loop thread (the service is not
    thread-safe); concurrency between callers is converted into batch
    size, not data races. ``stall_hook`` is the fault-injection seam: an
    async callable awaited with each batch's requests just before
    dispatch — tests stall or kill it to prove cancelled work never
    reaches the fleet.
    """

    def __init__(self, service, config: ServerConfig | None = None, *, stall_hook=None):
        self.service = service
        self.config = config or ServerConfig()
        self.stall_hook = stall_hook
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._address: tuple[str, int] | None = None
        # One entry per open connection: its handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._queue: list[_Entry] = []
        self._flush_task: asyncio.Task | None = None
        self._flush_lock: asyncio.Lock | None = None
        self._pending = 0
        self._tenant_pending: dict = {}
        self._draining = False
        self._started: float | None = None  # loop-clock instant of start()
        self.dispatched = 0  # envelopes that reached the service
        self.shed = 0  # envelopes rejected (overloaded or expired)
        self.batches = 0  # batched dispatch calls (group commits)

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (after :meth:`start`)."""
        if self._address is None:
            raise GameConfigError("the server has not been started")
        return self._address

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._started = self._loop.time()
        self._flush_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        return self._address

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish queued work, close
        every connection (waiting up to 1 s for its handler to return),
        checkpoint a durable service."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        while self._queue or self._pending or self._flush_task is not None:
            await asyncio.sleep(0.001)
        for writer in list(self._connections.values()):
            with contextlib.suppress(Exception):
                writer.close()
        if self._connections:
            # A closed writer ends its connection's pending read with EOF;
            # let the handlers return instead of being cancelled mid-read
            # when the loop shuts down.
            await asyncio.wait(list(self._connections), timeout=1.0)
        try:
            self.service.checkpoint()
        except GameConfigError:
            pass  # not durable; nothing to persist

    def abort(self) -> None:
        """Abrupt death (kill -9 stand-in): drop the listener and every
        connection mid-flight. Safe by construction — durability lives
        in the WAL fsync, not in orderly shutdown."""
        if self._server is not None:
            self._server.close()
        for writer in list(self._connections.values()):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    # ------------------------------------------------------- connections --

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, _TornRequest):
            pass  # peer vanished; whatever was half-read never happened
        finally:
            del self._connections[task]
            with contextlib.suppress(Exception):
                writer.close()

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            progress = {"started": False}
            try:
                async with asyncio.timeout(self.config.read_timeout):
                    parsed = await self._read_request(reader, progress)
            except TimeoutError:
                # Slow-loris: the peer is dribbling (or idling). An idle
                # keep-alive gets a quiet close; a half-sent request a
                # typed timeout so the client knows nothing happened.
                dribbling = progress["started"] or bool(
                    getattr(reader, "_buffer", b"")  # half a request line
                )
                if dribbling and not reader.at_eof():
                    await self._respond_error(
                        writer,
                        code="deadline_exceeded",
                        message="request not received within "
                        f"{self.config.read_timeout}s",
                        status=408,
                        keep_alive=False,
                    )
                return
            except _BadRequest as exc:
                await self._respond_error(
                    writer,
                    code="protocol",
                    message=str(exc),
                    status=400,
                    keep_alive=False,
                )
                return
            if parsed is None:
                return  # clean EOF between requests
            method, path, headers, body = parsed
            keep_alive = headers.get("connection", "").lower() != "close"
            if self._draining:
                keep_alive = False
            if path == HEALTH_PATH:
                _REQUESTS_TOTAL.labels(endpoint=HEALTH_PATH).inc()
                await self._write_response(
                    writer, 200, self._health(), keep_alive=keep_alive
                )
            elif path == METRICS_PATH and method != "POST":
                # The scrape path: GET answers text exposition outside
                # admission control (a monitoring probe must not shed);
                # POST falls through to the MetricsRequest envelope.
                _REQUESTS_TOTAL.labels(endpoint=METRICS_PATH).inc()
                await self._write_text(
                    writer, 200, obs.render(), keep_alive=keep_alive
                )
            else:
                keep_alive = await self._handle_api(
                    writer, method, path, headers, body, keep_alive
                )
            if not keep_alive:
                return

    async def _read_request(self, reader, progress):
        """One HTTP/1.1 request -> ``(method, path, headers, body)``.

        ``None`` on clean EOF before any byte; :class:`_TornRequest`
        when the peer disconnects mid-request (the request must not
        happen); :class:`_BadRequest` for bytes we refuse to parse.
        ``progress`` is mutated so the slow-loris guard can tell a
        half-sent request from an idle keep-alive after a timeout.
        """
        try:
            line = await reader.readline()
        except ValueError:  # past asyncio's 64 KiB stream limit
            raise _BadRequest("request line too long") from None
        if not line:
            return None
        progress["started"] = True
        if not line.endswith(b"\n"):
            if len(line) >= _MAX_LINE:
                raise _BadRequest("request line too long")
            raise _TornRequest
        try:
            method, path, version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest("malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _BadRequest(f"unsupported protocol {version}")
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # past asyncio's 64 KiB stream limit
                raise _BadRequest("header line too long") from None
            if not line:
                raise _TornRequest
            if not line.endswith(b"\n"):
                raise _TornRequest
            if line in (b"\r\n", b"\n"):
                break
            if len(headers) >= _MAX_HEADERS or len(line) > _MAX_LINE:
                raise _BadRequest("too many or too large headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            raise _BadRequest("malformed Content-Length") from None
        if length < 0 or length > _MAX_BODY:
            raise _BadRequest(f"unacceptable Content-Length {length}")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _TornRequest from None
        return method, path, headers, body

    # --------------------------------------------------------- dispatch --

    async def _handle_api(
        self, writer, method, path, headers, body, keep_alive
    ) -> bool:
        kinds = ROUTES.get(path)
        if kinds is None:
            await self._respond_error(
                writer,
                code="protocol",
                message=f"unknown path {path!r}",
                status=404,
                keep_alive=keep_alive,
            )
            return keep_alive
        _REQUESTS_TOTAL.labels(endpoint=path).inc()
        with _REQUEST_SECONDS.labels(endpoint=path).time():
            return await self._dispatch_api(
                writer, method, path, headers, body, keep_alive, kinds
            )

    async def _dispatch_api(
        self, writer, method, path, headers, body, keep_alive, kinds
    ) -> bool:
        if method != "POST":
            await self._respond_error(
                writer,
                code="protocol",
                message=f"{path} accepts POST, not {method}",
                status=405,
                keep_alive=keep_alive,
            )
            return keep_alive
        try:
            payload = json.loads(body)
        except ValueError:
            await self._respond_error(
                writer,
                code="protocol",
                message="request body is not valid JSON",
                status=400,
                keep_alive=keep_alive,
            )
            return keep_alive
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind not in kinds:
            await self._respond_error(
                writer,
                code="protocol",
                message=f"{path} serves {list(kinds)}, not {kind!r}",
                status=400,
                keep_alive=keep_alive,
                request_kind=str(kind or ""),
            )
            return keep_alive
        try:
            request = request_from_dict(payload)
        except Exception as exc:  # total like dispatch_json: data, not a raise
            reply = to_dict(ErrorReply.of(exc, request_kind=str(kind)))
            await self._write_response(
                writer, _status_of(reply), reply, keep_alive=keep_alive
            )
            return keep_alive
        deadline, error = self._parse_deadline(headers)
        if error is not None:
            await self._respond_error(
                writer,
                code="protocol",
                message=error,
                status=400,
                keep_alive=keep_alive,
                request_kind=kind,
            )
            return keep_alive
        reply = await self._admit_and_dispatch(request, kind, deadline)
        status = _status_of(reply)
        if status == 429:
            keep_alive = keep_alive and not self._draining
        await self._write_response(
            writer, status, reply, keep_alive=keep_alive
        )
        return keep_alive

    def _parse_deadline(self, headers):
        raw = headers.get(DEADLINE_HEADER)
        if raw is None:
            return None, None
        try:
            seconds = float(raw)
        except ValueError:
            return None, f"malformed {DEADLINE_HEADER} header {raw!r}"
        if seconds <= 0:
            return None, f"{DEADLINE_HEADER} must be positive, got {raw!r}"
        return self._loop.time() + seconds, None

    def _overloaded(self, kind: str, message: str) -> dict:
        self.shed += 1
        _SHEDS_TOTAL.labels(code="overloaded").inc()
        return to_dict(
            ErrorReply(
                code="overloaded",
                message=message,
                request_kind=kind,
                retry_after=self.config.retry_after,
            )
        )

    def _deadline_reply(self, kind: str) -> dict:
        self.shed += 1
        _SHEDS_TOTAL.labels(code="deadline_exceeded").inc()
        return to_dict(
            ErrorReply(
                code="deadline_exceeded",
                message="deadline expired before dispatch; the request "
                "was cancelled and had no effect",
                request_kind=kind,
            )
        )

    async def _admit_and_dispatch(self, request, kind, deadline) -> dict:
        if self._draining:
            return self._overloaded(kind, "the server is draining")
        if self._pending >= self.config.max_pending:
            return self._overloaded(
                kind, f"{self._pending} requests already pending"
            )
        tenant = getattr(request, "tenant", None)
        if self._tenant_pending.get(tenant, 0) >= self.config.tenant_pending:
            return self._overloaded(
                kind,
                f"tenant {tenant!r} already has "
                f"{self._tenant_pending[tenant]} requests pending",
            )
        entry = _Entry(request, kind, self._loop.create_future(), deadline)
        self._pending += 1
        _PENDING_GAUGE.set(self._pending)
        self._tenant_pending[tenant] = self._tenant_pending.get(tenant, 0) + 1
        entry.future.add_done_callback(lambda _f: self._release(tenant))
        self._queue.append(entry)
        self._schedule_flush()
        return await self._await_entry(entry)

    def _release(self, tenant) -> None:
        self._pending -= 1
        _PENDING_GAUGE.set(self._pending)
        remaining = self._tenant_pending.get(tenant, 1) - 1
        if remaining <= 0:
            self._tenant_pending.pop(tenant, None)
        else:
            self._tenant_pending[tenant] = remaining

    async def _await_entry(self, entry: _Entry) -> dict:
        try:
            async with asyncio.timeout_at(entry.deadline):
                return await asyncio.shield(entry.future)
        except TimeoutError:
            # Not yet claimed by a batch: cancel before the fleet sees
            # it. Already claimed: the effect is (or is about to be)
            # durable, so wait and reply late with the truth.
            if not entry.claimed and not entry.future.done():
                entry.future.set_result(self._deadline_reply(entry.kind))
            return await entry.future

    def _schedule_flush(self) -> None:
        # No timer: the task runs on the next loop turn. While it waits
        # (for that turn, or for the lock a stalled batch holds) every
        # new arrival joins its queue instead of starting another flush.
        if self._flush_task is None:
            self._flush_task = self._loop.create_task(self._flush())

    async def _flush(self) -> None:
        async with self._flush_lock:
            self._flush_task = None
            batch, self._queue = self._queue, []
            now = self._loop.time()
            live: list[_Entry] = []
            for entry in batch:
                if entry.future.done():
                    continue  # deadline waiter already answered it
                if entry.deadline is not None and now >= entry.deadline:
                    entry.future.set_result(self._deadline_reply(entry.kind))
                    continue
                live.append(entry)
            if self.stall_hook is not None and live:
                await self.stall_hook([entry.request for entry in live])
                live = [e for e in live if not e.future.done()]
            if not live:
                return
            for entry in live:
                entry.claimed = True
            self.batches += 1
            _BATCH_SIZE.observe(len(live))
            try:
                replies = self.service.dispatch(
                    [entry.request for entry in live]
                )
                results = [to_dict(reply) for reply in replies]
            except Exception as exc:  # WAL I/O and friends: typed, per entry
                results = [
                    to_dict(ErrorReply.of(exc, request_kind=entry.kind))
                    for entry in live
                ]
            self.dispatched += len(live)
            wal = getattr(self.service, "_wal", None)
            if wal is not None and self.dispatched:
                _FSYNCS_PER_REQUEST.set(wal.fsyncs / self.dispatched)
            for entry, result in zip(live, results):
                if not entry.future.done():
                    entry.future.set_result(result)

    # --------------------------------------------------------- responses --

    def _health(self) -> dict:
        from repro import __version__  # deferred: repro imports gateway

        wal = getattr(self.service, "_wal", None)
        uptime = 0.0
        if self._loop is not None and self._started is not None:
            uptime = self._loop.time() - self._started
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "uptime_s": round(uptime, 6),
            "pending": self._pending,
            "dispatched": self.dispatched,
            "shed": self.shed,
            "batches": self.batches,
            "fsyncs": getattr(wal, "fsyncs", 0),
            "wal_seq": getattr(wal, "last_seq", 0),
            "epoch": self.service.db.epoch,
        }

    async def _respond_error(
        self, writer, *, code, message, status, keep_alive, request_kind=""
    ) -> None:
        reply = to_dict(
            ErrorReply(code=code, message=message, request_kind=request_kind)
        )
        await self._write_response(
            writer, status, reply, keep_alive=keep_alive
        )

    async def _write_text(
        self, writer, status: int, text: str, *, keep_alive: bool
    ) -> None:
        body = text.encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: text/plain; version=0.0.4; charset=utf-8",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
        await writer.drain()

    async def _write_response(
        self, writer, status: int, payload: dict, *, keep_alive: bool
    ) -> None:
        body = json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        retry_after = payload.get("retry_after")
        if payload.get("code") == "overloaded" and retry_after:
            head.append(f"Retry-After: {retry_after}")
        writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + body)
        await writer.drain()


def _status_of(reply: dict) -> int:
    if reply.get("kind") != "ErrorReply":
        return 200
    return HTTP_STATUS.get(reply.get("code"), 500)


class ServerThread:
    """A :class:`GatewayServer` on a private loop in a daemon thread.

    The blocking-world harness for tests, benchmarks, and the client:
    ``start()`` returns the bound address, ``stop()`` drains gracefully,
    ``kill()`` dies abruptly (the kill-9 stand-in — no drain, no
    checkpoint; recovery must cope, and does).
    """

    def __init__(self, service, config: ServerConfig | None = None, *, stall_hook=None):
        self.server = GatewayServer(service, config, stall_hook=stall_hook)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gateway-server", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        )
        return future.result(timeout=10)

    def stop(self) -> None:
        """Graceful: drain (checkpointing a durable service), then exit.
        Idempotent — stopping a stopped thread is a no-op."""
        if self._loop is None or self._loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        ).result(timeout=30)
        self._shutdown()

    def kill(self) -> None:
        """Abrupt: connections reset, no drain, no checkpoint."""
        if self._loop is None or self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self.server.abort)
        self._shutdown()

    def _shutdown(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        tasks = asyncio.all_tasks(self._loop)
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()


async def serve(
    service, config: ServerConfig | None = None, *, ready=None
) -> GatewayServer:
    """Run a server until SIGTERM/SIGINT, then drain; the CLI entry.

    ``ready`` (optional callable) receives the bound ``(host, port)``
    once accepting — the CLI prints it, tests latch it.
    """
    server = GatewayServer(service, config)
    address = await server.start()
    if ready is not None:
        ready(address)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(sig)
    await server.drain()
    return server
