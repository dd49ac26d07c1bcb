"""Tier-1 tests for the asyncio serving layer and its blocking client.

Everything here runs an in-process :class:`ServerThread` on an ephemeral
port (``port=0``) — no fixed ports, no subprocesses, fast enough for the
tier-1 suite. The long fault grids live in ``tests/test_netfaults.py``;
this file covers the contracts one at a time:

- every endpoint speaks its envelope kinds and nothing else;
- admission control sheds typed ``overloaded`` replies (global and
  per-tenant fair share) instead of queueing unboundedly;
- deadlines cancel un-dispatched work with ``deadline_exceeded`` and
  never lie about claimed work;
- concurrent envelopes group-commit into fewer batches (and fewer
  fsyncs) than requests;
- graceful drain checkpoints a durable service;
- the client retries exactly what its policy says it retries, and its
  HTTP/1.1 framing holds against a scripted server's bad replies.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import socket
import threading
import time

import pytest

from netfaults import Stall, drive, serial_fingerprint, workload
from repro.errors import GameConfigError
from repro.gateway import (
    API_VERSION,
    AdvanceSlots,
    BidsReply,
    Configure,
    ErrorReply,
    LedgerQuery,
    LedgerReply,
    PricingService,
    RunQuery,
    SubmitBids,
    fingerprint,
)
from repro.gateway.client import GatewayClient, GatewayUnavailable
from repro.gateway.envelopes import to_dict
from repro.gateway.server import (
    HTTP_STATUS,
    ROUTES,
    GatewayServer,
    ServerConfig,
    ServerThread,
    path_for_kind,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def make_server(service=None, *, stall_hook=None, **knobs):
    """An in-process server on an ephemeral port, plus its service."""
    service = service or PricingService()
    thread = ServerThread(
        service, ServerConfig(port=0, **knobs), stall_hook=stall_hook
    )
    host, port = thread.start()
    return thread, service, host, port


@pytest.fixture()
def gateway():
    thread, service, host, port = make_server()
    client = GatewayClient(host, port)
    try:
        yield client, service, thread
    finally:
        client.close()
        thread.stop()


CONFIG = Configure(optimizations=(("idx", 40.0), ("mv", 25.0)), horizon=4)


class TestEndpoints:
    def test_every_kind_round_trips_over_http(self):
        # A tiny pre-loaded universe gives RunQuery real tables to hit.
        from repro.astro.simulator import UniverseConfig, UniverseSimulator

        service = PricingService()
        for snapshot in UniverseSimulator(
            UniverseConfig(particles=200, snapshots=1), rng=3
        ).run():
            service.db.create_table(snapshot.to_table())
        thread, service, host, port = make_server(service)
        client = GatewayClient(host, port)
        try:
            replies = drive(
                client,
                [
                    CONFIG,
                    SubmitBids(tenant="ann", bids=(("idx", 1, (30.0, 15.0)),)),
                    SubmitBids(tenant="bob", bids=(("mv", 1, (20.0,)),)),
                    AdvanceSlots(slots=2),
                    RunQuery(
                        tenant="ann", query="members", table="snap_01", halo=0
                    ),
                    LedgerQuery(tenant="ann"),
                ],
            )
        finally:
            client.close()
            thread.stop()
        kinds = [type(reply).__name__ for reply in replies]
        assert kinds == [
            "ConfigReply",
            "BidsReply",
            "BidsReply",
            "SlotReply",
            "QueryReply",
            "LedgerReply",
        ]

    def test_server_state_matches_a_serial_run(self, gateway):
        client, service, _thread = gateway
        steps = workload()
        drive(client, steps)
        assert fingerprint(service) == serial_fingerprint(steps)

    def test_rejections_come_back_typed_not_raised(self, gateway):
        client, _service, _thread = gateway
        client.request(CONFIG)
        reply = client.request(
            SubmitBids(tenant="ann", bids=(("idx", 0, (1.0,)),))  # slot 0: invalid
        )
        assert isinstance(reply, ErrorReply)
        assert reply.code == "bid"
        assert reply.retryable is False

    def test_healthz_counts_dispatches(self, gateway):
        client, _service, _thread = gateway
        client.request(CONFIG)
        health = client.health()
        assert health["status"] == "ok"
        assert health["dispatched"] == 1
        assert health["batches"] == 1
        assert health["shed"] == 0

    def test_healthz_carries_version_uptime_and_wal_seq(self, tmp_path):
        import repro

        service = PricingService()
        service.attach_wal(tmp_path / "wal")
        thread, service, host, port = make_server(service)
        client = GatewayClient(host, port)
        try:
            client.request(CONFIG)
            health = client.health()
            assert health["version"] == repro.__version__
            assert health["uptime_s"] >= 0.0
            assert health["wal_seq"] >= 1  # the Configure was logged
            assert health["epoch"] >= 0
            seq = health["wal_seq"]
            client.request(
                SubmitBids(tenant="ann", bids=(("idx", 1, (30.0,)),))
            )
            assert client.health()["wal_seq"] > seq
        finally:
            client.close()
            thread.stop()

    def test_get_metrics_is_valid_prometheus_exposition(self, gateway):
        from promparse import parse_exposition

        client, _service, _thread = gateway
        client.request(CONFIG)
        client.request(SubmitBids(tenant="ann", bids=(("idx", 1, (30.0,)),)))
        text = client.metrics_text()
        types, samples = parse_exposition(text)
        assert types["repro_server_requests_total"] == "counter"
        assert types["repro_server_request_seconds"] == "histogram"
        assert types["repro_server_batch_size"] == "histogram"
        endpoints = {
            s.labels["endpoint"]
            for s in samples
            if s.name == "repro_server_requests_total"
        }
        assert {"/v1/slots", "/v1/bids"} <= endpoints
        # The scrape itself is accounted for on its own endpoint.
        rescrape = client.metrics_text()
        _, samples = parse_exposition(rescrape)
        (metrics_hits,) = [
            s.value
            for s in samples
            if s.name == "repro_server_requests_total"
            and s.labels["endpoint"] == "/v1/metrics"
        ]
        assert metrics_hits >= 1.0

    def test_post_metrics_routes_the_envelope(self, gateway):
        from repro.gateway import MetricsReply, MetricsRequest

        client, _service, _thread = gateway
        client.request(CONFIG)
        reply = client.request(MetricsRequest())
        assert isinstance(reply, MetricsReply)
        names = {entry[0] for entry in reply.metrics}
        assert "repro_server_requests_total" in names

    def test_every_route_kind_has_a_path_and_status(self):
        for path, kinds in ROUTES.items():
            for kind in kinds:
                assert path_for_kind(kind) == path
        with pytest.raises(GameConfigError):
            path_for_kind("ErrorReply")
        # Every wire error code the envelope layer can emit maps to a
        # status; unknowns fall back to 500 in the server.
        from repro.gateway.envelopes import ERROR_CODES

        for _exc, code in ERROR_CODES:
            assert code in HTTP_STATUS


class TestRawHttp:
    """Status-code and protocol behavior below the client's abstraction."""

    def _raw(self, host, port, method, path, body=b"", headers=None):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_unknown_path_is_404_protocol_error(self, gateway):
        client, _service, _thread = gateway
        status, payload = self._raw(client.host, client.port, "POST", "/v2/bids")
        assert status == 404
        assert payload["kind"] == "ErrorReply"
        assert payload["code"] == "protocol"
        assert payload["retryable"] is False

    def test_wrong_method_is_405(self, gateway):
        client, _service, _thread = gateway
        status, payload = self._raw(client.host, client.port, "GET", "/v1/bids")
        assert status == 405
        assert payload["code"] == "protocol"

    def test_undecodable_body_is_400(self, gateway):
        client, _service, _thread = gateway
        status, payload = self._raw(
            client.host, client.port, "POST", "/v1/bids", body=b"{not json"
        )
        assert status == 400
        assert payload["code"] == "protocol"

    def test_kind_on_wrong_path_is_400(self, gateway):
        client, _service, _thread = gateway
        body = json.dumps(
            {"api": API_VERSION, "kind": "AdvanceSlots", "slots": 1}
        ).encode()
        status, payload = self._raw(
            client.host, client.port, "POST", "/v1/bids", body=body
        )
        assert status == 400
        assert payload["code"] == "protocol"
        assert "/v1/bids" in payload["message"]

    def test_malformed_deadline_header_is_400(self, gateway):
        client, _service, _thread = gateway
        body = json.dumps(
            {"api": API_VERSION, "kind": "LedgerQuery", "tenant": "ann"}
        ).encode()
        status, payload = self._raw(
            client.host,
            client.port,
            "POST",
            "/v1/ledger",
            body=body,
            headers={"X-Repro-Deadline": "soon"},
        )
        assert status == 400
        assert payload["code"] == "protocol"

    @pytest.mark.parametrize(
        "head",
        [
            b"POST /v1/ledger HTTP/1.1\r\nX-Pad: " + b"a" * 70 * 1024 + b"\r\n\r\n",
            b"POST /v1/" + b"a" * 70 * 1024 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header_line", "request_line"],
    )
    def test_head_line_past_the_stream_limit_is_400(self, gateway, head):
        # asyncio's 64 KiB line limit raises out of readline(); it must
        # come back as a typed 400, not a crashed connection task.
        client, _service, _thread = gateway
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(head)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        reply_head, _, body = raw.partition(b"\r\n\r\n")
        assert reply_head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply_head
        assert json.loads(body)["code"] == "protocol"
        assert client.health()["status"] == "ok"  # still serving

    def test_overloaded_is_429_with_retry_after_header(self):
        thread, _service, host, port = make_server(max_pending=0)
        try:
            conn = http.client.HTTPConnection(host, port, timeout=10)
            body = json.dumps(
                {"api": API_VERSION, "kind": "LedgerQuery", "tenant": "ann"}
            ).encode()
            conn.request("POST", "/v1/ledger", body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 429
            assert float(response.headers["Retry-After"]) > 0
            assert payload["code"] == "overloaded"
            assert payload["retryable"] is True
            conn.close()
        finally:
            thread.stop()


class TestAdmissionControl:
    def test_zero_capacity_sheds_everything_typed(self):
        thread, service, host, port = make_server(max_pending=0)
        client = GatewayClient(host, port, max_attempts=2, sleep=lambda _s: None)
        try:
            reply = client.request(CONFIG)
            assert isinstance(reply, ErrorReply)
            assert reply.code == "overloaded"
            assert reply.retryable is True
            assert reply.retry_after > 0
            # Nothing reached the core: the shed is admission-side.
            assert fingerprint(service) == fingerprint(PricingService())
            assert client.health()["shed"] >= 2  # one per attempt
        finally:
            client.close()
            thread.stop()

    def test_global_bound_sheds_while_queue_is_full(self):
        stall = Stall({0: 0.5})
        thread, _service, host, port = make_server(
            stall_hook=stall, max_pending=2
        )
        probe = GatewayClient(host, port, max_attempts=1)
        fillers = [GatewayClient(host, port) for _ in range(2)]
        try:
            threads = [
                threading.Thread(
                    target=filler.request,
                    args=(LedgerQuery(tenant=f"t{i}"),),
                )
                for i, filler in enumerate(fillers)
            ]
            for t in threads:
                t.start()
            while probe.health()["pending"] < 2:  # both queued behind the stall
                time.sleep(0.005)
            reply = probe.request(LedgerQuery(tenant="late"))
            assert isinstance(reply, ErrorReply)
            assert reply.code == "overloaded"
            for t in threads:
                t.join(timeout=10)
            assert probe.health()["pending"] == 0
        finally:
            for filler in fillers:
                filler.close()
            probe.close()
            thread.stop()

    def test_tenant_fair_share_sheds_only_the_hog(self):
        stall = Stall({0: 0.5})
        thread, _service, host, port = make_server(
            stall_hook=stall, tenant_pending=1
        )
        probe = GatewayClient(host, port, max_attempts=1)
        hog = GatewayClient(host, port)
        neighbor = GatewayClient(host, port)
        try:
            hog_thread = threading.Thread(
                target=hog.request, args=(LedgerQuery(tenant="hog"),)
            )
            hog_thread.start()
            while probe.health()["pending"] < 1:
                time.sleep(0.005)
            shed = probe.request(LedgerQuery(tenant="hog"))
            assert isinstance(shed, ErrorReply)
            assert shed.code == "overloaded"
            assert "hog" in shed.message
            # A different tenant still gets in while the hog is capped.
            neighbor_thread = threading.Thread(
                target=neighbor.request, args=(LedgerQuery(tenant="calm"),)
            )
            neighbor_thread.start()
            while probe.health()["pending"] < 2:
                time.sleep(0.005)
            hog_thread.join(timeout=10)
            neighbor_thread.join(timeout=10)
            assert probe.health()["shed"] == 1
        finally:
            hog.close()
            neighbor.close()
            probe.close()
            thread.stop()


class TestDeadlines:
    def test_expired_work_is_cancelled_before_dispatch(self):
        stall = Stall({0: 0.4})
        thread, service, host, port = make_server(stall_hook=stall)
        client = GatewayClient(host, port, max_attempts=1)
        try:
            baseline = fingerprint(PricingService())
            reply = client.request(
                SubmitBids(tenant="ann", bids=(("idx", 1, (9.0,)),)),
                deadline=0.05,
            )
            assert isinstance(reply, ErrorReply)
            assert reply.code == "deadline_exceeded"
            assert reply.retryable is True
            # The stalled batch re-checks after the stall: nothing
            # cancelled ever reaches the service.
            while client.health()["pending"]:
                time.sleep(0.005)
            assert client.health()["dispatched"] == 0
            assert fingerprint(service) == baseline
        finally:
            client.close()
            thread.stop()

    def test_unexpired_deadline_returns_the_real_reply(self, gateway):
        client, _service, _thread = gateway
        reply = client.request(CONFIG, deadline=30.0)
        assert type(reply).__name__ == "ConfigReply"


class TestGroupCommit:
    def test_concurrent_envelopes_share_batches_and_fsyncs(self, tmp_path):
        stall = Stall({1: 0.4})
        service = PricingService()
        service.attach_wal(tmp_path / "wal")
        thread = ServerThread(service, ServerConfig(port=0), stall_hook=stall)
        host, port = thread.start()
        clients = [GatewayClient(host, port) for _ in range(5)]
        try:
            clients[0].request(CONFIG)  # batch 0
            fsyncs_before = clients[0].health()["fsyncs"]
            # Batch 1 stalls on the first post-config envelope; the other
            # four arrive behind the held flush lock and must coalesce.
            first = threading.Thread(
                target=clients[0].request,
                args=(SubmitBids(tenant="t0", bids=(("idx", 1, (5.0,)),)),),
            )
            first.start()
            while stall.batches < 2:  # batch 1 has entered the stall
                time.sleep(0.005)
            rest = [
                threading.Thread(
                    target=clients[i].request,
                    args=(SubmitBids(tenant=f"t{i}", bids=(("idx", 1, (5.0 + i,)),)),),
                )
                for i in range(1, 5)
            ]
            for t in rest:
                t.start()
            first.join(timeout=10)
            for t in rest:
                t.join(timeout=10)
            health = clients[0].health()
            assert health["dispatched"] == 6
            # 1 config batch + 1 stalled submit + 1 coalesced batch of 4.
            assert health["batches"] == 3
            fsync_delta = health["fsyncs"] - fsyncs_before
            assert fsync_delta <= 2  # group commit: 5 submits, ≤2 fsyncs
        finally:
            for client in clients:
                client.close()
            thread.stop()
            service.close()

    def test_lone_request_flushes_without_a_timer(self):
        # Adaptive group commit: admission starts the flush for the next
        # loop turn, so no timer (a linger delay) is scheduled between a
        # request's admission and its batch reaching dispatch.
        async def scenario():
            loop = asyncio.get_running_loop()
            timers: list = []
            call_at = loop.call_at

            def recording_call_at(when, callback, *args, **kwargs):
                timers.append(when - loop.time())
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = recording_call_at
            marks: dict = {}

            async def stall(requests):
                marks["dispatch"] = len(timers)

            server = GatewayServer(
                PricingService(), ServerConfig(port=0), stall_hook=stall
            )
            admit = server._admit_and_dispatch

            async def admit_marked(*args):
                marks["admitted"] = len(timers)
                return await admit(*args)

            server._admit_and_dispatch = admit_marked
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps(to_dict(CONFIG)).encode()
            head = b"POST /v1/slots HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            writer.write(head % len(body) + body)
            await writer.drain()
            status = await reader.readline()
            writer.close()
            await server.drain()
            return status, timers[marks["admitted"]:marks["dispatch"]]

        status, timers = asyncio.run(scenario())
        assert status.startswith(b"HTTP/1.1 200")
        assert timers == []


class TestDrain:
    def test_stop_checkpoints_a_durable_service(self, tmp_path):
        wal_dir = tmp_path / "wal"
        service = PricingService()
        service.attach_wal(wal_dir)
        thread = ServerThread(service, ServerConfig(port=0))
        host, port = thread.start()
        client = GatewayClient(host, port)
        steps = workload(tenants=2, opts=2)
        try:
            drive(client, steps)
        finally:
            client.close()
        checkpoints_before = len(list(wal_dir.glob("checkpoint-*.json")))
        thread.stop()
        assert len(list(wal_dir.glob("checkpoint-*.json"))) > checkpoints_before
        expected = fingerprint(service)
        service.close()
        recovered = PricingService.recover(wal_dir)
        try:
            assert fingerprint(recovered) == expected
            assert fingerprint(recovered) == serial_fingerprint(steps)
        finally:
            recovered.close()

    def test_stopped_server_refuses_connections(self, gateway):
        client, _service, thread = gateway
        client.request(CONFIG)
        thread.stop()
        fresh = GatewayClient(
            client.host,
            client.port,
            max_attempts=2,
            sleep=lambda _s: None,
        )
        with pytest.raises(GatewayUnavailable):
            fresh.request(LedgerQuery(tenant="ann"))


class TestClientPolicy:
    def test_backoff_is_capped_exponential_with_jitter_floor(self):
        sleeps = []
        client = GatewayClient(
            "localhost",
            1,
            max_attempts=5,
            base_delay=0.1,
            max_delay=0.3,
            rng=random.Random(7),
            sleep=sleeps.append,
        )
        for attempt in range(5):
            client._backoff(attempt, floor=0.05)
        # The final attempt never sleeps (no retry follows it).
        assert len(sleeps) == 4
        ceilings = [0.1, 0.2, 0.3, 0.3]  # capped at max_delay
        for slept, ceiling in zip(sleeps, ceilings):
            assert 0.05 <= slept <= max(ceiling, 0.05)

    def test_typed_shed_is_returned_after_retries_not_raised(self):
        thread, _service, host, port = make_server(max_pending=0)
        sleeps = []
        client = GatewayClient(
            host, port, max_attempts=3, sleep=sleeps.append
        )
        try:
            reply = client.request(LedgerQuery(tenant="ann"))
            assert isinstance(reply, ErrorReply)
            assert reply.code == "overloaded"
            assert len(sleeps) == 2  # retried, then returned the verdict
            # Every wait honors the server's retry_after floor.
            assert all(s >= reply.retry_after for s in sleeps)
        finally:
            client.close()
            thread.stop()

    def test_non_retryable_error_is_never_retried(self, gateway):
        client, _service, _thread = gateway
        sleeps = []
        eager = GatewayClient(
            client.host, client.port, max_attempts=5, sleep=sleeps.append
        )
        try:
            eager.request(CONFIG)
            reply = eager.request(
                SubmitBids(tenant="ann", bids=(("idx", 0, (1.0,)),))
            )
            assert reply.code == "bid"
            assert sleeps == []
            assert eager.health()["dispatched"] == 2  # exactly one try each
        finally:
            eager.close()

    def test_connection_refused_retries_until_unavailable(self):
        sleeps = []
        client = GatewayClient(
            "127.0.0.1",
            1,  # nothing listens on port 1
            max_attempts=3,
            sleep=sleeps.append,
        )
        with pytest.raises(GatewayUnavailable) as excinfo:
            client.request(LedgerQuery(tenant="ann"))
        assert "3 attempts" in str(excinfo.value)
        assert len(sleeps) == 2

    def test_stale_keep_alive_is_reopened_transparently(self):
        # A server restart invalidates the client's cached connection;
        # the reused-connection death is always safe to retry.
        thread, _service, host, port = make_server()
        client = GatewayClient(host, port)
        try:
            client.request(CONFIG)
            thread.stop()
            replacement, _svc, host2, port2 = make_server()
            try:
                client.host, client.port = host2, port2
                reply = client.request(CONFIG)
                assert type(reply).__name__ == "ConfigReply"
            finally:
                replacement.stop()
        finally:
            client.close()


def http_reply(body: bytes, *, close: bool = False) -> bytes:
    """A well-framed 200 reply carrying ``body``."""
    head = f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode() + b"\r\n" + body


LEDGER = LedgerReply(tenant="ann", invoices=(), total=0.0, cloud_balance=0.0)
LEDGER_BODY = json.dumps(to_dict(LEDGER)).encode()
LEDGER_REPLY = http_reply(LEDGER_BODY)
BID = SubmitBids(tenant="ann", bids=(("idx", 1, (30.0,)),))
BID_ACK = BidsReply(tenant="ann", accepted=1, slot=0)
BID_REPLY = http_reply(json.dumps(to_dict(BID_ACK)).encode())

#: Replies the client must refuse as malformed, not misread.
BAD_REPLIES = {
    "no_length": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
    "chunked": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n"
    ),
    "bad_length": b"HTTP/1.1 200 OK\r\nContent-Length: 2x\r\n\r\n{}",
    "bad_status": b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}",
    "not_json": http_reply(b"<html>upstream error</html>"),
}


#: Scripted replies that send nothing: ``STALL`` holds the connection
#: open until the client closes it, ``HANG_UP`` closes it at once.
STALL = object()
HANG_UP = object()


class ScriptedServer:
    """A one-connection-at-a-time socket server that answers each request
    with the next scripted reply, and records every request head.

    A reply given as a list is sent one element per segment, with a
    short pause between them. A reply whose head says
    ``Connection: close`` closes its connection, as do ``STALL``,
    ``HANG_UP`` and running out of replies.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.heads: list[bytes] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(10)
                self._answer(conn)

    def _answer(self, conn) -> None:
        buffer = b""
        while self.replies:
            while b"\r\n\r\n" not in buffer:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(buffer) < length:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
            buffer = buffer[length:]
            self.heads.append(head)
            reply = self.replies.pop(0)
            if reply is STALL:
                while conn.recv(65536):
                    pass
                return
            if reply is HANG_UP:
                return
            if isinstance(reply, list):
                for piece in reply:
                    conn.sendall(piece)
                    time.sleep(0.001)
                reply = b"".join(reply)
            else:
                conn.sendall(reply)
            if b"connection: close" in reply.partition(b"\r\n\r\n")[0].lower():
                return


@pytest.fixture()
def scripted():
    servers: list[ScriptedServer] = []

    def start(*replies) -> ScriptedServer:
        server = ScriptedServer(replies)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


def quick_client(server, *, timeout=5.0, **knobs) -> GatewayClient:
    return GatewayClient(
        server.host, server.port, timeout=timeout, sleep=lambda _s: None,
        **knobs,
    )


class TestClientTransport:
    """The client's own HTTP/1.1 framing, against the real server and a
    scripted one."""

    def test_one_sendall_per_attempt(self, gateway, monkeypatch):
        client, _service, _thread = gateway
        sends: list[int] = []
        sendall = socket.socket.sendall
        caller = threading.get_ident()

        def counting(sock, data, *args):
            if threading.get_ident() == caller:
                sends.append(len(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting)
        client.request(CONFIG)
        client.request(BID)
        client.health()
        assert len(sends) == 3  # head and body leave together
        # A shed is retried: still one send per attempt.
        thread, _service, host, port = make_server(max_pending=0)
        shed = GatewayClient(host, port, max_attempts=3, sleep=lambda _s: None)
        try:
            assert shed.request(BID).code == "overloaded"
        finally:
            shed.close()
            thread.stop()
        assert len(sends) == 6

    def test_reply_dribbled_one_byte_per_segment(self, scripted):
        server = scripted([bytes([byte]) for byte in LEDGER_REPLY], LEDGER_REPLY)
        with quick_client(server) as client:
            assert client.request(LedgerQuery(tenant="ann")) == LEDGER
            assert client.request(LedgerQuery(tenant="ann")) == LEDGER
        assert server.connections == 1

    def test_connection_close_is_honoured(self, scripted):
        server = scripted(
            http_reply(LEDGER_BODY, close=True), LEDGER_REPLY, LEDGER_REPLY
        )
        with quick_client(server) as client:
            for _ in range(3):
                assert client.request(LedgerQuery(tenant="ann")) == LEDGER
        # Closed after the first reply; the next two share a new socket.
        assert server.connections == 2

    def test_surplus_bytes_after_the_body_are_never_reused(self, scripted):
        server = scripted(LEDGER_REPLY + b"HTTP/1.1 200 OK\r\n", LEDGER_REPLY)
        with quick_client(server) as client:
            assert client.request(LedgerQuery(tenant="ann")) == LEDGER
            assert client.request(LedgerQuery(tenant="ann")) == LEDGER
        assert server.connections == 2

    @pytest.mark.parametrize("bad", sorted(BAD_REPLIES))
    def test_malformed_reply_on_a_fresh_mutating_exchange_raises(
        self, scripted, bad
    ):
        server = scripted(BAD_REPLIES[bad])
        with quick_client(server) as client:
            with pytest.raises(GatewayUnavailable, match="may or may not"):
                client.request(BID)
        assert len(server.heads) == 1  # never retried: it may have landed

    @pytest.mark.parametrize("bad", sorted(BAD_REPLIES))
    def test_malformed_reply_is_retried_for_read_only_kinds(self, scripted, bad):
        server = scripted(BAD_REPLIES[bad], LEDGER_REPLY)
        with quick_client(server) as client:
            assert client.request(LedgerQuery(tenant="ann")) == LEDGER
        assert len(server.heads) == 2

    def test_stalled_reply_on_a_reused_mutating_exchange_raises(self, scripted):
        # The third reply would answer a resend: it must never be asked for.
        server = scripted(BID_REPLY, STALL, BID_REPLY)
        with quick_client(server, timeout=0.2) as client:
            assert client.request(BID) == BID_ACK
            with pytest.raises(GatewayUnavailable, match="may or may not"):
                client.request(BID)
        assert len(server.heads) == 2

    @pytest.mark.parametrize("bad", sorted(BAD_REPLIES))
    def test_malformed_reply_on_a_reused_mutating_exchange_raises(
        self, scripted, bad
    ):
        server = scripted(BID_REPLY, BAD_REPLIES[bad], BID_REPLY)
        with quick_client(server) as client:
            assert client.request(BID) == BID_ACK
            with pytest.raises(GatewayUnavailable, match="may or may not"):
                client.request(BID)
        assert len(server.heads) == 2

    def test_reused_connection_closed_before_any_reply_is_resent(self, scripted):
        # The idle-close race: the server answers every request it
        # processed, so a hang-up with no reply byte is safe to resend.
        server = scripted(BID_REPLY, HANG_UP, BID_REPLY)
        with quick_client(server) as client:
            assert client.request(BID) == BID_ACK
            assert client.request(BID) == BID_ACK
        assert len(server.heads) == 3
        assert server.connections == 2

    def test_malformed_replies_exhaust_into_gateway_unavailable(self, scripted):
        server = scripted(*[BAD_REPLIES["not_json"]] * 3)
        with quick_client(server, max_attempts=3) as client:
            with pytest.raises(GatewayUnavailable, match="3 attempts"):
                client.request(LedgerQuery(tenant="ann"))
        assert len(server.heads) == 3

    def test_health_and_metrics_share_the_request_connection(self, gateway):
        client, _service, _thread = gateway
        client.request(CONFIG)
        sock = client._sock
        assert client.health()["dispatched"] == 1
        assert "repro_server_requests_total" in client.metrics_text()
        assert client._sock is sock

    def test_health_on_a_fresh_malformed_reply_raises_typed(self, scripted):
        server = scripted(BAD_REPLIES["chunked"])
        with quick_client(server) as client:
            with pytest.raises(GatewayUnavailable, match="Transfer-Encoding"):
                client.health()
        assert len(server.heads) == 1

    def test_request_head_carries_length_and_deadline(self, scripted):
        server = scripted(LEDGER_REPLY, LEDGER_REPLY)
        with quick_client(server) as client:
            client.request(LedgerQuery(tenant="ann"), deadline=2.5)
            client.request(LedgerQuery(tenant="ann"))
        with_deadline, without = (head.decode().lower() for head in server.heads)
        body = json.dumps(to_dict(LedgerQuery(tenant="ann"))).encode()
        assert with_deadline.startswith("post /v1/ledger http/1.1\r\n")
        assert f"\r\ncontent-length: {len(body)}" in with_deadline
        assert "\r\nx-repro-deadline: 2.5" in with_deadline
        assert "x-repro-deadline" not in without
