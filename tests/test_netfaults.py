"""The fault-injection property: broken networks never corrupt state.

``tests/netfaults.py`` supplies the faults (slow-loris, mid-body
disconnect, torn response write, stalled handler) and the serial
baseline; this file interleaves them with a real workload against an
in-process server and proves, for every fault at every injection point:

1. the final service state is **bit-identical** (via
   ``repro.gateway.fingerprint``) to a serial, fault-free run of exactly
   the envelopes that were supposed to land;
2. sheds and timeouts come back as *typed* replies — never a hung
   connection, never a silent drop;
3. an abrupt kill (``ServerThread.kill``, the kill-9 stand-in) at any
   prefix recovers bit-identically from the WAL.

The exhaustive grids (every fault × every injection point, every kill
prefix) are ``@pytest.mark.slow``; a pinned fast subset of the same
properties stays in tier 1.
"""

from __future__ import annotations

import pytest

from netfaults import (
    Stall,
    drive,
    mid_body_disconnect,
    serial_fingerprint,
    slow_loris,
    torn_write,
    wait_for_dispatched,
    workload,
)
from repro.gateway import ErrorReply, PricingService, SubmitBids, fingerprint
from repro.gateway.client import GatewayClient
from repro.gateway.server import ServerConfig, ServerThread

STEPS = workload()

# Fault name -> injector(host, port). Injectors that deliver a complete
# envelope (torn_write) contribute it to the serial baseline; the others
# must leave no trace at all.
TORN_STEP = SubmitBids(tenant="torn", bids=(("opt1", 1, (44.0, 33.0)),))
FAULTS = {
    "slow_loris": lambda host, port: slow_loris(host, port),
    "mid_body_disconnect": lambda host, port: mid_body_disconnect(host, port),
    "torn_write": lambda host, port: torn_write(host, port, TORN_STEP),
}


def run_with_fault(fault: str, position: int, *, read_timeout: float = 0.15):
    """Drive the workload with one fault injected before step ``position``;
    returns ``(server_fingerprint, serial_fingerprint_of_what_landed)``."""
    service = PricingService()
    thread = ServerThread(
        service, ServerConfig(port=0, read_timeout=read_timeout)
    )
    host, port = thread.start()
    client = GatewayClient(host, port)
    landed = []
    try:
        for index, step in enumerate(STEPS):
            if index == position:
                FAULTS[fault](host, port)
                if fault == "torn_write":
                    # No reply to wait on; sync on the health counter.
                    wait_for_dispatched(client, len(landed) + 1)
                    landed.append(TORN_STEP)
            reply = client.request(step)
            assert not isinstance(reply, ErrorReply), (fault, position, reply)
            landed.append(step)
    finally:
        client.close()
        thread.stop()
    return fingerprint(service), serial_fingerprint(landed)


class TestFaultsFast:
    """Pinned single-point injections: the tier-1 subset of the grid."""

    def test_slow_loris_is_cut_off_with_a_typed_408(self):
        service = PricingService()
        thread = ServerThread(
            service, ServerConfig(port=0, read_timeout=0.15)
        )
        host, port = thread.start()
        try:
            raw = slow_loris(host, port)
            assert b"408" in raw.split(b"\r\n", 1)[0]
            assert b"deadline_exceeded" in raw
            assert b"Connection: close" in raw
        finally:
            thread.stop()
        assert fingerprint(service) == serial_fingerprint([])

    def test_mid_body_disconnect_leaves_no_trace(self):
        server_fp, serial_fp = run_with_fault("mid_body_disconnect", 3)
        assert server_fp == serial_fp

    def test_torn_write_commits_exactly_once(self):
        server_fp, serial_fp = run_with_fault("torn_write", 3)
        assert server_fp == serial_fp

    def test_slow_loris_mid_workload_is_invisible_to_state(self):
        server_fp, serial_fp = run_with_fault("slow_loris", 5)
        assert server_fp == serial_fp

    def test_stalled_handler_with_deadline_cancels_cleanly(self):
        stall = Stall({2: 0.4})  # stall the batch after Configure + 1 submit
        service = PricingService()
        thread = ServerThread(
            service, ServerConfig(port=0), stall_hook=stall
        )
        host, port = thread.start()
        client = GatewayClient(host, port, max_attempts=1)
        landed = []
        try:
            for index, step in enumerate(STEPS[:6]):
                deadline = 0.05 if index == 2 else None
                reply = client.request(step, deadline=deadline)
                if index == 2:
                    # Cancelled inside the stalled batch, typed, retryable.
                    assert isinstance(reply, ErrorReply)
                    assert reply.code == "deadline_exceeded"
                    assert reply.retryable is True
                else:
                    assert not isinstance(reply, ErrorReply)
                    landed.append(step)
        finally:
            client.close()
            thread.stop()
        assert fingerprint(service) == serial_fingerprint(landed)

    def test_kill9_after_a_prefix_recovers_bit_identically(self, tmp_path):
        prefix = 7
        service = PricingService()
        service.attach_wal(tmp_path / "wal")
        thread = ServerThread(service, ServerConfig(port=0))
        host, port = thread.start()
        client = GatewayClient(host, port)
        try:
            drive(client, STEPS[:prefix])
        finally:
            client.close()
            thread.kill()  # no drain, no checkpoint
        service.close()
        recovered = PricingService.recover(tmp_path / "wal")
        try:
            assert fingerprint(recovered) == serial_fingerprint(STEPS[:prefix])
        finally:
            recovered.close()


@pytest.mark.slow
class TestFaultGrid:
    """Every fault at every injection point of the workload."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("position", range(len(STEPS)))
    def test_fault_anywhere_preserves_state(self, fault, position):
        server_fp, serial_fp = run_with_fault(fault, position)
        assert server_fp == serial_fp

    @pytest.mark.parametrize("prefix", range(len(STEPS) + 1))
    def test_kill9_at_every_prefix_recovers(self, prefix, tmp_path):
        service = PricingService()
        service.attach_wal(tmp_path / "wal")
        thread = ServerThread(service, ServerConfig(port=0))
        host, port = thread.start()
        client = GatewayClient(host, port)
        try:
            drive(client, STEPS[:prefix])
        finally:
            client.close()
            thread.kill()
        service.close()
        recovered = PricingService.recover(tmp_path / "wal")
        try:
            assert fingerprint(recovered) == serial_fingerprint(STEPS[:prefix])
        finally:
            recovered.close()

    def test_fault_storm_then_drain_then_recover(self, tmp_path):
        """All faults interleaved in one run over a durable service,
        graceful drain, recovery — end state still serial."""
        service = PricingService()
        service.attach_wal(tmp_path / "wal", checkpoint_every=5)
        thread = ServerThread(
            service, ServerConfig(port=0, read_timeout=0.15)
        )
        host, port = thread.start()
        client = GatewayClient(host, port)
        landed = []
        try:
            for index, step in enumerate(STEPS):
                if index == 2:
                    mid_body_disconnect(host, port)
                if index == 4:
                    torn_write(host, port, TORN_STEP)
                    wait_for_dispatched(client, len(landed) + 1)
                    landed.append(TORN_STEP)
                if index == 6:
                    slow_loris(host, port)
                reply = client.request(step)
                assert not isinstance(reply, ErrorReply)
                landed.append(step)
        finally:
            client.close()
            thread.stop()
        expected = serial_fingerprint(landed)
        assert fingerprint(service) == expected
        service.close()
        recovered = PricingService.recover(tmp_path / "wal")
        try:
            assert fingerprint(recovered) == expected
        finally:
            recovered.close()
