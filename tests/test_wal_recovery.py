"""Write-ahead log + checkpointed recovery, proven under crash injection.

The central property: for ANY workload and ANY crash point,
``PricingService.recover(dir)`` rebuilds a service whose observable
state — catalog (rows, epochs, indexes, views), workload log, billing
ledger, event log, fleet slot — is bit-identical to a service that ran
the same workload without crashing, and finishing the workload on the
recovered service yields bit-identical replies. Hypothesis drives the
workload and the crash point; ``tests/crashpoints.py`` supplies the
deterministic kill switch. A second property checks the fleet's state
image: recovery from any checkpoint finishes the period exactly as
recovery from the WAL alone does.

Alongside the properties: a group-committed batch across a crash before
or after its record is durable (lost whole, or replayed whole), corruption
fuzzing (torn tails, flipped bytes, duplicated/gapped sequences, stale
checkpoints, older API versions — every one a structured
``RecoveryError``, never silent state loss), the shared JSONL reader,
and round-trips for the new Catalog/WorkloadLog codecs.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crashpoints import (
    CrashPoint,
    SimulatedCrash,
    continuation,
    durable_requests,
    run_steps,
    run_until_crash,
)
from repro import obs
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import GameConfigError, RecoveryError
from repro.gateway import codec, fingerprint
from repro.gateway.envelopes import (
    API_VERSION,
    AdvanceSlots,
    AdviseRequest,
    Configure,
    ErrorReply,
    LedgerQuery,
    MetricsRequest,
    ReviseBid,
    RunQuery,
    SubmitBids,
)
from repro.gateway.service import PricingService
from repro.gateway.trace import iter_trace, replay_path
from repro.gateway.wal.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_GLOB,
    capture_state,
    checkpoint_path,
    load_checkpoint,
    write_checkpoint,
)
from repro.gateway.wal.records import WAL_FILENAME, iter_jsonl, with_checksum
from repro.gateway.wal.recovery import read_log

OPTS = (("idx", 40.0), ("mv", 25.0))


def _seed(service: PricingService) -> None:
    table = Table("snap_01", Schema.of(pid="int", halo="int"))
    for i in range(24):
        table.insert((i, i % 5 - 1))
    service.db.create_table(table)


def _service() -> PricingService:
    service = PricingService()
    _seed(service)
    return service


def _submit(tenant, opt, start, values, revisable=False) -> SubmitBids:
    return SubmitBids(
        tenant=tenant, bids=((opt, start, tuple(values)),), revisable=revisable
    )


# ------------------------------------------------------------ strategies --

_VALUES = st.lists(
    st.sampled_from([5.0, 10.0, 17.5, 30.0]), min_size=1, max_size=3
)
_TENANTS = st.sampled_from(["ann", "bob", "cara", "dan"])
_OPT_IDS = st.sampled_from(["idx", "mv"])


@st.composite
def workloads(draw):
    """A Configure followed by a mix of every envelope kind.

    Steps may fail (duplicate bids, over-horizon advances, unrevisable
    revisions) — deliberately: failed dispatches are logged and must
    replay to the same ErrorReply.
    """
    horizon = draw(st.integers(3, 5))
    steps: list = [Configure(optimizations=OPTS, horizon=horizon)]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(
            st.sampled_from(
                ["bulk", "single", "revise", "advance", "ledger", "query", "advise"]
            )
        )
        if kind == "bulk":
            steps.append(
                [
                    _submit(
                        draw(_TENANTS), draw(_OPT_IDS), draw(st.integers(1, 2)),
                        draw(_VALUES),
                    )
                    for _ in range(draw(st.integers(1, 3)))
                ]
            )
        elif kind == "single":
            steps.append(
                _submit(
                    draw(_TENANTS), draw(_OPT_IDS), draw(st.integers(1, 2)),
                    draw(_VALUES), revisable=draw(st.booleans()),
                )
            )
        elif kind == "revise":
            steps.append(
                ReviseBid(
                    tenant=draw(_TENANTS),
                    optimization=draw(_OPT_IDS),
                    new_values=((draw(st.integers(1, 3)), 40.0),),
                )
            )
        elif kind == "advance":
            steps.append(AdvanceSlots(slots=1))
        elif kind == "ledger":
            steps.append(LedgerQuery(tenant=draw(_TENANTS)))
        elif kind == "query":
            steps.append(
                RunQuery(
                    tenant=draw(_TENANTS), query="members", table="snap_01",
                    halo=draw(st.integers(0, 3)),
                )
            )
        else:
            steps.append(AdviseRequest())
    return steps


def _assert_recover_equals_serial(steps, crash_at, checkpoint_every):
    reference = _service()
    ref_replies = run_steps(reference, steps)
    ref_fp = fingerprint(reference)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        dut = _service()
        dut.attach_wal(directory, checkpoint_every=checkpoint_every)
        probe = CrashPoint(crash_at)
        dut.wal_probe = probe
        replies, crashed = run_until_crash(dut, steps)
        if not crashed:
            assert replies == ref_replies
            dut.close()

        done = durable_requests(directory)
        recovered = PricingService.recover(
            directory, checkpoint_every=checkpoint_every
        )
        tail = run_steps(recovered, continuation(steps, done))
        assert tail == ref_replies[len(ref_replies) - len(tail) :]
        assert fingerprint(recovered) == ref_fp
        recovered.close()
        dut.close()


# ------------------------------------------------- the central property --


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=workloads(),
    crash_at=st.one_of(st.none(), st.integers(0, 19)),
    checkpoint_every=st.sampled_from([1, 3, None]),
)
def test_recover_equals_serial(steps, crash_at, checkpoint_every):
    _assert_recover_equals_serial(steps, crash_at, checkpoint_every)


@pytest.mark.slow
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=workloads(),
    crash_at=st.one_of(st.none(), st.integers(0, 49)),
    checkpoint_every=st.sampled_from([1, 2, 3, 5, None]),
)
def test_recover_equals_serial_full_grid(steps, crash_at, checkpoint_every):
    _assert_recover_equals_serial(steps, crash_at, checkpoint_every)


def test_every_crash_point_of_one_workload_recovers():
    """Exhaustively kill one fixed workload at every probe boundary."""
    steps = [
        Configure(optimizations=OPTS, horizon=3),
        [_submit("ann", "idx", 1, (30.0, 30.0)), _submit("bob", "mv", 1, (25.0,))],
        AdvanceSlots(slots=1),
        RunQuery(tenant="ann", query="members", table="snap_01", halo=1),
        AdvanceSlots(slots=2),
        LedgerQuery(tenant="ann"),
    ]
    clean = CrashPoint(None)
    dut = _service()
    with tempfile.TemporaryDirectory() as tmp:
        dut.attach_wal(Path(tmp), checkpoint_every=2)
        dut.wal_probe = clean
        run_steps(dut, steps)
        dut.close()
    assert len(clean.fired) > 10  # the grid is real
    for crash_at in range(len(clean.fired)):
        _assert_recover_equals_serial(steps, crash_at, checkpoint_every=2)


# ------------------------- any checkpoint restores what the WAL restores --


def _finish(directory, steps) -> tuple:
    """Recover ``directory``, run ``steps`` and the rest of the period;
    returns the replies, the final report and the fingerprint."""
    service = PricingService.recover(directory)
    try:
        replies = run_steps(service, steps)
        report = None if service.fleet is None else service.run_to_end()
        return replies, report, fingerprint(service)
    finally:
        service.close()


def _assert_checkpoints_restore_the_wal(steps, split, checkpoint_every):
    """Recover a directory as written, and a copy holding only the base
    checkpoint (so recovery replays the whole WAL); both must finish the
    period identically. A fingerprint at the crash point alone would miss
    a dropped pending row or solver field: those only show later."""
    head, rest = steps[:split], steps[split:]
    with tempfile.TemporaryDirectory() as tmp:
        as_is = Path(tmp) / "as-is"
        service = _service()
        service.attach_wal(as_is, checkpoint_every=checkpoint_every)
        run_steps(service, head)
        service.close()
        wal_only = Path(tmp) / "wal-only"
        shutil.copytree(as_is, wal_only)
        for path in wal_only.glob(CHECKPOINT_GLOB):
            if path != checkpoint_path(wal_only, 0):
                path.unlink()
        assert _finish(as_is, rest) == _finish(wal_only, rest)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=workloads(),
    split=st.integers(1, 8),
    checkpoint_every=st.sampled_from([1, 2, 3]),
)
def test_any_checkpoint_restores_what_the_wal_restores(steps, split, checkpoint_every):
    _assert_checkpoints_restore_the_wal(steps, split, checkpoint_every)


@pytest.mark.slow
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=workloads(),
    split=st.integers(1, 8),
    checkpoint_every=st.sampled_from([1, 2, 3]),
)
def test_any_checkpoint_restores_what_the_wal_restores_full_grid(
    steps, split, checkpoint_every
):
    _assert_checkpoints_restore_the_wal(steps, split, checkpoint_every)


def test_a_mid_period_checkpoint_restores_every_kind_of_row():
    """Every image section live at once: bulk rows, placed and revised
    rows in several blocks, open rows not yet finalized, hot and cold
    games, departures behind and ahead."""
    steps = [
        Configure(optimizations=OPTS + (("cold", 500.0),), horizon=8),
        [
            _submit("ann", "idx", 1, (30.0, 30.0)),
            _submit("bob", "mv", 2, (10.0, 5.0, 5.0)),
            _submit("cara", "cold", 1, (5.0,)),
        ],
        _submit("dan", "idx", 3, (4.0, 4.0), revisable=True),
        AdvanceSlots(slots=1),
        _submit("eve", "mv", 3, (9.0,), revisable=True),
        ReviseBid(tenant="dan", optimization="idx", new_values=((4, 20.0),)),
        AdvanceSlots(slots=2),
        _submit("fay", "idx", 6, (12.0, 12.0), revisable=True),
        ReviseBid(tenant="eve", optimization="mv", new_values=((5, 30.0),)),
    ]
    for split in range(1, len(steps) + 1):
        _assert_checkpoints_restore_the_wal(steps, split, checkpoint_every=1)


def _dispatched() -> float:
    return sum(
        value
        for name, _, _, value in obs.REGISTRY.wire()
        if name == "repro_dispatch_total"
    )


def test_restoring_a_tail_checkpoint_dispatches_nothing(tmp_path):
    directory = _durable_run(tmp=tmp_path)
    before = _dispatched()
    service = PricingService.recover(directory)
    # Positive control: replaying the WAL alone moves the counter.
    assert _dispatched() > before
    service.checkpoint()
    live = fingerprint(service)
    service.close()
    before = _dispatched()
    recovered = PricingService.recover(directory)
    assert _dispatched() == before
    assert fingerprint(recovered) == live
    recovered.close()


# ------------------------------------------------ group commit across a crash --


def _bulk_workload():
    return [
        Configure(optimizations=OPTS, horizon=3),
        [
            _submit("ann", "idx", 1, (30.0, 30.0)),
            _submit("bob", "idx", 1, (20.0,)),
            _submit("bob", "mv", 2, (15.0,)),
        ],
    ]


def _crash_bulk(crash_at):
    """Run the bulk workload, crash at ``crash_at``, recover; return all."""
    steps = _bulk_workload()
    directory = Path(tempfile.mkdtemp())
    dut = _service()
    dut.attach_wal(directory, checkpoint_every=None)
    dut.wal_probe = probe = CrashPoint(crash_at)
    with pytest.raises(SimulatedCrash):
        run_steps(dut, steps)
    dut.close()  # a crashed process's files close with it
    return directory, probe


def test_bulk_crash_before_append_loses_the_whole_run():
    # Probes 0-2 are Configure's append/appended/apply; probe 3 is the
    # batch record's "wal:append" — the crash lands before any byte of
    # the run is durable.
    directory, probe = _crash_bulk(3)
    assert probe.crashed_stage == "wal:append"
    assert durable_requests(directory) == 1  # just the Configure
    recovered = PricingService.recover(directory)
    baseline = _service()
    run_steps(baseline, [Configure(optimizations=OPTS, horizon=3)])
    assert fingerprint(recovered) == fingerprint(baseline)
    recovered.close()


def test_bulk_crash_after_append_replays_the_whole_run():
    # Probe 4 is the batch record's "wal:appended": durable, but the
    # crash hits before any effect applies. Recovery must apply ALL of
    # the run: a durable record is applied whole across restarts.
    directory, probe = _crash_bulk(4)
    assert probe.crashed_stage == "wal:appended"
    assert durable_requests(directory) == 4  # Configure + the 3-bid run
    recovered = PricingService.recover(directory)
    reference = _service()
    run_steps(reference, _bulk_workload())
    assert fingerprint(recovered) == fingerprint(reference)
    recovered.close()


# --------------------------------------------------------- corruption fuzz --


def _durable_run(checkpoint_every=None, tmp=None):
    """A closed durable service's directory after a fixed workload."""
    directory = Path(tmp if tmp is not None else tempfile.mkdtemp())
    service = _service()
    service.attach_wal(directory, checkpoint_every=checkpoint_every)
    run_steps(
        service,
        [
            Configure(optimizations=OPTS, horizon=3),
            [_submit("ann", "idx", 1, (30.0, 30.0))],
            _submit("bob", "mv", 1, (25.0,), revisable=True),
            AdvanceSlots(slots=1),
            LedgerQuery(tenant="ann"),
        ],
    )
    service.close()
    return directory


def test_truncated_tail_recovers_to_the_last_valid_prefix():
    directory = _durable_run()
    wal = directory / WAL_FILENAME
    data = wal.read_bytes()
    wal.write_bytes(data[:-9])  # tear the final record mid-line
    recovered = PricingService.recover(directory)
    # The torn AdvanceSlots record is gone (the trailing read was never
    # logged).
    assert durable_requests(directory) == 3
    # The torn bytes were physically truncated: appending works cleanly.
    reply = recovered.dispatch(AdvanceSlots(slots=1))
    assert not isinstance(reply, ErrorReply)
    assert durable_requests(directory) == 4
    lines = list(iter_jsonl(wal))
    assert len(lines) == 4
    assert all(line.error is None for line in lines)
    assert all(line.complete for line in lines)
    recovered.close()


def test_flipped_byte_mid_file_is_a_recovery_error():
    directory = _durable_run()
    wal = directory / WAL_FILENAME
    data = bytearray(wal.read_bytes())
    lines = list(iter_jsonl(wal))
    target = lines[1]  # a complete, non-final record
    for offset in range(target.end_offset - 12, target.end_offset - 2):
        if chr(data[offset]).isdigit():
            data[offset] = ord("7") if data[offset] != ord("7") else ord("3")
            break
    wal.write_bytes(bytes(data))
    with pytest.raises(RecoveryError):
        PricingService.recover(directory)


def test_flipped_byte_in_complete_final_line_is_a_recovery_error():
    # A final line WITH its newline is not a torn append: corruption
    # there must refuse, not silently drop the record.
    directory = _durable_run()
    wal = directory / WAL_FILENAME
    data = bytearray(wal.read_bytes())
    assert data.endswith(b"\n")
    data[-10] = data[-10] ^ 0x01
    wal.write_bytes(bytes(data))
    with pytest.raises(RecoveryError):
        PricingService.recover(directory)


def test_duplicated_sequence_number_is_a_recovery_error():
    directory = _durable_run()
    wal = directory / WAL_FILENAME
    lines = wal.read_bytes().splitlines(keepends=True)
    wal.write_bytes(b"".join(lines) + lines[-1])  # replay the last record
    with pytest.raises(RecoveryError, match="duplicates sequence"):
        PricingService.recover(directory)


def test_sequence_gap_is_a_recovery_error():
    directory = _durable_run()
    wal = directory / WAL_FILENAME
    lines = wal.read_bytes().splitlines(keepends=True)
    del lines[2]  # drop a middle record
    wal.write_bytes(b"".join(lines))
    with pytest.raises(RecoveryError, match="sequence"):
        PricingService.recover(directory)


def test_stale_checkpoint_past_wal_end_is_a_recovery_error():
    # checkpoint_every=1 leaves the newest checkpoint covering the last
    # record; deleting that record makes every surviving checkpoint claim
    # more history than the log holds — durable records went missing.
    directory = _durable_run(checkpoint_every=1)
    wal = directory / WAL_FILENAME
    lines = wal.read_bytes().splitlines(keepends=True)
    wal.write_bytes(b"".join(lines[:-1]))
    with pytest.raises(RecoveryError, match="ends at"):
        PricingService.recover(directory)


def test_corrupt_latest_checkpoint_falls_back_to_an_older_one():
    directory = _durable_run(checkpoint_every=2)
    reference = _service()
    run_steps(
        reference,
        [
            Configure(optimizations=OPTS, horizon=3),
            [_submit("ann", "idx", 1, (30.0, 30.0))],
            _submit("bob", "mv", 1, (25.0,), revisable=True),
            AdvanceSlots(slots=1),
            LedgerQuery(tenant="ann"),
        ],
    )
    checkpoints = sorted(directory.glob("checkpoint-*.json"))
    assert len(checkpoints) >= 2
    newest = checkpoints[-1]
    newest.write_bytes(newest.read_bytes()[:-40])  # wreck it
    recovered = PricingService.recover(directory)
    assert fingerprint(recovered) == fingerprint(reference)
    recovered.close()


def test_checkpoint_in_the_json_dump_layout_still_loads(tmp_path):
    # Checkpoints are written as canonical JSON with the CRC spliced on;
    # files from before that change were json.dump'd in capture order
    # with default spacing, and must still verify and recover.
    from repro.gateway.wal.records import checksum

    def recovered_fingerprint():
        service = PricingService.recover(directory)
        try:
            return fingerprint(service)
        finally:
            service.close()

    directory = _durable_run(checkpoint_every=2, tmp=tmp_path)
    expected = recovered_fingerprint()
    for path in directory.glob("checkpoint-*.json"):
        payload = load_checkpoint(path)
        state = {key: value for key, value in payload.items() if key != "crc"}
        assert path.read_text(encoding="utf-8") == with_checksum(state)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**state, "crc": checksum(state)}, handle)
        assert load_checkpoint(path) == payload
    assert recovered_fingerprint() == expected


def test_every_checkpoint_corrupt_is_a_recovery_error():
    directory = _durable_run(checkpoint_every=2)
    for checkpoint in directory.glob("checkpoint-*.json"):
        checkpoint.write_text("{not json", encoding="utf-8")
    with pytest.raises(RecoveryError, match="failed verification"):
        PricingService.recover(directory)


def test_recovering_an_empty_or_missing_directory_is_a_recovery_error():
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(RecoveryError, match="no checkpoint"):
            PricingService.recover(tmp)
        with pytest.raises(RecoveryError, match="no WAL directory"):
            PricingService.recover(Path(tmp) / "nope")


def test_recovery_error_has_a_stable_wire_code():
    assert ErrorReply.of(RecoveryError("boom")).code == "recovery"


# ----------------------------------------------------- attach-time guards --


def test_attach_wal_refuses_a_directory_with_durable_state():
    directory = _durable_run()
    fresh = _service()
    with pytest.raises(RecoveryError, match="already holds durable state"):
        fresh.attach_wal(directory)


def test_attach_wal_twice_is_a_config_error():
    with tempfile.TemporaryDirectory() as tmp:
        service = _service()
        service.attach_wal(tmp)
        with pytest.raises(GameConfigError, match="already attached"):
            service.attach_wal(tmp)
        service.close()


def test_checkpoint_without_a_wal_is_a_config_error():
    with pytest.raises(GameConfigError, match="no WAL is attached"):
        _service().checkpoint()


def test_durable_service_refuses_an_externally_attached_fleet():
    from repro.fleet.engine import FleetEngine
    from repro.cloudsim.catalog import OptimizationCatalog

    with tempfile.TemporaryDirectory() as tmp:
        service = _service()
        service.attach_wal(tmp)
        fleet = FleetEngine(
            OptimizationCatalog.from_costs({"idx": 40.0}), horizon=3
        )
        with pytest.raises(GameConfigError, match="durable"):
            service.attach_fleet(fleet)
        service.close()


def test_an_adopted_pipeline_fleet_becomes_durable(tmp_path):
    from repro.db import CandidateView, Catalog, CostModel, SavingsEstimator
    from repro.fleet import TenantWorkload, build_service

    catalog = Catalog()
    table = Table("events", Schema.of(uid="int", payload="str", kind="int"))
    table.extend((i, f"p{i}", i % 5) for i in range(400))
    catalog.create_table(table)
    service = build_service(
        SavingsEstimator(catalog, CostModel()),
        [
            TenantWorkload(f"tenant-{i}", "events", ("uid", "kind"), 2, 3 + i)
            for i in range(3)
        ],
        [CandidateView("v_uid_kind", "events", ("uid", "kind"))],
        horizon=6,
        dollars_per_byte=1e-4,
    )
    service.attach_wal(tmp_path)  # the base checkpoint images the fleet
    replies = run_steps(
        service,
        [
            _submit("late", "v_uid_kind", 3, (0.01, 0.01), revisable=True),
            AdvanceSlots(slots=2),
            ReviseBid(
                tenant="tenant-2", optimization="v_uid_kind", new_values=((6, 12.0),)
            ),
            AdvanceSlots(slots=1),
            LedgerQuery(tenant="tenant-0"),
        ],
    )
    assert not [reply for reply in replies if reply["kind"] == "ErrorReply"]
    live = fingerprint(service)
    assert live["report"]["payments"]  # the adopted bids were priced
    service.close()
    recovered = PricingService.recover(tmp_path)
    assert fingerprint(recovered) == live
    recovered.close()


def test_a_format_1_checkpoint_is_refused_naming_both_formats(tmp_path):
    directory = _durable_run(checkpoint_every=2, tmp=tmp_path)
    for path in directory.glob(CHECKPOINT_GLOB):
        state = {k: v for k, v in load_checkpoint(path).items() if k != "crc"}
        path.write_text(with_checksum({**state, "format": 1}), encoding="utf-8")
    refusal = f"format 1; this build reads only format {CHECKPOINT_FORMAT}"
    with pytest.raises(RecoveryError, match=refusal) as caught:
        PricingService.recover(directory)
    assert ErrorReply.of(caught.value).code == "recovery"


def test_a_format_2_checkpoint_is_refused_naming_both_formats(tmp_path):
    # Format 2 imaged the fleet's payments and grant maps, which format 3
    # sums from the event log's rows.
    directory = _durable_run(checkpoint_every=2, tmp=tmp_path)
    for path in directory.glob(CHECKPOINT_GLOB):
        state = {k: v for k, v in load_checkpoint(path).items() if k != "crc"}
        path.write_text(with_checksum({**state, "format": 2}), encoding="utf-8")
    refusal = f"format 2; this build reads only format {CHECKPOINT_FORMAT}"
    with pytest.raises(RecoveryError, match=refusal) as caught:
        PricingService.recover(directory)
    assert ErrorReply.of(caught.value).code == "recovery"


def test_a_checkpoint_carrying_engine_mode_still_restores(tmp_path):
    # Checkpoints from builds whose query engine took an execution mode
    # carry an "engine_mode" field; a fresh one does not, and recovery
    # ignores it.
    service = _service()
    service.attach_wal(tmp_path)
    run_steps(
        service,
        [
            Configure(optimizations=OPTS, horizon=3),
            [_submit("ann", "idx", 1, (30.0, 30.0))],
            RunQuery(tenant="ann", query="members", table="snap_01", halo=1),
            AdvanceSlots(slots=1),
        ],
    )
    expected = fingerprint(service)
    state = capture_state(service, wal_seq=service._wal.last_seq)
    service.close()
    assert "engine_mode" not in state
    written = write_checkpoint(tmp_path, {**state, "engine_mode": "auto"})
    for path in tmp_path.glob(CHECKPOINT_GLOB):
        if path != written:
            path.unlink()  # recovery must restore the keyed checkpoint
    assert load_checkpoint(written)["engine_mode"] == "auto"
    recovered = PricingService.recover(tmp_path)
    try:
        assert fingerprint(recovered) == expected
    finally:
        recovered.close()


def test_an_api_1_9_directory_is_refused_naming_both_versions(tmp_path):
    # API 1.10 changed batched SubmitBids verdicts and which bids can be
    # revised, so a 1.9 log could replay to another state: its
    # checkpoints and its records are both refused.
    refusal = f"API '1.9'; this gateway speaks {API_VERSION!r}"
    directory = _durable_run(checkpoint_every=2, tmp=tmp_path / "checkpoints")
    for path in directory.glob(CHECKPOINT_GLOB):
        state = {k: v for k, v in load_checkpoint(path).items() if k != "crc"}
        path.write_text(with_checksum({**state, "api": "1.9"}), encoding="utf-8")
    with pytest.raises(RecoveryError, match=refusal) as caught:
        PricingService.recover(directory)
    assert ErrorReply.of(caught.value).code == "recovery"

    directory = _durable_run(tmp=tmp_path / "records")
    wal = directory / WAL_FILENAME
    lines = []
    for line in iter_jsonl(wal):
        record = {k: v for k, v in line.payload.items() if k != "crc"}
        for envelope in record.get("requests", [record.get("request")]):
            envelope["api"] = "1.9"
        lines.append(with_checksum(record))
    wal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(RecoveryError, match=refusal) as caught:
        PricingService.recover(directory)
    assert ErrorReply.of(caught.value).code == "recovery"


# ------------------------------------------------------------ pure reads --


def _open_period(tmp_path) -> PricingService:
    service = _service()
    service.attach_wal(tmp_path)
    run_steps(
        service,
        [
            Configure(optimizations=OPTS, horizon=3),
            [_submit("ann", "idx", 1, (30.0, 30.0))],
        ],
    )
    return service


def test_a_lone_read_appends_nothing_and_pays_no_fsync(tmp_path):
    service = _open_period(tmp_path)
    wal = service._wal
    before = (wal.fsyncs, wal.last_seq)
    service.dispatch(LedgerQuery(tenant="ann"))
    service.dispatch(MetricsRequest())
    service.dispatch([LedgerQuery(tenant="ann"), MetricsRequest()])
    service.dispatch_json({"api": API_VERSION, "kind": "LedgerQuery", "tenant": "ann"})
    assert (wal.fsyncs, wal.last_seq) == before
    service.close()


def test_a_mixed_batch_is_still_one_record_of_all_its_envelopes(tmp_path):
    service = _open_period(tmp_path)
    wal = service._wal
    fsyncs = wal.fsyncs
    service.dispatch(
        [LedgerQuery(tenant="ann"), _submit("bob", "mv", 1, (25.0,)), MetricsRequest()]
    )
    assert wal.fsyncs == fsyncs + 1
    service.close()
    record = read_log(tmp_path).records[-1]
    assert record.batch
    assert [request["kind"] for request in record.requests] == [
        "LedgerQuery",
        "SubmitBids",
        "MetricsRequest",
    ]


def test_recovery_with_reads_interleaved_matches_the_live_fingerprint(tmp_path):
    service = _service()
    service.attach_wal(tmp_path, checkpoint_every=2)
    run_steps(
        service,
        [
            Configure(optimizations=OPTS, horizon=3),
            LedgerQuery(tenant="ann"),
            [_submit("ann", "idx", 1, (30.0, 30.0)), LedgerQuery(tenant="bob")],
            MetricsRequest(),
            _submit("bob", "mv", 1, (25.0,), revisable=True),
            AdvanceSlots(slots=1),
            [LedgerQuery(tenant="ann"), MetricsRequest()],
            LedgerQuery(tenant="bob"),
            AdvanceSlots(slots=2),
            LedgerQuery(tenant="ann"),
        ],
    )
    live = fingerprint(service)
    assert live["report"]["payments"]
    service.close()
    recovered = PricingService.recover(tmp_path)
    assert fingerprint(recovered) == live
    recovered.close()


@pytest.mark.parametrize(
    "start, slots", [(2**63, 1), (2**63 - 1, 2)], ids=["past-int64", "wraps"]
)
def test_a_start_past_the_int64_range_replays_as_its_own_error(
    tmp_path, start, slots
):
    # The refused envelope is durable with the batch that carried it:
    # recovery must replay it as the same error, failing no one else.
    service = _open_period(tmp_path)
    bad = _submit("eve", "idx", start, [1.0] * slots)
    replies = service.dispatch([_submit("bob", "mv", 1, (25.0,)), bad])
    assert [type(r).__name__ for r in replies] == ["BidsReply", "ErrorReply"]
    alone = service.dispatch_json(
        {"api": API_VERSION, "kind": "SubmitBids", "tenant": "eve",
         "bids": [["mv", start, [1.0] * slots]]}
    )
    assert alone["code"] == "game-config"
    live = fingerprint(service)
    service.close()
    recovered = PricingService.recover(tmp_path)
    assert fingerprint(recovered) == live
    assert recovered.dispatch(LedgerQuery(tenant="eve")).total == 0.0
    recovered.close()


def test_run_to_end_is_logged_and_recoverable():
    with tempfile.TemporaryDirectory() as tmp:
        service = _service()
        service.attach_wal(tmp)
        run_steps(
            service,
            [
                Configure(optimizations=OPTS, horizon=3),
                [_submit("ann", "idx", 1, (30.0, 30.0))],
            ],
        )
        report = service.run_to_end()
        assert report.horizon == 3
        service.close()
        recovered = PricingService.recover(tmp)
        assert recovered.fleet.slot == 3
        assert fingerprint(recovered) == fingerprint(service)
        recovered.close()


# ------------------------------------------------------ shared JSONL reader --


def test_binary_junk_in_a_trace_is_an_error_marker_not_a_crash(tmp_path):
    # Before the shared reader, raw non-UTF-8 bytes surfaced as a bare
    # UnicodeDecodeError out of iter_trace.
    path = tmp_path / "trace.jsonl"
    line = {"api": API_VERSION, "kind": "LedgerQuery", "tenant": "ann"}
    path.write_bytes(b"\x80\x81\xfe\n" + json.dumps(line).encode() + b"\n")
    payloads = list(iter_trace(path))
    assert payloads[0]["kind"] == "<unparseable>"
    assert "UTF-8" in payloads[0]["error"]
    assert payloads[1]["kind"] == "LedgerQuery"
    result = replay_path(path)
    assert [r["kind"] for r in result.replies] == ["ErrorReply", "ErrorReply"]
    assert result.replies[0]["code"] == "protocol"


def test_wal_with_binary_junk_line_is_a_recovery_error():
    directory = _durable_run()
    wal = directory / WAL_FILENAME
    lines = wal.read_bytes().splitlines(keepends=True)
    lines.insert(1, b"\x80\x81\xfe\xff\n")
    wal.write_bytes(b"".join(lines))
    with pytest.raises(RecoveryError, match="UTF-8"):
        PricingService.recover(directory)


def test_iter_jsonl_reports_offsets_and_completeness(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"b": 2}\n{"torn": ')
    lines = list(iter_jsonl(path))
    assert [line.payload for line in lines[:2]] == [{"a": 1}, {"b": 2}]
    assert lines[0].complete and lines[1].complete
    torn = lines[2]
    assert torn.error is not None and not torn.complete
    assert torn.end_offset == path.stat().st_size
    assert lines[1].end_offset == len(b'{"a": 1}\n\n{"b": 2}\n')


# ------------------------------------------------- durable-state codecs --


def test_catalog_codec_round_trips_bit_identically():
    service = _service()
    run_steps(
        service,
        [
            Configure(optimizations=OPTS, horizon=3),
            RunQuery(tenant="ann", query="members", table="snap_01", halo=1),
            AdviseRequest(),
        ],
    )
    encoded = codec.encode(service.db)
    json_hop = json.loads(json.dumps(encoded))
    decoded = codec.decode(json_hop)
    assert codec.encode(decoded) == encoded
    assert decoded.epoch == service.db.epoch
    assert decoded.table_names == service.db.table_names
    assert decoded.view_names == service.db.view_names


def test_restored_index_covers_only_the_original_rows():
    from repro.db.costmodel import CostMeter

    service = _service()
    table = service.db.table("snap_01")
    service.db.create_hash_index("snap_01", "halo")
    original_cover = service.db.hash_index("snap_01", "halo")._covered_rows
    table.insert((100, 2))
    table.insert((101, 2))
    decoded = codec.decode(codec.encode(service.db))
    index = decoded.hash_index("snap_01", "halo")
    assert index._covered_rows == original_cover == len(table) - 2
    mine = sorted(index.lookup_rids_many([2], CostMeter()).tolist())
    theirs = sorted(
        service.db.hash_index("snap_01", "halo")
        .lookup_rids_many([2], CostMeter())
        .tolist()
    )
    assert mine == theirs  # neither sees the two post-build rows


def test_workload_log_codec_round_trips_in_order():
    service = _service()
    run_steps(
        service,
        [
            RunQuery(tenant="bob", query="members", table="snap_01", halo=1),
            RunQuery(tenant="ann", query="members", table="snap_01", halo=2),
            RunQuery(tenant="bob", query="members", table="snap_01", halo=3),
        ],
    )
    encoded = codec.encode(service.log)
    decoded = codec.decode(json.loads(json.dumps(encoded)))
    assert codec.encode(decoded) == encoded
    assert [t for t, _, _ in decoded.entries()] == [
        t for t, _, _ in service.log.entries()
    ]


def test_encoding_a_catalog_inside_an_epoch_batch_is_refused():
    from repro.errors import ProtocolError

    service = _service()
    with service.db.epoch_batch():
        with pytest.raises(ProtocolError, match="epoch_batch"):
            codec.encode(service.db)


# ---------------------------------------------------- rotation + wal-gc --


def _rotated_run(tmp, retain=2):
    """A compacting durable run: checkpoint every 2 records, retain few.

    Returns ``(directory, fingerprint_of_the_uncrashed_service)``.
    """
    directory = Path(tmp)
    service = _service()
    service.attach_wal(
        directory, checkpoint_every=2, retain_checkpoints=retain
    )
    run_steps(
        service,
        [
            Configure(optimizations=OPTS, horizon=4),
            _submit("ann", "idx", 1, (30.0, 30.0)),
            _submit("bob", "mv", 1, (25.0,), revisable=True),
            [_submit("cara", "idx", 2, (10.0,)), _submit("dan", "mv", 2, (5.0,))],
            AdvanceSlots(slots=2),
            LedgerQuery(tenant="ann"),
            _submit("ann", "idx", 3, (17.5,)),
            AdvanceSlots(slots=1),
        ],
    )
    expected = fingerprint(service)
    service.close()
    return directory, expected


def test_rotation_bounds_checkpoints_and_recovers_bit_identically(tmp_path):
    directory, expected = _rotated_run(tmp_path, retain=2)
    checkpoints = sorted(directory.glob("checkpoint-*.json"))
    segments = sorted(directory.glob("wal-*.jsonl"))
    assert len(checkpoints) <= 2  # compaction kept the retention bound
    assert segments  # rotation actually sealed segments
    recovered = PricingService.recover(directory)
    assert fingerprint(recovered) == expected
    recovered.close()


def test_recovered_compacted_service_keeps_compacting(tmp_path):
    directory, _ = _rotated_run(tmp_path, retain=1)
    recovered = PricingService.recover(
        directory, checkpoint_every=2, retain_checkpoints=1
    )
    run_steps(
        recovered,
        [_submit("bob", "mv", 4, (25.0,)), AdvanceSlots(slots=1)],
    )
    expected = fingerprint(recovered)
    recovered.close()
    assert len(list(directory.glob("checkpoint-*.json"))) == 1
    again = PricingService.recover(directory)
    assert fingerprint(again) == expected
    again.close()


def test_wal_gc_on_a_monolithic_log_is_idempotent(tmp_path):
    # A directory written WITHOUT rotation compacts on demand.
    directory = _durable_run(tmp=tmp_path)
    service = PricingService.recover(directory)
    expected = fingerprint(service)
    service.checkpoint()
    first = service.wal_gc(retain_checkpoints=1)
    assert len(first.retained_checkpoints) == 1
    assert first.removed  # the pre-gc history went away
    second = service.wal_gc(retain_checkpoints=1)
    assert not second.removed  # nothing left to collect
    service.close()
    recovered = PricingService.recover(directory)
    assert fingerprint(recovered) == expected
    recovered.close()


def test_wal_gc_without_a_wal_is_a_config_error():
    service = _service()
    with pytest.raises(GameConfigError, match="attach_wal"):
        service.wal_gc(retain_checkpoints=1)
    service.close()


def test_attach_wal_rejects_a_non_positive_retention():
    service = _service()
    with pytest.raises(GameConfigError):
        service.attach_wal(tempfile.mkdtemp(), retain_checkpoints=0)
    service.close()


def test_gc_refuses_to_delete_when_the_kept_checkpoint_is_corrupt(tmp_path):
    from repro.gateway.wal.rotate import collect_garbage

    directory, _ = _rotated_run(tmp_path, retain=2)
    keep = sorted(directory.glob("checkpoint-*.json"))[-1]
    keep.write_bytes(keep.read_bytes()[:-7])
    before = sorted(p.name for p in directory.iterdir())
    with pytest.raises(RecoveryError):
        collect_garbage(directory, retain_checkpoints=1)
    # Verify-before-delete: a failed gc removed nothing.
    assert sorted(p.name for p in directory.iterdir()) == before


def test_torn_tail_in_a_sealed_segment_is_a_recovery_error(tmp_path):
    directory, _ = _rotated_run(tmp_path)
    segment = sorted(directory.glob("wal-*.jsonl"))[0]
    segment.write_bytes(segment.read_bytes()[:-9])
    with pytest.raises(RecoveryError) as excinfo:
        PricingService.recover(directory)
    # Only the ACTIVE file may have a torn tail (the crash wrote it);
    # a sealed segment was fsync'd whole, so damage there is corruption.
    assert segment.name in str(excinfo.value)


def test_missing_segment_under_the_checkpoint_floor_is_tolerated(tmp_path):
    # GC legitimately deletes covered segments; recovery must not demand
    # them back as long as a checkpoint covers everything before the
    # remaining files.
    directory, expected = _rotated_run(tmp_path, retain=2)
    recovered = PricingService.recover(directory)
    assert fingerprint(recovered) == expected
    recovered.close()


def test_gap_between_surviving_segments_is_a_recovery_error(tmp_path):
    # GC only ever deletes from the oldest end; a hole in the MIDDLE of
    # the surviving history means someone lost records, not compaction.
    directory, _ = _rotated_run(tmp_path, retain=10)  # keep everything
    segments = sorted(directory.glob("wal-*.jsonl"))
    assert len(segments) >= 3
    segments[1].unlink()
    with pytest.raises(RecoveryError):
        PricingService.recover(directory)


def test_overlapping_segment_names_are_a_recovery_error(tmp_path):
    from repro.gateway.wal.rotate import list_segments

    directory, _ = _rotated_run(tmp_path)
    segment = sorted(directory.glob("wal-*.jsonl"))[0]
    first, last = segment.name[len("wal-"):-len(".jsonl")].split("-")
    clone = directory / f"wal-{first}-{int(last) + 1:012d}.jsonl"
    clone.write_bytes(segment.read_bytes())
    with pytest.raises(RecoveryError, match="overlap"):
        list_segments(directory)


def test_read_log_stitches_segments_and_active_file(tmp_path):
    directory, _ = _rotated_run(tmp_path, retain=2)
    log = read_log(directory)
    seqs = [record.seq for record in log.records]
    assert seqs == list(range(log.first_seq, log.last_seq + 1))
    assert log.segments  # some came from sealed segments
    assert log.first_seq > 1  # gc really dropped the oldest history
