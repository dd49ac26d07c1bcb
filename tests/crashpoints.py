"""Deterministic crash injection for the durable gateway.

The service exposes one seam — ``service.wal_probe`` — fired at every
WAL/apply/checkpoint boundary:

========================= ==============================================
``"wal:append"``          just before a record's bytes are written
``"wal:appended"``        just after the record is fsync'd (durable)
``"apply:done"``          after a dispatch's effects applied
``"checkpoint:begin"``    before state capture starts
``"checkpoint:written"``  checkpoint temp file fsync'd, not yet renamed
``"checkpoint:done"``     checkpoint atomically in place
========================= ==============================================

:class:`CrashPoint` counts probe firings and raises
:class:`SimulatedCrash` at a chosen index, so "kill the service at every
boundary" is just iterating that index over the workload's probe count.
``SimulatedCrash`` derives from :class:`BaseException` on purpose: the
gateway's total-dispatch contract catches :class:`ReproError`, and a
crash must tear straight through it like ``KeyboardInterrupt`` would.

This module is a helper library for ``tests/test_wal_recovery.py``, not
a test module itself.
"""

from __future__ import annotations

from repro.gateway.envelopes import LedgerQuery, MetricsRequest, to_dict
from repro.gateway.wal.recovery import read_log

__all__ = [
    "SimulatedCrash",
    "CrashPoint",
    "run_steps",
    "run_until_crash",
    "durable_requests",
    "continuation",
]


class SimulatedCrash(BaseException):
    """The process dies here. Not a ReproError: nothing may catch it."""


class CrashPoint:
    """A probe callable that kills the service at firing number ``at``.

    ``at=None`` never fires (clean run); ``fired`` records every stage
    seen, so a workload's total probe count — and therefore the grid of
    injectable crash points — is ``len(CrashPoint(None).fired)`` after a
    clean run of the same workload.
    """

    def __init__(self, at: int | None) -> None:
        self.at = at
        self.fired: list[str] = []
        self.crashed_stage: str | None = None

    def __call__(self, stage: str) -> None:
        index = len(self.fired)
        self.fired.append(stage)
        if self.at is not None and index == self.at:
            self.crashed_stage = stage
            raise SimulatedCrash(f"injected crash at probe {index} ({stage})")


def run_steps(service, steps) -> list:
    """Drive one workload; returns wire-form reply dicts in step order.

    A list step goes through a batched ``dispatch`` (the bulk path); any other
    step through ``dispatch``. Replies are materialized to dictionaries
    immediately so lazy acks cannot observe later state.
    """
    replies: list = []
    for step in steps:
        if isinstance(step, list):
            replies.extend(
                to_dict(reply) for reply in service.dispatch(list(step))
            )
        else:
            replies.append(to_dict(service.dispatch(step)))
    return replies


def run_until_crash(service, steps) -> tuple[list, bool]:
    """Like :func:`run_steps` but absorbs the injected crash.

    Returns ``(replies_so_far, crashed)``. After a crash the service
    object must be treated as dead — exactly like a real process kill.
    """
    try:
        return run_steps(service, steps), False
    except SimulatedCrash:
        return [], True


def durable_requests(wal_dir) -> int:
    """How many request envelopes the WAL holds durably (batch-aware).

    Reads the whole directory (rotated segments plus the active file) so
    it stays honest for services running with ``retain_checkpoints``.
    """
    log = read_log(wal_dir)
    return sum(len(record.requests) for record in log.records)


def _logged_width(step) -> int:
    """Envelopes the WAL holds for one step: pure reads (ledger and
    metrics queries) are not logged, alone or in a batch of nothing
    else."""
    batch = step if isinstance(step, list) else [step]
    if all(isinstance(r, (LedgerQuery, MetricsRequest)) for r in batch):
        return 0
    return len(batch)


def continuation(steps, done: int) -> list:
    """The workload tail after ``done`` durable request envelopes.

    Walks ``steps`` counting flattened logged envelopes; the tail starts
    at the first step not wholly durable, or at an unlogged read that
    directly follows the last durable envelope (reads change nothing, so
    re-running one on the recovered service is safe, and its reply is
    compared like any other). A list step that was only partially
    durable resumes mid-list (that can only happen when the crash hit
    before the run's atomic WAL record, i.e. ``done`` lands on the
    step's start — but slicing handles either way).
    """
    seen = 0
    for index, step in enumerate(steps):
        width = _logged_width(step)
        if seen + width > done or (width == 0 and seen == done):
            tail = list(steps[index + 1 :])
            if isinstance(step, list):
                remainder = step[done - seen :]
                if remainder:
                    tail.insert(0, remainder)
            elif done == seen:
                tail.insert(0, step)
            return tail
        seen += width
    return []

