"""The program's side of the benchmark: processes that run ``repro`` code.

    program.py serve --trace FILE -- <repro serve arguments>
        ``repro serve`` with the layer wrappers of ``tracer.py`` installed;
        SIGUSR1 writes the spans to FILE. (Untraced runs start
        ``python -m repro serve`` directly.)
    program.py check --wal-dir D --expect FILE [--trace FILE]
        Recover a killed server's WAL directory, check what the served
        requests promised, run the period to its end and check the
        paper's guarantees on the finished report.

Each command prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.cloudsim.events import BidPlaced, BidRevised  # noqa: E402
from repro.gateway.service import PricingService  # noqa: E402

import tracer as tracing  # noqa: E402

TOLERANCE = 1e-9


def guarantees(report, costs: dict, declared: dict) -> list:
    """The paper's guarantees on a finished report: every implemented
    game recovers its cost, and no user is charged more than their
    declared value."""
    errors = []
    for game in report.implemented:
        revenue = report.revenue_of(game)
        if revenue < costs[game] * (1 - TOLERANCE):
            errors.append(
                f"cost recovery fails for {game!r}: revenue {revenue} < "
                f"cost {costs[game]}"
            )
    for user, paid in report.payments.items():
        value = declared.get(user, 0.0)
        if paid > value * (1 + TOLERANCE) + TOLERANCE:
            errors.append(
                f"individual rationality fails for {user!r}: pays {paid} "
                f"> declared {value}"
            )
    return errors[:5]


def _costs(service) -> dict:
    catalog = service.fleet.catalog
    return {game: catalog.get(game).cost for game in catalog}


def _emit(result: dict) -> int:
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ serve --


def cmd_serve(args) -> int:
    from repro.cli import main

    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(args.trace))
    return main(["serve", *args.rest])


# ------------------------------------------------------------------ check --


def cmd_check(args) -> int:
    from repro.gateway.wal.recovery import read_log

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(args.expect, encoding="utf-8") as handle:
        expect = json.load(handle)
    errors = []
    start = time.monotonic()
    service = PricingService.recover(args.wal_dir)
    recover_s = time.monotonic() - start
    stats = tracer.totals() if tracer else None
    records = len(read_log(args.wal_dir).records)
    fleet = service.fleet
    recovered_slot = fleet.slot

    placed = set()
    revised: dict = {}
    for event in fleet.events.all():
        if isinstance(event, BidPlaced):
            placed.add((event.user, event.detail))
        elif isinstance(event, BidRevised):
            key = (event.user, event.detail)
            revised[key] = revised.get(key, 0) + 1
    missing = [
        (tenant, detail) for tenant, detail in expect["placed"]
        if (tenant, detail) not in placed
    ]
    if missing:
        errors.append(f"{len(missing)} acknowledged bids not recovered, "
                      f"e.g. {missing[:3]}")
    short = [
        key for key, count in expect["revised"]
        if revised.get(tuple(key), 0) < count
    ]
    if short:
        errors.append(f"{len(short)} acknowledged revisions not recovered, "
                      f"e.g. {short[:3]}")
    low, high = expect["slot_range"]
    if not low <= recovered_slot <= high:
        errors.append(
            f"recovered slot {recovered_slot} outside [{low}, {high}] "
            "(last acknowledged tick, last tick sent)"
        )
    events = len(fleet.events)
    ledger_entries = len(fleet.ledger.entries)

    report = service.run_to_end()
    errors.extend(guarantees(report, _costs(service), expect["declared"]))
    service.close()
    result = {
        "recover_s": recover_s,
        "records": records,
        "slot": recovered_slot,
        "events": events,
        "ledger_entries": ledger_entries,
        "errors": errors,
    }
    if tracer:
        result["read_log_s"] = stats["recovery.read_log"][1]
        result["load_s"] = (
            stats["recovery.load_checkpoint"][1]
            + stats["recovery.restore_service"][1]
        )
    return _emit(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="program.py")
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("--trace", required=True)
    serve.add_argument("rest", nargs=argparse.REMAINDER)
    check = sub.add_parser("check")
    check.add_argument("--wal-dir", required=True)
    check.add_argument("--expect", required=True)
    check.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.command == "serve":
        if args.rest and args.rest[0] == "--":
            args.rest = args.rest[1:]
        return cmd_serve(args)
    return cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
