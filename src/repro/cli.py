"""Command-line interface: regenerate any paper figure as a text table.

Usage (after ``pip install -e .``)::

    python -m repro list
    python -m repro fig2a --trials 200
    python -m repro fig1 --values paper --samples 100
    python -m repro all --trials 50 --out results/
    python -m repro fleet --games 100 --users 25000 --slots 1000

Each figure command prints the same series table the benchmark harness
writes to ``benchmarks/results/`` and optionally saves it with ``--out``.
The ``fleet`` command is not a paper figure: it races the fleet engine
against engine-free per-game AddOn loops on one synthetic workload
(asserting identical outcomes) and prints both timings; ``--gateway``
races the gateway facade against the direct engine instead. The
``replay`` command drives a :class:`~repro.gateway.PricingService` from
a JSONL request trace, and ``serve`` (which in earlier releases was
merely an alias of ``replay``) now starts the real network server::

    python -m repro replay trace.jsonl --replies replies.jsonl
    python -m repro serve --port 8321 --wal-dir wal/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

__all__ = ["main", "FIGURES"]


def _fig1(args) -> object:
    from repro.experiments import Fig1Config, run_fig1_astronomy

    return run_fig1_astronomy(
        Fig1Config(
            values=args.values,
            samples=args.samples,
            seed=args.seed,
            universe_scale=args.universe_scale,
        )
    )


def _fig2a(args):
    from repro.experiments import Fig2AdditiveConfig, run_fig2_additive

    return run_fig2_additive(
        Fig2AdditiveConfig.small(trials=args.trials, seed=args.seed)
    )


def _fig2b(args):
    from repro.experiments import Fig2AdditiveConfig, run_fig2_additive

    return run_fig2_additive(
        Fig2AdditiveConfig.large(trials=args.trials, seed=args.seed)
    )


def _fig2c(args):
    from repro.experiments import Fig2SubstitutiveConfig, run_fig2_substitutive

    return run_fig2_substitutive(
        Fig2SubstitutiveConfig.small(trials=args.trials, seed=args.seed)
    )


def _fig2d(args):
    from repro.experiments import Fig2SubstitutiveConfig, run_fig2_substitutive

    return run_fig2_substitutive(
        Fig2SubstitutiveConfig.large(trials=max(args.trials // 2, 1), seed=args.seed)
    )


def _fig3a(args):
    from repro.experiments import Fig3aConfig, run_fig3a_slot_count

    return run_fig3a_slot_count(Fig3aConfig(trials=args.trials, seed=args.seed))


def _fig3b(args):
    from repro.experiments import Fig3bConfig, run_fig3b_duration

    return run_fig3b_duration(Fig3bConfig(trials=args.trials, seed=args.seed))


def _fig4(args):
    from repro.experiments import Fig4Config, run_fig4_skew

    return run_fig4_skew(Fig4Config(trials=args.trials, seed=args.seed))


def _fig5a(args):
    from repro.experiments import Fig5Config, run_fig5_selectivity

    return run_fig5_selectivity(
        Fig5Config.low_selectivity(trials=args.trials, seed=args.seed)
    )


def _fig5b(args):
    from repro.experiments import Fig5Config, run_fig5_selectivity

    return run_fig5_selectivity(
        Fig5Config.high_selectivity(trials=args.trials, seed=args.seed)
    )


#: Figure id -> (runner, paper section, one-line description).
FIGURES = {
    "fig1": (_fig1, "7.2", "astronomy use-case: utilities vs executions"),
    "fig2a": (_fig2a, "7.3.1", "additive, 6 users: utility vs cost"),
    "fig2b": (_fig2b, "7.3.1", "additive, 24 users: utility vs cost"),
    "fig2c": (_fig2c, "7.3.2", "substitutive, 6 users: utility vs cost"),
    "fig2d": (_fig2d, "7.3.2", "substitutive, 24 users: utility vs cost"),
    "fig3a": (_fig3a, "7.4", "utility gap vs number of slots"),
    "fig3b": (_fig3b, "7.4", "utility gap vs bid duration"),
    "fig4": (_fig4, "7.5", "arrival skew: utility ratios vs cost"),
    "fig5a": (_fig5a, "7.6", "substitute selectivity 3-of-4"),
    "fig5b": (_fig5b, "7.6", "substitute selectivity 3-of-12"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'How to Price Shared "
        "Optimizations in the Cloud' (VLDB 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available figures")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trials", type=int, default=200, help="trials per point")
    common.add_argument("--seed", type=int, default=2012, help="master RNG seed")
    common.add_argument("--rows", type=int, default=25, help="max table rows")
    common.add_argument("--summary", action="store_true", help="print min/mean/max only")
    common.add_argument("--out", type=Path, default=None, help="directory to save tables")

    for name, (_, section, description) in FIGURES.items():
        p = sub.add_parser(
            name, parents=[common], help=f"S{section}: {description}"
        )
        if name == "fig1":
            p.add_argument(
                "--values", choices=("paper", "engine"), default="paper",
                help="value table: paper's published numbers or engine-measured",
            )
            p.add_argument(
                "--samples", type=int, default=150,
                help="bid-interval combinations sampled (of the 10^6)",
            )
            p.add_argument(
                "--universe-scale", type=int, default=1, dest="universe_scale",
                help="multiply the simulated universe's particle count "
                "(engine values only; the columnar path keeps 10x tractable)",
            )
    sub.add_parser("all", parents=[common], help="run every figure")

    fleet = sub.add_parser(
        "fleet",
        help="race the fleet engine against engine-free per-game loops",
    )
    fleet.add_argument("--games", type=int, default=100, help="concurrent games")
    fleet.add_argument("--users", type=int, default=25_000, help="total users")
    fleet.add_argument("--slots", type=int, default=1000, help="period horizon")
    fleet.add_argument(
        "--duration", type=int, default=4, help="max bid duration in slots"
    )
    fleet.add_argument(
        "--mean-cost", type=float, default=30.0, help="mean per-game cost"
    )
    fleet.add_argument(
        "--repeats", type=int, default=2, help="timing repeats (best-of)"
    )
    fleet.add_argument("--seed", type=int, default=2012, help="master RNG seed")
    fleet.add_argument(
        "--gateway", action="store_true",
        help="race the gateway facade against the direct engine instead of "
        "the engine against per-game loops",
    )

    advise = sub.add_parser(
        "advise",
        help="run the closed optimization loop on the astronomy workload",
    )
    advise.add_argument(
        "--particles", type=int, default=4000, help="particles per snapshot"
    )
    advise.add_argument(
        "--snapshots", type=int, default=4, help="simulated snapshots"
    )
    advise.add_argument(
        "--slots", type=int, default=12, help="pricing-game horizon in slots"
    )
    advise.add_argument(
        "--storage-rate", type=float, default=1e-6, dest="storage_rate",
        help="dollars per stored byte per period (candidate cost C_j)",
    )
    advise.add_argument("--seed", type=int, default=2012, help="master RNG seed")

    replay = sub.add_parser(
        "replay",
        help="drive the pricing gateway from a JSONL request trace "
        "(note: 'serve' was once an alias of this command; it now "
        "starts the network server instead)",
    )
    replay.add_argument(
        "trace", type=Path, help="request trace, one envelope per line"
    )
    replay.add_argument(
        "--replies", type=Path, default=None,
        help="write one reply envelope per request line to this JSONL file",
    )
    replay.add_argument(
        "--particles", type=int, default=0,
        help="simulate an astronomy universe of this many particles into "
        "the service's relational catalog before replaying (0 = none)",
    )
    replay.add_argument(
        "--snapshots", type=int, default=4,
        help="snapshots of the simulated universe (with --particles)",
    )
    replay.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any request came back as an ErrorReply",
    )
    replay.add_argument("--seed", type=int, default=2012, help="universe RNG seed")
    replay.add_argument(
        "--wal-dir", type=Path, default=None, dest="wal_dir",
        help="make the service durable: write-ahead log every request to "
        "this directory (must not already hold a WAL)",
    )
    replay.add_argument(
        "--checkpoint-every", type=int, default=None, dest="checkpoint_every",
        help="checkpoint automatically after this many WAL records "
        "(with --wal-dir)",
    )
    replay.add_argument(
        "--retain-checkpoints", type=int, default=None,
        dest="retain_checkpoints",
        help="rotate the WAL at every checkpoint and keep only this many "
        "checkpoints, deleting fully-covered segments (with --wal-dir)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the pricing gateway over HTTP (asyncio server with "
        "admission control, deadlines, group commit, graceful drain)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="bind port (0 picks an ephemeral one)",
    )
    serve.add_argument(
        "--particles", type=int, default=0,
        help="simulate an astronomy universe of this many particles into "
        "the catalog before serving (0 = none; ignored when recovering)",
    )
    serve.add_argument(
        "--snapshots", type=int, default=4,
        help="snapshots of the simulated universe (with --particles)",
    )
    serve.add_argument("--seed", type=int, default=2012, help="universe RNG seed")
    serve.add_argument(
        "--wal-dir", type=Path, default=None, dest="wal_dir",
        help="durable serving: recover this WAL directory if it holds "
        "one, attach a fresh WAL otherwise",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=None, dest="checkpoint_every",
        help="checkpoint automatically after this many WAL records "
        "(with --wal-dir)",
    )
    serve.add_argument(
        "--retain-checkpoints", type=int, default=None,
        dest="retain_checkpoints",
        help="rotate the WAL at every checkpoint and keep only this many "
        "checkpoints (with --wal-dir)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64, dest="max_pending",
        help="admission bound: total queued or in-flight envelopes",
    )
    serve.add_argument(
        "--tenant-pending", type=int, default=16, dest="tenant_pending",
        help="per-tenant fair-share admission bound",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=5.0, dest="read_timeout",
        help="seconds to receive a full request (slow-loris guard)",
    )

    recover = sub.add_parser(
        "recover",
        help="rebuild a durable pricing service from its WAL directory",
    )
    recover.add_argument(
        "wal_dir", type=Path, help="directory holding wal.jsonl + checkpoints"
    )
    recover.add_argument(
        "--checkpoint", action="store_true",
        help="write a fresh checkpoint covering the whole WAL after recovery",
    )

    checkpoint = sub.add_parser(
        "checkpoint",
        help="recover a WAL directory and checkpoint it (compacts replay)",
    )
    checkpoint.add_argument(
        "wal_dir", type=Path, help="directory holding wal.jsonl + checkpoints"
    )

    stats = sub.add_parser(
        "stats",
        help="read a running gateway's metrics (Prometheus text, or the "
        "MetricsReply wire form with --json)",
    )
    stats.add_argument("--host", default="127.0.0.1", help="gateway host")
    stats.add_argument(
        "--port", type=int, default=8321, help="gateway port (default 8321)"
    )
    stats.add_argument(
        "--json", action="store_true",
        help="fetch through the MetricsRequest envelope and print the "
        "reply's wire dict instead of the Prometheus text",
    )

    wal_gc = sub.add_parser(
        "wal-gc",
        help="compact a WAL directory: checkpoint, rotate, and delete "
        "history covered by aged-out checkpoints",
    )
    wal_gc.add_argument(
        "wal_dir", type=Path, help="directory holding wal.jsonl + checkpoints"
    )
    wal_gc.add_argument(
        "--retain", type=int, default=2,
        help="checkpoints to keep (older ones and the segments they "
        "cover are deleted)",
    )
    return parser


def _run_fleet(args) -> int:
    from repro.experiments import measure_fleet_point, measure_gateway_point

    if args.gateway:
        print(
            f"== gateway: {args.games} games, {args.users} users, "
            f"{args.slots} slots (bit-identical outcomes asserted) =="
        )
        direct_s, gateway_s = measure_gateway_point(
            games=args.games,
            users=args.users,
            slots=args.slots,
            max_duration=args.duration,
            mean_cost=args.mean_cost,
            repeats=args.repeats,
            seed=args.seed,
        )
        print(f"direct fleet engine   {direct_s:>8.3f} CPU seconds")
        print(f"gateway dispatch      {gateway_s:>8.3f} CPU seconds")
        print(f"dispatch overhead     {(gateway_s / direct_s - 1.0):>8.1%}")
        return 0
    print(
        f"== fleet: {args.games} games, {args.users} users, "
        f"{args.slots} slots (identical outcomes asserted) =="
    )
    point = measure_fleet_point(
        games=args.games,
        users=args.users,
        slots=args.slots,
        max_duration=args.duration,
        mean_cost=args.mean_cost,
        repeats=args.repeats,
        seed=args.seed,
    )
    print(f"per-game loops        {point.loops_s:>8.3f} s")
    print(f"fleet engine          {point.fleet_s:>8.3f} s")
    print(f"speedup               {point.speedup:>8.2f} x")
    return 0


def _run_advise(args) -> int:
    from repro.experiments import AdvisorLoopConfig, run_advisor_loop

    loop = run_advisor_loop(
        AdvisorLoopConfig(
            particles=args.particles,
            snapshots=args.snapshots,
            horizon=args.slots,
            dollars_per_byte=args.storage_rate,
            seed=args.seed,
        )
    )
    outcome = loop.outcome
    print(
        f"== advise: {args.particles} particles x {args.snapshots} snapshots, "
        f"{len(outcome.candidates)} candidates mined =="
    )
    for candidate in outcome.candidates.candidates:
        quote = outcome.quotes[candidate.name]
        state = "funded" if candidate.name in outcome.funded else "unfunded"
        print(
            f"{candidate.name:<24} {quote.kind:<7} "
            f"{quote.saving_units_per_run:>12.0f} units/run  {state}"
        )
    print(f"adopted: {', '.join(outcome.adopted) if outcome.adopted else '(none)'}")
    print(
        f"metered workload cost: {loop.baseline_units:,.0f} -> "
        f"{loop.advised_units:,.0f} units ({loop.cost_ratio:.1f}x cheaper)"
    )
    return 0


def _load_universe(service, particles: int, snapshots: int, seed: int) -> None:
    """Pre-load a simulated astronomy universe so RunQuery envelopes have
    tables to hit; the table names are snap_01 .. snap_NN."""
    from repro.astro.simulator import UniverseConfig, UniverseSimulator

    for snapshot in UniverseSimulator(
        UniverseConfig(particles=particles, snapshots=snapshots), rng=seed
    ).run():
        service.db.create_table(snapshot.to_table())
    print(
        f"[universe: {particles} particles x "
        f"{snapshots} snapshots -> {service.db.table_names}]"
    )


def _run_replay(args) -> int:
    import json

    from repro.gateway.service import PricingService
    from repro.gateway.trace import iter_trace, replay

    service = PricingService()
    try:
        if args.particles > 0:
            _load_universe(service, args.particles, args.snapshots, args.seed)
        if args.wal_dir is not None:
            # Attach after the universe load so the base checkpoint covers
            # the preloaded tables; every replayed envelope is then durable.
            service.attach_wal(
                args.wal_dir,
                checkpoint_every=args.checkpoint_every,
                retain_checkpoints=args.retain_checkpoints,
            )
            print(f"[write-ahead log at {args.wal_dir}]")
        result = replay(iter_trace(args.trace), service=service)
        counts = result.counts()
        total = len(result.replies)
        print(f"== replay: {args.trace} -> {total} replies ==")
        for kind in sorted(counts):
            print(f"{kind:<16} {counts[kind]:>6}")
        for reply in result.errors:
            print(
                f"error [{reply.get('code')}] {reply.get('request_kind') or '?'}: "
                f"{reply.get('message')}"
            )
        if result.service.fleet is not None:
            report = result.service.report()
            print(
                f"period: slot {result.service.slot}/{result.service.fleet.horizon}, "
                f"{len(report.implemented)} implemented, "
                f"cloud balance {report.cloud_balance:.2f}"
            )
        if args.replies is not None:
            args.replies.parent.mkdir(parents=True, exist_ok=True)
            with open(args.replies, "w", encoding="utf-8") as handle:
                for reply in result.replies:
                    handle.write(json.dumps(reply) + "\n")
            print(f"[replies written to {args.replies}]")
        if args.strict and result.errors:
            print(f"{len(result.errors)} request(s) failed (--strict)")
            return 1
        return 0
    finally:
        service.close()


def _run_serve(args) -> int:
    import asyncio

    from repro.gateway.server import ServerConfig, serve
    from repro.gateway.service import PricingService
    from repro.gateway.wal.records import WAL_FILENAME

    recovering = (
        args.wal_dir is not None and (args.wal_dir / WAL_FILENAME).exists()
    )
    if recovering:
        service = PricingService.recover(
            args.wal_dir,
            checkpoint_every=args.checkpoint_every,
            retain_checkpoints=args.retain_checkpoints,
        )
        print(f"[recovered durable service from {args.wal_dir}]")
        if args.particles > 0:
            print("[--particles ignored: recovered state wins]")
    else:
        service = PricingService()
        if args.particles > 0:
            _load_universe(service, args.particles, args.snapshots, args.seed)
        if args.wal_dir is not None:
            service.attach_wal(
                args.wal_dir,
                checkpoint_every=args.checkpoint_every,
                retain_checkpoints=args.retain_checkpoints,
            )
            print(f"[write-ahead log at {args.wal_dir}]")
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        tenant_pending=args.tenant_pending,
        read_timeout=args.read_timeout,
    )

    def ready(address) -> None:
        print(
            f"[serving on http://{address[0]}:{address[1]} "
            "- SIGTERM or Ctrl-C to drain]"
        )

    server = asyncio.run(serve(service, config, ready=ready))
    print(
        f"[drained: {server.dispatched} dispatched, {server.shed} shed, "
        f"{server.batches} group commits]"
    )
    service.close()
    return 0


def _run_recover(args, write_checkpoint: bool) -> int:
    from repro.errors import RecoveryError
    from repro.gateway.service import PricingService
    from repro.gateway.wal.recovery import read_log

    try:
        service = PricingService.recover(args.wal_dir)
        log = read_log(args.wal_dir)
        print(f"== recover: {args.wal_dir} ==")
        print(f"wal records      {len(log.records):>6}")
        if log.segments:
            print(f"wal segments     {len(log.segments):>6}")
        print(f"db epoch         {service.db.epoch:>6}")
        print(f"tables           {len(service.db.table_names):>6}")
        if service.fleet is not None:
            print(
                f"period: slot {service.fleet.slot}/{service.fleet.horizon}, "
                f"cloud balance {service.fleet.ledger.balance:.2f}"
            )
        else:
            print("period: none open")
        if write_checkpoint:
            path = service.checkpoint()
            print(f"[checkpoint written to {path}]")
        service.close()
    except RecoveryError as exc:
        print(f"recovery failed: {exc}")
        return 1
    return 0


def _run_wal_gc(args) -> int:
    from repro.errors import RecoveryError
    from repro.gateway.service import PricingService

    try:
        service = PricingService.recover(args.wal_dir)
        # A fresh checkpoint covering the whole log first, so compaction
        # can age out everything older.
        service.checkpoint()
        report = service.wal_gc(args.retain)
        service.close()
    except RecoveryError as exc:
        print(f"wal-gc failed: {exc}")
        return 1
    print(f"== wal-gc: {args.wal_dir} (retain {args.retain}) ==")
    print(f"checkpoints kept    {len(report.retained_checkpoints):>6}")
    print(f"checkpoints removed {len(report.removed_checkpoints):>6}")
    print(f"segments removed    {len(report.removed_segments):>6}")
    for path in report.removed_checkpoints + report.removed_segments:
        print(f"  deleted {path.name}")
    return 0


def _run_stats(args) -> int:
    import json

    from repro.gateway.client import GatewayClient, GatewayUnavailable
    from repro.gateway.envelopes import MetricsRequest, to_dict

    try:
        with GatewayClient(args.host, args.port, max_attempts=2) as client:
            if args.json:
                reply = client.request(MetricsRequest())
                print(json.dumps(to_dict(reply), sort_keys=True))
            else:
                print(client.metrics_text(), end="")
    except (OSError, GatewayUnavailable) as exc:
        print(f"stats failed: no gateway at {args.host}:{args.port} ({exc})")
        return 1
    return 0


def _emit(result, args) -> None:
    from repro.experiments import format_result, format_summary

    text = format_summary(result) if args.summary else format_result(result, max_rows=args.rows)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{result.experiment}.txt"
        path.write_text(text + "\n")
        print(f"[written to {path}]")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (_, section, description) in FIGURES.items():
            print(f"{name:<7} Section {section:<6} {description}")
        print("fleet   (engine)       fleet engine vs per-game loops")
        print("advise  (advisor)      closed optimization loop on astronomy")
        print("replay  (gateway)      drive the pricing gateway from a JSONL trace")
        print("serve   (gateway)      serve the pricing gateway over HTTP")
        print("recover (durability)   rebuild a durable service from its WAL")
        print("checkpoint (durability) recover a WAL directory and checkpoint it")
        print("wal-gc  (durability)   compact a WAL directory (rotate + delete)")
        print("stats   (observability) read a running gateway's metrics")
        return 0
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "advise":
        return _run_advise(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "recover":
        return _run_recover(args, write_checkpoint=args.checkpoint)
    if args.command == "checkpoint":
        return _run_recover(args, write_checkpoint=True)
    if args.command == "wal-gc":
        return _run_wal_gc(args)
    if args.command == "stats":
        return _run_stats(args)

    names = list(FIGURES) if args.command == "all" else [args.command]
    if args.command == "all":
        # `all` has no fig1-specific flags; use the fig1 defaults.
        args.values = "paper"
        args.samples = 150
        args.universe_scale = 1
    for name in names:
        runner, section, description = FIGURES[name]
        print(f"== {name} (Section {section}): {description} ==")
        started = time.time()
        result = runner(args)
        print(f"[{time.time() - started:.1f}s]")
        _emit(result, args)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
