"""The pricing stack's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload bids_http --seed 1 --seconds 20 --trace 0

Workloads (sizes and rates in ``workloads.py``, reasons in README.md):

- ``bids_http``: offline intake over HTTP against ``repro serve --wal-dir``.
- ``mixed_http``: an online period over HTTP against ``repro serve
  --wal-dir --particles N``: writes, reads and ticks, then SIGKILL and
  recovery.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the
same workload untraced and then traced, each for half of ``--seconds``
(layer wrappers installed in the program's process by ``program.py``),
and reports the per-layer metrics.
Every run checks the outputs; any failed check prints ``"correct":
false`` and exits 1. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench-run"

WORKLOADS = ("bids_http", "mixed_http")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("write_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric; a layer a workload leaves
#: idle reports 0.
PER_LAYER = (
    ("throughput.capacity_rps", "req/s"),
    ("latency.write_p90_ms", "ms"),
    ("latency.write_p99_ms", "ms"),
    ("latency.read_p50_ms", "ms"),
    ("latency.read_p90_ms", "ms"),
    ("latency.read_p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("client.retries", "count"),
    ("server.batches", "count"),
    ("server.envelopes_per_batch", "count"),
    ("server.shed", "count"),
    ("server.pre_dispatch_ms_p50", "ms"),
    ("server.pre_dispatch_ms_p99", "ms"),
    ("server.post_dispatch_ms_p50", "ms"),
    ("codec.decode_us_per_req", "us"),
    ("codec.encode_us_per_req", "us"),
    ("service.dispatch_calls", "count"),
    ("service.dispatch_ms_p50", "ms"),
    ("service.busy_frac", "ratio"),
    ("service.self_s", "s"),
    ("wal.fsyncs_per_req", "ratio"),
    ("wal.bytes_per_req", "B"),
    ("wal.fsync_ms_mean", "ms"),
    ("wal.append_ms_p50", "ms"),
    ("wal.encode_us_per_record", "us"),
    ("recovery.records", "count"),
    ("recovery.recover_s", "s"),
    ("recovery.load_s", "s"),
    ("recovery.replay_s", "s"),
    ("fleet.intake_s", "s"),
    ("fleet.advance_s", "s"),
    ("fleet.bookkeeping_s", "s"),
    ("fleet.tick_ms_p50", "ms"),
    ("fleet.tick_ms_max", "ms"),
    ("fleet.place_us_per_bid", "us"),
    ("fleet.revise_us", "us"),
    ("fleet.events", "count"),
    ("fleet.ledger_entries", "count"),
    ("core.solve_calls", "count"),
    ("core.solve_s", "s"),
    ("core.exit_price_s", "s"),
    ("db.query_ms_p50", "ms"),
    ("db.query_ms_p99", "ms"),
    ("db.snapshot_pins", "count"),
    ("db.units_per_query", "units"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
)


class CheckFailed(Exception):
    """An output of the program was wrong."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the self-check only",
    )
    return parser.parse_args(argv)


class Run:
    """One invocation: its arguments, scratch directory and children."""

    def __init__(self, args, size):
        self.args = args
        self.size = size
        # A traced run measures twice (untraced, then traced): each pass
        # gets half the time, so both kinds of run take about as long.
        self.seconds = args.seconds / (2 if args.trace else 1)
        self.dir = STATE / f"run-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        # A fixed hash seed keeps string-keyed dict layouts, and so the
        # program's timings, the same from run to run.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1",
                        PYTHONHASHSEED="0")
        self.children: list = []
        self.errors: list = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, cmd, **kwargs):
        proc = subprocess.Popen(
            [sys.executable, *cmd], cwd=ROOT, env=self.env, text=True, **kwargs
        )
        self.children.append(proc)
        return proc

    def child_json(self, cmd, timeout=170.0) -> dict:
        """Run a ``program.py`` command to completion; its last line."""
        proc = self.spawn(cmd, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=timeout)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise CheckFailed(
                f"{' '.join(map(str, cmd[:2]))} exited {proc.returncode}; see "
                "its standard error above"
            )
        return json.loads(lines[-1])

    def close(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _pct(samples, q):
    from loadgen import nearest_rank

    return nearest_rank(samples, q) if samples else 0.0


def _latency_note(prefix: str, samples: list) -> str:
    from loadgen import beyond

    if not samples:
        raise CheckFailed(f"no {prefix} samples were measured")
    tail = beyond(len(samples), 0.99)
    return (
        f"{prefix}: n={len(samples)}, {tail} samples beyond p99"
        + ("" if tail >= 10 else " (too few for a supported p99)")
        + "; p50/p90/p95/p99/max ms "
        + "/".join(f"{_ms(_pct(samples, q)):.3f}"
                   for q in (0.5, 0.9, 0.95, 0.99, 1.0))
    )


# ------------------------------------------------------------- HTTP runs --


class Server:
    """One ``repro serve`` process: its address, WAL directory and trace."""

    def __init__(self, run: Run, index: str, serve_args, trace_file=None):
        self.wal_dir = run.dir / f"wal-{index}"
        self.trace_file = trace_file
        args = ["--port", "0", "--wal-dir", str(self.wal_dir), *serve_args]
        if trace_file is None:
            cmd = ["-m", "repro", "serve", *args]
        else:
            cmd = [str(HERE / "program.py"), "serve", "--trace",
                   str(trace_file), "--", *args]
        self.launched = time.monotonic()
        self.proc = run.spawn(cmd, stdout=subprocess.PIPE)
        for line in self.proc.stdout:
            if line.startswith("[serving on http://"):
                host, port = line.split("//", 1)[1].split(" ", 1)[0].split(":")
                self.host, self.port = host, int(port)
                break
        else:
            raise CheckFailed(f"the server exited with {self.proc.wait()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("the server's VmHWM is unreadable")

    def dump_trace(self) -> None:
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not os.path.exists(self.trace_file):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise CheckFailed("the traced server wrote no trace")
            time.sleep(0.01)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _send_in_order(clients, ops) -> None:
    from loadgen import send

    for op in ops:
        send(clients[op.conn], op)


def _prom(text: str) -> dict:
    """Prometheus text -> {series name without labels: summed value}."""
    values: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name = series.split("{", 1)[0]
        values[name] = values.get(name, 0.0) + float(value)
    return values


def _http_pass(run: Run, plan, serve_args, setups: int, traced: bool) -> dict:
    """Set up ``setups`` servers (keeping the last), then run the open and
    closed loops, read the counters, SIGKILL the server and check its WAL."""
    import workloads
    from loadgen import closed_loop, connections, open_clients, open_loop
    from repro import obs
    from repro.gateway.envelopes import ConfigReply

    conns = connections()
    setup_samples = []
    for index in range(setups):
        trace_file = run.dir / "server-trace.jsonl" if traced else None
        server = Server(run, f"{int(traced)}-{index}", serve_args, trace_file)
        clients = open_clients(server.host, server.port, conns)
        reply = clients[0].request(plan.configure)
        if not isinstance(reply, ConfigReply):
            raise CheckFailed(f"Configure failed: {reply!r}")
        _send_in_order(clients, plan.warmup)
        setup_samples.append(time.monotonic() - server.launched)
        if index < setups - 1:
            for client in clients:
                client.close()
            server.kill()

    obs.reset()  # count this pass's client retries only
    open_start = open_loop(clients, plan.open_ops)
    closed_seconds = run.seconds * (1.0 - workloads.OPEN_SHARE)
    closed_ops, closed_elapsed = closed_loop(clients, plan.lanes, closed_seconds)
    window = (open_start, time.monotonic())
    retries = _prom(obs.render()).get("repro_client_retries_total", 0.0)
    health = clients[0].health()
    counters = _prom(clients[0].metrics_text())
    peak_rss = server.peak_rss_mb()
    if traced:
        server.dump_trace()
    for client in clients:
        client.close()
    server.kill()

    sent = plan.warmup + plan.open_ops + closed_ops
    run.attempted += len(sent)
    bad = [op for op in sent if not op.ok]
    run.failed += len(bad)
    for op in bad[:3]:
        run.errors.append(f"{type(op.request).__name__}: {op.error}")
    if health["dispatched"] != len(sent) - len(bad) + 1 or health["shed"]:
        run.errors.append(
            f"server dispatched {health['dispatched']} envelopes and shed "
            f"{health['shed']}; {len(sent) - len(bad)} requests were "
            "acknowledged plus one Configure"
        )

    expect = _expectations(sent)
    expect_file = run.dir / f"expect-{int(traced)}.json"
    expect_file.write_text(json.dumps(expect))
    cmd = [str(HERE / "program.py"), "check", "--wal-dir", str(server.wal_dir),
           "--expect", str(expect_file)]
    if traced:
        cmd += ["--trace", str(run.dir / "check-trace.jsonl")]
    check = run.child_json(cmd)
    run.errors.extend(check["errors"])

    def latencies(cls):
        return [op.done - (open_start + op.due) for op in plan.open_ops
                if op.cls == cls and op.ok]

    return {
        "setup": setup_samples,
        "open_start": open_start,
        "window": window,
        "writes": latencies("write"),
        "reads": latencies("read"),
        "lags": [op.sent - (open_start + op.due) for op in plan.open_ops],
        "capacity_rps": sum(op.ok for op in closed_ops) / closed_elapsed,
        "retries": retries,
        "peak_rss_mb": peak_rss,
        "health": health,
        "counters": counters,
        "check": check,
        "ops": sent,
        "open_ops": plan.open_ops,
        "trace_file": server.trace_file,
    }


def _expectations(ops) -> dict:
    """What the recovered WAL must show: every acknowledged bid and
    revision, the tick range, and each tenant's declared value."""
    from repro.gateway.envelopes import ReviseBid, SlotReply, SubmitBids

    placed = []
    revised: dict = {}
    declared: dict = {}
    bids: dict = {}
    acked_slot = 0
    ticks_sent = 0
    for op in ops:
        request = op.request
        if isinstance(request, SubmitBids):
            if not op.ok:
                continue
            for opt, start, values in request.bids:
                detail = f"opt={opt!r}" if request.revisable else ""
                placed.append((request.tenant, detail))
                bids[(request.tenant, opt)] = sum(values)
                declared[request.tenant] = declared.get(request.tenant, 0.0) + sum(values)
        elif isinstance(request, ReviseBid):
            if not op.ok:
                continue
            key = (request.tenant, request.optimization)
            total = sum(v for _, v in request.new_values)
            declared[request.tenant] += total - bids[key]
            bids[key] = total
            detail = (request.tenant, f"opt={request.optimization!r}")
            revised[detail] = revised.get(detail, 0) + 1
        elif type(request).__name__ == "AdvanceSlots":
            ticks_sent += 1
            if isinstance(op.reply, SlotReply):
                acked_slot = max(acked_slot, op.reply.slot)
    return {
        "placed": placed,
        "revised": [[list(key), count] for key, count in revised.items()],
        "slot_range": [acked_slot, ticks_sent],
        "declared": declared,
    }


def _stage_split(passed: dict) -> dict:
    """Join each open-loop request to the dispatch span that served it
    (same tenant, started between send and reply): pre-dispatch, dispatch
    and post-dispatch then add up to what the client saw from its send."""
    spans: dict = {}
    dispatches = []
    with open(passed["trace_file"], encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    lo, hi = passed["window"]
    for row in rows:
        if row["name"] != "service.dispatch" or not row["tenants"]:
            continue
        if lo <= row["start"] <= hi:
            dispatches.append(row)
        for tenant in set(row["tenants"]):
            spans.setdefault(tenant, []).append(row)
    pre, post, seen, joined = [], [], 0.0, 0.0
    for op in passed["open_ops"]:
        if not op.ok:
            continue
        key = getattr(op.request, "tenant", None) or type(op.request).__name__
        seen += op.done - op.sent
        match = [s for s in spans.get(key, ()) if op.sent <= s["start"] <= op.done]
        if len(match) != 1:
            continue
        span = match[0]
        pre.append(span["start"] - op.sent)
        post.append(op.done - span["end"])
        joined += pre[-1] + (span["end"] - span["start"]) + post[-1]
    busy = sum(s["end"] - s["start"] for s in dispatches)
    return {
        "rows": rows,
        "server.pre_dispatch_ms_p50": _ms(_pct(pre, 0.5)),
        "server.pre_dispatch_ms_p99": _ms(_pct(pre, 0.99)),
        "server.post_dispatch_ms_p50": _ms(_pct(post, 0.5)),
        "service.dispatch_ms_p50": _ms(
            _pct([s["end"] - s["start"] for s in dispatches], 0.5)
        ),
        "service.busy_frac": busy / (hi - lo),
        "service.self_s": sum(s["self"] for s in dispatches),
        "trace.unaccounted_frac": 1.0 - joined / seen if seen else 1.0,
    }


def _per_call(stats: dict, name: str, scale: float) -> float:
    calls, total, _ = stats.get(name, (0, 0.0, 0.0))
    return total / calls * scale if calls else 0.0


def _http_layers(plain: dict, traced: dict) -> dict:
    """Per-layer metrics: exact counters from the untraced pass, times
    from the traced one."""
    health, counters = plain["health"], plain["counters"]
    dispatched = max(health["dispatched"], 1)
    split = _stage_split(traced)
    rows = split.pop("rows")
    with open(f"{traced['trace_file']}.stats.json", encoding="utf-8") as handle:
        stats = json.load(handle)
    durations = {}
    for row in rows:
        durations.setdefault(row["name"], []).append(row["end"] - row["start"])
    ids = {row["id"]: row["name"] for row in rows}
    top_queries = [
        row["end"] - row["start"] for row in rows
        if row["name"] == "db.query" and ids.get(row["parent"]) != "db.query"
    ]
    ticks = durations.get("fleet.advance_slots", [])
    check, traced_check = plain["check"], traced["check"]
    units = [op.reply.units for op in plain["ops"]
             if op.ok and type(op.reply).__name__ == "QueryReply"]
    fsyncs = counters.get("repro_wal_fsync_seconds_count", 0.0)
    layers = {
        # End-to-end numbers of the untraced pass that carry no bound.
        "throughput.capacity_rps": plain["capacity_rps"],
        "latency.read_p50_ms": _ms(_pct(plain["reads"], 0.5)),
        **{
            f"latency.{kind}_p{q}_ms": _ms(_pct(plain[f"{kind}s"], q / 100))
            for kind in ("write", "read") for q in (90, 99)
        },
        "loadgen.lag_p99_ms": _ms(_pct(plain["lags"], 0.99)),
        "client.retries": plain["retries"],
        "server.batches": health["batches"],
        "server.envelopes_per_batch": health["dispatched"] / max(health["batches"], 1),
        "server.shed": health["shed"],
        "codec.decode_us_per_req": _per_call(stats, "codec.decode", 1e6),
        "codec.encode_us_per_req": _per_call(stats, "codec.encode", 1e6),
        "service.dispatch_calls": stats["service.dispatch"][0],
        "wal.fsyncs_per_req": health["fsyncs"] / dispatched,
        "wal.bytes_per_req": counters.get("repro_wal_bytes_total", 0.0) / dispatched,
        "wal.fsync_ms_mean": _ms(
            counters.get("repro_wal_fsync_seconds_sum", 0.0) / fsyncs
        ) if fsyncs else 0.0,
        "wal.append_ms_p50": _ms(_pct(durations.get("wal.append", []), 0.5)),
        "wal.encode_us_per_record": _per_call(stats, "wal.encode_record", 1e6),
        "recovery.records": check["records"],
        "recovery.recover_s": check["recover_s"],
        "recovery.load_s": traced_check["load_s"],
        "recovery.replay_s": traced_check["recover_s"]
        - traced_check["read_log_s"] - traced_check["load_s"],
        "fleet.intake_s": stats["fleet.ingest_many"][1],
        "fleet.advance_s": stats["fleet.advance_slots"][1],
        "fleet.bookkeeping_s": stats["fleet.advance_slots"][2],
        "fleet.tick_ms_p50": _ms(_pct(ticks, 0.5)),
        "fleet.tick_ms_max": _ms(max(ticks, default=0.0)),
        "fleet.place_us_per_bid": _per_call(stats, "fleet.place_checked", 1e6),
        "fleet.revise_us": _per_call(stats, "fleet.revise_bid", 1e6),
        "fleet.events": check["events"],
        "fleet.ledger_entries": check["ledger_entries"],
        "core.solve_calls": stats["core.apply_changes"][0],
        "core.solve_s": stats["core.apply_changes"][1],
        "core.exit_price_s": stats["core.exit_price"][1],
        "db.query_ms_p50": _ms(_pct(top_queries, 0.5)),
        "db.query_ms_p99": _ms(_pct(top_queries, 0.99)),
        "db.snapshot_pins": stats["db.snapshot"][0],
        "db.units_per_query": sum(units) / len(units) if units else 0.0,
        # Open-loop write p50 at the same fixed rate in both passes: it
        # moves with the per-request cost, not with host capacity.
        "trace.overhead_frac": _pct(traced["writes"], 0.5)
        / _pct(plain["writes"], 0.5) - 1.0,
    }
    layers.update(split)
    return layers


def run_http(run: Run, workload: str) -> dict:
    import workloads
    from loadgen import connections

    seed, size, seconds = run.args.seed, run.size, run.seconds
    if workload == "bids_http":
        plan_of = workloads.bids_plan
        serve_args = []
    else:
        plan_of = workloads.mixed_plan
        serve_args = ["--particles", str(size.particles), "--snapshots",
                      str(workloads.SNAPSHOTS), "--seed", str(seed)]
    plan = plan_of(seed, size, seconds, connections())
    plain = _http_pass(run, plan, serve_args, size.setups, traced=False)
    notes = [
        _latency_note(kind, plain[f"{kind}s"]) for kind in ("write", "read")
        if any(op.cls == kind for op in plan.open_ops)
    ]
    metrics = {
        "setup_s": statistics.median(plain["setup"]),
        "write_p50_ms": _ms(_pct(plain["writes"], 0.5)),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    notes.append(
        f"open loop: {len(plan.open_ops)} requests"
        + (f" incl. {plan.ticks} ticks" if plan.ticks else "")
        + f"; closed loop at {connections()} connections; "
        f"recover_s {plain['check']['recover_s']:.3f}"
    )
    if not run.args.trace:
        return {"metrics": metrics, "notes": notes}
    plan = plan_of(seed, size, seconds, connections())
    traced = _http_pass(run, plan, serve_args, 1, traced=True)
    return {"layers": _http_layers(plain, traced), "notes": notes}


# ------------------------------------------------------------------ main --


def _report(run: Run, measured: dict) -> dict:
    if run.args.trace:
        values, spec = measured["layers"], PER_LAYER
    else:
        values, spec = measured["metrics"], END_TO_END
    missing = [name for name, _ in spec if name not in values]
    if missing:
        raise CheckFailed(f"metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in spec}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    run = Run(args, workloads.SIZES[args.scale])
    try:
        measured = run_http(run, args.workload)
        metrics = _report(run, measured)
    except CheckFailed as exc:
        run.errors.append(str(exc))
        metrics, measured = {}, {"notes": []}
    finally:
        run.close()
    for note in measured["notes"]:
        print(f"# {note}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for error in run.errors:
        print(f"CHECK FAILED: {error}")
    correct = not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
