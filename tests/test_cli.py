"""Tests for the figure-regeneration and gateway CLI.

Every registered command is both parsed and smoked at minimal scale, so
argument wiring cannot silently rot (ISSUE 5 satellite): ``list``, each
``fig*``, ``all``, ``fleet`` (both races), ``advise``, and ``replay``/
``serve``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import FIGURES, build_parser, main
from repro.gateway.envelopes import API_VERSION


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out
        for extra in ("fleet", "advise", "replay"):
            assert extra in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_fig1_flags(self):
        args = build_parser().parse_args(["fig1", "--values", "engine", "--samples", "7"])
        assert args.values == "engine"
        assert args.samples == 7

    def test_common_flags(self):
        args = build_parser().parse_args(["fig2a", "--trials", "9", "--seed", "3"])
        assert args.trials == 9
        assert args.seed == 3

    @pytest.mark.parametrize("name", sorted(FIGURES) + ["all"])
    def test_every_figure_command_parses(self, name):
        args = build_parser().parse_args([name, "--trials", "1", "--summary"])
        assert args.command == name

    def test_fleet_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--games", "3", "--users", "50", "--gateway"]
        )
        assert (args.games, args.users, args.gateway) == (3, 50, True)
        # The in-process engine is the only executor: no pool to size.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--workers", "2"])

    def test_advise_flags(self):
        args = build_parser().parse_args(["advise", "--particles", "500"])
        assert args.particles == 500

    @pytest.mark.parametrize(
        "argv",
        [
            ["advise", "--engine-mode", "iterator"],
            ["fig1", "--engine-mode", "vector"],
        ],
        ids=["advise", "fig1"],
    )
    def test_engine_path_is_not_an_option(self, argv):
        # The engine picks its execution path from the plan.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_replay_flags(self):
        args = build_parser().parse_args(
            ["replay", "t.jsonl", "--strict", "--particles", "100"]
        )
        assert str(args.trace) == "t.jsonl"
        assert args.strict and args.particles == 100

    def test_serve_is_no_longer_a_replay_alias(self):
        # 'serve' once aliased 'replay'; it now starts the network
        # server and takes no trace positional.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "t.jsonl"])

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-pending", "8", "--wal-dir", "w"]
        )
        assert args.port == 0 and args.max_pending == 8
        assert str(args.wal_dir) == "w"
        # Group commit is adaptive: there is no linger knob to pass.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-delay", "0.01"])

    def test_wal_gc_flags(self):
        args = build_parser().parse_args(["wal-gc", "w", "--retain", "3"])
        assert str(args.wal_dir) == "w" and args.retain == 3


def test_serve_imports_stay_lean():
    # `repro serve` pays in memory for every module it imports, so the
    # serving path must not pull in the figures, the astronomy substrate,
    # multiprocessing, the client, or numpy's random generators.
    src = Path(repro.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import repro.cli, repro.gateway.server, repro.gateway.service\n"
        "unwanted = ['repro.experiments', 'repro.astro', 'repro.gateway.client',\n"
        "            'numpy.random', 'multiprocessing']\n"
        "print([name for name in unwanted if name in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("package", ["repro", "repro.gateway"])
def test_every_public_name_resolves(package):
    # Public names resolve on first access, so a stale entry in a
    # package's lazy table would only fail when someone reached for it.
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


class TestExecution:
    def test_fig2a_prints_table(self, capsys):
        assert main(["fig2a", "--trials", "3", "--rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "AddOn Utility" in out
        assert "Regret Balance" in out

    def test_summary_mode(self, capsys):
        assert main(["fig3a", "--trials", "2", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "mean" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["fig5a", "--trials", "2", "--out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("*.txt"))
        assert len(files) == 1
        assert "SubstOn Utility" in files[0].read_text()

    def test_fig1_paper_mode(self, capsys):
        assert main(["fig1", "--samples", "3", "--rows", "4"]) == 0
        out = capsys.readouterr().out
        assert "Baseline Cost" in out

    @pytest.mark.parametrize(
        "name", ["fig2b", "fig2c", "fig2d", "fig3b", "fig4", "fig5b"]
    )
    def test_remaining_figures_smoke(self, name, capsys):
        assert main([name, "--trials", "1", "--summary"]) == 0
        assert "mean" in capsys.readouterr().out

    def test_fleet_smoke(self, capsys):
        assert main(
            ["fleet", "--games", "2", "--users", "60", "--slots", "20",
             "--repeats", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_fleet_gateway_smoke(self, capsys):
        assert main(
            ["fleet", "--games", "2", "--users", "60", "--slots", "20",
             "--repeats", "1", "--gateway"]
        ) == 0
        out = capsys.readouterr().out
        assert "dispatch overhead" in out

    def test_advise_smoke(self, capsys):
        assert main(
            ["advise", "--particles", "800", "--snapshots", "2", "--slots", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "metered workload cost" in out
        assert "candidates mined" in out


class TestReplayCommand:
    TRACE = [
        {"api": API_VERSION, "kind": "Configure",
         "optimizations": [["idx", 40.0]], "horizon": 3},
        {"api": API_VERSION, "kind": "SubmitBids", "tenant": "ann",
         "bids": [["idx", 1, [30.0, 15.0]]]},
        {"api": API_VERSION, "kind": "SubmitBids", "tenant": "bob",
         "bids": [["idx", 1, [20.0]]]},
        {"api": API_VERSION, "kind": "AdvanceSlots", "slots": 3},
        {"api": API_VERSION, "kind": "LedgerQuery", "tenant": "ann"},
    ]

    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return path

    def test_replay_smoke(self, tmp_path, capsys):
        path = self._write(tmp_path, self.TRACE)
        replies = tmp_path / "replies.jsonl"
        assert main(["replay", str(path), "--replies", str(replies)]) == 0
        out = capsys.readouterr().out
        assert "5 replies" in out
        written = [json.loads(line) for line in replies.read_text().splitlines()]
        assert [w["kind"] for w in written] == [
            "ConfigReply", "BidsReply", "BidsReply", "SlotReply", "LedgerReply",
        ]

    def test_serve_drains_on_sigterm(self, tmp_path, capsys):
        # The repointed 'serve' runs the real network server: raise
        # SIGTERM from a timer thread and the CLI must drain and exit 0.
        import os
        import signal
        import threading

        timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            assert main(["serve", "--port", "0"]) == 0
        finally:
            timer.cancel()
        out = capsys.readouterr().out
        assert "serving on http://" in out
        assert "drained" in out

    def test_sigterm_with_idle_keep_alive_connections_is_quiet(self):
        # Idle keep-alive connections sit in a read when SIGTERM arrives;
        # the drain must let their handlers return, or the loop's
        # shutdown cancels them and logs a traceback per connection.
        import re
        import signal
        import socket

        src = Path(repro.__file__).resolve().parent.parent
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        connections = []
        try:
            banner = server.stdout.readline()
            host, port = re.search(r"http://([\d.]+):(\d+)", banner).groups()
            for _ in range(3):
                connection = socket.create_connection((host, int(port)), timeout=10)
                connections.append(connection)
                connection.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert connection.recv(65536).startswith(b"HTTP/1.1 200")
            server.send_signal(signal.SIGTERM)
            out, err = server.communicate(timeout=30)
        finally:
            for connection in connections:
                connection.close()
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0 and "drained" in out
        assert "Traceback" not in err and "Exception in callback" not in err, err

    def test_strict_fails_on_errors(self, tmp_path, capsys):
        path = self._write(
            tmp_path, self.TRACE + [{"api": API_VERSION, "kind": "Mystery"}]
        )
        assert main(["replay", str(path)]) == 0  # tolerant by default
        capsys.readouterr()
        assert main(["replay", str(path), "--strict"]) == 1
        assert "protocol" in capsys.readouterr().out

    def test_replay_with_universe_queries(self, tmp_path, capsys):
        trace = [
            {"api": API_VERSION, "kind": "RunQuery", "tenant": "ada",
             "query": "members", "table": "snap_02", "halo": 0},
        ]
        path = self._write(tmp_path, trace)
        assert main(["replay", str(path), "--particles", "300",
                     "--snapshots", "2"]) == 0
        out = capsys.readouterr().out
        assert "QueryReply" in out


class TestDurabilityCommands:
    TRACE = TestReplayCommand.TRACE

    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return path

    def test_replay_with_wal_then_recover(self, tmp_path, capsys):
        path = self._write(tmp_path, self.TRACE)
        wal_dir = tmp_path / "wal"
        assert main(["replay", str(path), "--wal-dir", str(wal_dir),
                     "--checkpoint-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "write-ahead log" in out
        assert (wal_dir / "wal.jsonl").exists()
        assert main(["recover", str(wal_dir)]) == 0
        out = capsys.readouterr().out
        assert "wal records" in out
        assert "slot 3/3" in out

    def test_recover_parses_checkpoint_flag(self):
        args = build_parser().parse_args(["recover", "d", "--checkpoint"])
        assert args.command == "recover" and args.checkpoint

    def test_recover_fails_cleanly_on_a_non_wal_directory(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path)]) == 1
        assert "recovery failed" in capsys.readouterr().out

    def test_checkpoint_command_compacts_the_wal(self, tmp_path, capsys):
        path = self._write(tmp_path, self.TRACE)
        wal_dir = tmp_path / "wal"
        assert main(["replay", str(path), "--wal-dir", str(wal_dir)]) == 0
        capsys.readouterr()
        assert main(["checkpoint", str(wal_dir)]) == 0
        assert "checkpoint written" in capsys.readouterr().out
        # The fresh checkpoint covers every record: recovery still works.
        assert main(["recover", str(wal_dir)]) == 0
        assert "slot 3/3" in capsys.readouterr().out

    def test_wal_gc_compacts_a_replayed_wal(self, tmp_path, capsys):
        path = self._write(tmp_path, self.TRACE)
        wal_dir = tmp_path / "wal"
        assert main(["replay", str(path), "--wal-dir", str(wal_dir),
                     "--checkpoint-every", "2"]) == 0
        capsys.readouterr()
        assert main(["wal-gc", str(wal_dir), "--retain", "1"]) == 0
        out = capsys.readouterr().out
        assert "checkpoints kept" in out and "deleted" in out
        # Everything before the fresh checkpoint is gone; recovery from
        # the compacted directory still reproduces the final state.
        assert main(["recover", str(wal_dir)]) == 0
        assert "slot 3/3" in capsys.readouterr().out

    def test_wal_gc_fails_cleanly_on_a_non_wal_directory(self, tmp_path, capsys):
        assert main(["wal-gc", str(tmp_path)]) == 1
        assert "wal-gc failed" in capsys.readouterr().out

    def test_list_mentions_durability_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "recover" in out and "checkpoint" in out and "wal-gc" in out
        assert "serve" in out
        assert "stats" in out


class TestStatsCommand:
    def test_stats_flags(self):
        args = build_parser().parse_args(
            ["stats", "--host", "10.0.0.1", "--port", "9", "--json"]
        )
        assert (args.host, args.port, args.json) == ("10.0.0.1", 9, True)
        defaults = build_parser().parse_args(["stats"])
        assert (defaults.host, defaults.port) == ("127.0.0.1", 8321)

    @pytest.fixture()
    def running_gateway(self):
        from repro.gateway import Configure, PricingService
        from repro.gateway.client import GatewayClient
        from repro.gateway.server import ServerConfig, ServerThread

        service = PricingService()
        thread = ServerThread(service, ServerConfig(port=0))
        host, port = thread.start()
        client = GatewayClient(host, port)
        client.request(Configure(optimizations=(("idx", 40.0),), horizon=3))
        client.close()
        try:
            yield host, port
        finally:
            thread.stop()

    def test_stats_prints_prometheus_text(self, running_gateway, capsys):
        from promparse import parse_exposition

        host, port = running_gateway
        assert main(["stats", "--host", host, "--port", str(port)]) == 0
        out = capsys.readouterr().out
        types, _samples = parse_exposition(out)
        assert types["repro_server_requests_total"] == "counter"

    def test_stats_json_prints_the_reply_wire_dict(
        self, running_gateway, capsys
    ):
        host, port = running_gateway
        assert main(
            ["stats", "--host", host, "--port", str(port), "--json"]
        ) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["kind"] == "MetricsReply"
        names = {entry[0] for entry in wire["metrics"]}
        assert "repro_dispatch_total" in names

    def test_stats_fails_cleanly_without_a_gateway(self, capsys):
        # Port 1 is privileged and unbound: connection refused, fast.
        assert main(["stats", "--port", "1"]) == 1
        assert "stats failed" in capsys.readouterr().out
