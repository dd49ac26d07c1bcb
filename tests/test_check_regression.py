"""The CI bench-regression gate: comparison rules and exit codes."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def gate():
    """Import benchmarks/check_regression.py as a module."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "check_regression", BENCHMARKS / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(name, speedup, n=1000, smoke=False, floor=None):
    return {
        "benchmark": name,
        "speedup": speedup,
        "n": n,
        "seed": 1,
        "floor": floor,
        "smoke": smoke,
    }


class TestCheckEntry:
    def test_same_scale_within_tolerance_passes(self, gate):
        ok, detail = gate.check_entry(
            "b", entry("b", 9.0), {"b": entry("b", 10.0)}, 0.2
        )
        assert ok, detail

    def test_same_scale_regression_fails(self, gate):
        ok, detail = gate.check_entry(
            "b", entry("b", 7.9), {"b": entry("b", 10.0)}, 0.2
        )
        assert not ok
        assert "regressed" in detail

    def test_scale_mismatch_is_sanity_only(self, gate):
        ok, detail = gate.check_entry(
            "b", entry("b", 2.0, n=100, smoke=True), {"b": entry("b", 10.0)}, 0.2
        )
        assert ok
        assert "sanity" in detail

    def test_smoke_wallclock_never_strict(self, gate):
        baselines = {"b@smoke": entry("b", 10.0, smoke=True)}
        ok, _ = gate.check_entry(
            "b", entry("b", 2.0, smoke=True), baselines, 0.2
        )
        assert ok, "smoke wall-clock timings must not gate"

    def test_smoke_metered_ratio_is_strict(self, gate):
        name = gate.SCALE_INDEPENDENT[0]
        baselines = {f"{name}@smoke": entry(name, 10.0, smoke=True)}
        ok, detail = gate.check_entry(
            name, entry(name, 7.0, smoke=True), baselines, 0.2
        )
        assert not ok
        assert "regressed" in detail

    def test_full_run_without_baseline_fails(self, gate):
        ok, detail = gate.check_entry("new", entry("new", 5.0), {}, 0.2)
        assert not ok
        assert "baseline" in detail

    def test_full_run_under_own_floor_fails_even_unpaired(self, gate):
        baselines = {"b": entry("b", 10.0, n=999_999)}
        ok, detail = gate.check_entry(
            "b", entry("b", 2.0, floor=3.0), baselines, 0.2
        )
        assert not ok
        assert "floor" in detail

    def test_nonpositive_speedup_fails(self, gate):
        ok, _ = gate.check_entry("b", entry("b", 0.0), {"b": entry("b", 1.0)}, 0.2)
        assert not ok


class TestMain:
    def run_gate(self, gate, tmp_path, fresh, baseline_results):
        results = tmp_path / "results"
        results.mkdir()
        for item in fresh:
            (results / f"{item['benchmark']}.json").write_text(json.dumps(item))
        baseline = tmp_path / "BASE.json"
        baseline.write_text(json.dumps({"results": baseline_results}))
        return gate.main(
            ["--results", str(results), "--baselines", str(baseline)]
        )

    def test_passing_run(self, gate, tmp_path):
        code = self.run_gate(
            gate, tmp_path,
            [entry("a", 10.0), entry("b", 5.0)],
            {"a": entry("a", 10.0), "b": entry("b", 4.5)},
        )
        assert code == 0

    def test_regressed_run_fails(self, gate, tmp_path):
        code = self.run_gate(
            gate, tmp_path,
            [entry("a", 5.0)],
            {"a": entry("a", 10.0)},
        )
        assert code == 1

    def test_no_results_is_an_error(self, gate, tmp_path):
        (tmp_path / "results").mkdir()
        code = gate.main(
            [
                "--results", str(tmp_path / "results"),
                "--baselines", str(tmp_path / "BASE.json"),
            ]
        )
        assert code == 2

    def test_unparseable_fresh_result_fails(self, gate, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "bad.json").write_text("{not json")
        baseline = tmp_path / "BASE.json"
        baseline.write_text(json.dumps({"results": {}}))
        assert gate.main(
            ["--results", str(results), "--baselines", str(baseline)]
        ) == 1

    def test_gate_passes_against_committed_baselines_at_smoke(self, gate, tmp_path):
        """The acceptance scenario: smoke-scale fresh results checked
        against this repository's real committed trajectory."""
        fresh = [
            entry("columnar_engine", 1.5, n=2_000, smoke=True),
            entry("advisor_loop", 29.8, n=2_000, smoke=True, floor=3.0),
        ]
        results = tmp_path / "results"
        results.mkdir()
        for item in fresh:
            (results / f"{item['benchmark']}.json").write_text(json.dumps(item))
        baselines = str(BENCHMARKS.parent / "BENCH.json")
        assert gate.main(["--results", str(results), "--baselines", baselines]) == 0
