"""Tiny-scale self-check of the benchmark code itself.

    python3 perfbench/selfcheck.py

Runs every workload end to end at ``--scale tiny`` with all of its
correctness checks, once untraced and once traced, and checks that the
metrics each run prints are exactly the ones ``BENCHMARK.json`` names.
Then copies ``BENCHMARK.json`` and this directory, without the program,
into a scratch directory and checks that the benchmark refuses to run
there: a non-zero exit and no result line. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "3"


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", SECONDS, "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result line\n{proc.stderr[-2000:]}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if proc.returncode or not result["correct"] or result["failed"]:
                failures.append(f"{label}: checks failed\n{proc.stdout[-2000:]}")
            elif got != wanted[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"{label}: exit {proc.returncode}, {result['attempted']} "
                  f"requests, {len(got)} metrics")

    bare = ROOT / ".perfbench-run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("without the program the benchmark did not refuse to run")
    print(f"without the program: exit {proc.returncode}")

    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
