"""Machine-readable benchmark trajectory.

Every speedup benchmark records its result through :func:`record`, which
writes one JSON file per benchmark under ``benchmarks/results/`` and
merges the same entry into the top-level ``BENCH.json`` so the
repository carries a machine-readable trajectory (speedup, scale, seed,
commit, and a hash of any uncommitted diff) rather than only ad-hoc text
tables. Its committed version is the regression baseline:
``benchmarks/check_regression.py`` compares fresh results against it and
fails CI on a >20% speedup regression.

Smoke mode (``REPRO_BENCH_SMOKE=1``) is for CI: benchmarks shrink their
scales via :func:`scale` and skip their perf-floor assertions (see
:func:`enforce_floors`) so the job proves the benchmark *code* runs in
seconds without asserting timings on shared runners. Entries recorded in
smoke mode are flagged as such and never overwrite full-run numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

__all__ = [
    "RESULTS_DIR",
    "TRAJECTORY_PATH",
    "smoke",
    "scale",
    "enforce_floors",
    "record",
]

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
TRAJECTORY_PATH = ROOT / "BENCH.json"


def smoke() -> bool:
    """True when running as a CI smoke check (tiny scales, no floors)."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def scale(full, tiny):
    """``full`` normally, ``tiny`` in smoke mode."""
    return tiny if smoke() else full


def enforce_floors() -> bool:
    """Whether perf-floor assertions should be enforced for this run."""
    return not smoke()


def _git_commit() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _git_dirty(root: Path = ROOT) -> str | None:
    """None on a clean tree, else 12 hex digits of the SHA-256 of ``git
    diff HEAD`` over tracked files, so numbers measured on an uncommitted
    tree are told apart from the commit they are stamped with.

    ``BENCH.json`` and ``benchmarks/results/`` are left out: the harness
    itself rewrites them during a run.
    """
    try:
        diff = subprocess.run(
            [
                "git", "diff", "HEAD", "--no-color", "--no-ext-diff", "--",
                ".", ":(exclude)BENCH.json", ":(exclude)benchmarks/results",
            ],
            cwd=root,
            capture_output=True,
            timeout=10,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return hashlib.sha256(diff).hexdigest()[:12] if diff else None


def record(
    name: str,
    *,
    speedup: float,
    n: int,
    seed: int,
    floor: float | None = None,
    extra: dict | None = None,
) -> dict:
    """Persist one benchmark result; returns the recorded entry.

    ``speedup`` is the benchmark's headline ratio, ``n`` its headline
    scale (users, particles, ...), ``floor`` the asserted minimum (None
    when the benchmark has no hard floor), and ``extra`` any benchmark-
    specific rows worth keeping machine-readable.
    """
    entry = {
        "benchmark": name,
        "speedup": round(float(speedup), 3),
        "n": int(n),
        "seed": int(seed),
        "floor": None if floor is None else float(floor),
        "commit": _git_commit(),
        "dirty": _git_dirty(),
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "smoke": smoke(),
    }
    if extra:
        entry["extra"] = extra

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(entry, indent=2) + "\n")

    trajectory: dict = {"results": {}}
    if TRAJECTORY_PATH.exists():
        try:
            trajectory = json.loads(TRAJECTORY_PATH.read_text())
        except json.JSONDecodeError:
            trajectory = {"results": {}}
    trajectory.setdefault("results", {})
    # Smoke runs never clobber full-run numbers: they live under their own
    # trajectory key, which doubles as the regression-gate baseline for CI
    # smoke runs (see benchmarks/check_regression.py).
    key = f"{name}@smoke" if entry["smoke"] else name
    trajectory["results"][key] = entry
    trajectory["updated_at"] = entry["recorded_at"]
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return entry
