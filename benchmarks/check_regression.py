"""CI gate: fail when the bench trajectory regresses.

Compares every fresh result under ``benchmarks/results/*.json`` against
the committed trajectory baselines (``BENCH_PR10.json`` first, falling
back to ``BENCH_PR6.json``/``BENCH_PR4.json``/``BENCH_PR3.json`` for
benchmarks that predate it) and exits
non-zero when a benchmark's headline speedup fell more than the allowed
tolerance (default 20%) below its baseline.

A comparison is only *strict* when it is meaningful:

* the fresh run and its baseline must agree on the headline scale ``n``
  (a 2,000-particle smoke run says nothing about a 40,000-particle
  workstation baseline — smoke baselines live under ``<name>@smoke``
  trajectory keys, see ``harness.record``);
* wall-clock speedups measured in smoke mode are never strictly gated
  (shared CI runners make them noise), but *metered* ratios — simulated
  cost units, machine-independent and deterministic — are gated even in
  smoke mode (``SCALE_INDEPENDENT`` lists them).

Everything else still passes a sanity gate: the entry must parse, carry
a positive speedup, and clear its own recorded floor on full runs. A
fresh full-run result with no baseline at all fails — every benchmark
must enter the trajectory in the PR that adds it.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py [--tolerance 0.2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

#: Benchmarks whose headline ratio is simulated (metered) rather than
#: wall-clock: deterministic, machine-independent, strictly gated even
#: on smoke runs.
SCALE_INDEPENDENT = ("advisor_loop",)


def _committed_text(path: Path) -> str | None:
    """The file as committed at HEAD, or None when git cannot provide it."""
    try:
        proc = subprocess.run(
            ["git", "show", f"HEAD:{path.resolve().relative_to(harness.ROOT)}"],
            cwd=harness.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError, ValueError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def load_baselines(paths, committed: bool = False) -> dict:
    """Merged ``{key: entry}`` from the trajectory files.

    Earlier paths win: the newest committed trajectory is authoritative,
    older ones only cover benchmarks it does not record yet. With
    ``committed=True`` each path is read as of ``HEAD`` (falling back to
    the working-tree file outside a git checkout) — ``harness.record``
    rewrites the live trajectory *during* a benchmark run, and comparing
    fresh results against their own just-written numbers would make the
    gate a no-op.
    """
    merged: dict = {}
    for path in paths:
        text = _committed_text(Path(path)) if committed else None
        if text is None:
            if not Path(path).exists():
                continue
            text = Path(path).read_text()
        for key, entry in json.loads(text).get("results", {}).items():
            merged.setdefault(key, entry)
    return merged


def check_entry(
    name: str, fresh: dict, baselines: dict, tolerance: float
) -> tuple[bool, str]:
    """One benchmark's verdict: ``(ok, detail)``."""
    speedup = fresh.get("speedup")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        return False, f"fresh result has no positive speedup ({speedup!r})"
    smoke = bool(fresh.get("smoke"))
    baseline = baselines.get(f"{name}@smoke") if smoke else baselines.get(name)
    if baseline is None and smoke:
        baseline = baselines.get(name)  # sanity reference only
    if baseline is None:
        if smoke:
            return True, f"sanity only (no baseline yet): speedup {speedup}"
        return False, "no committed baseline — record one in BENCH_PR10.json"

    strict = (
        fresh.get("n") == baseline.get("n")
        and smoke == bool(baseline.get("smoke"))
        and (not smoke or name in SCALE_INDEPENDENT)
    )
    if not strict:
        floor = fresh.get("floor")
        if floor is not None and speedup < floor and not smoke:
            return False, f"speedup {speedup} under its own floor {floor}"
        return True, (
            f"sanity only (n={fresh.get('n')}/smoke={smoke} vs baseline "
            f"n={baseline.get('n')}/smoke={bool(baseline.get('smoke'))}): "
            f"speedup {speedup}"
        )
    base_speedup = baseline.get("speedup", 0.0)
    allowed = base_speedup * (1.0 - tolerance)
    if speedup < allowed:
        return False, (
            f"speedup {speedup} regressed >{tolerance:.0%} below baseline "
            f"{base_speedup} (allowed >= {allowed:.2f})"
        )
    return True, f"speedup {speedup} vs baseline {base_speedup} (ok)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results", type=Path, default=harness.RESULTS_DIR,
        help="directory of fresh per-benchmark JSON results",
    )
    parser.add_argument(
        "--baselines", type=Path, nargs="+", default=None,
        help="trajectory files, newest first (default: the committed "
        "HEAD versions of BENCH_PR10.json, BENCH_PR6.json, BENCH_PR4.json and "
        "BENCH_PR3.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional speedup drop before failing (default 0.2)",
    )
    args = parser.parse_args(argv)

    fresh_paths = sorted(Path(args.results).glob("*.json"))
    if not fresh_paths:
        print(f"no fresh results under {args.results} — run the benchmarks first")
        return 2
    if args.baselines is None:
        # Default: the committed trajectories — the working-tree copy was
        # just rewritten by the benchmark run being judged.
        baselines = load_baselines(harness.BASELINE_PATHS, committed=True)
    else:
        baselines = load_baselines(args.baselines)

    failures = 0
    for path in fresh_paths:
        try:
            fresh = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"FAIL {path.name}: unparseable ({exc})")
            failures += 1
            continue
        name = fresh.get("benchmark", path.stem)
        ok, detail = check_entry(name, fresh, baselines, args.tolerance)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} benchmark(s) regressed or failed the gate")
        return 1
    print(f"{len(fresh_paths)} benchmark(s) pass the regression gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
