#!/usr/bin/env python
"""Per-metric trajectories across the committed ``BENCH_*.json`` files.

Every benchmark emits a schema-v1 trajectory file (benchmarks/_emit.py)
and CI commits the full-run artifacts at the repo root, so git history
*is* the performance database: one record per revision per benchmark.
This tool walks that history::

    python tools/bench_trend.py                  # all BENCH_*.json
    python tools/bench_trend.py BENCH_proof_cache.json --tolerance 0.15

For each file it collects every historical version (``git log`` +
``git show rev:path``) plus the working copy, extracts the numeric
top-level payload metrics, prints the ``rev -> value`` trajectory, and
compares the newest record against the previous one with the same
``quick`` flag (smoke and full runs are different experiments and are
never compared with each other).

A metric's *direction* is inferred from its name: ``speedup``,
``ratio``, ``hit_rate``, ``throughput``, ``reduction``, ``granted``,
and ``ops_per_sec`` are higher-is-better; ``_ms``/``_bytes``/
``_messages``/``_seconds``/``latency`` are lower-is-better; anything
else is reported but never gated. The exit status is nonzero when any
gated metric moved in the losing direction by more than ``--tolerance``
(relative), so a perf regression fails CI even when the benchmark's own
hard gates still pass.
"""

import argparse
import fnmatch
import json
import math
import os
import subprocess
import sys

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir)

# Header keys (benchmarks/_emit.py) are provenance, not measurements.
HEADER_KEYS = {
    "schema_version", "git_rev", "seed", "quick", "timestamp",
    "wall_seconds", "virtual_time", "metrics", "benchmark",
}

HIGHER_BETTER = ("speedup", "ratio", "hit_rate", "throughput",
                 "reduction", "granted", "ops_per_sec")
LOWER_BETTER = ("_ms", "_bytes", "_messages", "_seconds", "latency")


def direction(name: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 ungated."""
    lowered = name.lower()
    if any(token in lowered for token in HIGHER_BETTER):
        return 1
    if any(token in lowered for token in LOWER_BETTER):
        return -1
    return 0


def numeric_metrics(record: dict) -> dict:
    """The gateable payload: top-level numeric scalars, header aside."""
    out = {}
    for key, value in record.items():
        if key in HEADER_KEYS or isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and math.isfinite(value):
            out[key] = float(value)
    return out


def _git(*args: str):
    proc = subprocess.run(["git", "-C", REPO_ROOT, *args],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


def history(path: str):
    """Oldest-to-newest ``(rev, record)`` series for one trajectory
    file: every committed version that parses as schema v1, then the
    working copy (labelled ``worktree``) when it differs or is new."""
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    code, out = _git("log", "--format=%h", "--reverse", "--", rel)
    series = []
    if code == 0:
        for rev in out.split():
            show_code, blob = _git("show", f"{rev}:{rel}")
            if show_code != 0:
                continue        # deleted at this revision
            record = _parse(blob)
            if record is not None:
                series.append((rev, record))
    if os.path.exists(path):
        with open(path) as handle:
            record = _parse(handle.read())
        if record is not None and (
                not series or record != series[-1][1]):
            series.append(("worktree", record))
    return series


def _parse(blob: str):
    try:
        record = json.loads(blob)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) \
            or record.get("schema_version") != 1:
        return None
    return record


def check_file(path: str, tolerance: float, verbose: bool = True):
    """Print one file's trajectories; return the regression list."""
    series = history(path)
    if not series:
        if verbose:
            print(f"{path}: no schema-v1 records")
        return []
    latest_rev, latest = series[-1]
    comparable = [(rev, record) for rev, record in series
                  if record.get("quick") == latest.get("quick")]
    regressions = []
    if verbose:
        mode = "quick" if latest.get("quick") else "full"
        print(f"{os.path.basename(path)} "
              f"[{latest.get('benchmark', '?')}, {mode}] "
              f"({len(comparable)}/{len(series)} comparable records)")
    for name, value in sorted(numeric_metrics(latest).items()):
        trajectory = [(rev, numeric_metrics(record).get(name))
                      for rev, record in comparable]
        trajectory = [(rev, v) for rev, v in trajectory if v is not None]
        gate = direction(name)
        if verbose:
            arrow = {1: "^", -1: "v", 0: " "}[gate]
            line = " -> ".join(f"{rev}:{v:g}" for rev, v in trajectory)
            print(f"  {arrow} {name}: {line}")
        if gate == 0 or len(trajectory) < 2:
            continue
        (_prev_rev, previous), (_rev, current) = trajectory[-2:]
        if previous == 0:
            continue
        delta = (current - previous) / abs(previous)
        if gate * delta < -tolerance:
            regressions.append(
                f"{os.path.basename(path)}:{name} "
                f"{previous:g} -> {current:g} "
                f"({delta:+.1%}, tolerance {tolerance:.0%}, "
                f"{'higher' if gate > 0 else 'lower'}-is-better)")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="trajectory files (default: every "
                             "BENCH_*.json at the repo root)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative slack before a gated metric's "
                             "move counts as a regression "
                             "(default: 0.25)")
    parser.add_argument("--quiet", action="store_true",
                        help="print regressions only")
    args = parser.parse_args(argv)

    files = args.files or sorted(
        os.path.join(REPO_ROOT, name)
        for name in os.listdir(REPO_ROOT)
        if fnmatch.fnmatch(name, "BENCH_*.json"))
    if not files:
        print("no trajectory files found")
        return 0

    all_regressions = []
    for path in files:
        all_regressions.extend(
            check_file(path, args.tolerance, verbose=not args.quiet))
    if all_regressions:
        print(f"\n{len(all_regressions)} regression(s) past tolerance:")
        for line in all_regressions:
            print(f"  {line}")
        return 1
    if not args.quiet:
        print("\nno regressions past tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
