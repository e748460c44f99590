"""Compare sets of runs: ``compare.py A.json B.json [C.json ...]``.

Each file is a JSON list of records written by ``run.py --out`` (a set
of runs of one commit); the first file is the baseline and every other
file is compared against it.  For each (workload, end-to-end metric)
the tool prints both medians, how much worse the candidate's is, the
bound ``BENCHMARK.json`` fixes, and a verdict:

``ok``          not worse than the baseline by more than the bound;
``regressed``   worse by more than the bound (exit status 1);
``unresolved``  the run-to-run spread (distance between the quartiles,
                as a share of the median) of either set is wider than
                the bound, and the sets overlap: the runs cannot tell.

The exact counts (``msgs_per_authorize``, ``wire_bytes_per_authorize``)
are deterministic per seed and must be identical on every seed the two
sets share.
"""

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
# Run as a script, this directory leads the path, and its trace.py
# would shadow the standard library's for anything imported later.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
BENCHMARK_JSON = os.path.normpath(
    os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json"))

EXACT = ("msgs_per_authorize", "wire_bytes_per_authorize")

# (workload, metric) -> [(seed, value), ...]
Runs = Dict[Tuple[str, str], List[Tuple[int, float]]]


def load_runs(path: str) -> Runs:
    with open(path) as handle:
        records = json.load(handle)
    runs: Runs = {}
    for record in records:
        if record["trace"]:
            continue            # per-layer records carry no bounds
        if not record["correct"]:
            raise SystemExit(f"{path}: a {record['workload']} run failed "
                             f"its correctness check: {record['notes']}")
        for name, metric in record["metrics"].items():
            runs.setdefault((record["workload"], name), []).append(
                (record["seed"], metric["value"]))
    return runs


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0


def verdict(base: List[float], cand: List[float], better: str,
            bound: float) -> Tuple[float, str]:
    """(how much worse the candidate median is, as a share; verdict)."""
    # Scored so that larger is worse, whichever way the metric points.
    sign = 1.0 if better == "lower" else -1.0
    base_scores = [sign * value for value in base]
    cand_scores = [sign * value for value in cand]
    worse = (statistics.median(cand_scores)
             - statistics.median(base_scores)) \
        / abs(statistics.median(base))
    if max(spread(base), spread(cand)) > bound:
        # Too noisy for the medians alone; only a clean separation of
        # the two sets still says something.
        if max(cand_scores) <= min(base_scores):
            return worse, "ok"
        if min(cand_scores) <= max(base_scores):
            return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def exact_verdict(base: List[Tuple[int, float]],
                  cand: List[Tuple[int, float]]) -> str:
    base_by_seed: Dict[int, set] = {}
    for seed, value in base:
        base_by_seed.setdefault(seed, set()).add(value)
    for seed, value in cand:
        expected = base_by_seed.get(seed)
        if expected is not None and expected != {value}:
            return "regressed"
    return "ok"


def compare(base: Runs, cand: Runs, spec: dict) -> int:
    """Print the table for one candidate; return the regressed count."""
    regressed = 0
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<10} {'metric':<26} {'base':>12} {'cand':>12} "
          f"{'worse':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in cand:
                continue
            base_values = [value for _, value in base[key]]
            cand_values = [value for _, value in cand[key]]
            worse, outcome = verdict(base_values, cand_values,
                                     metric["better"], metric["bound"])
            if metric["name"] in EXACT and outcome == "ok":
                outcome = exact_verdict(base[key], cand[key])
            regressed += outcome == "regressed"
            print(f"{workload:<10} {metric['name']:<26} "
                  f"{statistics.median(base_values):>12.6g} "
                  f"{statistics.median(cand_values):>12.6g} "
                  f"{worse:>+8.2%} {metric['bound']:>6.0%} "
                  f"{max(spread(base_values), spread(cand_values)):>7.2%}"
                  f"  {outcome}  (n={len(base_values)}/{len(cand_values)})")
    return regressed


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    base = load_runs(argv[0])
    regressed = 0
    for path in argv[1:]:
        print(f"# {path} against {argv[0]}")
        regressed += compare(base, load_runs(path), spec)
    if regressed:
        print(f"{regressed} metric(s) regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
