"""The one command of the repo's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload svc_hot --seed 1 \\
        --seconds 10 --trace 0

runs one workload, checks every answer, prints each metric by name with
its unit and sample count, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``.  ``--workload all`` runs the four in turn (one JSON line
each); ``--out FILE`` appends the full records to a JSON list that
``compare.py`` reads.  README.md in this directory has the rest.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if __package__ in (None, ""):
    # Run as a script: the directory itself must not lead the path (its
    # trace.py would shadow the standard library's); its parent must,
    # so that the files import as the package ``e2e``.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path.insert(0, os.path.dirname(HERE))

import argparse                                     # noqa: E402
import json                                         # noqa: E402
import signal                                       # noqa: E402
import statistics                                   # noqa: E402
from typing import Dict, List, Optional             # noqa: E402

import e2e                                          # noqa: E402

WORKLOADS = ("svc_hot", "svc_churn", "disc_fed", "disc_scc")
# How a traced run splits --seconds: the untraced window that the
# socket-side layer metrics and the overhead baseline come from, the
# bare in-process replay (service workloads), and the traced part.
TRACE_WINDOW_SHARE = 0.5
TRACE_BARE_REPLAY_SHARE = 0.15
PINGS = 2000


def load_spec() -> dict:
    with open(os.path.join(e2e.REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_service(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> dict:
    from e2e import svc
    from e2e.streams import scaled
    window = seconds * (TRACE_WINDOW_SHARE if trace else 1.0)
    socket_run = svc.run_socket(name, seed, seconds, window, scale,
                                pings=scaled(PINGS, scale) if trace else 0)
    result = {"end_to_end": socket_run.end_to_end,
              "tally": socket_run.tally, "host_speed": socket_run.speed,
              "stream_hash": socket_run.plan.stream_hash}
    if trace:
        replay = svc.run_replay(socket_run,
                                seconds * TRACE_BARE_REPLAY_SHARE,
                                socket_run.tally)
        # The socket side's host.speed_factor (the window's) wins.
        result["per_layer"] = {**svc.replay_ledger(replay),
                               **socket_run.per_layer}
        result["spans"] = replay.tracer.dump()
    return result


def _run_discovery(name: str, seed: int, seconds: float, trace: bool,
                   scale: float) -> dict:
    from e2e import check, disc
    from e2e.streams import scaled
    from e2e.trace import Tracer
    workload = disc.WORKLOADS[name](seed)
    tally = check.Tally()
    setup_rounds = disc.time_setup(workload)
    idle = Tracer()                 # never installed: records nothing
    disc.run_iterations(workload, idle, tally,
                        count=scaled(disc.WARMUP_ITERATIONS, scale))
    window = seconds * (TRACE_WINDOW_SHARE if trace else 1.0)
    iterations = disc.run_iterations(workload, idle, tally, seconds=window)
    if not iterations:
        raise RuntimeError(f"no iteration succeeded: {tally.notes}")
    result = {"end_to_end": disc.end_to_end(iterations, setup_rounds),
              "tally": tally, "stream_hash": None,
              "host_speed": statistics.median(i.speed for i in iterations)}
    if trace:
        tracer = Tracer()
        with tracer:
            traced = disc.run_iterations(workload, tracer, tally,
                                         seconds=seconds - window)
        if traced:
            result["per_layer"] = disc.traced_ledger(tracer, traced,
                                                     iterations)
            result["spans"] = tracer.dump(max_roots=8)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """One workload, one record (see ``--out``)."""
    from e2e import check, server
    spec = load_spec()
    header = server.header()
    runner = _run_service if name.startswith("svc_") else _run_discovery
    result = runner(name, seed, seconds * scale, trace, scale)
    tally = result["tally"]
    header["host_speed_factor"] = result["host_speed"]
    problem = check.table3_problem()
    if problem is not None:
        tally.fail(problem)

    section = "per_layer" if trace else "end_to_end"
    measured = result.get(section, {})
    metrics: Dict[str, dict] = {}
    for entry in spec[section]:
        # A layer metric that does not apply to this workload (service
        # layers under discovery and the reverse) did no work: 0.
        value, samples = measured.get(entry["name"], (0.0, 0)) if trace \
            else measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"],
                                  "n": samples}
    unknown = set(measured) - set(metrics)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": int(trace), "header": header,
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / max(1, tally.attempted),
        "notes": tally.notes, "stream_hash": result["stream_hash"],
        "metrics": metrics,
    }
    if "spans" in result:
        record["spans"] = result["spans"]
    return record


def print_report(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"scale={record['scale']}")
    header = record["header"]
    print(f"   nproc={header['nproc']} python={header['python']} "
          f"git={header['git_rev']} load1m={header['loadavg_1m']:.2f} "
          f"scrubbed={sorted(header['scrubbed_env'])} "
          f"stream={(record['stream_hash'] or '-')[:16]}")
    print(f"   timings at reference host speed; the host ran "
          f"{header['host_speed_factor']:.3f}x slower than it "
          f"(hostspeed.py)")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {name:<46} {shown:>12} {metric['unit']:<6} "
              f"(n={metric['n']})")
    print(f"   {'failed_share':<46} {record['failed_share']:>12.6g} "
          f"{'ratio':<6} ({record['failed']} failed of "
          f"{record['attempted']} attempted)")
    for note in record["notes"]:
        print(f"   FAILED: {note}")


def result_line(record: dict) -> str:
    """The contract's last line: numbers only, ``null`` layers as 0."""
    metrics = {name: {"value": metric["value"] or 0.0,
                      "unit": metric["unit"]}
               for name, metric in record["metrics"].items()}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def append_records(path: str, records: List[dict]) -> None:
    existing: List[dict] = []
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(existing + records, handle, indent=1)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the population/topology and the "
                             "request order (default: 1)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also replay under the span wrappers and "
                             "report the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the window and every fixed op count "
                             "(smoke runs; 1.0 is the benchmark)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the full records to this JSON list")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(e2e.SRC, "repro")):
        print(f"error: no library to measure under {e2e.SRC}",
              file=sys.stderr)
        return 2

    # So that a driver's SIGTERM still tears the service group down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.scale)
        records.append(record)
        print_report(record)
        sys.stdout.flush()
        print(result_line(record))
    if args.out:
        append_records(args.out, records)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
