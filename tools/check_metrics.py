#!/usr/bin/env python
"""Validate a Prometheus metrics dump from the observability layer.

CI smoke usage::

    drbac --metrics-out metrics.prom issue "..." --timing
    python tools/check_metrics.py metrics.prom \\
        --require drbac_wallet_publishes_total \\
        --require drbac_crypto_memo_misses_total

Exits nonzero if the file does not parse as Prometheus text exposition
format (the parser is strict: any malformed sample line is an error),
or if any ``--require``d metric name is absent or sums to zero across
its label sets.
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.obs.export import (            # noqa: E402
    parse_prometheus_text,
    sample_total,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("path", help="Prometheus text dump to check")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="metric name that must be present with a "
                             "nonzero total (repeatable)")
    args = parser.parse_args(argv)

    with open(args.path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        samples = parse_prometheus_text(text)
    except ValueError as exc:
        print(f"check_metrics: {args.path}: {exc}", file=sys.stderr)
        return 1
    if not samples:
        print(f"check_metrics: {args.path}: no samples", file=sys.stderr)
        return 1

    failures = []
    for name in args.require:
        present = [s for s in samples if s[0] == name]
        total = sample_total(samples, name)
        if not present:
            failures.append(f"{name}: absent")
        elif total == 0:
            failures.append(f"{name}: present but totals 0 "
                            f"({len(present)} series)")
    for failure in failures:
        print(f"check_metrics: {failure}", file=sys.stderr)
    names = {s[0] for s in samples}
    print(f"check_metrics: {args.path}: {len(samples)} samples, "
          f"{len(names)} metric names, "
          f"{len(args.require) - len(failures)}/{len(args.require)} "
          f"required checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
