#!/usr/bin/env python
"""The repository's code linter: 13 rules over one parse of each file.

Six per-file invariants (clock-discipline, graph-event-coupling,
mutable-default, frozen-setattr, obs-discipline, service-injection)
and seven call-graph rules (blocking-in-async, lock-discipline,
lock-order-cycle, scope-escape, unawaited-coroutine,
fire-and-forget-task, contextvar-discipline), catalogued in
docs/LINT_RULES.md.  The rules live in the ``codelint`` package next
to this script.

Usage::

    python tools/reprolint.py src tools          # exit 1 on any finding
    python tools/reprolint.py src --json         # drbac lint --json shape
    python tools/reprolint.py --workload defective:3 --json

``--workload defective|clean[:SEED[:FILLER]]`` lints a generated tree
with planted defects (or its repaired control arm) instead of the
targets, and adds the planted ``expected`` locators and the
``mismatches`` against them to the JSON report;
``tools/check_lint_expectations.py`` checks such a report on its own.
"""

import argparse
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from codelint import lint_paths  # noqa: E402
from codelint.workload import workload_from_spec  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="the repository's code linter (per-file invariants "
                    "and call-graph concurrency rules)")
    parser.add_argument("targets", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the drbac lint --json report shape "
                             "on stdout instead of one line per "
                             "finding")
    parser.add_argument("--workload", default=None, metavar="SPEC",
                        help="lint a generated tree instead of the "
                             "targets: defective[:SEED[:FILLER]] or "
                             "clean[:SEED[:FILLER]]")
    args = parser.parse_args(argv)

    workload = None
    if args.workload:
        try:
            workload = workload_from_spec(args.workload)
        except ValueError as exc:
            parser.error(str(exc))
        with tempfile.TemporaryDirectory(prefix="reprolint-") as root:
            workload.write_to(root)
            report = workload.analyze()
    else:
        missing = [t for t in args.targets if not os.path.exists(t)]
        if missing:
            parser.error(f"no such file or directory: {', '.join(missing)}")
        report = lint_paths(args.targets)
    mismatches = workload.verify(report) if workload is not None else []
    if args.as_json:
        payload = report.to_dict()
        if workload is not None:
            payload["expected"] = {
                rule: list(ids)
                for rule, ids in sorted(workload.expected.items())
            }
            payload["mismatches"] = mismatches
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in report:
            print(f"{', '.join(finding.delegation_ids)}: "
                  f"{finding.rule_id}: {finding.message}")
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    print(f"reprolint: {report.extras['files']} file(s), "
          f"{len(report)} violation(s) [{report.source}]",
          file=sys.stderr)
    return 1 if report.findings or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
