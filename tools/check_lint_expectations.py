#!/usr/bin/env python
"""Assert a lint ``--json`` report matches planted ground truth.

CI runs ``drbac lint --workload defective:SEED --json`` (policy) and
``tools/reprolint.py --workload defective:SEED --json`` (code) and
pipes each report here. The report's ``rules_run`` says which linter
wrote it; this script *independently* rebuilds that linter's workload
(same spec) and checks the report id-for-id: every planted defect
found by its rule, nothing else flagged. It deliberately does not
trust the report's embedded ``mismatches`` field -- the point is an
end-to-end check that the command, the linter, and the generator
agree.

Usage::

    python -m repro.cli lint --workload defective:3 --json > report.json
    python tools/check_lint_expectations.py report.json --workload defective:3
"""

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence, Set

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from codelint import RULES as CODE_RULES  # noqa: E402
from repro.analysis.static.findings import exactness_mismatches  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="check a lint --json report against the planted "
                    "defects of the workload it was generated from")
    parser.add_argument("report", help="path to the JSON report")
    parser.add_argument("--workload", default="defective",
                        help="workload spec the report was generated "
                             "from (default: defective)")
    args = parser.parse_args(argv)

    with open(args.report, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if set(payload["rules_run"]) <= set(CODE_RULES):
        from codelint.workload import workload_from_spec
        workload = workload_from_spec(args.workload)
    else:
        from repro.cli import _lint_workload
        workload = _lint_workload(args.workload)

    found: Dict[str, Set[str]] = {}
    for finding in payload.get("findings", []):
        found.setdefault(finding["rule"], set()).update(
            finding["delegations"])
    mismatches = exactness_mismatches(workload.expected, found)
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    planted = sum(len(ids) for ids in workload.expected.values())
    print(f"check_lint_expectations: {len(workload.expected)} rule(s), "
          f"{planted} planted id(s)/locator(s), "
          f"{len(mismatches)} mismatch(es) [{args.workload}]")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
