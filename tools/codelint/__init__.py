"""The repository's code linter: one parse per file, 13 rules, one report.

:func:`lint_paths` parses the targets once into a :class:`RepoModel`
(node lists, alias tables, call graph), runs the selected rules of
:data:`RULES`, and returns the :class:`AnalysisReport` the policy
analyzer (``drbac lint``) returns, so ``tools/reprolint.py`` and
``tools/check_lint_expectations.py`` read both through one shape.
Locators (``relpath:line``) ride in the findings' ``delegation_ids``
slot.  The rules guard the paper's invariants in this repository's
code -- every graph mutation publishes a Section 4.2.2 subscription
event, every validity decision reads the one ``Clock`` -- plus the
concurrency discipline of the sharded service.  The catalogue is
``docs/LINT_RULES.md``.
"""

import time
from typing import Iterable, Optional, Sequence

from repro.analysis.static.findings import AnalysisReport, Finding, Severity
from repro.analysis.static.rules import select_rules

from .model import RepoModel
from .rules import RULES, CodeContext

__all__ = ["RULES", "RepoModel", "lint_paths"]


def lint_paths(paths: Sequence[str], root: Optional[str] = None,
               rules: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None,
               entry_classes: Optional[Iterable[str]] = None,
               ) -> AnalysisReport:
    """Run the code rules over every ``.py`` under ``paths``.

    ``root`` anchors the ``relpath:line`` locators (defaults to the
    common parent of ``paths``); ``rules``/``ignore`` select rule ids
    with the policy analyzer's semantics; ``entry_classes`` overrides
    the scope-escape entry points (default ShardRuntime/ShardContext).
    A file that does not parse is one ``syntax`` finding.  ``edges``
    counts the functions the rules walked.
    """
    started = time.perf_counter()
    selected = select_rules(rules, ignore, RULES)
    model = RepoModel.build(list(paths), root=root)
    context = CodeContext(model, entry_classes=entry_classes)
    findings = [Finding("syntax", Severity.ERROR, f"cannot parse: {msg}",
                        (locator,))
                for locator, msg in model.unparsable]
    for rule in selected:
        produced = rule.check(context, rule)
        produced.sort(key=lambda f: f.delegation_ids)
        findings.extend(produced)
    return AnalysisReport(
        findings=tuple(findings),
        at=0.0,
        edges=len(context.functions),
        rules_run=tuple(rule.id for rule in selected),
        elapsed_seconds=time.perf_counter() - started,
        source=",".join(paths),
        extras={
            "files": len(model.modules),
            "loc": model.total_loc(),
            "suppressed": context.suppressed,
        },
    )
