"""Static policy analysis: find defects without running a query.

Wallets accumulate delegation sets whose defects -- amplification
cycles through ``*=`` attributes, third-party delegations whose support
proofs can never be assembled, dead credentials, validity inversions --
only surface when a live query fails or silently over-grants. This
package inspects a wallet or bare delegation graph *at rest* and emits
typed findings:

* :func:`analyze` / :func:`analyze_wallet` -- run the rule set;
* :func:`publication_findings` -- the findings one more delegation
  would add to a wallet (the pre-publication gate);
* :class:`Finding` / :class:`AnalysisReport` / :class:`Severity` -- the
  typed results;
* :data:`RULES` / :func:`rule_catalog` / :func:`select_rules` -- the
  rule registry (see ``docs/LINT_RULES.md`` for the catalogue).

Surfaced through ``drbac lint`` and the gate ``drbac issue --lint``
runs before it publishes.
"""

from repro.analysis.static.analyzer import (
    analyze,
    analyze_wallet,
    publication_findings,
)
from repro.analysis.static.context import (
    DEFAULT_LONG_LIVED_THRESHOLD,
    AnalysisContext,
)
from repro.analysis.static.findings import AnalysisReport, Finding, Severity
from repro.analysis.static.rules import (
    RULES,
    Rule,
    RuleSelectionError,
    rule_catalog,
    select_rules,
)

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "DEFAULT_LONG_LIVED_THRESHOLD",
    "Finding",
    "RULES",
    "Rule",
    "RuleSelectionError",
    "Severity",
    "analyze",
    "analyze_wallet",
    "publication_findings",
    "rule_catalog",
    "select_rules",
]
