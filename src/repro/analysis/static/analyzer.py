"""Entry points of the static policy analyzer.

:func:`analyze` inspects a bare :class:`DelegationGraph`;
:func:`analyze_wallet` adapts a wallet (clock, revocations, stored
support proofs, base allocations) onto it; :func:`publication_findings`
asks what publishing one more delegation into a wallet would break.
None runs a proof search: every rule answers from structure -- the
live subgraph, its reachability closure, and its strongly connected
components -- which is what keeps a 10k-edge pass cheaper than a
single cold query.
"""

import time as _time
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

from repro.core.attributes import AttributeRef
from repro.core.delegation import Delegation
from repro.core.proof import Proof
from repro.graph.delegation_graph import DelegationGraph
from repro.analysis.static import checks as _checks  # registers rules
from repro.analysis.static.context import (
    DEFAULT_LONG_LIVED_THRESHOLD,
    AnalysisContext,
)
from repro.analysis.static.findings import AnalysisReport, Finding, Severity
from repro.analysis.static.rules import select_rules

del _checks  # imported for its registration side effect only


def analyze(graph: DelegationGraph, at: float,
            revoked: Optional[Callable[[str], bool]] = None,
            bases: Optional[Mapping[AttributeRef, float]] = None,
            supports: Optional[Callable] = None,
            rules: Optional[Iterable[str]] = None,
            ignore: Optional[Iterable[str]] = None,
            long_lived_threshold: float =
            DEFAULT_LONG_LIVED_THRESHOLD) -> AnalysisReport:
    """Run the selected rules over ``graph`` as of instant ``at``.

    ``revoked`` is a predicate over delegation ids; ``bases`` supplies
    base attribute allocations (the attribute-misuse rule only reasons
    about attributes it knows the base of); ``supports`` maps a
    delegation id to stored support proofs, letting the
    dangling-support rule accept proofs whose chains live in other
    wallets. ``rules``/``ignore`` select by rule id.
    """
    selected = select_rules(rules, ignore)
    context = AnalysisContext(
        graph, at, revoked=revoked, bases=bases, supports=supports,
        long_lived_threshold=long_lived_threshold,
    )
    started = _time.perf_counter()
    findings = []
    for selected_rule in selected:
        findings.extend(selected_rule.check(context))
    elapsed = _time.perf_counter() - started
    return AnalysisReport(
        findings=tuple(findings),
        at=at,
        edges=len(graph),
        rules_run=tuple(r.id for r in selected),
        elapsed_seconds=elapsed,
    )


def analyze_wallet(wallet, rules: Optional[Iterable[str]] = None,
                   ignore: Optional[Iterable[str]] = None,
                   long_lived_threshold: float =
                   DEFAULT_LONG_LIVED_THRESHOLD) -> AnalysisReport:
    """Analyze a wallet's held delegation set in place.

    Uses the wallet's clock for the analysis instant, its revocation
    knowledge, its stored support proofs, and its base allocations.
    """
    report = analyze(
        wallet.store.graph,
        at=wallet.clock.now(),
        revoked=wallet.store.is_revoked,
        bases=wallet.store.base_allocations(),
        supports=wallet.store.supports_for,
        rules=rules,
        ignore=ignore,
        long_lived_threshold=long_lived_threshold,
    )
    report.source = wallet.address or "wallet"
    return report


def publication_findings(wallet, delegation: Delegation,
                         supports: Iterable[Proof],
                         threshold: str) -> List[Finding]:
    """The findings at or above ``threshold`` (a :class:`Severity` or
    its name) that publishing ``delegation`` into ``wallet`` would add.

    The analyzer runs over a *copy* of the wallet's graph plus the
    candidate -- the wallet itself is never touched -- and only
    findings naming the candidate count: defects already in the store
    do not block an innocent newcomer. A delegation the wallet already
    holds adds nothing, so it has no findings.
    """
    store = wallet.store
    if delegation.id in store.graph:
        return []
    minimum = Severity.from_name(threshold)
    supports = tuple(supports)
    candidate = store.graph.copy()
    candidate.add(delegation)

    def lookup(delegation_id: str) -> Tuple[Proof, ...]:
        if delegation_id == delegation.id:
            return supports
        return store.supports_for(delegation_id)

    report = analyze(candidate, at=wallet.clock.now(),
                     revoked=store.is_revoked,
                     bases=store.base_allocations(), supports=lookup)
    return [finding for finding in report.findings
            if finding.severity.at_least(minimum)
            and delegation.id in finding.delegation_ids]
