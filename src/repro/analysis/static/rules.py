"""The rule registry for the static policy analyzer.

Each rule is a named, documented check over an
:class:`~repro.analysis.static.context.AnalysisContext`. Rules register
themselves via the :func:`rule` decorator (in
:mod:`repro.analysis.static.checks`); the analyzer iterates the registry
in registration order, which keeps report ordering deterministic.
The repository's code linter (``tools/codelint``) keeps its own
registry and passes it to the same three functions.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.errors import DRBACError
from repro.analysis.static.findings import Finding, Severity


class RuleSelectionError(DRBACError):
    """An unknown rule id was passed to --rule/--ignore."""


@dataclass
class Rule:
    """One registered static-analysis rule."""

    id: str
    severity: Severity
    title: str
    fix_hint: str
    check: Callable = field(repr=False, default=None)

    def finding(self, delegation_ids: Iterable[str], message: str,
                severity: "Severity" = None,
                fix_hint: str = None) -> Finding:
        """Build a finding carrying this rule's defaults."""
        return Finding(
            rule_id=self.id,
            severity=self.severity if severity is None else severity,
            message=message,
            delegation_ids=tuple(delegation_ids),
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )


RULES: Dict[str, Rule] = {}


def rule(rule_id: str, severity: Severity, title: str, fix_hint: str,
         registry: Dict[str, Rule] = RULES) -> Callable:
    """Register a check function as a rule of ``registry`` (default:
    the policy analyzer's)."""
    def register(check: Callable) -> Callable:
        if rule_id in registry:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        registry[rule_id] = Rule(id=rule_id, severity=severity,
                                 title=title, fix_hint=fix_hint,
                                 check=check)
        return check
    return register


def select_rules(only: Iterable[str] = None,
                 ignore: Iterable[str] = None,
                 registry: Dict[str, Rule] = RULES) -> List[Rule]:
    """Resolve a rule selection, preserving registration order.

    ``only`` restricts the run to the named rules; ``ignore`` drops
    rules from whatever ``only`` (or the full registry) selected.
    Unknown ids raise :class:`RuleSelectionError`.
    """
    for name in list(only or ()) + list(ignore or ()):
        if name not in registry:
            known = ", ".join(registry)
            raise RuleSelectionError(
                f"unknown rule id {name!r} (known rules: {known})"
            )
    wanted = set(only) if only else set(registry)
    dropped = set(ignore or ())
    return [r for rid, r in registry.items()
            if rid in wanted and rid not in dropped]


def rule_catalog(registry: Dict[str, Rule] = RULES) -> Tuple[Rule, ...]:
    """Every registered rule, in registration order."""
    return tuple(registry.values())
