"""Typed findings emitted by the static policy analyzer.

A :class:`Finding` is one defect report: which rule fired, how severe it
is, which delegations it implicates, and a hint about how to fix it. An
:class:`AnalysisReport` bundles everything one :func:`analyze` pass
produced, in deterministic order, with grouping and serialization
helpers the CLI/CI reporters build on.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


class Severity(str, Enum):
    """How bad a finding is; ordered ERROR > WARN > INFO."""

    ERROR = "error"
    WARN = "warn"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _RANKS[self]

    def at_least(self, threshold: "Severity") -> bool:
        """True iff this severity is at or above ``threshold``."""
        return self.rank >= threshold.rank

    @staticmethod
    def from_name(name: str) -> "Severity":
        try:
            return Severity(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{', '.join(s.value for s in Severity)}"
            ) from None


_RANKS = {Severity.INFO: 0, Severity.WARN: 1, Severity.ERROR: 2}


def exactness_mismatches(expected: Mapping[str, Iterable[str]],
                         found: Mapping[str, Iterable[str]]) -> List[str]:
    """Every plant found, nothing else flagged.

    ``expected`` and ``found`` map rule ids to the delegation ids (or
    ``path:line`` locators) each rule implicates; returns one
    description per rule whose two sets differ, with the ids in full.
    Empty means the report matches the ground truth id-for-id.
    """
    mismatches: List[str] = []
    for rule_id in sorted(set(expected) | set(found)):
        want = sorted(expected.get(rule_id, ()))
        got = sorted(found.get(rule_id, ()))
        if want != got:
            mismatches.append(f"rule {rule_id}: expected {want}, "
                              f"got {got}")
    return mismatches


@dataclass(frozen=True)
class Finding:
    """One defect detected by a static-analysis rule."""

    rule_id: str
    severity: Severity
    message: str
    delegation_ids: Tuple[str, ...] = ()
    fix_hint: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "delegations": list(self.delegation_ids),
            "fix_hint": self.fix_hint,
        }

    def __str__(self) -> str:
        ids = ", ".join(d[:12] for d in self.delegation_ids)
        return (f"{self.severity.value.upper():5s} {self.rule_id}: "
                f"{self.message}  [{ids}]")


@dataclass
class AnalysisReport:
    """Everything one analyzer pass found, plus run metadata."""

    findings: Tuple[Finding, ...]
    at: float
    edges: int
    rules_run: Tuple[str, ...] = ()
    elapsed_seconds: float = 0.0
    # Populated by the CLI when it knows which graph it analyzed.
    source: str = ""
    extras: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)

    def worst(self) -> Optional[Severity]:
        """The highest severity present, or None when clean."""
        if not self.findings:
            return None
        return max((f.severity for f in self.findings),
                   key=lambda s: s.rank)

    def fails(self, threshold: Severity) -> bool:
        """True iff any finding is at or above ``threshold``."""
        return any(f.severity.at_least(threshold) for f in self.findings)

    def ids_by_rule(self) -> Dict[str, Tuple[str, ...]]:
        """rule id -> sorted union of implicated delegation ids."""
        grouped: Dict[str, set] = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule_id, set()).update(
                finding.delegation_ids)
        return {rule: tuple(sorted(ids))
                for rule, ids in grouped.items()}

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "edges": self.edges,
            "source": self.source,
            "rules_run": list(self.rules_run),
            "elapsed_seconds": self.elapsed_seconds,
            "counts": {
                severity.value: self.count(severity)
                for severity in Severity
            },
            "findings": [f.to_dict() for f in self.findings],
        }
