"""A KeyNote-style trust-management engine (Blaze et al. [2]).

Section 6: "Trust-management systems such as PolicyMaker, KeyNote, and
Taos permit expression of complex distributed trust relationships. These
systems can in principle be used to support distributed access control,
but need to be extended with credential discovery and revocation
mechanisms."

This baseline implements the KeyNote core faithfully enough to make that
comparison concrete:

* **assertions** ``authorizer -> licensees if conditions`` where the
  authorizer is a key (or the local ``POLICY`` root), the licensee
  expression combines keys with ``&&`` / ``||`` / parentheses, and the
  conditions are a boolean expression over the *action environment*
  (string/number attributes of the requested action);
* **signatures**: non-POLICY assertions are signed by their authorizer
  key using the same crypto substrate as dRBAC;
* **compliance checking**: monotone fixpoint -- the request is approved
  iff POLICY transitively delegates to the requesting principal set
  under the given action environment.

What it deliberately lacks -- per the paper's point -- is everything
dRBAC's infrastructure adds: there is no credential discovery (callers
must hand the checker every assertion) and no revocation or monitoring
(assertions are valid until expiry of the whole session).
"""

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.identity import Entity, Principal
from repro.crypto.encoding import canonical_encode

POLICY = "POLICY"

Value = Union[str, float, int]


class KeyNoteError(ValueError):
    """Malformed assertion, expression, or environment."""


# ---------------------------------------------------------------------------
# Expression language (licensees and conditions)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<and>&&)
  | (?P<or>\|\|)
  | (?P<not>!(?!=))
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<op><=|>=|==|!=|<|>)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>"[^"]*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
""", re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise KeyNoteError(
                f"bad character {text[position]!r} in expression {text!r}"
            )
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group()))
        position = match.end()
    tokens.append(("eof", ""))
    return tokens


class _ExprParser:
    """Shared parser: licensee expressions resolve names against a
    truth assignment; condition expressions against an environment."""

    def __init__(self, text: str) -> None:
        self._tokens = _tokenize(text)
        self._index = 0

    def _peek(self) -> Tuple[str, str]:
        return self._tokens[self._index]

    def _next(self) -> Tuple[str, str]:
        token = self._tokens[self._index]
        if token[0] != "eof":
            self._index += 1
        return token

    def _expect(self, kind: str) -> Tuple[str, str]:
        token = self._next()
        if token[0] != kind:
            raise KeyNoteError(f"expected {kind}, got {token}")
        return token

    # boolean grammar:  or_expr := and_expr ('||' and_expr)*
    #                   and_expr := unary ('&&' unary)*
    #                   unary := '!' unary | '(' or_expr ')' | atom
    def parse(self, atom) -> bool:
        result = self._or(atom)
        if self._peek()[0] != "eof":
            raise KeyNoteError(f"trailing tokens in expression")
        return result

    def _or(self, atom) -> bool:
        result = self._and(atom)
        while self._peek()[0] == "or":
            self._next()
            right = self._and(atom)
            result = result or right
        return result

    def _and(self, atom) -> bool:
        result = self._unary(atom)
        while self._peek()[0] == "and":
            self._next()
            right = self._unary(atom)
            result = result and right
        return result

    def _unary(self, atom) -> bool:
        kind, _text = self._peek()
        if kind == "not":
            self._next()
            return not self._unary(atom)
        if kind == "lparen":
            self._next()
            result = self._or(atom)
            self._expect("rparen")
            return result
        return atom(self)


def _licensee_atom(truth: Dict[str, bool]):
    def atom(parser: _ExprParser) -> bool:
        kind, text = parser._next()
        if kind != "name":
            raise KeyNoteError(f"licensee atom must be a key name, "
                               f"got {text!r}")
        return truth.get(text, False)
    return atom


def _condition_atom(env: Dict[str, Value]):
    def read_value(parser: _ExprParser) -> Value:
        kind, text = parser._next()
        if kind == "number":
            return float(text)
        if kind == "string":
            return text[1:-1]
        if kind == "name":
            if text not in env:
                raise KeyNoteError(f"unbound attribute {text!r}")
            return env[text]
        raise KeyNoteError(f"expected value, got {text!r}")

    def atom(parser: _ExprParser) -> bool:
        left = read_value(parser)
        kind, op = parser._peek()
        if kind != "op":
            # Bare truthiness: "true"/"false" strings or nonzero numbers.
            if isinstance(left, str):
                return left.lower() == "true"
            return bool(left)
        parser._next()
        right = read_value(parser)
        if isinstance(left, str) != isinstance(right, str):
            if op == "==":
                return False
            if op == "!=":
                return True
            raise KeyNoteError(
                f"ordered comparison across types: {left!r} {op} {right!r}"
            )
        return {
            "==": left == right, "!=": left != right,
            "<": left < right, "<=": left <= right,
            ">": left > right, ">=": left >= right,
        }[op]
    return atom


def evaluate_licensees(expression: str, truth: Dict[str, bool]) -> bool:
    return _ExprParser(expression).parse(_licensee_atom(truth))


def evaluate_conditions(expression: str, env: Dict[str, Value]) -> bool:
    if not expression.strip():
        return True
    return _ExprParser(expression).parse(_condition_atom(env))


# ---------------------------------------------------------------------------
# Assertions and compliance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyNoteAssertion:
    """``authorizer`` delegates to ``licensees`` when ``conditions``
    hold over the action environment."""

    authorizer: str                   # key name or POLICY
    licensees: str                    # boolean expression over key names
    conditions: str = ""
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        return canonical_encode({
            "authorizer": self.authorizer,
            "licensees": self.licensees,
            "conditions": self.conditions,
        })

    @property
    def is_policy(self) -> bool:
        return self.authorizer == POLICY


class KeyNoteSystem:
    """A compliance checker over registered keys and assertions."""

    def __init__(self) -> None:
        self._keys: Dict[str, Entity] = {}
        self._assertions: List[KeyNoteAssertion] = []

    # -- setup -----------------------------------------------------------

    def register_key(self, name: str, entity: Entity) -> None:
        if name == POLICY:
            raise KeyNoteError("POLICY is reserved")
        existing = self._keys.get(name)
        if existing is not None and existing != entity:
            raise KeyNoteError(f"key name {name!r} already bound")
        self._keys[name] = entity

    def add_policy(self, licensees: str, conditions: str = ""
                   ) -> KeyNoteAssertion:
        """An unsigned local root assertion."""
        assertion = KeyNoteAssertion(authorizer=POLICY,
                                     licensees=licensees,
                                     conditions=conditions)
        self._assertions.append(assertion)
        return assertion

    def add_assertion(self, principal: Principal, name: str,
                      licensees: str, conditions: str = ""
                      ) -> KeyNoteAssertion:
        """A signed assertion by a registered key."""
        if self._keys.get(name) != principal.entity:
            raise KeyNoteError(
                f"{name!r} is not registered to this principal")
        unsigned = KeyNoteAssertion(authorizer=name, licensees=licensees,
                                    conditions=conditions)
        assertion = KeyNoteAssertion(
            authorizer=name, licensees=licensees, conditions=conditions,
            signature=principal.sign(unsigned.signing_bytes()))
        self._assertions.append(assertion)
        return assertion

    def accept_assertion(self, assertion: KeyNoteAssertion) -> bool:
        """Accept an externally supplied signed assertion (the caller
        'hands the checker every assertion' -- there is no discovery)."""
        if assertion.is_policy:
            raise KeyNoteError("POLICY assertions are local only")
        entity = self._keys.get(assertion.authorizer)
        if entity is None:
            return False
        if not entity.verify(assertion.signing_bytes(),
                             assertion.signature):
            return False
        self._assertions.append(assertion)
        return True

    # -- compliance -------------------------------------------------------

    def check(self, requesters: Iterable[str],
              env: Optional[Dict[str, Value]] = None) -> bool:
        """Monotone fixpoint compliance: is POLICY satisfied?"""
        env = env or {}
        truth: Dict[str, bool] = {name: False for name in self._keys}
        truth[POLICY] = False
        for requester in requesters:
            if requester not in self._keys:
                raise KeyNoteError(f"unknown requester {requester!r}")
            truth[requester] = True
        active = [
            assertion for assertion in self._assertions
            if evaluate_conditions(assertion.conditions, env)
        ]
        changed = True
        while changed:
            changed = False
            for assertion in active:
                if truth.get(assertion.authorizer):
                    continue
                if evaluate_licensees(assertion.licensees, truth):
                    truth[assertion.authorizer] = True
                    changed = True
        return truth[POLICY]
