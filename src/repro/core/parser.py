"""Parser and formatter for the dRBAC concrete syntax of Tables 1-3.

Accepted grammar (whitespace-insensitive)::

    delegation  := '[' term '->' term with_clause? ']' issuer annotation*
    term        := NAME tag? ('.' NAME (tick* | op '=' tick+) tag?)?
    with_clause := 'with' modifier ('and' modifier)*
    modifier    := NAME '.' NAME op '=' NUMBER
    issuer      := NAME tag?
    annotation  := '<expiry:' NUMBER '>' | '<acting as' role (',' role)* '>'
    tag         := '<' home ':' authRole ':' ttl ':' flags '>'
    op          := '-' | '*' | '<'
    tick        := "'"

Both ASCII ``->`` and the paper's arrow ``→`` are accepted. Examples,
straight from the paper::

    [Mark -> BigISP.memberServices] BigISP
    [BigISP.memberServices -> BigISP.member'] BigISP
    [Maria -> BigISP.member] Mark
    [BigISP.member -> AirNet.member with AirNet.BW <= 100
        and AirNet.storage -= 20] Sheila
    [AirNet.mktg -> AirNet.storage -= '] AirNet
    [bigISP.member<wallet.bigISP.com:bigISP.wallet:30:So> -> x.y] bigISP

Entity nicknames are resolved to PKI identities through an
:class:`~repro.core.identity.EntityDirectory`; the result of
:func:`parse_delegation` is an *unsigned* delegation (the text form cannot
carry a signature), typically handed to :func:`parse_and_issue` which signs
it with the issuer's key.
"""

import re
from typing import Iterable, List, Optional, Tuple

from repro.core.attributes import (
    AttributeRef,
    Modifier,
    ModifierSet,
    Operator,
    _format_number,
)
from repro.core.delegation import Delegation, issue
from repro.core.errors import ParseError
from repro.core.identity import Entity, EntityDirectory, Principal
from repro.core.roles import Role, Subject
from repro.core.tags import DiscoveryTag

ARROW_TOKENS = ("->", "→")

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<arrow>->|→)
  | (?P<tick>')
  | (?P<dot>\.)
  | (?P<comma>,)
  | (?P<op>-=|\*=|<=)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|inf)
  | (?P<name>[A-Za-z_](?:[A-Za-z0-9_]|-(?![>=]))*)
  | (?P<langle><)
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r}@{self.pos})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        kind = match.lastgroup
        raw = match.group()
        if kind == "langle":
            # '<' not followed by '=': an angle-bracket annotation (a
            # discovery tag, expiry, or acting-as clause). Capture to '>'.
            end = text.find(">", pos)
            if end == -1:
                raise ParseError(f"unterminated '<' at position {pos}")
            tokens.append(_Token("angle", text[pos + 1:end], pos))
            pos = end + 1
            continue
        pos = match.end()
        if kind == "ws":
            continue
        tokens.append(_Token(kind, raw, match.start()))
    tokens.append(_Token("eof", "", length))
    return tokens


class _Parser:
    def __init__(self, text: str, directory: EntityDirectory) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0
        self._directory = directory

    # -- token plumbing --------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} at position {token.pos}, "
                f"found {token.kind} ({token.text!r}) in {self._text!r}"
            )
        return self._advance()

    def _accept(self, kind: str) -> Optional[_Token]:
        if self._peek().kind == kind:
            return self._advance()
        return None

    # -- grammar ---------------------------------------------------------

    def parse_delegation(self) -> Delegation:
        self._expect("lbracket")
        subject, subject_tag = self._parse_term()
        self._expect("arrow")
        obj, object_tag = self._parse_term()
        if not isinstance(obj, Role):
            raise ParseError(
                f"delegation object must be a role, got entity "
                f"{obj.display_name!r}"
            )
        modifiers = self._parse_with_clause()
        self._expect("rbracket")
        issuer_name = self._expect("name").text
        issuer = self._lookup(issuer_name)
        issuer_tag: Optional[DiscoveryTag] = None
        expiry: Optional[float] = None
        depth_limit: Optional[int] = None
        acting_as: Tuple[Role, ...] = ()
        while True:
            angle = self._accept("angle")
            if angle is None:
                break
            body = angle.text.strip()
            if body.startswith("expiry:"):
                expiry = self._parse_number_text(
                    body[len("expiry:"):].strip(), angle.pos
                )
            elif body.startswith("depth:"):
                depth_limit = int(self._parse_number_text(
                    body[len("depth:"):].strip(), angle.pos
                ))
            elif body.startswith("acting as"):
                acting_as = self._parse_acting_as(
                    body[len("acting as"):].strip()
                )
            else:
                if issuer_tag is not None:
                    raise ParseError(
                        f"duplicate issuer discovery tag at {angle.pos}"
                    )
                issuer_tag = DiscoveryTag.parse(body)
        self._expect("eof")
        return Delegation(
            subject=subject, obj=obj, issuer=issuer,
            modifiers=modifiers, expiry=expiry,
            subject_tag=subject_tag, object_tag=object_tag,
            issuer_tag=issuer_tag, acting_as=acting_as,
            depth_limit=depth_limit,
        )

    def _parse_term(self) -> Tuple[Subject, Optional[DiscoveryTag]]:
        name = self._expect("name").text
        entity = self._lookup(name)
        tag = self._parse_optional_tag()
        if self._accept("dot") is None:
            return entity, tag
        local = self._expect("name").text
        token = self._peek()
        if token.kind == "op":
            op_token = self._advance().text
            operator = Operator.from_token(op_token)
            ticks = self._count_ticks()
            if ticks == 0:
                raise ParseError(
                    f"attribute right {name}.{local} {op_token} needs at "
                    f"least one tick in subject/object position"
                )
            role = Role(entity=entity, name=local, ticks=ticks,
                        operator=operator)
        else:
            ticks = self._count_ticks()
            role = Role(entity=entity, name=local, ticks=ticks)
        late_tag = self._parse_optional_tag()
        if late_tag is not None:
            if tag is not None:
                raise ParseError(f"duplicate discovery tag on {role}")
            tag = late_tag
        return role, tag

    def _parse_optional_tag(self) -> Optional[DiscoveryTag]:
        token = self._peek()
        if token.kind != "angle":
            return None
        body = token.text.strip()
        if body.startswith("expiry:") or body.startswith("acting as") \
                or body.startswith("depth:"):
            return None
        self._advance()
        return DiscoveryTag.parse(body)

    def _count_ticks(self) -> int:
        count = 0
        while self._accept("tick") is not None:
            count += 1
        return count

    def _parse_with_clause(self) -> ModifierSet:
        if self._peek().kind != "name" or self._peek().text != "with":
            return ModifierSet.identity()
        self._advance()
        modifiers = [self._parse_modifier()]
        while self._peek().kind == "name" and self._peek().text == "and":
            self._advance()
            modifiers.append(self._parse_modifier())
        return ModifierSet(modifiers)

    def _parse_modifier(self) -> Modifier:
        entity_name = self._expect("name").text
        entity = self._lookup(entity_name)
        self._expect("dot")
        attr_name = self._expect("name").text
        op_token = self._expect("op").text
        operator = Operator.from_token(op_token)
        number = self._expect("number")
        value = self._parse_number_text(number.text, number.pos)
        return Modifier(
            attribute=AttributeRef(entity=entity, name=attr_name),
            operator=operator, value=value,
        )

    def _parse_acting_as(self, body: str) -> Tuple[Role, ...]:
        roles = []
        for part in body.split(","):
            part = part.strip()
            if not part:
                raise ParseError("empty role in acting-as clause")
            roles.append(parse_role(part, self._directory))
        return tuple(roles)

    def _parse_number_text(self, text: str, pos: int) -> float:
        try:
            return float(text)
        except ValueError:
            raise ParseError(
                f"bad number {text!r} at position {pos}"
            ) from None

    def _lookup(self, name: str) -> Entity:
        try:
            return self._directory.lookup(name)
        except KeyError as exc:
            raise ParseError(str(exc)) from exc


def parse_delegation(text: str, directory: EntityDirectory) -> Delegation:
    """Parse a delegation string into an *unsigned* Delegation.

    Entity nicknames are resolved via ``directory``. The returned
    delegation has an empty signature; sign it by re-issuing through
    :func:`parse_and_issue`.
    """
    return _Parser(text, directory).parse_delegation()


def parse_and_issue(text: str, principal: Principal,
                    directory: EntityDirectory,
                    issued_at: Optional[float] = None) -> Delegation:
    """Parse ``text`` and sign it with ``principal``'s key.

    The issuer named in the text must be ``principal``'s entity; anything
    else would mint a certificate the named issuer never made.
    """
    template = parse_delegation(text, directory)
    if template.issuer != principal.entity:
        raise ParseError(
            f"text names issuer {template.issuer.display_name!r} but the "
            f"signing principal is {principal.entity.display_name!r}"
        )
    return issue(
        principal,
        subject=template.subject,
        obj=template.obj,
        modifiers=template.modifiers,
        expiry=template.expiry,
        issued_at=issued_at,
        subject_tag=template.subject_tag,
        object_tag=template.object_tag,
        issuer_tag=template.issuer_tag,
        acting_as=template.acting_as,
    )


def parse_role(text: str, directory: EntityDirectory) -> Role:
    """Parse a standalone role like ``BigISP.member'`` or
    ``AirNet.storage -= '``."""
    tokens = _tokenize(text)
    parser = _Parser.__new__(_Parser)
    parser._text = text
    parser._tokens = tokens
    parser._index = 0
    parser._directory = directory
    term, _tag = parser._parse_term()
    parser._expect("eof")
    if not isinstance(term, Role):
        raise ParseError(f"{text!r} names an entity, not a role")
    return term


def format_delegation(delegation: Delegation) -> str:
    """Render a delegation in the paper's concrete syntax.

    Round-trips: ``parse_delegation(format_delegation(d), directory)``
    reproduces ``d`` up to the signature for any ``d`` whose entity
    nicknames are unique in ``directory``.
    """
    parts = ["["]
    parts.append(_format_term(delegation.subject, delegation.subject_tag))
    parts.append(" -> ")
    parts.append(_format_term(delegation.obj, delegation.object_tag))
    if len(delegation.modifiers):
        parts.append(f" with {delegation.modifiers}")
    parts.append("] ")
    parts.append(delegation.issuer.display_name)
    if delegation.issuer_tag is not None:
        parts.append(str(delegation.issuer_tag))
    if delegation.expiry is not None:
        parts.append(f" <expiry: {_format_number(delegation.expiry)}>")
    if delegation.depth_limit is not None:
        parts.append(f" <depth: {delegation.depth_limit}>")
    if delegation.acting_as:
        roles = ", ".join(str(role) for role in delegation.acting_as)
        parts.append(f" <acting as {roles}>")
    return "".join(parts)


def _format_term(term: Subject, tag: Optional[DiscoveryTag]) -> str:
    text = str(term)
    if tag is not None:
        text += str(tag)
    return text


def parse_many(texts: Iterable[str],
               directory: EntityDirectory) -> List[Delegation]:
    """Parse a batch of delegation strings (all unsigned)."""
    return [parse_delegation(text, directory) for text in texts]
