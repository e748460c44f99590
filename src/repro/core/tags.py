"""Discovery tags: credential annotations that direct distributed search.

Defined here in the core because Table 2 makes tags part of the certificate
syntax; the distributed search machinery that *interprets* them lives in
:mod:`repro.discovery`. From Section 4.2.1, a tag annotating a subject,
object, or issuer carries:

* the Internet address of the entity's (or role's) authorized **home
  wallet** (e.g. ``wallet.bigISP.com``);
* a dRBAC **role required to authorize** the home wallet and its proxies
  (e.g. ``bigISP.wallet``);
* a **TTL**: how long a delegation stays valid after its home wallet
  confirms it (0 means the delegation does not require monitoring);
* two ternary **discovery search flags**:

  - subject flag ``-`` / ``s`` / ``S``: ``s`` (*store with subject*) and
    ``S`` (*search from subject*) require delegations with this subject to
    be stored in its home wallet; ``S`` additionally requires every object
    role the subject can be granted to also be of type ``S`` -- which is
    what makes forward search complete;
  - object flag ``-`` / ``o`` / ``O``: mirror-image semantics for reverse
    search.

Concrete syntax (paper example)::

    bigISP.member<wallet.bigISP.com:bigISP.wallet:30:So>
"""

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.core.errors import ParseError
from repro.crypto.encoding import CanonicalMap
from repro.crypto.pools import make_room

# Decoded tags, keyed by their normalized fields; bounded FIFO like
# ``keys._pk_intern``.
_TAG_INTERN_LIMIT = 4096
_tag_intern: dict = {}


class SubjectFlag(str, Enum):
    """Ternary subject-discovery flag."""

    NONE = "-"
    STORE = "s"     # delegations stored with subject's home wallet
    SEARCH = "S"    # stored, and closed under forward search

    @property
    def stores_at_home(self) -> bool:
        return self is not SubjectFlag.NONE

    @property
    def searchable(self) -> bool:
        return self is SubjectFlag.SEARCH


class ObjectFlag(str, Enum):
    """Ternary object-discovery flag."""

    NONE = "-"
    STORE = "o"     # delegations stored with object's home wallet
    SEARCH = "O"    # stored, and closed under reverse search

    @property
    def stores_at_home(self) -> bool:
        return self is not ObjectFlag.NONE

    @property
    def searchable(self) -> bool:
        return self is ObjectFlag.SEARCH


@dataclass(frozen=True)
class DiscoveryTag:
    """Annotation directing where delegations about a name are stored.

    ``auth_role_name`` is the qualified name of the dRBAC role that
    authorizes the home wallet host (kept as a name here; the discovery
    engine resolves and checks it). ``ttl`` is in seconds.
    """

    home: str
    auth_role_name: str = ""
    ttl: float = 0.0
    subject_flag: SubjectFlag = SubjectFlag.NONE
    object_flag: ObjectFlag = ObjectFlag.NONE

    def __post_init__(self) -> None:
        if not self.home:
            raise ParseError("discovery tag requires a home wallet address")
        # Both are names the origin routes and authorizes by.
        if not isinstance(self.home, str) \
                or not isinstance(self.auth_role_name, str):
            raise ParseError("a discovery tag's home and role are names")
        # The wire decodes a TTL as a float, so a tag signs as one too:
        # ``ttl=30`` must not change the bytes of a round trip.
        object.__setattr__(self, "ttl", float(self.ttl))
        if self.ttl < 0:
            raise ParseError("discovery tag TTL cannot be negative")

    @property
    def requires_monitoring(self) -> bool:
        """Zero TTL marks delegations that do not require monitoring."""
        return self.ttl > 0

    @property
    def flags(self) -> str:
        return f"{self.subject_flag.value}{self.object_flag.value}"

    def __str__(self) -> str:
        ttl = int(self.ttl) if self.ttl == int(self.ttl) else self.ttl
        return f"<{self.home}:{self.auth_role_name}:{ttl}:{self.flags}>"

    def to_dict(self) -> dict:
        """The wire map, built and encoded once per instance (the only
        cache a tag holds: an interned tag is shared)."""
        cached = self.__dict__.get("_map")
        if cached is None:
            cached = CanonicalMap({
                "home": self.home,
                "auth_role": self.auth_role_name,
                "ttl": self.ttl,
                "flags": self.flags,
            })
            object.__setattr__(self, "_map", cached)
        return cached

    @staticmethod
    def from_dict(data: dict) -> "DiscoveryTag":
        """Decode; equal fields yield one shared instance per process.
        Exact ``str`` fields and an ``int`` or ``float`` TTL (300 and
        300.0 make the same tag) are interned; anything else takes the
        plain path."""
        home = data["home"]
        auth_role_name = data.get("auth_role", "")
        ttl = data.get("ttl", 0.0)
        flags = data.get("flags", "--")
        exact = home.__class__ is str and auth_role_name.__class__ is str \
            and flags.__class__ is str \
            and (ttl.__class__ is float or ttl.__class__ is int)
        intern_key = (home, auth_role_name, ttl, flags)
        tag = _tag_intern.get(intern_key) if exact else None
        if tag is None:
            tag = parse_tag_fields(home, auth_role_name, ttl, flags)
            if exact:
                make_room(_tag_intern, _TAG_INTERN_LIMIT)
                _tag_intern[intern_key] = tag
        return tag

    @staticmethod
    def parse(text: str) -> "DiscoveryTag":
        """Parse the ``<home:authRole:ttl:flags>`` concrete syntax."""
        body = text.strip()
        if body.startswith("<") and body.endswith(">"):
            body = body[1:-1]
        parts = body.split(":")
        if len(parts) != 4:
            raise ParseError(
                f"discovery tag needs 4 ':'-separated fields, got {text!r}"
            )
        home, auth_role, ttl_text, flags = (part.strip() for part in parts)
        try:
            ttl = float(ttl_text)
        except ValueError:
            raise ParseError(f"bad TTL {ttl_text!r} in discovery tag") from None
        return parse_tag_fields(home, auth_role, ttl, flags)


def parse_tag_fields(home: str, auth_role_name: str, ttl: float,
                     flags: str) -> DiscoveryTag:
    """Build a tag from raw fields, validating the two-character flags."""
    if len(flags) != 2:
        raise ParseError(f"discovery flags must be 2 characters, got {flags!r}")
    try:
        subject_flag = SubjectFlag(flags[0])
    except ValueError:
        raise ParseError(f"bad subject discovery flag {flags[0]!r}") from None
    try:
        object_flag = ObjectFlag(flags[1])
    except ValueError:
        raise ParseError(f"bad object discovery flag {flags[1]!r}") from None
    return DiscoveryTag(home=home, auth_role_name=auth_role_name,
                        ttl=ttl, subject_flag=subject_flag,
                        object_flag=object_flag)


def searchable_forward(tag: Optional[DiscoveryTag]) -> bool:
    """True iff a subject bearing ``tag`` supports forward search."""
    return tag is not None and tag.subject_flag.searchable


def searchable_reverse(tag: Optional[DiscoveryTag]) -> bool:
    """True iff an object bearing ``tag`` supports reverse search."""
    return tag is not None and tag.object_flag.searchable
