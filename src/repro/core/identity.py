"""Entities: the PKI identities at the root of every dRBAC namespace.

From the paper (Section 2): "dRBAC does not distinguish between owners of
resources protected by the system and principals attempting to access them.
Both are termed *entities* and represented by a unique PKI public identity."

An :class:`Entity` is the public half -- a verification key plus a
human-readable nickname (the nickname is display-only; identity is the key
fingerprint). A :class:`Principal` couples an Entity with its signing key
and is what issuers use to mint delegations.
"""

import secrets
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.crypto.encoding import CanonicalMap
from repro.crypto.keys import (
    DEFAULT_ALGORITHM,
    KeyPair,
    PublicKey,
    generate_keypair,
)
from repro.crypto.pools import make_room

# Decoded entities, keyed by their complete content; bounded FIFO like
# ``keys._pk_intern``.
_ENTITY_INTERN_LIMIT = 4096
_entity_intern: dict = {}


@dataclass(frozen=True)
class Entity:
    """A public identity: the root of a role namespace.

    Equality and hashing are by key fingerprint only, so two Entity objects
    naming the same key are interchangeable regardless of nickname.
    """

    public_key: PublicKey
    nickname: str = ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entity):
            return NotImplemented
        return self.public_key.fingerprint == other.public_key.fingerprint

    def __hash__(self) -> int:
        return hash(self.public_key.fingerprint)

    @property
    def id(self) -> str:
        """The entity's globally unique identifier (key fingerprint)."""
        return self.public_key.fingerprint

    @property
    def display_name(self) -> str:
        """Nickname if present, else the short fingerprint."""
        return self.nickname or self.public_key.short_fingerprint

    def __str__(self) -> str:
        return self.display_name

    def __repr__(self) -> str:
        return f"Entity({self.display_name}, {self.public_key.short_fingerprint})"

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a signature allegedly produced by this entity."""
        return self.public_key.verify(message, signature)

    # Content-derived caches only (the map, the subject map, the graph
    # node key): an interned instance is shared by every decoder.

    def to_dict(self) -> dict:
        """The wire map, built and encoded once per instance."""
        cached = self.__dict__.get("_map")
        if cached is None:
            cached = CanonicalMap({"key": self.public_key.to_dict(),
                                   "nickname": self.nickname})
            object.__setattr__(self, "_map", cached)
        return cached

    def subject_map(self) -> dict:
        """The map a delegation carries for this entity as its subject."""
        cached = self.__dict__.get("_subject_map")
        if cached is None:
            cached = CanonicalMap({"kind": "entity",
                                   "entity": self.to_dict()})
            object.__setattr__(self, "_subject_map", cached)
        return cached

    @property
    def node_key(self) -> tuple:
        """This entity's graph-node key (see ``roles.subject_key``)."""
        cached = self.__dict__.get("_node_key")
        if cached is None:
            cached = ("entity", self.public_key.fingerprint)
            object.__setattr__(self, "_node_key", cached)
        return cached

    @staticmethod
    def from_dict(data: dict) -> "Entity":
        """Decode; equal content yields one shared instance per process
        (see :func:`entity_content_key`)."""
        intern_key = entity_content_key(data)
        entity = _entity_intern.get(intern_key) if intern_key else None
        if entity is None:
            entity = Entity(public_key=PublicKey.from_dict(data["key"]),
                            nickname=data.get("nickname", ""))
            if intern_key:
                make_room(_entity_intern, _ENTITY_INTERN_LIMIT)
                _entity_intern[intern_key] = entity
        return entity


def entity_content_key(data: dict) -> Optional[tuple]:
    """``(algorithm, key bytes, nickname)`` of an entity map whose
    fields have exactly those types (``str``, ``bytes``, ``str``), else
    None: such a map is decoded afresh, failing as it always did."""
    try:
        key, nickname = data["key"], data.get("nickname", "")
        algorithm, key_bytes = key["algorithm"], key["key"]
    except (KeyError, TypeError, AttributeError):
        return None
    if algorithm.__class__ is str and key_bytes.__class__ is bytes \
            and nickname.__class__ is str:
        return (algorithm, key_bytes, nickname)
    return None


@dataclass(frozen=True)
class Principal:
    """An entity together with its private signing key.

    Principals issue delegations and authenticate channel handshakes. The
    private key never leaves this object; everything that crosses a trust
    boundary carries only the :class:`Entity`.
    """

    entity: Entity
    keypair: KeyPair = field(repr=False)

    def __post_init__(self) -> None:
        if self.keypair.public.fingerprint != self.entity.id:
            raise ValueError("keypair does not match entity identity")

    @property
    def id(self) -> str:
        return self.entity.id

    @property
    def nickname(self) -> str:
        return self.entity.nickname

    def sign(self, message: bytes) -> bytes:
        return self.keypair.sign(message)

    def __str__(self) -> str:
        return self.entity.display_name


def create_principal(nickname: str = "",
                     algorithm: str = DEFAULT_ALGORITHM,
                     rng: Optional[secrets.SystemRandom] = None) -> Principal:
    """Mint a fresh principal with a new keypair.

    ``rng`` permits deterministic key generation in tests and workload
    generators (any object with ``randrange``/``getrandbits``).
    """
    keypair = generate_keypair(algorithm=algorithm, rng=rng)
    entity = Entity(public_key=keypair.public, nickname=nickname)
    return Principal(entity=entity, keypair=keypair)


class EntityDirectory:
    """A nickname -> Entity directory used by the text parser.

    The dRBAC wire format identifies entities by key; the human syntax in
    Tables 1-3 identifies them by nickname ("BigISP", "Maria"). The parser
    resolves nicknames through a directory such as this one. Nicknames must
    be unique within a directory.
    """

    def __init__(self, entities: Iterable[Entity] = ()) -> None:
        self._by_name: Dict[str, Entity] = {}
        for entity in entities:
            self.add(entity)

    def add(self, entity: Entity) -> None:
        name = entity.nickname
        if not name:
            raise ValueError("directory entries need a nickname")
        existing = self._by_name.get(name)
        if existing is not None and existing != entity:
            raise ValueError(f"nickname {name!r} already bound to a "
                             f"different entity")
        self._by_name[name] = entity

    def lookup(self, name: str) -> Entity:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown entity nickname {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def entities(self):
        """Iterate over all registered entities."""
        return iter(self._by_name.values())
