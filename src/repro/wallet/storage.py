"""The wallet's persistent state.

Separating state from behavior keeps :class:`~repro.wallet.wallet.Wallet`
focused on the publication/query/monitor protocol while this module owns:

* the delegation graph (see :mod:`repro.graph.delegation_graph`);
* stored support proofs, keyed by the third-party delegation they
  authorize ("issuers of third party delegations also must provide
  authorizing support proofs", Section 4.1);
* accepted revocations;
* base attribute allocations for roles/resources this wallet is
  authoritative for (the values the case study's aggregation starts from:
  BW 200, storage 50, hours 60).

State round-trips through the canonical encoding for on-disk persistence.
"""

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.core.attributes import AttributeRef
from repro.core.delegation import Delegation, Revocation
from repro.core.errors import DRBACError, PublicationError
from repro.core.identity import Entity
from repro.core.proof import Proof
from repro.crypto.encoding import canonical_decode, canonical_encode
from repro.graph.delegation_graph import DelegationGraph


class WalletStore:
    """All durable state of one wallet."""

    def __init__(self) -> None:
        self.graph = DelegationGraph()
        self._supports: Dict[str, Tuple[Proof, ...]] = {}
        self._revocations: Dict[str, Revocation] = {}
        self._bases: Dict[AttributeRef, float] = {}

    # -- delegations ------------------------------------------------------

    def add_delegation(self, delegation: Delegation,
                       supports: Tuple[Proof, ...] = ()) -> bool:
        """Insert a delegation with its support proofs; False if present."""
        inserted = self.graph.add(delegation)
        if supports:
            existing = self._supports.get(delegation.id, ())
            merged = list(existing)
            for proof in supports:
                if proof not in merged:
                    merged.append(proof)
            self._supports[delegation.id] = tuple(merged)
        return inserted

    def remove_delegation(self, delegation_id: str) -> Optional[Delegation]:
        self._supports.pop(delegation_id, None)
        return self.graph.remove(delegation_id)

    def get_delegation(self, delegation_id: str) -> Optional[Delegation]:
        return self.graph.get(delegation_id)

    def find_delegation(self, delegation_id: str) -> Optional[Delegation]:
        """The held copy of a delegation: the stored one, else a link of
        a stored support proof."""
        delegation = self.graph.get(delegation_id)
        if delegation is not None:
            return delegation
        for proofs in self._supports.values():
            for proof in proofs:
                for link in proof.all_delegations():
                    if link.id == delegation_id:
                        return link
        return None

    def delegations(self) -> Iterator[Delegation]:
        return iter(self.graph)

    def __len__(self) -> int:
        return len(self.graph)

    # -- support proofs -------------------------------------------------------

    def supports_for(self, delegation_id: str) -> Tuple[Proof, ...]:
        return self._supports.get(delegation_id, ())

    def add_supports(self, delegation_id: str,
                     proofs: Iterable[Proof]) -> int:
        """Attach additional support proofs to a held delegation
        (support re-discovery, Section 4.2.1). Returns proofs added."""
        existing = list(self._supports.get(delegation_id, ()))
        added = 0
        for proof in proofs:
            if proof not in existing:
                existing.append(proof)
                added += 1
        if existing:
            self._supports[delegation_id] = tuple(existing)
        return added

    # -- revocations -----------------------------------------------------------

    def add_revocation(self, revocation: Revocation) -> bool:
        """Record a verified revocation; False if already known."""
        if revocation.delegation_id in self._revocations:
            return False
        self._revocations[revocation.delegation_id] = revocation
        return True

    def is_revoked(self, delegation_id: str) -> bool:
        return delegation_id in self._revocations

    def revocation_for(self, delegation_id: str) -> Optional[Revocation]:
        return self._revocations.get(delegation_id)

    def revocations(self) -> Iterator[Revocation]:
        return iter(self._revocations.values())

    # -- base allocations -----------------------------------------------------

    def set_base(self, attribute: AttributeRef, value: float) -> None:
        """Declare the base allocation for an attribute this wallet's
        owner is authoritative for."""
        self._bases[attribute] = float(value)

    def base_allocations(self) -> Dict[AttributeRef, float]:
        return dict(self._bases)

    # -- persistence --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the full store with the canonical encoding."""
        payload = {
            "v": 1,
            "delegations": [d.to_dict() for d in self.graph],
            "supports": {
                delegation_id: [p.to_dict() for p in proofs]
                for delegation_id, proofs in self._supports.items()
            },
            "revocations": [r.to_dict() for r in self._revocations.values()],
            "bases": [
                {
                    "entity": attribute.entity.to_dict(),
                    "name": attribute.name,
                    "value": value,
                }
                for attribute, value in self._bases.items()
            ],
        }
        return canonical_encode(payload)

    @staticmethod
    def from_bytes(data: bytes) -> "WalletStore":
        """Restore a store; every delegation's signature is re-verified.

        The signature checks run as one batch
        (:func:`repro.core.delegation.verify_signatures` -- memo lookups
        plus a single random-linear-combination multi-scalar
        multiplication for everything still cold). On any failure the
        offending certificates are re-checked individually, so error
        messages and ordering (delegations before revocations, input
        order within each) match the sequential path exactly.

        Decoders intern repeated atoms, keys, entities and roles, so a
        store of many certificates from a few issuers decodes each
        distinct value once.  A malformed store raises
        :class:`PublicationError`.
        """
        try:
            return WalletStore._restore(data)
        except PublicationError:
            raise
        except (DRBACError, AttributeError, KeyError, TypeError,
                ValueError) as exc:     # EncodingError is a ValueError
            raise PublicationError(
                f"malformed wallet store: {type(exc).__name__}: {exc}"
            ) from exc

    @staticmethod
    def _restore(data: bytes) -> "WalletStore":
        from repro.core.delegation import verify_signatures
        payload = canonical_decode(data)
        if not isinstance(payload, dict) or payload.get("v") != 1:
            raise PublicationError("unrecognized wallet store format")
        store = WalletStore()
        delegations = [Delegation.from_dict(record)
                       for record in payload.get("delegations", ())]
        revocations = [Revocation.from_dict(record)
                       for record in payload.get("revocations", ())]
        verdicts = verify_signatures(list(delegations) + list(revocations))
        for delegation, verdict in zip(delegations, verdicts):
            if not verdict and not delegation.verify_signature():
                raise PublicationError(
                    f"stored delegation {delegation.short_id} fails "
                    f"signature verification"
                )
            store.graph.add(delegation)
        for delegation_id, proofs in payload.get("supports", {}).items():
            store._supports[delegation_id] = tuple(
                Proof.from_dict(p) for p in proofs
            )
        for revocation, verdict in zip(revocations,
                                       verdicts[len(delegations):]):
            if not verdict and not revocation.verify_standalone():
                raise PublicationError(
                    "stored revocation fails signature verification"
                )
            store._revocations[revocation.delegation_id] = revocation
        for record in payload.get("bases", ()):
            attribute = AttributeRef(
                entity=Entity.from_dict(record["entity"]),
                name=record["name"],
            )
            store._bases[attribute] = record["value"]
        return store

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @staticmethod
    def load(path: str) -> "WalletStore":
        with open(path, "rb") as handle:
            return WalletStore.from_bytes(handle.read())
