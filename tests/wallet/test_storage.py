import pytest

from repro.core import (
    AttributeRef,
    Proof,
    PublicationError,
    Role,
    issue,
    revoke,
)
from repro.wallet.storage import WalletStore


@pytest.fixture()
def store():
    return WalletStore()


class TestDelegations:
    def test_add_and_get(self, store, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        assert store.add_delegation(d)
        assert store.get_delegation(d.id) == d
        assert len(store) == 1

    def test_duplicate_add(self, store, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        store.add_delegation(d)
        assert not store.add_delegation(d)

    def test_remove_clears_supports(self, store, table1):
        store.add_delegation(table1.d3_maria_member,
                             (table1.support_proof,))
        store.remove_delegation(table1.d3_maria_member.id)
        assert store.supports_for(table1.d3_maria_member.id) == ()

    def test_supports_merge_without_duplicates(self, store, table1):
        store.add_delegation(table1.d3_maria_member,
                             (table1.support_proof,))
        store.add_delegation(table1.d3_maria_member,
                             (table1.support_proof,))
        assert len(store.supports_for(table1.d3_maria_member.id)) == 1


class TestRevocations:
    def test_add_and_check(self, store, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        r = revoke(org, d, revoked_at=1.0)
        assert store.add_revocation(r)
        assert store.is_revoked(d.id)
        assert store.revocation_for(d.id) == r
        assert not store.add_revocation(r)


class TestBases:
    def test_set_and_read(self, store, org):
        attr = AttributeRef(org.entity, "q")
        store.set_base(attr, 7)
        assert store.base_allocations() == {attr: 7.0}


class TestPersistence:
    def _populated(self, table1, org):
        store = WalletStore()
        store.add_delegation(table1.d1_mark_services)
        store.add_delegation(table1.d2_services_assign)
        store.add_delegation(table1.d3_maria_member,
                             (table1.support_proof,))
        store.add_revocation(
            revoke(table1.big_isp, table1.d1_mark_services,
                   revoked_at=9.0))
        store.set_base(AttributeRef(org.entity, "q"), 5.0)
        return store

    def test_bytes_round_trip(self, table1, org):
        store = self._populated(table1, org)
        restored = WalletStore.from_bytes(store.to_bytes())
        assert len(restored) == len(store)
        assert restored.is_revoked(table1.d1_mark_services.id)
        assert len(restored.supports_for(table1.d3_maria_member.id)) == 1
        assert restored.base_allocations() == store.base_allocations()

    def test_file_round_trip(self, table1, org, tmp_path):
        store = self._populated(table1, org)
        path = str(tmp_path / "wallet.bin")
        store.save(path)
        restored = WalletStore.load(path)
        assert len(restored) == len(store)

    def test_tampered_delegation_rejected(self, table1, org):
        store = self._populated(table1, org)
        blob = bytearray(store.to_bytes())
        # Flip one byte inside a signature region; decoding will either
        # fail structurally or fail signature verification.
        for index in range(len(blob) - 1, 0, -1):
            candidate = bytearray(blob)
            candidate[index] ^= 0xFF
            try:
                WalletStore.from_bytes(bytes(candidate))
            except Exception:
                return  # rejected, as required
        pytest.fail("no tampering was detected anywhere in the blob")

    def test_unknown_format_rejected(self):
        from repro.crypto.encoding import canonical_encode
        with pytest.raises(PublicationError):
            WalletStore.from_bytes(canonical_encode({"v": 99}))

    @pytest.mark.parametrize("payload", [
        b"garbage",
        {"v": 1, "delegations": 5},
        {"v": 1, "supports": [1]},
        {"v": 1, "bases": [{"name": "q", "value": 1.0}]},
    ], ids=["garbage", "delegations-not-a-list", "supports-not-a-map",
            "base-without-entity"])
    def test_malformed_store_is_a_publication_error(self, payload):
        from repro.crypto.encoding import canonical_encode
        data = payload if isinstance(payload, bytes) \
            else canonical_encode(payload)
        with pytest.raises(PublicationError):
            WalletStore.from_bytes(data)
