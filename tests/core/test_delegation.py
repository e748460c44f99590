import pytest

from repro.core.attributes import AttributeRef, Modifier, Operator
from repro.core.delegation import (
    Delegation,
    DelegationKind,
    Revocation,
    issue,
    prefetch_signatures,
    revoke,
)
from repro.core.errors import DelegationError, SignatureInvalidError
from repro.crypto import keys, verify_cache
from repro.core.roles import Role, attribute_right
from repro.core.tags import DiscoveryTag


@pytest.fixture(scope="module")
def role(org):
    return Role(org.entity, "staff")


class TestIssuance:
    def test_signed_and_verifies(self, org, alice, role):
        d = issue(org, alice.entity, role)
        assert d.verify_signature()
        d.ensure_signed()

    def test_unsigned_fails_verification(self, org, alice, role):
        d = Delegation(subject=alice.entity, obj=role, issuer=org.entity)
        assert not d.verify_signature()

    def test_id_stable_and_unique(self, org, alice, bob, role):
        d1 = issue(org, alice.entity, role)
        d2 = issue(org, alice.entity, role)
        d3 = issue(org, bob.entity, role)
        assert d1.id == d2.id  # identical content, deterministic sig
        assert d1.id != d3.id

    def test_subject_equals_object_rejected(self, org, role):
        with pytest.raises(DelegationError):
            issue(org, role, role)

    def test_object_must_be_role(self, org, alice, bob):
        with pytest.raises(DelegationError):
            Delegation(subject=alice.entity, obj=bob.entity,
                       issuer=org.entity)

    def test_expiry_before_issuance_rejected(self, org, alice, role):
        with pytest.raises(DelegationError):
            issue(org, alice.entity, role, expiry=5.0, issued_at=10.0)

    def test_acting_as_requires_assignment_roles(self, org, alice, role):
        with pytest.raises(DelegationError):
            issue(org, alice.entity, role, acting_as=[role])  # no tick
        d = issue(org, alice.entity, role, acting_as=[role.with_tick()])
        assert d.acting_as == (role.with_tick(),)


class TestClassification:
    def test_self_certified(self, org, alice, role):
        d = issue(org, alice.entity, role)
        assert d.kind is DelegationKind.SELF_CERTIFIED
        assert d.is_self_certified and not d.is_third_party
        assert d.required_supports() == ()

    def test_third_party(self, org, bob, alice, role):
        d = issue(bob, alice.entity, role)
        assert d.kind is DelegationKind.THIRD_PARTY
        assert d.required_supports() == (role.with_tick(),)

    def test_assignment(self, org, alice, role):
        d = issue(org, alice.entity, role.with_tick())
        assert d.is_assignment
        assert d.is_self_certified

    def test_third_party_assignment_needs_double_tick(self, org, bob,
                                                      alice, role):
        d = issue(bob, alice.entity, role.with_tick())
        assert d.required_supports() == (
            Role(org.entity, "staff", ticks=2),)

    def test_terminal_entity_subject(self, org, alice, role):
        assert issue(org, alice.entity, role).is_terminal
        assert not issue(org, Role(org.entity, "other"), role).is_terminal

    def test_attribute_modifier_self_certified(self, org, alice, role):
        attr = AttributeRef(org.entity, "quota")
        d = issue(org, alice.entity, role,
                  modifiers=[Modifier(attr, Operator.MIN, 10)])
        assert d.required_supports() == ()

    def test_attribute_modifier_third_party(self, org, bob, alice, role):
        attr = AttributeRef(org.entity, "quota")
        d = issue(bob, alice.entity, role,
                  modifiers=[Modifier(attr, Operator.MIN, 10)])
        assert set(d.required_supports()) == {
            role.with_tick(),
            attribute_right(attr, Operator.MIN),
        }


class TestTampering:
    def test_any_field_change_breaks_signature(self, org, alice, bob, role):
        d = issue(org, alice.entity, role, expiry=100.0)
        tampered = Delegation(
            subject=bob.entity, obj=d.obj, issuer=d.issuer,
            modifiers=d.modifiers, expiry=d.expiry,
            signature=d.signature)
        assert not tampered.verify_signature()

    def test_expiry_tamper_breaks_signature(self, org, alice, role):
        d = issue(org, alice.entity, role, expiry=100.0)
        tampered = Delegation(
            subject=d.subject, obj=d.obj, issuer=d.issuer,
            modifiers=d.modifiers, expiry=10_000.0,
            signature=d.signature)
        assert not tampered.verify_signature()

    def test_modifier_tamper_breaks_signature(self, org, alice, role):
        attr = AttributeRef(org.entity, "quota")
        d = issue(org, alice.entity, role,
                  modifiers=[Modifier(attr, Operator.MIN, 10)])
        from repro.core.attributes import ModifierSet
        tampered = Delegation(
            subject=d.subject, obj=d.obj, issuer=d.issuer,
            modifiers=ModifierSet([Modifier(attr, Operator.MIN, 10_000)]),
            signature=d.signature)
        assert not tampered.verify_signature()


class TestPrefetchSignatures:
    """The one pre-batching helper every sequential checker calls first."""

    @pytest.fixture()
    def batches(self, monkeypatch):
        """Item counts handed to ``keys.verify_batch``, one per call."""
        seen = []
        real = keys.verify_batch
        monkeypatch.setattr(
            keys, "verify_batch",
            lambda items: seen.append(len(items)) or real(items))
        return seen

    def _fresh(self, org, subject, role):
        return Delegation.from_dict(issue(org, subject, role).to_dict())

    def test_distinct_fresh_certificates_share_one_batch(
            self, org, alice, bob, carol, role, batches):
        proven = self._fresh(org, carol.entity, role)
        assert proven.verify_signature()
        a, b = (self._fresh(org, who.entity, role) for who in (alice, bob))
        twin = self._fresh(org, alice.entity, role)
        with verify_cache.scoped():
            prefetch_signatures(iter([a, proven, b, twin]))
        assert batches == [2]      # `proven` skipped, `twin` is `a` again
        assert a.__dict__.get("_sig_ok") and b.__dict__.get("_sig_ok")

    def test_nothing_to_amortize_is_a_no_op(self, org, alice, bob, role,
                                            batches):
        a, b = (self._fresh(org, who.entity, role) for who in (alice, bob))
        with verify_cache.scoped():
            prefetch_signatures([a])
            prefetch_signatures([])
        assert batches == []
        assert not a.__dict__.get("_sig_ok")

    def test_failure_is_left_to_the_sequential_check(self, org, alice, bob,
                                                     role):
        good = self._fresh(org, alice.entity, role)
        forged = Delegation(subject=bob.entity, obj=role, issuer=org.entity,
                            signature=good.signature)
        with verify_cache.scoped() as memo:
            prefetch_signatures([forged, good])
            assert good.__dict__.get("_sig_ok")
            assert not forged.__dict__.get("_sig_ok")
            assert memo.info()["entries"] == 1
            with pytest.raises(SignatureInvalidError):
                forged.ensure_signed()


class TestExpiry:
    def test_is_expired(self, org, alice, role):
        d = issue(org, alice.entity, role, expiry=100.0)
        assert not d.is_expired(99.9)
        assert d.is_expired(100.0)
        assert d.is_expired(200.0)

    def test_no_expiry_never_expires(self, org, alice, role):
        d = issue(org, alice.entity, role)
        assert not d.is_expired(1e18)


class TestSerialization:
    def test_round_trip_minimal(self, org, alice, role):
        d = issue(org, alice.entity, role)
        restored = Delegation.from_dict(d.to_dict())
        assert restored == d
        assert restored.verify_signature()

    def test_round_trip_full(self, org, alice, role):
        attr = AttributeRef(org.entity, "quota")
        tag = DiscoveryTag.parse("<w.org.com:Org.wallet:30:So>")
        d = issue(org, Role(org.entity, "junior"), role,
                  modifiers=[Modifier(attr, Operator.SUBTRACT, 5)],
                  expiry=500.0, issued_at=1.0,
                  subject_tag=tag, object_tag=tag, issuer_tag=tag,
                  acting_as=[role.with_tick()])
        restored = Delegation.from_dict(d.to_dict())
        assert restored == d
        assert restored.verify_signature()
        assert restored.subject_tag == tag
        assert restored.acting_as == (role.with_tick(),)

    def test_attribute_right_object_round_trip(self, org, alice):
        attr = AttributeRef(org.entity, "quota")
        d = issue(org, alice.entity, attribute_right(attr, Operator.MIN))
        restored = Delegation.from_dict(d.to_dict())
        assert restored.obj.is_attribute_right
        assert restored == d

    def test_malformed_record_rejected(self):
        with pytest.raises(DelegationError):
            Delegation.from_dict({"subject": {}})


class TestRevocation:
    def test_issuer_can_revoke(self, org, alice, role):
        d = issue(org, alice.entity, role)
        r = revoke(org, d, revoked_at=5.0)
        assert r.verify(d)
        assert r.verify_standalone()

    def test_non_issuer_cannot_revoke(self, org, bob, alice, role):
        d = issue(org, alice.entity, role)
        with pytest.raises(DelegationError):
            revoke(bob, d, revoked_at=5.0)

    def test_forged_revocation_rejected(self, org, bob, alice, role):
        d = issue(org, alice.entity, role)
        forged = Revocation(delegation_id=d.id, issuer=org.entity,
                            revoked_at=5.0, signature=bob.sign(b"x"))
        assert not forged.verify(d)

    def test_revocation_for_wrong_delegation_rejected(self, org, alice,
                                                      bob, role):
        d1 = issue(org, alice.entity, role)
        d2 = issue(org, bob.entity, role)
        r = revoke(org, d1, revoked_at=5.0)
        assert not r.verify(d2)

    def test_revocation_serialization(self, org, alice, role):
        d = issue(org, alice.entity, role)
        r = revoke(org, d, revoked_at=5.0)
        restored = Revocation.from_dict(r.to_dict())
        assert restored.verify(d)


class TestDisplay:
    def test_str_matches_paper_syntax(self, org, alice, role):
        d = issue(org, alice.entity, role)
        assert str(d) == "[Alice -> Org.staff] Org"

    def test_str_with_modifiers(self, org, alice, role):
        attr = AttributeRef(org.entity, "quota")
        d = issue(org, alice.entity, role,
                  modifiers=[Modifier(attr, Operator.MIN, 10)])
        assert "with Org.quota <= 10" in str(d)
