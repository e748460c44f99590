import pytest

from repro.core.attributes import AttributeRef, Constraint, Modifier, Operator
from repro.core.delegation import issue
from repro.core.errors import (
    ExpiredError,
    ProofError,
    RevokedError,
    SignatureInvalidError,
)
from repro.core.proof import Proof, is_valid_proof, validate_proof
from repro.core.roles import Role


class TestConstruction:
    def test_single(self, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "staff"))
        proof = Proof.single(d)
        assert proof.subject == alice.entity
        assert proof.obj == d.obj
        assert proof.depth() == 1

    def test_empty_chain_rejected(self, org, alice):
        with pytest.raises(ProofError):
            Proof(subject=alice.entity, obj=Role(org.entity, "r"),
                  chain=())

    def test_extend(self, org, alice):
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        d1 = issue(org, alice.entity, r1)
        d2 = issue(org, r1, r2)
        proof = Proof.single(d1).extend(d2)
        assert proof.obj == r2
        assert proof.depth() == 2

    def test_extend_mismatch_rejected(self, org, alice, bob):
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        d1 = issue(org, alice.entity, r1)
        d_wrong = issue(org, bob.entity, r2)
        with pytest.raises(ProofError):
            Proof.single(d1).extend(d_wrong)

    def test_join(self, org, alice):
        r1, r2, r3 = (Role(org.entity, n) for n in ("r1", "r2", "r3"))
        front = Proof.single(issue(org, alice.entity, r1)).extend(
            issue(org, r1, r2))
        back = Proof.single(issue(org, r2, r3))
        joined = front.join(back)
        assert joined.subject == alice.entity
        assert joined.obj == r3
        assert joined.depth() == 3

    def test_join_mismatch_rejected(self, org, alice):
        r1, r3 = Role(org.entity, "r1"), Role(org.entity, "r3")
        front = Proof.single(issue(org, alice.entity, r1))
        back = Proof.single(issue(org, Role(org.entity, "r2"), r3))
        with pytest.raises(ProofError):
            front.join(back)


class TestValidation:
    def test_table1_proof_valid(self, table1):
        validate_proof(table1.full_proof(), at=0.0)

    def test_missing_support_rejected(self, table1):
        bare = Proof.single(table1.d3_maria_member)
        with pytest.raises(ProofError, match="support"):
            validate_proof(bare, at=0.0)

    def test_wrong_support_subject_rejected(self, table1, carol):
        # A support proof for someone other than the issuer doesn't count.
        d1 = issue(table1.big_isp, carol.entity,
                   table1.member_services)
        wrong_support = Proof.single(d1).extend(
            table1.d2_services_assign)
        proof = Proof.single(table1.d3_maria_member,
                             supports=[wrong_support])
        with pytest.raises(ProofError):
            validate_proof(proof, at=0.0)

    def test_broken_chain_rejected(self, org, alice):
        r1, r2, r3 = (Role(org.entity, n) for n in ("r1", "r2", "r3"))
        d1 = issue(org, alice.entity, r1)
        d3 = issue(org, r2, r3)
        proof = Proof(subject=alice.entity, obj=r3, chain=(d1, d3))
        with pytest.raises(ProofError, match="broken chain"):
            validate_proof(proof, at=0.0)

    def test_wrong_endpoints_rejected(self, org, alice, bob):
        r1 = Role(org.entity, "r1")
        d1 = issue(org, alice.entity, r1)
        proof = Proof(subject=bob.entity, obj=r1, chain=(d1,))
        with pytest.raises(ProofError, match="starts at"):
            validate_proof(proof, at=0.0)

    def test_wrong_claimed_object_rejected(self, case_study):
        """A chain that ends at AirNet.member cannot be passed off as a
        proof of AirNet.access -- built here or decoded off the wire."""
        case = case_study
        chain = (case.d1_maria_member, case.d2_coalition)
        supports = {case.d2_coalition.id: case.coalition_support}
        honest = Proof(case.maria.entity, case.airnet_member, chain,
                       supports)
        validate_proof(honest, at=0.0)
        claimed = Proof(case.maria.entity, case.airnet_access, chain,
                        supports)
        with pytest.raises(ProofError, match="proof claims"):
            validate_proof(claimed, at=0.0)
        record = dict(honest.to_dict())
        record["object"] = case.airnet_access.to_dict()
        decoded = Proof.from_dict(record)
        assert decoded.obj == case.airnet_access
        with pytest.raises(ProofError, match="proof claims"):
            validate_proof(decoded, at=0.0)

    def test_cyclic_support_rejected(self, org, alice):
        """A support proof for Alice => Org.r' whose link [Alice ->
        Org.r] Alice is supported by a proof claiming Alice => Org.r'
        again: refused as a cycle, built here or decoded off the wire."""
        r, r_assign = Role(org.entity, "r"), Role(org.entity, "r", ticks=1)
        third_party = issue(alice, alice.entity, r)
        assert third_party.required_supports() == (r_assign,)
        chain = (third_party, issue(org, r, r_assign))
        again = Proof(alice.entity, r_assign, chain)
        cyclic = Proof(alice.entity, r_assign, chain,
                       {third_party.id: (again,)})
        with pytest.raises(ProofError, match="cyclic support structure"):
            validate_proof(cyclic, at=0.0)
        decoded = Proof.from_dict(dict(cyclic.to_dict()))
        assert decoded.supports_for(third_party) == (again,)
        with pytest.raises(ProofError, match="cyclic support structure"):
            validate_proof(decoded, at=0.0)

    def test_expired_link_rejected(self, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"), expiry=10.0)
        proof = Proof.single(d)
        validate_proof(proof, at=9.0)
        with pytest.raises(ExpiredError):
            validate_proof(proof, at=10.0)

    def test_revoked_link_rejected(self, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        proof = Proof.single(d)
        with pytest.raises(RevokedError):
            validate_proof(proof, at=0.0, revoked={d.id})

    def test_revoked_callable(self, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        proof = Proof.single(d)
        with pytest.raises(RevokedError):
            validate_proof(proof, at=0.0, revoked=lambda i: i == d.id)

    def test_bad_signature_rejected(self, org, alice):
        from repro.core.delegation import Delegation
        d = issue(org, alice.entity, Role(org.entity, "r"))
        forged = Delegation(subject=d.subject, obj=d.obj, issuer=d.issuer,
                            signature=b"\x00" * 65)
        with pytest.raises(SignatureInvalidError):
            validate_proof(Proof.single(forged), at=0.0)

    def test_forged_link_is_a_proof_error(self, org, alice):
        """A bad signature is one more way a proof fails: the boolean
        wrapper answers False rather than raising."""
        from repro.core.delegation import Delegation
        d = issue(org, alice.entity, Role(org.entity, "r"))
        forged = Delegation(subject=d.subject, obj=d.obj, issuer=d.issuer,
                            signature=b"\x00" * 65)
        with pytest.raises(ProofError, match="signature does not verify"):
            validate_proof(Proof.single(forged), at=0.0)
        assert not is_valid_proof(Proof.single(forged), at=0.0)

    def test_revoked_support_invalidates_whole_proof(self, table1):
        proof = table1.full_proof()
        with pytest.raises(RevokedError):
            validate_proof(proof, at=0.0,
                           revoked={table1.d1_mark_services.id})

    def test_is_valid_proof_boolean(self, table1):
        assert is_valid_proof(table1.full_proof(), at=0.0)
        assert not is_valid_proof(Proof.single(table1.d3_maria_member),
                                  at=0.0)


class TestAttributeNamespaceRule:
    def test_foreign_attribute_rejected_strict(self, org, bob, alice):
        # Attribute in bob's namespace on an org-role object.
        attr = AttributeRef(bob.entity, "quota")
        d = issue(org, alice.entity, Role(org.entity, "r"),
                  modifiers=[Modifier(attr, Operator.MIN, 5)])
        with pytest.raises(ProofError, match="namespace"):
            validate_proof(Proof.single(d), at=0.0)


class TestAggregation:
    def test_modifiers_compose_along_chain(self, org, alice):
        attr = AttributeRef(org.entity, "quota")
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        d1 = issue(org, alice.entity, r1,
                   modifiers=[Modifier(attr, Operator.SUBTRACT, 5)])
        d2 = issue(org, r1, r2,
                   modifiers=[Modifier(attr, Operator.SUBTRACT, 7)])
        proof = Proof.single(d1).extend(d2)
        assert proof.grants({attr: 100.0})[attr] == 88.0

    def test_constraint_enforced_at_validation(self, org, alice):
        attr = AttributeRef(org.entity, "quota")
        d = issue(org, alice.entity, Role(org.entity, "r"),
                  modifiers=[Modifier(attr, Operator.MIN, 10)])
        proof = Proof.single(d)
        validate_proof(proof, at=0.0,
                       constraints=[Constraint(attr, 5)],
                       bases={attr: 100.0})
        with pytest.raises(ProofError, match="constraint"):
            validate_proof(proof, at=0.0,
                           constraints=[Constraint(attr, 50)],
                           bases={attr: 100.0})

    def test_satisfies(self, org, alice):
        attr = AttributeRef(org.entity, "quota")
        d = issue(org, alice.entity, Role(org.entity, "r"),
                  modifiers=[Modifier(attr, Operator.MIN, 10)])
        proof = Proof.single(d)
        assert proof.satisfies([Constraint(attr, 10)], {attr: 100.0})
        assert not proof.satisfies([Constraint(attr, 11)], {attr: 100.0})


class TestTraversal:
    def test_all_delegations_includes_supports(self, table1):
        proof = table1.full_proof()
        ids = {d.id for d in proof.all_delegations()}
        assert ids == {table1.d1_mark_services.id,
                       table1.d2_services_assign.id,
                       table1.d3_maria_member.id}

    def test_all_delegations_deduplicates(self, org, alice):
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        d1 = issue(org, alice.entity, r1)
        proof = Proof.single(d1).extend(issue(org, r1, r2))
        assert len(list(proof.all_delegations())) == 2


class TestSerialization:
    def test_round_trip_with_supports(self, table1):
        proof = table1.full_proof()
        restored = Proof.from_dict(proof.to_dict())
        assert restored == proof
        validate_proof(restored, at=0.0)

    def test_equality_and_hash(self, table1):
        a = table1.full_proof()
        b = Proof.from_dict(a.to_dict())
        assert a == b
        assert hash(a) == hash(b)


class TestRecursionGuards:
    def test_depth_limit(self, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        proof = Proof.single(d)
        with pytest.raises(ProofError, match="depth"):
            validate_proof(proof, at=0.0, max_depth=-1)
