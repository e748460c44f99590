import pytest

from repro.core import (
    Constraint,
    AttributeRef,
    Delegation,
    Modifier,
    Operator,
    Proof,
    PublicationError,
    Role,
    SimClock,
    issue,
)
from repro.core.roles import attribute_right
from repro.graph.search import SearchStats, Strategy, direct_query
from repro.wallet.wallet import Wallet


@pytest.fixture()
def wallet(org, clock):
    return Wallet(owner=org, address="wallet.org.com", clock=clock)


class TestPublication:
    def test_accepts_self_certified(self, wallet, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        assert wallet.publish(d)
        assert not wallet.publish(d)  # idempotent

    def test_rejects_bad_signature(self, wallet, org, alice):
        from repro.core.delegation import Delegation
        d = Delegation(subject=alice.entity, obj=Role(org.entity, "r"),
                       issuer=org.entity, signature=b"\x00" * 65)
        with pytest.raises(PublicationError, match="signature"):
            wallet.publish(d)

    def test_rejects_expired(self, wallet, org, alice, clock):
        d = issue(org, alice.entity, Role(org.entity, "r"), expiry=10.0)
        clock.advance(20.0)
        with pytest.raises(PublicationError, match="expired"):
            wallet.publish(d)

    def test_rejects_third_party_without_support(self, wallet, table1):
        with pytest.raises(PublicationError, match="support"):
            wallet.publish(table1.d3_maria_member)

    def test_accepts_third_party_with_support(self, wallet, table1):
        assert wallet.publish(table1.d3_maria_member,
                              supports=[table1.support_proof])

    def test_rejects_invalid_support(self, wallet, table1, org, carol):
        # Support proof about the wrong issuer.
        wrong = Proof.single(
            issue(table1.big_isp, carol.entity, table1.member_services)
        ).extend(table1.d2_services_assign)
        with pytest.raises(PublicationError):
            wallet.publish(table1.d3_maria_member, supports=[wrong])

    def test_rejects_already_revoked(self, wallet, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        wallet.publish(d)
        wallet.revoke(org, d.id)
        wallet.store.remove_delegation(d.id)
        with pytest.raises(PublicationError, match="revoked"):
            wallet.publish(d)

    def test_rejects_attribute_outside_object_namespace(self, wallet, org,
                                                        bob, alice):
        """[alice -> Org.r with Bob.bw <= 5] Org arrives with a valid
        Org => Bob.bw <= ' support, but Bob.bw is not in Org.r's
        namespace (Section 3.2.1): publication applies the validator's
        rule, so the wallet cannot grant what its validator refuses."""
        bw = AttributeRef(bob.entity, "bw")
        role = Role(org.entity, "r")
        support = Proof.single(
            issue(bob, org.entity, attribute_right(bw, Operator.MIN)))
        d = issue(org, alice.entity, role,
                  modifiers=[Modifier(bw, Operator.MIN, 5)])
        with pytest.raises(PublicationError, match="namespace"):
            wallet.publish(d, supports=[support])
        assert wallet.query_direct(alice.entity, role) is None

    def test_rejects_support_with_forged_link(self, wallet, table1):
        real = table1.d1_mark_services
        forged = Delegation(subject=real.subject, obj=real.obj,
                            issuer=real.issuer, signature=b"\x00" * 65)
        support = Proof.single(forged).extend(table1.d2_services_assign)
        with pytest.raises(PublicationError, match="signature"):
            wallet.publish(table1.d3_maria_member, supports=[support])
        assert len(wallet) == 0

    def test_publish_many(self, wallet, table1):
        count = wallet.publish_many([
            (table1.d1_mark_services, ()),
            (table1.d2_services_assign, ()),
            (table1.d3_maria_member, (table1.support_proof,)),
        ])
        assert count == 3


class TestQueries:
    @pytest.fixture()
    def loaded(self, wallet, table1):
        wallet.publish(table1.d1_mark_services)
        wallet.publish(table1.d2_services_assign)
        wallet.publish(table1.d3_maria_member,
                       supports=[table1.support_proof])
        return wallet

    def test_direct_query(self, loaded, table1):
        proof = loaded.query_direct(table1.maria.entity, table1.member)
        assert proof is not None
        loaded.validate(proof)

    def test_direct_query_uses_stored_supports(self, loaded, table1):
        proof = loaded.query_direct(table1.maria.entity, table1.member)
        assert proof.supports_for(table1.d3_maria_member) != ()

    def test_subject_query(self, loaded, table1):
        proofs = loaded.query_subject(table1.mark.entity)
        objs = {str(p.obj) for p in proofs}
        assert "BigISP.memberServices" in objs
        assert "BigISP.member'" in objs

    def test_object_query(self, loaded, table1):
        proofs = loaded.query_object(table1.member)
        assert any(p.subject == table1.maria.entity for p in proofs)

    def test_strategies_agree(self, loaded, table1):
        for strategy in Strategy:
            assert direct_query(
                loaded.store.graph, table1.maria.entity, table1.member,
                at=loaded.clock.now(), revoked=loaded.store.is_revoked,
                strategy=strategy,
                support_provider=loaded.support_provider()) is not None

    def test_stats_forwarded(self, loaded, table1):
        stats = SearchStats()
        loaded.query_direct(table1.maria.entity, table1.member,
                            stats=stats)
        assert stats.edges_considered > 0


class TestRevocation:
    def test_revoke_pushes_event(self, wallet, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        wallet.publish(d)
        events = []
        wallet.hub.subscribe(d.id, events.append)
        wallet.revoke(org, d.id)
        assert len(events) == 1
        assert events[0].kind.invalidates

    def test_revoked_excluded_from_queries(self, wallet, org, alice):
        r = Role(org.entity, "r")
        d = issue(org, alice.entity, r)
        wallet.publish(d)
        wallet.revoke(org, d.id)
        assert wallet.query_direct(alice.entity, r) is None

    def test_revoke_unknown_rejected(self, wallet, org):
        with pytest.raises(PublicationError):
            wallet.revoke(org, "nope")

    def test_non_issuer_revocation_rejected(self, wallet, org, bob, alice):
        from repro.core.delegation import Revocation
        d = issue(org, alice.entity, Role(org.entity, "r"))
        wallet.publish(d)
        forged = Revocation(delegation_id=d.id, issuer=org.entity,
                            revoked_at=0.0, signature=bob.sign(b"no"))
        with pytest.raises(PublicationError):
            wallet.publish_revocation(forged)

    def test_duplicate_revocation_ignored(self, wallet, org, alice):
        d = issue(org, alice.entity, Role(org.entity, "r"))
        wallet.publish(d)
        revocation = wallet.revoke(org, d.id)
        assert not wallet.publish_revocation(revocation)

    def test_replayed_revocation_checks_no_signature(self, wallet, org,
                                                     alice, monkeypatch):
        from repro.core.delegation import Revocation
        d = issue(org, alice.entity, Role(org.entity, "r"))
        wallet.publish(d)
        revocation = wallet.revoke(org, d.id)
        calls = []
        for name in ("verify", "verify_standalone"):
            real = getattr(Revocation, name)
            monkeypatch.setattr(
                Revocation, name,
                lambda self, *args, _real=real, _name=name:
                calls.append(_name) or _real(self, *args))
        assert not wallet.publish_revocation(revocation)
        assert calls == []

    def test_standalone_revocation_for_unknown_delegation(self, wallet,
                                                          org, alice):
        # Even the issuer's own revocation is refused for a delegation
        # the wallet holds no copy of: nothing here shows who issued it.
        from repro.core.delegation import revoke as sign_revocation
        d = issue(org, alice.entity, Role(org.entity, "r"))
        revocation = sign_revocation(org, d, revoked_at=0.0)
        with pytest.raises(PublicationError, match="holds no delegation"):
            wallet.publish_revocation(revocation)
        assert not wallet.is_revoked(d.id)
        wallet.publish(d)
        assert wallet.publish_revocation(revocation)
        assert wallet.is_revoked(d.id)

    def test_forged_revocation_cannot_pre_censor(self, wallet, org,
                                                 alice):
        """Mallory self-signs a revocation for Org's credential before
        the wallet holds it: it must be refused, and the credential
        must still publish and prove."""
        from repro.core import create_principal
        from repro.core.delegation import Revocation
        mallory = create_principal("Mallory")
        member = Role(org.entity, "member")
        d = issue(org, alice.entity, member)
        unsigned = Revocation(delegation_id=d.id, issuer=mallory.entity,
                              revoked_at=0.0)
        forged = Revocation(delegation_id=d.id, issuer=mallory.entity,
                            revoked_at=0.0,
                            signature=mallory.sign(unsigned.signing_bytes()))
        assert forged.verify_standalone()  # a well-formed signature
        with pytest.raises(PublicationError):
            wallet.publish_revocation(forged)
        assert wallet.publish(d)
        assert wallet.prove(alice.entity, member) is not None
        with pytest.raises(PublicationError):  # and not once it is held
            wallet.publish_revocation(forged)
        assert not wallet.is_revoked(d.id)

    def test_revocation_of_a_support_link_verifies_against_it(
            self, wallet, table1):
        # A link held only inside a stored support proof is the wallet's
        # copy: its issuer's revocation is accepted, another's is not.
        from repro.core.delegation import Revocation
        from repro.core.delegation import revoke as sign_revocation
        wallet.publish(table1.d3_maria_member,
                       supports=[table1.support_proof])
        link = table1.d1_mark_services
        assert wallet.store.get_delegation(link.id) is None
        forged = Revocation(delegation_id=link.id,
                            issuer=table1.maria.entity, revoked_at=0.0,
                            signature=table1.maria.sign(b"no"))
        with pytest.raises(PublicationError):
            wallet.publish_revocation(forged)
        assert wallet.publish_revocation(
            sign_revocation(table1.big_isp, link, revoked_at=0.0))
        assert wallet.is_revoked(link.id)


class TestExpiration:
    def test_expire_sweep_announces_once(self, wallet, org, alice, clock):
        d = issue(org, alice.entity, Role(org.entity, "r"), expiry=10.0)
        wallet.publish(d)
        events = []
        wallet.hub.subscribe(d.id, events.append)
        assert wallet.expire_sweep() == []
        clock.advance(15.0)
        assert wallet.expire_sweep() == [d.id]
        assert wallet.expire_sweep() == []  # no duplicate announcements
        assert len(events) == 1

    def test_expired_excluded_from_queries(self, wallet, org, alice,
                                           clock):
        r = Role(org.entity, "r")
        wallet.publish(issue(org, alice.entity, r, expiry=10.0))
        assert wallet.query_direct(alice.entity, r) is not None
        clock.advance(15.0)
        assert wallet.query_direct(alice.entity, r) is None


class TestAwaitProof:
    def test_fires_when_provable(self, wallet, org, alice):
        r = Role(org.entity, "r")
        got = []
        wallet.await_proof(alice.entity, r, got.append)
        wallet.publish(issue(org, alice.entity, r))
        assert len(got) == 1

    def test_fires_once(self, wallet, org, alice, bob):
        r = Role(org.entity, "r")
        got = []
        wallet.await_proof(alice.entity, r, got.append)
        wallet.publish(issue(org, alice.entity, r))
        wallet.publish(issue(org, bob.entity, r))
        assert len(got) == 1

    def test_cancel_stops_delivery(self, wallet, org, alice):
        r = Role(org.entity, "r")
        got = []
        sub = wallet.await_proof(alice.entity, r, got.append)
        sub.cancel()
        wallet.publish(issue(org, alice.entity, r))
        assert got == []

    def test_constraint_respected(self, wallet, org, alice):
        attr = AttributeRef(org.entity, "q")
        wallet.set_base_allocation(attr, 100.0)
        r = Role(org.entity, "r")
        got = []
        wallet.await_proof(alice.entity, r, got.append,
                           constraints=[Constraint(attr, 50)])
        wallet.publish(issue(org, alice.entity, r,
                             modifiers=[Modifier(attr, Operator.MIN, 10)]))
        assert got == []  # grant 10 < 50


class TestBaseAllocations:
    def test_bases_merged_into_queries(self, wallet, org, alice):
        attr = AttributeRef(org.entity, "q")
        wallet.set_base_allocation(attr, 100.0)
        r = Role(org.entity, "r")
        wallet.publish(issue(org, alice.entity, r,
                             modifiers=[Modifier(attr, Operator.MIN, 60)]))
        assert wallet.query_direct(alice.entity, r,
                                   constraints=[Constraint(attr, 50)]
                                   ) is not None
        assert wallet.query_direct(alice.entity, r,
                                   constraints=[Constraint(attr, 70)]
                                   ) is None

    def test_base_allocations_copied(self, wallet, org):
        attr = AttributeRef(org.entity, "q")
        wallet.set_base_allocation(attr, 1.0)
        snapshot = wallet.base_allocations()
        snapshot[attr] = 99.0
        assert wallet.base_allocations()[attr] == 1.0
