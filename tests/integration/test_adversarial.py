"""Adversarial behavior: forged credentials, rogue wallets, replay.

dRBAC's security argument is that wallets verify everything at the trust
boundary: signatures and support proofs at publication, revocations
against issuer keys, and chains at validation. These tests inject
malicious material at each boundary and assert it cannot poison a wallet
or mint authority.
"""

import pytest

from repro.core import (
    Delegation,
    Proof,
    PublicationError,
    Role,
    SimClock,
    create_principal,
    issue,
    validate_proof,
)
from repro.core.errors import ProofError
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet


class TestForgedCredentials:
    def test_self_issued_grant_rejected(self, org, alice):
        """Alice cannot grant herself org's role: her signature does not
        bind org's namespace (third-party without supports)."""
        wallet = Wallet(owner=org, clock=SimClock())
        forged = issue(alice, alice.entity, Role(org.entity, "admin"))
        with pytest.raises(PublicationError, match="support"):
            wallet.publish(forged)

    def test_stolen_signature_rejected(self, org, alice, bob):
        """Reusing a signature on altered content fails verification."""
        wallet = Wallet(owner=org, clock=SimClock())
        real = issue(org, alice.entity, Role(org.entity, "guest"))
        forged = Delegation(subject=bob.entity, obj=Role(org.entity,
                                                         "admin"),
                            issuer=org.entity, signature=real.signature)
        with pytest.raises(PublicationError, match="signature"):
            wallet.publish(forged)

    def test_forged_support_proof_rejected(self, org, alice, bob):
        """A support proof whose root is not self-certified by the
        namespace owner cannot authorize a third-party delegation."""
        wallet = Wallet(owner=org, clock=SimClock())
        target = Role(org.entity, "admin")
        # Bob forges his own "grant" of the right of assignment.
        fake_root = issue(bob, bob.entity, target.with_tick())
        forged_support = Proof.single(fake_root)
        grant = issue(bob, alice.entity, target)
        with pytest.raises(PublicationError):
            wallet.publish(grant, supports=[forged_support])

    def test_support_chain_must_root_in_namespace(self, org, alice, bob,
                                                  carol):
        """Even a well-formed chain is useless if its root issuer is not
        the object's namespace owner."""
        target = Role(org.entity, "admin")
        mid = Role(carol.entity, "mid")
        chain = Proof.single(issue(carol, bob.entity, mid)).extend(
            issue(carol, mid, target.with_tick()))
        # carol issued [mid -> org.admin'] -- itself third-party and
        # unsupported, so validation must fail.
        grant = issue(bob, alice.entity, target)
        proof = Proof.single(grant, supports=[chain])
        with pytest.raises(ProofError):
            validate_proof(proof, at=0.0)


class TestRogueWallet:
    @pytest.fixture()
    def rogue_deployment(self, org, alice, clock):
        """A rogue wallet host that serves a forged proof for a tagged
        role, wired into a client's discovery path."""
        from repro.core import DiscoveryTag, SubjectFlag
        from repro.core.roles import subject_key
        network = Network(clock=clock)
        rogue = create_principal("Rogue")
        target = Role(org.entity, "admin")

        class LyingServer(WalletServer):
            def _rpc_gem_eval(self, src, params):
                # Answer a forged closure regardless of what's asked.
                forged = Proof.single(
                    issue(rogue, alice.entity, target))
                self._gem_push_answers(src, params, [forged])

        rogue_wallet = Wallet(owner=rogue, address="rogue.home",
                              clock=clock)
        LyingServer(network, rogue_wallet, principal=rogue)
        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        engine = DiscoveryEngine(client)
        tag = DiscoveryTag(home="rogue.home", ttl=30,
                           subject_flag=SubjectFlag.SEARCH)
        hints = {subject_key(alice.entity): tag}
        return engine, client, target, hints

    def test_forged_remote_proof_cannot_poison_wallet(
            self, rogue_deployment, alice):
        engine, client, target, hints = rogue_deployment
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, target, hints=hints,
                                stats=stats)
        # The rogue's delegation is third-party with no valid support:
        # the client wallet's publication checks reject it, so no proof.
        assert proof is None
        assert len(client.wallet) == 0
        assert stats.delegations_rejected > 0
        assert stats.delegations_cached == 0
        # A closure the publication checks took apart is not the
        # home's answer: nothing of it may be served to a later search.
        assert len(engine.result_cache) == 0

    def test_forged_proof_fails_independent_validation(
            self, rogue_deployment, org, alice):
        engine, client, target, hints = rogue_deployment
        # Even handed the forged proof directly, validation rejects it.
        rogue = create_principal("Rogue2")
        forged = Proof.single(issue(rogue, alice.entity, target))
        with pytest.raises(ProofError):
            client.wallet.validate(forged)


class TestStaleHome:
    def test_out_of_namespace_credential_refused_at_origin(
            self, org, bob, alice, clock):
        """A home whose store predates the namespace rule serves
        [alice -> Org.r with Bob.bw <= 5] Org, support included. The
        origin's publication runs the validator's link check, so the
        credential is rejected there and nothing is granted."""
        from repro.core import AttributeRef, DiscoveryTag, Modifier, \
            Operator, SubjectFlag
        from repro.core.roles import attribute_right, subject_key
        network = Network(clock=clock)
        bw = AttributeRef(bob.entity, "bw")
        role = Role(org.entity, "r")
        tag = DiscoveryTag(home="stale.home", ttl=30.0,
                           subject_flag=SubjectFlag.SEARCH)
        support = Proof.single(
            issue(bob, org.entity, attribute_right(bw, Operator.MIN)))
        squat = issue(org, alice.entity, role, subject_tag=tag,
                      modifiers=[Modifier(bw, Operator.MIN, 5)])
        home = Wallet(owner=org, address="stale.home", clock=clock)
        home.store.add_delegation(squat, (support,))
        WalletServer(network, home, principal=org)
        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        stats = DiscoveryStats()
        proof = DiscoveryEngine(client).discover(
            alice.entity, role, stats=stats,
            hints={subject_key(alice.entity): tag})
        assert proof is None
        assert stats.delegations_rejected == 1
        assert client.wallet.store.get_delegation(squat.id) is None


class TestReplayAndRevocationAbuse:
    def test_revocation_replay_is_idempotent(self, org, alice):
        wallet = Wallet(owner=org, clock=SimClock())
        d = issue(org, alice.entity, Role(org.entity, "r"))
        wallet.publish(d)
        revocation = wallet.revoke(org, d.id)
        assert not wallet.publish_revocation(revocation)  # replay no-op

    def test_foreign_revocation_cannot_censor(self, org, bob, alice):
        """Bob cannot revoke org's delegation to knock Alice out."""
        from repro.core.delegation import Revocation
        wallet = Wallet(owner=org, clock=SimClock())
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        wallet.publish(d)
        forged = Revocation(delegation_id=d.id, issuer=bob.entity,
                            revoked_at=0.0,
                            signature=bob.sign(b"whatever"))
        with pytest.raises(PublicationError):
            wallet.publish_revocation(forged)
        assert wallet.query_direct(alice.entity, role) is not None

    def test_renewal_cannot_change_rights(self, org, alice, bob):
        """A 'renewal' that widens the grant is rejected as such."""
        wallet = Wallet(owner=org, clock=SimClock())
        d = issue(org, alice.entity, Role(org.entity, "guest"),
                  expiry=100.0)
        wallet.publish(d)
        widened = issue(org, alice.entity, Role(org.entity, "admin"),
                        expiry=300.0)
        with pytest.raises(PublicationError, match="re-state"):
            wallet.publish_renewal(d.id, widened)

    def test_expired_delegation_cannot_be_republished(self, org, alice,
                                                      clock):
        wallet = Wallet(owner=org, clock=clock)
        d = issue(org, alice.entity, Role(org.entity, "r"), expiry=10.0)
        wallet.publish(d)
        clock.advance(20.0)
        wallet.store.remove_delegation(d.id)
        with pytest.raises(PublicationError, match="expired"):
            wallet.publish(d)
