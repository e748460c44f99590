"""Staged answers, one signature batch per commit.

An origin stages each accepted ``gem_answers`` push: every link check
but the signature runs, and the heads of the proofs that pass route the
next goals -- a tag is a hint until its credential is checked. Nothing
of a staged answer enters the wallet, the result cache, a holding or a
grant before a commit checks its signatures, together with those of
every other staged answer, in one ``keys.verify_batch``. A commit runs
when the subject reaches the object over the wallet's and the staged
links (node keys only), and when the queue drains.

The credentials a requester presents are staged before the first goal
and published by the first commit, checked in its batch.

Pinned here: a forged signature routes at most the goals its tag names
and never grants; a third-party link shipped without a support claim
routes none; an honest cold discovery checks what it was shipped
and what it was presented in exactly one batch, and nothing alone; a
forged presented credential is refused as the wallet always refused
it, after at most the goals its budget allows; a presented credential
that completes the chain alone grants with no message; a constrained
search that reaches its object unsatisfied commits early and searches
on with the same messages; a revocation pushed before its copy is
committed is honoured; and no holding a kept copy's support proofs
need outlives every copy.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryTag, Proof, Role, SubjectFlag, issue
from repro.core.attributes import (
    AttributeRef,
    Constraint,
    Modifier,
    Operator,
)
from repro.core.delegation import Delegation, Revocation
from repro.core.errors import PublicationError
from repro.core.proof import validate_proof
from repro.crypto import keys, schnorr, verify_cache
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet
from repro.workloads import topology
from repro.workloads.scenarios import (
    build_distributed_case_study,
    build_distributed_federation,
    deploy_coalition,
)


def _tag(home):
    return DiscoveryTag(home=home, ttl=30.0,
                        subject_flag=SubjectFlag.SEARCH)


def _forged(delegation):
    """``delegation`` with one bit of its signature flipped: the same
    content, and so the same id, signed by nobody."""
    data = dict(delegation.to_dict())
    signature = data["signature"]
    data["signature"] = signature[:-1] + bytes([signature[-1] ^ 1])
    return Delegation.from_dict(data)


def _hosts(network, clock, org, addresses, cls=WalletServer):
    return [cls(network, Wallet(owner=org, address=address, clock=clock),
                principal=org) for address in addresses]


class TestForgedSignature:
    """w.mid serves ``[r1 -> r2]`` with a forged signature; its object
    tag names w.rogue, a home nobody else names."""

    @pytest.fixture()
    def forged_mid(self, org, alice, clock):
        network = Network(clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        server, mid, _rogue = _hosts(network, clock, org,
                                     ("w.local", "w.mid", "w.rogue"))
        server.wallet.publish(
            issue(org, alice.entity, r1, object_tag=_tag("w.mid")))
        forged = _forged(issue(org, r1, r2, subject_tag=_tag("w.mid"),
                               object_tag=_tag("w.rogue")))
        assert not forged.verify_signature()
        # A rogue home stores what its own wallet would refuse.
        mid.wallet.store.add_delegation(forged)
        return DiscoveryEngine(server), server, mid, network, forged, r2

    @pytest.mark.parametrize("budget", [1, 2, 64])
    def test_routes_within_the_budget_and_never_enters(
            self, forged_mid, alice, budget):
        engine, server, mid, network, forged, r2 = forged_mid
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, r2, stats=stats,
                               max_remote_queries=budget) is None
        # The forged tag routed one goal more, to w.rogue, while the
        # budget allowed it.
        assert stats.rounds == min(budget, 2)
        assert ("w.rogue" in stats.wallets_contacted) == (budget > 1)
        # Nothing of it was inserted, cached or held.
        assert server.wallet.store.get_delegation(forged.id) is None
        assert forged.id not in server.cache
        assert stats.delegations_cached == 0
        assert stats.delegations_rejected == 1
        assert forged.id not in engine.result_cache._by_delegation
        # w.mid's answer is not cached, not even as a negative; only
        # w.rogue's empty one is.
        assert len(engine.result_cache) == (budget > 1)
        # The holding w.mid set up when it shipped the forgery is
        # released: one unsubscribe, and w.mid keeps nothing.
        assert network.messages_from("w.local", "notify:unsubscribe") == 1
        assert mid.holdings_count() == 0


    def test_a_forged_tag_does_not_shadow_a_genuine_one(self, org, alice,
                                                        clock):
        """w.mid, asked first, serves a forged ``[r1 -> r2]`` whose tag
        sends r2's goal to w.rogue; w.honest then serves a genuine
        ``[r1b -> r2]`` whose tag names w.far, which holds
        ``[r2 -> r3]``. The forged tag was harvested first, but the
        commit that refuses it withdraws it, and r2's goal goes to
        w.far as well: the grant stands."""
        network = Network(clock=clock)
        r1, r1b, r2, r3 = (Role(org.entity, name)
                           for name in ("r1", "r1b", "r2", "r3"))
        server, mid, honest, far, _rogue = _hosts(
            network, clock, org,
            ("w.local", "w.mid", "w.honest", "w.far", "w.rogue"))
        server.wallet.publish(
            issue(org, alice.entity, r1, object_tag=_tag("w.mid")))
        server.wallet.publish(
            issue(org, alice.entity, r1b, object_tag=_tag("w.honest")))
        mid.wallet.store.add_delegation(_forged(issue(
            org, r1, r2, subject_tag=_tag("w.mid"),
            object_tag=_tag("w.rogue"))))
        honest.wallet.publish(issue(org, r1b, r2,
                                    subject_tag=_tag("w.honest"),
                                    object_tag=_tag("w.far")))
        far.wallet.publish(issue(org, r2, r3, subject_tag=_tag("w.far")))
        engine = DiscoveryEngine(server)
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, r3, stats=stats)
        assert proof is not None and proof.depth() == 3
        assert stats.wallets_contacted == {"w.mid", "w.honest", "w.rogue",
                                           "w.far"}
        assert stats.delegations_rejected == 1
        # Following the checked closures again is not a loop.
        assert engine.gem_info()["loops_detected"] == 1


class _ThirdPartyMid(WalletServer):
    """Answers every goal with its ``link``, shipped without a support
    proof."""

    def _rpc_gem_eval(self, src, params):
        self._gem_push_answers(src, params, [Proof.single(self.link)])


class TestUnsupportedThirdParty:
    def test_a_link_without_its_support_claim_routes_nothing(
            self, org, alice, bob, clock):
        """w.mid serves ``[r1 -> r2] Bob``, a third-party link into Org's
        namespace with no support proof; its object tag names w.rogue.
        Staging refuses it before its tag can route: one goal, no
        grant, and w.rogue is never asked."""
        network = Network(clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        server, = _hosts(network, clock, org, ("w.local",))
        mid, = _hosts(network, clock, org, ("w.mid",), cls=_ThirdPartyMid)
        _hosts(network, clock, org, ("w.rogue",))
        mid.link = issue(bob, r1, r2, subject_tag=_tag("w.mid"),
                         object_tag=_tag("w.rogue"))
        server.wallet.publish(
            issue(org, alice.entity, r1, object_tag=_tag("w.mid")))
        stats = DiscoveryStats()
        assert DiscoveryEngine(server).discover(alice.entity, r2,
                                                stats=stats) is None
        assert "w.rogue" not in stats.wallets_contacted
        assert stats.rounds == 1


class TestOneBatchPerDiscovery:
    """An honest cold discovery checks every signature it was shipped in
    one ``keys.verify_batch`` call, and checks none of them alone."""

    @staticmethod
    def _figure2():
        d = build_distributed_case_study(seed=11)
        return d.server, [d.bigisp_home, d.airnet_home], d.run_steps_1_to_5

    @staticmethod
    def _federation():
        fed = build_distributed_federation(domains=6, users_per_domain=2,
                                           seed=7)
        homes = [domain.home for domain in fed.domains]
        return fed.domains[0].server, homes, lambda: fed.authorize(5, 0, 0)

    @staticmethod
    def _scc():
        workload = topology.make_scc_heavy(6, 6, seed=7)
        fresh = [(Delegation.from_dict(d.to_dict()), supports)
                 for d, supports in workload.delegations]
        dep = deploy_coalition(dataclasses.replace(workload,
                                                   delegations=fresh))
        return dep.server, list(dep.homes.values()), \
            lambda: dep.authorize(max_remote_queries=2048)

    @pytest.mark.parametrize("build", ["_figure2", "_federation", "_scc"])
    def test_one_batch_checks_what_was_shipped(self, build, monkeypatch):
        with verify_cache.scoped():
            server, homes, authorize = getattr(self, build)()
        home_signatures = {d.signature for home in homes
                           for d in home.wallet.store.delegations()}
        batches, singles = [], []
        real_batch, real_single = keys.verify_batch, keys.PublicKey.verify

        def batch(items):
            batches.append({signature for _k, _m, signature in items})
            return real_batch(items)

        def single(key, message, signature):
            singles.append(signature)
            return real_single(key, message, signature)

        monkeypatch.setattr(keys, "verify_batch", batch)
        monkeypatch.setattr(keys.PublicKey, "verify", single)
        with verify_cache.scoped():
            assert authorize() is not None
        shipped = [signatures & home_signatures for signatures in batches]
        shipped = [signatures for signatures in shipped if signatures]
        assert len(shipped) == 1
        # It covers every copy the origin now keeps, supports included.
        store = server.wallet.store
        kept = {d.signature for copy in server.cache.ids()
                for d in (store.get_delegation(copy),) + tuple(
                    link for support in store.supports_for(copy)
                    for link in support.all_delegations())}
        assert kept and kept <= shipped[0]
        assert not home_signatures.intersection(singles)

    @pytest.mark.parametrize("build", ["_figure2", "_federation", "_scc"])
    def test_one_equation_and_no_single_check(self, build, monkeypatch):
        """The credential the user presents joins the batch of what was
        fetched: a cold authorize checks every signature in one
        ``keys.verify_batch``, one equation, and no Schnorr signature
        alone."""
        with verify_cache.scoped():
            server, _homes, authorize = getattr(self, build)()
        batches, equations, singles = [], [], []
        real_batch = keys.verify_batch
        real_equation = schnorr.ec.batch_equation_holds
        real_single = schnorr._single_check
        monkeypatch.setattr(keys, "verify_batch", lambda items: (
            batches.append(len(items)) or real_batch(items)))
        monkeypatch.setattr(schnorr.ec, "batch_equation_holds",
                            lambda *sides: equations.append(1)
                            or real_equation(*sides))
        monkeypatch.setattr(schnorr, "_single_check",
                            lambda *args: singles.append(1)
                            or real_single(*args))
        with verify_cache.scoped():
            assert authorize() is not None
        assert len(batches) == len(equations) == 1 and singles == []
        # Everything the origin now holds was in it.
        store = server.wallet.store
        held = {d.id for d in store.delegations()} | {
            link.id for copy in server.cache.ids()
            for support in store.supports_for(copy)
            for link in support.all_delegations()}
        assert batches[0] == len(held)


class TestPresented:
    """alice presents ``[alice -> r1]``, whose object tag names w.mid,
    which holds ``[r1 -> r2]``."""

    @pytest.fixture()
    def presenting(self, org, alice, clock):
        network = Network(clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        server, mid = _hosts(network, clock, org, ("w.local", "w.mid"))
        credential = issue(org, alice.entity, r1, object_tag=_tag("w.mid"))
        mid.wallet.publish(issue(org, r1, r2, subject_tag=_tag("w.mid")))
        return DiscoveryEngine(server), server, mid, network, credential, \
            r1, r2

    def test_joins_the_search_and_the_wallet(self, presenting, alice):
        engine, server, mid, network, credential, _r1, r2 = presenting
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, r2, stats=stats,
                                presented=[(credential, ())])
        assert proof is not None and proof.depth() == 2
        # Its tag routed the one goal; it is held as published, not as
        # a fetched copy.
        assert stats.rounds == 1 and network.totals.messages == 2
        assert server.wallet.store.get_delegation(credential.id) \
            is not None
        assert credential.id not in server.cache
        assert stats.delegations_cached == 1

    def test_completing_the_chain_alone_sends_nothing(self, presenting,
                                                      alice):
        engine, server, _mid, network, credential, r1, _r2 = presenting
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, r1, stats=stats,
                                presented=[(credential, ())])
        assert proof is not None and proof.chain == (credential,)
        assert network.totals.messages == 0 and stats.rounds == 0
        assert stats.local_hit
        assert server.wallet.store.get_delegation(credential.id) \
            is not None
        # Presented again, it is already held: a local hit as before.
        assert engine.discover(alice.entity, r1,
                               presented=[(credential, ())]) == proof
        assert network.totals.messages == 0

    @pytest.mark.parametrize("budget", [0, 1, 64])
    def test_a_forged_one_raises_as_the_wallet_did(self, presenting,
                                                   alice, budget):
        """Its signature is checked at the first commit, so its tag has
        routed goals by then -- never more than the budget allows. It
        then raises the wallet's own refusal, and enters nothing."""
        engine, server, mid, network, credential, _r1, r2 = presenting
        forged = _forged(credential)
        with pytest.raises(PublicationError) as refused:
            server.wallet.publish(forged)
        stats = DiscoveryStats()
        with pytest.raises(PublicationError) as raised:
            engine.discover(alice.entity, r2, stats=stats,
                            max_remote_queries=budget,
                            presented=[(forged, ())])
        assert str(raised.value) == str(refused.value)
        assert stats.rounds == min(budget, 1)
        assert network.totals.messages == 2 * stats.rounds
        assert server.wallet.store.get_delegation(forged.id) is None
        assert forged.id not in server.cache
        assert forged.id not in engine.result_cache._by_delegation
        assert all(forged.id not in held
                   for held in mid._holdings.values())
        # What the goal fetched is genuine and kept, with its holding.
        assert stats.delegations_cached == stats.rounds
        assert mid.holdings_count() == stats.rounds

    def test_an_expired_one_raises_before_any_goal(self, presenting, org,
                                                   alice, clock):
        engine, server, _mid, network, _credential, r1, r2 = presenting
        expired = issue(org, alice.entity, r1, expiry=clock.now() - 1.0,
                        object_tag=_tag("w.mid"))
        with pytest.raises(PublicationError, match="expired"):
            engine.discover(alice.entity, r2, presented=[(expired, ())])
        assert network.totals.messages == 0
        assert server.wallet.store.get_delegation(expired.id) is None


class TestConstrainedReach:
    """alice reaches ``t`` through w.a's ``[hub -> narrow]`` and w.b's
    ``[narrow -> t]``, each taking 30 off ``bw`` (each home's closure
    passes ``bw >= 50`` alone; the chain grants 40), and through w.a's
    ``[hub -> w1]`` and w.c's ``[w1 -> t]`` (grants 90)."""

    @pytest.fixture()
    def two_paths(self, org, alice, clock):
        network = Network(clock=clock)
        bw = AttributeRef(org.entity, "bw")
        hub, narrow, w1, t = (Role(org.entity, name)
                              for name in ("hub", "narrow", "w1", "t"))
        server, home_a, home_b, home_c = _hosts(
            network, clock, org, ("w.local", "w.a", "w.b", "w.c"))
        server.wallet.publish(
            issue(org, alice.entity, hub, object_tag=_tag("w.a")))
        minus_30 = [Modifier(bw, Operator.SUBTRACT, 30)]
        home_a.wallet.publish(issue(org, hub, narrow, modifiers=minus_30,
                                    subject_tag=_tag("w.a"),
                                    object_tag=_tag("w.b")))
        home_a.wallet.publish(issue(
            org, hub, w1, modifiers=[Modifier(bw, Operator.SUBTRACT, 10)],
            subject_tag=_tag("w.a"), object_tag=_tag("w.c")))
        home_b.wallet.publish(issue(org, narrow, t, modifiers=minus_30,
                                    subject_tag=_tag("w.b")))
        home_c.wallet.publish(issue(org, w1, t, subject_tag=_tag("w.c")))
        return DiscoveryEngine(server), network, bw, t

    def test_commits_early_and_searches_on(self, two_paths, alice,
                                           monkeypatch):
        engine, network, bw, t = two_paths
        stats = DiscoveryStats()
        commits = []
        real = engine._commit

        def commit(search, now):
            commits.append(search.stats.rounds)
            return real(search, now)

        monkeypatch.setattr(engine, "_commit", commit)
        network.reset_counters()
        proof = engine.discover(alice.entity, t,
                                constraints=[Constraint(bw, 50)],
                                bases={bw: 100.0}, stats=stats)
        assert proof is not None
        assert proof.grants({bw: 100.0})[bw] == 90
        # w.a's answer reaches nothing; w.b's reaches t unsatisfied and
        # commits; w.c's commits the proof.
        assert commits == [2, 3]
        assert stats.delegations_cached == 4
        # The messages of a search that checks every answer at once:
        # three goals, three answers.
        assert stats.rounds == 3
        assert network.totals.messages == 6


class _RevokingHome(WalletServer):
    """A home that revokes each credential it issued right after it
    ships it."""

    def _gem_push_answers(self, origin, request, proofs):
        super()._gem_push_answers(origin, request, proofs)
        for proof in proofs:
            for delegation in proof.all_delegations():
                if delegation.issuer == self.principal.entity \
                        and not self.wallet.is_revoked(delegation.id):
                    self.wallet.revoke(self.principal, delegation.id)


class TestRevokedBeforeCommit:
    def test_a_revocation_ahead_of_its_copy_denies(self, org, alice,
                                                   clock):
        """The REVOKED push lands while the copy is staged: it verifies
        against the copy the search received, is recorded, and the
        commit refuses the copy. The home ended its holding with the
        push."""
        network = Network(clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        server, = _hosts(network, clock, org, ("w.local",))
        mid, = _hosts(network, clock, org, ("w.mid",), cls=_RevokingHome)
        server.wallet.publish(
            issue(org, alice.entity, r1, object_tag=_tag("w.mid")))
        bridge = issue(org, r1, r2, subject_tag=_tag("w.mid"))
        mid.wallet.publish(bridge)
        engine = DiscoveryEngine(server)
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, r2, stats=stats) is None
        assert server.wallet.is_revoked(bridge.id)
        assert server.wallet.store.get_delegation(bridge.id) is None
        assert bridge.id not in server.cache
        assert stats.delegations_rejected == 1
        assert mid.holdings_count() == 0

    def test_a_forged_revocation_is_still_refused(self, org, alice, bob,
                                                  clock):
        """The received copy names its issuer: a revocation by anyone
        else does not verify against it."""
        network = Network(clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        server, mid = _hosts(network, clock, org, ("w.local", "w.mid"))
        server.wallet.publish(
            issue(org, alice.entity, r1, object_tag=_tag("w.mid")))
        bridge = issue(org, r1, r2, subject_tag=_tag("w.mid"))
        mid.wallet.publish(bridge)
        engine = DiscoveryEngine(server)
        push = mid._gem_push_answers
        refused = []

        def push_then_forge(origin, request, proofs):
            push(origin, request, proofs)
            # Bob signs a revocation for a credential Org issued.
            unsigned = Revocation(delegation_id=bridge.id,
                                  issuer=bob.entity, revoked_at=0.0)
            forged = dataclasses.replace(
                unsigned, signature=bob.sign(unsigned.signing_bytes()))
            assert forged.verify_standalone()
            refused.append(not server.cache.apply_remote_revocation(forged))

        mid._gem_push_answers = push_then_forge
        assert engine.discover(alice.entity, r2) is not None
        assert refused == [True]
        assert not server.wallet.is_revoked(bridge.id)


class TestSupportHoldings:
    def test_figure2_leaves_no_holding_once_the_leases_lapse(self):
        """BigISP's home holds, for the server, the coalition credential
        and the links of its support proof; each is released when the
        last copy needing it goes."""
        d = build_distributed_case_study(seed=11)
        d.server.wallet.publish(d.case.d1_maria_member)
        assert d.engine.discover(d.case.maria.entity,
                                 d.case.airnet_access) is not None
        assert d.bigisp_home.holdings_count() > 1
        cache = d.server.cache
        for peer, held in d.bigisp_home._holdings.items():
            assert all(cache.holds(d.bigisp_home.address, delegation_id)
                       for delegation_id in held)
        d.clock.advance(31.0)
        assert len(cache.sweep()) == 2
        assert d.bigisp_home.holdings_count() == 0
        assert d.airnet_home.holdings_count() == 0

    def test_a_revoked_support_link_ends_its_holding_silently(self):
        """A support link revoked at its home: the push ends that
        holding at both ends with no message; the copy that needed it
        releases only the rest when it goes."""
        d = build_distributed_case_study(seed=11)
        d.server.wallet.publish(d.case.d1_maria_member)
        assert d.engine.discover(d.case.maria.entity,
                                 d.case.airnet_access) is not None
        home, cache = d.bigisp_home, d.server.cache
        support = next(
            link for copy in cache.ids()
            for proof in d.server.wallet.store.supports_for(copy)
            for link in proof.chain if cache.holds(home.address, link.id)
            and link.id not in cache)
        issuer = next(p for p in (d.case.big_isp, d.case.air_net)
                      if p.entity == support.issuer)
        before = home.holdings_count()
        d.network.reset_counters()
        home.wallet.revoke(issuer, support.id)
        assert d.server.wallet.is_revoked(support.id)
        assert not cache.holds(home.address, support.id)
        assert home.holdings_count() == before - 1
        assert d.network.messages_from(d.server.address,
                                       "notify:unsubscribe") == 0
        d.clock.advance(31.0)
        cache.sweep()
        assert home.holdings_count() == 0


    def test_a_revoked_copy_costs_one_push(self):
        """The coalition credential itself revoked at BigISP's home: one
        push, no unsubscribe; the holdings of its support-proof links
        are needed by no other copy and go at the next sweep, before
        any lease lapses."""
        d = build_distributed_case_study(seed=11)
        d.server.wallet.publish(d.case.d1_maria_member)
        assert d.engine.discover(d.case.maria.entity,
                                 d.case.airnet_access) is not None
        home, cache = d.bigisp_home, d.server.cache
        coalition = d.case.d2_coalition
        supports = {link.id for proof in
                    d.server.wallet.store.supports_for(coalition.id)
                    for link in proof.all_delegations()}
        held = set(home._holdings[d.server.address])
        assert coalition.id in held and supports & held
        d.network.reset_counters()
        home.wallet.revoke(d.case.sheila, coalition.id)
        assert d.network.totals.messages == 1
        assert set(home._holdings[d.server.address]) \
            == held - {coalition.id}
        assert cache.sweep() == []
        assert d.network.messages_from(d.server.address,
                                       "notify:unsubscribe") \
            == len(supports & held)
        assert not set(home._holdings.get(d.server.address, ())) & supports


# -- forged signatures anywhere in a coalition (long profile in CI) --------

FAMILIES = {
    "ring": lambda seed: topology.make_ring_coalition(4, seed=seed),
    "mesh": lambda seed: topology.make_mesh_coalition(4, seed=seed),
    "scc": lambda seed: topology.make_scc_heavy(3, 2, seed=seed),
    "deep": lambda seed: topology.make_deep_mutual_trust(3, seed=seed),
}
WORKLOADS = {(family, seed): make(seed) for family, make in FAMILIES.items()
             for seed in (81, 82)}


@settings(deadline=None)
@given(st.sampled_from(sorted(WORKLOADS)), st.data())
def test_a_forged_credential_never_enters_or_grants(key, data):
    """One home-stored credential has its signature flipped at every
    home storing it. A cold authorize grants only a proof that
    validates from scratch, the origin keeps only credentials whose
    signatures verify, and it sends no more goals than its budget."""
    workload = WORKLOADS[key]
    stored = [d for d, _s in workload.delegations
              if d.subject != workload.subject]
    target = data.draw(st.sampled_from(stored))
    budget = data.draw(st.sampled_from([2, 8, 1024]))
    dep = deploy_coalition(workload)
    try:
        forged = _forged(target)
        for home in dep.homes.values():
            store = home.wallet.store
            if store.get_delegation(target.id) is not None:
                supports = store.supports_for(target.id)
                store.remove_delegation(target.id)
                store.add_delegation(forged, supports)
                home.wallet.proof_cache.clear()
        stats = DiscoveryStats()
        proof = dep.authorize(stats=stats, max_remote_queries=budget)
        assert stats.rounds <= budget
        origin = dep.server.wallet
        assert origin.store.get_delegation(target.id) is None
        with verify_cache.scoped():
            for delegation in origin.store.delegations():
                assert Delegation.from_dict(
                    delegation.to_dict()).verify_signature()
            if proof is not None:
                assert target.id not in {d.id
                                         for d in proof.all_delegations()}
                validate_proof(Proof.from_dict(proof.to_dict()),
                               at=dep.clock.now())
    finally:
        dep.close()
