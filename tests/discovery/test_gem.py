"""Tabled goal evaluation, the engine's one search: coherence with the
seed frontier walk, loop detection and termination on cyclic
coalitions, which answer pushes an origin accepts, and the goal-table
lifecycle.

The load-bearing invariants: (1) the engine may use a different wire
pattern than the seed walk but never finds a different *answer* --
proofs are byte-identical, result cache kept or emptied; (2) on cyclic
topologies its cross-home message count is flat in the cycle's revisit
count, where the seed walk re-expands; (3) only the home a goal was
sent to can answer it, once.
"""

import pytest

from repro.core import (
    DiscoveryTag,
    Proof,
    Role,
    SimClock,
    SubjectFlag,
    issue,
)
from repro.core.roles import subject_key
from repro.crypto.encoding import canonical_encode
from repro.discovery import gem, wire
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

from .seed_oracle import seed_discover


def _proof_bytes(proof):
    return canonical_encode(proof.to_dict())


def _cold(workload, stats=None, emptied=False):
    """Fresh deployment, one cold authorization, message count.
    ``emptied``: the reference arm, result cache cleared first."""
    dep = deploy_coalition(workload)
    try:
        if emptied:
            dep.engine.result_cache.clear()
        dep.network.reset_counters()
        proof = dep.authorize(stats=stats, max_remote_queries=1024)
        return dep, proof, dep.network.totals.messages
    finally:
        dep.close()


def _cold_oracle(workload):
    """The same, by the seed frontier walk."""
    dep = deploy_coalition(workload)
    try:
        dep.server.wallet.publish(dep.entry)
        dep.network.reset_counters()
        proof = seed_discover(dep.server, workload.subject, workload.obj,
                              max_remote_queries=1024,
                              default_ttl=dep.ttl)
        return dep, proof, dep.network.totals.messages
    finally:
        dep.close()


def _coalition(make):
    """(engine proof, oracle proof) over one coalition family."""
    def run(emptied):
        workload = make()
        return (_cold(workload, emptied=emptied)[1],
                _cold_oracle(workload)[1])
    return run


def _case_study(emptied):
    proofs = []
    for use_engine in (True, False):
        d = build_distributed_case_study(seed=11)
        d.server.wallet.publish(d.case.d1_maria_member)
        if use_engine:
            if emptied:
                d.engine.result_cache.clear()
            proofs.append(d.engine.discover(d.case.maria.entity,
                                            d.case.airnet_access))
            continue
        proofs.append(seed_discover(d.server, d.case.maria.entity,
                                    d.case.airnet_access))
    return proofs


def _federation(emptied):
    proofs = []
    for use_engine in (True, False):
        fed = build_distributed_federation(domains=6, users_per_domain=1,
                                           seed=7)
        if use_engine:
            if emptied:
                fed.domains[0].engine.result_cache.clear()
            proofs.append(fed.authorize(5, 0, 0))
            continue
        source, target = fed.domains[5], fed.domains[0]
        target.server.wallet.publish(source.credentials[0])
        proofs.append(seed_discover(target.server,
                                    source.users[0].entity,
                                    target.access, default_ttl=fed.ttl))
    return proofs


FAMILIES = [
    ("ring", _coalition(lambda: topology.make_ring_coalition(4, seed=41))),
    ("mesh", _coalition(lambda: topology.make_mesh_coalition(4, seed=42))),
    ("scc", _coalition(lambda: topology.make_scc_heavy(3, 2, seed=43))),
    ("deep", _coalition(
        lambda: topology.make_deep_mutual_trust(3, seed=44))),
    ("case-study", _case_study),
    ("federation", _federation),
]


class TestCoherence:
    @pytest.mark.parametrize("name,run", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    def test_proofs_byte_identical_across_arms(self, name, run):
        """Same workload, the engine and the seed oracle, result cache
        kept and emptied: the exact same proof bytes, on every family.
        (The random digraphs are in ``test_gem_hypothesis.py``.)"""
        for emptied in (False, True):
            engine_proof, oracle_proof = run(emptied)
            assert oracle_proof is not None
            assert _proof_bytes(engine_proof) == _proof_bytes(oracle_proof)

    def test_absorbed_wallet_contents_cover_seed(self):
        """The engine stops asking once the proof exists, like the seed
        walk, but absorbs each home's whole closure: every delegation
        of the oracle's proof arrives, and nothing arrives that some
        contacted home does not store."""
        workload = topology.make_ring_coalition(4, seed=45)
        d_engine, engine_proof, _m = _cold(workload)
        _d_oracle, oracle_proof, _m = _cold_oracle(workload)
        engine_ids = {d.id for d in
                      d_engine.server.wallet.store.delegations()}
        assert {d.id for d in oracle_proof.all_delegations()} \
            <= engine_ids
        stored = {d.id for home in d_engine.homes.values()
                  for d in home.wallet.store.delegations()}
        assert engine_ids <= stored | {d_engine.entry.id}
        assert _proof_bytes(engine_proof) == _proof_bytes(oracle_proof)


class TestTermination:
    def test_messages_flat_in_revisit_count(self):
        """Growing the SCC components grows the number of times the
        seed frontier revisits each home; the engine tables every goal
        once, so its cross-home message count must not move at all."""
        engine_msgs, seed_msgs = [], []
        for m in (2, 4):
            workload = topology.make_scc_heavy(3, m, seed=46)
            _d, proof, msgs = _cold(workload)
            assert proof is not None
            engine_msgs.append(msgs)
            _d, proof, msgs = _cold_oracle(workload)
            assert proof is not None
            seed_msgs.append(msgs)
        assert engine_msgs[0] == engine_msgs[1]
        assert seed_msgs[0] < seed_msgs[1]

    def test_loops_detected_at_origin(self):
        """A mesh home's closure bridges back into a home already
        asked: the origin's issued-set catches it and the terminate
        wave covers the loop ends."""
        workload = topology.make_mesh_coalition(4, seed=47)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize() is not None
            info = dep.engine.gem_info()
            assert info["loops_detected"] >= 1
            assert info["terminates_sent"] >= 1
        finally:
            dep.close()

    def test_each_home_evaluates_each_goal_once(self):
        """No goal is ever re-evaluated: evals served across the
        coalition equals evals issued by the origin (every one-way
        eval lands on a fresh table slot)."""
        workload = topology.make_scc_heavy(3, 3, seed=48)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize() is not None
            info = dep.engine.gem_info()
            served = sum(home.gem_tables.info()["evals_served"]
                         for home in dep.homes.values())
            assert info["evals_issued"] == info["answers_received"] \
                == served > 0
            assert info["answers_dropped"] == 0
        finally:
            dep.close()

    def test_stops_asking_once_the_proof_exists(self):
        """Cost follows the proof, not the coalition: a user one
        bridge away contacts two homes of six."""
        fed = build_distributed_federation(domains=6, users_per_domain=1)
        stats = DiscoveryStats()
        assert fed.authorize(1, 0, 0, stats=stats) is not None
        assert stats.wallets_contacted == {"wallet.d1.example",
                                           "wallet.d0.example"}
        assert stats.rounds == 2


@pytest.fixture()
def two_home(org, alice, clock):
    """[alice -> r1] local, [r1 -> r2] at w.mid, [r2 -> r3] at w.far,
    and a third wallet host, w.rogue, nobody's tag names."""
    network = Network(clock=clock)
    r1, r2, r3 = (Role(org.entity, n) for n in ("r1", "r2", "r3"))

    def tag(home):
        return DiscoveryTag(home=home, ttl=30.0,
                            subject_flag=SubjectFlag.SEARCH)

    def host(address):
        return WalletServer(
            network, Wallet(owner=org, address=address, clock=clock),
            principal=org)

    server, mid, far, rogue = (host(a) for a in (
        "w.local", "w.mid", "w.far", "w.rogue"))
    server.wallet.publish(
        issue(org, alice.entity, r1, object_tag=tag("w.mid")))
    mid.wallet.publish(issue(org, r1, r2, subject_tag=tag("w.mid"),
                             object_tag=tag("w.far")))
    far.wallet.publish(issue(org, r2, r3, subject_tag=tag("w.far")))
    return DiscoveryEngine(server), server, rogue, network, (r1, r2, r3)


class TestAnswerAcceptance:
    """Root ids are guessable (``addr#gemN``), so what an origin
    absorbs is decided by who was asked what, never by what a push
    claims about itself."""

    @staticmethod
    def _empty_answer(root_id, node):
        return {"root": root_id, "status": "done", "answers": [],
                "subs": {}, "goal": wire.gem_goal_to_wire("fwd", node)}

    def _interfere(self, engine, interfere):
        """Run ``interfere(root_id)`` the moment w.mid is asked, before
        its own answer is pushed."""
        mid_eval = engine.server.network._handlers["w.mid"]

        def handler(src, topic, payload):
            if topic == "notify:gem_eval" and src == "w.local":
                interfere(payload["params"]["root"])
            return mid_eval(src, topic, payload)

        engine.server.network._handlers["w.mid"] = handler

    def test_misattributed_answer_is_dropped(self, two_home, alice):
        """A third host plants an empty "done" closure for the goal
        w.mid was asked: dropped, so w.mid's real answer still counts,
        the proof is found and nothing negative is cached."""
        engine, server, rogue, _network, roles = two_home
        self._interfere(engine, lambda root_id: rogue.rpc.notify(
            "w.local", "gem_answers",
            dict(self._empty_answer(root_id, roles[0]), home="w.mid")))
        assert engine.discover(alice.entity, roles[2]) is not None
        assert engine.gem_info()["answers_dropped"] == 1
        assert not engine.result_cache._growable

    def test_forged_answer_for_an_unissued_goal_is_dropped(
            self, two_home, alice, org):
        """The home that *was* asked answers a goal it was not asked:
        no grant, no cache entry."""
        engine, _server, _rogue, network, roles = two_home
        ghost = Role(org.entity, "ghost")
        forged = issue(org, alice.entity, ghost)
        mid = network._handlers["w.mid"]

        def lying_mid(src, topic, payload):
            if topic == "notify:gem_eval":
                answer = self._empty_answer(payload["params"]["root"],
                                            alice.entity)
                answer["answers"] = [wire.proof_to_wire_session(
                    Proof.single(forged), set())]
                network.send("w.mid", "w.local", "notify:gem_answers",
                             {"method": "gem_answers", "params": answer,
                              "oneway": True})
            return mid(src, topic, payload)

        network._handlers["w.mid"] = lying_mid
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, ghost, stats=stats) is None
        assert engine.gem_info()["answers_dropped"] >= 1
        assert engine.server.wallet.store.get_delegation(forged.id) is None
        assert stats.delegations_cached == 2    # the honest chain only

    def test_replayed_answer_is_dropped(self, two_home, alice):
        """The real answer delivered twice counts once: the replay
        finds its goal already answered."""
        engine, server, _rogue, network, roles = two_home
        local = network._handlers["w.local"]
        replays = []

        def replaying_local(src, topic, payload):
            reply = local(src, topic, payload)
            if topic == "notify:gem_answers" and src == "w.mid" \
                    and not replays:
                replays.append(payload)
                local(src, topic, payload)
            return reply

        network._handlers["w.local"] = replaying_local
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               stats=stats) is not None
        assert replays
        info = engine.gem_info()
        assert info["answers_received"] == 2
        assert info["answers_dropped"] == 1
        assert stats.delegations_cached == 2

    def test_answer_after_the_search_is_dropped(self, two_home, alice):
        engine, _server, rogue, _network, roles = two_home
        assert engine.discover(alice.entity, roles[2]) is not None
        cached = len(engine.result_cache)
        rogue.rpc.notify("w.local", "gem_answers", self._empty_answer(
            "w.local#gem0", roles[0]))
        assert engine.gem_info()["answers_dropped"] == 1
        assert len(engine.result_cache) == cached

    def test_duplicate_record_is_not_cached(self, two_home, alice):
        """w.mid evaluates the goal but its answer push is lost; the
        retransmitted eval finds the goal tabled and answers
        "duplicate" with an empty closure. That is "no answer *yet*",
        not "no path": no entry, positive or negative, may come of it,
        so the next search (a fresh root) gets the real closure."""
        engine, _server, _rogue, network, roles = two_home
        mid = network._handlers["w.mid"]

        def flaky_mid(src, topic, payload):
            if topic == "notify:gem_eval":
                network.partition("w.mid", "w.local", bidirectional=False)
                mid(src, topic, payload)
                network.heal("w.mid", "w.local", bidirectional=False)
            return mid(src, topic, payload)

        network._handlers["w.mid"] = flaky_mid
        assert engine.discover(alice.entity, roles[2]) is None
        assert engine.gem_info()["answers_received"] == 1
        assert len(engine.result_cache) == 0
        network._handlers["w.mid"] = mid
        assert engine.discover(alice.entity, roles[2]) is not None

    def _lying_mid(self, network, forge, fetched=None):
        """w.mid answers every goal with ``forge(params)`` instead of
        its closure, and -- when ``fetched`` is given -- every
        ``get_delegation`` with that record."""
        mid = network._handlers["w.mid"]

        def handler(src, topic, payload):
            if topic == "notify:gem_eval":
                params = payload["params"]
                network.send("w.mid", "w.local", "notify:gem_answers", {
                    "method": "gem_answers", "oneway": True,
                    "params": {"root": params["root"],
                               "goal": params["goal"], "status": "done",
                               "answers": forge(params), "subs": {}}})
                return None
            if topic == "rpc:get_delegation" and fetched is not None:
                return {"error": None, "result": fetched}
            return mid(src, topic, payload)

        network._handlers["w.mid"] = handler
        return mid

    @staticmethod
    def _ref_only(proof, ref):
        payload = wire.proof_to_wire_session(proof, set())
        payload["chain"] = [bytes.fromhex(ref)]
        return payload

    def test_ref_to_a_credential_nobody_has_is_not_cached(
            self, two_home, alice, org):
        """A forged answer whose ref names an id that exists nowhere:
        the fetch comes back empty, the proof is dropped, and the
        incomplete answer is cached neither way -- the next, honest
        search gets the real closure."""
        engine, _server, _rogue, network, roles = two_home
        link = issue(org, roles[0], roles[1])
        mid = self._lying_mid(network, lambda _params: [
            self._ref_only(Proof.single(link), "f" * 64)])
        assert engine.discover(alice.entity, roles[2]) is None
        info = engine.gem_info()
        assert info["refs_unresolved"] == 1
        assert info["refs_refetched"] == info["answer_records"] == 0
        assert len(engine.result_cache) == 0
        assert "rpc:subscribe" not in network.by_topic
        network._handlers["w.mid"] = mid
        assert engine.discover(alice.entity, roles[2]) is not None

    @pytest.mark.parametrize("record", ["another-credential",
                                        {"supports": []}, 5])
    def test_fetched_record_that_is_not_the_ref_is_rejected(
            self, two_home, alice, org, record):
        """The home answers the recovery fetch with a credential that
        does not hash to the ref it sent, or with no credential record
        at all: not absorbed, not subscribed to, nothing cached, and
        nothing raised out of ``discover``."""
        engine, server, _rogue, network, roles = two_home
        link = issue(org, roles[0], roles[1])
        other = issue(org, roles[0], roles[2])
        if record == "another-credential":
            record = {"delegation": wire.delegation_to_wire(other),
                      "supports": []}
        mid = self._lying_mid(
            network,
            lambda _params: [self._ref_only(Proof.single(link), link.id)],
            fetched=record)
        assert engine.discover(alice.entity, roles[2]) is None
        assert engine.gem_info()["refs_unresolved"] == 1
        assert server.wallet.store.get_delegation(other.id) is None
        assert len(engine.result_cache) == 0
        assert "rpc:subscribe" not in network.by_topic
        network._handlers["w.mid"] = mid
        assert engine.discover(alice.entity, roles[2]) is not None

    def test_malformed_proof_beside_a_lost_ref_raises_nothing(
            self, two_home, alice, org):
        """The deferred decode runs in ``_pump``, outside the RPC
        layer's fault boundary: a record not shaped like a proof is
        dropped there, not raised out of ``discover``."""
        engine, server, _rogue, network, roles = two_home
        held, = server.wallet.store.delegations()
        link = issue(org, roles[0], roles[1])

        def forge(_params):
            lost = self._ref_only(Proof.single(link), "f" * 64)
            return [lost, dict(lost, subject=5,
                               chain=[bytes.fromhex(held.id)])]

        self._lying_mid(network, forge)
        assert engine.discover(alice.entity, roles[2]) is None
        assert engine.gem_info()["refs_from_holdings"] == 1
        assert engine.gem_info()["answer_records"] == 0
        assert len(engine.result_cache) == 0

    def test_lost_copy_is_refetched_from_pump(self, two_home, alice,
                                              clock):
        """The origin's lease lapses while its ``unsubscribe`` is lost
        to a partition, so w.mid still believes it holds the link and
        sends a ref. The origin fetches it back -- 2 + 2 messages, from
        ``_pump``, never from inside the answer sink on the home's
        stack -- and w.mid still has one subscription for it."""
        engine, server, _rogue, network, roles = two_home
        assert engine.discover(alice.entity, roles[2]) is not None
        network.partition("w.local", "w.mid", bidirectional=False)
        clock.advance(31.0)
        assert len(server.cache.sweep()) == 2
        network.heal("w.local", "w.mid", bidirectional=False)
        engine.result_cache.clear()

        in_sink, sink = [], server.gem_answer_sink

        def watched_sink(src, params):
            in_sink.append(src)
            try:
                sink(src, params)
            finally:
                in_sink.pop()

        server.gem_answer_sink = watched_sink
        mid = network._handlers["w.mid"]

        def watching_mid(src, topic, payload):
            assert topic.startswith("notify:gem_") or not in_sink
            return mid(src, topic, payload)

        network._handlers["w.mid"] = watching_mid
        network.reset_counters()
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               stats=stats) is not None
        assert engine.gem_info()["refs_refetched"] == 1
        assert engine.gem_info()["refs_unresolved"] == 0
        calls = network.topic_summary("rpc:")
        assert calls["get_delegation"]["messages"] == 1
        assert calls["subscribe"]["messages"] == 1
        assert stats.delegations_cached == 2
        assert len(engine.result_cache) == 2

    def test_another_origins_table_is_out_of_reach(self, two_home, alice):
        """Goal tables are keyed by the host that opened them: a third
        host reusing the origin's root id neither reads, redirects nor
        flushes its table."""
        engine, _server, rogue, _network, roles = two_home
        interfered = []

        def squat(root_id):
            rogue.rpc.notify("w.mid", "gem_eval", {
                "root": root_id, "subscribe": False,
                "goal": wire.gem_goal_to_wire("fwd", roles[0])})
            rogue.rpc.notify("w.mid", "gem_terminate", {"root": root_id})
            interfered.append(root_id)

        self._interfere(engine, squat)
        assert engine.discover(alice.entity, roles[2]) is not None
        assert interfered
        # w.mid answered the origin "done", not "duplicate", and to it.
        assert engine.gem_info()["answers_dropped"] == 0
        assert {key[0] for key in engine.result_cache._entries} \
            == {"w.mid", "w.far"}


class TestGoalTables:
    def test_full_store_evicts_the_oldest_table(self):
        """Past ``max_roots`` the table created first goes, however
        recently it was used."""
        store = gem.GemTableStore(max_roots=2)
        store.get_or_create("a", "origin", now=0.0)
        store.get_or_create("b", "origin", now=1.0)
        assert store.get_or_create("a", "origin", now=2.0).activate(
            ("fwd", ("entity", "x")))
        store.get_or_create("c", "origin", now=3.0)
        assert store.get("a") is None
        assert store.get("b") is not None and store.get("c") is not None

    def test_tables_flushed_after_run(self):
        """Loop participants are flushed by the terminate wave; the
        rest expire by TTL sweep -- nothing outlives the table TTL."""
        workload = topology.make_ring_coalition(4, seed=49)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize() is not None
            dep.clock.advance(gem.DEFAULT_TABLE_TTL + 1.0)
            now = dep.clock.now()
            for home in dep.homes.values():
                home.gem_tables.sweep(now)
                assert len(home.gem_tables) == 0
        finally:
            dep.close()

    def test_hub_event_flushes_tables(self):
        """A local mutation makes every tabled goal stale: the
        hub wildcard subscription flushes the whole store."""
        workload = topology.make_ring_coalition(4, seed=50)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize() is not None
            home = next(h for h in dep.homes.values()
                        if len(h.gem_tables))
            issuers = {p.entity.id: p
                       for p in dep.workload.principals.values()}
            delegation, principal = next(
                (d, issuers[d.issuer.id])
                for d in home.wallet.store.delegations()
                if d.issuer.id in issuers)
            home.wallet.revoke(principal, delegation.id)
            assert len(home.gem_tables) == 0
        finally:
            dep.close()

    def test_duplicate_answer_never_caches_negative(self):
        """Nothing a cyclic coalition's search absorbs may plant a
        negative entry for a home that has an answer (the
        cyclic-topology negative-cache hazard)."""
        workload = topology.make_ring_coalition(4, seed=51)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize() is not None
            cache = dep.engine.result_cache
            assert not cache._growable
        finally:
            dep.close()

    def test_gem_feeds_discovery_cache(self):
        """Tabled answers land in the result cache, and the engine
        reads it back: once a bridge is revoked, the re-search asks
        only the home whose closure the revocation invalidated."""
        fed = build_distributed_federation(domains=6, users_per_domain=1)
        assert fed.authorize(5, 0, 0) is not None
        engine = fed.domains[0].engine
        assert len(engine.result_cache) == 6
        issuer, holder = fed.domains[2], fed.domains[3]
        holder.home.wallet.revoke(issuer.principal, issuer.bridge.id)
        assert len(engine.result_cache) == 5
        stats = DiscoveryStats()
        assert fed.authorize(5, 0, 0, stats=stats) is None
        assert stats.wallets_contacted == {"wallet.d3.example"}
        assert stats.rounds == 1
        assert stats.cache_hits == 2


class TestHoldings:
    """A home's subscription table is its record of what each peer
    holds: it answers a peer with refs to what is in there, adds to it
    only what it ships, and takes back what a failed push carried."""

    @staticmethod
    def _subscriptions(dep):
        counts = {}
        for address, home in dep.homes.items():
            counts[address] = home.holdings_count()
            # One hub subscription per (peer, delegation) pair; the
            # other two are the wallet's and the server's wildcards.
            assert home.wallet.hub.total_subscriptions() \
                == counts[address] + 2
        return counts

    def test_rediscovery_ships_refs_and_leaks_no_subscriptions(self):
        workload = topology.make_scc_heavy(6, 6, seed=1)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize(max_remote_queries=2048) is not None
            bridges = {
                (d.subject_tag.home, d.object_tag.home): d
                for d, _ in workload.delegations
                if d.subject_tag is not None and d.object_tag is not None
                and d.subject_tag.home != d.object_tag.home}
            bridge = bridges["wallet.d3.example", "wallet.d4.example"]
            dep.homes["wallet.d3.example"].wallet.revoke(
                workload.principals["D4"], bridge.id)
            after = []
            for _ in range(3):
                dep.network.reset_counters()
                assert dep.authorize(max_remote_queries=2048) is None
                after.append(self._subscriptions(dep))
                dep.engine.result_cache.clear()
            assert after[0] == after[1] == after[2]
            info = dep.engine.gem_info()
            assert info["refs_from_holdings"] > 0
            assert info["refs_refetched"] == info["refs_unresolved"] == 0
            # The last, fully cold denial moved refs, not credentials.
            assert "rpc:subscribe" not in dep.network.by_topic
            assert dep.network.totals.bytes < 60_000

            other = bridges["wallet.d1.example", "wallet.d2.example"]
            dep.network.reset_counters()
            dep.homes["wallet.d1.example"].wallet.revoke(
                workload.principals["D2"], other.id)
            assert dep.network.by_topic[
                "notify:delegation_event"].messages == 1
            assert dep.server.wallet.is_revoked(other.id)
        finally:
            dep.close()

    def test_failed_push_takes_its_subscriptions_back(self):
        """The answer push is lost to a one-way partition: the
        subscriptions made for it would have no holder, and the sent-set
        would promise refs to what never arrived."""
        workload = topology.make_ring_coalition(3, seed=52)
        dep = deploy_coalition(workload)
        try:
            lossy = sorted(dep.homes)[1]
            dep.network.partition(lossy, dep.server.address,
                                  bidirectional=False)
            assert dep.authorize() is None
            assert dep.homes[lossy].gem_tables.stats.to_dict()[
                "evals_served"] >= 1
            assert self._subscriptions(dep)[lossy] == 0
            assert all(not table.sent_ids for table in
                       dep.homes[lossy].gem_tables._tables.values())
            dep.network.heal(lossy, dep.server.address,
                             bidirectional=False)
            dep.engine.result_cache.clear()
            assert dep.authorize() is not None
            assert self._subscriptions(dep)[lossy] > 0
        finally:
            dep.close()


@pytest.fixture(scope="module")
def dual_home():
    """``disc_scc``'s coalition and its D3 -> D4 bridge, which the
    bridge's ``S``/``O`` tags place at both wallet.d3 and wallet.d4."""
    workload = topology.make_scc_heavy(6, 6, seed=1)
    bridge = next(
        d for d, _ in workload.delegations
        if d.subject_tag is not None and d.object_tag is not None
        and (d.subject_tag.home, d.object_tag.home)
        == ("wallet.d3.example", "wallet.d4.example"))
    assert bridge.homes == ("wallet.d3.example", "wallet.d4.example")
    return workload, bridge


class TestRevocationFollowsPlacement:
    """Section 6: a revocation stops every proof that uses the
    delegation -- at whichever of its homes it was accepted, and even
    where a home still serves the revoked copy."""

    @staticmethod
    def _revoke(dep, workload, bridge, at):
        dep.homes[at].wallet.revoke(workload.principals["D4"], bridge.id)
        assert all(dep.homes[home].wallet.is_revoked(bridge.id)
                   for home in bridge.homes)

    def test_revoked_at_its_other_home_a_warm_server_denies(
            self, dual_home):
        """The server's subscription for the bridge is at d3; D4
        revokes at d4. d4 hands the revocation to d3 -- one notify, not
        echoed -- and d3 pushes it to the server."""
        workload, bridge = dual_home
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize(max_remote_queries=2048) is not None
            dep.network.reset_counters()
            self._revoke(dep, workload, bridge, "wallet.d4.example")
            assert dep.network.by_topic["notify:revocation"].messages == 1
            assert dep.network.by_topic[
                "notify:delegation_event"].messages == 1
            assert dep.server.wallet.is_revoked(bridge.id)
            assert dep.authorize(max_remote_queries=2048) is None
        finally:
            dep.close()

    def test_a_cold_server_is_not_served_the_other_homes_copy(
            self, dual_home):
        """Revoked at d3 before the server ever saw it: given the
        object's tag, the reverse search reaches d4, which must not
        serve its copy of the bridge."""
        workload, bridge = dual_home
        dep = deploy_coalition(workload)
        try:
            self._revoke(dep, workload, bridge, "wallet.d3.example")
            tag = next(d.object_tag for d, _ in workload.delegations
                       if d.obj == workload.obj and d.object_tag)
            dep.server.wallet.publish(dep.entry)
            assert dep.engine.discover(
                workload.subject, workload.obj,
                hints={subject_key(workload.obj): tag},
                max_remote_queries=2048) is None
        finally:
            dep.close()

    def test_denied_reauthorize_asks_only_live_goals(self, dual_home):
        """Four of the six reverse goals are reachable only through the
        revoked bridge; neither home follows it any more."""
        workload, bridge = dual_home
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize(max_remote_queries=2048) is not None
            self._revoke(dep, workload, bridge, "wallet.d3.example")
            stats = DiscoveryStats()
            assert dep.authorize(stats=stats,
                                 max_remote_queries=2048) is None
            assert (stats.rounds, stats.remote_subject_queries,
                    stats.remote_object_queries) == (3, 1, 2)
            assert stats.wire_messages == 7
        finally:
            dep.close()

    def test_a_held_revoked_link_a_home_still_serves_is_refused(
            self, dual_home):
        """The hand-over to d4 is lost, so d4 still serves the bridge
        the server holds as revoked: the proofs through it are not
        verified, their heads not followed, and the closure not
        cached, so the next search asks that goal again."""
        workload, bridge = dual_home
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize(max_remote_queries=2048) is not None
            dep.network.partition("wallet.d3.example", "wallet.d4.example",
                                  bidirectional=False)
            dep.homes["wallet.d3.example"].wallet.revoke(
                workload.principals["D4"], bridge.id)
            assert dep.homes["wallet.d3.example"].pushes_failed == 1
            assert not dep.homes["wallet.d4.example"].wallet.is_revoked(
                bridge.id)
            for goals in (3, 1):
                stats = DiscoveryStats()
                assert dep.authorize(stats=stats,
                                     max_remote_queries=2048) is None
                assert stats.rounds == goals
                assert stats.delegations_rejected == 1
        finally:
            dep.close()

    def test_a_held_link_expired_here_is_refused(self, org, alice):
        """w.mid's clock lags the origin's, so it still serves a link
        that has expired at the origin. The origin's cached closure
        with that link is a miss, and the re-asked goal's answer is
        not followed. (Tags with no TTL: only the certificate's own
        expiry bounds the cached closure.)"""
        clock, lagging = SimClock(), SimClock()
        network = Network(clock=clock)
        r1, r2, r3 = (Role(org.entity, n) for n in ("r1", "r2", "r3"))

        def tag(home):
            return DiscoveryTag(home=home, subject_flag=SubjectFlag.SEARCH)

        def host(address, at):
            return WalletServer(
                network, Wallet(owner=org, address=address, clock=at),
                principal=org)

        server, mid, far = (host("w.local", clock), host("w.mid", lagging),
                            host("w.far", clock))
        server.wallet.publish(
            issue(org, alice.entity, r1, object_tag=tag("w.mid")))
        mid.wallet.publish(issue(org, r1, r2, expiry=100.0,
                                 subject_tag=tag("w.mid"),
                                 object_tag=tag("w.far")))
        far.wallet.publish(issue(org, r2, r3, subject_tag=tag("w.far")))
        engine = DiscoveryEngine(server, default_ttl=1000.0)
        assert engine.discover(alice.entity, r3) is not None
        clock.advance(150.0)
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, r3, stats=stats) is None
        assert (stats.cache_misses, stats.rounds,
                stats.delegations_rejected) == (1, 1, 1)
