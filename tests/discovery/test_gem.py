"""Tabled goal evaluation, the engine's one search: coherence with the
seed frontier walk, loop detection and termination on cyclic
coalitions, which answer pushes an origin accepts, and that a home
keeps no per-search state.

The load-bearing invariants: (1) the engine may use a different wire
pattern than the seed walk but never finds a different *answer* --
proofs are byte-identical, result cache kept or emptied; (2) on cyclic
topologies its cross-home message count is flat in the cycle's revisit
count, where the seed walk re-expands; (3) only the home a goal was
sent to can answer it, once.
"""

import pytest

from repro.core import (
    Delegation,
    DiscoveryTag,
    Proof,
    Role,
    SimClock,
    SubjectFlag,
    issue,
)
from repro.core.attributes import AttributeRef, Modifier, Operator
from repro.core.roles import subject_key
from repro.crypto.encoding import canonical_encode
from repro.discovery import wire
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
        seed frontier revisits each home; the origin issues every goal
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
        asked: the origin's issued-set catches it."""
        workload = topology.make_mesh_coalition(4, seed=47)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize() is not None
            info = dep.engine.gem_info()
            assert info["loops_detected"] >= 1
        finally:
            dep.close()

    def test_each_home_evaluates_each_goal_once(self):
        """No goal is ever re-evaluated: evals served across the
        coalition equals evals issued by the origin, which sends each
        goal once."""
        workload = topology.make_scc_heavy(3, 3, seed=48)
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize() is not None
            info = dep.engine.gem_info()
            served = sum(home.gem_stats.evals_served
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


class TestCovering:
    def test_a_head_reached_under_modifiers_is_still_asked(self, org, alice,
                                                         clock):
        """w.a holds ``[a -> b]`` and ``[a -> c]``; w.b holds ``[b -> c]``
        binding BW with ``<`` and ``[c -> t]`` binding it with ``-``. w.b's
        closure for b reaches c, but not t: ``[b -> c -> t]`` binds BW to
        two operators. So c's goal is not covered by b's answer, and
        ``alice -> a -> c -> t`` grants as a wallet holding all four
        links would grant it."""
        network = Network(clock=clock)
        bw = AttributeRef(org.entity, "BW")
        a, b, c, t = (Role(org.entity, name) for name in "abct")

        def tag(home):
            return DiscoveryTag(home=home, ttl=30.0,
                                subject_flag=SubjectFlag.SEARCH)

        server, home_a, home_b = (
            WalletServer(network, Wallet(owner=org, address=address,
                                         clock=clock), principal=org)
            for address in ("w.local", "w.a", "w.b"))
        server.wallet.publish(issue(org, alice.entity, a,
                                    object_tag=tag("w.a")))
        home_a.wallet.publish(issue(org, a, b, subject_tag=tag("w.a"),
                                    object_tag=tag("w.b")))
        home_a.wallet.publish(issue(org, a, c, subject_tag=tag("w.a"),
                                    object_tag=tag("w.b")))
        home_b.wallet.publish(issue(
            org, b, c, modifiers=[Modifier(bw, Operator.MIN, 50.0)],
            subject_tag=tag("w.b"), object_tag=tag("w.b")))
        home_b.wallet.publish(issue(
            org, c, t, modifiers=[Modifier(bw, Operator.SUBTRACT, 10.0)],
            subject_tag=tag("w.b")))
        stats = DiscoveryStats()
        proof = DiscoveryEngine(server).discover(alice.entity, t,
                                                 stats=stats)
        assert proof is not None and proof.depth() == 3
        assert proof.grants({bw: 100.0})[bw] == 90.0
        assert stats.rounds == 3


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
        return {"root": root_id, "answers": [], "table": [],
                "subs": [], "goal": wire.gem_goal_to_wire("fwd", node)}

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
        """A third host plants an empty closure for the goal
        w.mid was asked: dropped, so w.mid's real answer still counts,
        the proof is found and nothing negative is cached."""
        engine, server, rogue, _network, roles = two_home
        self._interfere(engine, lambda root_id: rogue.rpc.notify(
            "w.local", "gem_answers",
            dict(self._empty_answer(root_id, roles[0]), home="w.mid")))
        assert engine.discover(alice.entity, roles[2]) is not None
        assert engine.gem_info()["answers_dropped"] == 1
        assert not engine.result_cache._growable

    def test_malformed_goal_is_dropped(self, two_home, alice):
        """A push whose goal does not decode answers nothing: counted as
        dropped, and the search still completes."""
        engine, _server, rogue, _network, roles = two_home
        self._interfere(engine, lambda root_id: rogue.rpc.notify(
            "w.local", "gem_answers",
            dict(self._empty_answer(root_id, roles[0]),
                 goal={"dir": "fwd"})))
        assert engine.discover(alice.entity, roles[2]) is not None
        assert engine.gem_info()["answers_dropped"] == 1

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
                table = wire.Table()
                answer["answers"] = [wire.proof_to_wire_session(
                    Proof.single(forged), set(), table)]
                answer["table"] = table.entries
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
        # The replay's subs name copies already guarded by w.mid: the
        # holdings they count on are not released.
        assert network.messages_from("w.local", "notify:unsubscribe") == 0

    def test_answer_after_the_search_is_dropped(self, two_home, alice):
        engine, _server, rogue, _network, roles = two_home
        assert engine.discover(alice.entity, roles[2]) is not None
        cached = len(engine.result_cache)
        rogue.rpc.notify("w.local", "gem_answers", self._empty_answer(
            "w.local#gem0", roles[0]))
        assert engine.gem_info()["answers_dropped"] == 1
        assert len(engine.result_cache) == cached

    def test_unsolicited_subs_are_released_not_recorded(self, two_home,
                                                         alice):
        """A push nobody asked for cannot enrol its sender as a holder
        of the origin's copies: each id it lists is released back to
        the sender, and the copies stay guarded by their own home --
        even when that home itself sends the stray push."""
        engine, server, rogue, network, roles = two_home
        assert engine.discover(alice.entity, roles[2]) is not None
        held = {delegation_id: set(server.cache.entry(delegation_id).held_at)
                for delegation_id in server.cache.ids()}
        assert held and all(held.values())
        answer = self._empty_answer("w.local#gem0", roles[0])
        answer["subs"] = wire.ids_to_wire(sorted(held))
        network.reset_counters()
        rogue.rpc.notify("w.local", "gem_answers", answer)
        for home in set().union(*held.values()):
            network.send(home, "w.local", "notify:gem_answers",
                         {"method": "gem_answers", "params": answer,
                          "oneway": True})
        assert engine.gem_info()["answers_dropped"] == 1 + len(
            set().union(*held.values()))
        assert {delegation_id: server.cache.entry(delegation_id).held_at
                for delegation_id in held} == held
        unsubscribes = {(src, dst): stats.messages for (src, dst, topic),
                        stats in network.by_link_topic.items()
                        if topic == "notify:unsubscribe"}
        # Each sender gets back exactly the listed ids whose copy does
        # not already record it.
        expected = {("w.local", sender): sum(
            sender not in homes for homes in held.values())
            for sender in {"w.rogue"}.union(*held.values())}
        assert unsubscribes == {link: count for link, count
                                in expected.items() if count}
        assert unsubscribes[("w.local", "w.rogue")] == len(held)

    def test_duplicate_record_is_not_cached(self, two_home, alice):
        """The origin's eval reaches w.mid twice, so w.mid pushes its
        closure twice. The second record answers a goal already
        answered: counted as dropped, nothing inserted or cached."""
        engine, _server, _rogue, network, roles = two_home
        mid, local = network._handlers["w.mid"], network._handlers["w.local"]
        pushes = []

        def recording_local(src, topic, payload):
            if topic == "notify:gem_answers" and src == "w.mid":
                pushes.append(payload["params"])
            return local(src, topic, payload)

        def doubling_mid(src, topic, payload):
            if topic == "notify:gem_eval":
                mid(src, topic, payload)
            return mid(src, topic, payload)

        network._handlers["w.local"] = recording_local
        network._handlers["w.mid"] = doubling_mid
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               stats=stats) is not None
        # Both pushes carry the real closure, the second as a ref to
        # what the first shipped: w.mid kept nothing that could tell it
        # the goal was answered before.
        assert [len(push["answers"]) for push in pushes] == [1, 1]
        shipped, = pushes[0]["answers"][0]["chain"]
        table = wire.table_from_wire(pushes[0]["table"])
        assert pushes[1]["answers"][0]["chain"] == [bytes.fromhex(
            Delegation.from_dict(shipped, table).id)]
        assert pushes[1]["table"] == []
        info = engine.gem_info()
        assert info["answers_dropped"] == 1
        assert info["answers_received"] == 2       # w.mid, w.far
        assert stats.delegations_cached == 2
        assert engine.result_cache.info()["stores"] == 2

    def test_retransmitted_eval_gets_the_real_closure(self, two_home,
                                                      alice):
        """w.mid evaluates the goal but its answer push is lost; the
        retransmitted eval is simply answered again, with the real
        closure, and that answer is cached as a positive."""
        engine, _server, _rogue, network, roles = two_home
        mid = network._handlers["w.mid"]

        def flaky_mid(src, topic, payload):
            if topic == "notify:gem_eval":
                network.partition("w.mid", "w.local", bidirectional=False)
                mid(src, topic, payload)
                network.heal("w.mid", "w.local", bidirectional=False)
            return mid(src, topic, payload)

        network._handlers["w.mid"] = flaky_mid
        assert engine.discover(alice.entity, roles[2]) is not None
        assert engine.gem_info()["answers_received"] == 2
        cache = engine.result_cache
        assert {key[0] for key in cache._entries} == {"w.mid", "w.far"}
        assert not cache._growable

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
                               "goal": params["goal"],
                               "answers": forge(params), "table": [],
                               "subs": []}})
                return None
            if topic == "rpc:get_delegation" and fetched is not None:
                return {"error": None, "result": fetched}
            return mid(src, topic, payload)

        network._handlers["w.mid"] = handler
        return mid

    @staticmethod
    def _ref_only(proof, ref):
        payload = wire.proof_to_wire_session(proof, set(), wire.Table())
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
        """The decode runs in the driver's loop (``_drive``, through
        ``Origin.stage``), outside the RPC layer's fault boundary: a
        record not shaped like a proof is dropped there, not raised out
        of ``discover``."""
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
        the driver's loop (``_drive``), never from inside the answer
        sink on the home's stack -- and w.mid still has one
        subscription for it."""
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
        """A home keeps nothing per root, and answers whoever sent the
        eval: a third host reusing the origin's root id gets its own
        answer and neither reads nor redirects the origin's."""
        engine, _server, rogue, _network, roles = two_home
        interfered = []

        def squat(root_id):
            rogue.rpc.notify("w.mid", "gem_eval", {
                "root": root_id,
                "goal": wire.gem_goal_to_wire("fwd", roles[0])})
            interfered.append(root_id)

        self._interfere(engine, squat)
        assert engine.discover(alice.entity, roles[2]) is not None
        assert interfered
        # w.mid answered the origin its real closure, and to it.
        assert engine.gem_info()["answers_dropped"] == 0
        assert {key[0] for key in engine.result_cache._entries} \
            == {"w.mid", "w.far"}


class TestResultCacheFill:
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
        """Goal answers land in the result cache, and the engine
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
        subscriptions made for it would have no holder, and the
        holdings would promise refs to what never arrived."""
        workload = topology.make_ring_coalition(3, seed=52)
        dep = deploy_coalition(workload)
        try:
            lossy = sorted(dep.homes)[1]
            dep.network.partition(lossy, dep.server.address,
                                  bidirectional=False)
            assert dep.authorize() is None
            assert dep.homes[lossy].gem_stats.evals_served >= 1
            assert self._subscriptions(dep)[lossy] == 0
            assert dep.server.address not in dep.homes[lossy]._holdings
            dep.network.heal(lossy, dep.server.address,
                             bidirectional=False)
            dep.engine.result_cache.clear()
            assert dep.authorize() is not None
            assert self._subscriptions(dep)[lossy] > 0
        finally:
            dep.close()

    def test_evals_under_fresh_roots_grow_only_holdings(self, two_home,
                                                        alice):
        """A peer may send a home any number of goals under fresh root
        ids: nothing of the home's grows but the peer's holdings, by
        what the first answer shipped."""
        _engine, home, rogue, _network, _roles = two_home

        def sizes():
            return {name: len(value) for name, value in vars(home).items()
                    if name != "_holdings" and hasattr(value, "__len__")}

        before = sizes()
        goal = wire.gem_goal_to_wire("fwd", alice.entity)
        for i in range(300):
            rogue.rpc.notify(home.address, "gem_eval",
                             {"root": f"w.rogue#gem{i}", "goal": goal})
        assert home.gem_stats.evals_served == 300
        assert sizes() == before
        shipped, = home.wallet.store.delegations()
        assert {peer: set(held) for peer, held in home._holdings.items()} \
            == {"w.rogue": {shipped.id}}


class TestNoHoldingOutlivesItsCopy:
    def test_disc_scc_flow_leaves_no_holding(self, dual_home):
        """``disc_scc``'s flow: a cold authorize, the D3 -> D4 bridge
        revoked at wallet.d3, a re-authorize, then every lease lapses.
        The revocation is one hand-over plus one push, and ends the
        bridge's holding at both ends; a dual-home credential the
        origin was shipped by two homes is recorded at both, so the
        sweep releases it at both and no home keeps anything for the
        server."""
        workload, bridge = dual_home
        dep = deploy_coalition(workload)
        try:
            assert dep.authorize(max_remote_queries=2048) is not None
            dep.network.reset_counters()
            dep.homes["wallet.d3.example"].wallet.revoke(
                workload.principals["D4"], bridge.id)
            assert {topic: traffic.messages for topic, traffic
                    in dep.network.by_topic.items()} \
                == {"notify:revocation": 1, "notify:delegation_event": 1}
            assert dep.authorize(max_remote_queries=2048) is None
            assert any(len(entry.held_at) > 1 for entry in (
                dep.server.cache.entry(i) for i in dep.server.cache.ids()))
            dep.clock.advance(301.0)
            dep.server.cache.sweep()
            assert len(dep.server.cache) == 0
            assert {address: home.holdings_count()
                    for address, home in dep.homes.items()} \
                == dict.fromkeys(dep.homes, 0)
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
            assert stats.wire_messages == 6
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
