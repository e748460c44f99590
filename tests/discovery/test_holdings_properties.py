"""Holdings coherence: a home that answers with refs to what a peer
holds must be indistinguishable from one that ships everything.

A home's subscription table doubles as its index of which credentials
each peer holds (``WalletServer._holdings``), and discovery answers
carry a 32-byte id ref for anything in it. The state machine below
drives random interleavings of discover / revoke / lease lapse /
one-way partitions / result-cache flushes / home restarts over a
cyclic coalition and a ring federation, and after every discover
compares the live deployment with a **twin built fresh** from the same
revocation history at the same clock and with the same links cut. The
twin's origins hold nothing, so its homes ship every answer in full:
the oracle is "refs resolved == full re-ship", and it needs no switch
in ``src/``.

Two windows where a live origin may legitimately know *more* than a
fresh one are the paper's, not bugs, and weaken the comparison from
"equal" to "the twin's grant implies ours, with the same proof":

* a link is cut -- the live origin still has the copies it cached
  before (that is what the cache is for), the twin cannot fetch them;
* a revocation push could not reach the origin (cut link, restarted
  home): its copy stays until the discovery tag's lease lapses, which
  is Section 4.2.1's stated staleness bound.

Every proof in both topologies is the unique simple path, so "the same
proof" is byte equality of ``to_dict()``.

Negative result-cache entries are trusted for ``negative_ttl`` by
design; the twin has none, so the engines here run with
``negative_ttl = 0`` (an existing constructor argument).
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.errors import DRBACError
from repro.crypto.encoding import canonical_encode
from repro.discovery.resolver import WalletServer
from repro.workloads import topology
from repro.workloads.scenarios import (
    build_distributed_federation,
    deploy_coalition,
)

TTL = 300.0
EVENT = "notify:delegation_event"
# Key generation dominates the cost of a deployment; the coalition's
# principals and signed delegations are immutable and shared.
SCC = topology.make_scc_heavy(3, 2, ttl=TTL, seed=71)


class _World:
    """What the machine needs from either kind of deployment."""

    def __init__(self, network, clock, engines, homes, queries,
                 revocable):
        self.network, self.clock = network, clock
        self.engines = engines          # one per origin
        self.homes = homes              # address -> WalletServer
        self.queries = queries          # (engine index, subject, object)
        self.revocable = revocable      # (delegation, issuing principal)
        for engine in engines:
            engine.negative_ttl = 0.0
        self.baseline = {address: home.wallet.hub.total_subscriptions()
                         for address, home in homes.items()}

    def storing(self, delegation):
        return [home for home in self.homes.values()
                if home.wallet.store.get_delegation(delegation.id)
                is not None]

    def revoke(self, index, home=None):
        """Revoke one credential at every home storing it, or, given
        ``home``, at the one storing home that number picks."""
        delegation, issuer = self.revocable[index]
        storing = self.storing(delegation)
        if home is not None:
            storing = [storing[home % len(storing)]]
        for server in storing:
            server.wallet.revoke(issuer, delegation.id)

    def discover(self, index):
        engine, subject, obj = self.queries[index]
        return self.engines[engine].discover(subject, obj)

    def close(self):
        for engine in self.engines:
            engine.server.close()
        for home in self.homes.values():
            home.close()


def _scc_world():
    dep = deploy_coalition(SCC)
    dep.server.wallet.publish(dep.entry)
    issuers = {p.entity.id: p for p in SCC.principals.values()}
    roles = sorted({d.obj for d, _ in SCC.delegations}, key=str)
    return _World(
        dep.network, dep.clock, [dep.engine], dict(dep.homes),
        [(0, SCC.subject, role) for role in roles],
        [(d, issuers[d.issuer.id]) for d, _ in SCC.delegations
         if d is not dep.entry])


def _fed_world():
    """Two origins (domain 0's and domain 1's servers), so a home keeps
    holdings for more than one peer."""
    fed = build_distributed_federation(domains=4, users_per_domain=1,
                                       ttl=TTL, seed=72)
    origins = fed.domains[:2]
    queries = []
    for index, target in enumerate(origins):
        for source in fed.domains:
            if source is not target:
                target.server.wallet.publish(source.credentials[0])
                queries.append((index, source.users[0].entity,
                                target.access))
    return _World(
        fed.network, fed.clock, [d.engine for d in origins],
        {d.home.address: d.home for d in fed.domains}, queries,
        [(d.bridge, d.principal) for d in fed.domains])


WORLDS = {"scc": _scc_world, "fed": _fed_world}


def _bytes(proof):
    return None if proof is None else canonical_encode(proof.to_dict())


class HoldingsMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.world = None

    @initialize(kind=st.sampled_from(sorted(WORLDS)))
    def deploy(self, kind):
        self.kind = kind
        self.world = WORLDS[kind]()
        self.history = []               # (clock, revocable index)
        self.cut = set()                # (src, dst) one-way cuts
        self.ever_cut = False           # has any release been lost?

    def teardown(self):
        if self.world is not None:
            self.world.close()

    # -- the oracle ------------------------------------------------------

    def _twin(self):
        twin = WORLDS[self.kind]()
        for at, index in self.history:
            twin.clock.advance(at - twin.clock.now())
            twin.revoke(index)
        twin.clock.advance(self.world.clock.now() - twin.clock.now())
        for src, dst in self.cut:
            twin.network.partition(src, dst, bidirectional=False)
        return twin

    def _stale(self, origin):
        """Does ``origin`` still trust a copy its home has revoked?"""
        wallet = origin.wallet
        return any(
            wallet.store.get_delegation(delegation.id) is not None
            and not wallet.is_revoked(delegation.id)
            for delegation, _ in (self.world.revocable[index]
                                  for _at, index in self.history))

    def _link(self, origin, home, outbound):
        origin = self.world.engines[
            origin % len(self.world.engines)].server.address
        home = sorted(self.world.homes)[home % len(self.world.homes)]
        return (origin, home) if outbound else (home, origin)

    # -- rules -------------------------------------------------------------

    @rule(query=st.integers(0, 63), flush=st.booleans())
    def discover(self, query, flush):
        world = self.world
        query %= len(world.queries)
        if flush:
            for engine in world.engines:
                engine.result_cache.clear()
        try:
            ours = world.discover(query)
        except DRBACError:
            ours = None
        origin = world.engines[world.queries[query][0]].server
        twin = self._twin()
        try:
            theirs = twin.discover(query)
        finally:
            twin.close()
        if theirs is not None:
            assert _bytes(ours) == _bytes(theirs)
        elif not self.cut and not self._stale(origin):
            assert ours is None

    def _revoke(self, index, home=None):
        """Revoke a credential not revoked yet. Afterwards every home
        storing it reports it revoked, and each subscribed peer each
        such home can reach got exactly one push from it."""
        world = self.world
        index %= len(world.revocable)
        if any(index == seen for _at, seen in self.history):
            return
        delegation, _issuer = world.revocable[index]
        storing = world.storing(delegation)
        expected = {
            (server.address, peer)
            for server in storing
            for peer, held in server._holdings.items()
            if delegation.id in held
            and (server.address, peer) not in self.cut}
        world.network.reset_counters()
        world.revoke(index, home)
        self.history.append((world.clock.now(), index))
        assert all(server.wallet.is_revoked(delegation.id)
                   for server in storing)
        pushed = {link[:2]: traffic.messages for link, traffic
                  in world.network.by_link_topic.items()
                  if link[2] == EVENT}
        assert pushed == dict.fromkeys(expected, 1)

    @rule(index=st.integers(0, 63))
    def revoke(self, index):
        self._revoke(index)

    @rule(index=st.integers(0, 63), home=st.integers(0, 3))
    def revoke_at_one_home(self, index, home):
        """Revocations follow placement: revoked at one of its homes, a
        dual-home credential is revoked at the other too (the machine
        cuts only origin-home links, so every home reaches every
        other)."""
        self._revoke(index, home)

    @rule(seconds=st.sampled_from([1.0, 120.0, TTL + 1.0]))
    def advance_and_sweep(self, seconds):
        self.world.clock.advance(seconds)
        for engine in self.world.engines:
            engine.server.cache.sweep()

    @rule(origin=st.integers(0, 1), home=st.integers(0, 3),
          outbound=st.booleans())
    def partition(self, origin, home, outbound):
        link = self._link(origin, home, outbound)
        self.cut.add(link)
        self.ever_cut = True
        self.world.network.partition(*link, bidirectional=False)

    @precondition(lambda self: self.cut)
    @rule(data=st.data())
    def heal(self, data):
        link = data.draw(st.sampled_from(sorted(self.cut)))
        self.cut.discard(link)
        self.world.network.heal(*link, bidirectional=False)

    @rule(origin=st.integers(0, 1), home=st.integers(0, 3))
    def lapse_behind_a_cut(self, origin, home):
        """The three steps that lose an ``unsubscribe``, in one: the
        leases lapse while the origin cannot reach the home, so the
        home goes on believing the origin holds what it evicted."""
        link = self._link(origin, home, outbound=True)
        self.ever_cut = True
        self.world.network.partition(*link, bidirectional=False)
        self.advance_and_sweep(TTL + 1.0)
        if link not in self.cut:
            self.world.network.heal(*link, bidirectional=False)

    @rule(home=st.integers(0, 3))
    def restart_home(self, home):
        """The host goes down and comes back on the same wallet: its
        subscription table -- and so its holdings -- start empty."""
        homes = self.world.homes
        address = sorted(homes)[home % len(homes)]
        old = homes[address]
        old.close()
        homes[address] = WalletServer(old.network, old.wallet,
                                      principal=old.principal)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def one_subscription_per_holding(self):
        if self.world is None:
            return
        for address, home in self.world.homes.items():
            assert home.wallet.hub.total_subscriptions() \
                - self.world.baseline[address] == home.holdings_count()

    @invariant()
    def every_holding_guards_a_recorded_copy(self):
        """While no release or push has been lost to a cut link, what a
        home holds for an origin is exactly a copy the origin keeps and
        has that home recorded on: no holding outlives its copy."""
        if self.world is None or self.ever_cut:
            return
        caches = {engine.server.address: engine.server.cache
                  for engine in self.world.engines}
        for address, home in self.world.homes.items():
            for origin, held in home._holdings.items():
                for delegation_id in held:
                    entry = caches[origin].entry(delegation_id)
                    assert entry is not None and address in entry.held_at


HoldingsMachine.TestCase.settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
TestHoldingsCoherence = HoldingsMachine.TestCase


def test_ref_to_an_evicted_copy_is_refetched():
    """The machine's minimal falsifying run with the recovery fetch
    switched off (and, with ``subscribe`` made non-idempotent, of the
    subscription-count invariant), kept as a fixed example: a grant,
    the lease lapsing while the ``unsubscribe`` cannot reach the home,
    and the same query again -- answered with a ref to what is gone."""
    state = HoldingsMachine()
    try:
        state.deploy(kind="fed")
        state.discover(query=0, flush=False)
        state.lapse_behind_a_cut(origin=0, home=0)
        state.one_subscription_per_holding()
        state.discover(query=0, flush=False)
        state.one_subscription_per_holding()
        info = state.world.engines[0].gem_info()
        assert info["refs_refetched"] > 0
        assert info["refs_unresolved"] == 0
    finally:
        state.teardown()
