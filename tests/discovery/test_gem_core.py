"""The GEM origin driven by hand: one :class:`~repro.discovery.gem.Origin`
and two homes, with no network.

The test is the driver. It sends each goal the origin hands out, builds
each home's push from the home's own wallet with
:func:`~repro.discovery.gem.answer_push` (through the canonical codec,
as a wire would carry it), and delivers the pushes in an order it
chooses -- what a queued transport, or an explorer over delivery
orders, does. A commit is admitted through the origin wallet's
:class:`~repro.wallet.cache.CoherentCache`.

alice's wallet holds ``[alice -> a]`` and ``[alice -> b]``, whose object
tags name w.a and w.b: two independent root goals. w.a holds
``[a -> t]``, w.b ``[b -> u]``; the query is ``alice => t``.
"""

from repro import obs
from repro.core import DiscoveryTag, Role, SubjectFlag, issue
from repro.core.errors import DRBACError
from repro.core.proof import admit_closure, is_live
from repro.crypto.encoding import canonical_decode, canonical_encode
from repro.discovery import wire
from repro.discovery.engine import DiscoveryStats
from repro.discovery.gem import GEM_COUNTER_NAMES, Origin, View, answer_push
from repro.wallet.cache import CoherentCache
from repro.wallet.wallet import Wallet


def _tag(home):
    return DiscoveryTag(home=home, ttl=30.0,
                        subject_flag=SubjectFlag.SEARCH)


class _Home:
    """A home with no network: its wallet, and the ids it holds for the
    origin."""

    def __init__(self, address, org, clock):
        self.wallet = Wallet(owner=org, address=address, clock=clock)
        self.held = set()

    def answer(self, request):
        direction, node = wire.gem_goal_from_wire(request["goal"])
        query = self.wallet.query_subject if direction == "fwd" \
            else self.wallet.query_object
        push, subs = answer_push(request, query(node), self.held,
                                 self.wallet.store.get_delegation)
        self.held.update(subs)
        return canonical_decode(canonical_encode(push))


class _World:
    def __init__(self, org, alice, clock, extra_homes=()):
        self.alice = alice.entity
        a, b, self.t, u, v = (Role(org.entity, name)
                              for name in ("a", "b", "t", "u", "v"))
        self.wallet = Wallet(owner=org, address="w.local", clock=clock)
        self.wallet.publish(issue(org, alice.entity, a,
                                  object_tag=_tag("w.a")))
        self.wallet.publish(issue(org, alice.entity, b,
                                  object_tag=_tag("w.b")))
        self.cache = CoherentCache(self.wallet)
        self.homes = {address: _Home(address, org, clock)
                      for address in ("w.a", "w.b", *extra_homes)}
        self.bridge = issue(org, a, self.t, subject_tag=_tag("w.a"))
        self.homes["w.a"].wallet.publish(self.bridge)
        self.homes["w.b"].wallet.publish(
            issue(org, b, u, subject_tag=_tag("w.b")))
        if "w.c" in self.homes:
            self.stray = issue(org, a, v, subject_tag=_tag("w.c"))
            self.homes["w.c"].wallet.publish(self.stray)
        store = self.wallet.store
        self.origin = Origin(
            View(address="w.local", now=clock.now(),
                 held=store.get_delegation, delegations=store.delegations,
                 out_edges=store.graph.out_edges_by_node,
                 heads=lambda node: [proof.obj for proof
                                     in self.wallet.query_subject(node)],
                 is_revoked=store.is_revoked,
                 authorized=lambda _home, _tag: True),
            "w.local#gem0", self.alice, self.t, (), None, {}, 64,
            DiscoveryStats(), obs.CounterSet("drbac_gem", GEM_COUNTER_NAMES))
        # A revocation for a copy still on its way in verifies against
        # the copy the search received.
        self.cache.received = self.origin.received.get

    def send_all(self):
        """Send every goal the origin has queued; return each home's
        push, undelivered."""
        self.origin.start("fwd")
        pushes = {}
        for goal in iter(self.origin.next_goal, None):
            self.origin.send(goal)
            pushes[goal.home] = self.homes[goal.home].answer({
                "root": self.origin.root,
                "goal": wire.gem_goal_to_wire(goal.key[0], goal.node)})
        return pushes

    def deliver(self, src, push):
        return self.origin.accept(src, push, wire.ids_from_wire(push["subs"]))

    def commit(self):
        """The driver's half of a commit: each staged answer's links
        through the wallet's publication checks, and the holdings its
        push set up. Returns the decision."""
        batch = self.origin.commit()
        store, now = self.wallet.store, self.origin.view.now
        admitted = []
        for answer in batch.answers:
            def admit(delegation, proof):
                if store.get_delegation(delegation.id) is None:
                    try:
                        self.cache.insert(delegation,
                                          proof.supports_for(delegation),
                                          home=answer.home, ttl=30.0)
                    except DRBACError:
                        return False
                return is_live(delegation, now, store.is_revoked)
            admitted.append(admit_closure(answer.proofs, admit))
            for delegation_id in answer.subs:
                self.cache.hold(answer.home, delegation_id)
        self.origin.committed(batch, admitted)
        return self.wallet.query_direct(self.alice, self.t)


def test_either_delivery_order_grants_the_same_proof(org, alice, clock):
    """w.a's answer completes the chain: delivered first, it commits
    alone; delivered second, it commits with w.b's."""
    proofs = []
    for order in (("w.a", "w.b"), ("w.b", "w.a")):
        world = _World(org, alice, clock)
        pushes = world.send_all()
        assert sorted(pushes) == ["w.a", "w.b"]
        proof = None
        for home in order:
            answer, release = world.deliver(home, pushes[home])
            assert answer is not None and release == ()
            if world.origin.stage(answer) and world.origin.reaches():
                proof = world.commit()
                break
        proofs.append(proof)
    assert proofs[0] is not None
    assert canonical_encode(proofs[0].to_dict()) \
        == canonical_encode(proofs[1].to_dict())
    assert [link.id for link in proofs[0].chain][-1] == world.bridge.id


def test_a_replayed_or_unasked_answer_is_dropped(org, alice, clock):
    world = _World(org, alice, clock, extra_homes=("w.c",))
    pushes = world.send_all()
    origin = world.origin
    answer, _release = world.deliver("w.a", pushes["w.a"])
    assert answer is not None
    # The replay names a goal w.a was asked: its ids are the accepted
    # push's, so none is released.
    assert world.deliver("w.a", pushes["w.a"]) == (None, ())
    # w.c was never asked for a's goal: every id it set up goes back.
    stray = world.homes["w.c"].answer({"root": origin.root,
                                       "goal": pushes["w.a"]["goal"]})
    dropped, release = world.deliver("w.c", stray)
    assert dropped is None and release == [world.stray.id]
    world.homes["w.c"].held.difference_update(release)
    assert not world.homes["w.c"].held
    # Neither was read: nothing received from them, and w.b's answer
    # is still the one awaited.
    assert world.stray.id not in origin.received
    assert [home for home, _goal in origin.pending] == ["w.b"]
    assert origin.stage(answer) and origin.reaches()
    assert world.commit() is not None
    assert world.cache.holds("w.a", world.bridge.id)
    assert not world.cache.holds("w.c", world.stray.id)
    assert world.wallet.store.get_delegation(world.stray.id) is None


def test_a_revocation_between_stage_and_commit_denies(org, alice, clock):
    world = _World(org, alice, clock)
    pushes = world.send_all()
    answer, _release = world.deliver("w.a", pushes["w.a"])
    assert world.origin.stage(answer) and world.origin.reaches()
    # Org revokes the bridge at w.a; the push lands before the commit.
    home = world.homes["w.a"].wallet
    home.revoke(org, world.bridge.id)
    assert world.cache.apply_remote_revocation(
        home.store.revocation_for(world.bridge.id))
    assert world.commit() is None
    assert world.wallet.store.get_delegation(world.bridge.id) is None
    assert world.wallet.is_revoked(world.bridge.id)
