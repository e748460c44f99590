"""Placement invariance: a decision does not depend on where the
credentials live.

Section 4.2's claim is that tag-directed discovery finds what a wallet
holding every credential would find. Hypothesis generates small
credential sets -- role-to-role delegations across a few domains, each
modulating valued attributes under the three Table 2 operators, drawn
per modifier, every node tagged ``S``/``O`` with a randomly drawn home
-- plus constraints on the query. Each set is evaluated twice: once in
a single :class:`Wallet` holding everything, once deployed across the
homes its tags name (``deploy_coalition``) and searched by
``discover``, the user presenting the entry credential with each
request. For every role:

* discovery grants exactly when the single wallet grants;
* where the role has one simple path from the user, so the grant has
  one proof, both grants carry the same attribute values (Table 3's
  arithmetic); where it has several, which one a search meets first is
  not part of the contract;
* every distributed proof passes ``Wallet.validate`` at the origin,
  under the query's constraints;
* each search sends at most two messages per distinct ``(home,
  direction, node)`` goal (the tabling bound of
  ``test_gem_hypothesis.py``).

A second property revokes one drawn credential at one of the homes
storing it (Section 6: a revocation stops every proof that uses the
delegation). An origin that discovered before the revocation and one
that never did must both decide as the single wallet holding it.

A third draws third-party links (Section 3.1: the issuer does not own
the object's namespace). Each is issued by another domain's owner and
either placed with the support proofs its ``required_supports`` ask for
-- the object's owner granting the issuer the right of assignment, and
the right to set each attribute it modulates -- which then ship in the
answer's ``supports`` beside it, or kept bare by its subject's home,
which ships it without them and with an object tag naming a home
nobody else names. A bare link is no credential: discovery decides as
the single wallet holding only the supported ones, and the home its
tag names is never asked.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryTag, ObjectFlag, Role, SubjectFlag
from repro.core.attributes import AttributeRef, Constraint, Modifier, Operator
from repro.core.delegation import issue
from repro.core.proof import Proof
from repro.core.identity import create_principal
from repro.core.roles import subject_key
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.resolver import WalletServer
from repro.wallet.wallet import Wallet
from repro.workloads.scenarios import deploy_coalition
from repro.workloads.topology import GeneratedWorkload

from .test_gem_hypothesis import _simple_paths

# Key generation dominates example cost: one immutable pool, shared.
DOMAINS = 3
ROLES_PER_DOMAIN = 2
NODES = DOMAINS * ROLES_PER_DOMAIN
OWNERS = [create_principal(f"D{k}") for k in range(DOMAINS)]
USER = create_principal("user")
TTL = 300.0
HOMES = [f"wallet.d{k}.example" for k in range(DOMAINS)]
ROLES = [Role(OWNERS[n // ROLES_PER_DOMAIN].entity,
              f"r{n % ROLES_PER_DOMAIN}") for n in range(NODES)]

# Three attributes in each domain's namespace, and the values a modifier
# may take under each Table 2 operator. Each modifier draws its own
# operator, so one attribute may be modulated under several along a
# chain. Every attribute has the resource's base allocation.
ATTRIBUTES = ["BW", "storage", "hours"]
VALUES = {
    Operator.MIN: st.sampled_from([0.0, 40.0, 80.0, 150.0]),
    Operator.SUBTRACT: st.sampled_from([0.0, 5.0, 30.0]),
    Operator.MULTIPLY: st.sampled_from([0.25, 0.5, 1.0]),
}
BASES = {AttributeRef(owner.entity, name): 100.0
         for owner in OWNERS for name in ATTRIBUTES}


@st.composite
def modifiers(draw, domain):
    """Modifiers on attributes of the object's domain (Section 3.2.1)."""
    names = draw(st.sets(st.sampled_from(ATTRIBUTES), max_size=2))
    mods = []
    for name in sorted(names):
        operator = draw(st.sampled_from(list(VALUES)))
        mods.append(Modifier(AttributeRef(OWNERS[domain].entity, name),
                             operator, draw(VALUES[operator])))
    return mods


@st.composite
def credential_sets(draw):
    """(edges, homes, constraints): a placed, valued credential set."""
    pairs = draw(st.sets(
        st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1))
        .filter(lambda e: e[0] != e[1]), min_size=2, max_size=2 * NODES))
    edges = [(a, b, draw(modifiers(b // ROLES_PER_DOMAIN)))
             for a, b in sorted(pairs)]
    homes = draw(st.lists(st.integers(0, DOMAINS - 1),
                          min_size=NODES, max_size=NODES))
    # Constraints bind only on attributes some credential modulates.
    modulated = sorted({m.attribute for _a, _b, mods in edges
                        for m in mods},
                       key=lambda a: (a.entity.id, a.name))
    if not modulated:
        return edges, homes, ()
    constraints = draw(st.lists(
        st.builds(Constraint, st.sampled_from(modulated),
                  st.sampled_from([10.0, 50.0, 90.0])), max_size=2))
    return edges, homes, tuple(constraints)


def _tag(node, homes):
    home = homes[node]
    return DiscoveryTag(home=HOMES[home],
                        auth_role_name=ROLES[home * ROLES_PER_DOMAIN]
                        .qualified_name,
                        ttl=TTL, subject_flag=SubjectFlag.SEARCH,
                        object_flag=ObjectFlag.SEARCH)


def _workload(edges, homes):
    delegations = [(issue(OWNERS[0], USER.entity, ROLES[0],
                          object_tag=_tag(0, homes)), ())]
    for a, b, mods in edges:
        delegations.append((issue(
            OWNERS[b // ROLES_PER_DOMAIN], ROLES[a], ROLES[b],
            modifiers=mods, subject_tag=_tag(a, homes),
            object_tag=_tag(b, homes)), ()))
    return GeneratedWorkload(
        principals={p.nickname: p for p in [USER, *OWNERS]},
        delegations=delegations, subject=USER.entity, obj=ROLES[0],
        description=f"placed credential set, {len(edges)} edges",
        extras={"family": "placed", "home_addresses": HOMES})


def _covered_head_under_constraints():
    """Node 0 and node 2 share home 0. Under ``D1.storage >= 50`` the
    chain 0 -> 2 -> 3 fails (100 - 30 - 30) where 0 -> 4 -> 5 -> 2 -> 3
    passes (100 - 30); home 0's closure for node 0 holds 0 -> 2 but not
    2 -> 3, so node 2 must be asked again, not taken as covered."""
    storage = AttributeRef(OWNERS[1].entity, "storage")

    def spend():
        return [Modifier(storage, Operator.SUBTRACT, 30.0)]

    edges = [(0, 2, spend()), (0, 4, []), (2, 3, spend()), (4, 5, []),
             (5, 2, [])]
    return edges, [0, 2, 0, 2, 1, 1], (Constraint(storage, 50.0),)


# The example budget is the loaded profile's (tests/conftest.py): 10 in
# tier-1, 200 under ``--hypothesis-profile=long``.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(credential_sets())
@example(_covered_head_under_constraints())
def test_discovery_decides_as_one_wallet_holding_everything(case):
    edges, homes, constraints = case
    workload = _workload(edges, homes)
    single = Wallet(owner=OWNERS[0])
    for delegation, supports in workload.delegations:
        single.publish(delegation, supports)
    deployed = deploy_coalition(workload)
    presented = [(deployed.entry, ())]
    try:
        origin = deployed.server.wallet
        goals = len(HOMES) * 2 * (NODES + 1)
        for node, role in enumerate(ROLES):
            local = single.query_direct(USER.entity, role, constraints,
                                        BASES)
            before = deployed.network.totals.messages
            found = deployed.engine.discover(
                USER.entity, role, constraints, BASES,
                max_remote_queries=1024, presented=presented)
            assert deployed.network.totals.messages - before <= 2 * goals
            assert (found is None) == (local is None), role
            if found is None:
                continue
            origin.validate(found, constraints, BASES)
            if _simple_paths([(a, b) for a, b, _m in edges], 0, node) == 1:
                assert found.grants(BASES) == local.grants(BASES), role
    finally:
        deployed.close()


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(credential_sets(), st.data())
def test_a_revocation_decides_as_one_wallet_holding_it(case, data):
    """The drawn credential's ``S``/``O`` tags often name two homes.
    The warm origin's subscription for it may be at either, and the
    cold origin, given the object's tag, may ask either."""
    edges, homes, constraints = case
    workload = _workload(edges, homes)
    index = data.draw(st.integers(1, len(edges)), label="revoked")
    revoked = workload.delegations[index][0]
    issuer = OWNERS[edges[index - 1][1] // ROLES_PER_DOMAIN]
    single = Wallet(owner=OWNERS[0])
    for delegation, supports in workload.delegations:
        single.publish(delegation, supports)
    single.revoke(issuer, revoked.id)
    deployed = deploy_coalition(workload)
    cold = WalletServer(deployed.network,
                        Wallet(owner=OWNERS[0], address="server.cold",
                               clock=deployed.clock), principal=OWNERS[0])
    presented = [(deployed.entry, ())]
    try:
        warm = deployed.engine
        for role in ROLES:
            warm.discover(USER.entity, role, constraints, BASES,
                          max_remote_queries=1024, presented=presented)
        storing = sorted(address for address, home in deployed.homes.items()
                         if home.wallet.store.get_delegation(revoked.id)
                         is not None)
        at = data.draw(st.sampled_from(storing), label="revoked at")
        deployed.homes[at].wallet.revoke(issuer, revoked.id)
        cold_engine = DiscoveryEngine(cold)
        for node, role in enumerate(ROLES):
            local = single.query_direct(USER.entity, role, constraints,
                                        BASES)
            for name, engine, hints in (
                    ("warm", warm, None),
                    ("cold", cold_engine,
                     {subject_key(role): _tag(node, homes)})):
                found = engine.discover(USER.entity, role, constraints,
                                        BASES, hints=hints,
                                        max_remote_queries=1024,
                                        presented=presented)
                assert (found is None) == (local is None), (role, name)
    finally:
        cold.close()
        deployed.close()


# -- third-party links -------------------------------------------------------

OWNER_OF = {owner.entity: owner for owner in OWNERS}
ROGUE_HOME = "wallet.rogue.example"
ROGUE_TAG = DiscoveryTag(home=ROGUE_HOME, ttl=TTL,
                         subject_flag=SubjectFlag.SEARCH,
                         object_flag=ObjectFlag.SEARCH)


@st.composite
def third_party_sets(draw):
    """(edges, homes, constraints, parties): a placed credential set
    whose ``k``-th link is issued by its object's owner when
    ``parties[k]`` is None, else by the owner of domain ``c`` for
    ``parties[k] == (c, supported)``."""
    edges, homes, constraints = draw(credential_sets())
    parties = [draw(st.one_of(st.none(), st.tuples(
        st.sampled_from([d for d in range(DOMAINS)
                         if d != b // ROLES_PER_DOMAIN]),
        st.booleans()))) for _a, b, _mods in edges]
    return edges, homes, constraints, parties


def _support(issuer, right):
    """The one-link proof that ``right``'s owner granted it to
    ``issuer``."""
    return Proof.single(issue(OWNER_OF[right.entity], issuer.entity, right))


def _third_party_workload(edges, homes, parties):
    """The placed workload of the supported links, and the bare ones as
    (subject node, link)."""
    workload = _workload([], homes)
    bare = []
    for (a, b, mods), party in zip(edges, parties):
        issuer = OWNERS[b // ROLES_PER_DOMAIN if party is None else party[0]]
        supported = party is None or party[1]
        link = issue(issuer, ROLES[a], ROLES[b], modifiers=mods,
                     subject_tag=_tag(a, homes),
                     object_tag=_tag(b, homes) if supported else ROGUE_TAG)
        if supported:
            workload.delegations.append((link, tuple(
                _support(issuer, right)
                for right in link.required_supports())))
        else:
            bare.append((a, link))
    return workload, bare


def _ships_bare(home, bare):
    """``home`` answers a forward goal with its closure and, out of the
    goal's node, each link in ``bare`` shipped without its supports."""
    query = home.wallet.query_subject

    def careless(node, *args, **kwargs):
        return query(node, *args, **kwargs) + [
            Proof.single(link) for a, link in bare if ROLES[a] == node]

    home.wallet.query_subject = careless


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(third_party_sets())
def test_a_third_party_link_counts_only_with_its_supports(case):
    edges, homes, constraints, parties = case
    workload, bare = _third_party_workload(edges, homes, parties)
    single = Wallet(owner=OWNERS[0])
    for delegation, supports in workload.delegations:
        single.publish(delegation, supports)
    deployed = deploy_coalition(workload)
    rogue = WalletServer(deployed.network,
                         Wallet(owner=OWNERS[0], address=ROGUE_HOME,
                                clock=deployed.clock), principal=OWNERS[0])
    for address in HOMES:
        _ships_bare(deployed.homes[address],
                    [(a, link) for a, link in bare
                     if HOMES[homes[a]] == address])
    presented = [(deployed.entry, ())]
    supported = [(a, b) for (a, b, _m), party in zip(edges, parties)
                 if party is None or party[1]]
    try:
        origin = deployed.server.wallet
        for node, role in enumerate(ROLES):
            local = single.query_direct(USER.entity, role, constraints,
                                        BASES)
            found = deployed.engine.discover(
                USER.entity, role, constraints, BASES,
                max_remote_queries=1024, presented=presented)
            assert (found is None) == (local is None), role
            if found is None:
                continue
            origin.validate(found, constraints, BASES)
            if _simple_paths(supported, 0, node) == 1:
                assert found.grants(BASES) == local.grants(BASES), role
        assert all(origin.store.get_delegation(link.id) is None
                   for _a, link in bare)
        assert not any(dst == ROGUE_HOME for _src, dst
                       in deployed.network.by_link)
    finally:
        rogue.close()
        deployed.close()
