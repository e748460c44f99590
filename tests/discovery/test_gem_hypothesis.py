"""Property-based engine/seed-oracle agreement on random cross-home
digraphs.

The generated coalitions are adversarial for tabled evaluation: random
role-to-role edges across a handful of domains, with intra-domain
cycles, mutual edges, and nested strongly connected components all
arising freely. Whatever the shape, for every role (1) the engine and
the seed frontier walk must agree on *reachability* -- either both
discover a proof or neither does; (2) where the graph admits exactly
one delegation chain to the role, the two proofs must be
byte-identical (several chains can legitimately yield several minimal
proofs, and which one a search meets first is not part of the
contract; there the engine's proof must still validate); and (3) the
engine's cross-home message count per search must stay under the
static tabling bound (two messages per distinct ``(home, direction,
node)`` goal: the eval and its answer; homes keep no per-search state,
so there is no terminate wave), no matter how many times a cycle would
be revisited.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DiscoveryTag, ObjectFlag, Role, SubjectFlag
from repro.core.delegation import issue
from repro.core.identity import create_principal
from repro.crypto.encoding import canonical_encode
from repro.workloads.scenarios import deploy_coalition
from repro.workloads.topology import GeneratedWorkload

from .seed_oracle import seed_discover

# Key generation dominates example cost; the pool is immutable and
# shared across examples (the wire-properties tests set the pattern).
MAX_DOMAINS = 4
ROLES_PER_DOMAIN = 2
OWNERS = [create_principal(f"D{k}") for k in range(MAX_DOMAINS)]
USER = create_principal("user")
TTL = 300.0


@st.composite
def coalition_digraphs(draw):
    """(domains, edges, obj_index): a random role-level digraph."""
    domains = draw(st.integers(min_value=2, max_value=MAX_DOMAINS))
    nodes = domains * ROLES_PER_DOMAIN
    edges = draw(st.sets(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1))
        .filter(lambda e: e[0] != e[1]),
        min_size=domains, max_size=3 * nodes))
    obj_index = draw(st.integers(0, nodes - 1))
    return domains, sorted(edges), obj_index


def _build(domains, edges, obj_index):
    grid = [[Role(OWNERS[k].entity, f"r{i}")
             for i in range(ROLES_PER_DOMAIN)] for k in range(domains)]
    tags = [
        DiscoveryTag(home=f"wallet.d{k}.example",
                     auth_role_name=grid[k][0].qualified_name,
                     ttl=TTL, subject_flag=SubjectFlag.SEARCH,
                     object_flag=ObjectFlag.SEARCH)
        for k in range(domains)
    ]

    def node(index):
        return grid[index // ROLES_PER_DOMAIN][index % ROLES_PER_DOMAIN]

    delegations = [(issue(OWNERS[0], USER.entity, grid[0][0],
                          object_tag=tags[0]), ())]
    for a, b in edges:
        da, db = a // ROLES_PER_DOMAIN, b // ROLES_PER_DOMAIN
        delegations.append((issue(OWNERS[db], node(a), node(b),
                                  subject_tag=tags[da],
                                  object_tag=tags[db]), ()))
    principals = {p.nickname: p
                  for p in [USER, *OWNERS[:domains]]}
    return GeneratedWorkload(
        principals=principals, delegations=delegations,
        subject=USER.entity, obj=node(obj_index),
        description=f"random digraph n={domains} edges={len(edges)}",
        extras={"family": "random",
                "home_addresses": [tag.home for tag in tags]},
    ), grid


def _simple_paths(edges, start, goal, limit=2):
    """Count simple paths start -> goal in the role digraph, up to
    ``limit``."""
    out = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    found = 0
    stack = [(start, {start})]
    while stack and found < limit:
        node, seen = stack.pop()
        if node == goal:
            found += 1
            continue
        stack.extend((nxt, seen | {nxt}) for nxt in out.get(node, ())
                     if nxt not in seen)
    return found


# The example budget is the loaded profile's (tests/conftest.py): 10 in
# tier-1, 200 under ``--hypothesis-profile=long``.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coalition_digraphs())
def test_gem_agrees_with_seed_and_stays_bounded(graph):
    domains, edges, obj_index = graph
    workload, grid = _build(domains, edges, obj_index)
    roles = [role for row in grid for role in row]

    d_seed = deploy_coalition(workload)
    d_gem = deploy_coalition(workload)
    try:
        d_seed.server.wallet.publish(d_seed.entry)
        d_gem.server.wallet.publish(d_gem.entry)
        d_gem.network.reset_counters()
        # The static tabling bound: each distinct (home, direction,
        # node) goal costs one eval notify plus one answer notify --
        # independent of how often the digraph's cycles would re-expand.
        goals = domains * 2 * (len(roles) + 1)
        for index, role in enumerate(roles):
            seed_proof = seed_discover(
                d_seed.server, USER.entity, role, max_remote_queries=1024,
                default_ttl=TTL)
            before = d_gem.network.totals.messages
            gem_proof = d_gem.engine.discover(USER.entity, role,
                                              max_remote_queries=1024)
            assert d_gem.network.totals.messages - before <= 2 * goals
            assert (seed_proof is None) == (gem_proof is None), role
            if gem_proof is None:
                continue
            d_gem.server.wallet.validate(gem_proof)
            # The user's one credential leads to node 0.
            if _simple_paths(edges, 0, index) == 1:
                assert canonical_encode(gem_proof.to_dict()) \
                    == canonical_encode(seed_proof.to_dict())
    finally:
        d_seed.close()
        d_gem.close()
