"""Defective-policy generators for the static analyzer.

Builds a delegation set that is *clean* except for exactly one planted
defect per analyzer rule, each in its own namespace so no plant
triggers a neighboring rule. The clean substrate is the paper's
Section 5 case study; optional layered-DAG filler scales the graph to
benchmark sizes (10k+ edges) without adding findings.

Planted certificates are real -- signed with real keys -- but several
are deliberately unpublishable (expired, support-less): a wallet's
publication boundary would reject them at the door. They are therefore
loaded straight into a :class:`DelegationGraph`, modeling the states
such defects actually arise in: wallets restored from stale stores,
graphs merged from remote discovery, clocks that moved on.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.attributes import AttributeRef, Modifier, Operator
from repro.core.delegation import Delegation, issue
from repro.core.identity import Principal, create_principal
from repro.core.proof import Proof
from repro.core.roles import Role, attribute_right
from repro.core.tags import DiscoveryTag, ObjectFlag, SubjectFlag
from repro.graph.delegation_graph import DelegationGraph
from repro.workloads.scenarios import build_case_study
from repro.workloads.topology import _rng, make_layered_dag

# The analysis instant every planted defect is calibrated against.
ANALYSIS_AT = 100.0


@dataclass
class DefectiveWorkload:
    """A delegation set with exactly one planted defect per rule."""

    principals: Dict[str, Principal]
    delegations: List[Tuple[Delegation, Tuple[Proof, ...]]]
    at: float
    bases: Dict[AttributeRef, float]
    # rule id -> the exact delegation ids that rule must implicate.
    expected: Dict[str, Tuple[str, ...]]
    description: str = ""
    extras: dict = field(default_factory=dict)

    def graph(self) -> DelegationGraph:
        return DelegationGraph(d for d, _supports in self.delegations)

    def supports_map(self) -> Dict[str, Tuple[Proof, ...]]:
        return {
            delegation.id: supports
            for delegation, supports in self.delegations
            if supports
        }

    def supports_lookup(self):
        mapping = self.supports_map()
        return lambda delegation_id: mapping.get(delegation_id, ())

    def analyze(self, **kwargs):
        """Run the static analyzer over this workload's graph."""
        from repro.analysis.static import analyze
        kwargs.setdefault("bases", self.bases)
        kwargs.setdefault("supports", self.supports_lookup())
        return analyze(self.graph(), at=self.at, **kwargs)

    def verify(self, report) -> List[str]:
        """Exactness check: every plant found, nothing else flagged.

        Returns human-readable mismatch descriptions; empty means the
        report matches the planted ground truth id-for-id.
        """
        from repro.analysis.static.findings import exactness_mismatches
        return exactness_mismatches(self.expected, report.ids_by_rule())

    def __len__(self) -> int:
        return len(self.delegations)


FILLER_FAMILIES = ("layered", "ring", "mesh", "scc", "deep")


def _make_filler(family: str, width: int, depth: int, seed: int):
    """A clean filler workload: the layered DAG, or one of the
    cross-home coalition families (PR 9) -- cyclic substrates that
    still contribute zero findings (every delegation is self-certified,
    reachable, tagged with a live lease, and never duplicated)."""
    from repro.workloads import topology
    if family == "layered":
        return make_layered_dag(width, depth, seed=seed)
    if family == "ring":
        return topology.make_ring_coalition(max(2, width), seed=seed)
    if family == "mesh":
        return topology.make_mesh_coalition(max(4, width), seed=seed)
    if family == "scc":
        return topology.make_scc_heavy(max(2, width), max(2, depth),
                                       seed=seed)
    if family == "deep":
        return topology.make_deep_mutual_trust(max(2, width), seed=seed)
    raise ValueError(
        f"unknown filler family {family!r} "
        f"(expected one of {', '.join(FILLER_FAMILIES)})")


def make_defective_workload(seed: Optional[int] = None,
                            filler_width: int = 0,
                            filler_depth: int = 0,
                            filler_family: str = "layered"
                            ) -> DefectiveWorkload:
    """Case-study base + one planted defect per rule (+ optional filler).

    ``filler_width``/``filler_depth`` add a clean layered DAG
    (:func:`make_layered_dag`) to scale the graph toward benchmark
    sizes; the filler is acyclic, unmodulated, and fully reachable, so
    it contributes zero findings. ``filler_family`` swaps the filler's
    shape for one of the coalition topologies (``ring``/``mesh``/
    ``scc``/``deep``) -- cyclic cross-home substrates that must *also*
    contribute zero findings, which is exactly what CI asserts. For
    those families ``filler_width`` is the domain count and
    ``filler_depth`` the roles per domain (SCC only).
    """
    # Entity identity is the key fingerprint and seeded keygen streams
    # are deterministic, so each principal pool (case study, plants,
    # filler) draws from its own offset stream -- same-seed streams
    # would mint identical keypairs and alias distinct principals.
    rng = _rng((seed or 0) + 104729)
    case = build_case_study(seed=seed)
    delegations: List[Tuple[Delegation, Tuple[Proof, ...]]] = \
        list(case.all_delegations())
    principals: Dict[str, Principal] = {
        p.nickname: p
        for p in (case.big_isp, case.air_net, case.maria, case.sheila)
    }
    bases: Dict[AttributeRef, float] = case.base_allocations()
    expected: Dict[str, Tuple[str, ...]] = {}

    def mint(nickname: str) -> Principal:
        principal = create_principal(nickname, rng=rng)
        principals[nickname] = principal
        return principal

    def plant(rule_id: str, *edges: Delegation) -> None:
        expected[rule_id] = tuple(sorted(edge.id for edge in edges))

    # (1) amplification-cycle: x <-> y with a *= 0.5 factor on one leg.
    cycle_co = mint("CycleCo")
    holder = mint("Holly")
    role_x = Role(cycle_co.entity, "x")
    role_y = Role(cycle_co.entity, "y")
    amp = AttributeRef(cycle_co.entity, "amp")
    entry = issue(cycle_co, holder.entity, role_x)
    leg_xy = issue(cycle_co, role_x, role_y,
                   modifiers=[Modifier(amp, Operator.MULTIPLY, 0.5)])
    leg_yx = issue(cycle_co, role_y, role_x)
    delegations += [(entry, ()), (leg_xy, ()), (leg_yx, ())]
    plant("amplification-cycle", leg_xy, leg_yx)

    # (2) dangling-support: third-party grant with no path to Object'.
    dangler = mint("Dangler")
    beneficiary = mint("Beneficiary")
    pat = mint("Pat")
    dangling = issue(dangler, pat.entity,
                     Role(beneficiary.entity, "partner"))
    delegations.append((dangling, ()))
    plant("dangling-support", dangling)

    # (3) dead-credential: subject role no principal can ever reach.
    deadwood = mint("Deadwood")
    dead = issue(deadwood, Role(deadwood.entity, "orphanSrc"),
                 Role(deadwood.entity, "orphanDst"))
    delegations.append((dead, ()))
    plant("dead-credential", dead)

    # (4) shadowed-credential: same edge, weaker bound, shorter life.
    shadow_org = mint("ShadowOrg")
    sam = mint("Sam")
    svc = Role(shadow_org.entity, "svc")
    quota = AttributeRef(shadow_org.entity, "ceiling")
    weaker = issue(shadow_org, sam.entity, svc, expiry=1000.0,
                   modifiers=[Modifier(quota, Operator.MIN, 50.0)])
    stronger = issue(shadow_org, sam.entity, svc, expiry=2000.0,
                     modifiers=[Modifier(quota, Operator.MIN, 100.0)])
    delegations += [(weaker, ()), (stronger, ())]
    plant("shadowed-credential", weaker)

    # (5) validity-inversion: expired before the analysis instant but
    # still held (sweeps never ran on this store).
    fleeting = mint("Fleeting")
    fred = mint("Fred")
    stale = issue(fleeting, fred.entity, Role(fleeting.entity, "old"),
                  issued_at=10.0, expiry=50.0)
    delegations.append((stale, ()))
    plant("validity-inversion", stale)

    # (6) revocation-blind-spot: no expiry, tagged, but TTL 0 means
    # "does not require monitoring" -- revocations have no channel.
    monitored = mint("Monitored")
    hank = mint("Hank")
    portal = Role(monitored.entity, "portal")
    blind_tag = DiscoveryTag(
        home="wallet.monitored.example",
        auth_role_name="Monitored.portal", ttl=0.0,
        subject_flag=SubjectFlag.STORE, object_flag=ObjectFlag.NONE,
    )
    blind = issue(monitored, hank.entity, portal, subject_tag=blind_tag)
    delegations.append((blind, ()))
    plant("revocation-blind-spot", blind)

    # (7) self-delegation: an entity self-certifying to itself.
    narciss = mint("Narciss")
    noop = issue(narciss, narciss.entity, Role(narciss.entity, "solo"))
    delegations.append((noop, ()))
    plant("self-delegation", noop)

    # (8) attribute-misuse: two -=30 steps against a base of 50.
    quota_co = mint("QuotaCo")
    mo = mint("Mo")
    pool = AttributeRef(quota_co.entity, "pool")
    bases[pool] = 50.0
    step_one = issue(quota_co, mo.entity, Role(quota_co.entity, "a"),
                     modifiers=[Modifier(pool, Operator.SUBTRACT, 30.0)])
    step_two = issue(quota_co, Role(quota_co.entity, "a"),
                     Role(quota_co.entity, "b"),
                     modifiers=[Modifier(pool, Operator.SUBTRACT, 30.0)])
    delegations += [(step_one, ()), (step_two, ())]
    plant("attribute-misuse", step_two)

    # (9) namespace-squat: modifier on another entity's attribute. The
    # squatter legitimately holds the attribute-assignment right (so
    # dangling-support stays quiet); the defect is purely that the
    # modifier rides a delegation whose object role cannot speak for
    # the attribute's namespace.
    squatter = mint("Squatter")
    victim = mint("Victim")
    nia = mint("Nia")
    gold = AttributeRef(victim.entity, "gold")
    grant_right = issue(victim, squatter.entity,
                        attribute_right(gold, Operator.SUBTRACT))
    squat = issue(squatter, nia.entity, Role(squatter.entity, "page"),
                  modifiers=[Modifier(gold, Operator.SUBTRACT, 5.0)])
    delegations += [(grant_right, ()), (squat, ())]
    plant("namespace-squat", squat)

    # (10) orphan-discovery-tag: auth role no delegation defines.
    tagger = mint("Tagger")
    rita = mint("Rita")
    ghost_tag = DiscoveryTag(
        home="wallet.ghost.example", auth_role_name="Ghost.wallet",
        ttl=30.0, subject_flag=SubjectFlag.NONE,
        object_flag=ObjectFlag.STORE,
    )
    orphan = issue(tagger, rita.entity, Role(tagger.entity, "page"),
                   object_tag=ghost_tag)
    delegations.append((orphan, ()))
    plant("orphan-discovery-tag", orphan)

    extras = {"planted": sum(len(ids) for ids in expected.values())}
    if filler_width > 0 and filler_depth > 0:
        # Offset the filler's seed so its deterministic keygen stream
        # does not duplicate the case study's (same-seed streams mint
        # identical keypairs, which would alias entity fingerprints).
        filler = _make_filler(filler_family, filler_width, filler_depth,
                              seed=(seed or 0) + 7919)
        delegations += filler.delegations
        principals.update(filler.principals)
        extras["filler_edges"] = len(filler.delegations)
        extras["filler_family"] = filler_family

    return DefectiveWorkload(
        principals=principals,
        delegations=delegations,
        at=ANALYSIS_AT,
        bases=bases,
        expected=expected,
        description=(f"defective(seed={seed}, "
                     f"filler={filler_width}x{filler_depth}, "
                     f"family={filler_family})"),
        extras=extras,
    )
