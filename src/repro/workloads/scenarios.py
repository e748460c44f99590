"""Exact builders for the paper's worked examples.

* :func:`build_table1` -- the Table 1 trio: delegations (1)-(3) proving
  ``Maria => BigISP.member`` through Mark's third-party delegation.
* :func:`build_case_study` -- the Section 5 / Table 3 case study in a
  single wallet: Maria, BigISP, Sheila, AirNet, with valued attributes
  whose aggregation must come out to **BW 100 (<= 200), storage 30
  (= 50 - 20), hours 18 (= 60 * 0.3)**.
* :func:`build_distributed_case_study` -- the same delegations deployed
  across the wallets of Figure 2(a): an empty AirNet *server* wallet, the
  BigISP home wallet, and the AirNet home wallet, each delegation stored
  in its subject's home wallet with discovery tags of subject type 'S'.

Table 3's delegation numbering in the paper: (1) identifies Maria as a
BigISP.member; (2) is Sheila's coalition delegation BigISP.member ->
AirNet.member with the three attribute modulations; (3)-(5) authorize
Sheila (her AirNet.mktg role, its right of assignment on AirNet.member,
and the attribute-assignment rights). We add the self-certified
AirNet.member -> AirNet.access delegation the Section 5 walkthrough
queries for in Step 4.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.attributes import AttributeRef, Modifier, Operator
from repro.core.clock import SimClock
from repro.core.delegation import Delegation, issue
from repro.core.identity import EntityDirectory, Principal, create_principal
from repro.core.proof import Proof
from repro.core.roles import Role, attribute_right
from repro.core.tags import DiscoveryTag, ObjectFlag, SubjectFlag
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.resolver import WalletDirectory, WalletServer
from repro.net.transport import Network
from repro.service.population import (  # noqa: F401 - re-exported
    SERVICE_EPOCH,
    ServicePopulation,
)
from repro.wallet.wallet import Wallet

# The base allocations behind the Section 5 aggregation.
BASE_BW = 200.0
BASE_STORAGE = 50.0
BASE_HOURS = 60.0

# Expected grants from the paper's Step 5.
EXPECTED_BW = 100.0
EXPECTED_STORAGE = 30.0
EXPECTED_HOURS = 18.0

# Home wallet addresses of the Figure 2 deployment.
SERVER_ADDRESS = "server.airnet.com"
BIGISP_HOME = "wallet.bigISP.com"
AIRNET_HOME = "wallet.airnet.com"


@dataclass
class Table1Scenario:
    """Delegations (1)-(3) of Table 1 plus the entities behind them."""

    big_isp: Principal
    mark: Principal
    maria: Principal
    member: Role
    member_services: Role
    d1_mark_services: Delegation
    d2_services_assign: Delegation
    d3_maria_member: Delegation
    support_proof: Proof
    directory: EntityDirectory

    def full_proof(self) -> Proof:
        """The complete proof that Maria => BigISP.member."""
        return Proof.single(self.d3_maria_member,
                            supports=[self.support_proof])


def build_table1(seed: Optional[int] = None) -> Table1Scenario:
    """Construct Table 1's example delegations with real keys."""
    from repro.workloads.topology import _rng
    rng = _rng(seed) if seed is not None else None
    big_isp = create_principal("BigISP", rng=rng)
    mark = create_principal("Mark", rng=rng)
    maria = create_principal("Maria", rng=rng)
    member = Role(big_isp.entity, "member")
    member_services = Role(big_isp.entity, "memberServices")

    # (1) [Mark -> BigISP.memberServices] BigISP
    d1 = issue(big_isp, mark.entity, member_services)
    # (2) [BigISP.memberServices -> BigISP.member'] BigISP
    d2 = issue(big_isp, member_services, member.with_tick())
    # (3) [Maria -> BigISP.member] Mark
    d3 = issue(mark, maria.entity, member)

    support = Proof.single(d1).extend(d2)  # Mark => BigISP.member'
    directory = EntityDirectory(
        [big_isp.entity, mark.entity, maria.entity])
    return Table1Scenario(
        big_isp=big_isp, mark=mark, maria=maria,
        member=member, member_services=member_services,
        d1_mark_services=d1, d2_services_assign=d2, d3_maria_member=d3,
        support_proof=support, directory=directory,
    )


@dataclass
class CaseStudy:
    """The Section 5 cast, delegations, and attribute machinery."""

    big_isp: Principal
    air_net: Principal
    maria: Principal
    sheila: Principal
    bigisp_member: Role
    airnet_member: Role
    airnet_access: Role
    airnet_mktg: Role
    bw: AttributeRef
    storage: AttributeRef
    hours: AttributeRef
    # Numbered as in Table 3 (see module docstring).
    d1_maria_member: Delegation
    d2_coalition: Delegation
    d3_sheila_mktg: Delegation
    d4_mktg_assign: Delegation
    d5_attr_rights: Tuple[Delegation, ...]
    d6_member_access: Delegation
    coalition_support: Tuple[Proof, ...]
    directory: EntityDirectory

    def base_allocations(self) -> Dict[AttributeRef, float]:
        return {self.bw: BASE_BW, self.storage: BASE_STORAGE,
                self.hours: BASE_HOURS}

    def all_delegations(self) -> List[Tuple[Delegation, Tuple[Proof, ...]]]:
        """Every delegation with the supports it must be published with."""
        return [
            (self.d1_maria_member, ()),
            (self.d3_sheila_mktg, ()),
            (self.d4_mktg_assign, ()),
            *[(d, ()) for d in self.d5_attr_rights],
            (self.d2_coalition, self.coalition_support),
            (self.d6_member_access, ()),
        ]

    def populate_wallet(self, wallet: Wallet) -> Wallet:
        """Publish the full delegation set and base allocations."""
        for delegation, supports in self.all_delegations():
            wallet.publish(delegation, supports)
        for attribute, value in self.base_allocations().items():
            wallet.set_base_allocation(attribute, value)
        return wallet


def build_case_study(seed: Optional[int] = None,
                     with_tags: bool = False,
                     ttl: float = 30.0) -> CaseStudy:
    """Build the Table 3 delegation set.

    ``with_tags`` annotates the roles with the discovery tags of the
    Figure 2 deployment ("all entities and roles in our example are
    assumed to be tagged with the subject discovery type 'S'").
    """
    from repro.workloads.topology import _rng
    rng = _rng(seed) if seed is not None else None
    big_isp = create_principal("BigISP", rng=rng)
    air_net = create_principal("AirNet", rng=rng)
    maria = create_principal("Maria", rng=rng)
    sheila = create_principal("Sheila", rng=rng)

    bigisp_member = Role(big_isp.entity, "member")
    airnet_member = Role(air_net.entity, "member")
    airnet_access = Role(air_net.entity, "access")
    airnet_mktg = Role(air_net.entity, "mktg")
    bw = AttributeRef(air_net.entity, "BW")
    storage = AttributeRef(air_net.entity, "storage")
    hours = AttributeRef(air_net.entity, "hours")

    member_tag = None
    airnet_member_tag = None
    if with_tags:
        member_tag = DiscoveryTag(
            home=BIGISP_HOME, auth_role_name="BigISP.wallet", ttl=ttl,
            subject_flag=SubjectFlag.SEARCH, object_flag=ObjectFlag.NONE,
        )
        airnet_member_tag = DiscoveryTag(
            home=AIRNET_HOME, auth_role_name="AirNet.wallet", ttl=ttl,
            subject_flag=SubjectFlag.SEARCH, object_flag=ObjectFlag.NONE,
        )

    # (1) [Maria -> BigISP.member] BigISP
    d1 = issue(big_isp, maria.entity, bigisp_member,
               object_tag=member_tag)
    # (3) [Sheila -> AirNet.mktg] AirNet
    d3 = issue(air_net, sheila.entity, airnet_mktg)
    # (4) [AirNet.mktg -> AirNet.member'] AirNet
    d4 = issue(air_net, airnet_mktg, airnet_member.with_tick())
    # (5) attribute-assignment rights for the mktg role, e.g.
    #     [AirNet.mktg -> AirNet.storage -= '] AirNet   (Table 2 ex. (5))
    d5 = (
        issue(air_net, airnet_mktg, attribute_right(bw, Operator.MIN)),
        issue(air_net, airnet_mktg,
              attribute_right(storage, Operator.SUBTRACT)),
        issue(air_net, airnet_mktg,
              attribute_right(hours, Operator.MULTIPLY)),
    )
    # Support proofs authorizing Sheila's third-party delegation (2):
    # Sheila => AirNet.member' and Sheila => each attribute right.
    sheila_mktg = Proof.single(d3)
    supports = (
        sheila_mktg.extend(d4),
        sheila_mktg.extend(d5[0]),
        sheila_mktg.extend(d5[1]),
        sheila_mktg.extend(d5[2]),
    )
    # (2) [BigISP.member -> AirNet.member with AirNet.BW <= 100 and
    #      AirNet.storage -= 20 and AirNet.hours *= 0.3] Sheila
    d2 = issue(
        sheila, bigisp_member, airnet_member,
        modifiers=[
            Modifier(bw, Operator.MIN, 100.0),
            Modifier(storage, Operator.SUBTRACT, 20.0),
            Modifier(hours, Operator.MULTIPLY, 0.3),
        ],
        subject_tag=member_tag,
        object_tag=airnet_member_tag,
        acting_as=(airnet_member.with_tick(),),
    )
    # (6) [AirNet.member -> AirNet.access] AirNet
    d6 = issue(air_net, airnet_member, airnet_access,
               subject_tag=airnet_member_tag)

    directory = EntityDirectory(
        [big_isp.entity, air_net.entity, maria.entity, sheila.entity])
    return CaseStudy(
        big_isp=big_isp, air_net=air_net, maria=maria, sheila=sheila,
        bigisp_member=bigisp_member, airnet_member=airnet_member,
        airnet_access=airnet_access, airnet_mktg=airnet_mktg,
        bw=bw, storage=storage, hours=hours,
        d1_maria_member=d1, d2_coalition=d2, d3_sheila_mktg=d3,
        d4_mktg_assign=d4, d5_attr_rights=d5, d6_member_access=d6,
        coalition_support=supports, directory=directory,
    )


@dataclass
class DistributedCaseStudy:
    """The Figure 2(a) deployment: three wallets on one simulated net."""

    case: CaseStudy
    network: Network
    clock: SimClock
    server: WalletServer          # AirNet access server; wallet empty
    bigisp_home: WalletServer     # wallet.bigISP.com
    airnet_home: WalletServer     # wallet.airnet.com
    wallets: WalletDirectory
    engine: DiscoveryEngine

    def run_steps_1_to_5(self) -> Optional[Proof]:
        """Execute the case study: Step 1 (present delegation (1)) through
        Step 5 (distributed discovery + insertion + subscriptions).
        Returns the proof for Maria => AirNet.access."""
        case = self.case
        # Step 1: BigISP's software presents delegation (1) to the
        # server; Steps 2-5: the server's wallet discovers the rest, and
        # checks (1) with what it fetched.
        return self.engine.discover(case.maria.entity, case.airnet_access,
                                    presented=[(case.d1_maria_member, ())])

    def authorize_and_monitor(self, callback=None):
        """Step 6: return the proof wrapped in a proof monitor."""
        proof = self.run_steps_1_to_5()
        if proof is None:
            return None
        return self.server.wallet.monitor(proof, callback=callback)


@dataclass
class FederationDomain:
    """One domain of a distributed federation."""

    principal: Principal
    member: Role
    access: Role
    home: WalletServer      # the domain's home wallet (tagged storage)
    server: WalletServer    # the domain's access server (starts empty)
    engine: DiscoveryEngine
    users: List[Principal]
    credentials: List[Delegation]   # [user -> member], tagged
    bridge: Optional[Delegation] = None  # next domain's members -> ours


@dataclass
class DistributedFederation:
    """A ring of domains whose trust crosses wallets (F2 at scale).

    Domain k admits the members of domain k+1 via a bridge delegation
    stored in the *subject's* home wallet (Figure 2's placement rule),
    so authorizing a user of domain j at domain i's server requires
    discovery across ``(j - i) mod n`` homes.
    """

    network: Network
    clock: SimClock
    domains: List[FederationDomain]
    ttl: float

    def authorize(self, user_domain: int, user_index: int,
                  resource_domain: int,
                  stats: Optional[DiscoveryStats] = None):
        """Run the full access flow, the user presenting their member
        credential; returns the proof (or None)."""
        source = self.domains[user_domain]
        target = self.domains[resource_domain]
        return target.engine.discover(
            source.users[user_index].entity, target.access, stats=stats,
            presented=[(source.credentials[user_index], ())])


def build_distributed_federation(domains: int = 4,
                                 users_per_domain: int = 2,
                                 ttl: float = 300.0,
                                 seed: Optional[int] = None
                                 ) -> DistributedFederation:
    """Build an n-domain federation over one simulated network.

    Per domain: a principal, roles ``member``/``access``, a home wallet
    (holding the member->access grant and the inbound bridge), an empty
    access server with a discovery engine, and tagged user credentials.
    """
    from repro.workloads.topology import _rng
    rng = _rng(seed) if seed is not None else None
    clock = SimClock()
    network = Network(clock=clock)

    principals = [create_principal(f"D{k}", rng=rng)
                  for k in range(domains)]
    members = [Role(p.entity, "member") for p in principals]
    accesses = [Role(p.entity, "access") for p in principals]
    tags = [
        DiscoveryTag(home=f"wallet.d{k}.example",
                     auth_role_name=f"D{k}.wallet", ttl=ttl,
                     subject_flag=SubjectFlag.SEARCH,
                     object_flag=ObjectFlag.NONE)
        for k in range(domains)
    ]

    sites: List[FederationDomain] = []
    for k in range(domains):
        home_wallet = Wallet(owner=principals[k],
                             address=f"wallet.d{k}.example", clock=clock)
        server_wallet = Wallet(owner=principals[k],
                               address=f"server.d{k}.example",
                               clock=clock)
        home = WalletServer(network, home_wallet,
                            principal=principals[k])
        server = WalletServer(network, server_wallet,
                              principal=principals[k])
        engine = DiscoveryEngine(server, default_ttl=ttl)
        users = [create_principal(f"D{k}-u{u}", rng=rng)
                 for u in range(users_per_domain)]
        credentials = [
            issue(principals[k], user.entity, members[k],
                  object_tag=tags[k])
            for user in users
        ]
        # The domain's own grant: member => access, at member's home.
        home_wallet.publish(issue(principals[k], members[k], accesses[k],
                                  subject_tag=tags[k]))
        sites.append(FederationDomain(
            principal=principals[k], member=members[k],
            access=accesses[k], home=home, server=server, engine=engine,
            users=users, credentials=credentials,
        ))

    # Ring bridges: domain k admits domain (k+1)'s members. Stored at
    # the subject's home wallet (domain k+1's).
    for k in range(domains):
        successor = (k + 1) % domains
        bridge = issue(
            principals[k], members[successor], members[k],
            subject_tag=tags[successor], object_tag=tags[k],
        )
        sites[successor].home.wallet.publish(bridge)
        sites[k].bridge = bridge
    return DistributedFederation(network=network, clock=clock,
                                 domains=sites, ttl=ttl)


def build_distributed_case_study(seed: Optional[int] = None,
                                 ttl: float = 30.0
                                 ) -> DistributedCaseStudy:
    """Wire the Figure 2(a) initial state.

    * the server wallet (AirNet's access server) starts empty;
    * delegation (2) and its support proof live in BigISP's home wallet
      (its subject BigISP.member's home);
    * delegation (6) lives in AirNet's home wallet (its subject
      AirNet.member's home);
    * base attribute allocations are configured at the server (it is the
      resource owner's enforcement point).
    """
    case = build_case_study(seed=seed, with_tags=True, ttl=ttl)
    clock = SimClock()
    network = Network(clock=clock)

    server_wallet = Wallet(owner=case.air_net, address=SERVER_ADDRESS,
                           clock=clock)
    bigisp_wallet = Wallet(owner=case.big_isp, address=BIGISP_HOME,
                           clock=clock)
    airnet_wallet = Wallet(owner=case.air_net, address=AIRNET_HOME,
                           clock=clock)

    for attribute, value in case.base_allocations().items():
        server_wallet.set_base_allocation(attribute, value)

    # Subject's-home placement (Figure 2(a)).
    bigisp_wallet.publish(case.d3_sheila_mktg)
    bigisp_wallet.publish(case.d4_mktg_assign)
    for d in case.d5_attr_rights:
        bigisp_wallet.publish(d)
    bigisp_wallet.publish(case.d2_coalition, case.coalition_support)
    airnet_wallet.publish(case.d6_member_access)

    directory = WalletDirectory()
    server = directory.add(WalletServer(network, server_wallet,
                                        principal=case.air_net))
    bigisp_home = directory.add(WalletServer(network, bigisp_wallet,
                                             principal=case.big_isp))
    airnet_home = directory.add(WalletServer(network, airnet_wallet,
                                             principal=case.air_net))
    engine = DiscoveryEngine(server, default_ttl=ttl)
    return DistributedCaseStudy(
        case=case, network=network, clock=clock, server=server,
        bigisp_home=bigisp_home, airnet_home=airnet_home,
        wallets=directory, engine=engine,
    )


# ---------------------------------------------------------------------------
# Placed-topology deployment: one wallet per coalition domain
# ---------------------------------------------------------------------------


@dataclass
class DeployedCoalition:
    """A placed topology live on one simulated network.

    One home :class:`WalletServer` per coalition domain (holding the
    delegations whose tags name it), plus the resource server of the
    object's domain running the discovery engine. Built by
    :func:`deploy_coalition` from any of the coalition families in
    :mod:`repro.workloads.topology` (ring, mesh, scc-heavy, deep
    mutual trust).
    """

    network: Network
    clock: SimClock
    workload: "GeneratedWorkload"
    homes: Dict[str, WalletServer]      # home address -> server
    server: WalletServer                # the initiator (resource) server
    engine: DiscoveryEngine
    entry: Delegation                   # the user's credential
    ttl: float

    def authorize(self, stats: Optional[DiscoveryStats] = None,
                  max_remote_queries: int = 64):
        """Run discovery at the server, the user presenting their
        credential."""
        return self.engine.discover(
            self.workload.subject, self.workload.obj, stats=stats,
            max_remote_queries=max_remote_queries,
            presented=[(self.entry, ())])

    def close(self) -> None:
        self.server.close()
        for home in self.homes.values():
            home.close()


def deploy_coalition(workload: "GeneratedWorkload",
                     ttl: Optional[float] = None) -> DeployedCoalition:
    """Deploy a coalition-family workload across per-domain wallets.

    Placement follows the delegations' own discovery tags: a
    delegation is published at its subject tag's home when the subject
    flag stores (``s``/``S``) and at its object tag's home when the
    object flag stores (``o``/``O``) -- dual-flagged bridges land in
    both wallets. The user's entry credential (the delegation whose
    subject is the workload's designated subject) is held out and
    presented at the resource server by :meth:`DeployedCoalition.authorize`,
    mirroring :meth:`DistributedFederation.authorize`.

    The resource server belongs to the object role's domain and hosts
    the :class:`DiscoveryEngine`.
    """
    addresses = workload.extras.get("home_addresses")
    if not addresses:
        raise ValueError(
            "deploy_coalition needs a coalition-family workload "
            "(extras['home_addresses'] missing); build one with "
            "make_ring_coalition / make_mesh_coalition / make_scc_heavy "
            "/ make_deep_mutual_trust")
    clock = SimClock()
    network = Network(clock=clock)
    owners = [workload.principals[f"D{k}"] for k in range(len(addresses))]
    if ttl is None:
        ttl = next(
            (tag.ttl for delegation, _s in workload.delegations
             for tag in (delegation.subject_tag, delegation.object_tag)
             if tag is not None and tag.ttl > 0), 300.0)

    homes: Dict[str, WalletServer] = {}
    for k, address in enumerate(addresses):
        wallet = Wallet(owner=owners[k], address=address, clock=clock)
        homes[address] = WalletServer(network, wallet,
                                      principal=owners[k])

    entry: Optional[Delegation] = None
    for delegation, supports in workload.delegations:
        if delegation.subject == workload.subject and entry is None:
            entry = delegation
            continue
        for home in delegation.homes:
            homes[home].wallet.publish(delegation, supports)
    if entry is None:
        raise ValueError("workload has no credential for its subject")

    target = next(k for k, owner in enumerate(owners)
                  if owner.entity == workload.obj.entity)
    server_wallet = Wallet(owner=owners[target],
                           address=f"server.d{target}.example",
                           clock=clock)
    server = WalletServer(network, server_wallet,
                          principal=owners[target])
    engine = DiscoveryEngine(server, default_ttl=ttl)
    return DeployedCoalition(
        network=network, clock=clock, workload=workload, homes=homes,
        server=server, engine=engine, entry=entry, ttl=ttl,
    )
