"""Service-scale population: a million principals with a Zipfian hot set.

The deterministic workload universe the sharded service serves and the
load generator drives. Everything is derived from ``(seed, index)``, so
every shard, the load generator and a reference wallet re-create the
same keys, credentials and revocations without sharing any state.
"""

import bisect
import random
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.delegation import Delegation, Revocation, issue, revoke
from repro.core.identity import Principal, create_principal
from repro.core.roles import Role

# All service-scale credentials carry this fixed issue time, so the
# same (seed, index) always signs the same bytes -- the load generator,
# every shard, and the byte-identity reference wallet agree without
# sharing any state.
SERVICE_EPOCH = 0.0

# How many signed credentials a population keeps (LRU): key generation
# plus signing costs ~2 ms each.
CREDENTIAL_CACHE = 200_000


@dataclass
class ServiceDomain:
    """One issuing namespace of the service-scale coalition."""

    index: int
    namespace: str
    authority: Principal
    member: Role
    access: Role
    # Self-certified [Org.member -> Org.access] Org; published at shard
    # startup so every member credential completes a two-link proof.
    grant: Delegation


class ServicePopulation:
    """Deterministic ``population``-principal workload universe.

    Principal ``i`` belongs to domain ``i % domains`` and holds one
    self-certified membership credential from that domain's authority.
    Everything is materialized lazily and reproducibly: entity ``i`` is
    derived from ``random.Random(f"svc:{seed}:user:{i}")``, so any
    process holding the same ``(seed, population, domains)`` triple
    re-creates byte-identical keys, credentials, and revocations.

    Request skew follows a hotspot-knee model (the shape YCSB's hotspot
    distribution uses, with the hot set chosen by Zipf rank): with
    probability ``hot_fraction`` a request draws uniformly from the top
    ``hot_size`` ranks, otherwise from a Zipf(``skew``) tail over the
    whole population.  The knee is what makes partitioned-cache scaling
    measurable -- see docs/PERFORMANCE.md ("Service layer").
    """

    def __init__(self, seed: int = 7, population: int = 1_000_000,
                 domains: int = 64, skew: float = 1.0,
                 hot_size: int = 12_000,
                 hot_fraction: float = 0.95) -> None:
        if population < 1 or domains < 1 or domains > population:
            raise ValueError("need 1 <= domains <= population")
        if not 0 < hot_size <= population:
            raise ValueError("need 0 < hot_size <= population")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if skew <= 0.0:
            raise ValueError("skew must be positive")
        self.seed = seed
        self.population = population
        self.domains = domains
        self.skew = skew
        self.hot_size = hot_size
        self.hot_fraction = hot_fraction
        self._domains: Dict[int, ServiceDomain] = {}
        self._credentials: "OrderedDict[int, Delegation]" = OrderedDict()
        self._cdf: Optional[array] = None

    # -- namespaces and domains ---------------------------------------------

    def namespace(self, domain_index: int) -> str:
        return f"org{domain_index % self.domains:03d}.coalition"

    def namespaces(self) -> List[str]:
        return [self.namespace(d) for d in range(self.domains)]

    def domain_of(self, index: int) -> int:
        return index % self.domains

    def domain(self, domain_index: int) -> ServiceDomain:
        """The (lazily built) authority + roles of one namespace."""
        domain_index %= self.domains
        built = self._domains.get(domain_index)
        if built is None:
            rng = random.Random(f"svc:{self.seed}:domain:{domain_index}")
            authority = create_principal(f"Org{domain_index:03d}", rng=rng)
            member = Role(authority.entity, "member")
            access = Role(authority.entity, "access")
            grant = issue(authority, member, access,
                          issued_at=SERVICE_EPOCH)
            built = ServiceDomain(
                index=domain_index, namespace=self.namespace(domain_index),
                authority=authority, member=member, access=access,
                grant=grant)
            self._domains[domain_index] = built
        return built

    # -- principals and credentials -----------------------------------------

    def principal(self, index: int) -> Principal:
        """Principal ``index`` (deterministic keys; not cached)."""
        rng = random.Random(f"svc:{self.seed}:user:{index}")
        return create_principal(f"user{index}", rng=rng)

    def credential(self, index: int) -> Delegation:
        """``[user{i} -> Org.member] Org`` for ``i``'s home domain.

        LRU-cached (``CREDENTIAL_CACHE`` entries); identical bytes
        regardless of cache state.
        """
        cached = self._credentials.get(index)
        if cached is not None:
            self._credentials.move_to_end(index)
            return cached
        domain = self.domain(self.domain_of(index))
        credential = issue(domain.authority, self.principal(index).entity,
                           domain.member, issued_at=SERVICE_EPOCH)
        if len(self._credentials) >= CREDENTIAL_CACHE:
            self._credentials.popitem(last=False)
        self._credentials[index] = credential
        return credential

    def revocation(self, index: int,
                   revoked_at: float = SERVICE_EPOCH + 1.0) -> Revocation:
        """A signed revocation of principal ``index``'s credential."""
        domain = self.domain(self.domain_of(index))
        return revoke(domain.authority, self.credential(index),
                      revoked_at=revoked_at)

    # -- sampling ------------------------------------------------------------

    def _tail_cdf(self) -> array:
        if self._cdf is None:
            skew = self.skew
            cdf = array("d", bytes(8 * self.population))
            total = 0.0
            for rank in range(self.population):
                total += (rank + 1.0) ** -skew
                cdf[rank] = total
            self._cdf = cdf
        return self._cdf

    def sample(self, rng: random.Random) -> int:
        """Draw one principal index (hot set, else Zipf tail)."""
        if rng.random() < self.hot_fraction:
            return rng.randrange(self.hot_size)
        cdf = self._tail_cdf()
        u = rng.random() * cdf[-1]
        return bisect.bisect_left(cdf, u)
