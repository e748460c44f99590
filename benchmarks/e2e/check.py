"""Correctness oracle: a fast wrong answer is not a result.

Four checks, all fatal to the run (``correct: false``, exit status 1):

* every service response carries the decision its stream fixed in
  advance (grant, ``denied`` after a revoke, ``ok`` for writes);
* sampled service proofs decode, validate on the client under a fresh
  verification memo, and are byte-identical to what a single-process
  ``Wallet.authorize`` returns for the same principal;
* discovered proofs have the expected number of links and validate, and
  a revoked bridge leaves no proof and an invalid monitor;
* the paper's Table 3 case study still aggregates to BW 100,
  storage 30, hours 18.
"""

from typing import Dict, List, Optional

from repro.core.clock import SimClock
from repro.core.errors import DRBACError
from repro.core.proof import Proof, validate_proof
from repro.crypto import verify_cache
from repro.crypto.encoding import canonical_encode
from repro.wallet.wallet import Wallet
from repro.workloads.scenarios import (
    EXPECTED_BW, EXPECTED_HOURS, EXPECTED_STORAGE, SERVICE_EPOCH,
    ServicePopulation, build_case_study,
)

from .streams import DENIED, GRANTED, OK

# One in this many granted service responses has its proof checked.
PROOF_SAMPLE_EVERY = 200


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        """A failure that is not an operation of its own (a bad proof)."""
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def decision_problem(expect: str, response: dict) -> Optional[str]:
    """None when ``response`` is the decision ``expect`` names."""
    status = response.get("status")
    if expect == GRANTED:
        good = status == "ok" and response.get("granted") is True
    elif expect == DENIED:
        good = status == "denied"
    elif expect == OK:
        good = status == "ok"
    else:
        raise ValueError(f"unknown expectation {expect!r}")
    if good:
        return None
    detail = response.get("error") or response.get("reason") or ""
    return f"expected {expect}, got status={status!r} {detail}".rstrip()


class ServiceProofOracle:
    """Single-process reference for the proofs the service returns."""

    def __init__(self, population: ServicePopulation) -> None:
        self.population = population
        self._homes: Dict[int, Wallet] = {}

    def _home(self, domain_index: int) -> Wallet:
        home = self._homes.get(domain_index)
        if home is None:
            domain = self.population.domain(domain_index)
            home = Wallet(owner=domain.authority,
                          address=f"wallet.{domain.namespace}",
                          clock=SimClock(SERVICE_EPOCH))
            home.publish(domain.grant)
            self._homes[domain_index] = home
        return home

    def reference_bytes(self, index: int) -> bytes:
        population = self.population
        domain_index = population.domain_of(index)
        home = self._home(domain_index)
        credential = population.credential(index)
        home.publish(credential)
        monitor = home.authorize(credential.subject,
                                 population.domain(domain_index).access)
        if monitor is None:
            raise AssertionError(f"reference denied principal {index}")
        monitor.cancel()
        return canonical_encode(monitor.proof.to_dict())

    def proof_problem(self, index: int, wire_proof: dict) -> Optional[str]:
        """None when the service's proof for ``index`` is valid and
        byte-identical to the reference."""
        try:
            with verify_cache.scoped():     # nothing pre-verified
                validate_proof(Proof.from_dict(wire_proof),
                               at=SERVICE_EPOCH)
        except (DRBACError, KeyError, TypeError, ValueError) as exc:
            return f"proof for principal {index} does not validate: {exc}"
        if canonical_encode(wire_proof) != self.reference_bytes(index):
            return (f"proof for principal {index} differs from the "
                    f"single-process Wallet.authorize reference")
        return None


def discovery_problem(proof, expected_links: int, at: float,
                      denied, monitor) -> Optional[str]:
    """None when one discovery iteration came out as the paper says:
    ``proof`` valid and of the right length, then, with its middle
    bridge revoked, no proof (``denied`` is None) and a monitor that has
    gone invalid."""
    if proof.depth() != expected_links:
        return (f"proof has {proof.depth()} links, expected "
                f"{expected_links}")
    try:
        validate_proof(proof, at=at)
    except DRBACError as exc:
        return f"discovered proof does not validate: {exc}"
    if denied is not None:
        return "authorize still granted after the bridge was revoked"
    if monitor.valid:
        return "proof monitor still valid after the bridge was revoked"
    return None


def table3_problem() -> Optional[str]:
    """None when the Section 5 case study aggregates as published."""
    case = build_case_study()
    wallet = case.populate_wallet(Wallet(owner=case.air_net,
                                         clock=SimClock()))
    proof = wallet.query_direct(case.maria.entity, case.airnet_access)
    if proof is None:
        return "Table 3: no proof for Maria => AirNet.access"
    grants = proof.grants(case.base_allocations())
    got = (grants[case.bw], grants[case.storage],
           round(grants[case.hours], 6))
    want = (EXPECTED_BW, EXPECTED_STORAGE, EXPECTED_HOURS)
    if got != want:
        return f"Table 3: aggregated (BW, storage, hours) = {got}, " \
               f"paper says {want}"
    return None
