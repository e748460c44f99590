"""Deriving a proof's endpoints from its chain loses nothing on real
traffic.

A ``gem_answers`` record carries no ``subject`` / ``object``: the origin
takes them from the chain's first subject and last object, which Table 1
linkage makes equal to the proof's. Here every proof a home hands to
``proof_to_wire_session`` during cold discovery -- on each coalition
family ``deploy_coalition`` builds and on the two scenarios the seed
oracle is checked against (the Figure 2 case study, with its support
proofs, and the federation) -- is paired with what the origin decoded
from that very payload, and the two must encode to the same bytes.
That holds for a record that names its ``parent`` too: the origin grows
the proof it decoded from that record by the one link carried.
"""

import pytest

from repro.crypto.encoding import canonical_encode
from repro.discovery import wire
from repro.workloads import topology
from repro.workloads.scenarios import (
    build_distributed_case_study,
    build_distributed_federation,
    deploy_coalition,
)


def _coalition(make):
    def run():
        dep = deploy_coalition(make())
        try:
            return dep.authorize(max_remote_queries=1024)
        finally:
            dep.close()
    return run


def _case_study():
    d = build_distributed_case_study(seed=11)
    d.server.wallet.publish(d.case.d1_maria_member)
    return d.engine.discover(d.case.maria.entity, d.case.airnet_access)


def _federation():
    fed = build_distributed_federation(domains=6, users_per_domain=1, seed=7)
    return fed.authorize(5, 0, 0)


SCENARIOS = [
    ("ring", _coalition(lambda: topology.make_ring_coalition(4, seed=41))),
    ("mesh", _coalition(lambda: topology.make_mesh_coalition(5, seed=42))),
    ("scc", _coalition(lambda: topology.make_scc_heavy(3, 3, seed=43))),
    ("deep", _coalition(
        lambda: topology.make_deep_mutual_trust(4, seed=44))),
    ("case-study", _case_study),
    ("federation", _federation),
]


def _records(payload):
    stack = [payload]
    while stack:
        record = stack.pop()
        yield record
        for proofs in record.get("supports", {}).values():
            stack.extend(proofs)


@pytest.mark.parametrize("name,run", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_decoded_proofs_are_byte_identical_to_the_homes(monkeypatch, name,
                                                        run):
    encode, decode = wire.proof_to_wire_session, wire.proof_from_wire_session
    sent, decoded = {}, []      # id(payload) -> (payload, proof) / pairs

    def encoding(proof, *args):
        payload = encode(proof, *args)
        sent[id(payload)] = (payload, proof)
        return payload

    def decoding(payload, *args, **kwargs):
        proof = decode(payload, *args, **kwargs)
        decoded.append((payload, proof))
        return proof

    monkeypatch.setattr(wire, "proof_to_wire_session", encoding)
    monkeypatch.setattr(wire, "proof_from_wire_session", decoding)
    assert run() is not None

    # The simulated network hands the payload object itself to the
    # origin, so each decode pairs with its encode by identity.
    assert decoded and len(decoded) == len(sent)
    for payload, proof in decoded:
        original = sent[id(payload)][1]
        assert canonical_encode(proof.to_dict()) \
            == canonical_encode(original.to_dict())
    # Only an answer's own records name a parent, each with one link.
    payloads = [payload for payload, _p in sent.values()]
    assert all(len(p["chain"]) == 1 for p in payloads if "parent" in p)
    records = [r for payload in payloads for r in _records(payload)]
    assert all(r.keys() - {"parent"} <= {"chain", "supports"}
               for r in records)
    assert all("parent" not in r for r in records
               if not any(r is p for p in payloads))
    entries = [e for r in records for e in r["chain"]]
    assert not any(isinstance(e, str) for e in entries)
    assert all(isinstance(e, dict) or len(e) == 32 for e in entries)
    if name == "case-study":
        assert any("supports" in r for r in records)
