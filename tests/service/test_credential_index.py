"""The shard's credential index against an index that remembers nothing.

``ShardRuntime.handle`` (what every backend runs) recognizes a presented
credential by the digest of its canonical bytes.  Its twin here is a
second runtime whose index decodes every credential afresh.  Each test
runs the twins over the same history and wants byte-identical answers
from both at every step -- so a remembered credential can never buy a
different decision than a fresh one.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.core.delegation import Delegation
from repro.crypto.encoding import canonical_decode, canonical_encode
from repro.service import shard
from repro.service.population import SERVICE_EPOCH
from repro.service.shard import (
    CREDENTIAL_INDEX_SIZE, CredentialIndex, ShardRuntime,
)

from .test_service import POP, _authorize


class _Forgetful:
    """The reference index: every credential decoded afresh."""

    @staticmethod
    def resolve(span):
        return Delegation.from_dict(canonical_decode(span))


def _twins():
    namespaces = POP.namespaces()
    plain = ShardRuntime("shard-0", POP, namespaces)
    plain.credentials = _Forgetful()
    return ShardRuntime("shard-0", POP, namespaces), plain


def _both(framed, plain, request):
    """The indexed shard's answer, decoded, once its bytes equal the
    forgetful twin's."""
    payload = canonical_encode(request)
    answer = framed.handle(payload)
    assert answer == plain.handle(payload)
    return canonical_decode(answer)


def _revoke(index):
    return {"op": "revoke", "ns": POP.namespace(POP.domain_of(index)),
            "revocation": POP.revocation(
                index, revoked_at=SERVICE_EPOCH).to_dict()}


def _off_by_one_byte(request, field):
    credential = dict(request["credential"])
    if field == "signature":
        signature = credential["signature"]
        credential["signature"] = signature[:-1] + bytes(
            (signature[-1] ^ 1,))
    else:
        entity = dict(credential["subject"]["entity"])
        name = entity["nickname"]
        entity["nickname"] = name[:-1] + chr(ord(name[-1]) ^ 1)
        credential["subject"] = dict(credential["subject"], entity=entity)
    off = dict(request, credential=credential)
    assert len(canonical_encode(off)) == len(canonical_encode(request))
    return off


@pytest.mark.parametrize("field", ["subject name", "signature"])
def test_a_credential_one_byte_off_never_resolves_to_the_stored_one(field):
    framed, plain = _twins()
    request = _authorize(17)
    assert _both(framed, plain, request)["granted"] is True
    answer = _both(framed, plain, _off_by_one_byte(request, field))
    assert answer["status"] == "denied"
    assert "signature does not verify" in answer["reason"]
    assert framed.credentials.info()["hits"] == 0
    assert framed.credentials.info()["misses"] == 2
    # The stored credential is still recognized, and still granted.
    assert _both(framed, plain, request)["granted"] is True
    assert framed.credentials.info()["hits"] == 1


def test_a_revoked_credential_presented_byte_for_byte_is_denied():
    framed, plain = _twins()
    request = _authorize(123)
    assert _both(framed, plain, request)["granted"] is True
    assert _both(framed, plain, _revoke(123))["inserted"] is True
    answer = _both(framed, plain, request)
    assert answer["status"] == "denied"
    assert "revoked" in answer["reason"]
    assert framed.credentials.info()["hits"] == 1


def test_the_index_stays_within_its_bound(monkeypatch):
    assert CREDENTIAL_INDEX_SIZE == 8192
    monkeypatch.setattr(shard, "CREDENTIAL_INDEX_SIZE", 4)
    spans = [canonical_encode(POP.credential(index).to_dict())
             for index in range(12)]
    with obs.scoped():
        index = CredentialIndex()
        for span in spans:
            index.resolve(span)
            assert index.info()["entries"] <= 4
        # The oldest went first; it comes back equal, as a miss.
        assert index.resolve(spans[0]) == POP.credential(0)
        assert index.info() == {"hits": 0, "misses": 13, "entries": 4,
                                "maxsize": 4}
        assert index.resolve(spans[11]) is index.resolve(spans[11])
        assert index.info()["hits"] == 2


def test_the_stats_op_reports_the_index_from_the_shards_registry():
    framed, _ = _twins()
    for _ in range(3):
        framed.handle(canonical_encode(_authorize(5)))
    stats = canonical_decode(framed.handle(canonical_encode(
        {"op": "stats", "ns": POP.namespace(0)})))
    assert stats["credentials"] == {"hits": 2, "misses": 1, "entries": 1,
                                    "maxsize": CREDENTIAL_INDEX_SIZE}
    counted = {c["name"]: c["value"] for c in stats["metrics"]["counters"]
               if c["name"].startswith("drbac_credential_index_")}
    assert counted == {"drbac_credential_index_hits_total": 2,
                       "drbac_credential_index_misses_total": 1}
    assert obs.get_registry().total("drbac_credential_index_hits_total") \
        == 0


_steps = st.lists(st.tuples(
    st.sampled_from(["authorize", "publish", "revoke", "off"]),
    st.integers(min_value=0, max_value=5)), max_size=12)


@given(_steps)
def test_any_history_gets_the_dict_paths_answers(steps):
    """Any history: the indexed shard answers as the forgetful one does."""
    framed, plain = _twins()
    for op, index in steps:
        if op == "revoke":
            _both(framed, plain, _revoke(index))
        elif op == "off":
            _both(framed, plain,
                  _off_by_one_byte(_authorize(index), "signature"))
        else:
            _both(framed, plain, dict(_authorize(index), op=op))


def _malformed(field):
    request = _authorize(9)
    if field == "ns":
        return dict(request, ns=["not", "a", "name"])
    if field == "credential":
        return dict(request, credential={"subject": [], "object": {},
                                         "issuer": {}})
    if field == "signature":
        return dict(request, credential=dict(request["credential"],
                                             signature=10 ** 12))
    return {"op": "revoke", "ns": request["ns"],
            "revocation": {"delegation": ["x"], "issuer": {},
                           "revoked_at": 1.0, "signature": b""}}


@pytest.mark.parametrize("field",
                         ["ns", "credential", "signature", "revocation"])
def test_a_malformed_field_is_a_typed_error_on_both_paths(field):
    """What a record decoder now raises is all the shard catches: each
    twin answers ``status: error``, and the shard keeps serving."""
    framed, plain = _twins()
    answer = _both(framed, plain, _malformed(field))
    assert answer["status"] == "error"
    assert answer["error"].startswith("malformed request")
    assert _both(framed, plain, _authorize(9))["granted"] is True
