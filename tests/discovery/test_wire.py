import pytest

from repro.core import AttributeRef, Constraint, Role
from repro.core.errors import DiscoveryError
from repro.discovery import wire


class TestSubjects:
    def test_entity_round_trip(self, alice):
        assert wire.subject_from_wire(
            wire.subject_to_wire(alice.entity)) == alice.entity

    def test_role_round_trip(self, org):
        role = Role(org.entity, "staff", ticks=1)
        assert wire.subject_from_wire(
            wire.subject_to_wire(role)) == role

    def test_role_helpers(self, org):
        role = Role(org.entity, "staff")
        assert wire.role_from_wire(wire.role_to_wire(role)) == role


class TestConstraints:
    def test_round_trip(self, org):
        constraints = (
            Constraint(AttributeRef(org.entity, "BW"), 50.0),
            Constraint(AttributeRef(org.entity, "storage"), 10.0),
        )
        assert wire.constraints_from_wire(
            wire.constraints_to_wire(constraints)) == constraints

    def test_empty(self):
        assert wire.constraints_from_wire(wire.constraints_to_wire(())) \
            == ()


@pytest.mark.parametrize("decode", [wire.constraints_from_wire,
                                    wire.bases_from_wire])
@pytest.mark.parametrize("data", [
    [1], [{}], [{"entity": 1, "name": "x", "minimum": 1}], 5,
])
def test_malformed_attribute_lists_raise_discovery_error(decode, data):
    with pytest.raises(DiscoveryError):
        decode(data)


class TestBases:
    def test_round_trip(self, org):
        bases = {AttributeRef(org.entity, "BW"): 200.0}
        assert wire.bases_from_wire(wire.bases_to_wire(bases)) == bases

    def test_none_is_empty(self):
        assert wire.bases_to_wire(None) == []


class TestProofs:
    def test_round_trip(self, table1):
        proof = table1.full_proof()
        assert wire.proof_from_wire(wire.proof_to_wire(proof)) == proof

    def test_none_passthrough(self):
        assert wire.proof_to_wire(None) is None
        assert wire.proof_from_wire(None) is None

    def test_list_round_trip(self, table1):
        proofs = [table1.support_proof, table1.full_proof()]
        assert wire.proofs_from_wire(wire.proofs_to_wire(proofs)) == proofs


class TestDelegations:
    def test_round_trip(self, table1):
        d = table1.d3_maria_member
        assert wire.delegation_from_wire(wire.delegation_to_wire(d)) == d
