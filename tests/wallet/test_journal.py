"""Journaled persistence: durability per operation, crash tolerance,
compaction."""

import os
import struct

import pytest

from repro.core import Role, SimClock, issue, renew
from repro.core.attributes import AttributeRef
from repro.wallet.journal import JournaledWallet


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "wallet.journal")


def _open(path, org, clock=None):
    return JournaledWallet.open(path, owner=org,
                                clock=clock or SimClock())


class TestDurability:
    def test_publish_survives_reopen(self, path, org, alice):
        role = Role(org.entity, "r")
        with _open(path, org) as wallet:
            wallet.publish(issue(org, alice.entity, role))
        with _open(path, org) as reopened:
            assert reopened.query_direct(alice.entity, role) is not None

    def test_revocation_survives_reopen(self, path, org, alice):
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        with _open(path, org) as wallet:
            wallet.publish(d)
            wallet.revoke(org, d.id)
        with _open(path, org) as reopened:
            assert reopened.is_revoked(d.id)
            assert reopened.query_direct(alice.entity, role) is None

    def test_renewal_survives_reopen(self, path, org, alice):
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role, expiry=100.0)
        clock = SimClock()
        with JournaledWallet.open(path, owner=org, clock=clock) as wallet:
            wallet.publish(d)
            wallet.publish_renewal(d.id, renew(org, d, new_expiry=500.0))
        clock2 = SimClock(start=200.0)  # past original expiry
        with JournaledWallet.open(path, owner=org, clock=clock2) as w2:
            assert w2.query_direct(alice.entity, role) is not None

    def test_bases_survive_reopen(self, path, org):
        attr = AttributeRef(org.entity, "q")
        with _open(path, org) as wallet:
            wallet.set_base_allocation(attr, 42.0)
        with _open(path, org) as reopened:
            assert reopened.base_allocations() == {attr: 42.0}

    def test_supports_survive_reopen(self, path, org, table1):
        with _open(path, org) as wallet:
            wallet.publish(table1.d1_mark_services)
            wallet.publish(table1.d2_services_assign)
            wallet.publish(table1.d3_maria_member,
                           supports=[table1.support_proof])
        with _open(path, org) as reopened:
            proof = reopened.query_direct(table1.maria.entity,
                                          table1.member)
            assert proof is not None
            reopened.validate(proof)


class TestCrashTolerance:
    def test_torn_final_record_ignored(self, path, org, alice, bob):
        role = Role(org.entity, "r")
        with _open(path, org) as wallet:
            wallet.publish(issue(org, alice.entity, role))
            wallet.publish(issue(org, bob.entity, role))
        # Simulate a crash mid-append: truncate into the last record.
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)
        with _open(path, org) as reopened:
            assert reopened.query_direct(alice.entity, role) is not None
            assert reopened.query_direct(bob.entity, role) is None

    def test_corrupted_tail_ignored(self, path, org, alice):
        role = Role(org.entity, "r")
        with _open(path, org) as wallet:
            wallet.publish(issue(org, alice.entity, role))
        with open(path, "ab") as handle:
            handle.write(struct.pack(">I", 12) + b"\xff" * 12)
        with _open(path, org) as reopened:
            assert reopened.query_direct(alice.entity, role) is not None

    def test_too_deep_record_ends_replay(self, path, org, alice, bob):
        # A record nesting 3 000 lists deep is as corrupt as a garbage
        # one: replay keeps what came before it and stops there.
        role = Role(org.entity, "r")
        with _open(path, org) as wallet:
            wallet.publish(issue(org, alice.entity, role))
        deep = b"L\x00\x00\x00\x01" * 3000 + b"N"
        with open(path, "ab") as handle:
            handle.write(struct.pack(">I", len(deep)) + deep)
        with _open(path, org) as reopened:
            assert reopened.query_direct(alice.entity, role) is not None
            reopened.publish(issue(org, bob.entity, role))
        with _open(path, org) as again:
            assert again.query_direct(bob.entity, role) is None

    def test_empty_journal_ok(self, path, org):
        with _open(path, org) as wallet:
            assert len(wallet) == 0


class TestCompaction:
    def test_compaction_shrinks_superseded_history(self, path, org,
                                                   alice):
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role, expiry=100.0)
        with _open(path, org) as wallet:
            wallet.publish(d)
            current = d
            for step in range(1, 6):
                renewal = renew(org, current,
                                new_expiry=100.0 + 100.0 * step)
                wallet.publish_renewal(current.id, renewal)
                current = renewal
            before = os.path.getsize(path)
            wallet.compact()
            after = os.path.getsize(path)
            assert after < before
        with _open(path, org) as reopened:
            proof = reopened.query_direct(alice.entity, role)
            assert proof is not None
            assert proof.chain[0].expiry == 600.0

    def test_compaction_preserves_revocations(self, path, org, alice):
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        with _open(path, org) as wallet:
            wallet.publish(d)
            wallet.revoke(org, d.id)
            wallet.compact()
        with _open(path, org) as reopened:
            assert reopened.is_revoked(d.id)

    def test_writes_continue_after_compaction(self, path, org, alice,
                                              bob):
        role = Role(org.entity, "r")
        with _open(path, org) as wallet:
            wallet.publish(issue(org, alice.entity, role))
            wallet.compact()
            wallet.publish(issue(org, bob.entity, role))
        with _open(path, org) as reopened:
            assert reopened.query_direct(bob.entity, role) is not None
