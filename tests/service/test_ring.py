"""Consistent-hash ring invariants: balance and minimal remap.

The service maps issuing namespaces to shards through this ring, so
its two load-bearing properties are (1) even spread -- every shard's
share of a large key population stays within +/-15% of fair -- and
(2) stability under resize -- adding one shard to an N-shard ring
moves strictly less than 1/N of the keys (the classic consistent
hashing bound; naive modulo hashing moves ~N/(N+1)).
"""

import pytest

from repro.service.ring import ConsistentHashRing, VNODES


def _shard_ids(n):
    return [f"shard-{i}" for i in range(n)]


def test_balance_at_one_million_keys():
    ring = ConsistentHashRing(_shard_ids(4))
    counts = ring.assignments(f"key-{i}" for i in range(1_000_000))
    fair = 1_000_000 / 4
    assert set(counts) == set(_shard_ids(4))
    for shard, count in counts.items():
        assert abs(count - fair) / fair <= 0.15, (
            f"{shard} holds {count} keys ({count / fair:.2f}x fair)")


@pytest.mark.parametrize("shards", [2, 8])
def test_balance_smaller_fleets(shards):
    ring = ConsistentHashRing(_shard_ids(shards))
    keys = 100_000
    counts = ring.assignments(f"key-{i}" for i in range(keys))
    fair = keys / shards
    for shard, count in counts.items():
        assert abs(count - fair) / fair <= 0.15, (
            f"{shard} holds {count} keys ({count / fair:.2f}x fair)")


def test_add_shard_remaps_less_than_one_nth():
    keys = [f"key-{i}" for i in range(200_000)]
    before = ConsistentHashRing(_shard_ids(4))
    owners = {key: before.lookup(key) for key in keys}
    before.add("shard-4")
    moved = sum(1 for key in keys if before.lookup(key) != owners[key])
    assert 0 < moved / len(keys) < 1 / 4
    # Every moved key lands on the new shard, never between old shards.
    for key in keys:
        owner = before.lookup(key)
        if owner != owners[key]:
            assert owner == "shard-4"


def test_remove_shard_is_inverse_of_add():
    ring = ConsistentHashRing(_shard_ids(4))
    keys = [f"key-{i}" for i in range(5_000)]
    owners = {key: ring.lookup(key) for key in keys}
    ring.add("shard-4")
    ring.remove("shard-4")
    assert {key: ring.lookup(key) for key in keys} == owners


def test_lookup_is_deterministic_across_instances():
    a = ConsistentHashRing(_shard_ids(5))
    b = ConsistentHashRing(list(reversed(_shard_ids(5))))
    for i in range(2_000):
        key = f"ns-{i}.coalition"
        assert a.lookup(key) == b.lookup(key)


def test_single_shard_owns_everything():
    ring = ConsistentHashRing(["only"])
    assert ring.lookup("anything") == "only"
    assert len(ring) == 1
    assert "only" in ring


def test_empty_ring_rejects_lookup():
    ring = ConsistentHashRing()
    with pytest.raises(LookupError):
        ring.lookup("key")


def test_vnode_count_is_generous():
    # Balance numbers above assume this vnode density; a silent
    # reduction would erode them.
    assert VNODES >= 64
