"""Consistent-hash ring mapping issuing namespaces to shards.

Classic Karger-style ring: every shard contributes ``VNODES`` virtual
points placed by ``blake2b(shard_id + "#" + index)``, and a key routes
to the first vnode clockwise from ``blake2b(key)``.  Two properties
the service relies on (pinned by ``tests/service/test_ring.py``):

* **balance** -- with 256 vnodes/shard, a 1M-key population
  splits within +/-15% of fair share across shards (up to 8 shards);
* **minimal remap** -- growing the ring from N to N+1 shards moves
  about 1/(N+1) of the keys (always < 1/N), because only keys whose
  clockwise successor becomes one of the new vnodes change owner.

Hashing is deterministic (no process salt), so the router, the load
generator, and worker processes all agree on placement without
coordination.
"""

import bisect
from hashlib import blake2b
from typing import Dict, Iterable, List, Tuple

VNODES = 256


def _point(data: str) -> int:
    """Position of ``data`` on the 64-bit ring."""
    return int.from_bytes(blake2b(data.encode("utf-8"),
                                  digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Deterministic consistent-hash ring over named shards."""

    __slots__ = ("_points", "_owners", "_shards")

    def __init__(self, shard_ids: Iterable[str] = ()) -> None:
        self._points: List[int] = []      # sorted vnode positions
        self._owners: List[str] = []      # shard id per position
        self._shards: List[str] = []
        for shard_id in shard_ids:
            self.add(shard_id)

    # -- membership ---------------------------------------------------------

    @property
    def shards(self) -> Tuple[str, ...]:
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add(self, shard_id: str) -> None:
        """Add a shard (its vnodes join the ring; ~1/(N+1) keys move)."""
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._shards.append(shard_id)
        points, owners = self._points, self._owners
        for index in range(VNODES):
            point = _point(f"{shard_id}#{index}")
            at = bisect.bisect_left(points, point)
            # 64-bit collisions are ~impossible at these sizes, but keep
            # placement deterministic if one happens: first-added wins.
            if at < len(points) and points[at] == point:
                continue
            points.insert(at, point)
            owners.insert(at, shard_id)

    def remove(self, shard_id: str) -> None:
        """Remove a shard; its keys redistribute to ring successors."""
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id!r} not on the ring")
        self._shards.remove(shard_id)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != shard_id]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- lookup -------------------------------------------------------------

    def lookup(self, key: str) -> str:
        """The shard owning ``key`` (first vnode clockwise)."""
        points = self._points
        if not points:
            raise LookupError("ring has no shards")
        at = bisect.bisect_right(points, _point(key))
        if at == len(points):
            at = 0
        return self._owners[at]

    def assignments(self, keys: Iterable[str]) -> Dict[str, int]:
        """Key count per shard (balance checks, capacity planning)."""
        counts = {shard_id: 0 for shard_id in self._shards}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts
