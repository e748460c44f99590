"""Sharded wallet service: ring-routed home wallets behind one front door.

This package turns the single-process wallet stack into the cached,
horizontally partitioned trust service the SAFE line of work argues
for (PAPERS.md): namespaces map to shards via a consistent-hash ring,
each shard hosts the home wallets for its namespaces inside its own
``obs.scoped()`` / ``verify_cache.scoped()`` context, and a front-door
router applies admission control with typed RETRY_LATER shedding when
a shard's bounded queue passes its high-watermark.  Every request
reaches a shard as canonical payload bytes, through one backend method
(``relay``) and one shard entry point (``ShardRuntime.handle``).

Layout
------

``population``  the seeded principals, credentials and request skew
``ring``        consistent-hash ring (blake2b, 256 vnodes/shard)
``shard``       shard runtime + inline / thread / process backends
``router``      front door: routing, bounded queues, backpressure
``transport``   asyncio socket server/client, length-prefixed frames
``loadgen``     deterministic load generator over the workload spec

Everything here takes injected handles (a ``MetricsRegistry``, a
``ShardContext``) instead of touching process-global registries or
memos -- enforced by the ``service-injection`` rule of the repository's
code linter (``tools/reprolint.py``).
"""

from .ring import ConsistentHashRing
from .router import (
    Router, RouterConfig, ServiceError,
    STATUS_OK, STATUS_DENIED, STATUS_RETRY_LATER, STATUS_ERROR,
)
from .shard import ShardContext, InlineShard, ThreadShard, ProcessShard
from .transport import (
    BlockingClient, FrameDecoder, FrameError, ServiceServer, encode_frame,
)
from .loadgen import LoadGenerator, LoadgenConfig, LoadgenReport

__all__ = [
    "ConsistentHashRing",
    "Router", "RouterConfig", "ServiceError",
    "STATUS_OK", "STATUS_DENIED", "STATUS_RETRY_LATER", "STATUS_ERROR",
    "ShardContext", "InlineShard", "ThreadShard", "ProcessShard",
    "BlockingClient", "FrameDecoder", "FrameError", "ServiceServer",
    "encode_frame",
    "LoadGenerator", "LoadgenConfig", "LoadgenReport",
]
