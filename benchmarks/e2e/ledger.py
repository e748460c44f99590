"""The per-layer ledger: what the traced replay says each layer cost.

Metric names here are the ``per_layer`` names of ``BENCHMARK.json``;
layer names are ``src/repro`` module names.  ``None`` means the layer
has no installed target left (see :mod:`trace`), which the report
prints as ``null``.
"""

from typing import Dict, Optional, Tuple

from .stats import ms, share
from .trace import ROOT_LAYER, Tracer

# A ledger entry: (value or None, sample count).
Entry = Tuple[Optional[float], int]

# metric -> the trace layers whose self time it sums.
SELF_TIME = {
    "service.transport.encode.self_ms_per_op": ("service.transport.encode",),
    "service.transport.decode.self_ms_per_op": ("service.transport.decode",),
    "service.router.self_ms_per_op": ("service.router",),
    "service.ring.self_ms_per_op": ("service.ring",),
    "service.shard.self_ms_per_op": ("service.shard",),
    "crypto.verify.self_ms_per_op": ("crypto.verify", "crypto.verify_batch"),
    "crypto.sign.self_ms_per_op": ("crypto.sign",),
    "crypto.encoding.encode.self_ms_per_op": ("crypto.encoding.encode",),
    "crypto.encoding.decode.self_ms_per_op": ("crypto.encoding.decode",),
    "core.delegation.decode.self_ms_per_op": ("core.delegation.decode",),
    "core.proof.encode.self_ms_per_op": ("core.proof.encode",),
    "core.proof.validate.self_ms_per_op": ("core.proof.validate",),
    "wallet.publish.self_ms_per_op": ("wallet.publish",),
    "wallet.authorize.self_ms_per_op": ("wallet.authorize",),
    "wallet.revoke.self_ms_per_op": ("wallet.revoke",),
    "wallet.query.self_ms_per_op": ("wallet.query",),
    "graph.search.self_ms_per_op": ("graph.search",),
    "graph.proof_cache.self_ms_per_op": ("graph.proof_cache",),
    "graph.reach_index.self_ms_per_op": ("graph.reach_index",),
    "discovery.engine.self_ms_per_op": ("discovery.engine",),
    "discovery.resolver.self_ms_per_op": ("discovery.resolver",),
    "discovery.wire.self_ms_per_op": ("discovery.wire",),
    "net.switchboard.self_ms_per_op": ("net.switchboard",),
    "net.rpc.self_ms_per_op": ("net.rpc",),
    "net.transport.self_ms_per_op": ("net.transport",),
    "pubsub.self_ms_per_op": ("pubsub.subscribe", "pubsub.publish"),
    "monitor.self_ms_per_op": ("monitor",),
}


def from_trace(tracer: Tracer, ops: int, bare_seconds_per_op: float,
               traced_seconds_per_op: float, speed: float) -> Dict[str, Entry]:
    """Every ledger entry that comes from spans alone.  ``speed`` is the
    host-speed factor of the traced part (:mod:`hostspeed`): the spans'
    self times are divided by it; the two per-op times arrive scaled."""
    totals = tracer.layer_totals()
    known = tracer.known_layers()

    def calls(layer: str) -> int:
        return totals[layer].calls if layer in totals else 0

    def weight(layer: str) -> int:
        return totals[layer].weight if layer in totals else 0

    entries: Dict[str, Entry] = {}
    for metric, layers in SELF_TIME.items():
        if not known.intersection(layers):
            entries[metric] = (None, 0)
            continue
        seconds = sum(totals[layer].self_seconds
                      for layer in layers if layer in totals)
        entries[metric] = (ms(seconds) / speed / ops,
                           sum(calls(layer) for layer in layers))

    batch_items = weight("crypto.verify_batch")
    checks = calls("crypto.verify") + batch_items
    entries["crypto.verify.calls_per_op"] = (checks / ops, ops)
    entries["crypto.verify.batch_share"] = (share(batch_items, checks),
                                            checks)
    codec_calls = calls("crypto.encoding.encode") \
        + calls("crypto.encoding.decode")
    entries["crypto.encoding.calls_per_op"] = (codec_calls / ops, ops)
    entries["pubsub.subscriptions_per_op"] = (
        calls("pubsub.subscribe") / ops, ops)

    root = totals.get(ROOT_LAYER)
    root_seconds = tracer.root_seconds()
    entries["trace.attributed_share"] = (
        1.0 - share(root.self_seconds if root else 0.0, root_seconds),
        root.calls if root else 0)
    entries["trace.overhead_share"] = (
        share(traced_seconds_per_op - bare_seconds_per_op,
              bare_seconds_per_op), ops)
    entries["trace.missing_targets"] = (len(tracer.missing),
                                        len(tracer.targets))
    entries["host.speed_factor"] = (speed, ops)
    return entries
