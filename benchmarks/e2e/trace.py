"""Spans recorded from outside, around the public entry points of each
``src/repro`` module.

Nothing in ``src/`` is edited: :meth:`Tracer.install` replaces the
functions named in :data:`TARGETS` with timing wrappers -- methods on
their class, module functions in every ``repro.*`` module that imported
them by name -- and :meth:`Tracer.uninstall` puts every original object
back.  A span is ``[name, start, end, parent, weight]``; a layer's self
time is its spans' duration minus what their child spans cover, so the
layers of one request add up to the request and nothing is counted
twice.  A target that no longer exists is listed in ``missing`` and its
layer reports ``None``: a refactor must not crash the benchmark.

The benchmark's own op spans (``Tracer.root``) are the roots; whatever
time a root does not spend under a wrapped function is unattributed,
and ``attributed_share`` is how much of the roots the wrappers explain.
The replays are single threaded, so one span stack is enough.
"""

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

ROOT_LAYER = "op"


class Target(NamedTuple):
    layer: str                  # ledger key; README's per-layer table
    module: str
    owner: Optional[str]        # class name; None for a module function
    attr: str
    # Optional work count for one call: (args, result) -> int.
    weight: Optional[Callable] = None


def _batch_items(args, _result) -> int:
    return len(args[0]) if args else 0


def _deliveries(_args, result) -> int:
    return result if isinstance(result, int) else 0


TARGETS: Tuple[Target, ...] = (
    Target("service.transport.encode", "repro.service.transport", None,
           "encode_frame"),
    Target("service.transport.decode", "repro.service.transport",
           "FrameDecoder", "feed"),
    Target("service.router", "repro.service.router", "Router", "submit"),
    Target("service.ring", "repro.service.ring", "ConsistentHashRing",
           "lookup"),
    Target("service.shard", "repro.service.shard", "ShardRuntime", "handle"),
    Target("crypto.verify", "repro.crypto.keys", "PublicKey", "verify"),
    Target("crypto.verify_batch", "repro.crypto.keys", None, "verify_batch",
           _batch_items),
    Target("crypto.sign", "repro.crypto.keys", "KeyPair", "sign"),
    Target("crypto.encoding.encode", "repro.crypto.encoding", None,
           "canonical_encode"),
    Target("crypto.encoding.decode", "repro.crypto.encoding", None,
           "canonical_decode"),
    Target("core.delegation.decode", "repro.core.delegation", "Delegation",
           "from_dict"),
    Target("core.delegation.decode", "repro.core.delegation", "Revocation",
           "from_dict"),
    Target("core.proof.encode", "repro.core.proof", "Proof", "to_dict"),
    Target("core.proof.validate", "repro.core.proof", None,
           "validate_proof"),
    Target("core.proof.validate", "repro.core.proof", None,
           "validate_proofs"),
    Target("wallet.publish", "repro.wallet.wallet", "Wallet", "publish"),
    Target("wallet.publish", "repro.wallet.wallet", "Wallet",
           "publish_many"),
    Target("wallet.authorize", "repro.wallet.wallet", "Wallet", "authorize"),
    Target("wallet.revoke", "repro.wallet.wallet", "Wallet",
           "publish_revocation"),
    Target("wallet.revoke", "repro.wallet.wallet", "Wallet", "revoke"),
    Target("wallet.query", "repro.wallet.wallet", "Wallet", "query_direct"),
    Target("wallet.query", "repro.wallet.wallet", "Wallet", "query_subject"),
    Target("wallet.query", "repro.wallet.wallet", "Wallet", "query_object"),
    Target("graph.search", "repro.graph.search", None, "direct_query"),
    Target("graph.search", "repro.graph.search", None, "subject_query"),
    Target("graph.search", "repro.graph.search", None, "object_query"),
    Target("graph.proof_cache", "repro.graph.proof_cache", "ProofCache",
           "lookup"),
    Target("graph.proof_cache", "repro.graph.proof_cache", "ProofCache",
           "store"),
    Target("graph.proof_cache", "repro.graph.proof_cache", "ProofCache",
           "on_invalidate"),
    Target("graph.proof_cache", "repro.graph.proof_cache", "ProofCache",
           "on_publish"),
    Target("graph.reach_index", "repro.graph.reach_index",
           "ReachabilityIndex", "add_edge"),
    Target("graph.reach_index", "repro.graph.reach_index",
           "ReachabilityIndex", "refresh"),
    Target("graph.reach_index", "repro.graph.reach_index",
           "ReachabilityIndex", "can_reach"),
    Target("graph.reach_index", "repro.graph.reach_index",
           "ReachabilityIndex", "closure_pairs"),
    Target("discovery.engine", "repro.discovery.engine", "DiscoveryEngine",
           "discover"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_direct_query"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_subject_query"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_object_query"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_discover_batch"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_subscribe"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_subscribe_batch"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_gem_eval"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_prove_role"),
    Target("discovery.resolver", "repro.discovery.resolver", "WalletServer",
           "remote_confirm"),
    *(Target("discovery.wire", "repro.discovery.wire", None, name)
      for name in ("proof_to_wire", "proof_from_wire", "proofs_to_wire",
                   "proofs_from_wire", "delegation_to_wire",
                   "delegation_from_wire", "proof_to_wire_session",
                   "proof_from_wire_session")),
    Target("net.switchboard", "repro.net.switchboard", "Switchboard",
           "connect"),
    Target("net.switchboard", "repro.net.switchboard", "Switchboard",
           "session_to"),
    Target("net.switchboard", "repro.net.switchboard", "Channel", "send"),
    Target("net.rpc", "repro.net.rpc", "RpcNode", "call"),
    Target("net.rpc", "repro.net.rpc", "RpcNode", "call_batch"),
    Target("net.rpc", "repro.net.rpc", "RpcNode", "notify"),
    Target("net.transport", "repro.net.transport", "Network", "send"),
    Target("pubsub.subscribe", "repro.pubsub.subscriptions",
           "SubscriptionHub", "subscribe"),
    Target("pubsub.publish", "repro.pubsub.subscriptions",
           "SubscriptionHub", "publish", _deliveries),
    Target("monitor", "repro.wallet.wallet", "Wallet", "monitor"),
    Target("monitor", "repro.monitor.proof_monitor", "ProofMonitor",
           "revalidate"),
)


class LayerTotals(NamedTuple):
    calls: int
    self_seconds: float
    weight: int


@contextmanager
def _no_span():
    yield


class Tracer:
    """Install timing wrappers, collect spans, attribute self time."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names: List[str] = []              # span name table
        self.layers: List[str] = []             # layer of each name
        self._name_ids: Dict[str, int] = {}
        self.spans: List[list] = []             # [name, start, end, parent, weight]
        self._stack: List[int] = []
        self.active = False
        self.installed = False
        self.missing: List[str] = []
        self._class_patches: List[Tuple[type, str, object]] = []
        self._function_patches: List[Tuple[Callable, Callable]] = []

    # -- span recording -------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return name_id

    def _wrap(self, name_id: int, function: Callable,
              weigh: Optional[Callable], skip_first: bool) -> Callable:
        """The timing wrapper for ``function``; ``skip_first`` drops
        ``self``/``cls`` from what ``weigh`` sees."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            span = [name_id, perf_counter(), 0.0,
                    stack[-1] if stack else -1, 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
                if weigh is not None:
                    span[4] = weigh(args[1:] if skip_first else args, result)
                return result
            finally:
                stack.pop()
                span[2] = perf_counter()

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", "wrapped")
        return wrapper

    @contextmanager
    def _root_span(self, name: str):
        name_id = self._name_id(f"{ROOT_LAYER}.{name}", ROOT_LAYER)
        span = [name_id, perf_counter(), 0.0, -1, 1]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._stack.pop()
            span[2] = perf_counter()

    def root(self, name: str):
        """Context manager for one benchmark op; a no-op (and no span)
        unless the wrappers are installed."""
        return self._root_span(name) if self.installed else _no_span()

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            label = f"{target.module}:" + (
                f"{target.owner}.{target.attr}" if target.owner
                else target.attr)
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(label)
                continue
            if target.owner is None:
                self._patch_function(module, target, label)
            else:
                self._patch_method(module, target, label)
        self._rebind_modules({id(original): wrapper for original, wrapper
                              in self._function_patches})
        self.installed = True

    def _patch_method(self, module, target: Target, label: str) -> None:
        owner = getattr(module, target.owner, None)
        raw = vars(owner).get(target.attr) if isinstance(owner, type) \
            else None
        if raw is None:
            self.missing.append(label)
            return
        name_id = self._name_id(f"{target.owner}.{target.attr}",
                                target.layer)
        if isinstance(raw, (staticmethod, classmethod)):
            patched = type(raw)(self._wrap(
                name_id, raw.__func__, target.weight,
                skip_first=isinstance(raw, classmethod)))
        else:
            patched = self._wrap(name_id, raw, target.weight,
                                 skip_first=True)
        setattr(owner, target.attr, patched)
        self._class_patches.append((owner, target.attr, raw))

    def _patch_function(self, module, target: Target, label: str) -> None:
        original = vars(module).get(target.attr)
        if not callable(original):
            self.missing.append(label)
            return
        name_id = self._name_id(target.attr, target.layer)
        self._function_patches.append(
            (original, self._wrap(name_id, original, target.weight,
                                  skip_first=False)))

    @staticmethod
    def _rebind_modules(replacements: Dict[int, Callable]) -> None:
        """In every loaded ``repro`` module, swap each global that *is*
        a key object for its replacement (``from x import f`` copies)."""
        if not replacements:
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                replacement = replacements.get(id(value))
                if replacement is not None:
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, raw in reversed(self._class_patches):
            setattr(owner, attr, raw)
        # Also reaches modules first imported while the wrappers were in.
        self._rebind_modules({id(wrapper): original for original, wrapper
                              in self._function_patches})
        self._class_patches.clear()
        self._function_patches.clear()
        self.installed = False
        self.active = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # -- the ledger -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, LayerTotals]:
        """Per layer: calls, self seconds, summed weights."""
        names = len(self.names)
        calls, self_s, weight = [0] * names, [0.0] * names, [0] * names
        spans = self.spans
        for name_id, start, end, parent, span_weight in spans:
            duration = end - start
            calls[name_id] += 1
            self_s[name_id] += duration
            weight[name_id] += span_weight
            if parent >= 0:
                self_s[spans[parent][0]] -= duration
        totals: Dict[str, LayerTotals] = {}
        for name_id, layer in enumerate(self.layers):
            seen = totals.get(layer, LayerTotals(0, 0.0, 0))
            totals[layer] = LayerTotals(seen.calls + calls[name_id],
                                        seen.self_seconds + self_s[name_id],
                                        seen.weight + weight[name_id])
        return totals

    def root_seconds(self) -> float:
        """Summed duration of the op spans."""
        return sum(end - start for name_id, start, end, parent, _w
                   in self.spans if parent < 0)

    def weight_under(self, root_name: str, layer: str) -> int:
        """Summed weights of ``layer`` spans whose root op is
        ``op.<root_name>``."""
        wanted = self._name_ids.get(f"{ROOT_LAYER}.{root_name}")
        roots: List[int] = []
        total = 0
        for name_id, _start, _end, parent, weight in self.spans:
            root = name_id if parent < 0 else roots[parent]
            roots.append(root)
            if root == wanted and self.layers[name_id] == layer:
                total += weight
        return total

    def known_layers(self) -> set:
        """Layers with at least one installed target."""
        return set(self.layers) - {ROOT_LAYER}

    def dump(self, max_roots: int = 50) -> dict:
        """The raw spans of the first ``max_roots`` ops, microseconds
        from the first span's start."""
        rows: List[list] = []
        roots_seen = 0
        origin = self.spans[0][1] if self.spans else 0.0
        for name_id, start, end, parent, weight in self.spans:
            if parent < 0:
                roots_seen += 1
                if roots_seen > max_roots:
                    break
            rows.append([name_id, round((start - origin) * 1e6, 1),
                         round((end - origin) * 1e6, 1), parent, weight])
        return {"columns": ["name", "start_us", "end_us", "parent",
                            "weight"],
                "names": list(self.names), "rows": rows,
                "ops_dumped": min(roots_seen, max_roots),
                "spans_recorded": len(self.spans)}
