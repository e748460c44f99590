"""Addressed message passing with full traffic accounting.

Every inter-wallet interaction in the distributed experiments flows
through one :class:`Network`, which counts messages and payload bytes per
(source, destination, topic). Those counters *are* the measurements of
the F2 (distributed proof construction) and E2 (revocation economics)
benchmarks, standing in for the wire traffic of the authors' testbed.

Delivery is synchronous and deterministic. Latency is modeled as
bookkeeping: each delivered message adds the link latency to
``total_latency``, the end-to-end virtual latency of a sequential
protocol; the simulated clock is left alone.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.clock import SimClock
from repro.crypto.encoding import canonical_encode

Handler = Callable[[str, str, Any], Optional[Any]]


class NetworkError(Exception):
    """Raised on sends to unknown or unreachable addresses."""


@dataclass
class TrafficStats:
    """Counters for one traffic class (or the global totals)."""

    messages: int = 0
    bytes: int = 0

    def record(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


class Network:
    """A registry of addressable nodes plus the counters between them."""

    def __init__(self, clock: Optional[SimClock] = None,
                 default_latency: float = 0.0) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.default_latency = default_latency
        self._handlers: Dict[str, Handler] = {}
        self._latency: Dict[Tuple[str, str], float] = {}
        self._partitioned: Set[Tuple[str, str]] = set()
        self.totals = TrafficStats()
        self.by_link: Dict[Tuple[str, str], TrafficStats] = {}
        self.by_topic: Dict[str, TrafficStats] = {}
        self.by_link_topic: Dict[Tuple[str, str, str], TrafficStats] = {}
        self.total_latency = 0.0

    # -- topology -----------------------------------------------------------

    def register(self, address: str, handler: Handler) -> None:
        """Attach a node; ``handler(src, topic, payload) -> reply``."""
        if not address:
            raise NetworkError("nodes need a non-empty address")
        if address in self._handlers:
            raise NetworkError(f"address {address!r} already registered")
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        self._handlers.pop(address, None)

    def set_latency(self, src: str, dst: str, latency: float) -> None:
        """Directional per-link latency override."""
        if latency < 0:
            raise NetworkError("latency cannot be negative")
        self._latency[(src, dst)] = latency

    def partition(self, src: str, dst: str,
                  bidirectional: bool = True) -> None:
        """Cut the link; sends raise :class:`NetworkError`."""
        self._partitioned.add((src, dst))
        if bidirectional:
            self._partitioned.add((dst, src))

    def heal(self, src: str, dst: str, bidirectional: bool = True) -> None:
        self._partitioned.discard((src, dst))
        if bidirectional:
            self._partitioned.discard((dst, src))

    def is_reachable(self, src: str, dst: str) -> bool:
        return dst in self._handlers and (src, dst) not in self._partitioned

    # -- delivery ---------------------------------------------------------

    def send(self, src: str, dst: str, topic: str,
             payload: Any) -> Optional[Any]:
        """Deliver one message; returns the handler's reply (or None).

        The payload must be canonically encodable (its encoded size is
        what the byte counters record), keeping experiments honest about
        what actually crosses the simulated wire.
        """
        if dst not in self._handlers:
            raise NetworkError(f"unknown destination {dst!r}")
        if (src, dst) in self._partitioned:
            raise NetworkError(f"link {src!r} -> {dst!r} is partitioned")
        size = len(canonical_encode(payload))
        self.totals.record(size)
        self.by_link.setdefault((src, dst), TrafficStats()).record(size)
        self.by_topic.setdefault(topic, TrafficStats()).record(size)
        self.by_link_topic.setdefault(
            (src, dst, topic), TrafficStats()).record(size)
        latency = self._latency.get((src, dst), self.default_latency)
        self.total_latency += latency
        return self._handlers[dst](src, topic, payload)

    # -- accounting ------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """A flat summary used by benchmark reports."""
        return {
            "messages": self.totals.messages,
            "bytes": self.totals.bytes,
        }

    def reset_counters(self) -> None:
        self.totals = TrafficStats()
        self.by_link.clear()
        self.by_topic.clear()
        self.by_link_topic.clear()
        self.total_latency = 0.0

    def topic_summary(self, prefix: str = "") -> Dict[str, Dict[str, int]]:
        """Aggregate per-topic counters whose topic starts with ``prefix``.

        Strips the prefix from the keys, so ``topic_summary("rpc:")``
        gives ``{"subject_query": {"messages": ..., "bytes": ...}, ...}``
        -- the shape benchmark reports and ``--timing`` output use.
        """
        summary: Dict[str, Dict[str, int]] = {}
        for topic, stats in self.by_topic.items():
            if not topic.startswith(prefix):
                continue
            entry = summary.setdefault(topic[len(prefix):],
                                       {"messages": 0, "bytes": 0})
            entry["messages"] += stats.messages
            entry["bytes"] += stats.bytes
        return summary

    def messages_from(self, src: str, topic: str) -> int:
        """Messages on ``topic`` originated by ``src`` (any destination)."""
        return sum(
            stats.messages
            for (source, _dst, t), stats in self.by_link_topic.items()
            if source == src and t == topic
        )

    def addresses(self):
        return list(self._handlers)
