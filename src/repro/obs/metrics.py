"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the single source of truth for every tally the repo
keeps.  The pre-existing ad-hoc stats surfaces -- ``Wallet.cache_info()``,
``discovery.DiscoveryStats``, ``crypto.verify_cache.cache_info()``, the
Switchboard session counters -- are *views* over registry instruments:
each owner declares its names in one :class:`CounterSet`, increments the
live ``Counter`` objects it hands out and reads them back under the same
attribute names as before, so callers are unchanged while ``drbac
metrics`` can dump one coherent picture.

Design constraints (see docs/OBSERVABILITY.md):

* **Dependency-free and cheap.**  ``Counter.inc`` is one attribute
  add; the hot paths migrated here paid exactly that cost before the
  registry existed (``self.hits += 1``), so migration is overhead-free.
* **Instruments are identified by (name, labels).**  ``counter(name,
  **labels)`` is get-or-create: two calls with the same identity return
  the *same* object.  Per-instance stats (one wallet's proof cache vs.
  another's) get a unique ``instance`` label so their series never
  merge.
* **Sim-clock aware.**  ``set_clock`` points the registry at the run's
  :class:`~repro.core.clock.Clock`; ``snapshot()`` then stamps virtual
  time, so discrete-event benchmarks report the timeline the events
  actually ran on.

Counters always count -- the ``DRBAC_OBS`` switch (see
``repro.obs``) gates *tracing*, not metrics, because the legacy stats
APIs must keep returning live numbers regardless of the switch.
"""

import itertools
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]

# Fixed latency buckets (seconds).  Chosen to resolve the paper's
# regimes: warm cache hits (micro-seconds), local cold searches
# (sub-millisecond), distributed discovery round-trips (milliseconds).
DEFAULT_BUCKETS = (
    0.000_01, 0.000_025, 0.000_05, 0.000_1, 0.000_25, 0.000_5,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

_instance_ids = itertools.count(1)


def next_instance() -> str:
    """A process-unique label value for per-instance metric series.

    Addresses repeat across tests and simulated networks (every test
    coalition has a ``wallet.bigISP.com``); a per-object serial keeps
    one object's counters from aliasing another's.
    """
    return str(next(_instance_ids))


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically *incremented* tally (resettable for test runs)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class CounterSet:
    """The tallies one object keeps, declared as a tuple of names.

    ``CounterSet("drbac_proof_cache", ("hits", "misses"))`` stands for
    the series ``drbac_proof_cache_<name>_total{instance=N, ...}`` in
    the registry that is current at construction (so a set built
    inside ``obs.scoped()`` tallies into that scope). ``stats.c_hits``
    is the live :class:`Counter` -- hot paths keep
    ``stats.c_hits.inc()``, one attribute load once touched -- and
    ``stats.hits`` its value.

    A series is registered the first time its ``c_<name>`` is touched:
    every wallet, hub and wallet server owns a set, most never move
    most of their names, and a registered series lives as long as the
    process does.
    """

    def __init__(self, prefix: str, names: Iterable[str],
                 **labels: str) -> None:
        from repro import obs  # the scope-aware registry lives above us
        self._prefix = prefix
        self._names = tuple(names)
        self._registry = obs.registry()
        self.labels = dict(labels, instance=next_instance())
        self._label_key = _label_key(self.labels)

    def __getattr__(self, attr: str):
        # Reached only for what is not an instance attribute (yet).
        if attr.startswith("c_") and attr[2:] in self._names:
            counter = self.__dict__[attr] = self._registry.counter_at(
                (f"{self._prefix}_{attr[2:]}_total", self._label_key))
            return counter
        if not attr.startswith("_") and attr in self._names:
            counter = self.__dict__.get("c_" + attr)
            return counter.value if counter is not None else 0
        raise AttributeError(attr)

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._names}

    def reset(self) -> None:
        for name in self._names:
            counter = self.__dict__.get("c_" + name)
            if counter is not None:
                counter.reset()


class Gauge:
    """A point-in-time value (cache sizes, open sessions)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket distribution (cumulative counts, Prometheus style)."""

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelKey,
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # counts[i] observations fell in (bounds[i-1], bounds[i]];
        # counts[-1] is the +Inf overflow bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left keeps ``le`` inclusive (Prometheus bucket rule).
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``[(le, cumulative_count), ...]`` ending with ``(inf, count)``."""
        out = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._clock = None  # Optional[repro.core.clock.Clock]

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self.counter_at((name, _label_key(labels)))

    def counter_at(self, key: MetricKey) -> Counter:
        """:meth:`counter` for a caller that already holds the key."""
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(*key)
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, key[1], buckets)
        return instrument

    # -- clock --------------------------------------------------------------

    def set_clock(self, clock) -> None:
        """Adopt the run's clock; snapshots then report virtual time."""
        self._clock = clock

    def virtual_time(self) -> Optional[float]:
        return self._clock.now() if self._clock is not None else None

    # -- aggregation ---------------------------------------------------------

    def counters(self) -> List[Counter]:
        return list(self._counters.values())

    def gauges(self) -> List[Gauge]:
        return list(self._gauges.values())

    def histograms(self) -> List[Histogram]:
        return list(self._histograms.values())

    def total(self, name: str) -> float:
        """Sum of one counter name across all label sets."""
        return sum(c.value for key, c in self._counters.items()
                   if key[0] == name)

    def snapshot(self) -> dict:
        """A JSON-ready dump of every instrument (benchmark schema v1)."""

        def series(key: MetricKey) -> dict:
            return dict(key[1])

        counters = [
            {"name": key[0], "labels": series(key), "value": c.value}
            for key, c in sorted(self._counters.items())
        ]
        gauges = [
            {"name": key[0], "labels": series(key), "value": g.value}
            for key, g in sorted(self._gauges.items())
        ]
        histograms = [
            {
                "name": key[0], "labels": series(key),
                "sum": h.sum, "count": h.count,
                "buckets": [[le, n] for le, n in h.cumulative()],
            }
            for key, h in sorted(self._histograms.items())
        ]
        return {
            "virtual_time": self.virtual_time(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every instrument *in place* (live stats objects keep
        their references, so per-instance views reset coherently)."""
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for h in self._histograms.values():
            h.reset()
