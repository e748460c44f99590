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
  the *same* object, and the registry keeps it for the life of the
  process.  Per-instance stats (one wallet's proof cache vs.
  another's) are a :class:`CounterSet`, whose series carry a unique
  ``instance`` label so they never merge while the set lives; once it
  has died, the registry folds them into its own series of the same
  name and labels bar ``instance``, so a process that builds and drops
  owners keeps a bounded number of series and every total.
* **Sim-clock aware.**  ``set_clock`` points the registry at the run's
  :class:`~repro.core.clock.Clock`; ``snapshot()`` then stamps virtual
  time, so discrete-event benchmarks report the timeline the events
  actually ran on.

Counters always count -- the ``DRBAC_OBS`` switch (see
``repro.obs``) gates *tracing*, not metrics, because the legacy stats
APIs must keep returning live numbers regardless of the switch.
"""

import itertools
import weakref
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple, Union

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

    A series exists from the first time its ``c_<name>`` is touched:
    every wallet, hub and wallet server owns a set, most never move
    most of their names. The set owns its series, :meth:`histogram`'s
    too; the registry reads them while the set lives and folds them
    into its own once the set has died (:meth:`MetricsRegistry.adopt`).
    """

    def __init__(self, prefix: str, names: Iterable[str],
                 **labels: str) -> None:
        from repro import obs  # the scope-aware registry lives above us
        self._prefix = prefix
        self._names = tuple(names)
        self.labels = dict(labels, instance=next_instance())
        self._label_key = _label_key(self.labels)
        self._series: List["Instrument"] = []
        obs.registry().adopt(self, self._series, _label_key(labels))

    def __getattr__(self, attr: str):
        # Reached only for what is not an instance attribute (yet).
        if attr.startswith("c_") and attr[2:] in self._names:
            counter = self.__dict__[attr] = Counter(
                f"{self._prefix}_{attr[2:]}_total", self._label_key)
            self._series.append(counter)
            return counter
        if not attr.startswith("_") and attr in self._names:
            counter = self.__dict__.get("c_" + attr)
            return counter.value if counter is not None else 0
        raise AttributeError(attr)

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._names}

    def histogram(self, name: str) -> "Histogram":
        """A histogram labelled like this set's counters, and owned by
        the set as they are."""
        histogram = Histogram(name, self._label_key)
        self._series.append(histogram)
        return histogram

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

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations, bucket by bucket."""
        if other.bounds != self.bounds:
            raise ValueError(f"{self.name}: histograms with other buckets")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0


Instrument = Union[Counter, Histogram]


class MetricsRegistry:
    """Get-or-create instrument store keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        # The series of each CounterSet built under this registry, and
        # their labels bar ``instance``, by a weak reference to it; the
        # references of the sets that died since the last fold.
        self._live: Dict["weakref.ref[CounterSet]",
                         Tuple[List[Instrument], LabelKey]] = {}
        self._dead: List["weakref.ref[CounterSet]"] = []
        self._clock = None  # Optional[repro.core.clock.Clock]

    def adopt(self, owner: CounterSet, series: List[Instrument],
              labels: LabelKey) -> None:
        """Report ``series`` while ``owner`` lives; then fold them into
        this registry's own series of the same names and ``labels``."""
        self._fold()
        self._live[weakref.ref(owner, self._dead.append)] = (series, labels)

    def _fold(self) -> None:
        """Fold the series of the sets that died in: their lines leave
        the dump, and their counts stay in every total. Run when a set
        is built and before the series are read, not when one dies --
        which is whenever the collector gets to it."""
        while self._dead:
            series, labels = self._live.pop(self._dead.pop())
            for instrument in series:
                key = (instrument.name, labels)
                if instrument.__class__ is Counter:
                    into = self._counters.get(key)
                    if into is None:
                        into = self._counters[key] = Counter(*key)
                    into.value += instrument.value
                else:
                    into = self._histograms.get(key)
                    if into is None:
                        into = self._histograms[key] = Histogram(
                            *key, instrument.bounds)
                    into.merge(instrument)

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
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

    def _owned(self, kind: type) -> List[Instrument]:
        self._fold()
        return [instrument for series, _labels in list(self._live.values())
                for instrument in series if instrument.__class__ is kind]

    def counters(self) -> List[Counter]:
        owned = self._owned(Counter)     # folds first
        return [*self._counters.values(), *owned]

    def gauges(self) -> List[Gauge]:
        return list(self._gauges.values())

    def histograms(self) -> List[Histogram]:
        owned = self._owned(Histogram)
        return [*self._histograms.values(), *owned]

    def total(self, name: str) -> float:
        """Sum of one counter name across all label sets."""
        return sum(c.value for c in self.counters() if c.name == name)

    def snapshot(self) -> dict:
        """A JSON-ready dump of every instrument (benchmark schema v1)."""

        def ordered(instruments: list) -> list:
            return sorted(instruments, key=lambda i: (i.name, i.labels))

        counters = [
            {"name": c.name, "labels": dict(c.labels), "value": c.value}
            for c in ordered(self.counters())
        ]
        gauges = [
            {"name": g.name, "labels": dict(g.labels), "value": g.value}
            for g in ordered(self.gauges())
        ]
        histograms = [
            {
                "name": h.name, "labels": dict(h.labels),
                "sum": h.sum, "count": h.count,
                "buckets": [[le, n] for le, n in h.cumulative()],
            }
            for h in ordered(self.histograms())
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
        for instrument in [*self.counters(), *self.gauges(),
                           *self.histograms()]:
            instrument.reset()
