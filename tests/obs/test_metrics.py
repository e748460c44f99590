"""Metrics registry semantics: instruments, identity, exports."""

import gc
import json
import math

import pytest

from repro import obs
from repro.core import SimClock
from repro.obs.export import (
    parse_prometheus_text,
    sample_total,
    to_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    next_instance,
)
from repro.workloads import topology
from repro.workloads.scenarios import deploy_coalition


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_defaults_to_one(self, registry):
        c = registry.counter("x_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_get_or_create_identity(self, registry):
        a = registry.counter("x_total", role="a")
        again = registry.counter("x_total", role="a")
        other = registry.counter("x_total", role="b")
        assert a is again
        assert a is not other

    def test_label_order_is_irrelevant(self, registry):
        a = registry.counter("x_total", a="1", b="2")
        b = registry.counter("x_total", b="2", a="1")
        assert a is b

    def test_total_sums_across_label_sets(self, registry):
        registry.counter("x_total", k="a").inc(2)
        registry.counter("x_total", k="b").inc(3)
        registry.counter("y_total").inc(10)
        assert registry.total("x_total") == 5

    def test_instance_labels_keep_series_distinct(self, registry):
        a = registry.counter("x_total", address="w", instance=next_instance())
        b = registry.counter("x_total", address="w", instance=next_instance())
        a.inc()
        assert b.value == 0
        assert registry.total("x_total") == 1


class TestSeriesLifetime:
    """A per-instance series lives as long as its owner; then the
    registry folds it into one without ``instance``."""

    def test_dropped_wallets_and_engines_take_their_series(self):
        workload = topology.make_ring_coalition(3, seed=61)
        with obs.scoped() as scope:
            registry = scope.registry

            def run():
                dep = deploy_coalition(workload)
                try:
                    assert dep.authorize() is not None
                finally:
                    dep.close()

            def series():
                gc.collect()
                return (len(registry.counters()), len(registry.gauges()),
                        len(registry.histograms()))

            # The first run makes the process-wide series (drbac_rpc_*).
            run()
            baseline = series()
            live = deploy_coalition(workload)
            assert live.authorize() is not None
            def info():
                # The wallet's own tallies; its info also carries the
                # process-wide memo's and codec's, which every run moves.
                cache = live.server.wallet.cache_info()
                del cache["crypto_memo"], cache["codec"]
                return (live.engine.gem_info(),
                        live.engine.discovery_info(), cache)

            before = info()
            held = series()
            assert held[0] > baseline[0] and held[2] > baseline[2]
            for _ in range(100):
                run()
            assert series() == held
            assert info() == before
            live.close()
            del live
            assert series() == baseline

    def test_a_dead_sets_series_fold_into_its_labels(self):
        with obs.scoped() as scope:
            registry = scope.registry
            for _ in range(3):
                counters = obs.CounterSet("x", ("hits",), address="a")
                counters.c_hits.inc(2)
                counters.histogram("x_seconds").observe(0.1)
                del counters
                gc.collect()
            assert registry.total("x_hits_total") == 6
            snapshot = registry.snapshot()
            assert [(m["labels"], m["value"])
                    for m in snapshot["counters"]] == [({"address": "a"}, 6)]
            assert [(h["labels"], h["count"])
                    for h in snapshot["histograms"]] == [({"address": "a"}, 3)]

    def test_a_series_without_an_instance_stays(self, registry):
        registry.counter("x_total", method="m").inc()
        registry.histogram("x_seconds", method="m").observe(0.1)
        gc.collect()
        assert registry.total("x_total") == 1
        assert [h.count for h in registry.histograms()] == [1]


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(5.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 4.0


class TestHistogram:
    def test_le_bounds_are_inclusive(self):
        h = Histogram("h", (), buckets=(0.1, 1.0))
        h.observe(0.1)  # exactly on a bound: belongs to le=0.1
        assert h.cumulative() == [(0.1, 1), (1.0, 1), (math.inf, 1)]

    def test_overflow_bucket(self):
        h = Histogram("h", (), buckets=(0.1, 1.0))
        h.observe(50.0)
        assert h.cumulative() == [(0.1, 0), (1.0, 0), (math.inf, 1)]

    def test_cumulative_is_monotone(self, registry):
        h = registry.histogram("h_seconds")
        for value in (1e-6, 1e-4, 0.003, 0.2, 7.0):
            h.observe(value)
        cumulative = [n for _, n in h.cumulative()]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == h.count == 5
        assert h.sum == pytest.approx(sum((1e-6, 1e-4, 0.003, 0.2, 7.0)))
        assert h.bounds == tuple(DEFAULT_BUCKETS)


class TestReset:
    def test_reset_zeroes_in_place(self, registry):
        c = registry.counter("x_total")
        h = registry.histogram("h_seconds")
        c.inc(3)
        h.observe(0.5)
        registry.reset()
        # Same objects, zeroed: live stats views stay coherent.
        assert registry.counter("x_total") is c
        assert c.value == 0
        assert h.count == 0 and h.sum == 0.0


class TestClock:
    def test_virtual_time_tracks_sim_clock(self, registry):
        assert registry.virtual_time() is None
        clock = SimClock()
        registry.set_clock(clock)
        clock.advance(42.0)
        assert registry.virtual_time() == 42.0
        assert registry.snapshot()["virtual_time"] == 42.0


class TestSnapshot:
    def test_snapshot_is_json_ready(self, registry):
        registry.counter("x_total", k="a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds").observe(0.01)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counters"] == [
            {"name": "x_total", "labels": {"k": "a"}, "value": 2}]
        assert snap["gauges"][0]["value"] == 1.5
        hist = snap["histograms"][0]
        assert hist["count"] == 1
        assert hist["buckets"][-1][1] == 1


class TestPrometheusRoundTrip:
    def test_counters_and_gauges_round_trip(self, registry):
        registry.counter("x_total", k="a", i="1").inc(2)
        registry.counter("x_total", k="b", i="2").inc(3)
        registry.gauge("g").set(1.5)
        samples = parse_prometheus_text(to_prometheus(registry))
        assert ("x_total", {"k": "a", "i": "1"}, 2.0) in samples
        assert sample_total(samples, "x_total") == 5.0
        assert sample_total(samples, "g") == 1.5

    def test_histogram_exposition(self, registry):
        registry.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.05)
        samples = parse_prometheus_text(to_prometheus(registry))
        buckets = {labels["le"]: value for name, labels, value in samples
                   if name == "h_seconds_bucket"}
        assert buckets == {"0.1": 1.0, "1": 1.0, "+Inf": 1.0}
        assert sample_total(samples, "h_seconds_count") == 1.0

    def test_label_values_are_escaped(self, registry):
        registry.counter("x_total", path='a"b\\c').inc()
        samples = parse_prometheus_text(to_prometheus(registry))
        assert samples[0][1]["path"] == 'a"b\\c'

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("x_total{unclosed 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all\n")
