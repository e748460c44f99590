"""End-to-end instrumentation: one distributed authorize, one tree.

The acceptance claim of the observability layer: a single
``Wallet.authorize`` over distributed discovery yields ONE connected
span tree covering the discovery run, the goals it sends, the homes'
searches on the far side, the insertions and the signature
verifications -- with the metrics registry agreeing about what
happened.
"""

import pytest

from repro import obs
from repro.core import SimClock
from repro.crypto import verify_cache
from repro.wallet.wallet import Wallet
from repro.workloads import build_distributed_case_study
from repro.workloads.topology import make_coalition


def _span_index(spans):
    return {s.span_id: s for s in spans}


@pytest.fixture()
def authorized_case():
    """Fresh case study, traced end to end through wallet.authorize."""
    obs.reset()
    with obs.enabled_ctx():
        d = build_distributed_case_study(seed=11)
        obs.use_clock(d.clock)
        d.server.wallet.publish(d.case.d1_maria_member)
        # Drop setup-phase counts and spans (topology construction
        # completes its own handshakes): everything below is the
        # authorize alone.  reset() zeroes instruments in place, so
        # the live stats objects stay coherent.
        obs.reset()
        # A fresh signature memo: what the build verified while
        # publishing must be verified again by the wallet that now
        # receives it over the wire.
        with verify_cache.scoped():
            proof = d.server.wallet.authorize(
                d.case.maria.entity, d.case.airnet_access)
    assert proof is not None
    return d, obs.tracer().finished()


class TestSpanTree:
    def test_single_connected_tree(self, authorized_case):
        _, spans = authorized_case
        assert spans, "authorize produced no spans"
        by_id = _span_index(spans)
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["wallet.authorize"]
        # Connected: every span reaches the root through live parents.
        root = roots[0]
        for span in spans:
            node = span
            while node.parent_id is not None:
                assert node.parent_id in by_id, \
                    f"{node.name} has a dangling parent"
                node = by_id[node.parent_id]
            assert node is root
        assert {s.trace_id for s in spans} == {root.trace_id}

    def test_tree_covers_the_distributed_stack(self, authorized_case):
        _, spans = authorized_case
        names = {s.name for s in spans}
        # The shipped credentials' signatures are checked together, in
        # one batch, before anything is published.
        for required in ("wallet.authorize", "discovery.discover",
                         "discovery.gem_eval", "wallet.search",
                         "wallet.publish", "crypto.verify_batch"):
            assert required in names, f"missing {required} span"

    def test_intervals_nest(self, authorized_case):
        _, spans = authorized_case
        by_id = _span_index(spans)
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start <= span.start <= span.end <= parent.end

    def test_virtual_times_ride_the_sim_clock(self, authorized_case):
        d, spans = authorized_case
        assert all(s.vstart is not None for s in spans)
        root = [s for s in spans if s.parent_id is None][0]
        assert root.vend == d.clock.now()

    def test_authorize_span_attrs(self, authorized_case):
        _, spans = authorized_case
        root = [s for s in spans if s.name == "wallet.authorize"][0]
        assert root.attrs["result"] == "granted"
        assert root.attrs["source"] == "discovery"
        discover = [s for s in spans
                    if s.name == "discovery.discover"][0]
        assert discover.attrs["local_hit"] is False
        assert discover.attrs["wire_messages"] > 0


class TestMetricsAgree:
    def test_counters_reflect_the_run(self, authorized_case):
        registry = obs.registry()
        assert registry.total("drbac_wallet_authorizations_total") == 1
        assert registry.total("drbac_discovery_runs_total") == 1
        assert registry.total("drbac_discovery_local_hits_total") == 0
        # One goal out and one answer back per home, nothing else: no
        # query or subscribe round trips, no handshakes.
        assert registry.total("drbac_rpc_notifies_total") == 4
        assert registry.total("drbac_rpc_calls_total") == 0
        assert registry.total("drbac_gem_evals_issued_total") == 2
        assert registry.total("drbac_gem_evals_served_total") == 2
        assert registry.total(
            "drbac_switchboard_handshakes_completed_total") == 0

    def test_discovery_histogram_observed_once(self, authorized_case):
        hists = [h for h in obs.registry().histograms()
                 if h.name == "drbac_discovery_seconds"]
        assert sum(h.count for h in hists) == 1

    def test_legacy_surfaces_stay_live(self, authorized_case):
        d, _ = authorized_case
        info = d.engine.discovery_info()
        assert info["stats"]["rounds"] == 2
        assert info["result_cache"]["stores"] == 2
        assert d.engine.gem_info()["answers_received"] == 2


class TestLocalShortCircuit:
    def test_second_authorize_is_local_and_traced_smaller(self):
        obs.reset()
        with obs.enabled_ctx():
            d = build_distributed_case_study(seed=11)
            d.server.wallet.publish(d.case.d1_maria_member)
            first = d.server.wallet.authorize(
                d.case.maria.entity, d.case.airnet_access)
            obs.tracer().clear()
            second = d.server.wallet.authorize(
                d.case.maria.entity, d.case.airnet_access)
        assert first is not None and second is not None
        spans = obs.tracer().finished()
        root = [s for s in spans if s.name == "wallet.authorize"][0]
        assert root.attrs["source"] == "local"
        assert "discovery.discover" not in {s.name for s in spans}
        assert obs.registry().total(
            "drbac_wallet_authorizations_total") == 2

    def test_warm_query_direct_opens_no_span(self, monkeypatch):
        """What the < 3% overhead budget protects, pinned exactly: a
        proof-cache hit returns before tracing is consulted at all."""
        workload = make_coalition(3, 3, 2, seed=7, partner_links=1)
        wallet = Wallet(owner=None, address="pin", clock=SimClock())
        for delegation, supports in workload.delegations:
            wallet.publish(delegation, supports)
        subject, role = workload.subject, workload.obj
        calls = []
        real_span = obs.span

        def counting_span(name, **attrs):
            calls.append(name)
            return real_span(name, **attrs)

        monkeypatch.setattr(obs, "span", counting_span)
        with obs.enabled_ctx():
            assert wallet.query_direct(subject, role) is not None
            assert "wallet.search" in calls     # the cold fill is traced
            calls.clear()
            obs.tracer().clear()
            hits = wallet.cache_info()["hits"]
            for _ in range(3):
                assert wallet.query_direct(subject, role) is not None
        assert wallet.cache_info()["hits"] == hits + 3
        assert calls == []
        assert obs.tracer().finished() == []

    def test_disabled_tracing_still_counts(self):
        obs.reset()
        with obs.disabled():
            d = build_distributed_case_study(seed=11)
            d.server.wallet.publish(d.case.d1_maria_member)
            obs.tracer().clear()
            proof = d.server.wallet.authorize(
                d.case.maria.entity, d.case.airnet_access)
        assert proof is not None
        assert obs.tracer().finished() == []
        # Metrics are not gated by the tracing switch.
        assert obs.registry().total(
            "drbac_wallet_authorizations_total") == 1
        assert obs.registry().total("drbac_discovery_runs_total") == 1
