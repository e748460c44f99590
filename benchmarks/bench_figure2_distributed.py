"""F2 -- Figure 2: distributed proof construction, Steps 1-6.

Rebuilds the figure's deployment (empty AirNet server wallet; BigISP and
AirNet home wallets holding each delegation in its subject's home) and
measures the full distributed pipeline: message counts per protocol step,
bytes on the wire, subscriptions established, and the monitoring /
revocation epilogue.

The step table is the paper's own sequential walkthrough, run by the
seed frontier walk kept as ``tests/discovery/seed_oracle.py``; beside it
the same deployment is driven through the production
``DiscoveryEngine`` (one goal and one answer push per home), which must
find the same proof. Everything else here times the production engine.
"""

import pytest

from repro.crypto.encoding import canonical_encode
from repro.discovery.engine import DiscoveryStats
from repro.workloads.scenarios import (
    EXPECTED_BW,
    build_distributed_case_study,
)
from tests.discovery.seed_oracle import seed_discover


def _steps_1_to_6(discover):
    # Seeded: both paths must meet the same keys to find the same bytes.
    deployment = build_distributed_case_study(seed=2)
    stats = DiscoveryStats()
    deployment.server.wallet.publish(
        deployment.case.d1_maria_member)                  # Step 1
    proof = discover(deployment, stats)                   # Steps 2-5
    monitor = deployment.server.wallet.monitor(proof)     # Step 6
    by_topic = {t: s.messages
                for t, s in deployment.network.by_topic.items()}
    return deployment, stats, proof, monitor, by_topic


def _walkthrough(deployment, stats):
    return seed_discover(deployment.server, deployment.case.maria.entity,
                         deployment.case.airnet_access, stats=stats)


def _engine(deployment, stats):
    return deployment.engine.discover(
        deployment.case.maria.entity, deployment.case.airnet_access,
        stats=stats)


class TestFigure2Reproduction:
    def test_report_steps_and_messages(self, benchmark, report):
        deployment, stats, proof, monitor, by_topic = benchmark(
            _steps_1_to_6, _walkthrough)
        rows = [
            ("1", "present delegation (1) to server", "local publish, "
             "0 messages"),
            ("2", "local wallet query", "miss (server wallet was empty)"),
            ("3", "subject query at wallet.bigISP.com",
             f"{by_topic.get('rpc:subject_query', 0)} subject query + "
             f"{by_topic.get('rpc:direct_query', 0)} direct probes"),
            ("4", "direct query at wallet.airnet.com",
             "delegation (6) returned"),
            ("5", "insert + validation subscriptions",
             f"{stats.delegations_cached} delegations cached, "
             f"{stats.subscriptions_established} subscriptions"),
            ("6", "proof monitor returned",
             f"valid={monitor.valid}, chain={proof.depth()} links"),
        ]
        report("Figure 2 -- distributed proof construction "
               "(the paper's walkthrough)",
               ["step", "action", "measured"], rows)
        # Shape assertions: the walkthrough's structure.
        assert stats.wallets_contacted == {"wallet.bigISP.com",
                                           "wallet.airnet.com"}
        assert by_topic.get("rpc:subject_query") == 1
        assert by_topic.get("rpc:direct_query") == 2
        assert stats.delegations_cached == 2      # (2) and (6)
        assert stats.subscriptions_established == 7
        assert monitor.valid
        grants = proof.grants(deployment.case.base_allocations())
        assert grants[deployment.case.bw] == EXPECTED_BW

        live, live_stats, live_proof, live_monitor, live_topics = \
            _steps_1_to_6(_engine)
        report("Figure 2 -- the same steps as DiscoveryEngine runs them",
               ["step", "action", "measured"], [
                   ("3-4", "one goal per home, one answer push back",
                    f"{live_topics.get('notify:gem_eval', 0)} gem_eval + "
                    f"{live_topics.get('notify:gem_answers', 0)} "
                    f"gem_answers"),
                   ("5", "insert; subscriptions made at the source",
                    f"{live_stats.delegations_cached} delegations "
                    f"cached, {live_stats.subscriptions_established} "
                    f"subscriptions, 0 subscribe round trips"),
                   ("6", "proof monitor returned",
                    f"valid={live_monitor.valid}, "
                    f"chain={live_proof.depth()} links"),
               ])
        report("Figure 2 -- wire totals",
               ["path", "messages", "bytes", "wallets contacted"],
               [(name, d.network.totals.messages, d.network.totals.bytes,
                 ", ".join(sorted(s.wallets_contacted)))
                for name, d, s in (("walkthrough", deployment, stats),
                                   ("engine", live, live_stats))])
        assert canonical_encode(live_proof.to_dict()) \
            == canonical_encode(proof.to_dict())
        assert live_topics == {"notify:gem_eval": 2,
                               "notify:gem_answers": 2}
        assert live_stats.subscriptions_established == 7
        assert live.network.totals.messages \
            < deployment.network.totals.messages

    def test_report_revocation_push(self, benchmark, report):
        def run():
            deployment = build_distributed_case_study()
            monitor = deployment.authorize_and_monitor()
            deployment.network.reset_counters()
            deployment.bigisp_home.wallet.revoke(
                deployment.case.sheila, deployment.case.d2_coalition.id)
            return deployment, monitor

        deployment, monitor = benchmark(run)
        push = deployment.network.by_topic.get(
            "notify:delegation_event")
        report("Figure 2 epilogue -- revocation push over subscriptions",
               ["metric", "value"],
               [("push messages", push.messages if push else 0),
                ("monitor valid after push", monitor.valid),
                ("revocation known at server",
                 deployment.server.wallet.is_revoked(
                     deployment.case.d2_coalition.id))])
        assert push is not None and push.messages >= 1
        assert not monitor.valid


class TestFigure2Latency:
    """End-to-end *virtual* latency with a WAN-like 25 ms per message.

    The simulated transport accrues per-message latency, giving the
    wall-clock a sequential protocol would experience: the cold
    authorization pays one link delay per message, the warm repeat pays
    nothing. (The paper reports no latency numbers; this grounds the
    message counts in time.)
    """

    LINK_MS = 25.0

    def test_report_virtual_latency(self, benchmark, report):
        def run():
            deployment = build_distributed_case_study()
            deployment.network.default_latency = self.LINK_MS / 1000.0
            deployment.server.wallet.publish(
                deployment.case.d1_maria_member)
            proof = deployment.engine.discover(
                deployment.case.maria.entity,
                deployment.case.airnet_access)
            cold_latency = deployment.network.total_latency
            cold_messages = deployment.network.totals.messages
            deployment.network.reset_counters()
            deployment.engine.discover(
                deployment.case.maria.entity,
                deployment.case.airnet_access)
            warm_latency = deployment.network.total_latency
            return (proof is not None, cold_messages, cold_latency,
                    warm_latency)

        ok, cold_messages, cold_latency, warm_latency = benchmark(run)
        report(f"Figure 2 -- virtual end-to-end latency "
               f"({self.LINK_MS:.0f} ms per message)",
               ["phase", "messages", "accumulated latency"],
               [("cold authorization", cold_messages,
                 f"{cold_latency * 1000:.0f} ms"),
                ("warm repeat", 0, f"{warm_latency * 1000:.0f} ms")])
        assert ok
        assert cold_latency == pytest.approx(
            cold_messages * self.LINK_MS / 1000.0)
        assert warm_latency == 0.0


class TestFigure2Timings:
    def test_bench_full_pipeline(self, benchmark):
        def pipeline():
            deployment = build_distributed_case_study()
            return deployment.run_steps_1_to_5()

        proof = benchmark(pipeline)
        assert proof is not None

    def test_bench_discovery_only(self, benchmark):
        deployment = build_distributed_case_study()
        deployment.server.wallet.publish(deployment.case.d1_maria_member)
        # Warm run caches delegations; measure the warm (local) path.
        deployment.engine.discover(deployment.case.maria.entity,
                                   deployment.case.airnet_access)

        def warm_discover():
            return deployment.engine.discover(
                deployment.case.maria.entity,
                deployment.case.airnet_access)

        proof = benchmark(warm_discover)
        assert proof is not None

    def test_bench_remote_subject_query(self, benchmark):
        deployment = build_distributed_case_study()
        result = benchmark(
            deployment.server.remote_subject_query,
            "wallet.bigISP.com", deployment.case.bigisp_member)
        assert len(result) == 1

    def test_bench_confirmation_probe(self, benchmark):
        deployment = build_distributed_case_study()
        deployment.run_steps_1_to_5()
        result = benchmark(
            deployment.server.remote_confirm, "wallet.bigISP.com",
            deployment.case.d2_coalition.id)
        assert result
