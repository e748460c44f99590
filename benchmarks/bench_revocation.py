"""E2 -- Section 6: delegation subscriptions vs OCSP polling vs CRLs.

The paper's two claims, measured over identical seeded workloads:

* vs OCSP: "a client ... must continuously poll an authorized server
  (even when the credential has not changed); delegation subscriptions
  only require server and network resources when a credential has been
  updated."
* vs CRLs: "revocation-based schemes transmit information regarding all
  revoked certificates to all subscribers"; subscriptions "avoid
  communication of updates irrelevant to particular caches."

Also includes an end-to-end measurement over the real wallet/pubsub
stack: push messages counted on the simulated network for the Figure 2
deployment.
"""

import pytest

from repro.baselines.revocation import (
    CRLBroadcast,
    OCSPPolling,
    RevocationWorkload,
    SubscriptionPush,
    compare_schemes,
)
from repro.workloads.scenarios import build_distributed_case_study

RATES = [0.0, 0.01, 0.10]
CREDENTIALS = 200
EPOCHS = 50


class TestRevocationEconomics:
    def test_report_scheme_comparison(self, benchmark, report):
        def run_all():
            rows = []
            for rate in RATES:
                workload = RevocationWorkload(
                    credentials=CREDENTIALS, epochs=EPOCHS,
                    revocation_rate=rate, seed=42)
                for result in compare_schemes(workload):
                    rows.append((f"{rate:.0%}", workload.total_revocations,
                                 result.scheme, result.messages,
                                 result.bytes,
                                 round(result.mean_lag, 2)))
            return rows

        rows = benchmark(run_all)
        report(f"Section 6 -- revocation schemes "
               f"({CREDENTIALS} credentials, {EPOCHS} epochs)",
               ["revocation rate", "revocations", "scheme", "messages",
                "bytes", "mean lag (epochs)"], rows)
        by_scheme = {}
        for rate, _revs, scheme, messages, _bytes, _lag in rows:
            by_scheme.setdefault(rate, {})[scheme.split("(")[0]] = messages
        for rate, schemes in by_scheme.items():
            assert schemes["subscription"] < schemes["ocsp"], rate
            assert schemes["subscription"] < schemes["crl"], rate

    def test_report_quiet_network_costs(self, benchmark, report):
        """The headline: silence is free only for subscriptions."""
        def run_quiet():
            quiet = RevocationWorkload(credentials=CREDENTIALS,
                                       epochs=EPOCHS,
                                       revocation_rate=0.0, seed=1)
            sub = SubscriptionPush(count_registration=False).run(quiet)
            ocsp = OCSPPolling().run(quiet)
            crl = CRLBroadcast().run(quiet)
            return sub, ocsp, crl

        sub, ocsp, crl = benchmark(run_quiet)
        report("Section 6 -- cost with ZERO revocations",
               ["scheme", "messages", "bytes"],
               [(sub.scheme, sub.messages, sub.bytes),
                (ocsp.scheme, ocsp.messages, ocsp.bytes),
                (crl.scheme, crl.messages, crl.bytes)])
        assert sub.messages == 0
        assert ocsp.messages == CREDENTIALS * EPOCHS * 2
        assert crl.messages == CREDENTIALS * EPOCHS

    def test_report_freshness_tradeoff(self, benchmark, report):
        def run():
            workload = RevocationWorkload(credentials=CREDENTIALS,
                                          epochs=EPOCHS,
                                          revocation_rate=0.05, seed=3)
            rows = []
            for interval in (1, 2, 5, 10):
                result = OCSPPolling(poll_interval=interval).run(workload)
                rows.append((result.scheme, result.messages,
                             round(result.mean_lag, 2)))
            push = SubscriptionPush().run(workload)
            rows.append((push.scheme, push.messages,
                         round(push.mean_lag, 2)))
            return rows

        rows = benchmark(run)
        report("Section 6 -- freshness/cost frontier",
               ["scheme", "messages", "mean lag (epochs)"], rows)
        # Subscriptions dominate the whole OCSP frontier: fewer messages
        # than the cheapest poll AND zero lag.
        sub_messages, sub_lag = rows[-1][1], rows[-1][2]
        for _scheme, messages, lag in rows[:-1]:
            assert sub_messages < messages
            assert sub_lag <= lag


class TestRealStackPush:
    def test_report_wire_cost_of_one_revocation(self, benchmark, report):
        """End-to-end over the real wallets: one revocation, one push."""
        def run():
            deployment = build_distributed_case_study()
            deployment.run_steps_1_to_5()
            deployment.network.reset_counters()
            # Quiet period: nothing crosses the wire.
            quiet = deployment.network.totals.messages
            deployment.bigisp_home.wallet.revoke(
                deployment.case.sheila, deployment.case.d2_coalition.id)
            return quiet, deployment.network.totals.messages

        quiet, after = benchmark(run)
        report("Section 6 -- measured push cost on the wallet stack",
               ["phase", "messages"],
               [("quiet period", quiet),
                ("after 1 revocation", after)])
        assert quiet == 0
        assert 1 <= after <= 3  # push to the one interested wallet


class TestSteadyStateMaintenance:
    """Long-run cost on the REAL stack: a monitored session kept alive
    for simulated hours by the maintenance loop (subscriptions + TTL
    confirmations) vs what OCSP-style polling would send over the same
    window."""

    HOURS = 4.0
    TTL = 300.0          # 5-minute leases, per the tag
    MAINT_INTERVAL = 60.0
    OCSP_POLL = 60.0     # a typical aggressive OCSP interval

    def test_report_hourly_cost(self, benchmark, report):
        from repro.core import DiscoveryTag, Role, SubjectFlag, issue
        from repro.core.roles import subject_key
        from repro.core.identity import create_principal
        from repro.discovery.engine import DiscoveryEngine
        from repro.discovery.resolver import WalletServer
        from repro.net.simnet import Simulation
        from repro.net.transport import Network
        from repro.discovery.maintenance import schedule_maintenance
        from repro.wallet.wallet import Wallet

        def run():
            simulation = Simulation()
            network = Network(clock=simulation.clock)
            org = create_principal("Org")
            user = create_principal("User")
            role = Role(org.entity, "service")
            tag = DiscoveryTag(home="home", ttl=self.TTL,
                               subject_flag=SubjectFlag.SEARCH)
            d = issue(org, user.entity, role, subject_tag=tag)
            home = WalletServer(
                network, Wallet(owner=org, address="home",
                                clock=simulation.clock), principal=org)
            home.wallet.publish(d)
            client = WalletServer(
                network, Wallet(owner=org, address="client",
                                clock=simulation.clock), principal=org)
            engine = DiscoveryEngine(client, default_ttl=self.TTL)
            proof = engine.discover(
                user.entity, role,
                hints={subject_key(user.entity): tag})
            monitor = client.wallet.monitor(proof)
            network.reset_counters()
            schedule_maintenance(simulation, client,
                                 interval=self.MAINT_INTERVAL,
                                 until=self.HOURS * 3600.0,
                                 confirm_margin=0.3)
            simulation.run_until(self.HOURS * 3600.0)
            assert monitor.valid
            measured = network.totals.messages
            # OCSP equivalent: 2 messages per credential per poll.
            polls = self.HOURS * 3600.0 / self.OCSP_POLL
            ocsp = int(2 * polls)
            return measured, ocsp

        measured, ocsp = benchmark.pedantic(run, rounds=1, iterations=1)
        per_hour = measured / self.HOURS
        report(f"Section 6 -- steady-state session upkeep over "
               f"{self.HOURS:.0f} simulated hours (TTL {self.TTL:.0f}s)",
               ["scheme", "total messages", "messages/hour"],
               [("subscriptions + TTL confirmations", measured,
                 f"{per_hour:.1f}"),
                (f"OCSP polling every {self.OCSP_POLL:.0f}s", ocsp,
                 f"{ocsp / self.HOURS:.1f}")])
        assert measured < ocsp / 3


class TestSchemeTimings:
    @pytest.fixture(scope="class")
    def workload(self):
        return RevocationWorkload(credentials=CREDENTIALS, epochs=EPOCHS,
                                  revocation_rate=0.05, seed=5)

    def test_bench_subscription_model(self, benchmark, workload):
        result = benchmark(SubscriptionPush().run, workload)
        assert result.notifications_delivered == \
            workload.total_revocations

    def test_bench_ocsp_model(self, benchmark, workload):
        result = benchmark(OCSPPolling().run, workload)
        assert result.messages > 0

    def test_bench_crl_model(self, benchmark, workload):
        result = benchmark(CRLBroadcast().run, workload)
        assert result.messages > 0
