"""Design-choice ablations (DESIGN.md, Section 4).

Not paper figures -- these quantify the implementation decisions this
reproduction made, so a reader can tell which parts of the measured
behavior come from the paper's design and which from ours:

* **A1 -- windowed EC precomputation**: per-point tables (affine
  multiples read by the signed digits of the scalar's two GLV halves)
  vs plain double-and-add for the signature-heavy wallet paths.
* **A2 -- support proofs at publication**: the paper requires issuers of
  third-party delegations to ship support proofs with them, "freeing
  wallets from having to conduct recursive searches". We measure the
  query-time cost of the alternative (recursive in-graph support
  discovery) against stored supports.
* **A3 -- hierarchical proxy caches**: home-wallet push load with N
  direct subscribers vs a proxy tree (Section 6's hierarchical caches).
"""

import pytest

from repro.core import Role, SimClock, create_principal, issue
from repro.crypto import ec
from repro.discovery.proxy import ValidationProxy
from repro.discovery.resolver import WalletServer
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.search import build_support_provider, direct_query
from repro.net.transport import Network
from repro.wallet.wallet import Wallet
from repro.workloads.topology import make_coalition


def _promote(scalar, point):
    """Use ``point`` until `ec` has built its comb (13 x 512 entries),
    so that no timed call pays the ~60 ms build whatever the round
    count."""
    for _ in range(ec._COMB_BUILD_THRESHOLD):
        ec.scalar_mult(scalar, point)


class TestA1WindowedTables:
    def test_report_table_speedup(self, benchmark, report):
        import time
        scalar = 2**200 + 12345
        point = ec.scalar_mult(7)  # a non-generator base point

        def measure():
            _promote(scalar, point)
            start = time.perf_counter()
            for _ in range(30):
                ec.scalar_mult(scalar, point)
            with_table = (time.perf_counter() - start) / 30
            start = time.perf_counter()
            for _ in range(30):
                ec.scalar_mult_plain(scalar, point)
            plain = (time.perf_counter() - start) / 30
            return with_table, plain

        with_table, plain = benchmark.pedantic(measure, rounds=3,
                                               iterations=1)
        report("A1 -- scalar multiplication: windowed table vs plain",
               ["variant", "mean per mult"],
               [("windowed (warm table)", f"{with_table * 1e3:.3f} ms"),
                ("plain double-and-add", f"{plain * 1e3:.3f} ms"),
                ("speedup", f"{plain / with_table:.1f}x")])
        assert with_table < plain

    def test_bench_windowed(self, benchmark):
        point = ec.scalar_mult(11)
        _promote(2**250 + 1, point)
        benchmark(ec.scalar_mult, 2**250 + 1, point)

    def test_bench_plain(self, benchmark):
        point = ec.scalar_mult(11)
        benchmark(ec.scalar_mult_plain, 2**250 + 1, point)


class TestA2SupportsAtPublication:
    @pytest.fixture(scope="class")
    def coalition(self):
        return make_coalition(domains=4, roles_per_domain=3,
                              users_per_domain=4, seed=17)

    def test_report_stored_vs_recursive(self, benchmark, coalition,
                                        report):
        import time
        graph = coalition.graph()
        stored_provider = coalition.support_provider()

        def measure():
            start = time.perf_counter()
            for _ in range(20):
                proof = direct_query(graph, coalition.subject,
                                     coalition.obj,
                                     support_provider=stored_provider)
            stored = (time.perf_counter() - start) / 20
            start = time.perf_counter()
            for _ in range(20):
                recursive = build_support_provider(graph)
                proof = direct_query(graph, coalition.subject,
                                     coalition.obj,
                                     support_provider=recursive)
            rebuilt = (time.perf_counter() - start) / 20
            return stored, rebuilt

        stored, rebuilt = benchmark.pedantic(measure, rounds=3,
                                             iterations=1)
        report("A2 -- third-party support proofs: stored at publication "
               "vs recursive discovery per query",
               ["variant", "mean query latency"],
               [("stored with delegation (paper's rule)",
                 f"{stored * 1e3:.3f} ms"),
                ("recursive search per query",
                 f"{rebuilt * 1e3:.3f} ms")])
        # The paper's publication rule should never be slower.
        assert stored <= rebuilt * 1.10

    def test_bench_query_with_stored_supports(self, benchmark, coalition):
        graph = coalition.graph()
        provider = coalition.support_provider()
        result = benchmark(direct_query, graph, coalition.subject,
                           coalition.obj, 0.0, None, (), None,
                           __import__("repro.graph.search",
                                      fromlist=["Strategy"]
                                      ).Strategy.BIDIRECTIONAL, provider)
        assert result is not None


class TestA4JournaledPersistence:
    """What per-operation durability costs: journaled (fsync per op) vs
    in-memory publication, and journal replay vs snapshot load."""

    def test_report_persistence_cost(self, benchmark, tmp_path_factory,
                                     report):
        import time
        from repro.wallet.journal import JournaledWallet
        from repro.wallet.storage import WalletStore

        def run():
            org = create_principal("Org")
            users = [create_principal(f"u{i}") for i in range(40)]
            role = Role(org.entity, "r")
            delegations = [issue(org, u.entity, role) for u in users]

            plain = Wallet(owner=org, clock=SimClock())
            start = time.perf_counter()
            for d in delegations:
                plain.publish(d)
            memory_time = time.perf_counter() - start

            path = str(tmp_path_factory.mktemp("journal") / "w.journal")
            journaled = JournaledWallet.open(path, owner=org,
                                             clock=SimClock())
            start = time.perf_counter()
            for d in delegations:
                journaled.publish(d)
            journal_time = time.perf_counter() - start
            journaled.close()

            start = time.perf_counter()
            reopened = JournaledWallet.open(path, owner=org,
                                            clock=SimClock())
            replay_time = time.perf_counter() - start
            count = len(reopened)
            reopened.close()

            start = time.perf_counter()
            WalletStore.from_bytes(plain.store.to_bytes())
            snapshot_time = time.perf_counter() - start
            return (memory_time, journal_time, replay_time,
                    snapshot_time, count)

        memory_time, journal_time, replay_time, snapshot_time, count = \
            benchmark.pedantic(run, rounds=1, iterations=1)
        per_op = (journal_time - memory_time) / 40 * 1e3
        report("A4 -- persistence cost (40 publications)",
               ["operation", "time"],
               [("in-memory publish x40",
                 f"{memory_time * 1e3:.1f} ms"),
                ("journaled publish x40 (fsync per op)",
                 f"{journal_time * 1e3:.1f} ms"),
                ("journal overhead per op", f"{per_op:.2f} ms"),
                ("journal replay (reopen)",
                 f"{replay_time * 1e3:.1f} ms"),
                ("snapshot load (same content)",
                 f"{snapshot_time * 1e3:.1f} ms")])
        assert count == 40


class TestA3ProxyHierarchy:
    LEAVES = 8

    def _flat(self):
        """Home with LEAVES direct subscriber caches."""
        clock = SimClock()
        network = Network(clock=clock)
        org = create_principal("Org")
        alice = create_principal("Alice")
        d = issue(org, alice.entity, Role(org.entity, "r"))
        home = WalletServer(network,
                            Wallet(owner=org, address="home",
                                   clock=clock), principal=org)
        home.wallet.publish(d)
        for index in range(self.LEAVES):
            leaf = WalletServer(
                network, Wallet(owner=org, address=f"leaf{index}",
                                clock=clock), principal=org)
            ValidationProxy(leaf, upstream="home").mirror_delegation(d)
        return network, home, org, d

    def _tree(self):
        """Home -> 2 proxies -> LEAVES/2 leaves each."""
        clock = SimClock()
        network = Network(clock=clock)
        org = create_principal("Org")
        alice = create_principal("Alice")
        d = issue(org, alice.entity, Role(org.entity, "r"))
        home = WalletServer(network,
                            Wallet(owner=org, address="home",
                                   clock=clock), principal=org)
        home.wallet.publish(d)
        for p_index in range(2):
            proxy_server = WalletServer(
                network, Wallet(owner=org, address=f"proxy{p_index}",
                                clock=clock), principal=org)
            ValidationProxy(proxy_server,
                            upstream="home").mirror_delegation(d)
            for l_index in range(self.LEAVES // 2):
                leaf = WalletServer(
                    network,
                    Wallet(owner=org,
                           address=f"leaf{p_index}-{l_index}",
                           clock=clock), principal=org)
                ValidationProxy(
                    leaf,
                    upstream=f"proxy{p_index}").mirror_delegation(d)
        return network, home, org, d

    def test_report_home_load(self, benchmark, report):
        def measure():
            flat_net, flat_home, flat_org, flat_d = self._flat()
            flat_net.reset_counters()
            flat_home.wallet.revoke(flat_org, flat_d.id)
            flat_pushes = flat_net.messages_from(
                "home", "notify:delegation_event")
            tree_net, tree_home, tree_org, tree_d = self._tree()
            tree_net.reset_counters()
            tree_home.wallet.revoke(tree_org, tree_d.id)
            tree_pushes = tree_net.messages_from(
                "home", "notify:delegation_event")
            return flat_pushes, tree_pushes

        flat_pushes, tree_pushes = benchmark(measure)
        report(f"A3 -- home wallet push load, 1 revocation, "
               f"{self.LEAVES} ultimate subscribers",
               ["topology", "messages sent by home"],
               [("flat (all subscribe at home)", flat_pushes),
                ("hierarchical (2 proxies)", tree_pushes)])
        assert flat_pushes == self.LEAVES
        assert tree_pushes == 2
