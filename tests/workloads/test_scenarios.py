import pytest

from repro.core import Proof, SimClock, validate_proof
from repro.wallet.wallet import Wallet
from repro.workloads.scenarios import (
    BASE_BW,
    BASE_HOURS,
    BASE_STORAGE,
    EXPECTED_BW,
    EXPECTED_HOURS,
    EXPECTED_STORAGE,
    build_case_study,
    build_table1,
)


class TestTable1:
    def test_delegation_forms(self, table1):
        assert table1.d1_mark_services.is_self_certified
        assert table1.d2_services_assign.is_self_certified
        assert table1.d2_services_assign.is_assignment
        assert table1.d3_maria_member.is_third_party

    def test_paper_text_rendering(self, table1):
        assert str(table1.d1_mark_services) == \
            "[Mark -> BigISP.memberServices] BigISP"
        assert str(table1.d2_services_assign) == \
            "[BigISP.memberServices -> BigISP.member'] BigISP"
        assert str(table1.d3_maria_member) == \
            "[Maria -> BigISP.member] Mark"

    def test_support_proof_validates(self, table1):
        validate_proof(table1.support_proof, at=0.0)
        assert table1.support_proof.subject == table1.mark.entity
        assert table1.support_proof.obj == table1.member.with_tick()

    def test_full_proof_validates(self, table1):
        validate_proof(table1.full_proof(), at=0.0)

    def test_deterministic_under_seed(self):
        a = build_table1(seed=3)
        b = build_table1(seed=3)
        assert a.d3_maria_member.id == b.d3_maria_member.id


class TestCaseStudy:
    def test_all_delegations_publishable(self, case_study, clock):
        wallet = Wallet(owner=case_study.air_net, clock=clock)
        case_study.populate_wallet(wallet)
        assert len(wallet) == len(case_study.all_delegations())

    def test_proof_exists_and_validates(self, case_study, clock):
        wallet = case_study.populate_wallet(
            Wallet(owner=case_study.air_net, clock=clock))
        proof = wallet.query_direct(case_study.maria.entity,
                                    case_study.airnet_access)
        assert proof is not None
        wallet.validate(proof)

    def test_paper_attribute_aggregation(self, case_study, clock):
        """The Section 5 Step-5 numbers: BW 100, storage 30, hours 18."""
        wallet = case_study.populate_wallet(
            Wallet(owner=case_study.air_net, clock=clock))
        proof = wallet.query_direct(case_study.maria.entity,
                                    case_study.airnet_access)
        grants = proof.grants(case_study.base_allocations())
        assert grants[case_study.bw] == EXPECTED_BW
        assert grants[case_study.storage] == EXPECTED_STORAGE
        assert grants[case_study.hours] == pytest.approx(EXPECTED_HOURS)

    def test_base_constants_match_paper(self):
        assert (BASE_BW, BASE_STORAGE, BASE_HOURS) == (200.0, 50.0, 60.0)
        assert EXPECTED_BW == 100.0
        assert EXPECTED_STORAGE == 30.0
        assert EXPECTED_HOURS == 18.0

    def test_coalition_delegation_is_third_party_with_supports(
            self, case_study):
        d2 = case_study.d2_coalition
        assert d2.is_third_party
        assert len(d2.required_supports()) == 4
        for support in case_study.coalition_support:
            validate_proof(support, at=0.0)

    def test_tagged_variant_has_tags(self):
        case = build_case_study(with_tags=True)
        assert case.d1_maria_member.object_tag is not None
        assert case.d1_maria_member.object_tag.home == "wallet.bigISP.com"
        assert case.d2_coalition.subject_tag.subject_flag.searchable

    def test_parser_accepts_coalition_text(self, case_study):
        """Delegation (2) round-trips through the paper syntax."""
        from repro.core import format_delegation, parse_delegation
        text = format_delegation(case_study.d2_coalition)
        parsed = parse_delegation(text, case_study.directory)
        assert parsed.signing_bytes() == \
            case_study.d2_coalition.signing_bytes()


class TestDistributedScenario:
    def test_initial_state_matches_figure2a(self, distributed_case):
        d = distributed_case
        assert len(d.server.wallet) == 0            # server starts empty
        assert len(d.bigisp_home.wallet) == 6       # (2)-(5) + attr rights
        assert len(d.airnet_home.wallet) == 1       # (6)

    def test_steps_1_to_5(self, distributed_case):
        proof = distributed_case.run_steps_1_to_5()
        assert proof is not None
        distributed_case.server.wallet.validate(proof)
        grants = proof.grants(distributed_case.case.base_allocations())
        assert grants[distributed_case.case.bw] == EXPECTED_BW

    def test_step_6_monitored(self, distributed_case):
        monitor = distributed_case.authorize_and_monitor()
        assert monitor is not None and monitor.valid

    def test_message_flow_matches_walkthrough(self):
        """Steps 3-4 as the paper walks them (the seed frontier walk,
        kept as ``tests/discovery/seed_oracle.py``): one subject query
        at BigISP's home, direct queries per frontier role,
        subscriptions for every fetched delegation."""
        from repro.workloads.scenarios import build_distributed_case_study
        from tests.discovery.seed_oracle import seed_discover
        d = build_distributed_case_study()
        d.server.wallet.publish(d.case.d1_maria_member)
        proof = seed_discover(d.server, d.case.maria.entity,
                              d.case.airnet_access)
        assert proof is not None
        by_topic = {topic: stats.messages
                    for topic, stats in d.network.by_topic.items()}
        assert by_topic.get("rpc:subject_query") == 1
        assert by_topic.get("rpc:direct_query") == 2
        assert by_topic.get("rpc:subscribe") == 7
        assert d.network.totals.messages == 20

    def test_message_flow_fastpath(self):
        """The same walkthrough as the engine runs it: the ten
        sequential RPCs collapse into one goal and one answer push per
        home, subscriptions established at the source while it ships
        -- no query, subscribe or handshake round trips at all; the
        granted attributes are unchanged."""
        from repro.discovery.engine import DiscoveryStats
        from repro.workloads.scenarios import build_distributed_case_study
        d = build_distributed_case_study()
        d.server.wallet.publish(d.case.d1_maria_member)
        stats = DiscoveryStats()
        proof = d.engine.discover(d.case.maria.entity,
                                  d.case.airnet_access, stats=stats)
        assert proof is not None
        grants = proof.grants(d.case.base_allocations())
        assert grants[d.case.bw] == EXPECTED_BW
        by_topic = {topic: stats.messages
                    for topic, stats in d.network.by_topic.items()}
        assert by_topic == {"notify:gem_eval": 2, "notify:gem_answers": 2}
        assert stats.wallets_contacted == {"wallet.bigISP.com",
                                           "wallet.airnet.com"}
        assert stats.delegations_cached == 2      # (2) and (6)
        assert stats.subscriptions_established == 7
