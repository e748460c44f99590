"""The pre-publication lint gate: ``publication_findings`` before
``Wallet.publish``, as ``drbac issue --lint`` runs it."""

import pytest

from repro.analysis.static import publication_findings
from repro.core.attributes import AttributeRef, Modifier, Operator
from repro.core.delegation import issue
from repro.core.errors import PublicationError
from repro.core.identity import create_principal
from repro.core.roles import Role
from repro.wallet import Wallet


@pytest.fixture()
def org():
    return create_principal("Org")


@pytest.fixture()
def holder():
    return create_principal("Holder")


def self_noop(org):
    return issue(org, org.entity, Role(org.entity, "solo"))


def gated_publish(wallet, delegation, threshold, supports=()):
    """Publish unless the gate finds something; raise like the CLI."""
    blocking = publication_findings(wallet, delegation, supports,
                                    threshold)
    if blocking:
        raise PublicationError("; ".join(
            f"{finding.rule_id}: {finding.message}" for finding in blocking))
    return wallet.publish(delegation, supports)


class TestGateOff:
    def test_default_wallet_has_no_gate(self, org):
        """A plain publish runs no analyzer: the defect goes in."""
        wallet = Wallet(owner=org, address="w.test")
        defect = self_noop(org)
        assert wallet.publish(defect)
        assert wallet.store.get_delegation(defect.id) is not None


class TestGateOn:
    def test_blocks_at_threshold(self, org):
        wallet = Wallet(owner=org, address="w.test")
        with pytest.raises(PublicationError) as excinfo:
            gated_publish(wallet, self_noop(org), "warn")
        assert "self-delegation" in str(excinfo.value)
        assert len(wallet.store) == 0

    def test_error_threshold_lets_warnings_through(self, org):
        wallet = Wallet(owner=org, address="w.test")
        assert gated_publish(wallet, self_noop(org), "error")

    def test_blocks_edge_that_completes_a_cycle(self, org, holder):
        """Each leg is clean alone; the gate analyzes the would-be
        graph, so the leg that closes the amplifying cycle is caught."""
        wallet = Wallet(owner=org, address="w.test")
        x, y = Role(org.entity, "x"), Role(org.entity, "y")
        amp = AttributeRef(org.entity, "amp")
        assert gated_publish(wallet, issue(org, holder.entity, x), "error")
        assert gated_publish(wallet, issue(
            org, x, y,
            modifiers=[Modifier(amp, Operator.MULTIPLY, 0.5)]), "error")
        with pytest.raises(PublicationError) as excinfo:
            gated_publish(wallet, issue(org, y, x), "error")
        assert "amplification-cycle" in str(excinfo.value)

    def test_clean_delegation_passes(self, org, holder):
        wallet = Wallet(owner=org, address="w.test")
        clean = issue(org, holder.entity, Role(org.entity, "svc"))
        assert publication_findings(wallet, clean, (), "info") == []
        assert gated_publish(wallet, clean, "warn")

    def test_preexisting_defects_do_not_block_newcomers(self, org,
                                                        holder):
        """Only findings implicating the candidate block it."""
        wallet = Wallet(owner=org, address="w.test")
        wallet.publish(self_noop(org))  # defect already in the store
        newcomer = issue(org, holder.entity, Role(org.entity, "svc"))
        assert publication_findings(wallet, newcomer, (), "info") == []
        assert gated_publish(wallet, newcomer, "warn")

    def test_graph_unchanged_after_block(self, org, holder):
        wallet = Wallet(owner=org, address="w.test")
        clean = issue(org, holder.entity, Role(org.entity, "svc"))
        gated_publish(wallet, clean, "warn")
        with pytest.raises(PublicationError):
            gated_publish(wallet, self_noop(org), "warn")
        assert len(wallet.store) == 1
        assert wallet.query_direct(holder.entity,
                                   Role(org.entity, "svc")) is not None

    def test_held_delegation_has_no_findings(self, org):
        """Publishing what the wallet already holds adds nothing, so
        even a defective delegation has no findings the second time."""
        wallet = Wallet(owner=org, address="w.test")
        defect = self_noop(org)
        assert publication_findings(wallet, defect, (), "info")
        wallet.publish(defect)
        assert publication_findings(wallet, defect, (), "info") == []
