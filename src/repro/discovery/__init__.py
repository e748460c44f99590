"""Distributed credential discovery (paper, Section 4.2.1).

Delegations authorizing a trust relationship "may be spread over multiple
wallets"; discovery tags direct a tag-aware search across them. This
package provides:

* :mod:`repro.discovery.wire` -- wire encoding of subjects, roles,
  constraints, and proofs for inter-wallet RPC;
* :mod:`repro.discovery.resolver` -- :class:`WalletServer` (a wallet
  exposed on the simulated network: queries, publication, remote
  delegation subscriptions, TTL confirmations) and the
  :class:`WalletDirectory` used by scenario builders;
* :mod:`repro.discovery.engine` -- :class:`DiscoveryEngine`, the
  tag-directed parallel breadth-first search that assembles proofs
  spanning multiple wallets (Figure 2's Steps 2-5);
* :mod:`repro.discovery.maintenance` -- the simulator-driven loop that
  sweeps expirations and reconfirms cached copies before their TTL
  lease lapses (Section 4.2.1).
"""

from repro.discovery.resolver import WalletDirectory, WalletServer
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.proxy import ValidationProxy, build_proxy_chain

__all__ = [
    "WalletDirectory",
    "WalletServer",
    "DiscoveryEngine",
    "DiscoveryStats",
    "ValidationProxy",
    "build_proxy_chain",
]
