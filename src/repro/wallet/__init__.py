"""Wallets: distributed credential repositories (paper, Section 4).

"All user operations -- delegation publishing, queries..., and monitoring
of existing proofs -- are performed against a local wallet." This package
implements the single-wallet functionality of Figure 1:

* :mod:`repro.wallet.storage` -- the persistent store of delegations,
  support proofs, revocations, and base attribute allocations;
* :mod:`repro.wallet.wallet` -- the Wallet itself: publication (with
  support-proof enforcement), direct/subject/object queries, revocation,
  and the local subscription hub;
* :mod:`repro.wallet.cache` -- coherent caching of delegations whose home
  is another wallet, kept fresh by delegation subscriptions;
* :mod:`repro.wallet.journal` -- a wallet whose every mutation is
  appended to a replayable journal.

Nothing here reaches past one wallet: the maintenance loop that renews
cached copies with their homes lives in :mod:`repro.discovery.maintenance`,
and the pre-publication lint gate in :mod:`repro.analysis.static`.
"""

from repro.wallet.storage import WalletStore
from repro.wallet.wallet import Wallet
from repro.wallet.cache import CachedEntry, CoherentCache
from repro.wallet.journal import JournaledWallet

__all__ = [
    "WalletStore",
    "Wallet",
    "JournaledWallet",
    "CachedEntry",
    "CoherentCache",
]
