"""Process-wide signature-verification memo.

Every layer of the proof pipeline re-checks the same immutable
certificates: ``validate_proof`` walks a chain whose links were already
verified at publication, :meth:`WalletStore.from_bytes` re-verifies on
every load, and discovery re-validates whatever a remote wallet served.
Because keys, signing bytes, and signatures are all immutable, a
*positive* verification outcome can never change -- so it is memoized
here, keyed by ``(algorithm, key bytes, signing-bytes digest,
signature)``, and each certificate's signature is verified at most once
per process.

Two rules keep the memo invalidation-free by construction:

* **only successes are cached** -- a failed verify always re-runs the
  full check and re-raises/returns through the normal path, so an
  attacker cannot plant a cached negative and a flaky failure cannot
  stick;
* **the key covers the complete verification question** -- algorithm,
  key material, SHA-256 of the signed bytes, and the signature itself.
  Nothing mutable participates, so there is nothing to invalidate.

The memo is a bounded LRU (default 8192 entries) and has no off
switch: a memo hit and a full check give the same verdict, only
latency differs (asserted by ``tests/crypto/test_verify_cache.py``
against a fresh :func:`scoped` memo and fresh objects).

Scoping
-------

The sharded service layer hosts several wallet partitions in one
process, and each shard must own its own memo (partitioned capacity is
what makes the shards scale -- see docs/PERFORMANCE.md).  :func:`scoped`
installs a per-context :class:`VerificationMemo` in a
``contextvars.ContextVar``; every module-level function (and so every
``PublicKey.verify`` call) inside the ``with`` block uses that instance.
Outside any scope the process-wide ``_MEMO`` default applies, so
existing callers and the ``cache_info()`` contract are unchanged.
"""

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional, Tuple

from repro import obs

DEFAULT_MAXSIZE = 8192

# A memo key: (algorithm, key bytes, sha256(signing bytes), signature).
MemoKey = Tuple[str, bytes, bytes, bytes]


class VerificationMemo:
    """Bounded LRU of signatures that have verified successfully.

    The hit/miss/eviction tallies live in the :mod:`repro.obs` registry
    (``drbac_crypto_memo_*_total``) as ``stats``; :meth:`info` reads
    them back under the names it always reported.
    """

    __slots__ = ("maxsize", "_entries", "stats")

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError("memo maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[MemoKey, bool]" = OrderedDict()
        # ``object_hits``: verifications short-circuited by a per-object
        # flag on an immutable Delegation/Revocation (set after its
        # first success); those never reach the key computation below.
        self.stats = obs.CounterSet(
            "drbac_crypto_memo",
            ("hits", "misses", "evictions", "object_hits"))

    def lookup(self, key: MemoKey) -> bool:
        """True iff ``key`` is known-good; updates hit/miss counters."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.stats.c_hits.inc()
            return True
        self.stats.c_misses.inc()
        return False

    def record(self, key: MemoKey) -> None:
        """Remember a *successful* verification (never call on failure)."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        if len(entries) >= self.maxsize:
            entries.popitem(last=False)
            self.stats.c_evictions.inc()
        entries[key] = True

    def clear(self) -> None:
        """Drop all entries; counters are preserved for inspection."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> dict:
        """``cache_info()``-style statistics snapshot."""
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            **self.stats.to_dict(),
        }


_MEMO = VerificationMemo()

_SCOPED: "ContextVar[Optional[VerificationMemo]]" = ContextVar(
    "drbac_verify_memo", default=None)


def memo() -> VerificationMemo:
    """The current memo: the scoped instance, else the process-wide one."""
    current = _SCOPED.get()
    return _MEMO if current is None else current


@contextmanager
def scoped(instance: Optional[VerificationMemo] = None):
    """Install an isolated memo for this context (fresh unless injected).

    A fresh memo's counters register in whatever :mod:`repro.obs`
    registry is current -- enter ``obs.scoped()`` first to keep a
    shard's tallies private.  A test that wants a small memo injects
    ``VerificationMemo(maxsize=...)``.  Rides ``contextvars``: nests,
    propagates into tasks, and must be re-entered by worker
    threads/processes (see ``repro.service.shard``).
    """
    current = instance if instance is not None else VerificationMemo()
    token = _SCOPED.set(current)
    try:
        yield current
    finally:
        _SCOPED.reset(token)


def note_object_hit() -> None:
    """Count a verification short-circuited by a per-object flag."""
    memo().stats.c_object_hits.inc()


def cache_clear() -> None:
    memo().clear()


def cache_info() -> dict:
    return memo().info()
