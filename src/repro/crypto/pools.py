"""Eviction for the bounded FIFO pools of :mod:`repro.crypto`.

The intern pools and table caches in ``ec``, ``encoding`` and ``keys``
are plain dicts shared by every thread of the process without a lock:
a lookup is one atomic ``dict.get``, and a miss makes room for its
insert by dropping the oldest entries. Two threads can reach the bound
together, so eviction must not assume it is alone.
"""


def make_room(pool: dict, limit: int) -> None:
    """Evict oldest-first until ``pool`` holds fewer than ``limit``.

    Another thread may pop the same oldest key first (hence the ``pop``
    default) or resize the dict between ``iter`` and ``next`` (the
    iterator then raises ``RuntimeError``); the loop just looks again.
    Threads that pass the length check together may each insert, so a
    pool can exceed its limit by at most the number of threads.
    """
    while len(pool) >= limit:
        try:
            pool.pop(next(iter(pool)), None)
        except (RuntimeError, StopIteration):
            pass
