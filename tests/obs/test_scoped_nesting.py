"""scoped() nesting and re-entrancy: obs + verify_cache contextvars.

The sharded service relies on three properties of the scope stack the
other obs tests never exercise directly:

* scopes nest -- an inner ``scoped()`` shadows the outer pair and the
  outer pair comes back intact on exit (token-based reset, so an
  exception inside the block restores it too);
* the same registry/memo instance can be re-entered (ShardContext
  enters ``activate()`` once per request against long-lived handles);
* worker threads do NOT inherit the caller's scope -- they hold the
  injected handle or re-enter ``scoped()`` themselves, so a scope
  exiting on the main thread mid-flight never yanks state out from
  under a worker.
"""

import threading

import pytest

from repro import obs
from repro.crypto import verify_cache
from repro.crypto.verify_cache import VerificationMemo


class TestObsScopedNesting:
    def test_inner_scope_shadows_then_restores_outer(self):
        default = obs.registry()
        with obs.scoped() as outer:
            assert obs.registry() is outer.registry
            assert obs.registry() is not default
            with obs.scoped() as inner:
                assert obs.registry() is inner.registry
                assert inner.registry is not outer.registry
                assert obs.tracer() is inner.tracer
            assert obs.registry() is outer.registry
            assert obs.tracer() is outer.tracer
        assert obs.registry() is default

    def test_counters_land_in_the_active_layer(self):
        with obs.scoped() as outer:
            obs.counter("drbac_nest_probe").inc()
            with obs.scoped() as inner:
                obs.counter("drbac_nest_probe").inc(2)
            obs.counter("drbac_nest_probe").inc()
        assert outer.registry.counter("drbac_nest_probe").value == 2
        assert inner.registry.counter("drbac_nest_probe").value == 2

    def test_exception_still_restores_outer_scope(self):
        default = obs.registry()
        with pytest.raises(RuntimeError):
            with obs.scoped():
                with obs.scoped():
                    raise RuntimeError("boom")
        assert obs.registry() is default

    def test_same_registry_reentered_accumulates(self):
        registry = obs.MetricsRegistry()
        for _ in range(3):
            with obs.scoped(registry=registry):
                obs.counter("drbac_reenter_probe").inc()
        assert registry.counter("drbac_reenter_probe").value == 3

    def test_nested_reentry_of_same_registry(self):
        registry = obs.MetricsRegistry()
        with obs.scoped(registry=registry):
            with obs.scoped(registry=registry):
                obs.counter("drbac_reenter_nested").inc()
            assert obs.registry() is registry
        assert registry.counter("drbac_reenter_nested").value == 1


class TestVerifyCacheScopedNesting:
    def test_inner_memo_shadows_then_restores_outer(self):
        default = verify_cache.memo()
        with verify_cache.scoped() as outer:
            assert verify_cache.memo() is outer
            with verify_cache.scoped() as inner:
                assert verify_cache.memo() is inner
                assert inner is not outer
            assert verify_cache.memo() is outer
        assert verify_cache.memo() is default

    def test_injected_memo_reentered(self):
        memo = VerificationMemo(maxsize=16)
        with verify_cache.scoped(memo):
            assert verify_cache.memo() is memo
            with verify_cache.scoped(memo):
                assert verify_cache.memo() is memo
            assert verify_cache.memo() is memo
        assert verify_cache.memo() is not memo

    def test_scoped_memo_counters_join_scoped_registry(self):
        """A memo built inside obs.scoped() tallies into that registry,
        mirroring ShardContext.__init__'s construction order."""
        with obs.scoped() as scope:
            with verify_cache.scoped():
                verify_cache.note_object_hit()
        snapshot = scope.registry.snapshot()
        hits = [m for m in snapshot["counters"]
                if m["name"] == "drbac_crypto_memo_object_hits_total"]
        assert hits and hits[0]["value"] == 1


class TestWorkerThreadScopeSafety:
    def test_thread_does_not_inherit_caller_scope(self):
        default = obs.registry()
        seen = {}
        with obs.scoped():
            worker = threading.Thread(
                target=lambda: seen.update(registry=obs.registry()))
            worker.start()
            worker.join()
        assert seen["registry"] is default

    def test_scope_exit_during_in_flight_worker_use(self):
        """The main thread leaves the scope while a worker is still
        writing through its captured handle: every increment lands in
        the captured registry and the exit is never observed."""
        entered = threading.Event()
        release = threading.Event()

        def work(registry):
            counter = registry.counter("drbac_inflight_probe")
            counter.inc()
            entered.set()
            release.wait(timeout=5)
            counter.inc()

        with obs.scoped() as scope:
            worker = threading.Thread(target=work,
                                      args=(obs.registry(),))
            worker.start()
            assert entered.wait(timeout=5)
        # Scope is gone on this thread; the worker finishes afterwards.
        release.set()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert scope.registry.counter("drbac_inflight_probe").value == 2

    def test_worker_reenters_scope_independently(self):
        """The shard pattern: each worker enters scoped() itself; the
        main thread's exit order cannot bleed state across threads."""
        registries = {}
        barrier = threading.Barrier(3, timeout=5)

        def shard(name):
            with obs.scoped() as scope:
                barrier.wait()
                obs.counter("drbac_shard_probe").inc()
                registries[name] = scope.registry

        threads = [threading.Thread(target=shard, args=(f"s{i}",))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(registries) == 3
        assert len({id(r) for r in registries.values()}) == 3
        for registry in registries.values():
            assert registry.counter("drbac_shard_probe").value == 1

    def test_memo_scope_exit_during_worker_use(self):
        entered = threading.Event()
        release = threading.Event()

        def work(memo):
            memo.clear()
            entered.set()
            release.wait(timeout=5)
            memo.clear()

        with verify_cache.scoped() as memo:
            worker = threading.Thread(target=work, args=(memo,))
            worker.start()
            assert entered.wait(timeout=5)
        release.set()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert verify_cache.memo() is not memo
