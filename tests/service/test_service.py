"""Service behavior: routing, shedding, isolation, byte identity.

A small deterministic population exercises the full stack: the router
must return proofs byte-identical to a single-process
``wallet.authorize``, shed typed RETRY_LATER responses past the
high-watermark, keep every shard's verify memo and metrics isolated
from the process-global surfaces, and replay identically from the same
seeds (the property the scaling benchmark's shared-stream methodology
rests on).
"""

import os
import queue
import signal
import threading
import time

import pytest

from repro.core import SimClock
from repro.crypto import verify_cache
from repro.crypto.encoding import canonical_decode, canonical_encode
from repro.obs import MetricsRegistry
from repro.service import (
    LoadGenerator,
    LoadgenConfig,
    Router,
    RouterConfig,
    STATUS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY_LATER,
    ServiceError,
)
from repro.service.population import SERVICE_EPOCH, ServicePopulation
from repro.service.router import RETRY_AFTER_MS
from repro.service.shard import ShardRuntime, ThreadShard
from repro.wallet.wallet import Wallet

POP = ServicePopulation(seed=3, population=400, domains=8,
                        hot_size=50, hot_fraction=0.9)


def _authorize(index):
    return {"op": "authorize",
            "ns": POP.namespace(POP.domain_of(index)),
            "credential": POP.credential(index).to_dict()}


@pytest.fixture()
def router():
    r = Router(POP, RouterConfig(shards=2, mode="inline"),
               registry=MetricsRegistry())
    yield r
    r.close()


# -- correctness ------------------------------------------------------------


def test_authorize_grants_members(router):
    response = router.submit(_authorize(7))
    assert response["status"] == STATUS_OK
    assert response["granted"] is True
    assert "proof" in response


def reference_proof_bytes(index):
    """Single-process ``Wallet.authorize`` for principal ``index``."""
    domain = POP.domain(POP.domain_of(index))
    namespace = POP.namespace(POP.domain_of(index))
    credential = POP.credential(index)
    home = Wallet(owner=domain.authority,
                  address=f"wallet.{namespace}",
                  clock=SimClock(SERVICE_EPOCH))
    home.publish(domain.grant)
    home.publish(credential)
    monitor = home.authorize(credential.subject, domain.access)
    reference = canonical_encode(monitor.proof.to_dict())
    monitor.cancel()
    return reference


def test_proof_bytes_match_single_process_wallet(router):
    for index in (0, 41, 399):
        response = router.submit(_authorize(index))
        assert response["status"] == STATUS_OK
        assert canonical_encode(response["proof"]) == \
            reference_proof_bytes(index)


def test_revoked_credential_is_denied(router):
    index = 123
    assert router.submit({
        "op": "publish",
        "ns": POP.namespace(POP.domain_of(index)),
        "credential": POP.credential(index).to_dict(),
    })["status"] == STATUS_OK
    revocation = POP.revocation(index, revoked_at=SERVICE_EPOCH)
    assert router.submit({
        "op": "revoke",
        "ns": POP.namespace(POP.domain_of(index)),
        "revocation": revocation.to_dict(),
    })["status"] == STATUS_OK
    response = router.submit(_authorize(index))
    assert response["status"] == STATUS_DENIED
    assert response.get("granted") is not True
    assert "reason" in response


def test_every_namespace_routes_to_exactly_one_shard(router):
    seen = {}
    for domain_index in range(POP.domains):
        namespace = POP.namespace(domain_index)
        seen[namespace] = router.route(namespace)
    stats = router.stats()
    hosted = {ns: shard_id
              for shard_id, shard in stats["shards"].items()
              for ns in shard["namespaces"]}
    assert hosted == seen


# -- error surfaces ---------------------------------------------------------


def test_missing_namespace_is_a_typed_error(router):
    response = router.submit({"op": "authorize"})
    assert response["status"] == STATUS_ERROR


def test_unknown_namespace_is_a_typed_error(router):
    response = router.submit(
        {"op": "authorize", "ns": "nowhere.example"})
    assert response["status"] == STATUS_ERROR


def test_unknown_op_is_a_typed_error(router):
    response = router.submit(
        {"op": "frobnicate", "ns": POP.namespace(0)})
    assert response["status"] == STATUS_ERROR


def test_responses_echo_request_ids(router):
    response = router.submit(
        {"op": "ping", "ns": POP.namespace(0), "id": 42})
    assert response["id"] == 42


def test_config_validation():
    with pytest.raises(ServiceError):
        RouterConfig(shards=0)
    with pytest.raises(ServiceError):
        RouterConfig(mode="carrier-pigeon")
    with pytest.raises(ServiceError):
        RouterConfig(queue_depth=8, high_watermark=9)


# -- backpressure -----------------------------------------------------------


def test_overload_sheds_typed_retry_later():
    config = RouterConfig(shards=1, mode="thread", queue_depth=8,
                          high_watermark=4)
    router = Router(POP, config, registry=MetricsRegistry())
    try:
        futures = [router.submit_nowait(_authorize(i % 40))
                   for i in range(200)]
        responses = [f.result() for f in futures]
    finally:
        router.close()
    shed = [r for r in responses if r["status"] == STATUS_RETRY_LATER]
    served = [r for r in responses if r["status"] == STATUS_OK]
    assert shed, "flooding a depth-8 queue must shed"
    assert served, "admission control must still serve within capacity"
    for response in shed:
        assert response["retry_after_ms"] == RETRY_AFTER_MS
        assert response["shard"] == "shard-0"


def _call_from_threads(router, requests):
    """One caller thread per request; ``(threads, responses)`` with
    ``responses[i]`` filled in when ``requests[i]`` is answered."""
    responses = [None] * len(requests)

    def caller(slot):
        responses[slot] = router.submit(requests[slot])

    threads = [threading.Thread(target=caller, args=(slot,), daemon=True)
               for slot in range(len(requests))]
    for thread in threads:
        thread.start()
    return threads, responses


def _wait_for(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def test_process_overload_sheds_typed_retry_later_without_blocking():
    # Lock-step callers count as pending while they wait: with the
    # worker stopped, high_watermark callers are admitted and block,
    # and everyone after them is shed at once, typed.
    config = RouterConfig(shards=1, mode="process", queue_depth=8,
                          high_watermark=4)
    router = Router(POP, config, registry=MetricsRegistry())
    backend = router._backends["shard-0"]
    worker = backend._process.pid
    try:
        os.kill(worker, signal.SIGSTOP)
        threads, admitted = _call_from_threads(
            router, [_authorize(i) for i in range(config.high_watermark)])
        _wait_for(lambda: backend.pending() == config.high_watermark)
        for index in range(20):
            future = router.submit_nowait(_authorize(index))
            assert future.done()
            response = future.result()
            assert response["status"] == STATUS_RETRY_LATER
            assert response["retry_after_ms"] == RETRY_AFTER_MS
            assert response["shard"] == "shard-0"
        assert backend.pending() == config.high_watermark
        os.kill(worker, signal.SIGCONT)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert [r["status"] for r in admitted] == \
            [STATUS_OK] * config.high_watermark
        assert backend.pending() == 0
        snapshot = router.registry.snapshot()
        shed = [c["value"] for c in snapshot["counters"]
                if c["name"] == "drbac_service_shed_total"]
        assert shed == [20]
    finally:
        os.kill(worker, signal.SIGCONT)
        router.close()


def test_queue_depth_caps_what_bypasses_admission_control():
    # stats() goes straight to the backend; past queue_depth the
    # backend itself refuses, and the router types that retry-later.
    config = RouterConfig(shards=1, mode="process", queue_depth=2,
                          high_watermark=2)
    router = Router(POP, config, registry=MetricsRegistry())
    backend = router._backends["shard-0"]
    worker = backend._process.pid
    try:
        os.kill(worker, signal.SIGSTOP)
        threads, _ = _call_from_threads(
            router, [_authorize(i) for i in range(2)])
        _wait_for(lambda: backend.pending() == 2)
        with pytest.raises(queue.Full):
            backend.relay({"op": "stats"}, canonical_encode({"op": "stats"}),
                          lambda answer: None)
        os.kill(worker, signal.SIGCONT)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    finally:
        os.kill(worker, signal.SIGCONT)
        router.close()


def test_shed_decisions_never_block(router):
    # submit_nowait resolves shed responses immediately even when the
    # caller never touches the backend.
    future = router.submit_nowait({"op": "authorize"})
    assert future.done()
    assert future.result()["status"] == STATUS_ERROR


# -- isolation --------------------------------------------------------------


def test_shard_memos_stay_out_of_global_state(router):
    verify_cache.cache_clear()
    before = verify_cache.cache_info()
    for index in range(10):
        assert router.submit(_authorize(index))["status"] == STATUS_OK
    after = verify_cache.cache_info()
    assert after["entries"] == before["entries"]
    assert after["misses"] == before["misses"]
    stats = router.stats()
    shard_lookups = sum(
        shard["memo"]["hits"] + shard["memo"]["misses"]
        for shard in stats["shards"].values())
    assert shard_lookups > 0


def test_router_metrics_live_on_the_injected_registry(router):
    router.submit(_authorize(3))
    snapshot = router.registry.snapshot()
    names = {metric["name"] for metric in snapshot["counters"]}
    assert "drbac_service_requests_total" in names


# -- loadgen ----------------------------------------------------------------


def test_loadgen_streams_are_deterministic():
    config = LoadgenConfig(requests=120, seed=5, authorize_weight=0.8,
                           publish_weight=0.15, revoke_weight=0.05)
    first = LoadGenerator(POP, submit=None, config=config)
    second = LoadGenerator(POP, submit=None, config=config)
    assert first.build_requests() == second.build_requests()


def test_loadgen_mix_must_sum_to_one():
    with pytest.raises(ValueError):
        LoadgenConfig(authorize_weight=0.5, publish_weight=0.1,
                      revoke_weight=0.1)


def test_loadgen_run_reports_grants(router):
    config = LoadgenConfig(requests=60, seed=2, authorize_weight=1.0,
                           publish_weight=0.0, revoke_weight=0.0)
    report = LoadGenerator(POP, router.submit, config).run()
    assert report.requests == 60
    assert report.granted == 60
    assert report.denied == 0
    assert report.qps > 0
    assert set(report.latency_ms) >= {"p50", "p95", "p99", "max"}


# -- worker backends --------------------------------------------------------


def test_thread_mode_serves_concurrent_callers():
    router = Router(POP, RouterConfig(shards=2, mode="thread"),
                    registry=MetricsRegistry())
    results = queue.Queue()

    def caller(index):
        results.put(router.submit(_authorize(index))["status"])

    try:
        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        router.close()
    statuses = [results.get_nowait() for _ in range(12)]
    assert all(s in (STATUS_OK, STATUS_RETRY_LATER) for s in statuses)
    assert STATUS_OK in statuses


def test_a_thread_shard_outlives_a_reply_that_raises():
    backend = ThreadShard(ShardRuntime("shard-0", POP, POP.namespaces()))
    answers = queue.Queue()

    def broken(_answer):
        raise RuntimeError("the caller's reply fails")

    payload = canonical_encode(_authorize(9))
    try:
        backend.relay({}, payload, broken)
        backend.relay({}, payload, answers.put)
        answer = canonical_decode(answers.get(timeout=10.0))
        assert answer["granted"] is True
        _wait_for(lambda: backend.pending() == 0)
    finally:
        backend.close()


def test_process_mode_round_trips():
    router = Router(POP, RouterConfig(shards=2, mode="process"),
                    registry=MetricsRegistry())
    try:
        response = router.submit(_authorize(9))
        assert response["status"] == STATUS_OK
        assert response["granted"] is True
        stats = router.stats()
        assert set(stats["shards"]) == {"shard-0", "shard-1"}
    finally:
        router.close()


def test_process_worker_bounds_the_frames_it_writes():
    # The answer (an error quoting the op's repr, ~4 bytes a byte)
    # would pass DEFAULT_MAX_FRAME; the worker says so in a frame that
    # fits and keeps serving.
    router = Router(POP, RouterConfig(shards=1, mode="process"),
                    registry=MetricsRegistry())
    try:
        response = router.submit(
            {"op": b"\x00" * 600_000, "ns": POP.namespace(0)})
        assert response["status"] == STATUS_ERROR
        assert response["shard"] == "shard-0"
        assert "exceeds" in response["error"]
        assert router.submit(_authorize(9))["status"] == STATUS_OK
    finally:
        router.close()


def test_killed_worker_fails_typed_and_other_shards_keep_serving():
    router = Router(POP, RouterConfig(shards=2, mode="process"),
                    registry=MetricsRegistry())
    by_shard = {}
    for index in range(40):
        by_shard.setdefault(router.route(
            POP.namespace(POP.domain_of(index))), []).append(index)
    doomed, healthy = by_shard["shard-0"], by_shard["shard-1"]
    backend = router._backends["shard-0"]
    worker = backend._process.pid
    try:
        assert router.submit(_authorize(doomed[0]))["status"] == STATUS_OK
        # Mid-load: callers are inside, or queued for, the lock step.
        os.kill(worker, signal.SIGSTOP)
        threads, in_flight = _call_from_threads(
            router, [dict(_authorize(i), id=i) for i in doomed[:5]])
        _wait_for(lambda: backend.pending() == 5)
        os.kill(worker, signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "a dead worker must not hang"
        later = router.submit(_authorize(doomed[5]))
        for response, index in zip(in_flight, doomed):
            assert response == {"status": STATUS_ERROR, "id": index,
                                "error": "shard-unavailable",
                                "shard": "shard-0"}
        assert later == {"status": STATUS_ERROR, "shard": "shard-0",
                         "error": "shard-unavailable"}
        assert backend.pending() == 0
        for index in healthy[:5]:
            assert router.submit(_authorize(index))["status"] == STATUS_OK
    finally:
        router.close()
