"""Code linter's concurrency rules: exact plant recovery, clean-tree
zero; the runtime lock sanitizer."""

import os
import queue
import textwrap
import threading
import time

import pytest

from codelint import RULES, lint_paths as analyze_paths
from codelint.workload import make_code_defect_workload
from repro.analysis.static.findings import Severity
from repro.analysis.static.rules import (
    RuleSelectionError, rule_catalog, select_rules,
)
from tests.sanitizer import LockSanitizer

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

ALL_RULES = (
    "blocking-in-async", "lock-discipline", "lock-order-cycle",
    "scope-escape", "unawaited-coroutine", "fire-and-forget-task",
    "contextvar-discipline",
)


def conc_rule_catalog():
    """The concurrency rules of the code linter's catalogue."""
    return tuple(r for r in rule_catalog(RULES) if r.id in ALL_RULES)


def select_conc_rules(only=None, ignore=None):
    """A selection over the code registry, narrowed to these rules."""
    return [r for r in select_rules(only, ignore, RULES)
            if r.id in ALL_RULES]


def analyze_source(tmp_path, source, name="mod.py", **kwargs):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return analyze_paths([str(tmp_path)], root=str(tmp_path), **kwargs)


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert set(ALL_RULES) <= set(RULES)

    def test_catalog_orders_match_registry(self):
        assert tuple(r.id for r in conc_rule_catalog()) == ALL_RULES

    def test_select_only_and_ignore(self):
        only = select_conc_rules(only=["lock-discipline"])
        assert [r.id for r in only] == ["lock-discipline"]
        rest = select_conc_rules(ignore=["lock-discipline"])
        assert "lock-discipline" not in {r.id for r in rest}
        assert len(rest) == len(ALL_RULES) - 1

    def test_unknown_rule_raises(self):
        with pytest.raises(RuleSelectionError):
            select_conc_rules(only=["no-such-rule"])


class TestPlantRecovery:
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_defective_tree_recovered_exactly(self, tmp_path, seed):
        workload = make_code_defect_workload(seed=seed)
        workload.write_to(str(tmp_path))
        report = workload.analyze()
        assert workload.verify(report) == []
        assert set(report.ids_by_rule()) == set(ALL_RULES) | {
            "frozen-setattr"}
        assert workload.n_plants() >= 8

    def test_clean_tree_zero_findings(self, tmp_path):
        workload = make_code_defect_workload(seed=3, clean=True)
        workload.write_to(str(tmp_path))
        report = workload.analyze()
        assert len(report.findings) == 0
        assert workload.expected == {}

    def test_filler_modules_stay_clean(self, tmp_path):
        workload = make_code_defect_workload(seed=5, clean=True,
                                             filler_modules=8)
        workload.write_to(str(tmp_path))
        report = workload.analyze()
        assert len(report.findings) == 0
        assert report.extras["files"] > 8

    def test_filler_does_not_change_defective_expectations(self, tmp_path):
        bare = make_code_defect_workload(seed=7)
        padded = make_code_defect_workload(seed=7, filler_modules=6)
        assert bare.expected == padded.expected
        padded.write_to(str(tmp_path))
        assert padded.verify(padded.analyze()) == []


class TestRepoTreeIsClean:
    """Satellite pin: the analyzer found no latent violation in src/;
    keep it that way (this is the regression test the issue asks for
    when the tree is clean)."""

    @pytest.fixture(scope="class")
    def repo_report(self):
        return analyze_paths([os.path.join(REPO_ROOT, "src", "repro")],
                             root=REPO_ROOT)

    def test_zero_findings_on_src(self, repo_report):
        details = [str(f) for f in repo_report.findings]
        assert details == []

    def test_service_and_net_in_scope(self, repo_report):
        # The walk must actually cover the packages the rules protect.
        assert repo_report.extras["files"] > 80
        assert repo_report.edges > 1000

    def test_transport_coroutines_modeled(self):
        # The door is protocol callbacks, not a coroutine: the loop runs
        # its buffer_updated (a buffered protocol's data_received), so
        # that is a root of the async reach.
        from codelint.model import RepoModel
        from codelint.rules import CodeContext
        model = RepoModel.build(
            [os.path.join(REPO_ROOT, "src", "repro", "service")],
            root=REPO_ROOT)
        ctx = CodeContext(model)
        door = "repro.service.transport._Connection.buffer_updated"
        (received,) = [fn for fn in model.all_functions()
                       if fn.qualname == door]
        assert ctx.coroutine_origin(received) == (door, (door,))
        pump = next(fn for fn in model.all_functions()
                    if fn.qualname == "repro.service.transport."
                                      "_Connection._pump")
        assert ctx.coroutine_origin(pump)[0].startswith(
            "repro.service.transport._Connection.")

    def test_shard_activate_recognized_as_scope(self):
        from codelint.model import RepoModel
        model = RepoModel.build(
            [os.path.join(REPO_ROOT, "src", "repro")], root=REPO_ROOT)
        activate = next(fn for fn in model.all_functions()
                        if fn.qualname ==
                        "repro.service.shard.ShardContext.activate")
        assert activate.enters_scope


class TestRulePrecision:
    """Targeted positives/negatives beyond the workload plants."""

    def test_str_join_not_flagged(self, tmp_path):
        report = analyze_source(tmp_path, """
            async def render(parts):
                return ", ".join(parts)
        """)
        assert len(report.findings) == 0

    def test_thread_join_on_coroutine_stack_flagged(self, tmp_path):
        report = analyze_source(tmp_path, """
            async def stop(worker):
                worker.join()
        """)
        assert [f.rule_id for f in report.findings] == \
            ["blocking-in-async"]

    def test_future_result_with_timeout_allowed(self, tmp_path):
        report = analyze_source(tmp_path, """
            async def poll(fut):
                return fut.result(timeout=0)
        """)
        assert len(report.findings) == 0

    def test_blocking_unreachable_from_sync_only_code(self, tmp_path):
        report = analyze_source(tmp_path, """
            import time

            def nap():
                time.sleep(1)
        """)
        assert len(report.findings) == 0

    def test_suppression_comment_silences_rule(self, tmp_path):
        report = analyze_source(tmp_path, """
            import time

            async def nap():
                time.sleep(0)  # lint: allow=blocking-in-async
        """)
        assert len(report.findings) == 0
        assert report.extras["suppressed"] == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        report = analyze_source(tmp_path, """
            import time

            async def nap():
                time.sleep(0)  # lint: allow=lock-discipline
        """)
        assert [f.rule_id for f in report.findings] == \
            ["blocking-in-async"]

    def test_bare_acquire_with_finally_release_allowed(self, tmp_path):
        report = analyze_source(tmp_path, """
            import threading

            GUARD = threading.Lock()

            def critical(work):
                GUARD.acquire()
                try:
                    return work()
                finally:
                    GUARD.release()
        """)
        assert len(report.findings) == 0

    def test_consistent_nesting_no_cycle(self, tmp_path):
        report = analyze_source(tmp_path, """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def one():
                with A:
                    with B:
                        pass

            def two():
                with A:
                    with B:
                        pass
        """)
        assert len(report.findings) == 0

    def test_transitive_lock_cycle_detected(self, tmp_path):
        report = analyze_source(tmp_path, """
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def inner_b():
                with B:
                    pass

            def outer_a():
                with A:
                    inner_b()

            def inverted():
                with B:
                    with A:
                        pass
        """)
        assert [f.rule_id for f in report.findings] == \
            ["lock-order-cycle"]

    def test_rlock_reentry_not_flagged(self, tmp_path):
        report = analyze_source(tmp_path, """
            import threading

            GUARD = threading.RLock()

            def outer():
                with GUARD:
                    inner()

            def inner():
                with GUARD:
                    pass
        """)
        assert len(report.findings) == 0

    def test_lock_self_reentry_flagged(self, tmp_path):
        report = analyze_source(tmp_path, """
            import threading

            GUARD = threading.Lock()

            def outer():
                with GUARD:
                    inner()

            def inner():
                with GUARD:
                    pass
        """)
        assert [f.rule_id for f in report.findings] == \
            ["lock-order-cycle"]

    def test_scoped_entry_path_allowed(self, tmp_path):
        report = analyze_source(tmp_path, """
            from repro import obs

            class ShardRuntime:
                def handle(self, request):
                    with obs.scoped():
                        obs.counter("served").inc()
                    return request
        """)
        assert len(report.findings) == 0

    def test_activate_style_contextmanager_propagates_scope(
            self, tmp_path):
        report = analyze_source(tmp_path, """
            from contextlib import contextmanager

            from repro import obs

            class ShardContext:
                @contextmanager
                def activate(self):
                    with obs.scoped():
                        yield self

            class ShardRuntime:
                def __init__(self):
                    self.context = ShardContext()

                def handle(self, request):
                    with self.context.activate():
                        obs.counter("served").inc()
                    return request
        """)
        assert len(report.findings) == 0

    def test_unscoped_surface_from_entry_flagged(self, tmp_path):
        report = analyze_source(tmp_path, """
            from repro import obs

            class ShardRuntime:
                def handle(self, request):
                    obs.counter("served").inc()
                    return request
        """)
        assert [f.rule_id for f in report.findings] == ["scope-escape"]

    def test_non_entry_class_not_walked(self, tmp_path):
        report = analyze_source(tmp_path, """
            from repro import obs

            class Reporter:
                def handle(self, request):
                    obs.counter("served").inc()
                    return request
        """)
        assert len(report.findings) == 0

    def test_entry_classes_override(self, tmp_path):
        report = analyze_source(tmp_path, """
            from repro import obs

            class Reporter:
                def handle(self, request):
                    obs.counter("served").inc()
                    return request
        """, entry_classes=("Reporter",))
        assert [f.rule_id for f in report.findings] == ["scope-escape"]

    def test_coroutine_into_gather_allowed(self, tmp_path):
        report = analyze_source(tmp_path, """
            import asyncio

            async def fetch(key):
                return key

            async def fan_out(keys):
                await asyncio.gather(fetch(keys[0]), fetch(keys[1]))
        """)
        assert len(report.findings) == 0

    def test_bound_task_handle_allowed(self, tmp_path):
        report = analyze_source(tmp_path, """
            import asyncio

            async def watch():
                return 1

            async def run():
                task = asyncio.create_task(watch())
                await task
        """)
        assert len(report.findings) == 0

    def test_contextvar_token_reset_allowed(self, tmp_path):
        report = analyze_source(tmp_path, """
            from contextvars import ContextVar

            ACTIVE = ContextVar("active")

            def enter(value):
                token = ACTIVE.set(value)
                try:
                    return value
                finally:
                    ACTIVE.reset(token)
        """)
        assert len(report.findings) == 0

    def test_severities_match_catalog(self, tmp_path):
        workload = make_code_defect_workload(seed=1)
        workload.write_to(str(tmp_path))
        report = workload.analyze()
        severities = {f.rule_id: f.severity for f in report.findings}
        assert severities["blocking-in-async"] is Severity.ERROR
        assert severities["fire-and-forget-task"] is Severity.WARN
        assert severities["contextvar-discipline"] is Severity.WARN


class TestSanitizer:
    def test_queue_and_condition_compatible(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            q = queue.Queue(maxsize=4)
            results = []

            def worker():
                results.append(q.get())

            thread = threading.Thread(target=worker)
            thread.start()
            q.put("payload")
            thread.join()
        assert results == ["payload"]
        report = sanitizer.report()
        assert report.clean
        assert report.locks_created >= 1
        assert report.acquires > 0

    def test_rlock_condition_wait_keeps_stack_balanced(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            cv = threading.Condition(threading.RLock())
            seen = []

            def waiter():
                with cv:
                    cv.wait(timeout=5)
                    seen.append(1)

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.05)
            with cv:
                cv.notify_all()
            thread.join()
        assert seen == [1]
        assert sanitizer.report().clean

    def test_ab_ba_order_cycle_reported(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            with lock_a:
                with lock_b:
                    pass
            with lock_b:
                with lock_a:
                    pass
        report = sanitizer.report()
        kinds = [v.kind for v in report.violations]
        assert kinds == ["order-cycle"]
        assert report.order_edges == 2

    def test_consistent_order_is_clean(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            for _ in range(3):
                with lock_a:
                    with lock_b:
                        pass
        report = sanitizer.report()
        assert report.clean
        assert report.order_edges == 1
        assert report.max_held_depth == 2

    def test_self_deadlock_raises_instead_of_hanging(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            guard = threading.Lock()
            guard.acquire()
            with pytest.raises(RuntimeError, match="sanitizer"):
                guard.acquire()
            guard.release()
        report = sanitizer.report()
        assert [v.kind for v in report.violations] == ["self-deadlock"]

    def test_rlock_reentry_is_fine(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            guard = threading.RLock()
            with guard:
                with guard:
                    pass
        assert sanitizer.report().clean

    def test_uninstall_restores_factories(self):
        before_lock = threading.Lock
        before_rlock = threading.RLock
        sanitizer = LockSanitizer()
        sanitizer.install()
        assert threading.Lock is not before_lock
        sanitizer.uninstall()
        assert threading.Lock is before_lock
        assert threading.RLock is before_rlock

    def test_report_serializes(self):
        sanitizer = LockSanitizer()
        with sanitizer:
            with threading.Lock():
                pass
        payload = sanitizer.report().to_dict()
        assert set(payload) >= {"violations", "locks_created",
                                "acquires", "order_edges"}
