"""The repo invariant linter: clean on src, sharp on planted breaches."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from typing import NamedTuple

import pytest

import codelint
import reprolint as reprolint_cli
from codelint.model import SourceModule, _index_nodes, iter_python_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPROLINT = os.path.join(REPO_ROOT, "tools", "reprolint.py")


class Hit(NamedTuple):
    rule: str
    locator: str


class reprolint:
    """The per-file surface these tests were written against, served
    by the one code linter: a finding becomes a ``Hit``."""

    RULE_IDS = tuple(codelint.RULES)
    iter_python_files = staticmethod(iter_python_files)

    @staticmethod
    def lint_file(path):
        report = codelint.lint_paths([path])
        return [Hit(f.rule_id, f.delegation_ids[0]) for f in report]

    @staticmethod
    def _index_tree(tree):
        module = SourceModule(path="", relpath="", modname="", tree=tree)
        _index_nodes(module)
        return module


def run_reprolint(*targets):
    return subprocess.run(
        [sys.executable, REPROLINT, *targets],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )


def lint_source(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return reprolint.lint_file(str(path))


class TestRepoIsClean:
    def test_src_passes(self):
        result = run_reprolint("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 violation(s)" in result.stderr

    def test_tools_pass(self):
        result = run_reprolint("tools")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_discovery_fastpath_modules_in_scope(self):
        """The fast-path modules (PR 4) ride the src walk; pin them so a
        future scope change can't silently drop them from the linter."""
        walked = {p.replace(os.sep, "/") for p in
                  reprolint.iter_python_files(
                      [os.path.join(REPO_ROOT, "src")])}
        for needed in ("src/repro/discovery/result_cache.py",
                       "src/repro/discovery/wire.py",
                       "src/repro/discovery/engine.py",
                       "src/repro/net/switchboard.py",
                       "src/repro/net/rpc.py"):
            assert any(path.endswith(needed) for path in walked), needed


class TestClockDiscipline:
    def test_time_time_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            import time
            def stamp():
                return time.time()
        """)
        assert [v.rule for v in violations] == ["clock-discipline"]

    def test_from_import_alias_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            from time import time as wallclock
            def stamp():
                return wallclock()
        """)
        assert [v.rule for v in violations] == ["clock-discipline"]

    def test_datetime_now_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            import datetime
            def stamp():
                return datetime.datetime.now()
        """)
        assert [v.rule for v in violations] == ["clock-discipline"]

    def test_perf_counter_allowed(self, tmp_path):
        assert lint_source(tmp_path, """
            from time import perf_counter
            import time
            def measure():
                return perf_counter() + time.perf_counter()
        """) == []

    def test_clock_abstraction_allowed(self, tmp_path):
        assert lint_source(tmp_path, """
            def query(wallet):
                return wallet.clock.now()
        """) == []

    def test_aliased_module_imports_flagged(self, tmp_path):
        """`import time as t` does not hide `t.time()` (nor does a
        module-level read escape because it is outside a function)."""
        violations = lint_source(tmp_path, """
            import time as t
            import datetime as dt

            STAMP = t.time()

            def stamp():
                return t.time(), dt.datetime.now()
        """, name="a.py")
        assert [v.rule for v in violations] == ["clock-discipline"] * 3
        assert sorted(v.locator for v in violations) == [
            "a.py:5", "a.py:8", "a.py:8"]

    def test_core_clock_module_exempt(self, tmp_path):
        clock_dir = tmp_path / "core"
        clock_dir.mkdir()
        path = clock_dir / "clock.py"
        path.write_text("import time\n\ndef now():\n"
                        "    return time.time()\n")
        assert reprolint.lint_file(str(path)) == []


class TestGraphEventCoupling:
    def test_silent_mutation_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            def sneak(store, delegation):
                store.add_delegation(delegation, ())
        """)
        assert [v.rule for v in violations] == ["graph-event-coupling"]

    def test_graph_add_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            def sneak(store, delegation):
                store.graph.add(delegation)
        """)
        assert [v.rule for v in violations] == ["graph-event-coupling"]

    def test_mutation_with_publish_allowed(self, tmp_path):
        assert lint_source(tmp_path, """
            def proper(self, delegation, event):
                self.store.add_delegation(delegation, ())
                self.hub.publish(event)
        """) == []

    def test_detached_graph_layers_exempt(self, tmp_path):
        layer = tmp_path / "workloads"
        layer.mkdir()
        path = layer / "builder.py"
        path.write_text("def build(graph, d):\n    graph.add(d)\n")
        # `graph.add` on a bare name is not a tracked receiver anyway;
        # use the store form to prove the path exemption does the work.
        path.write_text("def build(store, d):\n"
                        "    store.add_delegation(d, ())\n")
        assert reprolint.lint_file(str(path)) == []


class TestMutableDefaults:
    def test_literal_default_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            def accumulate(item, seen=[]):
                seen.append(item)
                return seen
        """)
        assert [v.rule for v in violations] == ["mutable-default"]

    def test_constructor_default_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            def accumulate(item, *, seen=dict()):
                return seen
        """)
        assert [v.rule for v in violations] == ["mutable-default"]

    def test_none_sentinel_allowed(self, tmp_path):
        assert lint_source(tmp_path, """
            def accumulate(item, seen=None):
                return seen or [item]
        """) == []


class TestFrozenSetattr:
    def test_setattr_flagged(self, tmp_path):
        violations = lint_source(tmp_path, """
            def pierce(obj):
                object.__setattr__(obj, "x", 1)
        """)
        assert [v.rule for v in violations] == ["frozen-setattr"]

    def test_owning_module_exempt(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        path = core / "delegation.py"
        path.write_text("def cache(obj):\n"
                        "    object.__setattr__(obj, '_memo', 1)\n")
        assert reprolint.lint_file(str(path)) == []

    def test_value_caches_stay_in_their_own_modules(self):
        """Entities, roles and tags cache in their own modules; the
        certificate module caches on certificates, never on a Role or
        an Entity it holds."""
        from codelint.rules import SETATTR_ALLOWED_SUFFIXES
        assert set(SETATTR_ALLOWED_SUFFIXES) == {
            "core/delegation.py", "core/attributes.py", "core/proof.py",
            "crypto/keys.py", "core/identity.py", "core/roles.py",
            "core/tags.py"}
        path = os.path.join(REPO_ROOT, "src", "repro", "core",
                            "delegation.py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        targets = {ast.unparse(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "__setattr__"}
        assert targets == {"self", "certificates[index]"}

    def test_workload_plant_is_caught(self, tmp_path):
        from codelint.workload import make_code_defect_workload
        workload = make_code_defect_workload(seed=0)
        (plant,) = workload.expected["frozen-setattr"]
        assert plant.startswith("pkg/core/graphlike.py:")
        workload.write_to(str(tmp_path))
        report = workload.analyze(rules=["frozen-setattr"])
        assert report.ids_by_rule() == {"frozen-setattr": (plant,)}


class TestServiceInjection:
    def _lint_service_module(self, tmp_path, source):
        service = tmp_path / "repro" / "service"
        service.mkdir(parents=True)
        path = service / "module.py"
        path.write_text(textwrap.dedent(source))
        return reprolint.lint_file(str(path))

    def test_global_registry_access_flagged(self, tmp_path):
        violations = self._lint_service_module(tmp_path, """
            from repro import obs
            def count():
                obs.counter("drbac_service_x").inc()
        """)
        assert [v.rule for v in violations] == ["service-injection"]

    def test_global_memo_access_flagged(self, tmp_path):
        violations = self._lint_service_module(tmp_path, """
            from repro.crypto import verify_cache
            def peek():
                return verify_cache.cache_info()
        """)
        assert [v.rule for v in violations] == ["service-injection"]

    def test_from_imported_surface_flagged(self, tmp_path):
        violations = self._lint_service_module(tmp_path, """
            from repro.obs import get_registry
            def peek():
                return get_registry().snapshot()
        """)
        assert [v.rule for v in violations] == ["service-injection"]

    def test_aliased_surfaces_flagged(self, tmp_path):
        violations = self._lint_service_module(tmp_path, """
            from repro import obs as o
            import repro.crypto.verify_cache as vc

            def peek():
                o.counter("x").inc()
                return vc.cache_info()
        """)
        assert [v.rule for v in violations] == ["service-injection"] * 2

    def test_scoped_and_injected_handles_allowed(self, tmp_path):
        assert self._lint_service_module(tmp_path, """
            from repro import obs
            from repro.crypto import verify_cache
            from repro.obs import MetricsRegistry

            def shardwork(memo):
                registry = MetricsRegistry()
                with obs.scoped(registry=registry):
                    with verify_cache.scoped(memo):
                        registry.counter("ok").inc()
        """) == []

    def test_rule_is_scoped_to_the_service_package(self, tmp_path):
        # The same access is legal elsewhere (e.g. the CLI wires the
        # process-global registry into the router on purpose).
        path = tmp_path / "cli.py"
        path.write_text("from repro import obs\n"
                        "def peek():\n"
                        "    return obs.get_registry()\n")
        assert reprolint.lint_file(str(path)) == []

    def test_service_package_in_walk_scope(self):
        walked = {p.replace(os.sep, "/") for p in
                  reprolint.iter_python_files(
                      [os.path.join(REPO_ROOT, "src")])}
        for needed in ("src/repro/service/router.py",
                       "src/repro/service/shard.py",
                       "src/repro/service/transport.py",
                       "src/repro/service/loadgen.py"):
            assert any(path.endswith(needed) for path in walked), needed


class TestCli:
    def test_exit_one_and_report_on_violations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef t(x=[]):\n"
                       "    return time.time()\n")
        result = run_reprolint(str(tmp_path))
        assert result.returncode == 1
        assert "clock-discipline" in result.stdout
        assert "mutable-default" in result.stdout

    def test_syntax_error_reported(self, tmp_path):
        (tmp_path / "broken.py").write_text("def (:\n")
        result = run_reprolint(str(tmp_path))
        assert result.returncode == 1
        assert "syntax" in result.stdout


class TestSharedPass:
    """One parse + one walk per file feeds every rule."""

    def test_index_buckets_every_rule_input(self, tmp_path):
        path = tmp_path / "mixed.py"
        path.write_text(textwrap.dedent("""
            import ast
            from time import perf_counter

            def work(items, extra=None):
                total = 0
                total += len(items)
                return total
        """))
        import ast as ast_module
        tree = ast_module.parse(path.read_text())
        index = reprolint._index_tree(tree)
        assert len(index.calls) == 1
        assert len(index.import_froms) == 1
        assert len(index.func_defs) == 1
        assert len(index.aug_assigns) == 1

    def test_multi_rule_file_single_parse(self, tmp_path):
        violations = lint_source(tmp_path, """
            import time

            def stamp(seen=[]):
                seen.append(time.time())
                return seen
        """)
        assert sorted(v.rule for v in violations) == [
            "clock-discipline", "mutable-default"]


class TestJsonMode:
    """--json mirrors the drbac lint --json report shape."""

    LINT_REPORT_KEYS = {"at", "edges", "source", "rules_run",
                        "elapsed_seconds", "counts", "findings"}
    FINDING_KEYS = {"rule", "severity", "message", "delegations",
                    "fix_hint"}

    def test_clean_tree_payload(self, tmp_path):
        (tmp_path / "ok.py").write_text("def ok():\n    return 1\n")
        result = run_reprolint(str(tmp_path), "--json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert set(payload) == self.LINT_REPORT_KEYS
        assert payload["edges"] == 1
        assert payload["counts"] == {"error": 0, "warn": 0, "info": 0}
        assert payload["findings"] == []
        assert payload["rules_run"] == list(reprolint.RULE_IDS)

    def test_violations_become_locator_findings(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\n\ndef t():\n    return time.time()\n")
        result = run_reprolint(str(tmp_path), "--json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["counts"]["error"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == self.FINDING_KEYS
        assert finding["rule"] == "clock-discipline"
        assert finding["severity"] == "error"
        (locator,) = finding["delegations"]
        assert locator.endswith("bad.py:4")

    def test_same_shape_as_drbac_lint_json(self, tmp_path):
        """Byte-for-byte key parity with the policy analyzer report."""
        (tmp_path / "ok.py").write_text("def ok():\n    return 1\n")
        lint_result = run_reprolint(str(tmp_path), "--json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        workspace = str(tmp_path / "ws")
        for args in (["entity", "create", "BigISP"], ["lint", "--json"]):
            drbac = subprocess.run(
                [sys.executable, "-m", "repro.cli", "-w", workspace, *args],
                cwd=REPO_ROOT, env=env, capture_output=True, text=True)
            assert drbac.returncode == 0, drbac.stdout + drbac.stderr
        ours = json.loads(lint_result.stdout)
        theirs = json.loads(drbac.stdout)
        assert set(ours) == set(theirs)
        assert set(ours["counts"]) == set(theirs["counts"])


CODE_RULE_IDS = (
    "clock-discipline", "graph-event-coupling", "mutable-default",
    "frozen-setattr", "obs-discipline", "service-injection",
    "blocking-in-async", "lock-discipline", "lock-order-cycle",
    "scope-escape", "unawaited-coroutine", "fire-and-forget-task",
    "contextvar-discipline",
)


class TestOneLinter:
    """One registry, one parse per file, one command."""

    def test_registry_lists_thirteen_rules_in_order(self):
        assert tuple(codelint.RULES) == CODE_RULE_IDS

    def test_src_and_tools_parse_each_file_once(self, monkeypatch,
                                                capsys):
        monkeypatch.chdir(REPO_ROOT)
        files = list(iter_python_files(["src", "tools"]))
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kw):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kw)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert reprolint_cli.main(["src", "tools"]) == 0
        assert sorted(parsed) == sorted(files)
        assert "0 violation(s)" in capsys.readouterr().err
