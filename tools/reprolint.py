#!/usr/bin/env python
"""Repo invariant linter: AST checks the test suite can't express.

Five invariants the codebase relies on but Python won't enforce:

* **clock-discipline** -- all wall-clock reads go through the
  ``repro.core.clock`` abstraction. Direct ``time.time()`` /
  ``datetime.now()`` calls make simulations non-deterministic and
  queries non-reproducible; only ``core/clock.py`` may touch the real
  clock. (``perf_counter``/``monotonic`` are fine: they measure
  durations, not policy-relevant instants.)
* **graph-event-coupling** -- any module that mutates a delegation
  graph must also publish subscription-hub events somewhere; silent
  mutations strand the proof cache, the reachability index, and every
  Section 4.2.2 subscriber. Pure-graph layers (``graph/``, analysis,
  workload builders, baselines) are exempt: they operate on detached
  graphs no hub watches.
* **mutable-default** -- no ``[]`` / ``{}`` / ``set()`` default
  arguments (shared across calls; a classic source of cross-wallet
  state bleed).
* **frozen-setattr** -- ``object.__setattr__`` escapes frozen
  dataclasses' immutability; only the modules that own a frozen type's
  construction-time caches may use it.
* **obs-discipline** -- the instrumented hot-path modules keep their
  tallies in the observability registry (``repro.obs``). A bare
  ``self.<counter> += n`` there is a hand-rolled counter the exporters
  (``drbac metrics``, ``--metrics-out``) can't see; increment a
  registry-backed ``Counter`` instead. Sequence numbers and per-run
  result dataclasses (receiver other than plain ``self``) are fine.
* **service-injection** -- the sharded service (``repro/service/``)
  never touches the process-global observability registry or verify
  memo: every shard runs inside its own ``obs.scoped()`` /
  ``verify_cache.scoped()`` context, and the router writes to an
  *injected* ``MetricsRegistry``. A direct ``obs.counter(...)`` or
  ``verify_cache.cache_info()`` there would silently couple shards to
  each other (and to the host process) through shared state the
  scoping design exists to eliminate. ``scoped()`` entry points and
  direct class construction stay legal.

Each file is parsed and walked exactly once: a shared node index
(calls, imports, defs, augmented assigns) feeds every rule, so adding
a rule costs a list scan, not another full AST traversal.

Usage::

    python tools/reprolint.py src [more dirs or files ...]
    python tools/reprolint.py src --jobs 4 --json

``--jobs N`` fans the per-file work out over N worker processes
(identical output to the serial walk; per-file results are
independent). ``--json`` emits the same report shape as ``drbac lint
--json`` (documented in docs/LINT_RULES.md): violations become
findings whose ``delegations`` carry ``path:line`` locators and
``edges`` counts the files checked.

Exits 1 if any violation is found. Run as a tier-1 test via
``tests/test_reprolint.py`` and as a CI step.
"""

import argparse
import ast
import json
import os
import sys
import time
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple


class Violation(NamedTuple):
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


RULE_IDS = ("clock-discipline", "graph-event-coupling",
            "mutable-default", "frozen-setattr", "obs-discipline",
            "service-injection")

# Files (by normalized path suffix) allowed to read the wall clock.
CLOCK_ALLOWED_SUFFIXES = ("core/clock.py",)
# time-module members that measure durations, not instants.
CLOCK_SAFE_ATTRS = {"perf_counter", "perf_counter_ns", "monotonic",
                    "monotonic_ns", "process_time", "sleep"}
# Receivers whose .now()/.today() are the real clock (never a
# repro Clock instance, whose receiver is `clock`/`self.clock`).
CLOCK_BAD_RECEIVERS = {"datetime", "datetime.datetime", "date",
                       "datetime.date"}

# Modules allowed to mutate delegation graphs without publishing
# events: detached-graph layers no subscription hub observes.
EVENT_EXEMPT_SEGMENTS = ("/graph/", "/workloads/", "/analysis/",
                         "/baselines/", "/tools/")
EVENT_EXEMPT_SUFFIXES = ("wallet/storage.py",)

# Modules that own frozen-dataclass construction-time caches.
SETATTR_ALLOWED_SUFFIXES = ("core/delegation.py", "core/attributes.py",
                            "core/proof.py", "crypto/keys.py")

# Modules whose counters moved into the observability registry; a bare
# `self.<counter> += n` here has escaped the exporters.
OBS_INSTRUMENTED_SUFFIXES = (
    "wallet/wallet.py", "graph/proof_cache.py",
    "crypto/verify_cache.py", "crypto/encoding.py",
    "discovery/engine.py",
    "discovery/result_cache.py", "net/switchboard.py", "net/rpc.py",
    "pubsub/subscriptions.py",
)
# Attribute-name endings that mark a tally (vs. a sequence number or
# an accumulator that is not a metric).
OBS_COUNTER_SUFFIXES = (
    "hits", "misses", "evictions", "stores", "invalidations",
    "expirations", "handshakes", "completed", "rejected", "reused",
    "published", "delivered", "runs",
)

# The service layer must go through injected handles; these module
# surfaces read or mutate process-global state. (`scoped()` is the
# sanctioned entry point and stays legal, as does constructing
# MetricsRegistry / VerificationMemo / Tracer instances directly.)
SERVICE_SEGMENT = "/repro/service/"
SERVICE_GLOBAL_SURFACES = {
    "obs": {"registry", "get_registry", "tracer", "counter", "gauge",
            "histogram", "span", "reset", "use_clock", "virtual_time",
            "set_enabled"},
    "verify_cache": {"memo", "enabled", "set_enabled", "disabled",
                     "cache_info", "cache_clear", "configure",
                     "note_object_hit"},
    "result_cache": {"enabled", "disabled"},
}


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ModuleIndex(NamedTuple):
    """Node buckets from one shared walk; every rule reads these."""

    calls: Tuple[ast.Call, ...]
    import_froms: Tuple[ast.ImportFrom, ...]
    func_defs: Tuple[ast.AST, ...]
    aug_assigns: Tuple[ast.AugAssign, ...]


def _index_tree(tree: ast.AST) -> ModuleIndex:
    calls: List[ast.Call] = []
    import_froms: List[ast.ImportFrom] = []
    func_defs: List[ast.AST] = []
    aug_assigns: List[ast.AugAssign] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            calls.append(node)
        elif isinstance(node, ast.ImportFrom):
            import_froms.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func_defs.append(node)
        elif isinstance(node, ast.AugAssign):
            aug_assigns.append(node)
    return ModuleIndex(tuple(calls), tuple(import_froms),
                       tuple(func_defs), tuple(aug_assigns))


def _check_clock(path: str, index: ModuleIndex) -> List[Violation]:
    norm = _norm(path)
    if norm.endswith(CLOCK_ALLOWED_SUFFIXES):
        return []
    violations: List[Violation] = []
    # Names bound by `from time import time [as alias]` (and the
    # datetime equivalents) so bare calls are caught too.
    bad_names: Set[str] = set()
    for node in index.import_froms:
        if node.module == "time":
            bad_names.update(
                alias.asname or alias.name
                for alias in node.names if alias.name == "time")
        if node.module == "datetime":
            bad_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name in ("datetime", "date"))
    for node in index.calls:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _dotted(func.value)
            if receiver == "time" and func.attr == "time":
                violations.append(Violation(
                    path, node.lineno, "clock-discipline",
                    "time.time() bypasses the Clock abstraction; "
                    "take the instant from a Clock (e.g. "
                    "wallet.clock.now())"))
            elif func.attr in ("now", "utcnow", "today") and (
                    receiver in CLOCK_BAD_RECEIVERS
                    or (receiver or "").split(".")[0] in bad_names):
                violations.append(Violation(
                    path, node.lineno, "clock-discipline",
                    f"{receiver}.{func.attr}() bypasses the Clock "
                    f"abstraction; route through repro.core.clock"))
        elif isinstance(func, ast.Name) and func.id in bad_names:
            violations.append(Violation(
                path, node.lineno, "clock-discipline",
                f"{func.id}() (from-imported wall clock) bypasses "
                f"the Clock abstraction"))
    return violations


def _check_graph_events(path: str, index: ModuleIndex) -> List[Violation]:
    norm = _norm(path)
    if any(seg in f"/{norm}" for seg in EVENT_EXEMPT_SEGMENTS) \
            or norm.endswith(EVENT_EXEMPT_SUFFIXES):
        return []
    mutations: List[ast.Call] = []
    publishes = False
    for node in index.calls:
        if not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr in ("add_delegation", "remove_delegation"):
            mutations.append(node)
        elif attr in ("add", "remove") \
                and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr == "graph":
            mutations.append(node)
        elif attr == "publish":
            receiver = _dotted(node.func.value) or ""
            if receiver == "hub" or receiver.endswith(".hub"):
                publishes = True
    if mutations and not publishes:
        return [Violation(
            path, mutations[0].lineno, "graph-event-coupling",
            "module mutates a delegation graph but never publishes a "
            "subscription-hub event; caches and monitors go stale "
            "silently")]
    return []


def _check_mutable_defaults(path: str,
                            index: ModuleIndex) -> List[Violation]:
    violations: List[Violation] = []
    for node in index.func_defs:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call) \
                    and isinstance(default.func, ast.Name) \
                    and default.func.id in ("list", "dict", "set"):
                mutable = True
            if mutable:
                violations.append(Violation(
                    path, default.lineno, "mutable-default",
                    f"mutable default argument in {node.name}(); the "
                    f"object is shared across every call"))
    return violations


def _check_frozen_setattr(path: str,
                          index: ModuleIndex) -> List[Violation]:
    norm = _norm(path)
    if norm.endswith(SETATTR_ALLOWED_SUFFIXES):
        return []
    violations: List[Violation] = []
    for node in index.calls:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "__setattr__" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "object":
            violations.append(Violation(
                path, node.lineno, "frozen-setattr",
                "object.__setattr__ pierces a frozen dataclass outside "
                "the module that owns it"))
    return violations


def _check_obs_counters(path: str, index: ModuleIndex) -> List[Violation]:
    norm = _norm(path)
    if not norm.endswith(OBS_INSTRUMENTED_SUFFIXES):
        return []
    violations: List[Violation] = []
    for node in index.aug_assigns:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            continue
        target = node.target
        # Only a plain `self.X` receiver: `self.stats.c_hits.inc()` and
        # per-run result objects (`stats.cache_hits += 1`) stay legal.
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            continue
        if target.attr.lstrip("_").endswith(OBS_COUNTER_SUFFIXES):
            violations.append(Violation(
                path, node.lineno, "obs-discipline",
                f"self.{target.attr} += ... is a hand-rolled counter "
                f"in an instrumented module; use a registry-backed "
                f"obs.Counter so exporters see it"))
    return violations


def _check_service_injection(path: str,
                             index: ModuleIndex) -> List[Violation]:
    norm = _norm(path)
    if SERVICE_SEGMENT not in f"/{norm}":
        return []
    violations: List[Violation] = []
    # Names bound by `from repro.obs import counter [as c]` and the
    # like, so from-imported global surfaces are caught too.
    from_imported: dict = {}
    for node in index.import_froms:
        if not node.module:
            continue
        tail = node.module.rsplit(".", 1)[-1]
        banned = SERVICE_GLOBAL_SURFACES.get(tail)
        if not banned:
            continue
        for alias in node.names:
            if alias.name in banned:
                from_imported[alias.asname or alias.name] = \
                    f"{tail}.{alias.name}"
    for node in index.calls:
        func = node.func
        surface = None
        if isinstance(func, ast.Attribute):
            receiver = _dotted(func.value) or ""
            banned = SERVICE_GLOBAL_SURFACES.get(receiver.split(".")[-1])
            if banned and func.attr in banned:
                surface = f"{receiver}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in from_imported:
            surface = from_imported[func.id]
        if surface:
            violations.append(Violation(
                path, node.lineno, "service-injection",
                f"{surface}() reaches process-global state from the "
                f"service layer; inject a handle (MetricsRegistry, "
                f"VerificationMemo, ShardContext) or enter a "
                f"scoped() context instead"))
    return violations


CHECKS = (_check_clock, _check_graph_events, _check_mutable_defaults,
          _check_frozen_setattr, _check_obs_counters,
          _check_service_injection)


def lint_file(path: str) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "syntax",
                          f"cannot parse: {exc.msg}")]
    index = _index_tree(tree)
    violations: List[Violation] = []
    for check in CHECKS:
        violations.extend(check(path, index))
    return violations


def lint_files(paths: Sequence[str], jobs: int = 1) -> List[Violation]:
    """Lint many files, optionally across ``jobs`` worker processes.

    Per-file results are independent and ``map`` preserves input
    order, so the parallel walk produces exactly the serial output.
    """
    paths = list(paths)
    if jobs <= 1 or len(paths) < 2:
        batches = [lint_file(path) for path in paths]
    else:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(paths))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(lint_file, paths, chunksize=8))
    violations: List[Violation] = []
    for batch in batches:
        violations.extend(batch)
    return violations


def report_payload(source: str, checked: int,
                   violations: Sequence[Violation],
                   elapsed_seconds: float) -> dict:
    """The ``drbac lint --json`` report shape (docs/LINT_RULES.md).

    ``edges`` counts files checked (the unit this linter walks) and
    each violation becomes one finding whose ``delegations`` list
    holds a single ``path:line`` locator.
    """
    return {
        "at": 0.0,
        "edges": checked,
        "source": source,
        "rules_run": list(RULE_IDS),
        "elapsed_seconds": elapsed_seconds,
        "counts": {"error": len(violations), "warn": 0, "info": 0},
        "findings": [
            {
                "rule": violation.rule,
                "severity": "error",
                "message": violation.message,
                "delegations": [f"{_norm(violation.path)}:"
                                f"{violation.line}"],
                "fix_hint": None,
            }
            for violation in violations
        ],
    }


def iter_python_files(targets: Sequence[str]):
    for target in targets:
        if os.path.isfile(target):
            yield target
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in ("__pycache__", ".git"))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repo invariant linter (AST checks the test suite "
                    "can't express)")
    parser.add_argument("targets", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint files across N worker processes "
                             "(default: serial; output is identical)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the drbac lint --json report shape "
                             "on stdout instead of one line per "
                             "violation")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    files = list(iter_python_files(args.targets))
    violations = sorted(lint_files(files, jobs=args.jobs))
    elapsed = time.perf_counter() - started
    if args.as_json:
        payload = report_payload(",".join(args.targets), len(files),
                                 violations, elapsed)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for violation in violations:
            print(violation)
    print(f"reprolint: {len(files)} file(s), "
          f"{len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
