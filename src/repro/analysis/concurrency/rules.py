"""Concurrency-safety rules over the linked :class:`RepoModel`.

Mirrors the static policy analyzer's registry shape (same ``Rule``
dataclass, same selection semantics) but checks *code*, not policy
graphs: findings carry ``relpath:line`` locators in the
``delegation_ids`` slot so the exact-recovery machinery
(``verify()``/``check_lint_expectations``) works unchanged.

Suppression: a trailing ``# lint: allow=<rule-id>`` comment on the
flagged line silences that rule there (comma-separate for several).
"""

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.static.findings import Finding, Severity
from repro.analysis.static.rules import Rule, RuleSelectionError

from repro.analysis.concurrency.model import (
    GLOBAL_SURFACES, FunctionInfo, CallSite, RepoModel, SourceModule,
)

CONC_RULES: Dict[str, Rule] = {}

#: Modules that *implement* the scoped surfaces; their internals are
#: exempt from scope-escape (they are the mechanism, not a breach).
PROVIDER_MODULES = ("repro.obs", "repro.crypto.verify_cache",
                    "repro.discovery.result_cache")

#: Default entry-point classes for the scope-escape reachability walk.
DEFAULT_ENTRY_CLASSES = ("ShardRuntime", "ShardContext")

SUPPRESS_MARKER = "lint: allow="


def conc_rule(rule_id: str, severity: Severity, title: str,
              fix_hint: str):
    def register(check):
        if rule_id in CONC_RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        CONC_RULES[rule_id] = Rule(id=rule_id, severity=severity,
                                   title=title, fix_hint=fix_hint,
                                   check=check)
        return check
    return register


def select_conc_rules(only: Iterable[str] = None,
                      ignore: Iterable[str] = None) -> List[Rule]:
    """Same contract as the policy analyzer's ``select_rules``."""
    for name in list(only or ()) + list(ignore or ()):
        if name not in CONC_RULES:
            known = ", ".join(CONC_RULES)
            raise RuleSelectionError(
                f"unknown concurrency rule id {name!r} "
                f"(known rules: {known})")
    wanted = set(only) if only else set(CONC_RULES)
    dropped = set(ignore or ())
    return [r for rid, r in CONC_RULES.items()
            if rid in wanted and rid not in dropped]


def conc_rule_catalog() -> Tuple[Rule, ...]:
    return tuple(CONC_RULES.values())


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------


class ConcurrencyContext:
    """One analyzer pass: the linked model plus shared derived facts."""

    def __init__(self, model: RepoModel,
                 entry_classes: Optional[Iterable[str]] = None) -> None:
        self.model = model
        self.entry_classes = tuple(entry_classes
                                   if entry_classes is not None
                                   else DEFAULT_ENTRY_CLASSES)
        self.functions: List[FunctionInfo] = list(model.all_functions())
        self.suppressed = 0
        # sync function -> (async root qualname, call path) proving
        # it runs on a coroutine's stack.
        self.async_reach: Dict[int, Tuple[str, Tuple[str, ...]]] = {}
        self._compute_async_reach()

    # -- shared facts --------------------------------------------------------

    def _compute_async_reach(self) -> None:
        queue: List[Tuple[FunctionInfo, Tuple[str, ...]]] = []
        for fn in self.functions:
            if fn.is_async:
                queue.append((fn, (fn.qualname,)))
        while queue:
            fn, path = queue.pop(0)
            for site in fn.calls:
                target = site.target
                if target is None or target.is_async:
                    continue  # async callees are their own roots
                if id(target) in self.async_reach:
                    continue
                extended = path + (target.qualname,)
                self.async_reach[id(target)] = (path[0], extended)
                queue.append((target, extended))

    def coroutine_origin(self, fn: FunctionInfo):
        """(async root, path) if ``fn`` runs on a coroutine, else None."""
        if fn.is_async:
            return fn.qualname, (fn.qualname,)
        return self.async_reach.get(id(fn))

    # -- helpers -------------------------------------------------------------

    def locator(self, fn: FunctionInfo, lineno: int) -> str:
        return f"{fn.module.relpath}:{lineno}"

    def is_suppressed(self, module: SourceModule, lineno: int,
                      rule_id: str) -> bool:
        if not (1 <= lineno <= len(module.source_lines)):
            return False
        line = module.source_lines[lineno - 1]
        idx = line.find(SUPPRESS_MARKER)
        if idx < 0:
            return False
        allowed = line[idx + len(SUPPRESS_MARKER):].strip()
        allowed = allowed.split()[0] if allowed.split() else ""
        if rule_id in {a.strip() for a in allowed.split(",")}:
            self.suppressed += 1
            return True
        return False

    def receiver_of(self, site: CallSite) -> Optional[str]:
        if site.dotted and "." in site.dotted:
            return site.dotted.rsplit(".", 1)[0]
        return None

    def lock_key(self, fn: FunctionInfo,
                 receiver: str) -> Optional[str]:
        """Canonical lock identity for an acquire/release receiver."""
        module = fn.module
        parts = receiver.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name in module.locks:
                return f"{module.modname}.{name}"
            scope = fn
            while scope is not None:
                if scope.local_types.get(name) in ("lock", "rlock"):
                    return f"{scope.qualname}.{name}"
                scope = scope.parent
            return None
        if parts[0] in ("self", "cls") and len(parts) == 2 and fn.cls:
            cls = module.classes.get(fn.cls)
            if cls is not None \
                    and cls.attr_types.get(parts[1]) in ("lock", "rlock"):
                return f"{cls.qualname}.{parts[1]}"
        return None


# ---------------------------------------------------------------------------
# Blocking-primitive tables
# ---------------------------------------------------------------------------

_BLOCKING_EXACT = {
    "time.sleep", "os.fsync", "os.fdatasync", "select.select",
    "socket.create_connection", "socket.getaddrinfo",
}
_SUBPROCESS_CALLS = {"run", "call", "check_call", "check_output",
                     "Popen"}
_SOCKET_METHODS = {"recv", "recv_into", "send", "sendall", "accept",
                   "connect", "makefile"}
_QUEUE_BLOCKING = {"get", "put", "join"}


def _blocking_label(ctx: ConcurrencyContext, fn: FunctionInfo,
                    site: CallSite) -> Optional[str]:
    """Why this call would block an event loop, or None."""
    if site.awaited or site.is_with_item:
        return None
    name = site.external or site.dotted
    if name:
        if name in _BLOCKING_EXACT:
            return name
        head, _, tail = name.rpartition(".")
        if head.endswith("subprocess") and tail in _SUBPROCESS_CALLS:
            return name
    receiver = ctx.receiver_of(site)
    if receiver is not None:
        rtype = ctx.model.receiver_type(fn, receiver)
        if rtype == "queue" and site.attr in _QUEUE_BLOCKING:
            return f"{receiver}.{site.attr} (queue)"
        if rtype == "socket" and site.attr in _SOCKET_METHODS:
            return f"{receiver}.{site.attr} (socket)"
        if rtype == "contextvar":
            return None
        if rtype is not None:
            # A typed repo-class/lock receiver: method resolution (or
            # the lock rules) covers it; don't guess from attr names.
            return None
    # Untyped receivers: two high-precision shapes.
    if site.attr == "result" and site.n_pos_args == 0 \
            and "timeout" not in site.kwarg_names \
            and site.target is None:
        return "Future.result()"
    if site.attr == "join" and site.n_pos_args == 0 \
            and site.target is None:
        return ".join()"
    return None


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@conc_rule(
    "blocking-in-async", Severity.ERROR,
    "blocking primitive reachable from a coroutine",
    "move the blocking call behind loop.run_in_executor (or an async "
    "equivalent) so the event loop keeps serving other connections",
)
def check_blocking_in_async(ctx: ConcurrencyContext,
                            rule: Rule) -> List[Finding]:
    findings = []
    for fn in ctx.functions:
        origin = ctx.coroutine_origin(fn)
        if origin is None:
            continue
        root, path = origin
        for site in fn.calls:
            label = _blocking_label(ctx, fn, site)
            if label is None:
                continue
            if ctx.is_suppressed(fn.module, site.lineno, rule.id):
                continue
            loc = ctx.locator(fn, site.lineno)
            via = " -> ".join(path)
            findings.append(rule.finding(
                [loc],
                f"{label} at {loc} runs on coroutine {root}'s stack "
                f"(via {via})"))
    return findings


@conc_rule(
    "lock-discipline", Severity.ERROR,
    "lock acquired outside `with` and not released in a finally",
    "use `with lock:` (or guarantee release in a finally block) so "
    "an exception between acquire and release cannot leak the lock",
)
def check_lock_discipline(ctx: ConcurrencyContext,
                          rule: Rule) -> List[Finding]:
    findings = []
    for fn in ctx.functions:
        for site in fn.calls:
            if site.attr != "acquire" or site.is_with_item:
                continue
            receiver = ctx.receiver_of(site)
            if receiver is None:
                continue
            rtype = ctx.model.receiver_type(fn, receiver)
            if rtype not in ("lock", "rlock"):
                continue
            key = ctx.lock_key(fn, receiver)
            if key is not None and key in fn.release_keys_in_finally:
                continue
            if ctx.is_suppressed(fn.module, site.lineno, rule.id):
                continue
            loc = ctx.locator(fn, site.lineno)
            findings.append(rule.finding(
                [loc],
                f"{receiver}.acquire() at {loc} in {fn.qualname} has "
                f"no matching release in a finally block"))
    return findings


@conc_rule(
    "lock-order-cycle", Severity.ERROR,
    "inconsistent lock acquisition order (potential deadlock)",
    "impose one global acquisition order on these locks (or collapse "
    "them into a single lock); re-acquiring a non-reentrant lock on "
    "the same stack needs threading.RLock",
)
def check_lock_order_cycle(ctx: ConcurrencyContext,
                           rule: Rule) -> List[Finding]:
    # Edge a -> b: some thread acquires b while holding a, either
    # lexically or through a call chain.  A cycle (or a self-edge on a
    # non-reentrant Lock) is an ordering hazard.
    edges: Dict[Tuple[str, str], List[Tuple[FunctionInfo, int]]] = {}

    def add_edge(held: str, inner: str, fn: FunctionInfo,
                 lineno: int) -> None:
        edges.setdefault((held, inner), []).append((fn, lineno))

    for fn in ctx.functions:
        for acq in fn.lock_acquires:
            for held in acq.held:
                add_edge(held, acq.key, fn, acq.lineno)

    # Transitive acquisition sets T(f), smallest fixpoint.
    tset: Dict[int, set] = {id(fn): {a.key for a in fn.lock_acquires}
                            for fn in ctx.functions}
    changed = True
    while changed:
        changed = False
        for fn in ctx.functions:
            mine = tset[id(fn)]
            before = len(mine)
            for site in fn.calls:
                if site.target is not None:
                    mine |= tset.get(id(site.target), set())
            if len(mine) != before:
                changed = True
    for fn in ctx.functions:
        for site in fn.calls:
            if not site.locks_held or site.target is None:
                continue
            for inner in tset.get(id(site.target), set()):
                for held in site.locks_held:
                    add_edge(held, inner, fn, site.lineno)

    # Self-edges: re-acquiring a non-reentrant Lock deadlocks at once.
    findings = []
    adj: Dict[str, set] = {}
    for (a, b), sites in edges.items():
        if a == b:
            if ctx.model.lock_kind(a) == "lock":
                fn, lineno = sites[0]
                if ctx.is_suppressed(fn.module, lineno, rule.id):
                    continue
                loc = ctx.locator(fn, lineno)
                findings.append(rule.finding(
                    [loc],
                    f"non-reentrant lock {a} re-acquired at {loc} "
                    f"while already held on the same stack"))
            continue
        adj.setdefault(a, set()).add(b)

    # SCCs >= 2 over the order graph (iterative Tarjan).
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(sorted(adj.get(succ, ())))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    popped = stack.pop()
                    on_stack[popped] = False
                    component.append(popped)
                    if popped == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))

    for node in sorted(adj):
        if node not in index:
            strongconnect(node)

    for component in sccs:
        members = set(component)
        locators = set()
        suppressed_all = True
        for (a, b), sites in sorted(edges.items()):
            if a in members and b in members and a != b:
                for fn, lineno in sites:
                    if ctx.is_suppressed(fn.module, lineno, rule.id):
                        continue
                    suppressed_all = False
                    locators.add(ctx.locator(fn, lineno))
        if suppressed_all or not locators:
            continue
        findings.append(rule.finding(
            sorted(locators),
            f"locks {{{', '.join(component)}}} are acquired in "
            f"conflicting orders across these sites"))
    return findings


def _is_global_surface(site: CallSite) -> Optional[str]:
    """'module.attr' if this call hits a process-global surface."""
    target = site.target
    if target is not None and target.cls is None:
        modname = target.module.modname
        if modname in PROVIDER_MODULES:
            tail = modname.rsplit(".", 1)[-1]
            if target.name in GLOBAL_SURFACES.get(tail, ()):
                return f"{tail}.{target.name}"
    if site.external:
        for provider in PROVIDER_MODULES:
            prefix = provider + "."
            if site.external.startswith(prefix):
                attr = site.external[len(prefix):]
                tail = provider.rsplit(".", 1)[-1]
                if attr in GLOBAL_SURFACES.get(tail, ()):
                    return f"{tail}.{attr}"
    return None


@conc_rule(
    "scope-escape", Severity.ERROR,
    "process-global mutable state reachable from a shard entry point "
    "without an enclosing scoped()",
    "wrap the call path in obs.scoped()/verify_cache.scoped() (e.g. "
    "via ShardContext.activate()) or inject the per-shard handle "
    "instead of touching the global surface",
)
def check_scope_escape(ctx: ConcurrencyContext,
                       rule: Rule) -> List[Finding]:
    entries: List[FunctionInfo] = []
    for module in ctx.model.modules.values():
        for cls_key, cls in module.classes.items():
            if cls_key != cls.qualname or cls.name not in ctx.entry_classes:
                continue
            for name, method in cls.methods.items():
                if name == "__init__" or not name.startswith("_"):
                    entries.append(method)

    findings = []
    seen: Dict[Tuple[int, bool], Tuple[str, ...]] = {}
    queue: List[Tuple[FunctionInfo, bool, Tuple[str, ...]]] = []
    for entry in entries:
        state = (id(entry), False)
        if state not in seen:
            seen[state] = (entry.qualname,)
            queue.append((entry, False, (entry.qualname,)))

    reported = set()
    while queue:
        fn, scoped, path = queue.pop(0)
        provider = fn.module.modname in PROVIDER_MODULES
        for site in fn.calls:
            effective = scoped or site.in_scope
            surface = None if provider else _is_global_surface(site)
            if surface is not None and not effective:
                key = (fn.module.relpath, site.lineno)
                if key not in reported:
                    reported.add(key)
                    if not ctx.is_suppressed(fn.module, site.lineno,
                                             rule.id):
                        loc = ctx.locator(fn, site.lineno)
                        findings.append(rule.finding(
                            [loc],
                            f"global surface {surface} hit at {loc} "
                            f"from entry {path[0]} without scoped() "
                            f"(via {' -> '.join(path)})"))
            target = site.target
            if target is None:
                continue
            state = (id(target), effective)
            if state in seen:
                continue
            seen[state] = path + (target.qualname,)
            queue.append((target, effective, path + (target.qualname,)))
        if not provider:
            for write in fn.global_writes:
                if scoped or write.in_scope:
                    continue
                key = (fn.module.relpath, write.lineno)
                if key in reported:
                    continue
                reported.add(key)
                if ctx.is_suppressed(fn.module, write.lineno, rule.id):
                    continue
                loc = ctx.locator(fn, write.lineno)
                findings.append(rule.finding(
                    [loc],
                    f"module-global {write.name!r} mutated at {loc} "
                    f"from entry {path[0]} without scoped() "
                    f"(via {' -> '.join(path)})"))
    return findings


@conc_rule(
    "unawaited-coroutine", Severity.ERROR,
    "coroutine called but never awaited",
    "await the call (or hand it to asyncio.create_task/gather); a "
    "bare coroutine object silently does nothing",
)
def check_unawaited_coroutine(ctx: ConcurrencyContext,
                              rule: Rule) -> List[Finding]:
    findings = []
    for fn in ctx.functions:
        for site in fn.calls:
            target = site.target
            if target is None or not target.is_async or site.awaited:
                continue
            if site.consumer is not None:
                continue  # handed to run/gather/create_task/...
            if not site.is_stmt:
                continue  # bound to a name: assume awaited later
            if ctx.is_suppressed(fn.module, site.lineno, rule.id):
                continue
            loc = ctx.locator(fn, site.lineno)
            findings.append(rule.finding(
                [loc],
                f"coroutine {target.qualname} called at {loc} in "
                f"{fn.qualname} but its result is discarded unawaited"))
    return findings


@conc_rule(
    "fire-and-forget-task", Severity.WARN,
    "task spawned without keeping a handle (exceptions vanish)",
    "bind the task and await/cancel it on shutdown, or attach "
    "add_done_callback so failures surface instead of vanishing",
)
def check_fire_and_forget(ctx: ConcurrencyContext,
                          rule: Rule) -> List[Finding]:
    findings = []
    for fn in ctx.functions:
        for site in fn.calls:
            name = site.external or site.dotted or ""
            tail = name.rsplit(".", 1)[-1]
            if tail not in ("create_task", "ensure_future"):
                continue
            if not site.is_stmt or site.awaited:
                continue
            if ctx.is_suppressed(fn.module, site.lineno, rule.id):
                continue
            loc = ctx.locator(fn, site.lineno)
            findings.append(rule.finding(
                [loc],
                f"{tail} at {loc} in {fn.qualname} discards the task "
                f"handle; a failing task would die silently"))
    return findings


@conc_rule(
    "contextvar-discipline", Severity.WARN,
    "ContextVar.set without a token reset",
    "capture the token (`token = VAR.set(...)`) and restore it in a "
    "finally block with `VAR.reset(token)`",
)
def check_contextvar_discipline(ctx: ConcurrencyContext,
                                rule: Rule) -> List[Finding]:
    findings = []
    for fn in ctx.functions:
        resets = set()
        sets = []
        for site in fn.calls:
            receiver = ctx.receiver_of(site)
            if receiver is None:
                continue
            if ctx.model.receiver_type(fn, receiver) != "contextvar":
                continue
            if site.attr == "reset":
                resets.add(receiver)
            elif site.attr == "set":
                sets.append((site, receiver))
        for site, receiver in sets:
            if receiver in resets and site.assigned:
                continue
            if ctx.is_suppressed(fn.module, site.lineno, rule.id):
                continue
            loc = ctx.locator(fn, site.lineno)
            findings.append(rule.finding(
                [loc],
                f"{receiver}.set(...) at {loc} in {fn.qualname} "
                f"{'never binds its token' if not site.assigned else 'has no matching reset'}"
                f"; the previous value cannot be restored"))
    return findings
