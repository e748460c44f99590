"""The code linter's 13 rules over the linked :class:`RepoModel`.

They register in the policy analyzer's ``Rule`` registry shape (the
same ``rule`` / ``select_rules`` code, handed this module's
``RULES``) but check *code*, not policy graphs: findings carry
``relpath:line`` locators in the ``delegation_ids`` slot so the
exact-recovery machinery (``verify()`` / ``check_lint_expectations``)
works unchanged.  Six are per-file invariants the test suite cannot
express; seven follow the call graph (async reach, lock order, scope).

Suppression: a trailing ``# lint: allow=<rule-id>`` comment on the
flagged line silences that rule there (comma-separate for several).
"""

import ast
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.static.findings import Finding, Severity
from repro.analysis.static.rules import Rule, rule

from .model import (
    GLOBAL_SURFACES, CallSite, FunctionInfo, RepoModel, SourceModule,
    dotted_name, lock_key,
)

RULES: Dict[str, Rule] = {}
code_rule = partial(rule, registry=RULES)

#: Modules that *implement* the scoped surfaces; their internals are
#: exempt from scope-escape (they are the mechanism, not a breach).
PROVIDER_MODULES = ("repro.obs", "repro.crypto.verify_cache")

#: Default entry-point classes for the scope-escape reachability walk.
DEFAULT_ENTRY_CLASSES = ("ShardRuntime", "ShardContext")

SUPPRESS_MARKER = "lint: allow="

#: A transport's protocol: the event loop calls these methods on its own
#: stack, so each is a root of the async reach like a coroutine.
LOOP_PROTOCOLS = ("asyncio.Protocol", "asyncio.BufferedProtocol",
                  "asyncio.protocols.Protocol",
                  "asyncio.protocols.BufferedProtocol")
LOOP_CALLBACKS = frozenset((
    "connection_made", "data_received", "eof_received", "connection_lost",
    "pause_writing", "resume_writing", "get_buffer", "buffer_updated"))


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------


class CodeContext:
    """One linter pass: the linked model plus shared derived facts."""

    def __init__(self, model: RepoModel,
                 entry_classes: Optional[Iterable[str]] = None) -> None:
        self.model = model
        self.entry_classes = tuple(entry_classes
                                   if entry_classes is not None
                                   else DEFAULT_ENTRY_CLASSES)
        self.functions: List[FunctionInfo] = list(model.all_functions())
        self.suppressed = 0
        # sync function -> (async root qualname, call path) proving
        # it runs on a coroutine's (or a loop callback's) stack.
        self.async_reach: Dict[int, Tuple[str, Tuple[str, ...]]] = {}
        self._compute_async_reach()

    # -- shared facts --------------------------------------------------------

    def _compute_async_reach(self) -> None:
        queue: List[Tuple[FunctionInfo, Tuple[str, ...]]] = []
        for fn in self.functions:
            if fn.is_async:
                queue.append((fn, (fn.qualname,)))
            elif self._is_loop_callback(fn):
                self.async_reach[id(fn)] = (fn.qualname, (fn.qualname,))
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

    def _is_loop_callback(self, fn: FunctionInfo) -> bool:
        if fn.name not in LOOP_CALLBACKS or fn.cls is None \
                or fn.parent is not None:
            return False
        cls = fn.module.classes.get(fn.cls)
        return cls is not None \
            and self.model.derives_from(cls, LOOP_PROTOCOLS)

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

    def flag(self, rule: Rule, module: SourceModule, lineno: int,
             message: str) -> List[Finding]:
        """``rule``'s finding at ``module:lineno``, unless a suppression
        comment there allows it."""
        if self.is_suppressed(module, lineno, rule.id):
            return []
        return [rule.finding([f"{module.relpath}:{lineno}"], message)]

    def receiver_of(self, site: CallSite) -> Optional[str]:
        if site.dotted and "." in site.dotted:
            return site.dotted.rsplit(".", 1)[0]
        return None


# ---------------------------------------------------------------------------
# Per-file rules: invariants the test suite cannot express
# ---------------------------------------------------------------------------

# Files (by normalized path suffix) allowed to read the wall clock.
CLOCK_ALLOWED_SUFFIXES = ("core/clock.py",)
# Receivers, read through the import aliases, whose .now()/.today()
# are the real clock (never a repro Clock instance, whose receiver is
# `clock`/`self.clock`).  time.perf_counter/monotonic/sleep measure
# durations, not policy-relevant instants, and stay legal.
CLOCK_BAD_RECEIVERS = {"datetime", "datetime.datetime", "date",
                       "datetime.date"}

# Modules allowed to mutate delegation graphs without publishing
# events: detached-graph layers no subscription hub observes.
EVENT_EXEMPT_SEGMENTS = ("/graph/", "/workloads/", "/analysis/",
                         "/baselines/", "/tools/")
EVENT_EXEMPT_SUFFIXES = ("wallet/storage.py",)

# Modules that own frozen-dataclass caches: each caches on its own
# types only (interned values hold content-derived caches alone).
SETATTR_ALLOWED_SUFFIXES = ("core/delegation.py", "core/attributes.py",
                            "core/proof.py", "crypto/keys.py",
                            "core/identity.py", "core/roles.py",
                            "core/tags.py")

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

# The service layer must go through injected handles; GLOBAL_SURFACES
# read or mutate process-global state.  (`scoped()` is the sanctioned
# entry point and stays legal, as does constructing MetricsRegistry /
# VerificationMemo / Tracer instances directly.)
SERVICE_SEGMENT = "/repro/service/"


@code_rule(
    "clock-discipline", Severity.ERROR,
    "wall-clock read outside core/clock.py",
    "take the instant from a repro Clock (e.g. wallet.clock.now()); "
    "direct reads make simulations non-deterministic and queries "
    "non-reproducible",
)
def check_clock_discipline(ctx: CodeContext, rule: Rule) -> List[Finding]:
    findings = []
    for module in ctx.model.modules.values():
        if module.path.endswith(CLOCK_ALLOWED_SUFFIXES):
            continue
        for call in module.calls:
            name = dotted_name(call.func)
            if name is None:
                continue
            real = module.real_name(name)
            receiver, _, attr = real.rpartition(".")
            if real == "time.time":
                message = (f"{name}() bypasses the Clock abstraction; "
                           f"take the instant from a Clock (e.g. "
                           f"wallet.clock.now())")
            elif isinstance(call.func, ast.Name) and real in (
                    "datetime.datetime", "datetime.date"):
                message = (f"{name}() (from-imported wall clock) "
                           f"bypasses the Clock abstraction")
            elif attr in ("now", "utcnow", "today") \
                    and receiver in CLOCK_BAD_RECEIVERS:
                message = (f"{name}() bypasses the Clock abstraction; "
                           f"route through repro.core.clock")
            else:
                continue
            findings.extend(ctx.flag(rule, module, call.lineno, message))
    return findings


@code_rule(
    "graph-event-coupling", Severity.ERROR,
    "delegation graph mutated by a module that never publishes a "
    "subscription-hub event",
    "publish the matching hub event (Section 4.2.2) where the graph "
    "changes, so the proof cache and every subscriber see it",
)
def check_graph_event_coupling(ctx: CodeContext,
                               rule: Rule) -> List[Finding]:
    findings = []
    for module in ctx.model.modules.values():
        if any(seg in f"/{module.path}" for seg in EVENT_EXEMPT_SEGMENTS) \
                or module.path.endswith(EVENT_EXEMPT_SUFFIXES):
            continue
        mutations: List[ast.Call] = []
        publishes = False
        for node in module.calls:
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
                receiver = dotted_name(node.func.value) or ""
                if receiver == "hub" or receiver.endswith(".hub"):
                    publishes = True
        if mutations and not publishes:
            findings.extend(ctx.flag(
                rule, module, mutations[0].lineno,
                "module mutates a delegation graph but never publishes "
                "a subscription-hub event; caches and monitors go "
                "stale silently"))
    return findings


@code_rule(
    "mutable-default", Severity.ERROR,
    "mutable default argument",
    "default to None and build the list/dict/set inside the function; "
    "a default object is shared across every call",
)
def check_mutable_default(ctx: CodeContext, rule: Rule) -> List[Finding]:
    findings = []
    for module in ctx.model.modules.values():
        for node in module.func_defs:
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
                if isinstance(default, ast.Call) \
                        and isinstance(default.func, ast.Name) \
                        and default.func.id in ("list", "dict", "set"):
                    mutable = True
                if mutable:
                    findings.extend(ctx.flag(
                        rule, module, default.lineno,
                        f"mutable default argument in {node.name}(); "
                        f"the object is shared across every call"))
    return findings


@code_rule(
    "frozen-setattr", Severity.ERROR,
    "object.__setattr__ outside the module that owns the frozen type",
    "build the value before construction, or move the cache into the "
    "module that owns the frozen dataclass",
)
def check_frozen_setattr(ctx: CodeContext, rule: Rule) -> List[Finding]:
    findings = []
    for module in ctx.model.modules.values():
        if module.path.endswith(SETATTR_ALLOWED_SUFFIXES):
            continue
        for node in module.calls:
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "__setattr__" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "object":
                findings.extend(ctx.flag(
                    rule, module, node.lineno,
                    "object.__setattr__ pierces a frozen dataclass "
                    "outside the module that owns it"))
    return findings


@code_rule(
    "obs-discipline", Severity.ERROR,
    "hand-rolled counter in an instrumented module",
    "declare the tally in an obs.CounterSet and increment its "
    "registry-backed Counter so `drbac metrics` / --metrics-out see it",
)
def check_obs_discipline(ctx: CodeContext, rule: Rule) -> List[Finding]:
    findings = []
    for module in ctx.model.modules.values():
        if not module.path.endswith(OBS_INSTRUMENTED_SUFFIXES):
            continue
        for node in module.aug_assigns:
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            target = node.target
            # Only a plain `self.X` receiver: `self.stats.c_hits.inc()`
            # and per-run result objects (`stats.cache_hits += 1`) stay
            # legal.
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if target.attr.lstrip("_").endswith(OBS_COUNTER_SUFFIXES):
                findings.extend(ctx.flag(
                    rule, module, node.lineno,
                    f"self.{target.attr} += ... is a hand-rolled counter "
                    f"in an instrumented module; use a registry-backed "
                    f"obs.Counter so exporters see it"))
    return findings


@code_rule(
    "service-injection", Severity.ERROR,
    "process-global observability/memo surface used in the service "
    "package",
    "inject a handle (MetricsRegistry, VerificationMemo, ShardContext) "
    "or enter a scoped() context; shards must not share global state",
)
def check_service_injection(ctx: CodeContext,
                            rule: Rule) -> List[Finding]:
    findings = []
    for module in ctx.model.modules.values():
        if SERVICE_SEGMENT not in f"/{module.path}":
            continue
        for call in module.calls:
            name = dotted_name(call.func)
            if name is None:
                continue
            receiver, _, attr = module.real_name(name).rpartition(".")
            tail = receiver.rsplit(".", 1)[-1]
            if attr in GLOBAL_SURFACES.get(tail, ()):
                findings.extend(ctx.flag(
                    rule, module, call.lineno,
                    f"{tail}.{attr}() reaches process-global state from "
                    f"the service layer; inject a handle "
                    f"(MetricsRegistry, VerificationMemo, ShardContext) "
                    f"or enter a scoped() context instead"))
    return findings


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


def _blocking_label(ctx: CodeContext, fn: FunctionInfo,
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


@code_rule(
    "blocking-in-async", Severity.ERROR,
    "blocking primitive reachable from a coroutine or protocol callback",
    "move the blocking call behind loop.run_in_executor (or an async "
    "equivalent) so the event loop keeps serving other connections",
)
def check_blocking_in_async(ctx: CodeContext,
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
            loc = ctx.locator(fn, site.lineno)
            via = " -> ".join(path)
            findings.extend(ctx.flag(
                rule, fn.module, site.lineno,
                f"{label} at {loc} runs on the event loop under {root} "
                f"(via {via})"))
    return findings


@code_rule(
    "lock-discipline", Severity.ERROR,
    "lock acquired outside `with` and not released in a finally",
    "use `with lock:` (or guarantee release in a finally block) so "
    "an exception between acquire and release cannot leak the lock",
)
def check_lock_discipline(ctx: CodeContext,
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
            key = lock_key(fn, receiver)
            if key is not None and key in fn.release_keys_in_finally:
                continue
            loc = ctx.locator(fn, site.lineno)
            findings.extend(ctx.flag(
                rule, fn.module, site.lineno,
                f"{receiver}.acquire() at {loc} in {fn.qualname} has "
                f"no matching release in a finally block"))
    return findings


@code_rule(
    "lock-order-cycle", Severity.ERROR,
    "inconsistent lock acquisition order (potential deadlock)",
    "impose one global acquisition order on these locks (or collapse "
    "them into a single lock); re-acquiring a non-reentrant lock on "
    "the same stack needs threading.RLock",
)
def check_lock_order_cycle(ctx: CodeContext,
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
                loc = ctx.locator(fn, lineno)
                findings.extend(ctx.flag(
                    rule, fn.module, lineno,
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


@code_rule(
    "scope-escape", Severity.ERROR,
    "process-global mutable state reachable from a shard entry point "
    "without an enclosing scoped()",
    "wrap the call path in obs.scoped()/verify_cache.scoped() (e.g. "
    "via ShardContext.activate()) or inject the per-shard handle "
    "instead of touching the global surface",
)
def check_scope_escape(ctx: CodeContext,
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
                    loc = ctx.locator(fn, site.lineno)
                    findings.extend(ctx.flag(
                        rule, fn.module, site.lineno,
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
                loc = ctx.locator(fn, write.lineno)
                findings.extend(ctx.flag(
                    rule, fn.module, write.lineno,
                    f"module-global {write.name!r} mutated at {loc} "
                    f"from entry {path[0]} without scoped() "
                    f"(via {' -> '.join(path)})"))
    return findings


@code_rule(
    "unawaited-coroutine", Severity.ERROR,
    "coroutine called but never awaited",
    "await the call (or hand it to asyncio.create_task/gather); a "
    "bare coroutine object silently does nothing",
)
def check_unawaited_coroutine(ctx: CodeContext,
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
            loc = ctx.locator(fn, site.lineno)
            findings.extend(ctx.flag(
                rule, fn.module, site.lineno,
                f"coroutine {target.qualname} called at {loc} in "
                f"{fn.qualname} but its result is discarded unawaited"))
    return findings


@code_rule(
    "fire-and-forget-task", Severity.WARN,
    "task spawned without keeping a handle (exceptions vanish)",
    "bind the task and await/cancel it on shutdown, or attach "
    "add_done_callback so failures surface instead of vanishing",
)
def check_fire_and_forget(ctx: CodeContext,
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
            loc = ctx.locator(fn, site.lineno)
            findings.extend(ctx.flag(
                rule, fn.module, site.lineno,
                f"{tail} at {loc} in {fn.qualname} discards the task "
                f"handle; a failing task would die silently"))
    return findings


@code_rule(
    "contextvar-discipline", Severity.WARN,
    "ContextVar.set without a token reset",
    "capture the token (`token = VAR.set(...)`) and restore it in a "
    "finally block with `VAR.reset(token)`",
)
def check_contextvar_discipline(ctx: CodeContext,
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
            loc = ctx.locator(fn, site.lineno)
            findings.extend(ctx.flag(
                rule, fn.module, site.lineno,
                f"{receiver}.set(...) at {loc} in {fn.qualname} "
                f"{'never binds its token' if not site.assigned else 'has no matching reset'}"
                f"; the previous value cannot be restored"))
    return findings
