"""Whole-repo source model for the code linter.

Parses every Python file under the linted roots exactly once and
builds the structures the rules consume:

* per-module node lists from one ``ast.walk`` -- calls, ``from``
  imports, function definitions, augmented assignments (what the
  per-file rules scan) -- plus the alias tables every rule resolves
  receivers through (``import time as t`` makes ``t.time`` read as
  ``time.time``);
* per-module indexes -- module-level locks / ContextVars / mutable
  globals, classes with best-effort attribute typing
  (``self.x = threading.Lock()`` / ``queue.Queue()`` / ``SomeClass()``);
* per-function call sites, each annotated with its *lexical* context:
  which locks are held at the call, whether it sits inside a
  ``scoped()``-style with-block, whether it is awaited, and whether its
  value is discarded;
* a resolved call graph (best-effort, deliberately conservative: an
  unresolvable receiver contributes no edge, so over-approximation
  never manufactures reachability).

Resolution is *static and name-based*: ``self.method`` binds within the
enclosing class, bare names bind to siblings / module functions /
``from``-imports, module aliases bind across the repo, and locals
assigned ``ClassName(...)`` carry that class for one method hop.
External (non-repo) callees normalize to a dotted name (``time.sleep``)
the blocking-primitive tables match against.
"""

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

# Receiver-module -> banned-attr sets: calls that read or mutate
# process-global singletons.  `service-injection` bans them anywhere in
# the service package; `scope-escape` bans them on any path from a
# shard entry point that no scoped() encloses.
GLOBAL_SURFACES = {
    "obs": {"registry", "get_registry", "tracer", "counter", "gauge",
            "histogram", "span", "reset", "use_clock", "virtual_time",
            "set_enabled"},
    "verify_cache": {"memo", "enabled", "set_enabled", "disabled",
                     "cache_info", "cache_clear", "configure",
                     "note_object_hit"},
    "result_cache": {"enabled", "disabled"},
}

# Methods that mutate a dict/list/set in place.
MUTATING_METHODS = {"append", "add", "update", "setdefault", "pop",
                    "popitem", "clear", "extend", "insert", "remove",
                    "discard"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def is_scope_call(dotted: Optional[str]) -> bool:
    """Does a ``with`` item calling ``dotted`` enter a ``scoped()``
    context?  Any receiver counts: ``obs.scoped()``,
    ``verify_cache.scoped()``, ``self.scoped()``, a bare ``scoped()``."""
    return bool(dotted) and dotted.rsplit(".", 1)[-1] == "scoped"


@dataclass
class CallSite:
    """One ``Call`` node with its lexical context."""

    dotted: Optional[str]       # textual receiver chain, if expressible
    attr: Optional[str]         # last component (method name)
    lineno: int
    n_pos_args: int
    kwarg_names: Tuple[str, ...]
    awaited: bool = False
    is_stmt: bool = False       # the value is discarded (Expr statement)
    assigned: bool = False      # the value is bound to a name
    consumer: Optional[str] = None  # dotted name of the enclosing call
    locks_held: Tuple[str, ...] = ()
    in_scope: bool = False      # lexically inside a scoped()-like with
    is_with_item: bool = False  # this call IS a with-item context expr
    target: Optional["FunctionInfo"] = None  # resolved repo callee
    external: Optional[str] = None           # normalized external dotted


@dataclass
class LockAcquire:
    """One with-block acquisition of a known lock."""

    key: str                    # canonical lock identity
    lineno: int
    held: Tuple[str, ...]       # locks lexically held *outside* this one


@dataclass
class GlobalWrite:
    """An in-place mutation of a module-level mutable binding."""

    name: str
    lineno: int
    in_scope: bool
    locks_held: Tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    """One function/method/coroutine and everything the rules need."""

    qualname: str
    name: str
    module: "SourceModule"
    lineno: int
    is_async: bool
    cls: Optional[str] = None            # owning class qualname
    parent: Optional["FunctionInfo"] = None
    calls: List[CallSite] = field(default_factory=list)
    lock_acquires: List[LockAcquire] = field(default_factory=list)
    release_keys_in_finally: Set[str] = field(default_factory=set)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    # (with-item call site, block first line, block last line) -- lets
    # the link phase mark bodies scoped once activate()-style targets
    # resolve.
    with_regions: List[Tuple[CallSite, int, int]] = \
        field(default_factory=list)
    nested: Dict[str, "FunctionInfo"] = field(default_factory=dict)
    local_types: Dict[str, str] = field(default_factory=dict)
    enters_scope: bool = False   # contextmanager wrapping its yield in scoped()
    has_yield: bool = False


@dataclass
class ClassInfo:
    qualname: str                # module.Class
    name: str
    module: "SourceModule"
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    # attr name -> raw constructor dotted ("threading.Lock", "Queue",
    # "ShardContext", ...); resolved to a type tag in link().
    attr_ctors: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class SourceModule:
    path: str                    # as walked from the given target
    relpath: str                 # from the model root: the locator prefix
    modname: str
    tree: ast.Module = field(repr=False, default=None)
    source_lines: List[str] = field(default_factory=list, repr=False)
    # alias -> dotted module ("import a.b as x" / "from a import b").
    module_aliases: Dict[str, str] = field(default_factory=dict)
    # alias -> (source module dotted, symbol).
    from_symbols: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    # Every node of these kinds, anywhere in the file (one ast.walk).
    calls: List[ast.Call] = field(default_factory=list, repr=False)
    import_froms: List[ast.ImportFrom] = field(default_factory=list,
                                               repr=False)
    func_defs: List[ast.AST] = field(default_factory=list, repr=False)
    aug_assigns: List[ast.AugAssign] = field(default_factory=list,
                                             repr=False)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    # module-level NAME = threading.Lock()/RLock() -> "lock"/"rlock".
    locks: Dict[str, str] = field(default_factory=dict)
    # module-level NAME = ContextVar(...).
    contextvars: Set[str] = field(default_factory=set)
    # module-level NAME = {} / [] / set() / dict() ...
    mutable_globals: Set[str] = field(default_factory=set)

    def loc(self) -> int:
        return len(self.source_lines)

    def real_name(self, dotted: str) -> str:
        """``dotted`` with its head read through the import aliases."""
        head, dot, rest = dotted.partition(".")
        if head in self.module_aliases:
            head = self.module_aliases[head]
        elif head in self.from_symbols:
            head = ".".join(self.from_symbols[head])
        return head + dot + rest


# ---------------------------------------------------------------------------
# Type tags used by the attr/local inference
# ---------------------------------------------------------------------------

_LOCK_CTORS = {"threading.Lock": "lock", "threading.RLock": "rlock",
               "Lock": "lock", "RLock": "rlock"}
_QUEUE_CTOR_TAILS = ("Queue", "LifoQueue", "PriorityQueue",
                     "SimpleQueue", "JoinableQueue")
_SOCKET_CTORS = {"socket.create_connection", "socket.socket",
                 "create_connection"}


def _ctor_tag(dotted: Optional[str]) -> Optional[str]:
    """Type tag for a constructor-ish dotted name, or None."""
    if not dotted:
        return None
    if dotted in _LOCK_CTORS:
        return _LOCK_CTORS[dotted]
    tail = dotted.rsplit(".", 1)[-1]
    if tail in _QUEUE_CTOR_TAILS:
        return "queue"
    if dotted in _SOCKET_CTORS:
        return "socket"
    if dotted in ("ContextVar", "contextvars.ContextVar"):
        return "contextvar"
    return None


# ---------------------------------------------------------------------------
# Per-function extraction
# ---------------------------------------------------------------------------


class _FunctionWalker:
    """Recursive statement walk carrying lexical (locks, scope) state."""

    def __init__(self, fn: FunctionInfo, module: SourceModule) -> None:
        self.fn = fn
        self.module = module

    # -- entry ---------------------------------------------------------------

    def walk(self, body: Sequence[ast.stmt]) -> None:
        self._walk_body(body, locks=(), in_scope=False, in_finally=False)

    # -- statements ----------------------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt], locks: Tuple[str, ...],
                   in_scope: bool, in_finally: bool) -> None:
        for stmt in body:
            self._walk_stmt(stmt, locks, in_scope, in_finally)

    def _walk_stmt(self, stmt: ast.stmt, locks: Tuple[str, ...],
                   in_scope: bool, in_finally: bool) -> None:
        fn = self.fn
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _extract_function(stmt, self.module, cls=fn.cls,
                                       parent=fn)
            fn.nested[nested.name] = nested
            return
        if isinstance(stmt, ast.ClassDef):
            return  # classes nested in functions: out of scope
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new_locks = list(locks)
            new_scope = in_scope
            end = getattr(stmt, "end_lineno", None) or stmt.lineno
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    site = self._visit_call(expr, tuple(new_locks),
                                            new_scope, is_with_item=True)
                    if site is not None:
                        fn.with_regions.append((site, stmt.lineno, end))
                    if is_scope_call(site.dotted):
                        new_scope = True
                else:
                    # `with self._lock:` without a call -- bare lock.
                    key = self._lock_key(expr)
                    if key is not None:
                        fn.lock_acquires.append(LockAcquire(
                            key=key, lineno=expr.lineno,
                            held=tuple(new_locks)))
                        new_locks.append(key)
                    else:
                        self._visit_expr_tree(expr, locks, in_scope)
                if item.optional_vars is not None:
                    self._note_assignment(item.optional_vars, expr)
            self._walk_body(stmt.body, tuple(new_locks), new_scope,
                            in_finally)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, locks, in_scope, in_finally)
            for handler in stmt.handlers:
                self._walk_body(handler.body, locks, in_scope, in_finally)
            self._walk_body(stmt.orelse, locks, in_scope, in_finally)
            self._walk_body(stmt.finalbody, locks, in_scope, True)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._visit_expr_tree(stmt.test, locks, in_scope)
            self._walk_body(stmt.body, locks, in_scope, in_finally)
            self._walk_body(stmt.orelse, locks, in_scope, in_finally)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr_tree(stmt.iter, locks, in_scope)
            self._walk_body(stmt.body, locks, in_scope, in_finally)
            self._walk_body(stmt.orelse, locks, in_scope, in_finally)
            return
        if isinstance(stmt, ast.Assign):
            self._visit_expr_tree(stmt.value, locks, in_scope,
                                  assigned=_targets_bind_name(stmt.targets))
            for target in stmt.targets:
                self._note_assignment(target, stmt.value)
                self._note_global_write_target(target, stmt.lineno,
                                               in_scope, locks)
            return
        if isinstance(stmt, ast.AugAssign):
            self._visit_expr_tree(stmt.value, locks, in_scope)
            self._note_global_write_target(stmt.target, stmt.lineno,
                                           in_scope, locks)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_expr_tree(stmt.value, locks, in_scope,
                                      assigned=True)
                self._note_assignment(stmt.target, stmt.value)
            return
        if isinstance(stmt, ast.Expr):
            self._visit_expr_tree(stmt.value, locks, in_scope,
                                  is_stmt=True)
            self._note_release_and_mutation(stmt.value, in_finally,
                                            stmt.lineno, in_scope, locks)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._visit_expr_tree(stmt.value, locks, in_scope,
                                  assigned=True)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr_tree(child, locks, in_scope)
            return
        # Fallback: visit any expressions hanging off the statement.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr_tree(child, locks, in_scope)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child, locks, in_scope, in_finally)

    # -- expressions ---------------------------------------------------------

    def _visit_expr_tree(self, expr: ast.expr, locks: Tuple[str, ...],
                         in_scope: bool, is_stmt: bool = False,
                         assigned: bool = False) -> None:
        """Record every Call in ``expr`` (top-level call gets the flags)."""
        if isinstance(expr, ast.Await):
            inner = expr.value
            if isinstance(inner, ast.Call):
                self._visit_call(inner, locks, in_scope, awaited=True,
                                 is_stmt=is_stmt, assigned=assigned)
                return
            self._visit_expr_tree(inner, locks, in_scope)
            return
        if isinstance(expr, ast.Call):
            self._visit_call(expr, locks, in_scope, is_stmt=is_stmt,
                             assigned=assigned)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._visit_expr_tree(child, locks, in_scope)

    def _visit_call(self, call: ast.Call, locks: Tuple[str, ...],
                    in_scope: bool, awaited: bool = False,
                    is_stmt: bool = False, assigned: bool = False,
                    consumer: Optional[str] = None,
                    is_with_item: bool = False) -> CallSite:
        site = self._record_call(call, locks, in_scope, awaited, is_stmt,
                                 assigned, consumer, is_with_item)
        own = dotted_name(call.func)
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Call):
                self._visit_call(arg, locks, in_scope, consumer=own)
            elif isinstance(arg, ast.expr):
                self._visit_expr_tree(arg, locks, in_scope)
        # Chained receivers: router.submit_nowait(request).result().
        if isinstance(call.func, ast.Attribute) \
                and isinstance(call.func.value, ast.Call):
            self._visit_call(call.func.value, locks, in_scope,
                             assigned=True)
        return site

    def _record_call(self, call: ast.Call, locks, in_scope, awaited,
                     is_stmt, assigned, consumer,
                     is_with_item) -> CallSite:
        dotted = dotted_name(call.func)
        attr = call.func.attr if isinstance(call.func, ast.Attribute) \
            else (call.func.id if isinstance(call.func, ast.Name) else None)
        site = CallSite(
            dotted=dotted, attr=attr, lineno=call.lineno,
            n_pos_args=len(call.args),
            kwarg_names=tuple(kw.arg for kw in call.keywords if kw.arg),
            awaited=awaited, is_stmt=is_stmt, assigned=assigned,
            consumer=consumer, locks_held=tuple(locks),
            in_scope=in_scope, is_with_item=is_with_item)
        self.fn.calls.append(site)
        return site

    # -- helpers -------------------------------------------------------------

    def _lock_key(self, expr: ast.expr) -> Optional[str]:
        """Canonical lock identity for a non-call receiver expression."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        return lock_key(self.fn, dotted)

    def _note_assignment(self, target: ast.expr, value: ast.expr) -> None:
        """Track `x = Ctor(...)` locals and `self.x = Ctor(...)` attrs."""
        if not isinstance(value, ast.Call):
            return
        ctor = dotted_name(value.func)
        if ctor is None:
            return
        if isinstance(target, ast.Name):
            tag = _ctor_tag(ctor)
            self.fn.local_types[target.id] = tag if tag else ctor
        elif isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self" and self.fn.cls:
            cls = self.module.classes.get(self.fn.cls)
            if cls is not None and target.attr not in cls.attr_ctors:
                cls.attr_ctors[target.attr] = ctor

    def _note_release_and_mutation(self, expr: ast.expr, in_finally: bool,
                                   lineno: int, in_scope: bool,
                                   locks: Tuple[str, ...]) -> None:
        """Classify bare-statement calls: lock release / global mutation."""
        if not isinstance(expr, ast.Call) \
                or not isinstance(expr.func, ast.Attribute):
            return
        attr = expr.func.attr
        receiver = expr.func.value
        if attr == "release":
            key = self._lock_key(receiver)
            if key is not None and in_finally:
                self.fn.release_keys_in_finally.add(key)
            return
        if attr in MUTATING_METHODS and isinstance(receiver, ast.Name) \
                and receiver.id in self.module.mutable_globals \
                and not self._shadowed(receiver.id):
            self.fn.global_writes.append(GlobalWrite(
                name=receiver.id, lineno=lineno, in_scope=in_scope,
                locks_held=tuple(locks)))

    def _note_global_write_target(self, target: ast.expr, lineno: int,
                                  in_scope: bool,
                                  locks: Tuple[str, ...]) -> None:
        """`GLOBAL[k] = v` / `GLOBAL[k] += v` subscript mutations."""
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name) \
                and target.value.id in self.module.mutable_globals \
                and not self._shadowed(target.value.id):
            self.fn.global_writes.append(GlobalWrite(
                name=target.value.id, lineno=lineno, in_scope=in_scope,
                locks_held=tuple(locks)))

    def _shadowed(self, name: str) -> bool:
        scope: Optional[FunctionInfo] = self.fn
        while scope is not None:
            if name in scope.local_types:
                return True
            scope = scope.parent
        return False


def lock_key(fn: FunctionInfo, dotted: str) -> Optional[str]:
    """Canonical lock identity for a receiver chain in ``fn``, or None."""
    module = fn.module
    parts = dotted.split(".")
    if len(parts) == 1:
        name = parts[0]
        if name in module.locks:
            return f"{module.modname}.{name}"
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if scope.local_types.get(name) in ("lock", "rlock"):
                return f"{scope.qualname}.{name}"
            scope = scope.parent
        return None
    if parts[0] in ("self", "cls") and len(parts) == 2 and fn.cls:
        cls = module.classes.get(fn.cls)
        if cls and cls.attr_ctors.get(parts[1]) in _LOCK_CTORS:
            return f"{cls.qualname}.{parts[1]}"
    # A mod_alias.NAME lock in another repo module has no local key.
    return None


def _targets_bind_name(targets: Sequence[ast.expr]) -> bool:
    return any(isinstance(t, (ast.Name, ast.Tuple, ast.Attribute))
               for t in targets)


def _extract_function(node, module: SourceModule, cls: Optional[str],
                      parent: Optional[FunctionInfo]) -> FunctionInfo:
    if parent is not None:
        qualname = f"{parent.qualname}.{node.name}"
    elif cls is not None:
        qualname = f"{cls}.{node.name}"
    else:
        qualname = f"{module.modname}.{node.name}"
    fn = FunctionInfo(
        qualname=qualname, name=node.name, module=module,
        lineno=node.lineno,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        cls=cls, parent=parent)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            fn.has_yield = True
            break
    _FunctionWalker(fn, module).walk(node.body)
    return fn


# ---------------------------------------------------------------------------
# Module parsing
# ---------------------------------------------------------------------------


def _module_name(relpath: str) -> str:
    name = relpath[:-3] if relpath.endswith(".py") else relpath
    name = name.replace(os.sep, "/").replace("/", ".")
    if name.startswith("src."):
        name = name[4:]
    if name.endswith(".__init__"):
        name = name[:-len(".__init__")]
    return name


def parse_module(path: str, relpath: str) -> SourceModule:
    """Parse one file -- the run's only ``ast.parse`` of it -- and index
    it.  Raises ``SyntaxError``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    module = SourceModule(path=path.replace(os.sep, "/"),
                          relpath=relpath.replace(os.sep, "/"),
                          modname=_module_name(relpath), tree=tree,
                          source_lines=source.splitlines())
    _index_nodes(module)
    _scan_module_level(module)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _extract_function(node, module, cls=None, parent=None)
            module.functions[fn.name] = fn
        elif isinstance(node, ast.ClassDef):
            _extract_class(node, module)
    # Second pass: a method walked before `self.x = Ctor()` was seen in
    # a *later* method could not type `self.x`.  attr_ctors maps are
    # complete now, so rewalk methods once with the full picture.
    for cls_key, cls in list(module.classes.items()):
        if cls_key != cls.qualname:
            continue
        for method_name, node in cls._nodes.items():
            cls.methods[method_name] = _extract_function(
                node, module, cls=cls.qualname, parent=None)
    return module


def _extract_class(node: ast.ClassDef, module: SourceModule) -> None:
    qualname = f"{module.modname}.{node.name}"
    bases = tuple(b for b in (dotted_name(base) for base in node.bases)
                  if b is not None)
    cls = ClassInfo(qualname=qualname, name=node.name, module=module,
                    bases=bases)
    module.classes[qualname] = cls
    module.classes.setdefault(node.name, cls)
    nodes = {}
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes[item.name] = item
        elif isinstance(item, ast.Assign) and len(item.targets) == 1 \
                and isinstance(item.targets[0], ast.Name) \
                and isinstance(item.value, ast.Call):
            # Class-level attr: NAME = threading.Lock() etc.
            ctor = dotted_name(item.value.func)
            if ctor is not None:
                cls.attr_ctors.setdefault(item.targets[0].id, ctor)
    # First walk fills attr_ctors (self.x = Ctor()); the rewalk in
    # parse_module then sees the complete map.
    cls._nodes = nodes  # type: ignore[attr-defined]
    for name, item in nodes.items():
        cls.methods[name] = _extract_function(item, module,
                                              cls=qualname, parent=None)


def _index_nodes(module: SourceModule) -> None:
    """The one ``ast.walk`` over a file: the node lists the per-file
    rules scan, and the import alias tables (imports at any depth)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            module.calls.append(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.module_aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    module.module_aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            module.import_froms.append(node)
            if node.module is None or node.level:
                continue
            for alias in node.names:
                module.from_symbols[alias.asname or alias.name] = \
                    (node.module, alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.func_defs.append(node)
        elif isinstance(node, ast.AugAssign):
            module.aug_assigns.append(node)


def _scan_module_level(module: SourceModule) -> None:
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Call):
                ctor = dotted_name(value.func)
                tag = _ctor_tag(ctor)
                if tag in ("lock", "rlock"):
                    module.locks[name] = tag
                elif tag == "contextvar":
                    module.contextvars.add(name)
                elif ctor in ("dict", "list", "set", "defaultdict",
                              "OrderedDict", "collections.defaultdict",
                              "collections.OrderedDict"):
                    module.mutable_globals.add(name)
            elif isinstance(value, (ast.Dict, ast.List, ast.Set)):
                module.mutable_globals.add(name)


# ---------------------------------------------------------------------------
# Repo model + linking
# ---------------------------------------------------------------------------


def iter_python_files(targets: Sequence[str]):
    for target in targets:
        if os.path.isfile(target):
            yield target
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in ("__pycache__", ".git")
                and not d.endswith(".egg-info"))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


class RepoModel:
    """Every parsed module, linked into one resolvable namespace."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.modules: Dict[str, SourceModule] = {}
        self._by_modname: Dict[str, SourceModule] = {}
        # (locator, message) of every file that does not parse.
        self.unparsable: List[Tuple[str, str]] = []

    @classmethod
    def build(cls, paths: Sequence[str],
              root: Optional[str] = None) -> "RepoModel":
        root = os.path.abspath(root if root is not None
                               else os.path.commonpath(
                                   [os.path.abspath(p) for p in paths]))
        if os.path.isfile(root):
            root = os.path.dirname(root)
        model = cls(root)
        for path in iter_python_files(list(paths)):
            relpath = os.path.relpath(os.path.abspath(path), root)
            try:
                module = parse_module(path, relpath)
            except SyntaxError as exc:
                model.unparsable.append(
                    (f"{relpath.replace(os.sep, '/')}:{exc.lineno or 0}",
                     exc.msg))
                continue
            model.modules[module.relpath] = module
            model._by_modname[module.modname] = module
        model.link()
        return model

    # -- lookups -------------------------------------------------------------

    def all_functions(self):
        for module in self.modules.values():
            stack = list(module.functions.values())
            for cls_key, cls in module.classes.items():
                if cls_key == cls.qualname:   # skip the short-name alias
                    stack.extend(cls.methods.values())
            while stack:
                fn = stack.pop()
                yield fn
                stack.extend(fn.nested.values())

    def total_loc(self) -> int:
        return sum(m.loc() for m in self.modules.values())

    # -- linking -------------------------------------------------------------

    def link(self) -> None:
        for module in self.modules.values():
            self._resolve_attr_types(module)
        for fn in self.all_functions():
            for site in fn.calls:
                self._resolve_site(fn, site)
        self._propagate_enters_scope()

    def _resolve_attr_types(self, module: SourceModule) -> None:
        for cls_key, cls in module.classes.items():
            if cls_key != cls.qualname:
                continue
            for attr, ctor in cls.attr_ctors.items():
                tag = _ctor_tag(ctor)
                if tag:
                    cls.attr_types[attr] = tag
                    continue
                target = self._resolve_class(module, ctor)
                if target is not None:
                    cls.attr_types[attr] = target.qualname

    def _resolve_class(self, module: SourceModule,
                       dotted: str) -> Optional[ClassInfo]:
        parts = dotted.split(".")
        if len(parts) == 1:
            cls = module.classes.get(parts[0])
            if cls is not None:
                return cls
            if parts[0] in module.from_symbols:
                src, symbol = module.from_symbols[parts[0]]
                target = self._by_modname.get(src)
                if target is not None:
                    return target.classes.get(symbol)
            return None
        alias_mod = self._alias_module(module, parts[0])
        if alias_mod is not None and len(parts) == 2:
            return alias_mod.classes.get(parts[1])
        return None

    def _alias_module(self, module: SourceModule,
                      alias: str) -> Optional[SourceModule]:
        dotted = module.module_aliases.get(alias)
        if dotted is not None:
            found = self._by_modname.get(dotted)
            if found is not None:
                return found
        if alias in module.from_symbols:
            src, symbol = module.from_symbols[alias]
            return self._by_modname.get(f"{src}.{symbol}")
        return None

    def _resolve_site(self, fn: FunctionInfo, site: CallSite) -> None:
        if site.dotted is None:
            return
        parts = site.dotted.split(".")
        module = fn.module
        if len(parts) == 1:
            self._resolve_bare(fn, site, parts[0])
            return
        head = parts[0]
        if head in ("self", "cls") and fn.cls:
            self._resolve_self(fn, site, parts)
            return
        # Local variable with an inferred repo-class type.
        local_type = self._lookup_local_type(fn, head)
        if local_type is not None and len(parts) == 2:
            target = self._method_of(local_type, parts[1])
            if target is not None:
                site.target = target
                return
        alias_mod = self._alias_module(module, head)
        if alias_mod is not None:
            self._resolve_in_module(site, alias_mod, parts[1:])
            return
        # Non-repo module alias: normalize to the real dotted name.
        if head in module.module_aliases or head in module.from_symbols:
            site.external = module.real_name(site.dotted)

    def _resolve_in_module(self, site: CallSite, module: SourceModule,
                           parts: List[str]) -> None:
        if len(parts) == 1:
            name = parts[0]
            if name in module.functions:
                site.target = module.functions[name]
                return
            cls = module.classes.get(name)
            if cls is not None:
                site.target = cls.methods.get("__init__")
                return
        site.external = ".".join([module.modname] + parts)

    def _resolve_bare(self, fn: FunctionInfo, site: CallSite,
                      name: str) -> None:
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if name in scope.nested:
                site.target = scope.nested[name]
                return
            scope = scope.parent
        module = fn.module
        if name in module.functions:
            site.target = module.functions[name]
            return
        cls = module.classes.get(name)
        if cls is not None:
            site.target = cls.methods.get("__init__")
            return
        if name in module.from_symbols:
            src, symbol = module.from_symbols[name]
            target_mod = self._by_modname.get(src)
            if target_mod is not None:
                if symbol in target_mod.functions:
                    site.target = target_mod.functions[symbol]
                    return
                cls = target_mod.classes.get(symbol)
                if cls is not None:
                    site.target = cls.methods.get("__init__")
                    return
            site.external = f"{src}.{symbol}"

    def _resolve_self(self, fn: FunctionInfo, site: CallSite,
                      parts: List[str]) -> None:
        module = fn.module
        cls = module.classes.get(fn.cls)
        if cls is None:
            return
        if len(parts) == 2:
            target = self._method_in_hierarchy(cls, parts[1])
            if target is not None:
                site.target = target
            return
        if len(parts) == 3:
            attr_type = cls.attr_types.get(parts[1])
            if attr_type and "." in attr_type:
                target = self._method_of(attr_type, parts[2])
                if target is not None:
                    site.target = target

    def _method_in_hierarchy(self, cls: ClassInfo,
                             name: str) -> Optional[FunctionInfo]:
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                resolved = self._resolve_class(current.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def derives_from(self, cls: ClassInfo, bases: Sequence[str]) -> bool:
        """Whether a class in ``cls``'s repo hierarchy names one of the
        dotted ``bases`` (read through its module's imports)."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            for base in current.bases:
                if current.module.real_name(base) in bases:
                    return True
                resolved = self._resolve_class(current.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return False

    def _method_of(self, cls_qualname: str,
                   name: str) -> Optional[FunctionInfo]:
        modname, _, cls_name = cls_qualname.rpartition(".")
        module = self._by_modname.get(modname)
        if module is None:
            return None
        cls = module.classes.get(cls_qualname) or module.classes.get(cls_name)
        if cls is None:
            return None
        return self._method_in_hierarchy(cls, name)

    def _lookup_local_type(self, fn: FunctionInfo,
                           name: str) -> Optional[str]:
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            ctor = scope.local_types.get(name)
            if ctor is not None and ctor not in ("lock", "rlock", "queue",
                                                 "socket", "contextvar"):
                resolved = self._resolve_class(fn.module, ctor)
                if resolved is not None:
                    return resolved.qualname
                return None
            scope = scope.parent
        return None

    def _propagate_enters_scope(self) -> None:
        """Fixpoint over with-regions: a with-item call that is (or
        resolves to) a scoped()-style context marks every site and
        global write lexically inside its block as scoped, and marks
        the enclosing contextmanager (has_yield) as scope-entering so
        *its* callers' with-blocks become scoped on the next sweep
        (scoped -> ShardContext.activate -> any wrapper around it)."""
        functions = list(self.all_functions())
        for _ in range(4):
            changed = False
            for fn in functions:
                for site, start, end in fn.with_regions:
                    if not self._site_enters_scope(site):
                        continue
                    if fn.has_yield and not fn.enters_scope:
                        fn.enters_scope = True
                        changed = True
                    if self._mark_scoped(fn, start, end):
                        changed = True
            if not changed:
                break

    def _mark_scoped(self, fn: FunctionInfo, start: int,
                     end: int) -> bool:
        changed = False
        for site in fn.calls:
            if start <= site.lineno <= end and not site.in_scope \
                    and not site.is_with_item:
                site.in_scope = True
                changed = True
        for write in fn.global_writes:
            if start <= write.lineno <= end and not write.in_scope:
                write.in_scope = True
                changed = True
        return changed

    def _site_enters_scope(self, site: CallSite) -> bool:
        target = site.target
        return is_scope_call(site.dotted) or bool(
            target is not None and target.enters_scope)

    # -- receiver typing for the rules --------------------------------------

    def receiver_type(self, fn: FunctionInfo,
                      receiver_dotted: str) -> Optional[str]:
        """Best-effort type tag ("lock", "queue", "socket", "contextvar",
        a repo class qualname) for a receiver chain, or None."""
        parts = receiver_dotted.split(".")
        module = fn.module
        if len(parts) == 1:
            name = parts[0]
            if name in module.locks:
                return module.locks[name]
            if name in module.contextvars:
                return "contextvar"
            scope: Optional[FunctionInfo] = fn
            while scope is not None:
                tag = scope.local_types.get(name)
                if tag in ("lock", "rlock", "queue", "socket",
                           "contextvar"):
                    return tag
                scope = scope.parent
            if name in module.from_symbols:
                src, _symbol = module.from_symbols[name]
                src_mod = self._by_modname.get(src)
                if src_mod is not None:
                    symbol = module.from_symbols[name][1]
                    if symbol in src_mod.locks:
                        return src_mod.locks[symbol]
                    if symbol in src_mod.contextvars:
                        return "contextvar"
            return None
        if parts[0] in ("self", "cls") and fn.cls and len(parts) == 2:
            cls = module.classes.get(fn.cls)
            if cls is not None:
                return cls.attr_types.get(parts[1])
            return None
        alias_mod = self._alias_module(module, parts[0])
        if alias_mod is not None and len(parts) == 2:
            if parts[1] in alias_mod.locks:
                return alias_mod.locks[parts[1]]
            if parts[1] in alias_mod.contextvars:
                return "contextvar"
        return None

    def lock_kind(self, key: str) -> str:
        """"lock" or "rlock" for a canonical lock key (default "lock")."""
        modname, _, name = key.rpartition(".")
        module = self._by_modname.get(modname)
        if module is not None and name in module.locks:
            return module.locks[name]
        # Class-attr key: module.Class.attr
        cls_qual, _, attr = key.rpartition(".")
        mod_of_cls, _, cls_name = cls_qual.rpartition(".")
        module = self._by_modname.get(mod_of_cls)
        if module is not None:
            cls = module.classes.get(cls_qual) \
                or module.classes.get(cls_name)
            if cls is not None:
                return _LOCK_CTORS.get(cls.attr_ctors.get(attr, ""),
                                       "lock")
        return "lock"
