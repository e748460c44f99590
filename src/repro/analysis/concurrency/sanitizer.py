"""Eraser-style runtime lockset sanitizer.

Patches ``threading.Lock``/``threading.RLock`` so every lock created
while installed is a thin wrapper that tracks, per thread, the stack of
locks currently held (keyed by the lock's *creation site*,
``file:line``).  Two checks come out of that bookkeeping:

* **acquisition order** -- acquiring B while holding A records the
  edge A -> B; a cycle among the observed edges (including A -> A on a
  non-reentrant Lock, which is reported *immediately*, before the
  acquire would deadlock) is an ordering hazard, exactly what the
  static ``lock-order-cycle`` rule predicts;
* **lockset balance** -- releases must match acquires on the owning
  thread (an unbalanced release raises from the lock itself; the
  sanitizer counts what it saw).

The wrappers are shape-compatible with ``threading.Condition``: the
plain-Lock wrapper deliberately does NOT define
``_release_save``/``_acquire_restore``/``_is_owned`` (Condition's
``hasattr`` probes must fail so it falls back to its portable path),
while the RLock wrapper defines all three and keeps the held-stack
consistent across ``Condition.wait``.

Installed by ``pytest --sanitize`` (see ``tests/conftest.py``).
"""

import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


def _creation_site() -> str:
    """file:line of the nearest caller outside this module/threading."""
    frame = sys._getframe(2)
    skip = (__file__, threading.__file__)
    while frame is not None and frame.f_code.co_filename in skip:
        frame = frame.f_back
    if frame is None:
        return "<unknown>:0"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


@dataclass
class SanitizerViolation:
    kind: str                 # "self-deadlock" | "order-cycle"
    message: str
    sites: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "sites": list(self.sites)}


@dataclass
class SanitizerReport:
    violations: Tuple[SanitizerViolation, ...]
    locks_created: int
    acquires: int
    max_held_depth: int
    order_edges: int
    extras: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "locks_created": self.locks_created,
            "acquires": self.acquires,
            "max_held_depth": self.max_held_depth,
            "order_edges": self.order_edges,
            "extras": self.extras,
        }


class _SanitizedLock:
    """Wrapper around a real non-reentrant lock."""

    _reentrant = False

    def __init__(self, sanitizer: "LockSanitizer", site: str) -> None:
        self._san = sanitizer
        self._site = site
        self._inner = _REAL_LOCK()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._san._before_acquire(self, blocking)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san._note_acquired(self)
        return got

    def release(self) -> None:
        self._inner.release()
        self._san._note_released(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<sanitized Lock from {self._site}>"


class _SanitizedRLock:
    """Wrapper around a real reentrant lock, Condition-compatible."""

    _reentrant = True

    def __init__(self, sanitizer: "LockSanitizer", site: str) -> None:
        self._san = sanitizer
        self._site = site
        self._inner = _REAL_RLOCK()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._san._before_acquire(self, blocking)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san._note_acquired(self)
        return got

    def release(self) -> None:
        self._inner.release()
        self._san._note_released(self)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    # Condition protocol: keep the held-stack honest across wait().
    def _release_save(self):
        count = self._san._drop_all(self)
        return self._inner._release_save(), count

    def _acquire_restore(self, saved) -> None:
        state, count = saved
        self._inner._acquire_restore(state)
        self._san._restore(self, count)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def __repr__(self) -> str:
        return f"<sanitized RLock from {self._site}>"


class LockSanitizer:
    """Install/uninstall the wrappers; collect locksets and order edges."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._state_lock = _REAL_LOCK()
        # (held site, acquired site) -> first-observed thread name.
        self.edges: Dict[Tuple[str, str], str] = {}
        self.locks_created = 0
        self.acquires = 0
        self.max_held_depth = 0
        self._violations: List[SanitizerViolation] = []
        self._installed = False

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return

        def make_lock():
            self.locks_created += 1
            return _SanitizedLock(self, _creation_site())

        def make_rlock():
            self.locks_created += 1
            return _SanitizedRLock(self, _creation_site())

        threading.Lock = make_lock
        threading.RLock = make_rlock
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = _REAL_LOCK
        threading.RLock = _REAL_RLOCK
        self._installed = False

    def __enter__(self) -> "LockSanitizer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-thread bookkeeping ----------------------------------------------

    def _held(self) -> List[object]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _before_acquire(self, lock, blocking: bool) -> None:
        held = self._held()
        if not lock._reentrant and blocking \
                and any(entry is lock for entry in held):
            violation = SanitizerViolation(
                kind="self-deadlock",
                message=(f"non-reentrant lock {lock._site} re-acquired "
                         f"on thread {threading.current_thread().name} "
                         f"while already held"),
                sites=(lock._site,))
            with self._state_lock:
                self._violations.append(violation)
            raise RuntimeError(f"lock sanitizer: {violation.message}")
        new_edges = []
        for entry in held:
            if entry._site != lock._site:
                new_edges.append((entry._site, lock._site))
        if new_edges:
            name = threading.current_thread().name
            with self._state_lock:
                for edge in new_edges:
                    self.edges.setdefault(edge, name)

    def _note_acquired(self, lock) -> None:
        held = self._held()
        held.append(lock)
        with self._state_lock:
            self.acquires += 1
            if len(held) > self.max_held_depth:
                self.max_held_depth = len(held)

    def _note_released(self, lock) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] is lock:
                del held[index]
                return

    def _drop_all(self, lock) -> int:
        """Remove every entry for ``lock`` (Condition.wait release)."""
        held = self._held()
        count = sum(1 for entry in held if entry is lock)
        held[:] = [entry for entry in held if entry is not lock]
        return count

    def _restore(self, lock, count: int) -> None:
        held = self._held()
        held.extend(lock for _ in range(count))

    # -- reporting -----------------------------------------------------------

    def report(self) -> SanitizerReport:
        """Snapshot stats and run cycle detection over observed edges."""
        with self._state_lock:
            edges = dict(self.edges)
            violations = list(self._violations)
        adjacency: Dict[str, List[str]] = {}
        for a, b in edges:
            adjacency.setdefault(a, []).append(b)
        for cycle in _find_cycles(adjacency):
            threads = sorted({edges.get((cycle[i], cycle[(i + 1) % len(cycle)]), "?")
                              for i in range(len(cycle))})
            violations.append(SanitizerViolation(
                kind="order-cycle",
                message=(f"locks acquired in conflicting orders: "
                         f"{' -> '.join(cycle + (cycle[0],))} "
                         f"(threads: {', '.join(threads)})"),
                sites=tuple(cycle)))
        return SanitizerReport(
            violations=tuple(violations),
            locks_created=self.locks_created,
            acquires=self.acquires,
            max_held_depth=self.max_held_depth,
            order_edges=len(edges),
        )


def _find_cycles(adjacency: Dict[str, List[str]]):
    """Elementary cycles via SCC decomposition (one cycle per SCC)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    cycles: List[Tuple[str, ...]] = []
    nodes = sorted(set(adjacency)
                   | {b for succs in adjacency.values() for b in succs})

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(adjacency.get(root, ()))))]
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
                    work.append(
                        (succ, iter(sorted(adjacency.get(succ, ())))))
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
                    cycles.append(tuple(sorted(component)))

    for node in nodes:
        if node not in index:
            strongconnect(node)
    return cycles


_ACTIVE: Optional[LockSanitizer] = None


def install() -> LockSanitizer:
    """Module-level convenience: one active sanitizer at a time."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = LockSanitizer()
        _ACTIVE.install()
    return _ACTIVE


def uninstall() -> Optional[SanitizerReport]:
    """Tear down the active sanitizer; returns its final report."""
    global _ACTIVE
    if _ACTIVE is None:
        return None
    report = _ACTIVE.report()
    _ACTIVE.uninstall()
    _ACTIVE = None
    return report


def active() -> Optional[LockSanitizer]:
    return _ACTIVE
