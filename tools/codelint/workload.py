"""Seeded concurrency-defect generator for the code linter.

The code-side sibling of ``repro.workloads.defects``: where that
module plants policy defects in a delegation graph, this one writes a
small synthetic *source tree* -- a shard-shaped service in miniature --
with exactly the concurrency defects the linter must recover,
line-exact, plus one frozen value type pierced from outside its own
module.  ``clean=True`` emits the same tree with every defect
repaired (await the coroutine, consistent lock order, scoped access,
token reset, ask the owner for its cache), which is the zero-findings
control arm.  Optional filler
modules scale the tree to benchmark KLoC without adding findings.

Locators are ``relpath:line`` strings riding in the findings'
``delegation_ids`` slot, so ``verify()`` mirrors the policy
workload's id-exact contract.
"""

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.static.findings import exactness_mismatches

from . import lint_paths


class _FileBuilder:
    """Accumulates lines and records the line numbers of plants."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.lines: List[str] = []
        self.plants: List[Tuple[str, int]] = []

    def add(self, *lines: str) -> None:
        self.lines.extend(lines)

    def plant(self, rule_id: str, line: str) -> None:
        """Append ``line`` and record it as ``rule_id``'s plant."""
        self.lines.append(line)
        self.plants.append((rule_id, len(self.lines)))

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def locators(self) -> List[Tuple[str, str]]:
        return [(rule_id, f"{self.relpath}:{line}")
                for rule_id, line in self.plants]


@dataclass
class CodeDefectWorkload:
    """A synthetic source tree with known concurrency defects."""

    files: Dict[str, str]
    # rule id -> the exact relpath:line locators that rule must report.
    expected: Dict[str, Tuple[str, ...]]
    clean: bool
    seed: Optional[int]
    description: str = ""
    extras: dict = field(default_factory=dict)
    root: Optional[str] = None

    def write_to(self, root: str) -> str:
        """Materialize the tree under ``root``; returns ``root``."""
        for relpath, source in self.files.items():
            path = os.path.join(root, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
        self.root = root
        return root

    def analyze(self, **kwargs):
        """Run the code linter over the written tree."""
        if self.root is None:
            raise RuntimeError("call write_to(root) before analyze()")
        report = lint_paths([self.root], root=self.root, **kwargs)
        report.source = self.description
        return report

    def verify(self, report) -> List[str]:
        """Exactness check: every plant found, nothing else flagged."""
        return exactness_mismatches(self.expected, report.ids_by_rule())

    def total_loc(self) -> int:
        return sum(source.count("\n") for source in self.files.values())

    def n_plants(self) -> int:
        return sum(len(v) for v in self.expected.values())

    def __len__(self) -> int:
        return len(self.files)


# ---------------------------------------------------------------------------
# The defective miniature service, one file per rule family
# ---------------------------------------------------------------------------


def _build_serverlet(clean: bool) -> _FileBuilder:
    fb = _FileBuilder("pkg/serverlet.py")
    fb.add(
        '"""Async front door (blocking-in-async plants live here)."""',
        "",
        "import asyncio",
        "import time",
        "",
        "from pkg import journal",
        "",
        "",
        "async def handle(conn):",
    )
    if clean:
        fb.add("    await asyncio.sleep(0.01)")
    else:
        fb.plant("blocking-in-async", "    time.sleep(0.01)")
    fb.add(
        "    journal.note(conn)",
        "    return conn",
        "",
        "",
        "async def main():",
        "    return await handle(None)",
        "",
        "",
        "class Door(asyncio.Protocol):",
        "    # The loop calls data_received on its own stack, as it",
        "    # resumes a coroutine.",
        "    def data_received(self, data):",
    )
    if clean:
        fb.add("        asyncio.get_running_loop().call_later(0.01, print)")
    else:
        fb.plant("blocking-in-async", "        time.sleep(0.01)")
    fb.add(
        "        self.last = data",
        "",
        "",
        "def flush_now(path):",
        "    # Sync-only caller: journal.flush_all is fine from here.",
        "    return journal.flush_all(path)",
    )
    return fb


def _build_journal(clean: bool) -> _FileBuilder:
    fb = _FileBuilder("pkg/journal.py")
    fb.add(
        '"""Durable note log; flush_all blocks on purpose."""',
        "",
        "import os",
        "",
        "NOTES = []",
        "",
        "",
        "def note(entry):",
    )
    if clean:
        # The coroutine path stops here: no fsync reachable.
        fb.add("    return entry")
    else:
        # handle() -> note() -> flush_all() -> os.fsync: the plant is
        # the fsync *site*, reached transitively from a coroutine.
        fb.add("    return flush_all(entry)")
    fb.add(
        "",
        "",
        "def flush_all(entry):",
        "    fd = os.open(os.devnull, os.O_WRONLY)",
        "    try:",
    )
    if clean:
        fb.add("        os.fsync(fd)")
    else:
        fb.plant("blocking-in-async", "        os.fsync(fd)")
    fb.add(
        "    finally:",
        "        os.close(fd)",
        "    return entry",
    )
    return fb


def _build_lockbox(clean: bool) -> _FileBuilder:
    fb = _FileBuilder("pkg/lockbox.py")
    fb.add(
        '"""Two locks, three disciplines (order + bare-acquire plants)."""',
        "",
        "import threading",
        "",
        "SWEEP_LOCK = threading.Lock()",
        "DRAIN_LOCK = threading.Lock()",
        "LEDGER = []",
        "",
        "",
        "def sweep():",
        "    with SWEEP_LOCK:",
    )
    if clean:
        fb.add("        with DRAIN_LOCK:")
    else:
        fb.plant("lock-order-cycle", "        with DRAIN_LOCK:")
    fb.add(
        "            LEDGER.append('sweep')",
        "",
        "",
        "def drain():",
    )
    if clean:
        # Same global order as sweep: SWEEP_LOCK before DRAIN_LOCK.
        fb.add(
            "    with SWEEP_LOCK:",
            "        with DRAIN_LOCK:",
            "            LEDGER.append('drain')",
        )
    else:
        fb.add("    with DRAIN_LOCK:")
        fb.plant("lock-order-cycle", "        with SWEEP_LOCK:")
        fb.add("            LEDGER.append('drain')")
    fb.add(
        "",
        "",
        "def grab(entry):",
    )
    if clean:
        # Bare acquire is legal when release is guaranteed in finally.
        fb.add(
            "    SWEEP_LOCK.acquire()",
            "    try:",
            "        LEDGER.append(entry)",
            "    finally:",
            "        SWEEP_LOCK.release()",
        )
    else:
        fb.plant("lock-discipline", "    SWEEP_LOCK.acquire()")
        fb.add(
            "    LEDGER.append(entry)",
            "    SWEEP_LOCK.release()",
        )
    return fb


def _build_shardlike(clean: bool) -> _FileBuilder:
    fb = _FileBuilder("pkg/shardlike.py")
    fb.add(
        '"""Shard-shaped runtime (scope-escape plants live here)."""',
        "",
        "from repro import obs",
        "",
        "TALLY = {}",
        "",
        "",
        "class ShardRuntime:",
        "    def __init__(self, shard_id):",
        "        self.shard_id = shard_id",
        "",
        "    def handle(self, request):",
    )
    if clean:
        fb.add(
            "        with obs.scoped():",
            "            obs.counter('served').inc()",
            "            TALLY[self.shard_id] = request",
            "        return request",
        )
    else:
        fb.plant("scope-escape", "        obs.counter('served').inc()")
        fb.plant("scope-escape", "        TALLY[self.shard_id] = request")
        fb.add("        return request")
    fb.add(
        "",
        "    def _audit(self, request):",
        "        # Private helper: only reachable through handle().",
        "        return request",
    )
    return fb


def _build_taskflow(clean: bool) -> _FileBuilder:
    fb = _FileBuilder("pkg/taskflow.py")
    fb.add(
        '"""Task orchestration (unawaited / fire-and-forget plants)."""',
        "",
        "import asyncio",
        "",
        "",
        "async def refresh(session):",
        "    return session",
        "",
        "",
        "async def watchdog(session):",
        "    return session",
        "",
        "",
        "async def orchestrate(session):",
    )
    if clean:
        fb.add(
            "    await refresh(session)",
            "    task = asyncio.create_task(watchdog(session))",
            "    await task",
        )
    else:
        fb.plant("unawaited-coroutine", "    refresh(session)")
        fb.plant("fire-and-forget-task",
                 "    asyncio.create_task(watchdog(session))")
    fb.add("    return session")
    return fb


def _build_ctxflow(clean: bool) -> _FileBuilder:
    fb = _FileBuilder("pkg/ctxflow.py")
    fb.add(
        '"""Session context (contextvar-discipline plant lives here)."""',
        "",
        "from contextvars import ContextVar",
        "",
        "ACTIVE = ContextVar('active', default=None)",
        "",
        "",
        "def enter(session):",
    )
    if clean:
        fb.add(
            "    token = ACTIVE.set(session)",
            "    try:",
            "        return session",
            "    finally:",
            "        ACTIVE.reset(token)",
        )
    else:
        fb.plant("contextvar-discipline", "    ACTIVE.set(session)")
        fb.add("    return session")
    return fb


def _build_value_caches(clean: bool) -> List[_FileBuilder]:
    """A frozen value type caching in its own module (legal), and a
    graph module that pierces it from outside (the frozen-setattr
    plant); ``clean`` asks the owner for the cached key instead."""
    owner = _FileBuilder("pkg/core/roles.py")
    owner.add(
        '"""A frozen value type that caches its node key on itself."""',
        "",
        "from dataclasses import dataclass",
        "",
        "",
        "@dataclass(frozen=True)",
        "class Role:",
        "    name: str",
        "",
        "    def node_key(self):",
        "        cached = self.__dict__.get('_node_key')",
        "        if cached is None:",
        "            cached = ('role', self.name)",
        "            object.__setattr__(self, '_node_key', cached)",
        "        return cached",
    )
    user = _FileBuilder("pkg/core/graphlike.py")
    user.add(
        '"""Graph nodes keyed by role (frozen-setattr plant lives here)."""',
        "",
        "",
        "def node_of(role):",
    )
    if clean:
        user.add("    return role.node_key()")
    else:
        user.plant("frozen-setattr",
                   "    object.__setattr__(role, '_node_key', role.name)")
        user.add("    return role.name")
    return [owner, user]


def _build_filler(index: int, rng) -> _FileBuilder:
    """A clean, plausible worker module; scales the tree's KLoC."""
    fb = _FileBuilder(f"filler/worker_{index:03d}.py")
    fb.add(
        f'"""Generated filler worker {index} (clean by construction)."""',
        "",
        "import threading",
        "",
        f"GUARD_{index} = threading.Lock()",
        f"STATE_{index} = {{}}",
        "",
    )
    n_functions = rng.randint(6, 12)
    for fidx in range(n_functions):
        span = rng.randint(2, 5)
        fb.add("", f"def step_{index}_{fidx}(value):")
        for k in range(span):
            fb.add(f"    value = value + {rng.randint(1, 9)}  # stage {k}")
        if fidx and rng.random() < 0.5:
            fb.add(f"    value = step_{index}_{fidx - 1}(value)")
        fb.add("    return value")
    fb.add(
        "",
        "",
        f"def checkpoint_{index}(key, value):",
        f"    with GUARD_{index}:",
        f"        STATE_{index}[key] = step_{index}_0(value)",
        f"    return STATE_{index}",
    )
    return fb


def make_code_defect_workload(seed: Optional[int] = None,
                              clean: bool = False,
                              filler_modules: int = 0,
                              ) -> CodeDefectWorkload:
    """Build the miniature service tree (defective unless ``clean``).

    ``filler_modules`` appends that many generated clean worker
    modules, scaling total LoC for throughput benchmarks without
    changing the expected findings.
    """
    rng = random.Random(seed if seed is not None else 0)
    builders = [
        _build_serverlet(clean),
        _build_journal(clean),
        _build_lockbox(clean),
        _build_shardlike(clean),
        _build_taskflow(clean),
        _build_ctxflow(clean),
        *_build_value_caches(clean),
    ]
    for index in range(filler_modules):
        builders.append(_build_filler(index, rng))

    files: Dict[str, str] = {"pkg/__init__.py": "",
                             "pkg/core/__init__.py": ""}
    if filler_modules:
        files["filler/__init__.py"] = ""
    expected: Dict[str, List[str]] = {}
    for fb in builders:
        files[fb.relpath] = fb.source()
        for rule_id, locator in fb.locators():
            expected.setdefault(rule_id, []).append(locator)

    return CodeDefectWorkload(
        files=files,
        expected={rule: tuple(sorted(locs))
                  for rule, locs in expected.items()},
        clean=clean,
        seed=seed,
        description=("clean control tree" if clean else
                     "miniature shard service with planted "
                     "concurrency defects"),
        extras={"filler_modules": filler_modules},
    )


def workload_from_spec(spec: str) -> CodeDefectWorkload:
    """Build the tree named by ``defective[:SEED[:FILLER]]`` or
    ``clean[:SEED[:FILLER]]`` (FILLER = generated clean worker modules
    for scale).  Raises ValueError on anything else."""
    grammar = "defective[:SEED[:FILLER]] or clean[:SEED[:FILLER]]"
    name, _, rest = spec.partition(":")
    if name not in ("defective", "clean"):
        raise ValueError(f"unknown code workload {name!r} "
                         f"(expected {grammar})")
    seed_text, _, filler_text = rest.partition(":")
    try:
        seed = int(seed_text) if seed_text else None
        filler = int(filler_text) if filler_text else 0
    except ValueError:
        raise ValueError(f"bad code workload spec {spec!r} "
                         f"(expected {grammar})") from None
    return make_code_defect_workload(seed=seed, clean=(name == "clean"),
                                     filler_modules=filler)
