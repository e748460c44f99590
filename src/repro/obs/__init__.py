"""Unified observability layer: metrics registry + trace spans + exporters.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.trace.Tracer`, shared by every instrumented module
(wallet, proof cache, discovery engine + fast path, Switchboard, RPC,
pubsub hub, signature memo).  See docs/OBSERVABILITY.md for the metric
catalog and span-name inventory.

The switch
----------

``DRBAC_OBS=off`` (or ``0``/``false``/``no``) -- the one environment
variable ``src/`` reads -- :func:`set_enabled` and the :func:`disabled`
context manager turn *tracing* off.  With tracing off, :func:`span` returns a shared no-op context
manager: the instrumented hot paths pay one global load and one truth
test, which is what keeps the ``DRBAC_OBS=on`` vs. ``off`` delta under
the 3% budget enforced by ``benchmarks/bench_observability.py``.

Metric counters are *not* gated: they are the same per-instance tallies
the repo always kept (a proof cache's ``stats.hits`` and friends now
live in the registry but cost the same one addition), and the legacy surfaces
(``Wallet.cache_info()``, ``DiscoveryStats``, Switchboard counters)
must keep returning live numbers regardless of the switch.

Clocks
------

Call :func:`use_clock` with the run's :class:`~repro.core.clock.Clock`
and both the registry snapshot and every span pick up virtual
timestamps (``vstart``/``vend``) alongside wall durations.

Scoping
-------

Multi-tenant hosts (the sharded service layer) need several registries
to coexist in one process: each shard's wallets and memos must tally
into that shard's registry, not a process-wide one.  :func:`scoped`
installs a :class:`ObsScope` (registry + tracer pair) in a
``contextvars.ContextVar``; everything constructed or instrumented
inside the ``with`` block -- :func:`registry`, :func:`tracer`,
:func:`counter`, :func:`span`, and transitively every
``VerificationMemo``/``Wallet``/stats object built there -- lands in
the scoped pair.  Outside any scope the process-wide defaults apply,
so existing callers see no change.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from .metrics import (  # noqa: F401  (re-exported)
    Counter, CounterSet, Gauge, Histogram, MetricsRegistry,
    DEFAULT_BUCKETS, next_instance,
)
from .trace import Span, Tracer, NOOP_SPAN  # noqa: F401

_REGISTRY = MetricsRegistry()
_TRACER = Tracer()

_ENABLED = os.environ.get("DRBAC_OBS", "on").strip().lower() not in (
    "off", "0", "false", "no")


class ObsScope:
    """An injected (registry, tracer) pair; see :func:`scoped`."""

    __slots__ = ("registry", "tracer")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()


_SCOPE: "ContextVar[Optional[ObsScope]]" = ContextVar(
    "drbac_obs_scope", default=None)


def registry() -> MetricsRegistry:
    """The current metrics registry (scoped if inside :func:`scoped`)."""
    scope = _SCOPE.get()
    return _REGISTRY if scope is None else scope.registry


def get_registry() -> MetricsRegistry:
    """Alias of :func:`registry` (explicit-injection call sites)."""
    return registry()


def tracer() -> Tracer:
    """The current tracer (scoped if inside :func:`scoped`)."""
    scope = _SCOPE.get()
    return _TRACER if scope is None else scope.tracer


@contextmanager
def scoped(registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None):
    """Install an isolated (registry, tracer) pair for this context.

    Fresh instances are created when not supplied.  Yields the
    :class:`ObsScope` so callers can keep handles to the pair.  Scopes
    ride ``contextvars``, so they nest and propagate into tasks but not
    into threads or forked workers started outside the block -- those
    re-enter the scope themselves (see ``repro.service.shard``).
    """
    scope = ObsScope(registry=registry, tracer=tracer)
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


# -- instrument conveniences -------------------------------------------------


def counter(name: str, **labels: str) -> Counter:
    return registry().counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    return registry().gauge(name, **labels)


def histogram(name: str, **labels: str) -> Histogram:
    return registry().histogram(name, **labels)


# -- tracing -----------------------------------------------------------------


def span(name: str, **attrs):
    """Open a trace span (context manager); no-op when tracing is off."""
    if not _ENABLED:
        return NOOP_SPAN
    return tracer().span(name, attrs or None)


def enabled() -> bool:
    """Is tracing globally enabled?"""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Globally enable/disable tracing (``DRBAC_OBS`` at import time)."""
    global _ENABLED
    _ENABLED = bool(value)


@contextmanager
def disabled():
    """Temporarily run with tracing off (baselines, overhead tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


@contextmanager
def enabled_ctx():
    """Temporarily force tracing on (CLI exporters, smoke tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = True
    try:
        yield
    finally:
        _ENABLED = previous


# -- clock + lifecycle -------------------------------------------------------


def use_clock(clock) -> None:
    """Adopt one run's clock for virtual timestamps everywhere."""
    registry().set_clock(clock)
    tracer().set_clock(clock)


def virtual_time() -> Optional[float]:
    return registry().virtual_time()


def reset() -> None:
    """Zero all metrics in place and drop buffered spans.

    Live stats objects keep their instrument references, so resetting
    between benchmark phases keeps every legacy surface coherent.
    Operates on the current scope (the process-wide pair by default).
    """
    registry().reset()
    tracer().clear()
