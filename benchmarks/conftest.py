"""Shared benchmark plumbing.

Each of the ten artifact files here (``bench_table1-3``,
``bench_figure1-2``, ``bench_search_strategies``, ``bench_revocation``,
``bench_scalability``, ``bench_ablations``, ``bench_crypto``) reproduces
one paper artifact (see DESIGN.md, Section 1) and follows the same
pattern:

* timing tests via the ``benchmark`` fixture;
* a ``test_report_*`` that regenerates the paper's rows/series, prints
  them (visible with ``-s``; always recorded in ``benchmark.extra_info``),
  and asserts the *shape* claims -- who wins, by roughly what factor.

Run them with ``pytest benchmarks/bench_*.py --benchmark-only`` (add
``-s`` to see the tables), or once each, as CI does, with
``--benchmark-disable``: the shape claims must hold for one round as
well as for three.  ``bench_observability.py`` reports what tracing
costs; how fast the system is, in time and in messages, is
``benchmarks/e2e`` (its own README).

``--metrics-out PATH`` dumps the observability registry (Prometheus
text format, same as ``drbac metrics``) after the session, covering
whatever the selected benchmarks exercised.
"""

import os
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
# src/ for the package; the repo root for tests.discovery.seed_oracle
# (the paper's Figure 2 walk, which bench_figure2_distributed.py prints).
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.abspath(_ROOT)]


def pytest_addoption(parser):
    parser.addoption(
        "--metrics-out", default=None, metavar="PATH",
        help="after the benchmark session, dump the observability "
             "metrics registry to PATH in Prometheus text format")


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--metrics-out")
    if not path:
        return
    from repro import obs
    from repro.obs.export import to_prometheus
    with open(path, "w") as handle:
        handle.write(to_prometheus(obs.registry()))


def print_table(title: str, headers, rows) -> str:
    """Render and print an aligned text table; returns the rendering."""
    columns = [str(h) for h in headers]
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in str_rows))
        if str_rows else len(columns[i])
        for i in range(len(columns))
    ]
    lines = [title]
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    rendering = "\n".join(lines)
    print("\n" + rendering, file=sys.stderr)
    return rendering


@pytest.fixture(scope="session")
def report():
    return print_table
