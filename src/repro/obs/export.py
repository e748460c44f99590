"""Exporters: Prometheus text format, span JSONL, Chrome trace_event.

All three are plain-text/JSON serializations of live
:class:`~repro.obs.metrics.MetricsRegistry` /
:class:`~repro.obs.trace.Tracer` state -- no network listeners, no
third-party clients, matching the repo's dependency-free rule.  The
Prometheus *text exposition format* was chosen because it is trivially
greppable in CI and round-trips through :func:`parse_prometheus_text`
for the smoke checks in ``tools/check_metrics.py``.
"""

import json
import re
from typing import Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry
from .trace import Span

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(name: str) -> str:
    return _NAME_OK.sub("_", name)


def _label_str(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in labels)
    return "{%s}" % body


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Serialize every instrument in Prometheus text exposition format."""
    lines: List[str] = []
    seen_types = set()

    def header(name: str, kind: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        lines.append("# HELP %s drbac %s" % (name, kind))
        lines.append("# TYPE %s %s" % (name, kind))

    for counter in sorted(registry.counters(),
                          key=lambda c: (c.name, c.labels)):
        name = _metric_name(counter.name)
        header(name, "counter")
        lines.append("%s%s %s" % (
            name, _label_str(counter.labels), _fmt(counter.value)))
    for gauge in sorted(registry.gauges(),
                        key=lambda g: (g.name, g.labels)):
        name = _metric_name(gauge.name)
        header(name, "gauge")
        lines.append("%s%s %s" % (
            name, _label_str(gauge.labels), _fmt(gauge.value)))
    for hist in sorted(registry.histograms(),
                       key=lambda h: (h.name, h.labels)):
        name = _metric_name(hist.name)
        header(name, "histogram")
        for le, cumulative in hist.cumulative():
            bucket_labels = hist.labels + (("le", _fmt(le)),)
            lines.append("%s_bucket%s %s" % (
                name, _label_str(bucket_labels), _fmt(cumulative)))
        lines.append("%s_sum%s %s" % (
            name, _label_str(hist.labels), _fmt(hist.sum)))
        lines.append("%s_count%s %s" % (
            name, _label_str(hist.labels), _fmt(hist.count)))
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text into ``[(name, labels, value), ...]``.

    Strict on sample lines (a malformed line raises ``ValueError``)
    so the CI smoke step actually validates the dump rather than
    skipping garbage.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError("malformed metric line: %r" % raw)
        labels = {}
        if match.group("labels"):
            for key, value in _LABEL.findall(match.group("labels")):
                labels[key] = value.replace('\\"', '"').replace("\\\\", "\\")
        value_text = match.group("value")
        value = float("inf") if value_text == "+Inf" else float(value_text)
        samples.append((match.group("name"), labels, value))
    return samples


def sample_total(samples: Iterable[Tuple[str, Dict[str, str], float]],
                 name: str) -> float:
    """Sum one metric name across all label sets of a parsed dump."""
    return sum(value for sample_name, _, value in samples
               if sample_name == name)


# ---------------------------------------------------------------------------
# Span exports
# ---------------------------------------------------------------------------


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in finish order."""
    return "".join(json.dumps(span.to_dict(), sort_keys=True) + "\n"
                   for span in spans)


def spans_to_chrome(spans: Iterable[Span], origin: Optional[float] = None
                    ) -> dict:
    """Chrome ``trace_event`` JSON (load via ``chrome://tracing`` or
    Perfetto).  Complete events (``ph: "X"``) with microsecond
    timestamps relative to the earliest span; one ``tid`` per trace so
    separate queries land on separate rows.
    """
    spans = [s for s in spans if s.end is not None]
    if origin is None:
        origin = min((s.start for s in spans), default=0.0)
    events = []
    for span in spans:
        args = {k: str(v) for k, v in (span.attrs or {}).items()}
        args["span_id"] = str(span.span_id)
        if span.parent_id is not None:
            args["parent_id"] = str(span.parent_id)
        if span.vstart is not None:
            args["vstart"] = str(span.vstart)
        events.append({
            "name": span.name,
            "cat": "drbac",
            "ph": "X",
            "pid": 1,
            "tid": span.trace_id,
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
