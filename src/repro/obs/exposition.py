"""Prometheus text-format exposition of a :class:`MetricsRegistry`.

The registry already computes everything a scraper wants — counter
totals with per-label breakdowns, gauges, histogram count/sum/min/max
and streaming quantiles — but until now only the human-readable
``--metrics`` summary could see it.  This module renders any registry
(or a :meth:`MetricsRegistry.snapshot` dict) as `Prometheus text
format, version 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_, the
grammar every mainstream scraper and the ``GET /metrics`` endpoint of
the characterization service speak::

    # TYPE repro_ate_measurements_total counter
    repro_ate_measurements_total 1840
    repro_ate_measurements_total{label="march-c/solid"} 92
    # TYPE repro_http_request_seconds summary
    repro_http_request_seconds{quantile="0.5"} 0.00041
    repro_http_request_seconds_sum 0.19
    repro_http_request_seconds_count 312

It also ships :func:`parse_exposition`, a strict line-grammar parser —
the validation half used by tests, ``repro obs alerts`` and the CI
smoke gate, so the service's output is checked by the same module that
produced it.  Stdlib only, like everything in :mod:`repro.obs`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from repro.obs.metrics import Histogram, MetricsRegistry

#: Quantiles exported for every histogram, as (q, label) pairs.
HISTOGRAM_QUANTILES: Tuple[Tuple[float, str], ...] = (
    (0.50, "0.5"),
    (0.95, "0.95"),
    (0.99, "0.99"),
)

#: Default metric-name prefix (the "namespace" in Prometheus parlance).
DEFAULT_PREFIX = "repro"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: One exposition line: NAME{labels} VALUE — labels optional.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def sanitize_metric_name(name: str, prefix: str = DEFAULT_PREFIX) -> str:
    """A valid Prometheus metric name for a registry instrument name.

    Registry names are dotted (``ate.measurements``,
    ``span.lot.seconds``); Prometheus names must match
    ``[a-zA-Z_:][a-zA-Z0-9_:]*``.  Dots and every other invalid
    character become underscores, a leading digit gets a guard
    underscore, and the prefix is prepended when given.
    """
    cleaned = _NAME_BAD_CHARS.sub("_", name)
    if not cleaned:
        cleaned = "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    if prefix:
        cleaned = f"{prefix}_{cleaned}"
    assert _NAME_OK.match(cleaned), cleaned
    return cleaned


def escape_label_value(value: object) -> str:
    """Escape a label value per the text format (backslash, quote, LF)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: object) -> str:
    """One sample value: floats compacted, ``None``/NaN as ``NaN``."""
    if value is None:
        return "NaN"
    number = float(value)  # bools intentionally fall through as 0/1
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _sample(
    name: str, labels: Dict[str, str], value: object
) -> str:
    if labels:
        body = ",".join(
            f'{key}="{escape_label_value(val)}"'
            for key, val in sorted(labels.items())
        )
        return f"{name}{{{body}}} {format_value(value)}"
    return f"{name} {format_value(value)}"


def _histogram_quantile(data: object, q: float, label: str) -> object:
    """The q-quantile from a live histogram or a snapshot dict."""
    if isinstance(data, Histogram):
        return data.quantile(q)
    if isinstance(data, dict):
        return data.get("p" + label.replace("0.", "").ljust(2, "0"))
    return None


def render_exposition(
    source: Union[MetricsRegistry, Dict[str, object]],
    prefix: str = DEFAULT_PREFIX,
) -> str:
    """Render a registry (or its snapshot) as Prometheus text format.

    Counters become ``<name>_total`` counter families: the unlabelled
    series is the instrument's total and each ``by_label`` bucket rides
    along as a ``label="..."`` series (the total can exceed the label
    sum — unlabelled increments have no bucket).  Gauges with a ``None``
    value are skipped (never set is not zero).  Histograms become
    summaries — quantile series plus ``_sum``/``_count`` — with
    ``_min``/``_max`` gauges alongside, since the registry tracks exact
    extremes that quantiles from a reservoir cannot promise.

    Accepts a live :class:`MetricsRegistry` (preferred: quantiles are
    computed exactly, p99 included) or a :meth:`~MetricsRegistry.snapshot`
    dict (p50/p95 only — the snapshot does not carry p99).
    """
    if isinstance(source, MetricsRegistry):
        # Copy under the registry lock so a concurrent scrape never sees
        # a dict mid-mutation.
        with source._lock:
            counters: Dict[str, object] = {
                name: {"value": c.value, "by_label": dict(c.by_label)}
                for name, c in source.counters.items()
            }
            gauges: Dict[str, object] = {
                name: g.value for name, g in source.gauges.items()
            }
            histograms: Dict[str, object] = dict(source.histograms)
    else:
        counters = dict(source.get("counters", {}))  # type: ignore[arg-type]
        gauges = dict(source.get("gauges", {}))  # type: ignore[arg-type]
        histograms = dict(source.get("histograms", {}))  # type: ignore[arg-type]

    lines: List[str] = []
    for name in sorted(counters):
        data = counters[name]
        metric = sanitize_metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(_sample(metric, {}, data.get("value", 0)))  # type: ignore[union-attr]
        by_label = data.get("by_label") or {}  # type: ignore[union-attr]
        for label in sorted(by_label):
            lines.append(_sample(metric, {"label": label}, by_label[label]))
    for name in sorted(gauges):
        value = gauges[name]
        if value is None:
            continue
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(_sample(metric, {}, value))
    for name in sorted(histograms):
        data = histograms[name]
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for q, label in HISTOGRAM_QUANTILES:
            lines.append(
                _sample(
                    metric,
                    {"quantile": label},
                    _histogram_quantile(data, q, label),
                )
            )
        if isinstance(data, Histogram):
            total, count = data.total, data.count
            lo, hi = data.min, data.max
        else:
            total = data.get("sum", 0.0)  # type: ignore[union-attr]
            count = data.get("count", 0)  # type: ignore[union-attr]
            lo = data.get("min")  # type: ignore[union-attr]
            hi = data.get("max")  # type: ignore[union-attr]
        lines.append(_sample(metric + "_sum", {}, total))
        lines.append(_sample(metric + "_count", {}, count))
        for suffix, extreme in (("_min", lo), ("_max", hi)):
            if extreme is not None:
                lines.append(f"# TYPE {metric}{suffix} gauge")
                lines.append(_sample(metric + suffix, {}, extreme))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Sample:
    """One parsed exposition sample: name, labels, numeric value."""

    name: str
    value: float
    labels: Dict[str, str] = field(default_factory=dict)

    def label(self, key: str) -> str:
        return self.labels.get(key, "")


class ExpositionError(ValueError):
    """A line failed the exposition-format grammar."""


def _parse_labels(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    position = 0
    while position < len(body):
        match = _LABEL_PAIR.match(body, position)
        if match is None:
            raise ExpositionError(f"malformed label pair at: {body[position:]!r}")
        raw = match.group("value")
        labels[match.group("key")] = (
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        position = match.end()
    return labels


def _parse_value(token: str) -> float:
    if token == "NaN":
        return float("nan")
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    try:
        return float(token)
    except ValueError as exc:
        raise ExpositionError(f"invalid sample value {token!r}") from exc


def parse_exposition(text: str) -> List[Sample]:
    """Parse (and thereby validate) Prometheus text-format exposition.

    Strict on grammar — an invalid metric name, label pair or value
    raises :class:`ExpositionError` naming the offending line — and
    silent on semantics (TYPE lines are checked for shape, not
    cross-referenced).  Returns every sample in document order.
    """
    samples: List[Sample] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] in ("TYPE", "HELP"):
                if len(parts) < 3 or not _NAME_OK.match(parts[2]):
                    raise ExpositionError(
                        f"line {number}: malformed {parts[1]} comment: {line!r}"
                    )
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ExpositionError(f"line {number}: not a sample line: {line!r}")
        labels = (
            _parse_labels(match.group("labels"))
            if match.group("labels")
            else {}
        )
        samples.append(
            Sample(
                name=match.group("name"),
                value=_parse_value(match.group("value")),
                labels=labels,
            )
        )
    return samples


def find_sample(
    samples: List[Sample], name: str, labels: Dict[str, str]
) -> "Sample | None":
    """The first sample matching ``name`` whose labels include ``labels``."""
    for sample in samples:
        if sample.name != name:
            continue
        if all(sample.labels.get(key) == val for key, val in labels.items()):
            return sample
    return None


__all__ = [
    "DEFAULT_PREFIX",
    "ExpositionError",
    "HISTOGRAM_QUANTILES",
    "Sample",
    "escape_label_value",
    "find_sample",
    "format_value",
    "parse_exposition",
    "render_exposition",
    "sanitize_metric_name",
]
