"""Threshold alerting over a metrics snapshot or the result store.

``repro obs alerts`` is the operations loop's decision step: point it
at a running service's ``/metrics`` (or a saved exposition file, or the
SQLite result store) and it evaluates a small rule language, printing
one line per rule and exiting ``0`` (ok), ``1`` (warning) or ``2``
(critical) — the Nagios/check-style contract cron jobs and CI gates
understand.

Rule syntax — ``METRIC[{label="v"}] OP WARN[:CRIT]``::

    repro_jobs_queue_depth >= 10:50
    repro_jobs_failure_rate >= 0.25:0.5
    repro_http_request_seconds{quantile="0.95"} >= 2:10

Whitespace around the operator is optional.  ``WARN`` alone gives a
warning-only rule; ``WARN:CRIT`` escalates.  A metric named by an
*explicit* rule that is absent from the snapshot is itself a warning
(you asked about something that is not there); absent metrics skip
silently for the built-in default rules, so the same defaults work
against both a ``/metrics`` scrape and a store (which has no HTTP
series).  Comparisons against ``NaN`` never fire — an empty histogram's
quantiles are unknown, not breaching.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.exposition import (
    Sample,
    _parse_labels,
    find_sample,
    parse_exposition,
)
from repro.obs.metrics import nearest_rank

#: Severity order; index = process exit code.
LEVELS = ("ok", "warning", "critical")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">=": lambda value, limit: value >= limit,
    "<=": lambda value, limit: value <= limit,
    ">": lambda value, limit: value > limit,
    "<": lambda value, limit: value < limit,
}

_RULE = re.compile(
    r"^\s*(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s*(?P<op>>=|<=|>|<)\s*"
    r"(?P<warn>[-+0-9.eE]+)(?::(?P<crit>[-+0-9.eE]+))?\s*$"
)


class AlertRuleError(ValueError):
    """A rule string failed the rule grammar."""


@dataclass(frozen=True)
class AlertRule:
    """One threshold rule against one metric sample."""

    metric: str
    op: str
    warn: float
    crit: Optional[float] = None
    labels: Dict[str, str] = field(default_factory=dict)
    #: Default rules skip silently when the metric is absent; explicit
    #: rules degrade to a warning instead.
    required: bool = True

    def describe(self) -> str:
        labels = ""
        if self.labels:
            labels = (
                "{"
                + ",".join(
                    f'{key}="{val}"' for key, val in sorted(self.labels.items())
                )
                + "}"
            )
        thresholds = str(self.warn)
        if self.crit is not None:
            thresholds += f":{self.crit}"
        return f"{self.metric}{labels} {self.op} {thresholds}"


@dataclass(frozen=True)
class AlertResult:
    """One evaluated rule: severity level plus a printable message."""

    rule: AlertRule
    level: str
    value: Optional[float]
    message: str


def parse_rule(text: str, required: bool = True) -> AlertRule:
    """Parse one ``METRIC[{labels}] OP WARN[:CRIT]`` rule string."""
    match = _RULE.match(text)
    if match is None:
        raise AlertRuleError(
            f"invalid alert rule {text!r} "
            "(expected METRIC[{label=\"v\"}] OP WARN[:CRIT])"
        )
    op = match.group("op")
    crit = match.group("crit")
    try:
        rule = AlertRule(
            metric=match.group("name"),
            op=op,
            warn=float(match.group("warn")),
            crit=float(crit) if crit is not None else None,
            labels=_parse_labels(match.group("labels") or ""),
            required=required,
        )
    except ValueError as exc:  # ExpositionError included
        raise AlertRuleError(f"invalid alert rule {text!r}: {exc}") from exc
    if rule.crit is not None and not _OPS[op](rule.crit, rule.warn):
        raise AlertRuleError(
            f"rule {text!r}: the critical threshold must be at least as "
            f"strict as the warning threshold for {op!r}"
        )
    return rule


#: Built-in rules evaluated when no ``--rule`` is given.  All are
#: non-required: each source exports a different subset (a store has no
#: HTTP latency; a fresh service has no job latency yet).
DEFAULT_RULES: Sequence[AlertRule] = (
    AlertRule("repro_jobs_queue_depth", ">=", 10.0, 50.0, required=False),
    AlertRule("repro_jobs_failure_rate", ">=", 0.25, 0.5, required=False),
    AlertRule(
        "repro_http_request_seconds", ">=", 2.0, 10.0,
        labels={"quantile": "0.95"}, required=False,
    ),
    AlertRule(
        "repro_jobs_run_seconds", ">=", 600.0, 3600.0,
        labels={"quantile": "0.95"}, required=False,
    ),
    # Farm-broker fleet health (scraped from farm-broker --metrics-port,
    # or through serve --broker's proxied farm.* gauges).  All optional:
    # a service without a farm simply skips them.
    AlertRule("repro_farm_reissue_rate", ">=", 0.2, 0.5, required=False),
    AlertRule("repro_farm_duplicate_rate", ">=", 0.05, 0.2, required=False),
    AlertRule("repro_farm_worker_churn", ">=", 0.5, 0.9, required=False),
    AlertRule(
        "repro_farm_queue_stall_seconds", ">=", 60.0, 300.0, required=False
    ),
)


def evaluate_rules(
    samples: Sequence[Sample], rules: Sequence[AlertRule]
) -> List[AlertResult]:
    """Evaluate every rule against the samples; one result per rule.

    A rule whose metric is missing yields ``warning`` when the rule is
    required and is dropped from the results otherwise.  NaN values
    evaluate as not-breaching (unknown is not an incident).
    """
    results: List[AlertResult] = []
    for rule in rules:
        sample = find_sample(list(samples), rule.metric, rule.labels)
        if sample is None:
            if rule.required:
                results.append(
                    AlertResult(
                        rule=rule,
                        level="warning",
                        value=None,
                        message=f"{rule.describe()}: metric not found",
                    )
                )
            continue
        value = sample.value
        level = "ok"
        if not math.isnan(value):
            if rule.crit is not None and _OPS[rule.op](value, rule.crit):
                level = "critical"
            elif _OPS[rule.op](value, rule.warn):
                level = "warning"
        results.append(
            AlertResult(
                rule=rule,
                level=level,
                value=value,
                message=f"{rule.describe()}: value {value:g}",
            )
        )
    return results


def worst_level(results: Sequence[AlertResult]) -> int:
    """The exit code: the highest severity index across the results."""
    worst = 0
    for result in results:
        worst = max(worst, LEVELS.index(result.level))
    return worst


def store_samples(store: object) -> List[Sample]:
    """Synthesize alert-compatible samples from a result store.

    Mirrors the gauge names the service computes at scrape time
    (``repro_jobs_queue_depth``, ``repro_jobs_failure_rate``, per-state
    ``repro_jobs_state{state=...}``) plus queue-wait and run-latency
    summaries derived from the job rows' timestamps — so the same rules
    evaluate against a live ``/metrics`` or a cold database.
    """
    jobs = store.list_jobs()  # type: ignore[attr-defined]
    tally: Dict[str, int] = {}
    queue_waits: List[float] = []
    run_seconds: List[float] = []
    for job in jobs:
        state = str(job.get("state", ""))
        tally[state] = tally.get(state, 0) + 1
        created = job.get("created_ts")
        started = job.get("started_ts")
        finished = job.get("finished_ts")
        if created and started:
            queue_waits.append(max(0.0, float(started) - float(created)))
        if started and finished:
            run_seconds.append(max(0.0, float(finished) - float(started)))
    finished_count = tally.get("completed", 0) + tally.get("failed", 0)
    failure_rate = (
        tally.get("failed", 0) / finished_count if finished_count else 0.0
    )
    samples = [
        Sample("repro_jobs_queue_depth", float(tally.get("queued", 0))),
        Sample("repro_jobs_running", float(tally.get("running", 0))),
        Sample("repro_jobs_failure_rate", failure_rate),
    ]
    for state in sorted(tally):
        samples.append(
            Sample(
                "repro_jobs_state", float(tally[state]), {"state": state}
            )
        )
    for name, series in (
        ("repro_jobs_queue_wait_seconds", queue_waits),
        ("repro_jobs_run_seconds", run_seconds),
    ):
        for q, label in ((0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")):
            samples.append(
                Sample(name, nearest_rank(series, q), {"quantile": label})
            )
        samples.append(Sample(name + "_count", float(len(series))))
    return samples


def render_results(results: Sequence[AlertResult]) -> str:
    """The printable report: one ``LEVEL  rule: value`` line per rule."""
    if not results:
        return "no rules evaluated (no matching metrics)"
    width = max(len(result.level) for result in results)
    lines = [
        f"{result.level.upper():<{width + 2}}{result.message}"
        for result in results
    ]
    return "\n".join(lines)


def load_samples_text(text: str) -> List[Sample]:
    """Samples from exposition text (validating the grammar as it goes)."""
    return parse_exposition(text)


__all__ = [
    "AlertResult",
    "AlertRule",
    "AlertRuleError",
    "DEFAULT_RULES",
    "LEVELS",
    "evaluate_rules",
    "load_samples_text",
    "parse_rule",
    "render_results",
    "store_samples",
    "worst_level",
]
