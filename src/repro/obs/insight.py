"""Decision-level introspection over a telemetry trace.

The infrastructure telemetry (PRs 1 and 4) records *what happened* — every
measurement, every farm unit.  This module reconstructs *why the algorithms
decided what they decided* from the decision events the stack emits:

* **SUTP search audit** (:class:`SUTPAudit`) — per-test RTP reuse vs.
  window escalation (``sutp_window_escalated``, eqs. 3/4), the per-test
  trip-point drift series, and a wasted-probes accounting against the
  observed-optimal incremental cost;
* **NN ensemble vote introspection** (:class:`VoteInsight`) — per-sample
  vote tallies, disagreement entropy and fuzzy-class margins
  (``nn_vote``), plus the calibration confusion matrix of predicted
  fuzzy class against measured trip-point class (``nn_calibration``);
* **GA convergence telemetry** (:class:`GAInsight`) — per-generation
  best/mean/std fitness, chromosome diversity for both species, and
  operator attribution for each generation's best (``ga_generation``);
* **WCR outcome** (:class:`WCRInsight`) — the fig. 6 classification of
  every worst-case-database record (``wcr_classified``).

:func:`build_insight` assembles all four from the decision events a
:class:`repro.obs.report.TraceFold` keeps; :func:`render_insight`
renders them as text for ``repro obs insight``; :mod:`repro.obs.html`
renders the same structures as a self-contained HTML report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs.report import TraceFold

#: The decision-level event types this module consumes, in emission-layer
#: order; the trace fold keeps one list of each.
INSIGHT_EVENT_TYPES: Tuple[str, ...] = (
    "sutp_window_escalated",
    "sutp_test_measured",
    "nn_vote",
    "nn_calibration",
    "ga_generation",
    "wcr_classified",
)


# -- (a) SUTP search audit ----------------------------------------------------
@dataclass(frozen=True)
class SUTPAuditRow:
    """One test's SUTP outcome, audit-annotated.

    ``escalated`` means the incremental walk needed more than one step
    (IT >= 2) or fell back to the full search — i.e. the RTP was *not*
    simply reused.  ``wasted_probes`` is the cost above the
    observed-optimal incremental cost in the same trace (``None`` for the
    RTP bootstrap, which has no incremental baseline to compare against).
    """

    index: int
    test_name: str
    trip_point: Optional[float]
    rtp: Optional[float]
    drift: Optional[float]
    measurements: int
    iterations: int
    used_full_search: bool
    escalated: bool
    wasted_probes: Optional[int]

    @property
    def is_bootstrap(self) -> bool:
        """True for the eq. (2) full-range bootstrap (no RTP yet)."""
        return self.rtp is None


@dataclass
class SUTPAudit:
    """Post-run audit of the SUTP search decisions in one trace."""

    rows: List[SUTPAuditRow] = field(default_factory=list)
    #: Escalation events in trace order (iteration, step, window, probes,
    #: fallback) — the raw eqs. 3/4 window growth record.
    escalations: List[Dict[str, object]] = field(default_factory=list)
    #: Cheapest incremental (non-full-search) per-test cost observed in
    #: this trace; the "oracle-optimal" baseline for waste accounting.
    optimal_cost: Optional[int] = None

    @classmethod
    def from_events(
        cls,
        measured: Sequence[Dict[str, object]],
        escalations: Sequence[Dict[str, object]],
    ) -> "SUTPAudit":
        """Build the audit from typed ``sutp_test_measured`` events."""
        incremental = [
            r.get("measurements", 0)
            for r in measured
            if not r.get("used_full_search") and r.get("rtp") is not None
        ]
        optimal = min(incremental) if incremental else None
        rows: List[SUTPAuditRow] = []
        for index, record in enumerate(measured):
            rtp = record.get("rtp")
            used_full = record.get("used_full_search", False)
            iterations = record.get("iterations", 0)
            measurements = record.get("measurements", 0)
            escalated = rtp is not None and (used_full or iterations >= 2)
            wasted: Optional[int] = None
            if rtp is not None and optimal is not None:
                wasted = max(0, measurements - optimal)
            rows.append(
                SUTPAuditRow(
                    index=index,
                    test_name=record.get("test_name", "unnamed"),
                    trip_point=record.get("trip_point"),
                    rtp=rtp,
                    drift=record.get("drift"),
                    measurements=measurements,
                    iterations=iterations,
                    used_full_search=used_full,
                    escalated=escalated,
                    wasted_probes=wasted,
                )
            )
        return cls(
            rows=rows, escalations=list(escalations), optimal_cost=optimal
        )

    @property
    def escalated_rows(self) -> List[SUTPAuditRow]:
        """Tests whose walk escalated past one step (or fell back)."""
        return [row for row in self.rows if row.escalated]

    @property
    def reused_count(self) -> int:
        """Tests resolved with a single-step walk from the RTP."""
        return sum(
            1
            for row in self.rows
            if row.rtp is not None and not row.escalated
        )

    @property
    def total_wasted(self) -> int:
        """Probes spent above the observed-optimal incremental cost."""
        return sum(
            row.wasted_probes
            for row in self.rows
            if row.wasted_probes is not None
        )

    def drift_series(self) -> List[Tuple[int, str, float]]:
        """Per-test trip-point drift against the RTP, in campaign order."""
        return [
            (row.index, row.test_name, row.drift)
            for row in self.rows
            if row.drift is not None
        ]

    def render(self, max_rows: int = 20) -> str:
        """The audit as an aligned text table (``repro obs insight``)."""
        if not self.rows:
            return "(no sutp_test_measured events in trace)"
        lines = [
            f"SUTP audit: {len(self.rows)} test(s), "
            f"{self.reused_count} RTP-reuse, "
            f"{len(self.escalated_rows)} escalated, "
            f"{self.total_wasted} probe(s) above observed-optimal "
            f"({self.optimal_cost if self.optimal_cost is not None else 'n/a'})"
        ]
        shown = self.escalated_rows[:max_rows]
        if shown:
            lines.append(
                f"  {'test':<28}{'IT':>4}{'meas':>6}{'drift':>9}"
                f"{'wasted':>8}  mode"
            )
        for row in shown:
            drift = "n/a" if row.drift is None else f"{row.drift:+.3f}"
            wasted = "n/a" if row.wasted_probes is None else str(
                row.wasted_probes
            )
            mode = "fallback" if row.used_full_search else "walk"
            lines.append(
                f"  {row.test_name[:28]:<28}{row.iterations:>4}"
                f"{row.measurements:>6}{drift:>9}{wasted:>8}  {mode}"
            )
        hidden = len(self.escalated_rows) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more escalated test(s)")
        return "\n".join(lines)


# -- (b) NN ensemble vote introspection --------------------------------------
def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


@dataclass
class VoteInsight:
    """The ensemble's voting behaviour over the validation set."""

    #: The typed ``nn_vote`` events, in trace order.
    votes: List[Dict[str, object]] = field(default_factory=list)
    #: The last ``nn_calibration`` event (final learning round): labels,
    #: confusion matrix (measured class x predicted class), accuracy.
    calibration: Optional[Dict[str, object]] = None

    def _column(self, key: str) -> List[float]:
        return [vote.get(key, 0.0) for vote in self.votes]

    @property
    def mean_entropy(self) -> float:
        """Mean disagreement entropy over all recorded votes (bits)."""
        return _mean(self._column("entropy"))

    @property
    def mean_margin(self) -> float:
        """Mean fuzzy-class margin over all recorded votes."""
        return _mean(self._column("margin"))

    @property
    def accuracy(self) -> float:
        """Fraction of recorded votes whose majority matched the label."""
        return _mean(
            [v.get("predicted", 0) == v.get("actual", 0) for v in self.votes]
        )

    def entropy_histogram(
        self, bins: int = 8
    ) -> List[Tuple[float, float, int]]:
        """``(low, high, count)`` bins of the disagreement entropy."""
        if not self.votes or bins < 1:
            return []
        values = self._column("entropy")
        low, high = min(values), max(values)
        if high <= low:
            return [(low, high, len(values))]
        width = (high - low) / bins
        counts = [0] * bins
        for value in values:
            slot = min(bins - 1, int((value - low) / width))
            counts[slot] += 1
        return [
            (low + i * width, low + (i + 1) * width, counts[i])
            for i in range(bins)
        ]

    def render(self) -> str:
        """Vote behaviour as text (``repro obs insight``)."""
        if not self.votes:
            return "(no nn_vote events in trace)"
        disagreed = sum(1 for value in self._column("entropy") if value > 0)
        lines = [
            f"NN votes: {len(self.votes)} sample(s), "
            f"accuracy {self.accuracy:.3f}, "
            f"mean entropy {self.mean_entropy:.3f} bit(s), "
            f"mean margin {self.mean_margin:.3f}, "
            f"{disagreed} contested vote(s)"
        ]
        if self.calibration is not None:
            labels = self.calibration.get("labels", ())
            matrix = self.calibration.get("matrix", ())
            lines.append(
                "calibration (measured class rows x predicted class "
                "columns):"
            )
            header = "  " + " " * 20 + "".join(
                f"{label[:8]:>10}" for label in labels
            )
            lines.append(header)
            for label, row in zip(labels, matrix):
                cells = "".join(f"{v:>10}" for v in row)
                lines.append(f"  {label[:20]:<20}{cells}")
        return "\n".join(lines)


# -- (c) GA convergence telemetry --------------------------------------------
@dataclass
class GAInsight:
    """Per-generation convergence record of the fig. 5 GA."""

    #: The ``ga_generation`` events, in trace order.
    generations: List[Dict[str, object]] = field(default_factory=list)

    def series(self, key: str) -> List[float]:
        """One numeric column over the generations (``nan`` if absent)."""
        return [g.get(key, float("nan")) for g in self.generations]

    def operator_counts(self) -> Dict[str, int]:
        """How often each operator chain produced a generation's best."""
        operators = (g.get("best_operator") for g in self.generations)
        return dict(Counter(op for op in operators if op))

    def render(self) -> str:
        """Convergence trajectory as text (``repro obs insight``)."""
        if not self.generations:
            return "(no ga_generation events in trace)"
        first, last = self.generations[0], self.generations[-1]
        lines = [
            f"GA: {len(self.generations)} generation(s), best fitness "
            f"{first.get('best_fitness', 0.0):.4f} -> "
            f"{last.get('best_fitness', 0.0):.4f}, "
            f"{last.get('restarts', 0)} restart(s), "
            f"{last.get('evaluations', 0)} evaluation(s)"
        ]
        operators = self.operator_counts()
        if operators:
            ranked = sorted(
                operators.items(), key=lambda kv: (-kv[1], kv[0])
            )
            detail = ", ".join(f"{op} x{n}" for op, n in ranked)
            lines.append(f"best-of-generation produced by: {detail}")
        diversity = [
            v for v in self.series("sequence_diversity") if v == v
        ]
        if diversity:
            lines.append(
                f"sequence diversity: {diversity[0]:.3f} -> "
                f"{diversity[-1]:.3f}"
            )
        return "\n".join(lines)


# -- WCR classification outcome ----------------------------------------------
@dataclass
class WCRInsight:
    """Fig. 6 classification of the worst-case database records."""

    #: The ``wcr_classified`` events, in trace order.
    records: List[Dict[str, object]] = field(default_factory=list)

    def class_counts(self) -> Dict[str, int]:
        """Record count per WCR class."""
        return dict(Counter(r.get("wcr_class", "unknown") for r in self.records))

    def render(self) -> str:
        """Classification tally as text (``repro obs insight``)."""
        if not self.records:
            return "(no wcr_classified events in trace)"
        counts = self.class_counts()
        detail = ", ".join(
            f"{name} x{counts[name]}"
            for name in sorted(counts, key=lambda k: (-counts[k], k))
        )
        return f"WCR: {len(self.records)} record(s) classified: {detail}"


# -- assembly ------------------------------------------------------------------
@dataclass
class RunInsight:
    """Everything :func:`build_insight` reconstructs from one trace."""

    sutp: SUTPAudit
    votes: VoteInsight
    ga: GAInsight
    wcr: WCRInsight

    @property
    def empty(self) -> bool:
        """True when the trace carried no decision-level events at all."""
        return not (
            self.sutp.rows
            or self.sutp.escalations
            or self.votes.votes
            or self.ga.generations
            or self.wcr.records
        )


def build_insight(fold: "TraceFold") -> RunInsight:
    """Reconstruct the decision-level story of one folded trace."""
    events = fold.decisions
    return RunInsight(
        sutp=SUTPAudit.from_events(
            events["sutp_test_measured"], events["sutp_window_escalated"]
        ),
        votes=VoteInsight(
            votes=list(events["nn_vote"]),
            calibration=(events["nn_calibration"] or [None])[-1],
        ),
        ga=GAInsight(generations=list(events["ga_generation"])),
        wcr=WCRInsight(records=list(events["wcr_classified"])),
    )


def render_insight(insight: RunInsight) -> str:
    """``repro obs insight``: the whole decision story as one text block."""
    if insight.empty:
        return (
            "(no decision-level events in trace; run with --trace on a "
            "build that emits insight events)"
        )
    sections = [
        "== decision-level insight ==",
        insight.sutp.render(),
        insight.votes.render(),
        insight.ga.render(),
        insight.wcr.render(),
    ]
    return "\n\n".join(sections)
