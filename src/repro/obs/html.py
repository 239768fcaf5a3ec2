"""Self-contained HTML run report (``repro obs report``).

One HTML file, zero external assets: styles are an inline ``<style>``
block built on CSS custom properties (with a ``prefers-color-scheme``
dark block), every chart is inline SVG with native ``<title>`` hover
tooltips, and there is no JavaScript at all.  The output is kept
XML-well-formed (closed tags, quoted attributes, escaped text) so CI can
validate it with a plain XML parser.

The report assembles, from a campaign trace plus an optional
``runs.jsonl`` history:

* the shmoo heatmap (pass fraction over measurement order x strobe);
* the fig. 3 per-test measurement-cost profile;
* GA fitness curves (best/mean with a +-std band) and diversity;
* the NN vote-disagreement entropy histogram and calibration matrix;
* the WCR classification bar (fig. 6 classes as status colors);
* the SUTP search-audit table (escalations, drift, wasted probes);
* the resource-utilization section (RSS / CPU% series per process and
  the per-worker busy/idle table) when the run was profiled;
* the run-history cost table.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.insight import RunInsight, build_insight
from repro.obs.profile import worker_utilization
from repro.obs.report import TraceFold

# Sequential blue ramp (light -> dark) for the heatmap's pass fraction.
_HEAT_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

# Fig. 6 class -> (status color variable, text marker).  Status colors
# never carry meaning alone: the marker + label ride along everywhere.
_WCR_STATUS = {
    "pass": ("--status-good", "ok"),
    "weakness": ("--status-warning", "!"),
    "fail": ("--status-critical", "x"),
    "functional_fail": ("--status-critical", "x"),
}

_CSS = """
  :root { color-scheme: light; }
  body {
    margin: 0; padding: 24px;
    background: var(--page); color: var(--ink);
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
    font-size: 14px; line-height: 1.45;
  }
  .viz-root {
    color-scheme: light;
    --page: #f9f9f7; --surface-1: #fcfcfb;
    --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
    --grid: #e1e0d9; --axis: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6; --series-2: #eb6834;
    --status-good: #0ca30c; --status-warning: #fab219;
    --status-critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root { color-scheme: dark; }
    .viz-root {
      color-scheme: dark;
      --page: #0d0d0d; --surface-1: #1a1a19;
      --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
      --grid: #2c2c2a; --axis: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5; --series-2: #d95926;
    }
  }
  h1 { font-size: 20px; margin: 0 0 4px 0; }
  h2 { font-size: 16px; margin: 28px 0 8px 0; }
  p.sub { color: var(--ink-2); margin: 0 0 16px 0; }
  .card {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 16px; margin: 12px 0;
  }
  .legend { margin: 0 0 8px 0; color: var(--ink-2); font-size: 12px; }
  .legend span.swatch {
    display: inline-block; width: 10px; height: 10px;
    border-radius: 2px; margin: 0 4px 0 12px;
  }
  .note { color: var(--muted); font-size: 12px; }
  table { border-collapse: collapse; width: 100%; font-size: 13px; }
  th, td {
    text-align: left; padding: 4px 10px 4px 0;
    border-bottom: 1px solid var(--grid);
  }
  th { color: var(--ink-2); font-weight: 600; }
  td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
  svg text { font-family: inherit; font-size: 11px; }
"""


def _esc(value: object) -> str:
    """Escape text for XML element content / attribute values."""
    return (
        str(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(value: float, digits: int = 3) -> str:
    """Compact numeric label (no trailing zeros, nan-safe, short when huge)."""
    if value != value or value in (float("inf"), float("-inf")):
        return "n/a"
    if abs(value) >= 1e6:
        return f"{value:.3g}"
    if value == int(value):
        return str(int(value))
    return f"{value:.{digits}f}".rstrip("0").rstrip(".")


def _scale(
    value: float, lo: float, hi: float, out_lo: float, out_hi: float
) -> float:
    if hi <= lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _svg_open(width: int, height: int, label: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{_esc(label)}">'
    )


def _axis_and_grid(
    left: float,
    right: float,
    top: float,
    bottom: float,
    y_lo: float,
    y_hi: float,
    ticks: int = 4,
) -> str:
    """Horizontal gridlines with y tick labels, plus the baseline."""
    parts: List[str] = []
    for i in range(ticks + 1):
        value = y_lo + (y_hi - y_lo) * i / ticks
        y = _scale(value, y_lo, y_hi, bottom, top)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{right}" y2="{y:.1f}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 3.5:.1f}" text-anchor="end" '
            f'fill="var(--muted)">{_esc(_fmt(value))}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="var(--axis)" stroke-width="1"/>'
    )
    return "".join(parts)


def _finite(values: Iterable[float]) -> List[float]:
    return [v for v in values if v == v and abs(v) != float("inf")]


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    """Legend row: ``(name, css color var)`` pairs."""
    parts = ['<p class="legend">']
    for name, color in entries:
        parts.append(
            f'<span class="swatch" style="background: var({color})">'
            f"</span>{_esc(name)}"
        )
    parts.append("</p>")
    return "".join(parts)


def _line_chart(
    series: Sequence[Tuple[str, Sequence[float], str]],
    x_label: str,
    width: int = 720,
    height: int = 220,
    band: Optional[Tuple[Sequence[float], Sequence[float], str]] = None,
    label: str = "line chart",
) -> str:
    """Multi-series line chart; ``band`` is a (lower, upper, color) fill."""
    left, right, top, bottom = 52.0, width - 12.0, 12.0, height - 26.0
    all_values: List[float] = []
    for _, values, _ in series:
        all_values.extend(_finite(values))
    if band is not None:
        all_values.extend(_finite(band[0]))
        all_values.extend(_finite(band[1]))
    if not all_values:
        return '<p class="note">(no data)</p>'
    y_lo, y_hi = min(all_values), max(all_values)
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    n = max(len(values) for _, values, _ in series)
    parts = [_svg_open(width, height, label)]
    parts.append(_axis_and_grid(left, right, top, bottom, y_lo, y_hi))

    def x_of(i: int) -> float:
        return _scale(i, 0, max(1, n - 1), left, right)

    if band is not None:
        lower, upper, color = band
        pts: List[str] = []
        for i, v in enumerate(upper):
            if v == v:
                pts.append(f"{x_of(i):.1f},{_scale(v, y_lo, y_hi, bottom, top):.1f}")
        for i in range(len(lower) - 1, -1, -1):
            v = lower[i]
            if v == v:
                pts.append(f"{x_of(i):.1f},{_scale(v, y_lo, y_hi, bottom, top):.1f}")
        if pts:
            parts.append(
                f'<polygon points="{" ".join(pts)}" '
                f'fill="var({color})" fill-opacity="0.15" stroke="none"/>'
            )
    for name, values, color in series:
        pts = [
            f"{x_of(i):.1f},{_scale(v, y_lo, y_hi, bottom, top):.1f}"
            for i, v in enumerate(values)
            if v == v
        ]
        if not pts:
            continue
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="var({color})" stroke-width="2" '
            f'stroke-linejoin="round" stroke-linecap="round">'
            f"<title>{_esc(name)}</title></polyline>"
        )
    parts.append(
        f'<text x="{(left + right) / 2:.0f}" y="{height - 6}" '
        f'text-anchor="middle" fill="var(--muted)">{_esc(x_label)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _bar_chart(
    bars: Sequence[Tuple[str, float, str]],
    color: str,
    x_label: str,
    width: int = 720,
    height: int = 200,
    label: str = "bar chart",
) -> str:
    """Vertical bars: ``(name, value, tooltip)`` triples, one series."""
    if not bars:
        return '<p class="note">(no data)</p>'
    left, right, top, bottom = 52.0, width - 12.0, 12.0, height - 26.0
    y_hi = max(value for _, value, _ in bars)
    if y_hi <= 0:
        y_hi = 1.0
    parts = [_svg_open(width, height, label)]
    parts.append(_axis_and_grid(left, right, top, bottom, 0.0, y_hi))
    slot = (right - left) / len(bars)
    bar_width = max(1.0, min(28.0, slot - 2.0))
    for i, (name, value, tooltip) in enumerate(bars):
        x = left + i * slot + (slot - bar_width) / 2.0
        y = _scale(value, 0.0, y_hi, bottom, top)
        bar_height = max(0.0, bottom - y)
        radius = min(4.0, bar_width / 2.0, bar_height)
        parts.append(
            f'<path d="M{x:.1f},{bottom:.1f} V{y + radius:.1f} '
            f"Q{x:.1f},{y:.1f} {x + radius:.1f},{y:.1f} "
            f"H{x + bar_width - radius:.1f} "
            f"Q{x + bar_width:.1f},{y:.1f} "
            f"{x + bar_width:.1f},{y + radius:.1f} "
            f'V{bottom:.1f} Z" fill="var({color})">'
            f"<title>{_esc(tooltip)}</title></path>"
        )
        _ = name
    parts.append(
        f'<text x="{(left + right) / 2:.0f}" y="{height - 6}" '
        f'text-anchor="middle" fill="var(--muted)">{_esc(x_label)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _shmoo_heatmap(
    records: Iterable[Dict[str, object]],
    x_bins: int = 36,
    y_bins: int = 12,
    width: int = 720,
    height: int = 240,
) -> str:
    """Pass-fraction heatmap over measurement order x strobe value.

    The trace has no per-cell shmoo events, so the heatmap is rebuilt
    from the raw ``measurement`` stream: campaign progress on x, the
    strobed parameter on y, cell color = fraction of passing probes
    (sequential blue ramp, darker = more passing).
    """
    measurements = (r for r in records if r.get("type") == "measurement")
    samples = [
        (order, record.get("strobe_ns", 0.0), record.get("passed", False))
        for order, record in enumerate(measurements)
    ]
    if not samples:
        return '<p class="note">(no measurement events in trace)</p>'
    strobes = [s for _, s, _ in samples]
    s_lo, s_hi = min(strobes), max(strobes)
    if s_hi <= s_lo:
        s_hi = s_lo + 1.0
    # Opposite extremes (+-1e308) overflow ``s_hi - s_lo``: bin and place
    # labels on strobes scaled by 2**-8, which is exact and leaves every
    # span below that untouched (scale 1).
    scale = 1.0 if math.isfinite(s_hi - s_lo) else 2.0**-8
    low, high = s_lo * scale, s_hi * scale
    # Beyond 2**53 ns, ``s_lo + 1.0`` is ``s_lo`` again.
    span = (high - low) or 1.0
    left, right, top, bottom = 52.0, width - 12.0, 12.0, height - 26.0
    totals = [[0] * x_bins for _ in range(y_bins)]
    passes = [[0] * x_bins for _ in range(y_bins)]
    for order, strobe, passed in samples:
        xi = min(x_bins - 1, order * x_bins // len(samples))
        yi = min(
            y_bins - 1, int((strobe * scale - low) / span * y_bins)
        )
        totals[yi][xi] += 1
        if passed:
            passes[yi][xi] += 1
    parts = [_svg_open(width, height, "shmoo pass-fraction heatmap")]
    cell_w = (right - left) / x_bins
    cell_h = (bottom - top) / y_bins
    for yi in range(y_bins):
        for xi in range(x_bins):
            total = totals[yi][xi]
            if total == 0:
                continue
            fraction = passes[yi][xi] / total
            color = _HEAT_RAMP[
                min(len(_HEAT_RAMP) - 1, int(fraction * len(_HEAT_RAMP)))
            ]
            x = left + xi * cell_w
            # y axis points up: bin 0 (lowest strobe) at the bottom.
            y = bottom - (yi + 1) * cell_h
            lo = (low + yi * (high - low) / y_bins) / scale
            hi = (low + (yi + 1) * (high - low) / y_bins) / scale
            parts.append(
                f'<rect x="{x + 1:.1f}" y="{y + 1:.1f}" '
                f'width="{max(0.5, cell_w - 2):.1f}" '
                f'height="{max(0.5, cell_h - 2):.1f}" rx="2" '
                f'fill="{color}"><title>'
                f"strobe {_fmt(lo)}-{_fmt(hi)} ns, "
                f"{passes[yi][xi]}/{total} pass "
                f"({100 * fraction:.0f}%)</title></rect>"
            )
    for i in range(0, 5):
        value = low + (high - low) * i / 4
        y = _scale(value, low, high, bottom, top)
        parts.append(
            f'<text x="{left - 6}" y="{y + 3.5:.1f}" text-anchor="end" '
            f'fill="var(--muted)">{_esc(_fmt(value / scale, 1))}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.0f}" y="{height - 6}" '
        f'text-anchor="middle" fill="var(--muted)">campaign progress '
        f"(measurement order) - darker = higher pass fraction</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _table(
    headers: Sequence[Tuple[str, bool]],
    rows: Sequence[Sequence[object]],
) -> str:
    """HTML table; headers are ``(name, numeric)`` pairs."""
    parts = ["<table><thead><tr>"]
    for name, numeric in headers:
        cls = ' class="num"' if numeric else ""
        parts.append(f"<th{cls}>{_esc(name)}</th>")
    parts.append("</tr></thead><tbody>")
    for row in rows:
        parts.append("<tr>")
        for (_, numeric), cell in zip(headers, row):
            cls = ' class="num"' if numeric else ""
            parts.append(f"<td{cls}>{_esc(cell)}</td>")
        parts.append("</tr>")
    parts.append("</tbody></table>")
    return "".join(parts)


def _section(title: str, *body: str) -> str:
    return f"<h2>{_esc(title)}</h2><div class=\"card\">" + "".join(
        body
    ) + "</div>"


def _cost_profile_section(fold: TraceFold) -> str:
    groups = fold.groups
    if not groups:
        return _section(
            "Measurement-cost profile (fig. 3)",
            '<p class="note">(no measurement events in trace)</p>',
        )
    max_bars = 120
    shown = groups[:max_bars]
    bars = [
        (name, float(count), f"{name}: {count} measurement(s)")
        for name, count in shown
    ]
    notes: List[str] = []
    if len(groups) > max_bars:
        rest = sum(count for _, count in groups[max_bars:])
        notes.append(
            f'<p class="note">first {max_bars} of {len(groups)} test '
            f"group(s) shown; {rest} measurement(s) in the remainder "
            f"omitted from the chart.</p>"
        )
    total = sum(count for _, count in groups)
    return _section(
        "Measurement-cost profile (fig. 3)",
        f'<p class="sub">{total} measurements over {len(groups)} test '
        f"group(s); one bar per test, campaign order.</p>",
        _bar_chart(
            bars,
            "--series-1",
            "tests in campaign order",
            label="per-test measurement cost",
        ),
        *notes,
    )


def _ga_section(insight: RunInsight) -> str:
    ga = insight.ga
    if not ga.generations:
        return _section(
            "GA convergence (fig. 5)",
            '<p class="note">(no ga_generation events in trace)</p>',
        )
    best = ga.series("best_fitness")
    mean = ga.series("mean_fitness")
    std = ga.series("std_fitness")
    lower = [
        m - s if m == m and s == s else float("nan")
        for m, s in zip(mean, std)
    ]
    upper = [
        m + s if m == m and s == s else float("nan")
        for m, s in zip(mean, std)
    ]
    operators = ga.operator_counts()
    operator_rows = sorted(
        operators.items(), key=lambda kv: (-kv[1], kv[0])
    )
    parts = [
        _legend(
            [("best fitness", "--series-1"), ("mean +- std", "--series-2")]
        ),
        _line_chart(
            [
                ("best fitness", best, "--series-1"),
                ("mean fitness", mean, "--series-2"),
            ],
            "generation",
            band=(lower, upper, "--series-2"),
            label="GA fitness per generation",
        ),
    ]
    diversity = ga.series("sequence_diversity")
    cond_diversity = ga.series("condition_diversity")
    if _finite(diversity) or _finite(cond_diversity):
        parts.append(
            _legend(
                [
                    ("sequence diversity", "--series-1"),
                    ("condition diversity", "--series-2"),
                ]
            )
        )
        parts.append(
            _line_chart(
                [
                    ("sequence diversity", diversity, "--series-1"),
                    ("condition diversity", cond_diversity, "--series-2"),
                ],
                "generation",
                height=160,
                label="population diversity per generation",
            )
        )
    if operator_rows:
        parts.append(
            _table(
                [("operator chain of generation best", False), ("generations", True)],
                [(op, count) for op, count in operator_rows],
            )
        )
    return _section("GA convergence (fig. 5)", *parts)


def _votes_section(insight: RunInsight) -> str:
    votes = insight.votes
    if not votes.votes:
        return _section(
            "NN ensemble votes (fig. 4)",
            '<p class="note">(no nn_vote events in trace)</p>',
        )
    bins = votes.entropy_histogram()
    bars = [
        (
            f"{_fmt(lo, 2)}",
            float(count),
            f"entropy {_fmt(lo, 2)}-{_fmt(hi, 2)} bit(s): "
            f"{count} vote(s)",
        )
        for lo, hi, count in bins
    ]
    parts = [
        f'<p class="sub">{len(votes.votes)} validation vote(s): accuracy '
        f"{_fmt(votes.accuracy)}, mean disagreement entropy "
        f"{_fmt(votes.mean_entropy)} bit(s), mean fuzzy-class margin "
        f"{_fmt(votes.mean_margin)}.</p>",
        _bar_chart(
            bars,
            "--series-1",
            "vote-disagreement entropy (bits)",
            height=160,
            label="vote-disagreement histogram",
        ),
    ]
    calibration = votes.calibration
    if calibration is not None:
        labels = calibration.get("labels", ())
        matrix = calibration.get("matrix", ())
        headers: List[Tuple[str, bool]] = [("measured \\ predicted", False)]
        headers.extend((label, True) for label in labels)
        rows = [[label, *row] for label, row in zip(labels, matrix)]
        parts.append(
            f'<p class="sub">Calibration, learning round '
            f"{calibration.get('round', 0)}: predicted fuzzy "
            f"class against measured trip-point class.</p>"
        )
        parts.append(_table(headers, rows))
    return _section("NN ensemble votes (fig. 4)", *parts)


def _wcr_section(insight: RunInsight) -> str:
    wcr = insight.wcr
    if not wcr.records:
        return _section(
            "WCR classification (fig. 6)",
            '<p class="note">(no wcr_classified events in trace)</p>',
        )
    counts = wcr.class_counts()
    total = sum(counts.values())
    parts = [
        f'<p class="sub">{total} worst-case database record(s).</p>'
    ]
    width, row_h = 720, 26
    order = sorted(counts, key=lambda k: (-counts[k], k))
    height = row_h * len(order) + 8
    svg = [_svg_open(width, height, "WCR classification")]
    peak = max(counts.values())
    for i, name in enumerate(order):
        color, marker = _WCR_STATUS.get(name, ("--muted", "?"))
        count = counts[name]
        y = 4 + i * row_h
        bar = _scale(count, 0, peak, 0, width - 320)
        svg.append(
            f'<rect x="200" y="{y}" width="{max(2.0, bar):.1f}" '
            f'height="{row_h - 8}" rx="4" fill="var({color})">'
            f"<title>{_esc(name)}: {count} of {total}</title></rect>"
        )
        svg.append(
            f'<text x="194" y="{y + row_h - 12}" text-anchor="end" '
            f'fill="var(--ink-2)">[{_esc(marker)}] {_esc(name)}</text>'
        )
        svg.append(
            f'<text x="{206 + max(2.0, bar):.1f}" y="{y + row_h - 12}" '
            f'fill="var(--ink)">{count}</text>'
        )
    svg.append("</svg>")
    parts.append("".join(svg))
    return _section("WCR classification (fig. 6)", *parts)


def _sutp_section(insight: RunInsight) -> str:
    audit = insight.sutp
    if not audit.rows and not audit.escalations:
        return _section(
            "SUTP search audit (eqs. 3/4)",
            '<p class="note">(no SUTP insight events in trace)</p>',
        )
    parts: List[str] = []
    if audit.rows:
        optimal = (
            str(audit.optimal_cost)
            if audit.optimal_cost is not None
            else "n/a"
        )
        parts.append(
            f'<p class="sub">{len(audit.rows)} test(s): '
            f"{audit.reused_count} resolved by RTP reuse, "
            f"{len(audit.escalated_rows)} escalated, "
            f"{audit.total_wasted} probe(s) above the observed-optimal "
            f"incremental cost ({optimal}).</p>"
        )
        drift = audit.drift_series()
        if drift:
            parts.append(
                _line_chart(
                    [
                        (
                            "trip-point drift vs RTP",
                            [d for _, _, d in drift],
                            "--series-1",
                        )
                    ],
                    "tests in campaign order",
                    height=160,
                    label="trip-point drift series",
                )
            )
        escalated = audit.escalated_rows[:25]
        if escalated:
            rows = []
            for row in escalated:
                rows.append(
                    [
                        row.test_name,
                        row.iterations,
                        row.measurements,
                        "n/a" if row.drift is None else f"{row.drift:+.3f}",
                        (
                            "n/a"
                            if row.wasted_probes is None
                            else row.wasted_probes
                        ),
                        "fallback" if row.used_full_search else "walk",
                    ]
                )
            parts.append(
                _table(
                    [
                        ("escalated test", False),
                        ("IT", True),
                        ("probes", True),
                        ("drift", True),
                        ("wasted", True),
                        ("mode", False),
                    ],
                    rows,
                )
            )
            hidden = len(audit.escalated_rows) - len(escalated)
            if hidden > 0:
                parts.append(
                    f'<p class="note">... {hidden} more escalated '
                    f"test(s) not shown.</p>"
                )
    if audit.escalations:
        windows = [e.get("window", 0.0) for e in audit.escalations]
        parts.append(
            f'<p class="note">{len(audit.escalations)} window-escalation '
            f"event(s); widest search window {_fmt(max(windows))} "
            f"(SF&#183;IT&#183;(IT+1)/2).</p>"
        )
    return _section("SUTP search audit (eqs. 3/4)", *parts)


#: Per-worker series colors, cycled in worker order.
_SERIES_CYCLE = (
    "--series-1",
    "--series-2",
    "--status-good",
    "--status-warning",
    "--status-critical",
)


def _resource_section(fold: TraceFold) -> str:
    """RSS / CPU% charts per process plus the worker-utilization table.

    ``resource_sample`` events only exist when the run was profiled
    (``--profile``); the section renders a note otherwise so the report
    layout is stable either way.
    """
    if not fold.resource_series:
        return _section(
            "Resources & utilization",
            '<p class="note">(no resource_sample events in trace - '
            "record one with --profile)</p>",
        )
    by_worker = {
        worker: sorted(samples, key=lambda s: s[0])
        for worker, samples in fold.resource_series.items()
    }

    def color(index: int) -> str:
        return _SERIES_CYCLE[index % len(_SERIES_CYCLE)]

    workers = sorted(by_worker)
    rss_series = []
    cpu_series = []
    for i, worker in enumerate(workers):
        samples = by_worker[worker]
        rss_series.append(
            (worker, [rss / 1024.0 for _, rss, _ in samples], color(i))
        )
        # CPU% from consecutive cumulative-CPU deltas (needs 2 samples).
        pct: List[float] = []
        for (ts_prev, _, cpu_prev), (ts_cur, _, cpu_cur) in zip(
            samples, samples[1:]
        ):
            dt = ts_cur - ts_prev
            if dt <= 0:
                continue
            pct.append(max(0.0, 100.0 * (cpu_cur - cpu_prev) / dt))
        if pct:
            cpu_series.append((worker, pct, color(i)))
    total = sum(len(samples) for samples in by_worker.values())
    parts = [
        f'<p class="sub">{total} resource sample(s) across '
        f"{len(workers)} process(es).</p>",
        _legend([(name, col) for name, _, col in rss_series]),
        _line_chart(
            rss_series,
            "resource samples (time order) - RSS in MB",
            height=180,
            label="resident set size per process",
        ),
    ]
    if cpu_series:
        parts.append(
            _line_chart(
                cpu_series,
                "resource samples (time order) - CPU %",
                height=180,
                label="CPU utilization per process",
            )
        )
    util_rows = worker_utilization(fold)
    if util_rows:
        rows = []
        for row in util_rows:
            rows.append(
                [
                    row.worker,
                    row.units,
                    _fmt(row.busy_s),
                    f"{100.0 * row.utilization:.1f}%",
                    _fmt(row.cpu_s) if row.cpu_s else "n/a",
                    (
                        _fmt(row.peak_rss_kb / 1024.0, 1)
                        if row.peak_rss_kb
                        else "n/a"
                    ),
                ]
            )
        parts.append(
            '<p class="sub">Per-worker utilization: busy time from unit '
            "spans against the whole run span (idle = scheduling gaps + "
            "tail imbalance).</p>"
        )
        parts.append(
            _table(
                [
                    ("worker", False),
                    ("units", True),
                    ("busy s", True),
                    ("util", True),
                    ("cpu s", True),
                    ("peak rss MB", True),
                ],
                rows,
            )
        )
    return _section("Resources & utilization", *parts)


def _history_section(runs: Optional[Sequence[Dict[str, object]]]) -> str:
    if not runs:
        return _section(
            "Run history",
            '<p class="note">(no runs.jsonl history supplied)</p>',
        )
    rows = []
    for record in runs[-12:]:
        workers = record.get("workers")
        rows.append(
            [
                str(record.get("run", "")),
                str(record.get("campaign", ""))[:40],
                _fmt(float(record.get("wall_s", 0.0) or 0.0)),
                "serial" if workers in (None, "") else str(workers),
                int(record.get("measurements", 0) or 0),
                int(record.get("farm_units", 0) or 0),
                int(record.get("farm_retries", 0) or 0),
            ]
        )
    parts = [
        _table(
            [
                ("run", False),
                ("campaign", False),
                ("wall s", True),
                ("workers", True),
                ("measurements", True),
                ("units", True),
                ("retries", True),
            ],
            rows,
        )
    ]
    if len(runs) > 12:
        parts.append(
            f'<p class="note">last 12 of {len(runs)} run(s) shown.</p>'
        )
    return _section("Run history", *parts)


def build_html_report(
    fold: TraceFold,
    records: Iterable[Dict[str, object]],
    runs: Optional[Sequence[Dict[str, object]]] = None,
    title: str = "Characterization run report",
) -> str:
    """Render one folded trace (+ optional run history) as one HTML page.

    ``records`` are the trace's events, which only the shmoo heatmap
    draws one by one; every other section reads ``fold``.  The returned
    string is a complete document: no external stylesheets, fonts,
    scripts or images, and XML-well-formed after the doctype line
    (``xml.etree.ElementTree`` can parse it, which CI does).
    """
    insight = build_insight(fold)
    head = (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8"/>'
        f"<title>{_esc(title)}</title>"
        f"<style>{_CSS}</style></head>"
    )
    body = [
        '<body class="viz-root">',
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{fold.events} trace event(s), '
        f"{fold.counts.get('measurement', 0)} tester measurement(s).</p>",
        _section(
            "Shmoo (pass fraction)",
            _shmoo_heatmap(records),
        ),
        _cost_profile_section(fold),
        _sutp_section(insight),
        _votes_section(insight),
        _ga_section(insight),
        _wcr_section(insight),
        _resource_section(fold),
        _history_section(runs),
        '<p class="note">Generated by repro obs report &#8212; '
        "self-contained, no external assets, no scripts.</p>",
        "</body></html>",
    ]
    return head + "".join(body)


__all__ = ["build_html_report"]
