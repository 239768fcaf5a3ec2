"""The typed read path: the fold coerces every line through ``EVENT_FIELDS``.

Every field of every event type (and of the stamped envelope) has one
declared type.  A line whose field does not coerce is one counted drop,
exactly like a torn line, and every view reads typed records, so no view
raises on a damaged trace.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.events import ENVELOPE_FIELDS, EVENT_FIELDS, event
from repro.obs.html import build_html_report
from repro.obs.insight import build_insight, render_insight
from repro.obs.profile import (
    build_profile_summary,
    render_profile,
    render_worker_utilization,
    worker_utilization,
)
from repro.obs.report import (
    TraceFold,
    render_slowest,
    render_trace_summary,
    trace_summary_data,
)
from repro.obs.timeline import build_chrome_trace
from tests.obs.test_golden_views import GOLDEN, _cli, cli_views, fixture_bytes


def _line(type, ts=2e9, **bad):
    """A well-formed ``type`` event stamped at ``ts``, then ``bad`` fields."""
    payload = {**event(type, **_valid_fields(type)), "ts": ts}
    payload.update(bad)
    return json.dumps(payload)


#: Candidate values, tried in order, for a well-formed field of any type.
_CANDIDATES = (
    1, 1.5, "w", True, [1], ["a"], [[1]], [["phase", "a;b", 1]], {"w": 0.5},
)


def _valid(coerce):
    return next(c for c in _CANDIDATES if _coerces(coerce, c))


def _valid_fields(type):
    return {name: _valid(coerce) for name, coerce in EVENT_FIELDS[type].items()}


def _coerces(coerce, value):
    try:
        coerce(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


#: The wrong-typed lines that made views raise (or silently drop a span)
#: before every reader went through the fold's coercion.
DAMAGED_LINES = (
    _line("sutp_test_measured", trip_point="x"),
    _line("nn_vote", votes="abc"),
    _line("ga_generation", best_fitness="x"),
    _line("measurement", strobe_ns="x"),
    _line("lease_issued", attempt="z"),
    _line("broker_clock_sync", offsets={"w": "x"}),
    _line("campaign_phase", ts="x", status="end"),
)


#: Lines of a broker event type and an event field the broker no longer
#: writes.  Each is one kept event by the rules every line follows: an
#: unknown type keeps its fields, and an undeclared field passes through.
REMOVED_SCHEMA_LINES = (
    json.dumps({"type": "spool_restored", "campaign": "c", "restored": 2,
                "dropped": 1, "ts": 2e9}),
    _line("broker_campaign_started", restored=2),
)


def _footer_count(summary):
    marker = " malformed line(s) skipped)"
    lines = [line for line in summary.splitlines() if line.endswith(marker)]
    return int(lines[0][1:-len(marker)]) if lines else 0


@pytest.mark.parametrize("name", ("serial", "lot"))
def test_damaged_lines_are_counted_and_change_no_other_view(name, tmp_path):
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(
        fixture_bytes(name)
        + "".join(f"{line}\n" for line in REMOVED_SCHEMA_LINES).encode()
    )
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_bytes(
        clean.read_bytes()
        + "".join(f"{line}\n" for line in DAMAGED_LINES).encode()
    )
    fixture = TraceFold.of(map(json.loads, fixture_bytes(name).splitlines()))
    old = TraceFold.load(clean)
    assert old.events == fixture.events + len(REMOVED_SCHEMA_LINES)
    assert old.dropped_lines == fixture.dropped_lines == 0
    assert old.unknown_types == {"spool_restored": 1}
    before = cli_views(clean, tmp_path)
    for view in ("summary", "report", "timeline"):
        assert before[view].startswith("exit=0\n")
    after = cli_views(damaged, tmp_path)
    assert _footer_count(after["summary"]) == (
        _footer_count(before["summary"]) + len(DAMAGED_LINES)
    )
    dropped = [
        json.loads(views["summary_json"].split("\n", 1)[1])["dropped_lines"]
        for views in (before, after)
    ]
    assert dropped[1] == dropped[0] + len(DAMAGED_LINES)
    for view in ("summary", "summary_json"):
        del before[view], after[view]
    assert after == before


@pytest.mark.parametrize("name", ("serial", "profiled", "lot"))
def test_golden_lines_are_already_typed(name):
    """A well-formed trace is folded without copying a single record."""
    fold = TraceFold()
    lines = (GOLDEN / f"{name}.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(fold.add(record) is record for record in records)
    assert fold.dropped_lines == 0


def test_a_json_int_in_a_float_field_stays_an_int():
    record = {"type": "campaign_phase", "phase": "p", "status": "end",
              "duration_s": 2, "ts": 10}
    assert TraceFold().add(record) is record
    phase = next(
        e for e in build_chrome_trace([record])["traceEvents"] if e["ph"] == "X"
    )
    assert json.dumps(phase["args"]) == '{"duration_s": 2}'


def test_a_numeric_string_is_coerced_on_a_copy():
    record = {"type": "farm_run_started", "units": "4", "ts": 1.0}
    typed = TraceFold().add(record)
    assert typed == {**record, "units": 4}
    assert record["units"] == "4"


def test_unknown_types_keep_their_fields_but_not_a_bad_envelope():
    fold = TraceFold()
    assert fold.add({"type": "from_the_future", "x": "anything"}) is not None
    assert fold.add({"type": "from_the_future", "ts": "x"}) is None
    assert (fold.events, fold.dropped_lines) == (1, 1)


# -- every declared field of every type -----------------------------------------

#: One well-formed, stamped record of every event type.
BASE = [
    {**event(type, **_valid_fields(type)), "ts": 100.0 + i, "worker": "w"}
    for i, type in enumerate(EVENT_FIELDS)
]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.floats()
    | st.sampled_from(["x", "4", "1.5", "nan", "inf", ""])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _views(fold, records):
    """Run every trace view; any exception fails the property."""
    render_trace_summary(fold)
    json.dumps(trace_summary_data(fold))
    render_slowest(fold)
    render_insight(build_insight(fold))
    build_html_report(fold, records)
    json.dumps(build_chrome_trace(records))
    render_profile(build_profile_summary(fold))
    render_worker_utilization(worker_utilization(fold))
    json.dumps(fold.progress())


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_any_value_in_any_declared_field_is_typed_or_one_drop(data, value):
    index = data.draw(st.integers(0, len(BASE) - 1))
    base = BASE[index]
    types = {**ENVELOPE_FIELDS, **EVENT_FIELDS[base["type"]]}
    name = data.draw(st.sampled_from(sorted(types)))
    records = list(BASE)
    records[index] = {**base, name: value}
    fold = TraceFold()
    typed = [record for record in map(fold.add, records) if record is not None]
    assert fold.dropped_lines == (0 if _coerces(types[name], value) else 1)
    assert fold.events == len(typed) == len(BASE) - fold.dropped_lines
    _views(fold, typed)


#: Values at the edge of every type, tried in every declared field.
EDGE_VALUES = (
    None, True, 0, -1, 2**53 + 1, 10**400, 1.5, 1e308, -1e308, math.nan,
    math.inf, -math.inf, "", "x", "4", "nan", [], [1], ["a", "b", 1], {},
    {"w": "x"},
)


def test_every_edge_value_in_every_declared_field():
    for index, base in enumerate(BASE):
        types = {**ENVELOPE_FIELDS, **EVENT_FIELDS[base["type"]]}
        for name, value in ((n, v) for n in types for v in EDGE_VALUES):
            records = list(BASE)
            records[index] = {**base, name: value}
            fold = TraceFold()
            typed = [r for r in map(fold.add, records) if r is not None]
            expected = 0 if _coerces(types[name], value) else 1
            assert fold.dropped_lines == expected, (base["type"], name, value)
            _views(fold, typed)


def test_non_finite_values_only_where_declared():
    """``ts``, ``strobe_ns``, ``entropy`` and clock offsets are finite."""
    finite = [
        (type, name)
        for type, fields in EVENT_FIELDS.items()
        for name, coerce in fields.items()
        if _coerces(coerce, 1.5) and coerce(1.5) == 1.5
        and not _coerces(coerce, math.inf)
    ]
    assert finite == [
        ("measurement", "strobe_ns"),
        ("nn_vote", "entropy"),
        ("broker_clock_sync", "client_offset_s"),
    ]
    assert not _coerces(ENVELOPE_FIELDS["ts"], math.nan)


def test_event_fields_named_like_the_envelope_have_its_type():
    for fields in EVENT_FIELDS.values():
        for name in set(fields) & set(ENVELOPE_FIELDS):
            assert fields[name] is ENVELOPE_FIELDS[name], name


def test_report_over_opposite_extreme_strobes(tmp_path):
    """Two finite strobes whose difference overflows to inf: the shmoo
    heatmap still bins both, one at each end, and labels the axis."""
    trace = tmp_path / "extremes.jsonl"
    trace.write_text(
        _line("measurement", strobe_ns=1e308) + "\n"
        + _line("measurement", strobe_ns=-1e308) + "\n"
    )
    report = tmp_path / "report.html"
    assert _cli(["obs", "report", str(trace), str(report)], tmp_path).startswith("exit=0")
    heatmap = report.read_text().split('aria-label="shmoo pass-fraction heatmap"')[1]
    heatmap = heatmap.split("</svg>")[0]
    assert heatmap.count("1/1 pass") == 2
    assert 'fill="var(--muted)">0</text>' in heatmap
    assert "n/a" not in heatmap and "nan" not in heatmap
    # Every axis tick and the strobe range in every cell title stay short.
    ticks = re.findall(r'fill="var\(--muted\)">(-?[\d.e+]+)</text>', heatmap)
    titles = re.findall(r"<title>strobe (-?[^\s-]+)-(-?\S+) ns,", heatmap)
    assert len(ticks) == 5 and len(titles) == 2
    labels = ticks + [label for title in titles for label in title]
    assert all(len(label) <= 12 for label in labels), labels
