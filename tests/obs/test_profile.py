"""Continuous profiling & resource telemetry (``repro.obs.profile``).

Three layers of coverage:

* **Non-interference** — the hard contract: a seeded fig. 3 campaign
  (SUTP walk + WCR screen) produces *bit-identical* trip points,
  datalog and WCR report with profiling on vs off (style of
  ``tests/ate/test_batched_parity.py``), and a serial vs 2-worker farm
  run merges structurally identical profile/resource telemetry through
  :class:`FarmCollector`.
* **Recorders** — sampling profiler, deterministic per-phase cProfile
  mode, resource sampler (final-sample guarantee, gauges).
* **Analysis & surfaces** — folded merge, hot-path self/cumulative
  weights, worker utilization, folded export, run-history CPU fields,
  and the ``obs profile`` / ``obs flame`` / ``obs summary --json`` CLI.
"""

import json
import re
import time

import pytest

from repro import obs
from repro.ate.measurement import MeasurementModel
from repro.ate.tester import ATE
from repro.cli import main
from repro.core.trip_point import MultipleTripPointRunner
from repro.core.wcr import WCRScreen
from repro.device.memory_chip import MemoryTestChip
from repro.obs import profile as prof
from repro.obs.history import RunComparison, build_run_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceFold
from repro.obs.timing import span

SEARCH_RANGE = (15.0, 45.0)

FAST = prof.ProfileConfig(interval_s=0.002, resource_interval_s=0.02)


def _tests(n=10, seed=9):
    from repro.patterns.random_gen import RandomTestGenerator

    return RandomTestGenerator(seed=seed).batch(n)


def _fresh_ate(seed=3, noise=0.04):
    chip = MemoryTestChip()
    return ATE(chip, measurement=MeasurementModel(noise, seed=seed))


def _datalog_rows(ate):
    return [(r.index, r.test_name, r.strobe_ns, r.passed) for r in ate.datalog]


def _fig3_campaign():
    """One seeded fig. 3 campaign: SUTP DSV + WCR screen; all outputs."""
    tests = _tests(10)
    ate = _fresh_ate()
    runner = MultipleTripPointRunner(
        ate, SEARCH_RANGE, strategy="sutp", resolution=0.05, search_factor=0.5
    )
    with span("random"):
        dsv = runner.run(tests)
    screen_ate = _fresh_ate(seed=7)
    with span("screen"):
        report = WCRScreen(screen_ate).run(tests, *SEARCH_RANGE, 0.25)
    return (
        dsv.values(),
        _datalog_rows(ate),
        ate.measurement_count,
        report,
        _datalog_rows(screen_ate),
    )


class TestProfilerNonInterference:
    """Profiling on vs off -> bit-identical campaign results."""

    def test_sampling_profiler_parity(self):
        baseline = _fig3_campaign()

        obs.configure(profile=FAST)
        profiled = _fig3_campaign()
        event = prof.stop_profiling()

        assert profiled[0] == baseline[0]  # trip points, bit for bit
        assert profiled[1] == baseline[1]  # SUTP datalog
        assert profiled[2] == baseline[2]  # measurement count
        assert profiled[3] == baseline[3]  # WCR report (fig. 6 export)
        assert profiled[4] == baseline[4]  # screen datalog
        assert event is not None and event["mode"] == "sampling"

    def test_cprofile_mode_parity(self):
        baseline = _fig3_campaign()

        obs.configure(profile=prof.ProfileConfig(mode="cprofile"))
        profiled = _fig3_campaign()
        event = prof.stop_profiling()

        assert profiled == baseline
        assert event["mode"] == "cprofile" and event["unit"] == "ms"
        # deterministic mode attributes self time to the real phases
        assert {entry[0] for entry in event["folded"]} >= {"random", "screen"}


def _run_lot_profiled(tmp_path, name, extra):
    trace = tmp_path / f"{name}.jsonl"
    code = main(
        ["--trace", str(trace), "--profile", "--profile-interval", "0.005",
         *extra, "lot", "--dies", "3", "--tests", "2"]
    )
    assert code == 0
    fold = TraceFold()
    records = list(fold.read(trace))
    assert fold.dropped_lines == 0
    return records


def _unit_profile_keys(records):
    return [
        r["span_id"]
        for r in records
        if r["type"] == "profile" and "span_id" in r
    ]


def _unit_resource_counts(records):
    counts = {}
    for r in records:
        if r["type"] == "resource_sample" and "span_id" in r:
            counts[r["span_id"]] = counts.get(r["span_id"], 0) + 1
    return counts


class TestFarmProfileTelemetry:
    def test_serial_vs_two_workers_structurally_identical(
        self, tmp_path, capsys
    ):
        serial = _run_lot_profiled(tmp_path, "ser", [])
        parallel = _run_lot_profiled(tmp_path, "par", ["--workers", "2"])
        capsys.readouterr()

        # the measured campaign itself is identical (existing contract)
        assert TraceFold.of(parallel).groups == TraceFold.of(serial).groups

        # exactly one profile event per unit, merged in submission order,
        # identical for any worker count
        keys = ["die/0000", "die/0001", "die/0002"]
        assert _unit_profile_keys(serial) == keys
        assert _unit_profile_keys(parallel) == keys

        # every unit shipped at least one resource sample (the final
        # synchronous sample guarantees this even for sub-interval units)
        for counts in (
            _unit_resource_counts(serial),
            _unit_resource_counts(parallel),
        ):
            assert set(counts) == set(keys)
            assert all(count >= 1 for count in counts.values())

        # plus exactly one whole-process session from the CLI teardown
        for records in (serial, parallel):
            parent = [
                r
                for r in records
                if r["type"] == "profile" and "span_id" not in r
            ]
            assert len(parent) == 1

    def test_worker_utilization_from_profiled_trace(self, tmp_path, capsys):
        records = _run_lot_profiled(tmp_path, "util", ["--workers", "2"])
        capsys.readouterr()
        rows = prof.worker_utilization(TraceFold.of(records))
        assert rows and sum(r.units for r in rows) == 3
        for row in rows:
            assert row.worker != "serial"
            assert 0.0 <= row.utilization <= 1.0
            assert row.span_s >= row.busy_s / len(rows) or row.span_s > 0


class TestSamplingProfiler:
    def test_records_phase_attributed_stacks(self):
        obs.enable()
        profiler = prof.SamplingProfiler(FAST).start()
        deadline = time.perf_counter() + 0.2
        with span("hotloop"):
            while time.perf_counter() < deadline:
                sum(i * i for i in range(200))
        event = profiler.stop()
        assert event["mode"] == "sampling"
        assert event["unit"] == "samples"
        assert event["samples"] > 0
        phases = {entry[0] for entry in event["folded"]}
        assert "hotloop" in phases
        # stacks are root-first module:function chains
        stack = next(e[1] for e in event["folded"] if e[0] == "hotloop")
        assert re.match(r"^[\w.<>?]+:", stack.split(";")[0])

    def test_stop_is_idempotent_and_counts_truncation(self):
        profiler = prof.SamplingProfiler(
            prof.ProfileConfig(interval_s=0.002, max_stacks=1)
        ).start()
        time.sleep(0.02)
        first = profiler.stop()
        second = profiler.stop()
        assert len(first["folded"]) <= 1
        assert first["truncated"] >= 0
        assert second["samples"] == first["samples"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            prof.ProfileConfig(mode="magic")
        with pytest.raises(ValueError):
            prof.ProfileConfig(interval_s=0.0)
        with pytest.raises(ValueError):
            prof.ProfileConfig(max_stacks=0)


class TestCProfileSession:
    def test_per_phase_attribution(self):
        obs.enable()
        session = prof.CProfileSession().start()

        def alpha_work():
            return sum(i * i for i in range(30000))

        def beta_work():
            return sum(i + 1 for i in range(30000))

        with span("alpha"):
            alpha_work()
        with span("beta"):
            beta_work()
        event = session.stop()
        assert event["mode"] == "cprofile" and event["unit"] == "ms"
        by_phase = {}
        for phase, frame, _ in event["folded"]:
            by_phase.setdefault(phase, set()).add(frame)
        alpha_frames = " ".join(by_phase.get("alpha", ()))
        beta_frames = " ".join(by_phase.get("beta", ()))
        assert "alpha_work" in alpha_frames or "<genexpr>" in alpha_frames
        assert "beta_work" not in alpha_frames
        assert "alpha_work" not in beta_frames

    def test_listener_removed_after_stop(self):
        from repro.obs import timing

        session = prof.CProfileSession().start()
        assert session in timing._PHASE_LISTENERS
        session.stop()
        assert session not in timing._PHASE_LISTENERS


class TestResourceSampler:
    def test_final_sample_guaranteed_and_gauges_set(self):
        registry = MetricsRegistry()
        bus = obs.EventBus()
        seen = []
        bus.subscribe(type("Sink", (), {"handle": staticmethod(seen.append)}))
        sampler = prof.ResourceSampler(
            interval_s=60.0, bus=bus, metrics=registry
        ).start()
        sampler.stop()  # no interval elapsed: only the final sample
        assert sampler.samples == 1
        assert len(seen) == 1
        sample = seen[0]
        assert sample["type"] == "resource_sample"
        assert sample["cpu_user_s"] >= 0.0
        assert registry.gauges["proc.rss_kb"].value is not None

    def test_read_resource_sample_fields(self):
        sample = prof.read_resource_sample(phase="x")
        assert sample["phase"] == "x"
        assert sample["rss_kb"] >= 0 and sample["max_rss_kb"] >= 0
        assert sample["gc_gen0"] >= 0

    def test_process_cpu_seconds_monotonic(self):
        user1, system1 = prof.process_cpu_seconds()
        sum(i * i for i in range(200000))
        user2, system2 = prof.process_cpu_seconds()
        assert user2 >= user1 and system2 >= system1
        with_children = prof.process_cpu_seconds(include_children=True)
        assert with_children[0] >= user2 or with_children[0] >= 0.0


def _profile_record(folded, mode="sampling", unit="samples"):
    return {
        "type": "profile",
        "mode": mode,
        "unit": unit,
        "samples": sum(entry[2] for entry in folded),
        "interval_s": 0.01,
        "duration_s": 1.0,
        "folded": folded,
        "truncated": 0,
    }


class TestAnalysis:
    def test_merged_folded_sums_across_events_and_filters_phase(self):
        records = [
            _profile_record([("lot", "a:f;b:g", 3)]),
            _profile_record([("lot", "a:f;b:g", 2), ("sweep", "a:f", 4)]),
        ]
        merged = prof.merged_folded(TraceFold.of(records))
        assert merged[("lot", "a:f;b:g")] == 5
        assert merged[("sweep", "a:f")] == 4
        only = prof.merged_folded(TraceFold.of(records), phase="sweep")
        assert list(only) == [("sweep", "a:f")]

    def test_hot_path_self_vs_cumulative(self):
        records = [
            _profile_record(
                [("lot", "m:outer;m:inner", 6), ("lot", "m:outer", 4)]
            )
        ]
        summary = prof.build_profile_summary(TraceFold.of(records))
        rows = {r.function: r for r in summary.phases["lot"]}
        assert rows["m:inner"].self_weight == 6
        assert rows["m:inner"].cum_weight == 6
        assert rows["m:outer"].self_weight == 4
        assert rows["m:outer"].cum_weight == 10
        assert summary.total_weight == 10
        text = prof.render_profile(summary, top=5)
        assert "phase lot: 10 samples" in text
        assert "m:inner" in text
        data = prof.profile_summary_data(summary, top=1)
        assert data["phases"]["lot"][0]["function"] == "m:inner"

    def test_recursive_stack_counts_cumulative_once(self):
        records = [_profile_record([("lot", "m:f;m:f;m:f", 5)])]
        summary = prof.build_profile_summary(TraceFold.of(records))
        row = summary.phases["lot"][0]
        assert row.function == "m:f"
        assert row.self_weight == 5 and row.cum_weight == 5

    def test_write_folded_format(self, tmp_path):
        records = [
            _profile_record([("lot", "a:f;b:g", 3), ("sweep", "c:h", 1)])
        ]
        out = tmp_path / "out.folded"
        assert prof.write_folded(TraceFold.of(records), out) == 2
        lines = out.read_text().splitlines()
        # flamegraph.pl collapsed format: frames ';'-joined, weight last
        assert lines[0] == "lot;a:f;b:g 3"
        assert lines[1] == "sweep;c:h 1"
        for line in lines:
            assert re.match(r"^\S.* \d+$", line)

    def test_empty_trace_renders_hint(self):
        summary = prof.build_profile_summary(TraceFold())
        assert summary.empty
        assert "--profile" in prof.render_profile(summary)

    def test_worker_utilization_math(self):
        records = [
            {"type": "farm_run_started", "ts": 100.0, "units": 2},
            {
                "type": "farm_unit_completed", "ts": 104.0, "key": "u/0",
                "elapsed_s": 3.0, "worker": "w1",
            },
            {
                "type": "farm_unit_completed", "ts": 110.0, "key": "u/1",
                "elapsed_s": 5.0, "worker": "w2",
            },
            {
                "type": "resource_sample", "ts": 102.0, "worker": "w1",
                "cpu_user_s": 1.0, "cpu_system_s": 0.5, "rss_kb": 1000,
                "max_rss_kb": 2048,
            },
            {
                "type": "resource_sample", "ts": 104.0, "worker": "w1",
                "cpu_user_s": 3.0, "cpu_system_s": 1.0, "rss_kb": 1500,
                "max_rss_kb": 4096,
            },
        ]
        rows = {
            r.worker: r for r in prof.worker_utilization(TraceFold.of(records))
        }
        assert rows["w1"].busy_s == 3.0
        assert rows["w1"].span_s == 10.0  # run start 100 -> last end 110
        assert rows["w1"].utilization == pytest.approx(0.3)
        assert rows["w1"].cpu_s == pytest.approx(2.5)  # (3+1) - (1+0.5)
        assert rows["w1"].peak_rss_kb == 4096
        assert rows["w2"].utilization == pytest.approx(0.5)
        text = prof.render_worker_utilization(list(rows.values()))
        assert "w1" in text and "30.0%" in text


class TestHistoryCpuFields:
    def test_build_run_record_cpu_fields(self):
        record = build_run_record(
            "r", MetricsRegistry(), wall_s=1.0,
            cpu_user_s=1.25, cpu_system_s=0.25,
        )
        assert record["cpu_user_s"] == 1.25
        assert record["cpu_system_s"] == 0.25
        assert record["cpu_s"] == 1.5
        legacy = build_run_record("old", MetricsRegistry())
        assert legacy["cpu_s"] is None

    def test_cpu_gate_and_advisory(self):
        base = build_run_record(
            "b", MetricsRegistry(), cpu_user_s=1.0, cpu_system_s=0.0
        )
        run = build_run_record(
            "r", MetricsRegistry(), cpu_user_s=2.0, cpu_system_s=0.0
        )
        advisory = RunComparison(baseline=base, run=run)
        assert advisory.cpu_delta_pct == pytest.approx(100.0)
        assert not advisory.regressed
        assert "advisory" in advisory.render()

        gated = RunComparison(baseline=base, run=run, cpu_threshold_pct=50.0)
        assert gated.cpu_regressed and gated.regressed
        assert "CPU TIME REGRESSION" in gated.render()

    def test_cpu_na_for_legacy_records(self):
        base = build_run_record("b", MetricsRegistry())
        run = build_run_record(
            "r", MetricsRegistry(), cpu_user_s=1.0, cpu_system_s=0.0
        )
        comparison = RunComparison(
            baseline=base, run=run, cpu_threshold_pct=1.0
        )
        assert comparison.cpu_delta_pct is None
        assert not comparison.cpu_regressed
        assert "n/a" in comparison.render()


class TestCLISurfaces:
    @pytest.fixture()
    def profiled_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["--trace", str(path), "--profile", "--profile-interval",
             "0.002", "random", "--tests", "8"]
        ) == 0
        capsys.readouterr()
        return path

    def test_obs_profile_table(self, profiled_trace, capsys):
        assert main(["obs", "profile", str(profiled_trace), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "== profile:" in out
        assert "self%" in out and "cum%" in out

    def test_obs_profile_json(self, profiled_trace, capsys):
        assert main(["obs", "profile", str(profiled_trace), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["unit"] == "samples"
        assert data["total_weight"] >= 0
        assert isinstance(data["phases"], dict)

    def test_obs_flame_export(self, profiled_trace, tmp_path, capsys):
        out_path = tmp_path / "out.folded"
        assert main(
            ["obs", "flame", str(profiled_trace), str(out_path)]
        ) == 0
        assert "folded stacks written" in capsys.readouterr().out
        for line in out_path.read_text().splitlines():
            assert re.match(r"^\S.* \d+$", line)

    def test_obs_summary_json(self, profiled_trace, capsys):
        assert main(["obs", "summary", str(profiled_trace), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["events"] > 0
        assert data["profile_sessions"] == 1
        assert data["resources"] is not None
        assert data["resources"]["samples"] >= 1
        assert data["measurements"]["total"] > 0

    def test_obs_profile_without_profile_events_exits_1(
        self, tmp_path, capsys
    ):
        path = tmp_path / "plain.jsonl"
        assert main(
            ["--trace", str(path), "random", "--tests", "3"]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "profile", str(path)]) == 1
        assert "--profile" in capsys.readouterr().out

    def test_run_log_records_cpu(self, tmp_path, capsys):
        runs = tmp_path / "runs.jsonl"
        assert main(
            ["--run-log", str(runs), "--run-name", "r1",
             "random", "--tests", "3"]
        ) == 0
        capsys.readouterr()
        record = json.loads(runs.read_text().splitlines()[0])
        assert record["cpu_s"] is not None and record["cpu_s"] > 0
        assert record["cpu_s"] == pytest.approx(
            record["cpu_user_s"] + record["cpu_system_s"], abs=1e-6
        )

    def test_html_report_resource_section(self, profiled_trace, tmp_path,
                                          capsys):
        out_path = tmp_path / "report.html"
        assert main(
            ["obs", "report", str(profiled_trace), str(out_path)]
        ) == 0
        capsys.readouterr()
        text = out_path.read_text()
        assert "Resources &amp; utilization" in text
        assert "resource sample(s)" in text
        import xml.etree.ElementTree as ET

        ET.fromstring(text.split("\n", 1)[1])
