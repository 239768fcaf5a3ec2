"""Decision-level introspection: emission, reconstruction, farm identity.

Covers the three tentpole surfaces end to end: SUTP search-audit events
from a live runner, NN ensemble vote introspection, GA convergence
telemetry with operator attribution — and the collector guarantee that a
serial and a 2-worker farm run yield event-identical insight streams.
"""

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.trip_point import MultipleTripPointRunner
from repro.ga.chromosome import TestIndividual
from repro.ga.engine import GAConfig, MultiPopulationGA
from repro.ga.population import Population
from repro.nn.ensemble import VotingEnsemble
from repro.nn.mlp import MLP
from repro.obs.events import RingBufferSink
from repro.obs.insight import (
    INSIGHT_EVENT_TYPES,
    build_insight,
    render_insight,
)
from repro.obs.report import TraceFold
from repro.patterns.conditions import ConditionSpace
from repro.patterns.features import extract_features
from repro.patterns.random_gen import RandomTestGenerator


def synthetic_fitness(test):
    features = extract_features(test.sequence)
    return (
        0.5 * features["peak_window_activity"]
        + 0.3 * features["read_after_write_rate"]
        + 0.2 * features["addr_msb_toggle_rate"]
    )


def seed_individuals(space, count=6, seed=0):
    generator = RandomTestGenerator(seed=seed, condition_space=space)
    return [
        TestIndividual.from_test_case(test, space)
        for test in generator.batch(count)
    ]


class TestSUTPInsightEvents:
    def _measure(self, quiet_ate, random_tests, count=5):
        sink = RingBufferSink()
        obs.enable(sink)
        runner = MultipleTripPointRunner(
            quiet_ate, (15.0, 45.0), resolution=0.05
        )
        runner.run(random_tests[:count])
        return sink.events

    def test_one_measured_event_per_test(self, quiet_ate, random_tests):
        records = self._measure(quiet_ate, random_tests)
        measured = [
            r for r in records if r["type"] == "sutp_test_measured"
        ]
        assert len(measured) == 5
        assert [m["test_name"] for m in measured] == [
            t.name for t in random_tests[:5]
        ]
        # Bootstrap: no RTP yet, full search, no drift.
        assert measured[0]["rtp"] is None
        assert measured[0]["used_full_search"] is True
        assert measured[0]["drift"] is None
        # Every later test measures against the bootstrap RTP.
        for record in measured[1:]:
            assert record["rtp"] == pytest.approx(
                measured[0]["trip_point"]
            )
            if record["trip_point"] is not None:
                assert record["drift"] == pytest.approx(
                    record["trip_point"] - record["rtp"]
                )

    def test_escalations_match_iterations(self, quiet_ate, random_tests):
        records = self._measure(quiet_ate, random_tests)
        measured = [
            r for r in records if r["type"] == "sutp_test_measured"
        ]
        escalations = [
            r for r in records if r["type"] == "sutp_window_escalated"
        ]
        walked = [
            m
            for m in measured[1:]
            if not m["used_full_search"] and m["iterations"] >= 2
        ]
        assert len(escalations) >= len(walked)
        for event in escalations:
            it = event["iteration"]
            assert event["step"] == pytest.approx(0.5 * it)
            assert event["window"] == pytest.approx(
                0.5 * it * (it + 1) / 2.0
            )
            assert event["probes"] >= it

    def test_audit_reconstruction(self, quiet_ate, random_tests):
        records = self._measure(quiet_ate, random_tests, count=8)
        audit = build_insight(TraceFold.of(records)).sutp
        assert len(audit.rows) == 8
        assert audit.rows[0].is_bootstrap
        # Bootstrap has no incremental baseline, so no waste charge.
        assert audit.rows[0].wasted_probes is None
        post = audit.rows[1:]
        assert audit.reused_count + len(audit.escalated_rows) == len(post)
        assert audit.optimal_cost == min(
            row.measurements
            for row in post
            if not row.used_full_search
        )
        for row in post:
            assert row.wasted_probes == max(
                0, row.measurements - audit.optimal_cost
            )
        drift = audit.drift_series()
        assert len(drift) == sum(
            1 for row in audit.rows if row.drift is not None
        )
        text = audit.render()
        assert "SUTP audit: 8 test(s)" in text
        assert "observed-optimal" in text


class TestVoteIntrospection:
    def _ensemble(self, n_networks=5):
        return VotingEnsemble(
            MLP([4, 6, 3], seed=1), n_networks=n_networks, seed=3
        )

    def test_single_member_is_unanimous(self, rng):
        ensemble = self._ensemble(n_networks=1)
        inputs = rng.normal(size=(12, 4))
        intro = ensemble.introspect(inputs)
        assert np.all(intro.entropy == 0.0)
        assert np.all(intro.agreement == 1.0)
        assert np.all(intro.counts.sum(axis=1) == 1)

    def test_matches_classify_and_tallies(self, rng):
        ensemble = self._ensemble()
        inputs = rng.normal(size=(20, 4))
        intro = ensemble.introspect(inputs)
        assert np.array_equal(intro.predicted, ensemble.classify(inputs))
        assert np.all(intro.counts.sum(axis=1) == ensemble.n_networks)
        # Agreement is the winner's tally share (ties break to the soft
        # vote, so the winner may hold fewer votes than the hard-vote
        # max); entropy is zero exactly for unanimous rows.
        for i in range(len(intro)):
            winner = int(intro.predicted[i])
            assert intro.agreement[i] == pytest.approx(
                intro.counts[i, winner] / ensemble.n_networks
            )
            unanimous = intro.counts[i].max() == ensemble.n_networks
            assert (intro.entropy[i] == 0.0) == unanimous
        assert np.all(intro.margin >= 0.0)
        assert np.all(intro.margin <= 1.0)
        assert intro.votes_for(0) == tuple(int(v) for v in intro.counts[0])

    def test_vote_insight_from_records(self):
        records = [
            {
                "type": "nn_vote",
                "sample": i,
                "votes": votes,
                "predicted": predicted,
                "actual": actual,
                "entropy": entropy,
                "margin": 0.4,
                "agreement": max(votes) / 5,
            }
            for i, (votes, predicted, actual, entropy) in enumerate(
                [
                    ([5, 0, 0], 0, 0, 0.0),
                    ([3, 2, 0], 0, 1, 0.971),
                    ([0, 0, 5], 2, 2, 0.0),
                ]
            )
        ]
        records.append(
            {
                "type": "nn_calibration",
                "round": 2,
                "labels": ["a", "b", "c"],
                "matrix": [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
                "accuracy": 2 / 3,
                "mean_entropy": 0.324,
                "mean_margin": 0.4,
            }
        )
        insight = build_insight(TraceFold.of(records)).votes
        assert len(insight.votes) == 3
        assert insight.accuracy == pytest.approx(2 / 3)
        assert insight.mean_entropy == pytest.approx(0.971 / 3)
        bins = insight.entropy_histogram(bins=2)
        assert sum(count for _, _, count in bins) == 3
        text = insight.render()
        assert "accuracy 0.667" in text
        assert "calibration" in text
        assert "a" in text

    def test_empty_votes_render(self):
        insight = build_insight(TraceFold()).votes
        assert "no nn_vote events" in insight.render()
        assert insight.accuracy != insight.accuracy  # nan


class TestGAInsightEvents:
    def _run_ga(self, generations=6):
        sink = RingBufferSink()
        obs.enable(sink)
        space = ConditionSpace()
        config = GAConfig(
            population_size=10,
            n_populations=2,
            max_generations=generations,
            elite_count=2,
            migration_interval=4,
            stagnation_patience=50,
        )
        engine = MultiPopulationGA(config, space, synthetic_fitness, seed=0)
        engine.run(seed_individuals(space, 6))
        return sink.of_type("ga_generation")

    def test_generation_events_carry_convergence_fields(self):
        events = self._run_ga()
        assert len(events) == 6
        for event in events:
            assert event["std_fitness"] >= 0.0
            assert 0.0 <= event["sequence_diversity"] <= 1.0
            assert event["condition_diversity"] >= 0.0
            assert event["best_operator"] in {
                "elite",
                "crossover",
                "crossover+motif",
                "crossover+resize",
                "crossover+motif+resize",
                "clone",
                "clone+motif",
                "clone+resize",
                "clone+motif+resize",
                "restart",
                "carryover",
            }

    def test_insight_reconstruction(self):
        events = self._run_ga()
        insight = build_insight(TraceFold.of(events)).ga
        assert len(insight.generations) == 6
        assert sum(insight.operator_counts().values()) == 6
        best = insight.series("best_fitness")
        assert all(b >= a - 1e-12 for a, b in zip(best, best[1:]))
        text = insight.render()
        assert "GA: 6 generation(s)" in text
        assert "best-of-generation produced by:" in text


class TestPopulationDiversity:
    def test_identical_population_has_zero_diversity(self):
        space = ConditionSpace()
        seed = seed_individuals(space, 1)[0].with_fitness(0.5)
        population = Population("p", [seed] * 4)
        assert population.sequence_diversity() == 0.0
        assert population.condition_diversity() == 0.0
        assert population.fitness_std() == 0.0

    def test_mixed_population_has_positive_diversity(self):
        space = ConditionSpace()
        members = [
            ind.with_fitness(f)
            for ind, f in zip(
                seed_individuals(space, 4), [0.2, 0.9, 0.4, 0.6]
            )
        ]
        population = Population("p", members)
        assert 0.0 < population.sequence_diversity() <= 1.0
        assert population.condition_diversity() > 0.0
        assert population.fitness_std() > 0.0


class TestWCRInsight:
    RECORDS = [
        {"type": "wcr_classified", "test_name": "a", "technique": "nnga",
         "wcr": 0.9, "wcr_class": "weakness", "value": 28.0},
        {"type": "wcr_classified", "test_name": "b", "technique": "random",
         "wcr": 0.7, "wcr_class": "pass", "value": 30.1},
        {"type": "wcr_classified", "test_name": "c", "technique": "nnga",
         "wcr": 1.1, "wcr_class": "fail", "value": 26.5},
    ]

    def test_class_counts_and_render(self):
        insight = build_insight(TraceFold.of(self.RECORDS)).wcr
        assert insight.class_counts() == {
            "weakness": 1, "pass": 1, "fail": 1
        }
        text = insight.render()
        assert "3 record(s) classified" in text
        assert "weakness x1" in text


class TestBuildInsight:
    def test_empty_trace(self):
        insight = build_insight(TraceFold())
        assert insight.empty
        assert "no decision-level events" in render_insight(insight)

    def test_full_report_sections(self):
        records = list(TestWCRInsight.RECORDS)
        records.append(
            {"type": "ga_generation", "generation": 1, "best_fitness": 0.5,
             "mean_fitness": 0.4, "evaluations": 10, "restarts": 0,
             "std_fitness": 0.05, "sequence_diversity": 0.8,
             "condition_diversity": 0.2, "best_operator": "crossover"}
        )
        insight = build_insight(TraceFold.of(records))
        assert not insight.empty
        text = render_insight(insight)
        assert "decision-level insight" in text
        assert "GA: 1 generation(s)" in text
        assert "WCR: 3 record(s)" in text

    def test_fold_keeps_decisions_in_order(self):
        records = [
            {"type": "measurement", "index": 0},
            {"type": "ga_generation", "generation": 1},
            {"type": "farm_unit_completed", "key": "x"},
            {"type": "nn_vote", "sample": 0},
            {"type": "ga_generation", "generation": 2},
        ]
        fold = TraceFold.of(records)
        assert fold.decision_count == 3
        assert fold.decisions["ga_generation"] == [records[1], records[4]]
        assert fold.decisions["nn_vote"] == [records[3]]


def _insight_stream(records):
    """Insight events with the merge-variant fields removed."""
    return [
        {k: v for k, v in record.items() if k not in ("ts", "worker")}
        for record in records
        if record["type"] in INSIGHT_EVENT_TYPES
    ]


class TestFarmInsightIdentity:
    def _run_lot(self, tmp_path, capsys, name, extra):
        trace = tmp_path / f"{name}.jsonl"
        assert main(
            ["--trace", str(trace), *extra,
             "lot", "--dies", "3", "--tests", "2"]
        ) == 0
        capsys.readouterr()
        fold = TraceFold()
        records = list(fold.read(trace))
        assert fold.dropped_lines == 0
        return records

    def test_serial_and_two_worker_streams_identical(
        self, tmp_path, capsys
    ):
        serial = self._run_lot(tmp_path, capsys, "serial", [])
        parallel = self._run_lot(
            tmp_path, capsys, "parallel", ["--workers", "2"]
        )
        serial_stream = _insight_stream(serial)
        parallel_stream = _insight_stream(parallel)
        assert serial_stream, "lot run must emit insight events"
        assert any(
            r["type"] == "sutp_test_measured" for r in serial_stream
        )
        assert serial_stream == parallel_stream
