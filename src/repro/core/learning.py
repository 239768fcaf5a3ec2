"""Intelligent characterization learning scheme (fig. 4).

The loop the paper draws:

1. present random tests to the ATE and the NN modules continuously;
2. measure each test's trip point — first the reference trip point via
   eq. (2), then incrementally via eqs. (3)/(4) (SUTP);
3. code the trip-point values (fuzzy set data or simple numerical coding);
   the NN learns test → coded trip point, supervised by the ATE;
4. run the voting-machine consistency check and the iterative learnability
   and generalization check; when errors are still too large, go back to
   (1) and measure more random tests;
5. emit the NN weight file used by the optimization phase's software-only
   classification.

:class:`FuzzyNeuralTestGenerator` is that weight file put to work: the
"sub-optimal worst case test generator" that screens random candidates with
the ensemble and proposes GA seeds without any measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.trip_point import MultipleTripPointRunner
from repro.fuzzy.coding import NumericTripPointCoder, TripPointFuzzyCoder
from repro.ga.chromosome import TestIndividual
from repro.nn.ensemble import EnsembleTrainingReport, VotingEnsemble
from repro.nn.generalization import (
    GeneralizationChecker,
    GeneralizationReport,
    LearningVerdict,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.mlp import MLP
from repro.nn.trainer import Trainer
from repro.nn.weights_io import save_weights
from repro.obs.events import event
from repro.obs.runtime import OBS
from repro.obs.timing import span, timed
from repro.patterns.conditions import ConditionSpace, TestCondition
from repro.patterns.encoding import TestEncoder
from repro.patterns.random_gen import RandomTestGenerator
from repro.patterns.testcase import TestCase


@dataclass(frozen=True)
class LearningConfig:
    """Hyperparameters of the fig. 4 loop.

    The paper's experiment used 50k ATE patterns and 500k software
    patterns; the defaults here are laptop-sized and the shape of the
    result is preserved (see DESIGN.md, substitutions).
    """

    tests_per_round: int = 200
    max_rounds: int = 3
    val_fraction: float = 0.25
    hidden_layers: Tuple[int, ...] = (24, 12)
    n_networks: int = 5
    subset_fraction: float = 0.7
    coding: str = "fuzzy"  # "fuzzy" or "numeric" (fig. 4 step 3)
    n_classes: int = 4
    learning_rate: float = 0.08
    momentum: float = 0.9
    batch_size: int = 24
    max_epochs: int = 150
    patience: int = 15
    max_val_error: float = 0.35
    max_gap: float = 0.20
    #: When set, every random test is measured at this fixed operating
    #: point instead of sampling the condition space (Table-1 mode: the
    #: paper's comparison holds Vdd at 1.8 V).
    pin_condition: Optional["TestCondition"] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.coding not in ("fuzzy", "numeric"):
            raise ValueError("coding must be 'fuzzy' or 'numeric'")
        if not 0.0 < self.val_fraction < 0.9:
            raise ValueError("val_fraction must be in (0, 0.9)")
        if self.tests_per_round < 20:
            raise ValueError("need at least 20 tests per round")


@dataclass
class LearningResult:
    """Everything the optimization phase needs from the learning phase."""

    ensemble: VotingEnsemble
    coder: object  # TripPointFuzzyCoder or NumericTripPointCoder
    encoder: TestEncoder
    tests: List[TestCase]
    trip_values: List[float]
    rounds_run: int
    ate_measurements: int
    ensemble_reports: List[EnsembleTrainingReport] = field(default_factory=list)
    generalization_reports: List[GeneralizationReport] = field(default_factory=list)
    train_accuracy: float = float("nan")
    val_accuracy: float = float("nan")

    @property
    def accepted(self) -> bool:
        """True when the final generalization check accepted the network."""
        return bool(
            self.generalization_reports and self.generalization_reports[-1].accepted
        )

    def save_weight_file(self, path: Union[str, Path]) -> None:
        """Write the fig. 4 step-5 NN weight file.

        The file is self-contained: besides the ensemble weights it stores
        the coder calibration and encoder configuration, so
        :meth:`FuzzyNeuralTestGenerator.from_weight_file` can rebuild the
        software-only worst-case test generator in a later session without
        re-measuring anything.
        """
        save_weights(
            self.ensemble,
            path,
            metadata={
                "input_names": self.encoder.input_names,
                "class_labels": list(self.coder.labels),
                "coding": type(self.coder).__name__,
                "coder": self.coder.to_dict(),
                "include_condition": self.encoder.include_condition,
                "rounds_run": self.rounds_run,
                "train_accuracy": self.train_accuracy,
                "val_accuracy": self.val_accuracy,
                "ate_measurements": self.ate_measurements,
            },
        )


class LearningScheme:
    """Executes the fig. 4 loop against a tester.

    Parameters
    ----------
    runner:
        Multiple-trip-point runner bound to the ATE (provides SUTP and the
        measurement accounting).
    condition_space:
        Space the random tests sample their conditions from.
    config:
        Loop hyperparameters.
    """

    def __init__(
        self,
        runner: MultipleTripPointRunner,
        condition_space: ConditionSpace,
        config: LearningConfig = LearningConfig(),
    ) -> None:
        self.runner = runner
        self.condition_space = condition_space
        self.config = config
        self.encoder = TestEncoder(condition_space)

    def _build_coder(self, values: Sequence[float]):
        parameter = self.runner.ate.chip.parameter
        if self.config.coding == "fuzzy":
            return TripPointFuzzyCoder.from_samples(
                parameter, values, labels=self._labels()
            )
        return NumericTripPointCoder.from_samples(
            parameter, values, n_classes=self.config.n_classes
        )

    def _labels(self) -> List[str]:
        base = ["far_from_limit", "approaching_limit", "close_to_limit", "at_limit"]
        if self.config.n_classes <= len(base):
            return base[: self.config.n_classes]
        return base + [f"beyond_{i}" for i in range(self.config.n_classes - len(base))]

    @timed("learning")
    def run(self) -> LearningResult:
        """Run the learning loop to acceptance (or the round budget)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        generator = RandomTestGenerator(
            seed=cfg.seed,
            condition_space=(
                None if cfg.pin_condition is not None else self.condition_space
            ),
        )
        checker = GeneralizationChecker(
            max_val_error=cfg.max_val_error, max_gap=cfg.max_gap
        )

        tests: List[TestCase] = []
        values: List[float] = []
        measurements_before = self.runner.ate.measurement_count
        ensemble: Optional[VotingEnsemble] = None
        coder = None
        ensemble_reports: List[EnsembleTrainingReport] = []
        generalization_reports: List[GeneralizationReport] = []
        train_acc = val_acc = float("nan")
        retrain_bump = 0

        rounds = 0
        for round_index in range(cfg.max_rounds):
            rounds = round_index + 1
            if OBS.enabled:
                OBS.metrics.counter("learning.rounds").inc()
            # (1)+(2): measure trip points of a fresh batch of random tests.
            batch = generator.batch(cfg.tests_per_round)
            if cfg.pin_condition is not None:
                batch = [t.with_condition(cfg.pin_condition) for t in batch]
            with span("learning.measure_round"):
                dsv = self.runner.run(batch)
            for entry in dsv:
                if entry.found:
                    tests.append(entry.test)
                    values.append(entry.value)

            if len(values) < 40:
                continue  # not enough supervision yet; next round

            # (3): trip point value coding.
            coder = self._build_coder(values)
            inputs = self.encoder.encode_batch(tests)
            targets = coder.encode_batch(values)
            labels = np.argmax(targets, axis=1)

            # Shuffled train/validation split.
            order = rng.permutation(len(inputs))
            n_val = max(1, int(cfg.val_fraction * len(inputs)))
            val_idx, train_idx = order[:n_val], order[n_val:]

            # (4): voting ensemble fit + consistency/generalization check.
            architecture = MLP(
                [self.encoder.input_dim, *cfg.hidden_layers, coder.n_classes],
                hidden="tanh",
                output="softmax",
                seed=cfg.seed + retrain_bump,
            )
            ensemble = VotingEnsemble(
                architecture,
                n_networks=cfg.n_networks,
                subset_fraction=cfg.subset_fraction,
                seed=cfg.seed + retrain_bump,
            )
            trainer = Trainer(
                CrossEntropyLoss(),
                learning_rate=cfg.learning_rate,
                momentum=cfg.momentum,
                batch_size=cfg.batch_size,
                max_epochs=cfg.max_epochs,
                patience=cfg.patience,
                seed=cfg.seed + round_index,
            )
            report = ensemble.fit(
                trainer,
                inputs[train_idx],
                targets[train_idx],
                inputs[val_idx],
                targets[val_idx],
            )
            ensemble_reports.append(report)

            train_acc = ensemble.accuracy(inputs[train_idx], labels[train_idx])
            val_acc = ensemble.accuracy(inputs[val_idx], labels[val_idx])
            check = checker.check(1.0 - train_acc, 1.0 - val_acc)
            generalization_reports.append(check)
            if OBS.enabled:
                OBS.metrics.gauge("nn.train_accuracy").set(train_acc)
                OBS.metrics.gauge("nn.val_accuracy").set(val_acc)
                intro = ensemble.introspect(inputs[val_idx])
                OBS.metrics.gauge("nn.ensemble_agreement").set(
                    float(intro.agreement.mean())
                )
                OBS.metrics.gauge("nn.vote_mean_entropy").set(
                    float(intro.entropy.mean())
                )
                OBS.metrics.gauge("nn.vote_mean_margin").set(
                    float(intro.margin.mean())
                )
                measured = labels[val_idx]
                matrix = np.zeros(
                    (coder.n_classes, coder.n_classes), dtype=int
                )
                for i in range(len(intro)):
                    actual = int(measured[i])
                    predicted = int(intro.predicted[i])
                    matrix[actual, predicted] += 1
                    OBS.bus.emit(
                        event(
                            "nn_vote",
                            sample=i,
                            votes=intro.votes_for(i),
                            predicted=predicted,
                            actual=actual,
                            entropy=float(intro.entropy[i]),
                            margin=float(intro.margin[i]),
                            agreement=float(intro.agreement[i]),
                        )
                    )
                OBS.bus.emit(
                    event(
                        "nn_calibration",
                        round=rounds,
                        labels=tuple(coder.labels),
                        matrix=tuple(
                            tuple(int(v) for v in row) for row in matrix
                        ),
                        accuracy=val_acc,
                        mean_entropy=float(intro.entropy.mean()),
                        mean_margin=float(intro.margin.mean()),
                    )
                )

            if check.verdict is LearningVerdict.ACCEPT:
                break
            if check.verdict is LearningVerdict.RETRAIN:
                retrain_bump += 1  # fresh initialization next round
            # MORE_DATA (or RETRAIN): loop back to (1).

        if ensemble is None or coder is None:
            raise RuntimeError(
                "learning never accumulated enough located trip points; "
                "widen the search range or increase tests_per_round"
            )

        return LearningResult(
            ensemble=ensemble,
            coder=coder,
            encoder=self.encoder,
            tests=tests,
            trip_values=values,
            rounds_run=rounds,
            ate_measurements=self.runner.ate.measurement_count
            - measurements_before,
            ensemble_reports=ensemble_reports,
            generalization_reports=generalization_reports,
            train_accuracy=train_acc,
            val_accuracy=val_acc,
        )


class FuzzyNeuralTestGenerator:
    """Fig. 5 step 1: the NN-weight-file-driven sub-optimal test generator.

    Screens freshly generated random candidates with the trained voting
    ensemble — "only software computation without measurement" — and
    proposes those predicted most severe as GA seeds and restart material.

    Parameters
    ----------
    learning:
        The fig. 4 output (ensemble + coder + encoder).
    condition_space:
        Candidate condition sampling space.
    seed:
        Candidate-generation RNG seed.
    """

    def __init__(
        self,
        learning: "LearningResult",
        condition_space: ConditionSpace,
        seed: int = 0,
        pin_condition: Optional[TestCondition] = None,
    ) -> None:
        self.learning = learning
        self.condition_space = condition_space
        self.pin_condition = pin_condition
        self._generator = RandomTestGenerator(
            seed=seed,
            condition_space=None if pin_condition is not None else condition_space,
        )

    @classmethod
    def from_weight_file(
        cls,
        path: Union[str, Path],
        condition_space: ConditionSpace,
        seed: int = 0,
        pin_condition: Optional[TestCondition] = None,
    ) -> "FuzzyNeuralTestGenerator":
        """Rebuild the generator from a fig. 4 weight file.

        This is the paper's separation of phases made concrete: the
        learning session's knowledge travels in one self-contained file,
        and classification runs "based on only software computation without
        measurement".
        """
        from repro.fuzzy.coding import coder_from_dict
        from repro.nn.weights_io import ensemble_from_weight_file, load_weights

        _, metadata = load_weights(path)
        if "coder" not in metadata:
            raise ValueError(
                "weight file has no coder calibration; it predates "
                "LearningResult.save_weight_file or was hand-built"
            )
        ensemble = ensemble_from_weight_file(path)
        coder = coder_from_dict(metadata["coder"])
        encoder = TestEncoder(
            condition_space,
            include_condition=metadata.get("include_condition", True),
        )
        if ensemble.members[0].input_dim != encoder.input_dim:
            raise ValueError(
                f"weight file expects {ensemble.members[0].input_dim} inputs "
                f"but the encoder produces {encoder.input_dim}; feature set "
                "changed since the file was written"
            )
        learning = LearningResult(
            ensemble=ensemble,
            coder=coder,
            encoder=encoder,
            tests=[],
            trip_values=[],
            rounds_run=int(metadata.get("rounds_run", 0)),
            ate_measurements=int(metadata.get("ate_measurements", 0)),
            train_accuracy=float(metadata.get("train_accuracy", float("nan"))),
            val_accuracy=float(metadata.get("val_accuracy", float("nan"))),
        )
        return cls(
            learning, condition_space, seed=seed, pin_condition=pin_condition
        )

    def score(self, tests: Sequence[TestCase]) -> np.ndarray:
        """Predicted severity of each test in ``[0, 1]`` (no measurement)."""
        inputs = self.learning.encoder.encode_batch(tests)
        probabilities = self.learning.ensemble.predict_proba(inputs)
        return self.learning.coder.severity_score(probabilities)

    def propose(self, count: int, pool_size: int = 300) -> List[TestCase]:
        """The ``count`` most severe candidates from a fresh random pool."""
        if count < 1 or pool_size < count:
            raise ValueError("need 1 <= count <= pool_size")
        pool = self._generator.batch(pool_size)
        if self.pin_condition is not None:
            pool = [t.with_condition(self.pin_condition) for t in pool]
        scores = self.score(pool)
        ranked = np.argsort(scores)[::-1]
        return [pool[i].with_origin("nn") for i in ranked[:count]]

    def propose_individuals(
        self, count: int, pool_size: int = 300
    ) -> List[TestIndividual]:
        """NN-selected seeds encoded as GA individuals."""
        return [
            TestIndividual.from_test_case(test, self.condition_space, origin="nn")
            for test in self.propose(count, pool_size)
        ]

    def fresh_individual(self, pool_size: int = 32) -> TestIndividual:
        """One NN-screened individual (GA stagnation-restart factory)."""
        return self.propose_individuals(1, pool_size)[0]
