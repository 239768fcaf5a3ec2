"""The NN voting machine.

Fig. 4, step 1: "To measure how confident the neural net is in its
classification, we propose to use the NN voting machine algorithm, such that
multiple NNs are trained on different subsets of the training input tests,
then vote in parallel on unknown input tests."  Step 4: "The confidence in
the classification is determined by averaging the mean error for each
network (i.e. consistency check)."

:class:`VotingEnsemble` trains ``n_networks`` copies of one architecture on
bootstrap subsets, predicts by averaging class probabilities (soft vote),
classifies by majority (hard vote), and exposes the paper's consistency
metric plus a per-sample vote-agreement confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.mlp import MLP, MLPStack
from repro.nn.trainer import Trainer, TrainingHistory
from repro.obs.runtime import OBS
from repro.obs.timing import span


@dataclass(frozen=True)
class EnsembleTrainingReport:
    """Outcome of one ensemble fit."""

    histories: Sequence[TrainingHistory]
    mean_train_loss: float
    mean_val_loss: float

    @property
    def consistency(self) -> float:
        """The paper's consistency check: average of per-network mean errors.

        Lower is more consistent/confident.  ``nan`` without validation.
        """
        return self.mean_val_loss


@dataclass(frozen=True)
class VoteIntrospection:
    """Decision-level record of one ensemble vote over a batch.

    Everything the insight layer needs to explain *why* each sample was
    classified the way it was: the raw vote tally per class, the
    disagreement entropy of that tally (bits), the fuzzy-class margin
    (soft-probability gap between the top two classes), and the fraction
    of members agreeing with the winner.

    Attributes
    ----------
    counts:
        ``(n_samples, n_classes)`` vote tallies; each row sums to the
        ensemble size.
    predicted:
        Majority class per sample (ties resolved by the soft vote, the
        same rule as :meth:`VotingEnsemble.classify`).
    probabilities:
        Soft-vote class probabilities, ``(n_samples, n_classes)``.
    entropy:
        Shannon entropy of each sample's vote tally in bits; 0 for a
        unanimous vote, ``log2(n_classes)`` at maximum disagreement.
    margin:
        Soft-probability difference between the best and runner-up class.
    agreement:
        Fraction of members voting with the majority.
    """

    counts: np.ndarray
    predicted: np.ndarray
    probabilities: np.ndarray
    entropy: np.ndarray
    margin: np.ndarray
    agreement: np.ndarray

    def __len__(self) -> int:
        return len(self.predicted)

    def votes_for(self, sample: int) -> Tuple[int, ...]:
        """The vote tally of one sample as a plain tuple (event payload)."""
        return tuple(int(v) for v in self.counts[sample])


class VotingEnsemble:
    """Bootstrap ensemble of identical-architecture MLPs.

    Parameters
    ----------
    architecture:
        Template network (never trained itself); members are fresh clones.
    n_networks:
        Ensemble size (the paper uses "multiple NNs"; 5 is the default).
    subset_fraction:
        Fraction of the training set each member sees (sampled without
        replacement, different subset per member).
    seed:
        Controls member initialization and subset sampling.
    """

    def __init__(
        self,
        architecture: MLP,
        n_networks: int = 5,
        subset_fraction: float = 0.7,
        seed: int = 0,
    ) -> None:
        if n_networks < 1:
            raise ValueError("need at least one network")
        if not 0.0 < subset_fraction <= 1.0:
            raise ValueError("subset_fraction must be in (0, 1]")
        self.n_networks = n_networks
        self.subset_fraction = subset_fraction
        self.seed = seed
        self.members: List[MLP] = [
            architecture.clone_architecture(seed=seed + 1 + i)
            for i in range(n_networks)
        ]

    @property
    def output_dim(self) -> int:
        """Class count of the ensemble."""
        return self.members[0].output_dim

    def fit(
        self,
        trainer: Trainer,
        train_x: np.ndarray,
        train_y: np.ndarray,
        val_x: Optional[np.ndarray] = None,
        val_y: Optional[np.ndarray] = None,
    ) -> EnsembleTrainingReport:
        """Train every member on its own subset, all in one stacked loop."""
        rng = np.random.default_rng(self.seed)
        size = max(1, int(round(self.subset_fraction * len(train_x))))
        subsets = np.stack(
            [rng.choice(len(train_x), size=size, replace=False) for _ in self.members]
        )
        with span("nn.ensemble_fit"):
            histories = trainer.fit_stack(
                self.members, train_x[subsets], train_y[subsets], val_x, val_y
            )
        report = EnsembleTrainingReport(
            histories=tuple(histories),
            mean_train_loss=float(np.mean([h.final_train_loss for h in histories])),
            mean_val_loss=float(np.mean([h.best_val_loss for h in histories])),
        )
        if OBS.enabled:
            OBS.metrics.gauge("nn.ensemble.mean_train_loss").set(report.mean_train_loss)
            OBS.metrics.gauge("nn.ensemble.consistency").set(report.consistency)
        return report

    # -- voting -------------------------------------------------------------------
    def _member_outputs(self, inputs: np.ndarray) -> np.ndarray:
        """Every member's ``predict`` in one stacked forward pass.

        Shape ``(n_networks, n_samples, n_classes)``.
        """
        rows = np.atleast_2d(np.asarray(inputs, dtype=float))
        return MLPStack(self.members).forward(rows)[-1]

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Soft vote: mean class probabilities over members."""
        return self._member_outputs(inputs).mean(axis=0)

    def classify(self, inputs: np.ndarray) -> np.ndarray:
        """Hard vote: majority class per sample (ties go to the soft vote)."""
        return _tally(self._member_outputs(inputs))[1]

    def vote_agreement(self, inputs: np.ndarray) -> np.ndarray:
        """Per-sample fraction of members agreeing with the majority vote."""
        return self.introspect(inputs).agreement

    def introspect(self, inputs: np.ndarray) -> VoteIntrospection:
        """Full vote breakdown for a batch (one member pass, all metrics).

        The tally, winner, soft vote, disagreement entropy, fuzzy-class
        margin and agreement come from the one stacked forward pass that
        :meth:`classify` spends.
        """
        counts, winners, probabilities = _tally(self._member_outputs(inputs))
        fractions = counts / float(self.n_networks)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(fractions > 0, fractions * np.log2(fractions), 0.0)
        ordered = np.sort(probabilities, axis=1)
        runner_up = ordered[:, -2] if ordered.shape[1] >= 2 else 0.0
        return VoteIntrospection(
            counts=counts,
            predicted=winners,
            probabilities=probabilities,
            entropy=-terms.sum(axis=1),
            margin=ordered[:, -1] - runner_up,
            agreement=counts[np.arange(len(counts)), winners] / float(self.n_networks),
        )

    def accuracy(self, inputs: np.ndarray, target_classes: np.ndarray) -> float:
        """Majority-vote accuracy against integer labels."""
        return float(np.mean(self.classify(inputs) == target_classes))


def _tally(outputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vote tally, winners and soft vote of stacked member outputs.

    ``outputs`` is ``(n_networks, n_samples, n_classes)``.  Returns the
    ``(n_samples, n_classes)`` tally of member votes, the majority class
    per sample (ties go to the soft vote) and the soft-vote probabilities.
    """
    probabilities = outputs.mean(axis=0)
    votes = outputs.argmax(axis=2)
    counts = (votes[:, :, None] == np.arange(outputs.shape[2])).sum(axis=0)
    winners = counts.argmax(axis=1)
    tied = (counts == counts.max(axis=1)[:, None]).sum(axis=1) > 1
    winners[tied] = probabilities.argmax(axis=1)[tied]
    return counts, winners, probabilities
