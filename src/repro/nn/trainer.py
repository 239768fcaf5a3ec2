"""Minibatch SGD trainer with momentum and early stopping.

The fig. 4 scheme keeps training "until learning and generalization error is
small enough"; the :class:`Trainer` provides the inner loop — epochs of
shuffled minibatches, a held-out validation score per epoch, patience-based
early stopping and restoration of the best weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn.losses import Loss
from repro.nn.mlp import MLP
from repro.obs.events import event
from repro.obs.runtime import OBS


@dataclass
class TrainingHistory:
    """Per-epoch learning curves."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    @property
    def final_train_loss(self) -> float:
        """Last recorded training loss (``nan`` before training)."""
        return self.train_loss[-1] if self.train_loss else float("nan")

    @property
    def best_val_loss(self) -> float:
        """Best validation loss seen (``nan`` without validation data)."""
        return min(self.val_loss) if self.val_loss else float("nan")


class Trainer:
    """SGD-with-momentum trainer.

    Parameters
    ----------
    loss:
        Training loss (must match the network's output activation).
    learning_rate, momentum:
        Optimizer hyperparameters.
    batch_size:
        Minibatch size.
    max_epochs:
        Epoch budget.
    patience:
        Early stopping: stop after this many epochs without validation
        improvement (ignored when no validation set is given).
    seed:
        Shuffling seed.
    """

    def __init__(
        self,
        loss: Loss,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        batch_size: int = 32,
        max_epochs: int = 200,
        patience: int = 20,
        seed: int = 0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if batch_size < 1 or max_epochs < 1 or patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        self.loss = loss
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.seed = seed

    def fit(
        self,
        network: MLP,
        train_x: np.ndarray,
        train_y: np.ndarray,
        val_x: Optional[np.ndarray] = None,
        val_y: Optional[np.ndarray] = None,
    ) -> TrainingHistory:
        """Train ``network`` in place; returns the learning curves.

        When validation data is supplied, the network is left holding the
        weights of its best validation epoch.
        """
        if len(train_x) != len(train_y):
            raise ValueError("train_x and train_y lengths differ")
        if (val_x is None) != (val_y is None):
            raise ValueError("provide both val_x and val_y or neither")

        rng = np.random.default_rng(self.seed)
        history = TrainingHistory()
        momentum_buffers = [
            (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            for layer in network.layers
        ]
        best_val = float("inf")
        best_params = None
        epochs_since_best = 0

        for epoch in range(self.max_epochs):
            order = rng.permutation(len(train_x))
            epoch_losses = []
            for start in range(0, len(order), self.batch_size):
                batch = order[start : start + self.batch_size]
                epoch_losses.append(
                    network.train_batch(
                        train_x[batch],
                        train_y[batch],
                        self.loss,
                        self.learning_rate,
                        momentum_buffers,
                        self.momentum,
                    )
                )
            train_loss = float(np.mean(epoch_losses))
            history.train_loss.append(train_loss)

            val_loss: Optional[float] = None
            if val_x is not None:
                val_loss = network.evaluate(val_x, val_y, self.loss)
                history.val_loss.append(val_loss)

            if OBS.enabled:
                OBS.metrics.counter("nn.epochs").inc()
                OBS.metrics.histogram("nn.epoch_loss").observe(train_loss)
                OBS.bus.emit(
                    event(
                        "nn_epoch",
                        epoch=epoch, train_loss=train_loss, val_loss=val_loss
                    )
                )

            if val_loss is not None:
                if val_loss < best_val - 1e-9:
                    best_val = val_loss
                    best_params = network.get_parameters()
                    history.best_epoch = epoch
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
                    if epochs_since_best >= self.patience:
                        history.stopped_early = True
                        break

        if best_params is not None:
            network.set_parameters(best_params)
        return history
