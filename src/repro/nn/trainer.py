"""Minibatch SGD trainer with momentum and early stopping.

The fig. 4 scheme keeps training "until learning and generalization error is
small enough"; the :class:`Trainer` provides the inner loop — epochs of
shuffled minibatches, a held-out validation score per epoch, patience-based
early stopping and restoration of the best weights.  It runs all the
voting machine's members at once on stacked parameters; each ends exactly
as if trained alone (``docs/performance.md``, "Stacked ensemble training").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.losses import Loss
from repro.nn.mlp import MLP, MLPStack
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
        x, y = np.asarray(train_x)[None], np.asarray(train_y)[None]
        return self.fit_stack([network], x, y, val_x, val_y)[0]

    def fit_stack(
        self,
        networks: Sequence[MLP],
        train_x: np.ndarray,
        train_y: np.ndarray,
        val_x: Optional[np.ndarray] = None,
        val_y: Optional[np.ndarray] = None,
    ) -> List[TrainingHistory]:
        """:meth:`fit` for same-architecture networks, all in one loop.

        ``train_x[m]``/``train_y[m]`` are network ``m``'s training rows,
        the same count for each.  Every network ends as :meth:`fit` would
        leave it alone; one that stops early leaves the stack.
        """
        train_x = np.asarray(train_x, dtype=float)
        train_y = np.asarray(train_y, dtype=float)
        if train_x.shape[:2] != train_y.shape[:2]:
            raise ValueError("train_x and train_y lengths differ")
        if (val_x is None) != (val_y is None):
            raise ValueError("provide both val_x and val_y or neither")
        if val_x is not None:
            val_x = np.atleast_2d(np.asarray(val_x, dtype=float))

        stack = MLPStack(networks)
        n_rows = train_x.shape[1]
        rng = np.random.default_rng(self.seed)
        histories = [TrainingHistory() for _ in networks]
        velocities = [np.zeros_like(param) for param in stack.parameters]
        best: List[Optional[List[np.ndarray]]] = [None] * len(networks)
        active = list(range(len(networks)))  # the network in each stack row

        for epoch in range(self.max_epochs):
            order = rng.permutation(n_rows)
            starts = range(0, n_rows, self.batch_size)
            batch_losses = np.empty((len(active), len(starts)))
            for column, start in enumerate(starts):
                batch = order[start : start + self.batch_size]
                # ``take`` keeps each network's rows contiguous, as one
                # network's are: BLAS sums width-1 products stride-dependently.
                targets = train_y.take(batch, axis=1)
                outputs = stack.forward(train_x.take(batch, axis=1))
                batch_losses[:, column] = self.loss.values(outputs[-1], targets)
                grads = stack.gradients(outputs, self.loss.gradient(outputs[-1], targets))
                for param, velocity, grad in zip(stack.parameters, velocities, grads):
                    velocity *= self.momentum
                    velocity -= self.learning_rate * grad
                    param += velocity
            train_losses = batch_losses.mean(axis=1)
            if val_x is not None:
                predicted = stack.forward(val_x)[-1]
                val_losses = self.loss.values(
                    predicted, np.broadcast_to(val_y, predicted.shape)
                )

            keep = []
            for row, member in enumerate(active):
                history = histories[member]
                history.train_loss.append(float(train_losses[row]))
                if val_x is not None:
                    best_epoch = history.best_epoch
                    best_val = history.val_loss[best_epoch] if best_epoch >= 0 else np.inf
                    history.val_loss.append(float(val_losses[row]))
                    if history.val_loss[-1] < best_val - 1e-9:
                        best[member] = stack.member(row)
                        history.best_epoch = epoch
                    elif epoch - best_epoch >= self.patience:
                        history.stopped_early = True
                        networks[member].set_parameters(best[member] or stack.member(row))
                        continue
                keep.append(row)
            if len(keep) < len(active):
                active = [active[row] for row in keep]
                stack.select(keep)
                velocities = [velocity[keep] for velocity in velocities]
                train_x, train_y = train_x[keep], train_y[keep]
                if not active:
                    break

        for row, member in enumerate(active):
            networks[member].set_parameters(best[member] or stack.member(row))
        if OBS.enabled:
            for history in histories:
                val_losses = history.val_loss or [None] * history.epochs_run
                for epoch, (train_loss, val_loss) in enumerate(
                    zip(history.train_loss, val_losses)
                ):
                    OBS.metrics.counter("nn.epochs").inc()
                    OBS.metrics.histogram("nn.epoch_loss").observe(train_loss)
                    OBS.bus.emit(
                        event("nn_epoch", epoch=epoch, train_loss=train_loss, val_loss=val_loss)
                    )
        return histories
