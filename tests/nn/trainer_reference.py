"""The per-member training loop, kept as the stacked loop's reference.

``fit`` is :meth:`repro.nn.trainer.Trainer.fit` as it ran before the
voting machine trained all its members in one stacked loop: one network
at a time, one ``train_batch`` per mini-batch, backprop through each
layer's own ``backward``.  ``ensemble_fit`` trains the members one after
another the same way, and the voting functions are the per-member
``VotingEnsemble`` votes.  Every stacked result must equal these bit for
bit.  The losses are the per-batch formulas of that code, so the
reference shares no arithmetic with the stacked loop.
"""

import numpy as np

from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.trainer import TrainingHistory

_EPS = 1e-12


def loss_value(loss, predicted, target):
    if isinstance(loss, CrossEntropyLoss):
        clipped = np.clip(predicted, _EPS, 1.0)
        return float(-np.mean(np.sum(target * np.log(clipped), axis=-1)))
    assert isinstance(loss, MSELoss)
    return float(np.mean((predicted - target) ** 2))


def loss_gradient(loss, predicted, target):
    if isinstance(loss, CrossEntropyLoss):
        return (predicted - target) / predicted.shape[0]
    assert isinstance(loss, MSELoss)
    return 2.0 * (predicted - target) / predicted.size


def forward(network, inputs):
    """``MLP.forward(train=True)``: the output plus each layer's cache."""
    out = np.atleast_2d(np.asarray(inputs, dtype=float))
    caches = []
    for layer in network.layers:
        pre_activation = out @ layer.weights + layer.bias
        output = layer.activation.forward(pre_activation)
        caches.append((out, output))
        out = output
    return out, caches


def layer_backward(layer, cache, grad_output):
    """``DenseLayer.backward``: (grad weights, grad bias, grad input)."""
    cached_input, cached_output = cache
    grad_pre = layer.activation.backward(grad_output, cached_output)
    grad_weights = cached_input.T @ grad_pre
    grad_bias = grad_pre.sum(axis=0)
    return grad_weights, grad_bias, grad_pre @ layer.weights.T


def backward(network, caches, grad_output):
    """``MLP.backward``: per-layer (grad weights, grad bias)."""
    grads = [None] * len(network.layers)
    grad = grad_output
    for i in reversed(range(len(network.layers))):
        grad_w, grad_b, grad = layer_backward(network.layers[i], caches[i], grad)
        grads[i] = (grad_w, grad_b)
    return grads


def train_batch(network, inputs, targets, loss, learning_rate,
                momentum_buffers, momentum):
    """``MLP.train_batch``: one forward/backward/update; the batch loss."""
    predicted, caches = forward(network, inputs)
    batch_loss = loss_value(loss, predicted, targets)
    grads = backward(network, caches, loss_gradient(loss, predicted, targets))
    for layer, (vel_w, vel_b), (grad_w, grad_b) in zip(
        network.layers, momentum_buffers, grads
    ):
        vel_w *= momentum
        vel_w -= learning_rate * grad_w
        layer.weights += vel_w
        vel_b *= momentum
        vel_b -= learning_rate * grad_b
        layer.bias += vel_b
    return batch_loss


def fit(trainer, network, train_x, train_y, val_x=None, val_y=None):
    """``Trainer.fit``: the history and the ``nn_epoch`` payloads (no ``ts``)."""
    rng = np.random.default_rng(trainer.seed)
    history = TrainingHistory()
    payloads = []
    momentum_buffers = [
        (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        for layer in network.layers
    ]
    best_val = float("inf")
    best_params = None
    epochs_since_best = 0

    for epoch in range(trainer.max_epochs):
        order = rng.permutation(len(train_x))
        epoch_losses = []
        for start in range(0, len(order), trainer.batch_size):
            batch = order[start : start + trainer.batch_size]
            epoch_losses.append(
                train_batch(
                    network, train_x[batch], train_y[batch], trainer.loss,
                    trainer.learning_rate, momentum_buffers, trainer.momentum,
                )
            )
        train_loss = float(np.mean(epoch_losses))
        history.train_loss.append(train_loss)

        val_loss = None
        if val_x is not None:
            val_loss = loss_value(
                trainer.loss, forward(network, val_x)[0], val_y
            )
            history.val_loss.append(val_loss)
        payloads.append(
            {"type": "nn_epoch", "epoch": epoch, "train_loss": train_loss,
             "val_loss": val_loss}
        )

        if val_loss is not None:
            if val_loss < best_val - 1e-9:
                best_val = val_loss
                best_params = network.get_parameters()
                history.best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= trainer.patience:
                    history.stopped_early = True
                    break

    if best_params is not None:
        network.set_parameters(best_params)
    return history, payloads


def ensemble_fit(ensemble, trainer, train_x, train_y, val_x=None, val_y=None):
    """``VotingEnsemble.fit``, member after member: histories and payloads."""
    rng = np.random.default_rng(ensemble.seed)
    subset_size = max(1, int(round(ensemble.subset_fraction * len(train_x))))
    histories, payloads = [], []
    for member in ensemble.members:
        subset = rng.choice(len(train_x), size=subset_size, replace=False)
        history, member_payloads = fit(
            trainer, member, train_x[subset], train_y[subset], val_x, val_y
        )
        histories.append(history)
        payloads.extend(member_payloads)
    return histories, payloads


def member_outputs(ensemble, inputs):
    return np.stack([forward(m, inputs)[0] for m in ensemble.members])


def predict_proba(ensemble, inputs):
    return member_outputs(ensemble, inputs).mean(axis=0)


def classify(ensemble, inputs):
    votes = member_outputs(ensemble, inputs).argmax(axis=2)
    n_samples = votes.shape[1]
    counts = np.zeros((n_samples, ensemble.output_dim), dtype=int)
    for member_votes in votes:
        counts[np.arange(n_samples), member_votes] += 1
    winners = counts.argmax(axis=1)
    top_count = counts.max(axis=1)
    tied = (counts == top_count[:, None]).sum(axis=1) > 1
    if tied.any():
        soft = predict_proba(ensemble, inputs).argmax(axis=1)
        winners[tied] = soft[tied]
    return winners


def vote_agreement(ensemble, inputs):
    votes = member_outputs(ensemble, inputs).argmax(axis=2)
    majority = classify(ensemble, inputs)
    return (votes == majority[None, :]).mean(axis=0)


def introspect(ensemble, inputs):
    """``VotingEnsemble.introspect`` fields, as a dict."""
    stacked = member_outputs(ensemble, inputs)
    probabilities = stacked.mean(axis=0)
    votes = stacked.argmax(axis=2)
    n_samples = votes.shape[1]
    n_classes = ensemble.output_dim
    counts = np.zeros((n_samples, n_classes), dtype=int)
    for member_votes in votes:
        counts[np.arange(n_samples), member_votes] += 1
    winners = counts.argmax(axis=1)
    top_count = counts.max(axis=1)
    tied = (counts == top_count[:, None]).sum(axis=1) > 1
    if tied.any():
        winners[tied] = probabilities.argmax(axis=1)[tied]
    fractions = counts / float(ensemble.n_networks)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(fractions > 0, fractions * np.log2(fractions), 0.0)
    entropy = -terms.sum(axis=1)
    ordered = np.sort(probabilities, axis=1)
    if n_classes >= 2:
        margin = ordered[:, -1] - ordered[:, -2]
    else:
        margin = ordered[:, -1]
    agreement = counts[np.arange(n_samples), winners] / float(
        ensemble.n_networks
    )
    return {
        "counts": counts, "predicted": winners, "probabilities": probabilities,
        "entropy": entropy, "margin": margin, "agreement": agreement,
    }
