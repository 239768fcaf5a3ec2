"""The stacked training loop equals the per-member loop bit for bit.

``Trainer.fit_stack`` trains all voting-machine members in one loop over
stacked parameters; ``tests/nn/trainer_reference.py`` keeps the loop it
replaced, one member at a time.  Every member's parameters, learning
curves, best epoch and early stop, the ``nn_epoch`` events and every vote
must come out the same, over ensemble sizes 1-7, any subset fraction,
batch sizes that do and do not divide the subset, small patience (members
stop at different epochs) and runs with and without validation data.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.ensemble import VotingEnsemble
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.mlp import MLP
from repro.nn.trainer import Trainer
from repro.obs import runtime as obs_runtime
from repro.obs.events import RingBufferSink
from tests.nn import trainer_reference as ref


def _bits(values):
    """Exact, NaN-tolerant comparison key of a float or float sequence."""
    if values is None:
        return None
    if isinstance(values, float):
        return values.hex()
    return [_bits(v) for v in values]


def _payload_key(payload):
    return {
        key: _bits(value) if isinstance(value, float) else value
        for key, value in payload.items()
        if key != "ts"
    }


def _assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_same_network(actual, expected):
    for a, b in zip(actual.get_parameters(), expected.get_parameters()):
        _assert_same_array(a, b)


def _assert_same_history(actual, expected):
    assert _bits(actual.train_loss) == _bits(expected.train_loss)
    assert _bits(actual.val_loss) == _bits(expected.val_loss)
    assert actual.best_epoch == expected.best_epoch
    assert actual.stopped_early == expected.stopped_early


def _fit_traced(fit):
    """Run ``fit`` with telemetry on; its result and ``nn_epoch`` events."""
    ring = RingBufferSink(capacity=100_000)
    obs_runtime.reset()
    obs_runtime.enable(ring)
    try:
        result = fit()
        counters = obs_runtime.OBS.metrics.counters
        epochs = counters["nn.epochs"].value if "nn.epochs" in counters else 0
    finally:
        obs_runtime.reset()
    return result, [_payload_key(e) for e in ring.of_type("nn_epoch")], epochs


def _assert_same_votes(ensemble, twin, inputs):
    _assert_same_array(
        ensemble.predict_proba(inputs), ref.predict_proba(twin, inputs)
    )
    _assert_same_array(ensemble.classify(inputs), ref.classify(twin, inputs))
    _assert_same_array(
        ensemble.vote_agreement(inputs), ref.vote_agreement(twin, inputs)
    )
    intro = ensemble.introspect(inputs)
    for field, expected in ref.introspect(twin, inputs).items():
        _assert_same_array(getattr(intro, field), expected)


def _check_ensemble(case):
    """Fit ``case`` stacked and per member; assert everything is equal."""
    rng = np.random.default_rng(case["data_seed"])
    sizes = case["sizes"]
    n_rows, n_out = case["n_rows"], sizes[-1]

    def dataset(n):
        x = rng.normal(size=(n, sizes[0]))
        if case["loss"] == "ce":
            return x, np.eye(n_out)[rng.integers(0, n_out, size=n)]
        return x, rng.normal(size=(n, n_out))

    train_x, train_y = dataset(n_rows)
    val_x, val_y = dataset(case["n_val"]) if case["n_val"] else (None, None)
    loss = CrossEntropyLoss() if case["loss"] == "ce" else MSELoss()
    output = "softmax" if case["loss"] == "ce" else case["output"]
    ensemble = VotingEnsemble(
        MLP(sizes, hidden=case["hidden"], output=output, seed=case["seed"]),
        n_networks=case["n_networks"],
        subset_fraction=case["subset_fraction"],
        seed=case["seed"],
    )
    twin = copy.deepcopy(ensemble)
    trainer = Trainer(
        loss,
        learning_rate=case["learning_rate"],
        momentum=case["momentum"],
        batch_size=case["batch_size"],
        max_epochs=case["max_epochs"],
        patience=case["patience"],
        seed=case["trainer_seed"],
    )

    with np.errstate(all="ignore"):
        report, payloads, epochs = _fit_traced(
            lambda: ensemble.fit(trainer, train_x, train_y, val_x, val_y)
        )
        histories, expected_payloads = ref.ensemble_fit(
            twin, trainer, train_x, train_y, val_x, val_y
        )
        for actual, expected in zip(ensemble.members, twin.members):
            _assert_same_network(actual, expected)
        for actual, expected in zip(report.histories, histories):
            _assert_same_history(actual, expected)
        assert payloads == [_payload_key(p) for p in expected_payloads]
        assert epochs == sum(h.epochs_run for h in histories)
        _assert_same_votes(
            ensemble, twin, val_x if val_x is not None else train_x
        )
    return report


@st.composite
def ensemble_cases(draw):
    n_in = draw(st.integers(1, 5))
    hidden = draw(st.lists(st.integers(1, 6), max_size=2))
    n_out = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 30))
    return {
        "sizes": [n_in, *hidden, n_out],
        "n_networks": draw(st.integers(1, 7)),
        "subset_fraction": draw(
            st.floats(0.0, 1.0, exclude_min=True, allow_nan=False)
        ),
        "n_rows": n_rows,
        "n_val": draw(st.sampled_from([0, 1, 7])),
        "loss": draw(st.sampled_from(["ce", "mse"])),
        "hidden": draw(st.sampled_from(["tanh", "sigmoid", "relu"])),
        "output": draw(st.sampled_from(["identity", "sigmoid", "tanh"])),
        "batch_size": draw(st.integers(1, n_rows + 3)),
        "patience": draw(st.integers(1, 3)),
        "max_epochs": draw(st.integers(1, 25)),
        "learning_rate": draw(st.sampled_from([0.05, 0.3, 1.5])),
        "momentum": draw(st.sampled_from([0.0, 0.5, 0.9])),
        "seed": draw(st.integers(0, 2**16)),
        "trainer_seed": draw(st.integers(0, 2**16)),
        "data_seed": draw(st.integers(0, 2**16)),
    }


def _case(**fields):
    """A fixed :func:`ensemble_cases` draw, ``fields`` over small defaults."""
    return {
        "sizes": [3, 4, 2], "n_networks": 3, "subset_fraction": 1.0,
        "n_rows": 4, "n_val": 0, "loss": "mse", "hidden": "tanh",
        "output": "identity", "batch_size": 4, "patience": 1, "max_epochs": 1,
        "learning_rate": 0.05, "momentum": 0.0, "seed": 0, "trainer_seed": 0,
        "data_seed": 5, **fields,
    }


class TestStackedEnsembleFit:
    @settings(max_examples=60, deadline=None)
    @given(ensemble_cases())
    # Width-1 layers: numpy hands their matmuls to BLAS dot products, whose
    # summation order depends on the row stride of each network's batch.
    @example(_case(sizes=[1, 1], n_networks=2))
    # 30 one-row batches an epoch: numpy sums eight or more batch losses
    # pairwise, so the epoch mean depends on their memory layout.
    @example(_case(n_rows=30, batch_size=1, max_epochs=3, loss="ce", n_val=7, patience=3))
    def test_equals_per_member_loop(self, case):
        _check_ensemble(case)

    @pytest.mark.parametrize("n_val", [0, 12])
    def test_campaign_shapes(self, n_val):
        """5 members, ``[21, 24, 12, 4]``, batch 24 over a 34-row subset
        (two batches, the second partial) and patience 2: the members stop
        at different epochs and leave the stack one by one."""
        report = _check_ensemble(_case(
            sizes=[21, 24, 12, 4], n_networks=5, subset_fraction=0.7,
            n_rows=48, n_val=n_val, loss="ce", batch_size=24, patience=2,
            max_epochs=60, momentum=0.9, seed=7, trainer_seed=3, data_seed=11,
        ))
        epochs_run = [h.epochs_run for h in report.histories]
        if n_val:
            assert all(h.stopped_early for h in report.histories)
            assert len(set(epochs_run)) > 1
        else:
            assert epochs_run == [60] * 5


class TestSingleNetworkFit:
    @settings(max_examples=30, deadline=None)
    @given(ensemble_cases())
    def test_fit_equals_reference(self, case):
        """``Trainer.fit`` is the one-network case of the stacked loop."""
        rng = np.random.default_rng(case["data_seed"])
        sizes = case["sizes"]
        x = rng.normal(size=(case["n_rows"], sizes[0]))
        y = rng.normal(size=(case["n_rows"], sizes[-1]))
        val = (x[:3], y[:3]) if case["n_val"] else (None, None)
        network = MLP(sizes, hidden=case["hidden"], output=case["output"],
                      seed=case["seed"])
        twin = copy.deepcopy(network)
        trainer = Trainer(
            MSELoss(), learning_rate=case["learning_rate"],
            momentum=case["momentum"], batch_size=case["batch_size"],
            max_epochs=case["max_epochs"], patience=case["patience"],
            seed=case["trainer_seed"],
        )
        with np.errstate(all="ignore"):
            history, payloads, _ = _fit_traced(
                lambda: trainer.fit(network, x, y, *val)
            )
            expected, expected_payloads = ref.fit(trainer, twin, x, y, *val)
        _assert_same_network(network, twin)
        _assert_same_history(history, expected)
        assert payloads == [_payload_key(p) for p in expected_payloads]
