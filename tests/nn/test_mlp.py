"""Tests for dense layers, the MLP and its stacked form, including an
end-to-end fit."""

import numpy as np
import pytest

from repro.nn.layers import DenseLayer
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.mlp import MLP, MLPStack
from repro.nn.trainer import Trainer


class TestDenseLayer:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            DenseLayer(0, 3)

    def test_forward_shape(self):
        layer = DenseLayer(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((7, 4)))
        assert out.shape == (7, 3)

    def test_forward_rejects_wrong_width(self):
        layer = DenseLayer(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((7, 5)))


class TestMLP:
    def test_needs_two_layer_sizes(self):
        with pytest.raises(ValueError):
            MLP([5])

    def test_dims(self):
        net = MLP([6, 8, 3])
        assert net.input_dim == 6
        assert net.output_dim == 3
        assert len(net.layers) == 2

    def test_forward_single_sample_promoted(self):
        net = MLP([4, 3], seed=0)
        out = net.predict(np.zeros(4))
        assert out.shape == (1, 3)

    def test_softmax_output_is_distribution(self):
        net = MLP([4, 6, 3], output="softmax", seed=1)
        out = net.predict(np.random.default_rng(0).normal(size=(5, 4)))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0.0)

    def test_seed_reproducibility(self):
        a = MLP([4, 3], seed=9).predict(np.ones((1, 4)))
        b = MLP([4, 3], seed=9).predict(np.ones((1, 4)))
        assert np.array_equal(a, b)

    def test_parameter_roundtrip(self):
        source = MLP([4, 5, 3], seed=1)
        clone = MLP([4, 5, 3], seed=2)
        clone.set_parameters(source.get_parameters())
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.allclose(source.predict(x), clone.predict(x))

    def test_set_parameters_rejects_wrong_count(self):
        net = MLP([4, 3])
        with pytest.raises(ValueError):
            net.set_parameters([np.zeros((4, 3))])

    def test_set_parameters_rejects_wrong_shape(self):
        net = MLP([4, 3])
        with pytest.raises(ValueError):
            net.set_parameters([np.zeros((5, 3)), np.zeros(3)])

    def test_get_parameters_returns_copies(self):
        net = MLP([4, 3], seed=0)
        params = net.get_parameters()
        params[0][:] = 99.0
        assert not np.any(net.layers[0].weights == 99.0)

    def test_clone_architecture(self):
        net = MLP([4, 7, 3], hidden="sigmoid", output="identity", seed=0)
        clone = net.clone_architecture(seed=5)
        assert clone.layer_sizes == net.layer_sizes
        assert clone.hidden_name == "sigmoid"
        x = np.ones((1, 4))
        assert not np.allclose(net.predict(x), clone.predict(x))


class TestMLPStack:
    def test_rejects_mixed_architectures(self):
        with pytest.raises(ValueError):
            MLPStack([MLP([4, 3]), MLP([4, 5, 3])])
        with pytest.raises(ValueError):
            MLPStack([MLP([4, 3]), MLP([4, 3], output="identity")])

    def test_forward_equals_each_network(self):
        networks = [MLP([4, 6, 3], seed=s) for s in range(3)]
        x = np.random.default_rng(0).normal(size=(5, 4))
        stacked = MLPStack(networks).forward(x)[-1]
        for m, network in enumerate(networks):
            assert np.array_equal(stacked[m], network.predict(x))

    def test_gradient_check(self):
        """Finite differences of ``sum(output * upstream)`` per network."""
        rng = np.random.default_rng(3)
        networks = [
            MLP([4, 5, 3], hidden="tanh", output="tanh", seed=s)
            for s in range(3)
        ]
        stack = MLPStack(networks)
        x = rng.normal(size=(3, 5, 4))
        upstream = rng.normal(size=(3, 5, 3))
        grads = stack.gradients(stack.forward(x), upstream)
        assert [g.shape for g in grads] == [p.shape for p in stack.parameters]

        def loss(m):
            return float(np.sum(stack.forward(x)[-1][m] * upstream[m]))

        eps = 1e-6
        probes = [(0, 0, 0), (1, 2, 1), (2, 3, 2), (1, 2)]
        for param, grad in zip(stack.parameters, grads):
            for idx in probes[:3] if param.ndim == 3 else probes[3:]:
                orig = param[idx]
                param[idx] = orig + eps
                up = loss(idx[0])
                param[idx] = orig - eps
                down = loss(idx[0])
                param[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert grad[idx] == pytest.approx(numeric, abs=1e-4)


class TestLearningEndToEnd:
    def test_learns_xor(self):
        """The classic nonlinear sanity check: XOR is learnable."""
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([[1, 0], [0, 1], [0, 1], [1, 0]], dtype=float)
        net = MLP([2, 8, 2], hidden="tanh", output="softmax", seed=4)
        trainer = Trainer(
            CrossEntropyLoss(), learning_rate=0.5, momentum=0.9,
            batch_size=4, max_epochs=500, patience=500, seed=0,
        )
        trainer.fit(net, x, y)
        assert net.accuracy(x, np.argmax(y, axis=1)) == pytest.approx(1.0)

    def test_learns_linear_regression(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w
        net = MLP([3, 1], output="identity", seed=0)
        trainer = Trainer(
            MSELoss(), learning_rate=0.05, momentum=0.9,
            batch_size=32, max_epochs=300, patience=300, seed=0,
        )
        history = trainer.fit(net, x, y)
        assert history.final_train_loss < 1e-3
        assert np.allclose(net.layers[0].weights, true_w, atol=0.05)
