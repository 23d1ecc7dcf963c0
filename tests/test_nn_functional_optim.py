"""Tests for functional ops, losses, optimizers, schedulers and the
trainer."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CyclicCosineLR,
    Linear,
    Module,
    NLLLoss,
    Tensor,
    Trainer,
    log_softmax,
    nll_loss,
)
from repro.nn.module import predict_labels
from tests.test_nn_tensor import numerical_grad


class TestLogSoftmax:
    def test_rows_are_log_distributions(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        out = log_softmax(x, axis=-1)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-6)

    def test_stability(self):
        x = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        out = log_softmax(x)
        assert np.all(np.isfinite(out.data))

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(3, 4))
        x = Tensor(x_data, requires_grad=True, dtype=np.float64)
        out = log_softmax(x)
        (out * out).sum().backward()

        def f():
            return float(
                (log_softmax(Tensor(x_data, dtype=np.float64)).data ** 2).sum()
            )

        np.testing.assert_allclose(x.grad, numerical_grad(f, x_data), atol=1e-4)


class TestLosses:
    def test_nll_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
        loss = nll_loss(log_softmax(logits), np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_nll_uniform_is_log_k(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = nll_loss(log_softmax(logits), np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(10), rel=1e-5)

    def test_target_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            nll_loss(log_softmax(Tensor(np.zeros((2, 3)))), np.array([0, 5]))

    def test_loss_modules(self):
        logits = Tensor(np.zeros((2, 3)))
        y = np.array([0, 1])
        assert NLLLoss()(log_softmax(logits), y).item() == pytest.approx(
            nll_loss(log_softmax(logits), y).item())


class _Quadratic(Module):
    """Minimize ||w - target||^2 — a convex test problem."""

    def __init__(self, dim=5):
        super().__init__()
        from repro.nn.module import Parameter

        self.w = Parameter(np.zeros(dim, dtype=np.float64))
        self.target = np.arange(dim, dtype=np.float64)

    def loss(self):
        diff = self.w + Tensor(-self.target, dtype=np.float64)
        return (diff * diff).sum()


class TestOptimizers:
    def test_adam_converges(self):
        m = _Quadratic()
        opt = Adam(m.parameters(), lr=0.1)
        for _ in range(300):
            loss = m.loss()
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(m.w.data, m.target, atol=1e-2)

    def test_weight_decay_shrinks(self):
        m = _Quadratic()
        m.w.data[:] = 10.0
        opt = Adam(m.parameters(), lr=0.01, weight_decay=1.0)
        # No loss gradient: only decay acts.
        m.w.grad = np.zeros_like(m.w.data)
        opt.step()
        assert np.all(np.abs(m.w.data) < 10.0)

    def test_grad_clipping(self):
        m = _Quadratic()
        opt = Adam(m.parameters(), lr=0.1)
        m.w.grad = np.full(5, 100.0)
        norm = opt.clip_grad_norm(1.0)
        assert norm > 100
        assert np.linalg.norm(m.w.grad) == pytest.approx(1.0, rel=1e-5)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr(self):
        m = _Quadratic()
        with pytest.raises(ValueError):
            Adam(m.parameters(), lr=0.0)

    def test_invalid_betas(self):
        m = _Quadratic()
        with pytest.raises(ValueError):
            Adam(m.parameters(), lr=0.1, betas=(1.0, 0.9))


class TestSchedulers:
    def _opt(self, lr=1.0):
        return Adam(_Quadratic().parameters(), lr=lr)

    def test_cyclic_cosine_decays_within_cycle(self):
        opt = self._opt()
        sched = CyclicCosineLR(opt, cycle_len=10, min_lr=0.01)
        lrs = [sched.step() for _ in range(10)]
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] == pytest.approx(0.01, abs=0.06)

    def test_cyclic_cosine_warm_restart(self):
        opt = self._opt()
        sched = CyclicCosineLR(opt, cycle_len=5, min_lr=0.01)
        lrs = [sched.step() for _ in range(6)]
        # After the restart, LR jumps back near base.
        assert lrs[5] > lrs[4]
        assert lrs[5] == pytest.approx(1.0, abs=0.1)

    def test_cycle_mult_stretches(self):
        opt = self._opt()
        sched = CyclicCosineLR(opt, cycle_len=4, min_lr=0.01, cycle_mult=2.0)
        lrs = [sched.step() for _ in range(12)]
        # Second cycle is 8 steps: restart happens at step index 4.
        assert lrs[4] > lrs[3]
        restart2 = 4 + 8
        assert all(lrs[i] >= lrs[i + 1] - 1e-12 for i in range(4, restart2 - 1))

    def test_validation(self):
        opt = self._opt()
        with pytest.raises(ValueError):
            CyclicCosineLR(opt, cycle_len=0)
        with pytest.raises(ValueError):
            CyclicCosineLR(opt, min_lr=2.0)
        with pytest.raises(ValueError):
            CyclicCosineLR(opt, cycle_mult=0.5)


def _toy_sequence_data(n=80, t=12, d=3, seed=0):
    """Two classes distinguished by the mean level of channel 0."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(0, 0.3, size=(n, t, d)).astype(np.float32)
    X[:, :, 0] += y[:, None] * 2.0
    return X, y


class _MeanPoolClassifier(Module):
    def __init__(self, d=3, k=2):
        super().__init__()
        self.fc = Linear(d, k, rng=0)

    def forward(self, x):
        return log_softmax(self.fc(x.mean(axis=1)), axis=-1)


class TestTrainer:
    def test_trains_toy_problem(self):
        X, y = _toy_sequence_data()
        model = _MeanPoolClassifier()
        opt = Adam(model.parameters(), lr=0.05)
        trainer = Trainer(model, opt, NLLLoss(), batch_size=16, max_epochs=30,
                          patience=30)
        hist = trainer.fit(X[:60], y[:60], X[60:], y[60:])
        assert hist.best_val_accuracy > 0.9

    def test_early_stopping_triggers(self):
        X, y = _toy_sequence_data(seed=1)
        model = _MeanPoolClassifier()
        opt = Adam(model.parameters(), lr=0.05)
        trainer = Trainer(model, opt, NLLLoss(), batch_size=16,
                          max_epochs=500, patience=3)
        hist = trainer.fit(X[:60], y[:60], X[60:], y[60:])
        assert len(hist.epochs) < 500

    def test_best_weights_restored(self):
        X, y = _toy_sequence_data(seed=2)
        model = _MeanPoolClassifier()
        opt = Adam(model.parameters(), lr=0.05)
        trainer = Trainer(model, opt, NLLLoss(), batch_size=16, max_epochs=10,
                          patience=10)
        hist = trainer.fit(X[:60], y[:60], X[60:], y[60:])
        final_acc = trainer.evaluate_accuracy(X[60:], y[60:])
        assert final_acc == pytest.approx(hist.best_val_accuracy)

    def test_history_records_lr(self):
        X, y = _toy_sequence_data(seed=3)
        model = _MeanPoolClassifier()
        opt = Adam(model.parameters(), lr=0.05)
        sched = CyclicCosineLR(opt, cycle_len=4, min_lr=1e-4)
        trainer = Trainer(model, opt, NLLLoss(), scheduler=sched,
                          batch_size=16, max_epochs=6, patience=6)
        hist = trainer.fit(X[:60], y[:60], X[60:], y[60:])
        lrs = [e.lr for e in hist.epochs]
        assert lrs[0] == pytest.approx(0.05)
        assert min(lrs) < 0.05

    def test_predict_shapes(self):
        X, y = _toy_sequence_data(seed=4)
        model = _MeanPoolClassifier()
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), NLLLoss(),
                          max_epochs=1, batch_size=16)
        preds = predict_labels(trainer.model, X, trainer.batch_size)
        assert preds.shape == (len(y),)

    def test_invalid_params(self):
        model = _MeanPoolClassifier()
        opt = Adam(model.parameters(), lr=0.01)
        with pytest.raises(ValueError):
            Trainer(model, opt, NLLLoss(), batch_size=0)
