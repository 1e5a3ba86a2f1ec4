"""Tests for weight learning: gradients, SGD, warmstart, logistic model."""

import numpy as np
import pytest

from repro.graph import FactorGraph, Semantics
from repro.graph.compiled import CompiledFactorGraph
from repro.inference import ExactInference
from repro.learning import (
    LogisticRegression,
    SGDLearner,
    weight_gradient,
    weight_statistics,
)

from tests.reference import learning as reference


def labeled_bias_graph(p_true=0.8, n=40):
    """n evidence variables, p_true of them positive, one tied bias weight.

    The MLE bias satisfies sigmoid(2w) = p_true.
    """
    fg = FactorGraph()
    wid = fg.weights.intern("bias", initial=0.0)
    num_pos = int(round(p_true * n))
    for i in range(n):
        v = fg.add_variable(evidence=i < num_pos)
        fg.add_bias_factor(wid, v)
    return fg, wid


class TestWeightStatistics:
    def test_statistics_of_bias_graph(self):
        fg, wid = labeled_bias_graph(p_true=0.75, n=4)
        world = np.array([True, True, True, False])
        stats = weight_statistics(CompiledFactorGraph(fg), world)
        # Three +1 and one −1 unit energies on the tied weight.
        assert stats[wid] == pytest.approx(2.0)
        assert np.allclose(stats, reference.weight_statistics(fg, world))

    def test_statistics_average_over_worlds(self):
        fg, wid = labeled_bias_graph(p_true=0.5, n=2)
        worlds = np.array([[True, True], [False, False]])
        stats = weight_statistics(CompiledFactorGraph(fg), worlds)
        assert stats[wid] == pytest.approx(0.0)
        assert np.allclose(stats, reference.weight_statistics(fg, worlds))

    def test_gradient_zero_for_fixed_weights(self):
        fg = FactorGraph()
        wid = fg.weights.intern("hard", initial=3.0, fixed=True)
        v = fg.add_variable(evidence=True)
        fg.add_bias_factor(wid, v)
        grad = weight_gradient(
            CompiledFactorGraph(fg), np.array([[True]]), np.array([[False]])
        )
        assert grad[wid] == 0.0

    def test_gradient_direction(self):
        """If evidence is more positive than the model, gradient is +."""
        fg, wid = labeled_bias_graph(p_true=0.9, n=10)
        cond = np.tile(fg.initial_assignment(), (3, 1))
        free = np.zeros((3, 10), dtype=bool)  # model predicts all-false
        grad = weight_gradient(CompiledFactorGraph(fg), cond, free)
        assert grad[wid] > 0
        assert np.allclose(grad, reference.weight_gradient(fg, cond, free))


class TestSGDLearner:
    def test_learns_bias_mle(self):
        fg, wid = labeled_bias_graph(p_true=0.8, n=50)
        learner = SGDLearner(fg, step_size=0.3, seed=0, l2=0.0)
        learner.fit(60, record_loss=False)
        learned = fg.weights.value(wid)
        # MLE: sigmoid(2w) = 0.8 -> w = 0.5 * log(4) ~ 0.693
        assert learned == pytest.approx(0.693, abs=0.2)

    def test_loss_decreases(self):
        fg, _ = labeled_bias_graph(p_true=0.9, n=30)
        learner = SGDLearner(fg, step_size=0.3, seed=1, l2=0.0)
        history = learner.fit(40)
        early = np.mean(history.losses[:5])
        late = np.mean(history.losses[-5:])
        assert late < early

    def test_warmstart_keeps_weights_cold_resets(self):
        fg, wid = labeled_bias_graph()
        fg.weights.set_value(wid, 2.5)
        SGDLearner(fg.copy(), warmstart=True, seed=0)
        warm = fg.copy()
        SGDLearner(warm, warmstart=True, seed=0)
        assert warm.weights.value(wid) == 2.5
        cold = fg.copy()
        SGDLearner(cold, warmstart=False, seed=0)
        assert cold.weights.value(wid) == 0.0

    def test_warmstart_starts_at_lower_loss(self):
        """App. B.3: warmstart begins near the previous optimum."""
        fg, wid = labeled_bias_graph(p_true=0.8, n=50)
        # Pretrain.
        learner = SGDLearner(fg, step_size=0.3, seed=0, l2=0.0)
        learner.fit(50, record_loss=False)
        warm = SGDLearner(fg.copy(), warmstart=True, seed=1)
        cold = SGDLearner(fg.copy(), warmstart=False, seed=1)
        assert warm.evidence_pseudo_nll() < cold.evidence_pseudo_nll()

    def test_learned_model_calibrated(self):
        """After learning, the model marginal of a fresh variable with the
        tied weight matches the evidence frequency (calibration, §1)."""
        fg, wid = labeled_bias_graph(p_true=0.8, n=50)
        SGDLearner(fg, step_size=0.3, seed=0, l2=0.0).fit(60, record_loss=False)
        probe = FactorGraph(fg.weights.copy())
        v = probe.add_variable()
        probe.add_bias_factor(wid, v)
        assert ExactInference(probe).marginal(v) == pytest.approx(0.8, abs=0.07)


class TestLogisticRegression:
    @staticmethod
    def _separable(seed=0, n=300, d=20):
        rng = np.random.default_rng(seed)
        truth = rng.normal(size=d)
        rows = [rng.choice(d, size=5, replace=False).tolist() for _ in range(n)]
        labels = np.array([truth[r].sum() > 0 for r in rows])
        return rows, labels

    def test_fits_separable_data(self):
        rows, labels = self._separable()
        model = LogisticRegression(20, seed=0)
        model.fit_sgd(rows, labels, epochs=30, step_size=0.5)
        assert model.accuracy(rows, labels) > 0.9

    def test_loss_monotone_ish(self):
        rows, labels = self._separable(seed=1)
        model = LogisticRegression(20, seed=1)
        trace = model.fit_gd(rows, labels, epochs=30, step_size=1.0)
        assert trace.losses[-1] < trace.losses[0]

    def test_warmstart_resumes_cold_restarts(self):
        rows, labels = self._separable(seed=2)
        model = LogisticRegression(20, seed=2)
        model.fit_sgd(rows, labels, epochs=20)
        loss_after = model.loss(rows, labels)
        warm = model.fit_sgd(rows, labels, epochs=1, warmstart=True)
        assert warm.losses[0] <= loss_after + 0.05
        cold = model.fit_sgd(rows, labels, epochs=1, warmstart=False)
        assert cold.losses[0] >= warm.losses[0]

    def test_sgd_reaches_near_gd_optimum(self):
        rows, labels = self._separable(seed=3)
        gd_model = LogisticRegression(20, seed=3)
        gd_model.fit_gd(rows, labels, epochs=400, step_size=1.0)
        sgd_model = LogisticRegression(20, seed=3)
        sgd_model.fit_sgd(rows, labels, epochs=80, step_size=0.5)
        assert sgd_model.loss(rows, labels) <= gd_model.loss(rows, labels) * 1.5

    def test_trace_time_to_loss(self):
        rows, labels = self._separable(seed=4)
        model = LogisticRegression(20, seed=4)
        trace = model.fit_sgd(rows, labels, epochs=10)
        target = trace.losses[-1]
        assert trace.time_to_loss(target) is not None
        assert trace.time_to_loss(-1.0) is None

    def test_accepts_csr_input(self):
        import scipy.sparse as sp

        x = sp.csr_matrix(np.eye(4))
        y = np.array([1, 0, 1, 0])
        model = LogisticRegression(4, seed=0)
        model.fit_gd(x, y, epochs=50, step_size=2.0)
        assert model.accuracy(x, y) == 1.0

    def test_out_of_range_features_dropped(self):
        model = LogisticRegression(3, seed=0)
        proba = model.predict_proba([[0, 99]])
        assert proba.shape == (1,)

