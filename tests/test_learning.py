"""Tests for weight learning: gradients, SGD, warmstart, Ex. 2.6's logistic model."""

import numpy as np
import pytest

from repro.graph import FactorGraph, FactorGraphDelta, Semantics
from repro.graph.compiled import CompiledFactorGraph
from repro.inference import ExactInference
from repro.learning import SGDLearner, weight_gradient, weight_statistics

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


def separable_rows(seed=0, n=300, d=20):
    """``n`` examples of 5 of ``d`` features, labelled by a random linear
    rule (so the data are linearly separable)."""
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=d)
    rows = [rng.choice(d, size=5, replace=False).tolist() for _ in range(n)]
    labels = np.array([truth[r].sum() > 0 for r in rows])
    return rows, labels


def logistic_graph(rows, labels, d=20):
    """Ex. 2.6's graph (``Class(x) :- R(x, f) weight = w(f)``): one labelled
    variable per example, one bias factor per feature on that feature's
    tied weight (id = feature)."""
    fg = FactorGraph()
    for feature in range(d):
        fg.weights.intern(("feature", feature), initial=0.0)
    for row, label in zip(rows, labels):
        v = fg.add_variable(evidence=bool(label))
        for feature in row:
            fg.add_bias_factor(feature, v)
    return fg


def log_loss(weights, rows, labels):
    """Mean logistic log-loss; a bias factor's unit energy is ±1, so the
    logit of an example is twice the sum of its features' weights."""
    logits = 2.0 * np.array([weights[row].sum() for row in rows])
    p = 1.0 / (1.0 + np.exp(-logits))
    return float(-np.log(np.where(labels, p, 1.0 - p)).mean())


class TestLogisticRegression:
    """Ex. 2.6's rule declares a logistic-regression model, and
    ``SGDLearner`` trains it: the behaviour Figs. 16–17 measure."""

    def test_fits_separable_data(self):
        rows, labels = separable_rows()
        fg = logistic_graph(rows, labels)
        SGDLearner(fg, step_size=0.2, seed=0).fit(30, record_loss=False)
        weights = fg.weights.values_array()
        predicted = np.array([weights[row].sum() > 0 for row in rows])
        assert np.mean(predicted == labels) > 0.9

    def test_pseudo_nll_is_the_log_loss(self):
        """Each example depends only on its own factors, so its pseudo-NLL
        is its log-loss (Fig. 17 scores held-out emails this way)."""
        rows, labels = separable_rows(seed=5)
        fg = logistic_graph(rows, labels)
        fg.weights.set_values_array(np.random.default_rng(5).normal(scale=0.5, size=20))
        learner = SGDLearner(fg, seed=0)
        expected = log_loss(fg.weights.values_array(), rows, labels)
        assert learner.evidence_pseudo_nll() == pytest.approx(expected, abs=1e-12)

    def test_loss_monotone_ish(self):
        """GD+Warmstart's arm (a full-batch-like gradient from many worlds
        per epoch) lowers the loss."""
        rows, labels = separable_rows(seed=1)
        history = SGDLearner(
            logistic_graph(rows, labels), step_size=0.2, samples_per_epoch=50, seed=1
        ).fit(30)
        assert history.losses[-1] < 0.5 * history.losses[0]

    def test_sgd_reaches_near_gd_optimum(self):
        """One world per epoch ends near the many-worlds arm's loss."""
        rows, labels = separable_rows(seed=3)
        many = logistic_graph(rows, labels)
        SGDLearner(many, step_size=0.2, samples_per_epoch=50, seed=3).fit(
            30, record_loss=False
        )
        one = logistic_graph(rows, labels)
        SGDLearner(one, step_size=0.2, samples_per_epoch=1, seed=3).fit(
            60, record_loss=False
        )
        many_loss = log_loss(many.weights.values_array(), rows, labels)
        assert log_loss(one.weights.values_array(), rows, labels) <= 1.5 * many_loss

    def test_warmstart_resumes_cold_restarts(self):
        rows, labels = separable_rows(seed=2)
        fg = logistic_graph(rows, labels)
        trained = SGDLearner(fg, step_size=0.2, seed=2).fit(20).losses[-1]
        warm = SGDLearner(fg.copy(), warmstart=True, seed=3)
        cold = SGDLearner(fg.copy(), warmstart=False, seed=3)
        assert warm.evidence_pseudo_nll() == pytest.approx(trained, abs=1e-12)
        assert cold.evidence_pseudo_nll() == pytest.approx(np.log(2.0))
        assert cold.evidence_pseudo_nll() > warm.evidence_pseudo_nll()

    def test_patched_examples_score_as_a_fresh_learner(self):
        """Fig. 17's Incremental arm: examples patched into a materialized
        learner score exactly as in a learner compiled from scratch over
        the same weights, and start below a cold learner."""
        rows, labels = separable_rows(seed=6)
        learner = SGDLearner(logistic_graph(rows[:60], labels[:60]), step_size=0.2, seed=0)
        learner.fit(20, record_loss=False)
        delta = FactorGraphDelta()
        delta.num_new_vars = 140
        for j in range(140):
            delta.new_var_evidence[j] = bool(labels[60 + j])
            for feature in rows[60 + j]:
                delta.new_factors.add_bias(feature, learner.graph.num_vars + j)
        learner.apply_patch(learner.compiled.apply_delta(delta))
        assert learner.graph.num_vars == 200

        fresh_graph = logistic_graph(rows[:200], labels[:200])
        fresh_graph.weights.set_values_array(learner.graph.weights.values_array())
        fresh = SGDLearner(fresh_graph, seed=0)
        assert learner.evidence_pseudo_nll() == pytest.approx(
            fresh.evidence_pseudo_nll(), abs=1e-12
        )
        cold = SGDLearner(logistic_graph(rows[:200], labels[:200]), warmstart=False, seed=0)
        assert learner.evidence_pseudo_nll() < cold.evidence_pseudo_nll()
