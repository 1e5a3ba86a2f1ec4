"""Logistic regression over sparse binary features.

``Class(x) :- R(x, f) with weight = w(f)`` declares exactly this model
(paper Ex. 2.6): each object's log-odds is the sum of its features' tied
weights.  The incremental-learning study (App. B.3, Fig. 16) and the
concept-drift study (App. B.4, Fig. 17) compare training strategies —
SGD with/without warmstart and full gradient descent — on this model, so
the trainer records a per-epoch (time, loss) trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import as_generator


@dataclass
class TrainingTrace:
    """Per-epoch (seconds, loss) pairs for one training run."""

    strategy: str
    times: list = field(default_factory=list)
    losses: list = field(default_factory=list)

    def record(self, elapsed: float, loss: float) -> None:
        self.times.append(elapsed)
        self.losses.append(loss)

    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("inf")

    def time_to_loss(self, target: float):
        """First recorded time at which loss ≤ target, or ``None``."""
        for t, loss in zip(self.times, self.losses):
            if loss <= target:
                return t
        return None


def _as_csr(features, num_features: int):
    """Accept a CSR matrix or a list of feature-index lists."""
    import scipy.sparse as sp  # on first use: see the package docstring

    if sp.issparse(features):
        return features.tocsr()
    rows, cols = [], []
    for r, feats in enumerate(features):
        for f in feats:
            if 0 <= f < num_features:
                rows.append(r)
                cols.append(f)
    data = np.ones(len(rows))
    return sp.csr_matrix(
        (data, (rows, cols)), shape=(len(features), num_features)
    )


class LogisticRegression:
    """Binary logistic regression with L2 regularization.

    Labels are {0, 1}.  The model keeps its weights between ``fit`` calls,
    which is what makes *warmstart* the default behaviour; pass
    ``warmstart=False`` to a fit method to re-initialise at zero first.
    """

    def __init__(self, num_features: int, l2: float = 1e-4, seed=None) -> None:
        self.num_features = num_features
        self.l2 = l2
        self.weights = np.zeros(num_features)
        self.bias = 0.0
        self.rng = as_generator(seed)

    # ------------------------------------------------------------------ #

    def decision_function(self, features) -> np.ndarray:
        x = _as_csr(features, self.num_features)
        return x @ self.weights + self.bias

    def predict_proba(self, features) -> np.ndarray:
        z = self.decision_function(features)
        return 1.0 / (1.0 + np.exp(-z))

    def predict(self, features, threshold: float = 0.5) -> np.ndarray:
        return self.predict_proba(features) >= threshold

    def loss(self, features, labels) -> float:
        """Mean logistic loss (without the L2 term, as plotted in Fig. 16)."""
        z = self.decision_function(features)
        y = np.asarray(labels, dtype=float)
        margins = np.where(y > 0.5, z, -z)
        return float(np.logaddexp(0.0, -margins).mean())

    def accuracy(self, features, labels) -> float:
        predictions = self.predict(features)
        return float((predictions == np.asarray(labels, dtype=bool)).mean())

    # ------------------------------------------------------------------ #

    def _reset(self) -> None:
        self.weights = np.zeros(self.num_features)
        self.bias = 0.0

    def fit_sgd(
        self,
        features,
        labels,
        epochs: int = 20,
        step_size: float = 0.1,
        batch_size: int = 32,
        warmstart: bool = True,
        eval_features=None,
        eval_labels=None,
        strategy_name=None,
        record_initial: bool = False,
    ) -> TrainingTrace:
        """Mini-batch SGD; returns a per-epoch trace.

        The trace's loss is evaluated on ``eval_*`` when given (test loss,
        as in Fig. 17), otherwise on the training data.
        ``record_initial`` adds a time-0 point before any training — the
        warmstart advantage is visible there.
        """
        if not warmstart:
            self._reset()
        x = _as_csr(features, self.num_features)
        y = np.asarray(labels, dtype=float)
        n = x.shape[0]
        trace = TrainingTrace(strategy_name or ("sgd+warm" if warmstart else "sgd-cold"))
        ex, ey = (eval_features, eval_labels) if eval_features is not None else (x, y)
        start = time.perf_counter()
        if record_initial:
            trace.record(0.0, self.loss(ex, ey))
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                xb = x[idx]
                z = xb @ self.weights + self.bias
                p = 1.0 / (1.0 + np.exp(-z))
                err = p - y[idx]
                grad_w = xb.T @ err / len(idx) + self.l2 * self.weights
                grad_b = float(err.mean())
                self.weights -= step_size * grad_w
                self.bias -= step_size * grad_b
            trace.record(time.perf_counter() - start, self.loss(ex, ey))
        return trace

    def fit_gd(
        self,
        features,
        labels,
        epochs: int = 20,
        step_size: float = 0.5,
        warmstart: bool = True,
        eval_features=None,
        eval_labels=None,
        strategy_name=None,
    ) -> TrainingTrace:
        """Full-batch gradient descent (the "Gradient Descent + Warmstart"
        baseline of Fig. 16)."""
        if not warmstart:
            self._reset()
        x = _as_csr(features, self.num_features)
        y = np.asarray(labels, dtype=float)
        n = x.shape[0]
        trace = TrainingTrace(strategy_name or ("gd+warm" if warmstart else "gd-cold"))
        ex, ey = (eval_features, eval_labels) if eval_features is not None else (x, y)
        start = time.perf_counter()
        for _ in range(epochs):
            z = x @ self.weights + self.bias
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            grad_w = x.T @ err / n + self.l2 * self.weights
            grad_b = float(err.mean())
            self.weights -= step_size * grad_w
            self.bias -= step_size * grad_b
            trace.record(time.perf_counter() - start, self.loss(ex, ey))
        return trace
