"""Weight learning (paper §2.4 "learning", App. B.3 incremental learning).

During learning DeepDive finds weights maximising the probability of the
evidence.  Two entry points:

* :class:`~repro.learning.sgd.SGDLearner` — generic factor-graph weight
  learning by stochastic gradient with persistent Gibbs chains
  (contrastive-divergence style, as in Tuffy/DeepDive), supporting
  *warmstart* from a previous model.
* :class:`~repro.learning.logistic.LogisticRegression` — the special case
  a classification rule ``Class(x) :- R(x, f) weight = w(f)`` declares
  (Ex. 2.6); used by the incremental-learning and concept-drift
  experiments (Figs. 16–17).
"""

from repro.learning.gradient import weight_gradient, weight_statistics
from repro.learning.logistic import LogisticRegression, TrainingTrace
from repro.learning.sgd import LearningHistory, SGDLearner

__all__ = [
    "LearningHistory",
    "LogisticRegression",
    "SGDLearner",
    "TrainingTrace",
    "weight_gradient",
    "weight_statistics",
]
