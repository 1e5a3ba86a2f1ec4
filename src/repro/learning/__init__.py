"""Weight learning (paper §2.4 "learning", App. B.3 incremental learning).

During learning DeepDive finds weights maximising the probability of the
evidence.  One learner does it:
:class:`~repro.learning.sgd.SGDLearner` — generic factor-graph weight
learning by stochastic gradient with persistent Gibbs chains
(contrastive-divergence style, as in Tuffy/DeepDive), supporting
*warmstart* from a previous model.  A classification rule
``Class(x) :- R(x, f) weight = w(f)`` (Ex. 2.6) grounds a logistic model,
so the incremental-learning and concept-drift experiments (Figs. 16–17)
run on it too.
"""

from repro.learning.gradient import weight_gradient, weight_statistics
from repro.learning.sgd import LearningHistory, SGDLearner

__all__ = [
    "LearningHistory",
    "SGDLearner",
    "weight_gradient",
    "weight_statistics",
]
