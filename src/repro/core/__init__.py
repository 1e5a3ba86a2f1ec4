"""The paper's primary contribution: incremental inference (§3.2–3.3).

Materialization strategies (each stores information about the original
distribution ``Pr⁰`` and answers inference requests for updated
distributions ``Pr^∆``):

* :class:`~repro.core.strawman.StrawmanMaterialization` — complete
  materialization of every possible world (§3.2.1; feasible ≤ ~20 vars).
* :class:`~repro.core.sampling.SampleMaterialization` — tuple-bundle
  samples + independent Metropolis–Hastings (§3.2.2).
* :class:`~repro.core.variational.VariationalMaterialization` — sparse
  pairwise approximation via the log-determinant relaxation (§3.2.3,
  Algorithm 1).

Plus the machinery that chooses between them:

* :func:`~repro.core.optimizer.choose_strategy` — the rule-based
  optimizer (§3.3).
* :mod:`~repro.core.decomposition` — inactive-variable decomposition
  (Appendix B.1, Algorithm 2).
* :class:`~repro.core.engine.IncrementalEngine` /
  :class:`~repro.core.engine.RerunEngine` — the Incremental and Rerun
  systems compared throughout §4.
* :mod:`~repro.core.costmodel` — the analytic cost model of Figure 5.
"""

from repro.core.decomposition import VariableGroup, decompose, merge_groups
from repro.core.engine import (
    EngineConfig,
    IncrementalEngine,
    InferenceOutcome,
    ReadSnapshot,
    RerunEngine,
)
from repro.core.optimizer import OptimizerDecision, choose_strategy
from repro.core.sampling import SampleMaterialization
from repro.core.strawman import StrawmanMaterialization
from repro.core.variational import (
    VariationalApproximation,
    VariationalMaterialization,
    learn_approximation,
    solve_logdet_blocks,
)

__all__ = [
    "EngineConfig",
    "IncrementalEngine",
    "InferenceOutcome",
    "OptimizerDecision",
    "ReadSnapshot",
    "RerunEngine",
    "SampleMaterialization",
    "StrawmanMaterialization",
    "VariableGroup",
    "VariationalApproximation",
    "VariationalMaterialization",
    "choose_strategy",
    "decompose",
    "learn_approximation",
    "merge_groups",
    "solve_logdet_blocks",
]
