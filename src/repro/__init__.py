"""repro — a reproduction of *Incremental Knowledge Base Construction
Using DeepDive* (Shin et al., VLDB 2015).

The public API is organised by the paper's architecture:

* :mod:`repro.db` — in-memory relational store (the Postgres/Greenplum
  substitute) with DRed delta relations.
* :mod:`repro.datalog` — the DeepDive declarative language: inference
  rules with tied weights, UDF feature extractors, supervision rules.
* :mod:`repro.grounding` — grounding (rules → factor graph) and
  incremental grounding via delta rules.
* :mod:`repro.graph` — factor graphs, the three semantics, deltas.
* :mod:`repro.inference` — Gibbs sampling, exact oracle, independent MH.
* :mod:`repro.learning` — weight learning (SGD ± warmstart).
* :mod:`repro.core` — the paper's contribution: incremental inference via
  strawman / sampling / variational materialization, the rule-based
  optimizer, and inactive-variable decomposition.
* :mod:`repro.kbc` — the end-to-end KBC pipeline (candidates, features,
  distant supervision, error analysis).
* :mod:`repro.workloads` — the five evaluation systems plus the voting
  and synthetic tradeoff workloads.

scipy and asyncio are imported inside the functions that use them
(scipy: exact enumeration and the chromatic sampler; asyncio: the TCP
front end): grounding, the engines and :class:`~repro.service.KBService`
never call them, and together they double the package's resident size.
"""

# On numpy 2.x, ``np.unique`` imports ``numpy.ma`` on its first call
# (``np.ma.is_masked`` in ``_unique1d``).  Loading it with the package
# keeps that one-time import out of whatever first calls ``np.unique`` —
# a timed grounding step or a service update.
import numpy.ma  # noqa: F401

from repro.graph import (
    BiasFactor,
    CompiledFactorGraph,
    FactorGraph,
    FactorGraphDelta,
    IsingFactor,
    RuleFactor,
    Semantics,
    WeightStore,
)
from repro.inference import (
    ChromaticGibbsSampler,
    ExactInference,
    GibbsSampler,
    IndependentMH,
)

__version__ = "1.0.0"

__all__ = [
    "BiasFactor",
    "ChromaticGibbsSampler",
    "CompiledFactorGraph",
    "ExactInference",
    "FactorGraph",
    "FactorGraphDelta",
    "GibbsSampler",
    "IndependentMH",
    "IsingFactor",
    "RuleFactor",
    "Semantics",
    "WeightStore",
]
