"""Statistical inference over factor graphs.

* :class:`~repro.inference.exact.ExactInference` — brute-force enumeration
  (the test oracle, and the engine behind strawman materialization).
* :class:`~repro.inference.gibbs.GibbsSampler` — sequential-scan Gibbs
  sampling, DeepDive's workhorse (§2.5).
* :class:`~repro.inference.chromatic.ChromaticGibbsSampler` — vectorised
  Gibbs for pairwise (Ising/bias) graphs via graph colouring.
* :class:`~repro.inference.metropolis.IndependentMH` — the sampling
  approach's inference phase (§3.2.2): materialized samples as proposals.
* :mod:`~repro.inference.parallel` — parallel chain ensembles over
  shared-memory compiled arrays (:class:`ParallelChainEnsemble`).
"""

from repro.inference.chromatic import ChromaticGibbsSampler
from repro.inference.exact import ExactInference
from repro.inference.gibbs import GibbsSampler
from repro.inference.metropolis import IndependentMH, MHResult
from repro.inference.parallel import ParallelChainEnsemble

__all__ = [
    "ChromaticGibbsSampler",
    "ExactInference",
    "GibbsSampler",
    "IndependentMH",
    "MHResult",
    "ParallelChainEnsemble",
]
