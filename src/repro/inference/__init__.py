"""Statistical inference over factor graphs.

* :class:`~repro.inference.exact.ExactInference` — brute-force enumeration
  (the test oracle, and the engine behind strawman materialization).
* :class:`~repro.inference.gibbs.GibbsSampler` — sequential-scan Gibbs
  sampling, DeepDive's workhorse (§2.5); K chains over one compilation
  advance together as a :class:`~repro.inference.gibbs.ChainStack`.
* :class:`~repro.inference.chromatic.ChromaticGibbsSampler` — vectorised
  Gibbs for pairwise (Ising/bias) graphs via graph colouring.
* :class:`~repro.inference.metropolis.IndependentMH` — the sampling
  approach's inference phase (§3.2.2): materialized samples as proposals.

Every chain runs in the process that owns it.
"""

from repro.inference.chromatic import ChromaticGibbsSampler
from repro.inference.exact import ExactInference
from repro.inference.gibbs import GibbsSampler
from repro.inference.metropolis import IndependentMH, MHResult

__all__ = [
    "ChromaticGibbsSampler",
    "ExactInference",
    "GibbsSampler",
    "IndependentMH",
    "MHResult",
]
