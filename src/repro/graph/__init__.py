"""Factor-graph substrate: variables, factors, semantics, compiled views.

A DeepDive program grounds into a factor graph ``(V, F, w)`` (paper §2.5).
This package provides:

* :class:`~repro.graph.factor_graph.FactorGraph` — the mutable graph model
  with Boolean variables, evidence, a tied :class:`WeightStore`, and one
  factor table holding three factor kinds (rule, Ising, bias);
  :class:`RuleFactor` / :class:`IsingFactor` / :class:`BiasFactor` are
  the read-only records a table row decodes into.
* :mod:`~repro.graph.semantics` — the ``g`` functions of Figure 4
  (linear / ratio / logical).
* :class:`~repro.graph.delta.FactorGraphDelta` — the ``(∆V, ∆F)`` object
  produced by incremental grounding and consumed by incremental inference;
  its ``∆F`` is a factor table too.
* :class:`~repro.graph.compiled.CompiledFactorGraph` — an immutable
  incidence-indexed view used by the samplers.
"""

from repro.graph.delta import FactorGraphDelta
from repro.graph.factor_graph import (
    BiasFactor,
    FactorGraph,
    IsingFactor,
    RuleFactor,
    WeightStore,
)
from repro.graph.compiled import CompiledFactorGraph
from repro.graph.semantics import Semantics, g_value

__all__ = [
    "BiasFactor",
    "CompiledFactorGraph",
    "FactorGraph",
    "FactorGraphDelta",
    "IsingFactor",
    "RuleFactor",
    "Semantics",
    "WeightStore",
    "g_value",
]
