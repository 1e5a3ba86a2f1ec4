"""Grounding: evaluating a DeepDive program into a factor graph (§2.5),
and maintaining the result incrementally under data/program changes (§3.1).

* :class:`~repro.grounding.grounder.Grounder` — full (from-scratch)
  grounding: derivation rules populate relations, every visible tuple of
  a variable relation becomes a Boolean random variable, inference rules
  ground factors grouped by ``(head, weight key)``.
* :class:`~repro.grounding.incremental.IncrementalGrounder` — maintains
  the grounding under base-table updates and rule additions/removals via
  the counting (DRed-style) algorithm, emitting
  :class:`~repro.graph.delta.FactorGraphDelta` objects for incremental
  inference.
"""

from repro.grounding.grounder import Grounder, GroundingResult
from repro.grounding.incremental import IncrementalGrounder, UpdateResult

__all__ = [
    "Grounder",
    "GroundingResult",
    "IncrementalGrounder",
    "UpdateResult",
]
