"""The rule-based materialization optimizer (§3.3).

DeepDive materializes **both** the sampling and variational strategies
and defers the choice to the inference phase, when the workload (the
delta) is visible.  The paper's rules, in order:

1. update does not change the structure of the graph → **sampling**
   (the distribution is unchanged or nearly so: 100% acceptance);
2. update modifies the evidence → **variational** (new labels crater the
   MH acceptance rate);
3. update introduces new features → **sampling**;
4. out of materialized samples → **variational**.

Rule 2 is checked before rule 1: a supervision update changes evidence
without changing structure, and the paper's lesion study (Fig. 11) shows
supervision rules must go to the variational branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.delta import FactorGraphDelta

SAMPLING = "sampling"
VARIATIONAL = "variational"


@dataclass(frozen=True)
class OptimizerDecision:
    strategy: str
    rule: int
    reason: str


def choose_strategy(delta: FactorGraphDelta, samples_remaining: int) -> OptimizerDecision:
    """Pick the inference strategy for one update."""
    if samples_remaining <= 0:
        return OptimizerDecision(
            VARIATIONAL, 4, "materialized samples exhausted"
        )
    if delta.changes_evidence or delta.new_var_evidence:
        return OptimizerDecision(
            VARIATIONAL, 2, "update modifies the evidence"
        )
    if not delta.changes_structure:
        return OptimizerDecision(
            SAMPLING, 1, "graph structure unchanged (acceptance ≈ 100%)"
        )
    if delta.adds_features:
        return OptimizerDecision(SAMPLING, 3, "update introduces new features")
    # Structural change without new features (e.g. a fixed-weight
    # inference rule): default to sampling, fall back on exhaustion.
    return OptimizerDecision(SAMPLING, 3, "structural update; sampling by default")
