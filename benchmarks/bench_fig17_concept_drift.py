"""Figure 17: warmstart under concept drift (App. B.4).

Spam stream with an abrupt drift at 10 % of the emails.  Incremental
materializes on the first 10 % and warmstarts on the first 30 %; Rerun
trains on the first 30 % from scratch.  Both evaluate on the remaining
70 %.

Both arms run DeepDive's own learner,
:class:`~repro.learning.sgd.SGDLearner`, over Ex. 2.6's graph: one
Boolean variable per email, clamped to its label, and one bias factor per
word on that word's tied weight (``Spam(e) :- HasWord(e, t) weight = w(t)``,
a logistic model).  Incremental patches the 10→30 % emails into its
materialized learner with ``CompiledFactorGraph.apply_delta`` +
``SGDLearner.apply_patch``; Rerun is a cold learner on a graph of the
first 30 %.  The test loss is the held-out 70 % as labelled variables
over the arm's weight store, scored by
:class:`~repro.learning.gradient.EvidenceScorer`: each held-out variable
depends only on its own factors, so its pseudo-NLL is its log-loss.

Expected shape: Incremental starts lower and reaches the target loss
sooner; both converge to the same loss.  The drift shrinks the warmstart
benefit to a head start of about one epoch: half of the materialized
spam vocabulary is wrong after the drift and must be unlearned.

Run: ``PYTHONPATH=src python benchmarks/bench_fig17_concept_drift.py
--check`` asserts that shape at fixed seeds and writes nothing;
``test_fig17_concept_drift`` (pytest) prints the loss curves as a table.
"""

import argparse

import numpy as np
from _helpers import emit, once

from repro.graph import FactorGraph, FactorGraphDelta
from repro.graph.compiled import CompiledFactorGraph, GibbsCache
from repro.kbc import SpamStream
from repro.learning import SGDLearner
from repro.learning.gradient import EvidenceScorer
from repro.util.tables import format_table

NUM_EMAILS = 3000
#: Fractions of the stream: the drift, Incremental's materialization,
#: and both arms' training set (the rest is held out).
DRIFT_POINT = 0.10
MATERIALIZED = 0.10
TRAINED = 0.30
#: At 0.1 Incremental reaches the target an epoch after Rerun; at
#: 0.2–0.3 the materialized weights overshoot, so Incremental starts
#: above Rerun, and Rerun's loss oscillates at 0.3.
STEP_SIZE = 0.05
MATERIALIZE_EPOCHS = 12
EPOCHS = 40
#: Held-out loss both arms pass early on (log 2 ≈ 0.693 at zero weights).
TARGET_LOSS = 0.60
#: Largest gap allowed between the two arms' losses after ``EPOCHS``.
FINAL_BAND = 0.02


def email_graph(stream: SpamStream, lo: int, hi: int, weights=None) -> FactorGraph:
    """Emails ``lo:hi`` as Ex. 2.6's graph; a fresh weight store (one
    tied weight per word, id = word) unless ``weights`` is shared."""
    graph = FactorGraph(weights)
    if weights is None:
        for word in range(stream.vocabulary_size):
            graph.weights.intern(("word", word), initial=0.0)
    for email in range(lo, hi):
        var = graph.add_variable(evidence=bool(stream.labels[email]))
        for word in stream.features[email]:
            graph.add_bias_factor(word, var)
    return graph


def email_delta(stream: SpamStream, graph: FactorGraph, lo: int, hi: int) -> FactorGraphDelta:
    """Emails ``lo:hi`` appended to ``graph`` as new labelled variables."""
    delta = FactorGraphDelta()
    delta.num_new_vars = hi - lo
    for j, email in enumerate(range(lo, hi)):
        delta.new_var_evidence[j] = bool(stream.labels[email])
        for word in stream.features[email]:
            delta.new_factors.add_bias(word, graph.num_vars + j)
    return delta


class HeldOutLoss:
    """Log-loss of emails ``lo:`` under a learner's live weight store."""

    def __init__(self, stream: SpamStream, lo: int, weights) -> None:
        graph = email_graph(stream, lo, len(stream.features), weights)
        compiled = CompiledFactorGraph(graph)
        self.state = np.zeros(graph.num_vars, dtype=bool)
        variables, values = graph.evidence_arrays()
        self.state[variables] = values
        self.cache = GibbsCache(compiled, self.state)
        self.scorer = EvidenceScorer(compiled, graph.evidence)

    def __call__(self) -> float:
        return self.scorer.nll(self.cache, self.state)


def held_out_curves(seed: int = 0) -> dict:
    """Held-out loss after 0..EPOCHS epochs, per arm."""
    stream = SpamStream(num_emails=NUM_EMAILS, drift_point=DRIFT_POINT, seed=seed)
    materialized, trained = int(MATERIALIZED * NUM_EMAILS), int(TRAINED * NUM_EMAILS)

    incremental = SGDLearner(
        email_graph(stream, 0, materialized), step_size=STEP_SIZE, seed=seed
    )
    incremental.fit(MATERIALIZE_EPOCHS, record_loss=False)
    delta = email_delta(stream, incremental.graph, materialized, trained)
    incremental.apply_patch(incremental.compiled.apply_delta(delta))

    rerun = SGDLearner(
        email_graph(stream, 0, trained),
        step_size=STEP_SIZE,
        warmstart=False,
        seed=seed + 1,
    )
    curves = {}
    for name, learner in (("Incremental", incremental), ("Rerun", rerun)):
        loss = HeldOutLoss(stream, trained, learner.graph.weights)
        curve = [loss()]
        for _ in range(EPOCHS):
            learner.epoch()
            curve.append(loss())
        curves[name] = curve
    return curves


def epochs_to(curve: list, target: float):
    """First epoch count at which ``curve`` is at or under ``target``."""
    return next((epoch for epoch, loss in enumerate(curve) if loss <= target), None)


def _experiment() -> str:
    curves = held_out_curves()
    rerun, incremental = curves["Rerun"], curves["Incremental"]
    rows = [
        [epoch, f"{rerun[epoch]:.4f}", f"{incremental[epoch]:.4f}"]
        for epoch in (0, 1, 2, 4, 8, 12, 20, EPOCHS)
    ]
    table = format_table(
        ["epochs trained", "Rerun test loss", "Incremental test loss"],
        rows,
        title="Concept drift, 10%->30% warmstart (paper Fig. 17)",
    )
    return table + (
        f"\nepochs to test loss {TARGET_LOSS} — rerun: "
        f"{epochs_to(rerun, TARGET_LOSS)}, incremental: "
        f"{epochs_to(incremental, TARGET_LOSS)}"
    )


def test_fig17_concept_drift(benchmark):
    emit("fig17_concept_drift", once(benchmark, _experiment))


def check() -> None:
    """Fig. 17's shape at seed 0: Incremental starts lower, reaches
    :data:`TARGET_LOSS` no later, and ends within :data:`FINAL_BAND` of
    Rerun."""
    curves = held_out_curves()
    rerun, incremental = curves["Rerun"], curves["Incremental"]
    assert incremental[0] < rerun[0], (
        f"Incremental starts at {incremental[0]:.4f}, Rerun at {rerun[0]:.4f}"
    )
    inc_epochs, rerun_epochs = epochs_to(incremental, TARGET_LOSS), epochs_to(rerun, TARGET_LOSS)
    assert inc_epochs is not None, f"Incremental never reached {TARGET_LOSS}"
    assert rerun_epochs is None or inc_epochs <= rerun_epochs, (
        f"Incremental reached {TARGET_LOSS} after {inc_epochs} epochs, "
        f"Rerun after {rerun_epochs}"
    )
    assert abs(incremental[-1] - rerun[-1]) <= FINAL_BAND, (
        f"final losses {incremental[-1]:.4f} (Incremental) and "
        f"{rerun[-1]:.4f} (Rerun) differ by more than {FINAL_BAND}"
    )
    print(
        f"concept-drift smoke ok: epoch 0 {incremental[0]:.4f} vs {rerun[0]:.4f}, "
        f"{TARGET_LOSS} after {inc_epochs} vs {rerun_epochs} epochs, "
        f"final {incremental[-1]:.4f} vs {rerun[-1]:.4f} (Incremental vs Rerun)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true", help="assert Fig. 17's shape; write nothing"
    )
    args = parser.parse_args()
    if args.check:
        check()
        return
    print(_experiment())


if __name__ == "__main__":
    main()
