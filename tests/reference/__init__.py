"""Reference implementations: slow, obviously right, and outside ``src``.

Nothing under ``src/`` imports this package; tests and the non-e2e
``benchmarks/bench_*.py`` baselines do.  One oracle per contract:

* :mod:`~tests.reference.grounding` — ``reference_ground(program, db)``,
  from-scratch tuple-at-a-time grounding, ``replay`` to bring a fresh
  ``(program, db)`` to the state a sequence of updates leads to, and
  ``fold_ground``, the full ground through factor records and
  ``RuleFactor`` records whose lowering the column-building ground must
  equal;
* :mod:`~tests.reference.factors` — factor records as the oracle:
  ``lower_factors``, ``add_factor``, the record-by-record energy
  (``graph_energy``) the table scorer must equal, and the record walk of
  ``group_subgraph``;
* :mod:`~tests.reference.delta_energy` — ``OneWorldEvaluator``, ``δW``
  of one world by a walk over the delta's terms as records;
* :mod:`~tests.reference.exact` — ``reference_enumeration``, exact
  inference's worlds scored one at a time through the record energy;
* :mod:`~tests.reference.variational` — Algorithm 1's ``NZ`` set from a
  walk over factor records and its couplings from the ``n²/2`` pair loop;
* :mod:`~tests.reference.query` — the backtracking join it runs on
  (``evaluate_query`` / ``binding_counts``);
* :mod:`~tests.reference.columnar` — ``columnar_binding_counts``, the
  same counts through a compiled plan;
* :mod:`~tests.reference.learning` — the per-factor gradient loop and the
  cache-per-call pseudo-NLL;
* :mod:`~tests.reference.metropolis` — ``reference_mh_run``, independent
  MH one proposal at a time;
* :mod:`~tests.reference.compiled` — ``ReferenceCompiledFactorGraph``,
  the substrate with the record-walking compile, the per-factor patch,
  patch-then-compact, and the per-variable lists and neighbour multiset
  it keeps factor by factor;
* :mod:`~tests.reference.gibbs` — the sweep kernel that computes ``g``
  (``g_coded`` / ``g_code_array``) in every block evaluation and draws
  its uniforms sweep by sweep, and the per-variable scalar kernel
  (``delta_energy`` / ``commit_flip`` over ``IncidenceLists``).
"""

from tests.reference.grounding import reference_ground, replay
from tests.reference.query import binding_counts, evaluate_query

__all__ = ["binding_counts", "evaluate_query", "reference_ground", "replay"]
