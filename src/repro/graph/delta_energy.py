"""Evaluate ``δW`` — the energy difference induced by a delta.

The key observation behind the sampling approach (§3.2.2): for an
independent Metropolis–Hastings chain whose proposal distribution is the
*original* ``Pr⁰`` and whose target is the *updated* ``Pr^∆``, the
acceptance ratio is ``exp(δW(proposal) − δW(current))`` where ``δW``
touches only the changed factors ∆F — never the full original graph.

:class:`DeltaEvaluator` computes ``δW`` plus the hard evidence constraints
the delta introduces (new or flipped labels make worlds that contradict
them have zero updated probability).

``δW(x) = Σ_t c_t · U_t(x)`` over three kinds of term: a new factor
(``c = w_new``), a removed base factor (``c = −w_old``) and a surviving
factor whose weight moved (``c = w_new − w_old``); ``U`` is the factor's
unit energy.  The terms are one :class:`~repro.graph.delta.FactorTable`
— the delta's own table as it is, with the removed and reweighted base
factors (``base.factor_table``: gathered from the arrays when the base
is a compiled view) laid behind it — plus one float64 coefficient per
term, looked up by weight id, and the evidence constraints as
``ev_vars/ev_vals``; every variable and weight id is range-checked on
the way, and an error names the offending row.  Worlds are scored in
batches — :meth:`DeltaEvaluator.delta_energies`,
:meth:`~DeltaEvaluator.violations`, :meth:`~DeltaEvaluator.extend_worlds`
over an ``(S, n)`` world matrix — by the package's one energy scorer,
:meth:`~repro.graph.delta.FactorTable.energies`:
:class:`~repro.inference.metropolis.IndependentMH` scores all its
proposals in one call, the strawman the two candidate worlds of each
flip.
"""

from __future__ import annotations

import numpy as np

from repro.graph.delta import FactorGraphDelta, FactorTable
from repro.graph.factor_graph import FactorGraph


def _describe(table: FactorTable, f: int) -> str:
    """Factor ``f`` of ``table``, named for an error message (a rule's
    groundings can run to thousands of literals — count them instead)."""
    row = table.take([f])
    if row.num_rules:
        return (
            f"term {f}, a rule factor (weight id {row.rule_wid[0]}, head "
            f"{row.rule_head[0]}, {row.grounding_ri.size} groundings),"
        )
    if row.ising_i.size:
        return (
            f"term {f}, an Ising factor (weight id {row.ising_wid[0]}, "
            f"variables {row.ising_i[0]} and {row.ising_j[0]}),"
        )
    return (
        f"term {f}, a bias factor (weight id {row.bias_wid[0]}, "
        f"variable {row.bias_var[0]}),"
    )


def _check_range(table, ids, owners, limit, what) -> None:
    """``ValueError`` naming the first factor of ``table``, in list order,
    with an id outside ``[0, limit)`` — ``ids[k]`` belongs to factor
    ``owners()[k]`` — and its smallest such id."""
    bad = (ids < 0) | (ids >= limit)
    if bad.any():
        ids, owner = ids[bad], owners()[bad]
        first = np.lexsort((ids, owner))[0]
        raise ValueError(
            f"{_describe(table, int(owner[first]))} references {what} id "
            f"{int(ids[first])}, outside [0, {limit})"
        )


class DeltaEvaluator:
    """Pre-indexed evaluator of ``δW(x)`` for worlds over the updated graph.

    Worlds are boolean vectors of length ``base.num_vars + num_new_vars``
    (old variables first, new variables appended).  A delta that names a
    variable, weight or base factor outside the updated graph raises
    ``ValueError`` here, not on the first world that reaches the term.
    """

    def __init__(self, base: FactorGraph, delta: FactorGraphDelta) -> None:
        self.base = base
        self.delta = delta
        self.num_base_vars = base.num_vars
        self.total_vars = base.num_vars + delta.num_new_vars

        # Snapshot weight values: removed factors are scored with the
        # weights in force at materialization time; new factors with the
        # updated weights.
        self.old_weights = base.weights.copy()
        self.new_weights = base.weights.copy()
        for key, initial, fixed in delta.new_weight_entries:
            self.new_weights.intern(key, initial=initial, fixed=fixed)
        for wid, value in delta.changed_weight_values.items():
            self.new_weights.set_value(wid, value)

        new = delta.new_factors.table
        new_wids = new.weight_ids()
        _check_range(
            new, new_wids, lambda: np.arange(len(new)), len(self.new_weights), "weight"
        )
        # Removed factors leave with the weights in force at
        # materialization time; factors that survive but whose weight
        # value changed shift by (w_new − w_old) times their unit energy.
        removed, reweighted, shift = delta.base_terms(base)

        # Hard constraints: evidence set/flipped on old variables plus
        # clamped new variables.  (Cleared evidence relaxes a constraint;
        # it adds no term here.)
        self.evidence_constraints = {
            var: val
            for var, val in delta.evidence_updates.items()
            if val is not None
        }
        for offset, val in delta.new_var_evidence.items():
            if not 0 <= offset < delta.num_new_vars:
                raise ValueError(
                    f"new-variable evidence at offset {offset}, outside "
                    f"[0, {delta.num_new_vars})"
                )
            self.evidence_constraints[base.num_vars + offset] = bool(val)
        for var in self.evidence_constraints:
            if not 0 <= var < self.total_vars:
                raise ValueError(
                    f"evidence on variable id {var}, outside "
                    f"[0, {self.total_vars})"
                )

        # ---- the terms, as one table and a coefficient per row ------------
        self.terms = terms = FactorTable.concat([new, removed, reweighted])
        self.coef = np.concatenate(
            [
                self.new_weights.values_array()[new_wids],
                -self.old_weights.values_array()[removed.weight_ids()],
                shift[reweighted.weight_ids()],
            ]
        )
        _check_range(
            terms, terms.variables(), terms.variable_owners, self.total_vars, "variable"
        )

        self.ev_vars = np.fromiter(self.evidence_constraints, dtype=np.int64)
        self.ev_vals = np.fromiter(self.evidence_constraints.values(), dtype=bool)
        self._clamp_vars = self.num_base_vars + np.fromiter(
            delta.new_var_evidence, dtype=np.int64
        )
        self._clamp_vals = np.fromiter(delta.new_var_evidence.values(), dtype=bool)

    def _as_worlds(self, worlds) -> np.ndarray:
        worlds = np.asarray(worlds, dtype=bool)
        if worlds.ndim != 2 or worlds.shape[1] != self.total_vars:
            raise ValueError(
                f"worlds must be (S, {self.total_vars}); got {worlds.shape}"
            )
        return worlds

    def delta_energies(self, worlds) -> np.ndarray:
        """``W^∆(x) − W⁰(x)``, ignoring hard evidence constraints, of
        every row ``x`` of the ``(S, total_vars)`` matrix ``worlds``, as
        an ``(S,)`` float64 vector."""
        return self.terms.energies(self._as_worlds(worlds), self.coef)

    def violations(self, worlds) -> np.ndarray:
        """Per row of ``worlds``, ``(S,)`` bool: whether it contradicts
        any evidence the delta introduced."""
        worlds = self._as_worlds(worlds)
        return (worlds[:, self.ev_vars] != self.ev_vals).any(axis=1)

    def extend_worlds(self, base_worlds, rng) -> np.ndarray:
        """Extend worlds over the base variables to the updated graph.

        A row of ``base_worlds`` may already cover some of the new
        variables (a bundle patched by
        ``SampleMaterialization.extend_bundle`` stores its uniform
        extension draws eagerly); only the remaining columns are drawn,
        in one ``rng.random((S, k))`` call, which consumes the generator
        exactly as ``S`` successive ``rng.random(k)`` calls would (none
        when ``k = 0``).  New free variables are uniform (this proposal
        factor is constant and cancels in the MH ratio); clamped new
        variables take their evidence values regardless of how they were
        drawn — the proposal for them is a point mass either way."""
        base_worlds = np.asarray(base_worlds, dtype=bool)
        count, have = base_worlds.shape
        if have > self.total_vars:
            raise ValueError(
                f"stored worlds have {have} vars, updated graph {self.total_vars}"
            )
        worlds = np.empty((count, self.total_vars), dtype=bool)
        worlds[:, :have] = base_worlds
        if self.total_vars > have:
            worlds[:, have:] = rng.random((count, self.total_vars - have)) < 0.5
        worlds[:, self._clamp_vars] = self._clamp_vals
        return worlds
