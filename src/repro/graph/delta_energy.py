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
is a compiled view, lowered once when it is a plain graph) laid behind
it — plus one float64 coefficient per term, looked up by weight id, and
the evidence constraints as ``ev_vars/ev_vals``; every variable and
weight id is range-checked on the way.  Two ways to score follow from
that:

* whole batches — :meth:`DeltaEvaluator.delta_energies`,
  :meth:`~DeltaEvaluator.violations`,
  :meth:`~DeltaEvaluator.extend_worlds` over an ``(S, n)`` world matrix,
  a few array operations per term kind (the rule block is
  :func:`~repro.graph.compiled.rule_unit_energies`, shared with the
  learning gradient).  :class:`~repro.inference.metropolis.IndependentMH`
  scores all its proposals this way;
* one world — :meth:`~DeltaEvaluator.delta_energy`,
  :meth:`~DeltaEvaluator.violates_evidence`,
  :meth:`~DeltaEvaluator.extend_world`, a walk over the factor objects.
  The strawman's lookup-Gibbs scores one small world between dependent
  flips with it, and it is the oracle the batch kernel is tested against.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.graph.compiled import rule_unit_energies
from repro.graph.delta import FactorGraphDelta, FactorTable
from repro.graph.factor_graph import FactorGraph, RuleFactor

#: Cells (rows × widest per-world temporary) one scoring chunk may span.
#: The rule block holds ``(rows, literals)`` gather, mismatch, int64
#: index and float64 weight temporaries at once — 18 bytes a cell, so
#: 2¹⁸ cells keep a chunk near 5 MB however many proposals a run scores
#: (a Fig. 9-scale Δ × 300 steps in one piece would take hundreds of MB).
_SCORE_CELLS = 1 << 18


def _describe(factor) -> str:
    """A factor's name for an error message (a rule's groundings can run
    to thousands of literals — count them instead)."""
    if isinstance(factor, RuleFactor):
        return (
            f"RuleFactor(weight_id={factor.weight_id}, head={factor.head}, "
            f"{len(factor.groundings)} groundings)"
        )
    return repr(factor)


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

        #: Lazy object view; only the one-world oracle path reads it.
        self.new_factors = delta.new_factors
        new = delta.new_factors.table
        num_weights = len(self.new_weights)
        wids = new.weight_ids()
        if wids.size and not 0 <= wids.min() <= wids.max() < num_weights:
            fi = int(np.flatnonzero((wids < 0) | (wids >= num_weights))[0])
            raise ValueError(
                f"{_describe(self.new_factors[fi])} references weight id "
                f"{wids[fi]}, outside [0, {num_weights})"
            )
        num_base_factors = base.num_factors
        for fi in delta.removed_factor_ids:
            if not 0 <= fi < num_base_factors:
                raise ValueError(
                    f"removed factor id {fi}, outside [0, {num_base_factors})"
                )
        # Removed factors leave with the weights in force at
        # materialization time; factors that survive but whose weight
        # value changed shift by (w_new − w_old) · unit_energy.
        self._removed, self._reweighted, self._shift = delta.base_terms(base)

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

        # ---- the terms, as arrays ----------------------------------------
        removed, reweighted, shift = self._removed, self._reweighted, self._shift
        old_w = self.old_weights.values_array()
        new_w = self.new_weights.values_array()
        terms = FactorTable.concat([new, removed, reweighted])

        def coefficients(column: str) -> np.ndarray:
            return np.concatenate(
                [
                    new_w[getattr(new, column)],
                    -old_w[getattr(removed, column)],
                    shift[getattr(reweighted, column)],
                ]
            )

        self.bias_coef = coefficients("bias_wid")
        self.ising_coef = coefficients("ising_wid")
        self.rule_coef = coefficients("rule_wid")
        self.bias_var = terms.bias_var
        self.ising_i, self.ising_j = terms.ising_i, terms.ising_j
        self.rule_head, self.rule_sem = terms.rule_head, terms.rule_sem
        self.grounding_ri = terms.grounding_ri
        self.lit_gg, self.lit_var, self.lit_pos = (
            terms.lit_gg, terms.lit_var, terms.lit_pos
        )
        touched = terms.variables()
        if touched.size and not 0 <= touched.min() <= touched.max() < self.total_vars:
            self._raise_unknown_variable()

        self.ev_vars = np.fromiter(self.evidence_constraints, dtype=np.int64)
        self.ev_vals = np.fromiter(self.evidence_constraints.values(), dtype=bool)
        self._clamp_vars = self.num_base_vars + np.fromiter(
            delta.new_var_evidence, dtype=np.int64
        )
        self._clamp_vals = np.fromiter(delta.new_var_evidence.values(), dtype=bool)
        # Widest per-world temporary of :meth:`_score`.
        self._cells_per_world = max(
            1,
            self.lit_var.size,
            self.grounding_ri.size,
            self.bias_var.size,
            self.ising_i.size,
        )

    # ------------------------------------------------------------------ #
    # The terms as objects (one-world path, error messages)

    @cached_property
    def removed_factors(self) -> list:
        return self._removed.factors()

    @cached_property
    def reweighted(self) -> list:
        """``(factor, w_new − w_old)`` per surviving factor whose weight
        moved."""
        table = self._reweighted
        return list(zip(table.factors(), self._shift[table.weight_ids()].tolist()))

    def _terms(self):
        """Every ``(factor, coefficient)`` term of ``δW``."""
        new_weights, old_weights = self.new_weights, self.old_weights
        for factor in self.new_factors:
            yield factor, new_weights.value(factor.weight_id)
        for factor in self.removed_factors:
            yield factor, -old_weights.value(factor.weight_id)
        yield from self.reweighted

    def _raise_unknown_variable(self) -> None:
        total = self.total_vars
        for factor, _ in self._terms():
            for var in sorted(factor.variables()):
                if not 0 <= var < total:
                    raise ValueError(
                        f"{_describe(factor)} references variable id {var}, "
                        f"outside [0, {total})"
                    )
        raise AssertionError("lowered arrays disagree with their factors")

    # ------------------------------------------------------------------ #
    # Whole batches

    def _as_worlds(self, worlds) -> np.ndarray:
        worlds = np.asarray(worlds, dtype=bool)
        if worlds.ndim != 2 or worlds.shape[1] != self.total_vars:
            raise ValueError(
                f"worlds must be (S, {self.total_vars}); got {worlds.shape}"
            )
        return worlds

    def delta_energies(self, worlds) -> np.ndarray:
        """:meth:`delta_energy` of every row of the ``(S, total_vars)``
        matrix ``worlds``, as an ``(S,)`` float64 vector."""
        worlds = self._as_worlds(worlds)
        energies = np.zeros(worlds.shape[0], dtype=np.float64)
        rows = max(1, _SCORE_CELLS // self._cells_per_world)
        for lo in range(0, worlds.shape[0], rows):
            energies[lo : lo + rows] = self._score(worlds[lo : lo + rows])
        return energies

    def _score(self, worlds: np.ndarray) -> np.ndarray:
        energy = np.zeros(worlds.shape[0], dtype=np.float64)
        if self.bias_var.size:
            energy += np.where(worlds[:, self.bias_var], 1.0, -1.0) @ self.bias_coef
        if self.ising_i.size:
            agree = worlds[:, self.ising_i] == worlds[:, self.ising_j]
            energy += np.where(agree, 1.0, -1.0) @ self.ising_coef
        if self.rule_head.size:
            energy += (
                rule_unit_energies(
                    worlds,
                    self.rule_head,
                    self.rule_sem,
                    self.grounding_ri,
                    self.lit_gg,
                    self.lit_var,
                    self.lit_pos,
                )
                @ self.rule_coef
            )
        return energy

    def violations(self, worlds) -> np.ndarray:
        """:meth:`violates_evidence` of every row of ``worlds``, ``(S,)``
        bool."""
        worlds = self._as_worlds(worlds)
        return (worlds[:, self.ev_vars] != self.ev_vals).any(axis=1)

    def extend_worlds(self, base_worlds, rng) -> np.ndarray:
        """:meth:`extend_world` of every row of ``base_worlds`` in one
        draw: ``rng.random((S, k))`` for the ``k`` missing columns, which
        consumes the generator exactly as ``S`` successive
        ``rng.random(k)`` calls would (none when ``k = 0``)."""
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

    # ------------------------------------------------------------------ #
    # One world

    def violates_evidence(self, world: np.ndarray) -> bool:
        """True if ``world`` contradicts any evidence the delta introduced."""
        return any(
            bool(world[var]) != val
            for var, val in self.evidence_constraints.items()
        )

    def delta_energy(self, world: np.ndarray) -> float:
        """``W^∆(world) − W⁰(world)`` ignoring hard evidence constraints."""
        energy = 0.0
        for factor in self.new_factors:
            energy += factor.energy(world, self.new_weights)
        for factor in self.removed_factors:
            energy -= factor.energy(world, self.old_weights)
        for factor, shift in self.reweighted:
            energy += shift * factor.unit_energy(world)
        return energy

    def log_density_ratio(self, world: np.ndarray) -> float:
        """``log Pr^∆(world)/Pr⁰(world)`` up to a constant; ``-inf`` when
        the world contradicts new evidence."""
        if self.violates_evidence(world):
            return float("-inf")
        return self.delta_energy(world)

    def extend_world(self, base_world: np.ndarray, rng) -> np.ndarray:
        """Extend a world over the base variables to the updated graph.

        ``base_world`` may already cover some of the new variables (a
        bundle patched by ``SampleMaterialization.extend_bundle`` stores
        its uniform extension draws eagerly); only the remaining tail is
        drawn here.  New free variables are uniform (this proposal factor
        is constant and cancels in the MH ratio); clamped new variables
        take their evidence values regardless of how they were drawn —
        the proposal for them is a point mass either way.
        """
        have = base_world.shape[0]
        if have > self.total_vars:
            raise ValueError(
                f"stored world has {have} vars, updated graph {self.total_vars}"
            )
        world = np.empty(self.total_vars, dtype=bool)
        world[:have] = base_world
        if self.total_vars > have:
            world[have:] = rng.random(self.total_vars - have) < 0.5
        for offset, val in self.delta.new_var_evidence.items():
            world[self.num_base_vars + offset] = bool(val)
        return world
