"""``δW`` one world at a time, over factor records.

``OneWorldEvaluator`` is the package's :class:`DeltaEvaluator` (same
weight snapshots, evidence constraints and id checks) plus the path that
evaluator lost: ``delta_energy`` walks the delta's terms as records and
sums their energies (:mod:`tests.reference.factors`), ``extend_world``
draws one world's missing columns.  The batch scorer
(``delta_energies``, ``violations``, ``extend_worlds``) must equal it
row by row.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.graph.delta_energy import DeltaEvaluator

from tests.reference.factors import factor_energy, unit_energy


class OneWorldEvaluator(DeltaEvaluator):
    """``δW`` of one world by a walk over the terms as records."""

    @cached_property
    def new_factors(self) -> list:
        return list(self.delta.new_factors)

    @cached_property
    def removed_factors(self) -> list:
        return self.delta.base_terms(self.base)[0].factors()

    @cached_property
    def reweighted(self) -> list:
        """``(factor, w_new − w_old)`` per surviving factor whose weight
        moved."""
        _, table, shift = self.delta.base_terms(self.base)
        return list(zip(table.factors(), shift[table.weight_ids()].tolist()))

    def record_terms(self):
        """Every ``(factor, coefficient)`` term of ``δW``."""
        for factor in self.new_factors:
            yield factor, self.new_weights.value(factor.weight_id)
        for factor in self.removed_factors:
            yield factor, -self.old_weights.value(factor.weight_id)
        yield from self.reweighted

    def violates_evidence(self, world: np.ndarray) -> bool:
        """True if ``world`` contradicts any evidence the delta introduced."""
        return any(
            bool(world[var]) != val for var, val in self.evidence_constraints.items()
        )

    def delta_energy(self, world: np.ndarray) -> float:
        """``W^∆(world) − W⁰(world)`` ignoring hard evidence constraints."""
        energy = 0.0
        for factor in self.new_factors:
            energy += factor_energy(factor, world, self.new_weights)
        for factor in self.removed_factors:
            energy -= factor_energy(factor, world, self.old_weights)
        for factor, shift in self.reweighted:
            energy += shift * unit_energy(factor, world)
        return energy

    def log_density_ratio(self, world: np.ndarray) -> float:
        """``log Pr^∆(world)/Pr⁰(world)`` up to a constant; ``-inf`` when
        the world contradicts new evidence."""
        if self.violates_evidence(world):
            return float("-inf")
        return self.delta_energy(world)

    def extend_world(self, base_world: np.ndarray, rng) -> np.ndarray:
        """One world over the base variables extended to the updated
        graph: the missing columns drawn uniform in one ``rng.random``
        call, clamped new variables set to their evidence."""
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
