"""Compiled vectorized join plans over columnar relation mirrors.

A conjunctive query compiles once into a :class:`JoinPlan`: a static atom
order (:func:`repro.db.query.static_join_order`) plus one :class:`_Step`
per atom describing which positions are constants, which join against
already-bound variables, which introduce new variables, and which must
satisfy within-atom equality.  Execution advances a whole *binding
batch* — one int32 code column per bound variable plus a signed count
column — through each step with a handful of numpy operations: an index
probe produces ``(binding row, table slot)`` match pairs, existing
columns gather through the binding side, new columns gather through the
table side, and signs multiply (the delta-join algebra's signed counts).

This is the only way the package evaluates a query.  The tuple-at-a-time
evaluator in ``tests/reference/query.py`` defines the semantics the plans
are held to: ``tests/test_columnar.py`` checks the signed binding
multisets agree on random programs and deltas.

For incremental grounding, :func:`compile_delta_plans` emits the k-term
old/new factorization of a body's delta (the DBSP/DRed form)::

    Δ(A₁ ⋈ … ⋈ A_k) = Σ_i  A₁ⁿᵉʷ ⋈ … ⋈ A_{i−1}ⁿᵉʷ ⋈ Δ_i ⋈ A_{i+1}ᵒˡᵈ ⋈ … ⋈ A_kᵒˡᵈ

one plan per body position ``i``: step ``i`` consumes the signed per-
predicate delta batch, steps ``j<i`` probe new state (the live mirrors),
and steps ``j>i`` probe *old-state* views (:class:`repro.db.columnar.
TableView`) captured at the update's ``apply_delta`` boundaries — k terms
for a k-atom body, where the inclusion/exclusion expansion over the new
state alone (``Σ_S ±(⋈Δ/⋈new)``) needs 2^k−1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.columnar import ColumnarStore
from repro.db.query import Var, static_join_order

__all__ = [
    "BindingBatch",
    "JoinPlan",
    "canonicalize_batch",
    "compile_delta_plans",
]


@dataclass
class BindingBatch:
    """A batch of query bindings: code columns + signed counts."""

    cols: dict          # variable name -> int32 code array (parallel)
    signs: np.ndarray   # int64 signed counts

    @property
    def num_rows(self) -> int:
        return len(self.signs)

    def column_matrix(self, names) -> np.ndarray:
        """Stack the named columns into an ``(m, len(names))`` matrix."""
        m = self.num_rows
        out = np.empty((m, len(names)), dtype=np.int32)
        for i, name in enumerate(names):
            out[:, i] = self.cols[name]
        return out


def canonicalize_batch(batch: BindingBatch) -> BindingBatch:
    """Reorder a batch into its canonical row order.

    Rows sort lexicographically by the code columns in sorted-name order,
    insertions before retractions among otherwise-equal rows.  The result
    depends only on the batch's *contents*, not on the join order that
    produced it — so a batch folds into factor records (and interns
    weights, head constants, new variable ids) in an order that survives
    a change of plan.
    """
    if batch.num_rows <= 1:
        return batch
    names = sorted(batch.cols)
    keys = [-batch.signs]
    keys.extend(batch.cols[name] for name in reversed(names))
    order = np.lexsort(keys)
    return BindingBatch(
        cols={name: col[order] for name, col in batch.cols.items()},
        signs=batch.signs[order],
    )


@dataclass(frozen=True)
class _Step:
    """One atom's compiled join step."""

    atom_index: int
    is_source: bool
    key_positions: tuple       # atom positions forming the probe key
    const_values: tuple        # python constants, parallel to their slice
    const_count: int           # first const_count key positions are constants
    bound_names: tuple         # variable names, parallel to the rest
    new_vars: tuple            # (name, position) introduced by this atom
    eq_filters: tuple          # (first position, duplicate position) pairs
    #: fused delta plans: probe the relation's captured old-state view
    #: (when one exists this update) instead of the live mirror.
    probe_old: bool = False


class JoinPlan:
    """A compiled conjunctive query over columnar mirrors."""

    def __init__(self, atoms, order, steps, out_vars) -> None:
        self.atoms = tuple(atoms)
        self.order = tuple(order)
        self.steps = tuple(steps)
        self.out_vars = tuple(out_vars)

    @classmethod
    def compile(
        cls, atoms, source_positions=frozenset(), old_positions=frozenset()
    ) -> "JoinPlan":
        """Compile ``atoms`` into a plan.  ``old_positions`` marks atoms
        that must probe old-state views (the ``j>i`` segment of a fused
        delta term); the execution order still interleaves freely — the
        state choice is per-atom, not per-segment."""
        atoms = tuple(atoms)
        source_positions = frozenset(source_positions)
        old_positions = frozenset(old_positions)
        order = static_join_order(atoms, source_positions)
        bound: set = set()
        steps = []
        out_vars: list = []
        for idx in order:
            atom = atoms[idx]
            const_positions, const_values = [], []
            bound_positions, bound_names = [], []
            new_vars, eq_filters = [], []
            first_pos: dict = {}
            for pos, arg in enumerate(atom.args):
                if not isinstance(arg, Var):
                    const_positions.append(pos)
                    const_values.append(arg)
                elif arg.name in bound:
                    bound_positions.append(pos)
                    bound_names.append(arg.name)
                elif arg.name in first_pos:
                    eq_filters.append((first_pos[arg.name], pos))
                else:
                    first_pos[arg.name] = pos
                    new_vars.append((arg.name, pos))
            bound.update(first_pos)
            out_vars.extend(first_pos)
            steps.append(
                _Step(
                    atom_index=idx,
                    is_source=idx in source_positions,
                    key_positions=tuple(const_positions) + tuple(bound_positions),
                    const_values=tuple(const_values),
                    const_count=len(const_positions),
                    bound_names=tuple(bound_names),
                    new_vars=tuple(new_vars),
                    eq_filters=tuple(eq_filters),
                    probe_old=idx in old_positions,
                )
            )
        return cls(atoms, order, steps, out_vars)

    # ------------------------------------------------------------------ #

    def _empty(self) -> BindingBatch:
        return BindingBatch(
            cols={name: np.empty(0, dtype=np.int32) for name in self.out_vars},
            signs=np.empty(0, dtype=np.int64),
        )

    def resolve_tables(self, store: ColumnarStore, db, sources=None) -> list:
        """Resolve every step's table, in step order, before execution.

        Resolving a non-source step syncs its live mirror (recording any
        pending copy-on-write overrides into captured views and interning
        newly appended rows).  Doing this for *all* steps up front — even
        ones a later early exit would skip — makes the interner's state
        after an execution a pure function of the plan and the data, not
        of where the join happened to come up empty.
        """
        tables = []
        for step in self.steps:
            if step.is_source:
                tables.append(sources[step.atom_index])
                continue
            atom = self.atoms[step.atom_index]
            table = store.table(db.relation(atom.pred))
            if step.probe_old:
                view = store.old_view(atom.pred)
                if view is not None:
                    table = view
            tables.append(table)
        return tables

    def execute(self, store: ColumnarStore, db, sources=None) -> BindingBatch:
        """Run the plan; ``sources`` maps atom index → :class:`ColumnarBatch`.

        ``db`` supplies the relations for non-source atoms (mirrored and
        synced through ``store``).
        """
        interner = store.interner
        tables = self.resolve_tables(store, db, sources=sources)
        cols: dict = {}
        signs = np.ones(1, dtype=np.int64)
        for si, step in enumerate(self.steps):
            table = tables[si]
            m = len(signs)
            key_width = len(step.key_positions)
            key_rows = np.empty((m, key_width), dtype=np.int32)
            missing_const = False
            for ci, value in enumerate(step.const_values):
                code = interner.probe(value)
                if code < 0:
                    missing_const = True
                    break
                key_rows[:, ci] = code
            if missing_const:
                return self._empty()
            for bi, name in enumerate(step.bound_names):
                key_rows[:, step.const_count + bi] = cols[name]
            probe_idx, slots = table.probe(step.key_positions, key_rows)
            for pos_a, pos_b in step.eq_filters:
                keep = table.codes_at(slots, pos_a) == table.codes_at(
                    slots, pos_b
                )
                probe_idx, slots = probe_idx[keep], slots[keep]
            cols = {name: col[probe_idx] for name, col in cols.items()}
            for name, pos in step.new_vars:
                cols[name] = table.codes_at(slots, pos)
            signs = signs[probe_idx] * table.signs_of(slots)
            if not len(signs):
                return self._empty()
        return BindingBatch(cols=cols, signs=signs)


def compile_delta_plans(atoms) -> tuple:
    """The k fused delta plans of a body — one per position (module
    docstring identity).  Plan ``i`` consumes the signed delta batch at
    position ``i``; positions ``j<i`` probe new state and ``j>i`` probe
    old-state views.  Positions whose predicate did not change this
    update execute identically under either state (old = new), so the
    driver simply skips plans whose Δᵢ is empty — the surviving terms
    telescope to exactly ``⋈new − ⋈old``.
    """
    atoms = tuple(atoms)
    k = len(atoms)
    return tuple(
        JoinPlan.compile(
            atoms,
            source_positions=frozenset((i,)),
            old_positions=frozenset(range(i + 1, k)),
        )
        for i in range(k)
    )
