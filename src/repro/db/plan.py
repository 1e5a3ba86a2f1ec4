"""Compiled vectorized join plans over columnar relations.

A conjunctive query compiles once into a :class:`JoinPlan`: an atom order
(:func:`repro.db.query.static_join_order`: each step takes the atom its
store estimates, when the plan compiles, to match the fewest rows per
probe) plus one :class:`_Step` per atom describing which positions are
constants, which join against already-bound variables, which introduce
new variables, and which must satisfy within-atom equality.  Execution
advances a whole *binding batch* — one int32 code column per bound
variable plus a signed count column — through each step with a handful
of numpy operations: an index probe produces ``(binding row, table
slot)`` match pairs, existing columns gather through the binding side,
new columns gather through the table side, and a signed table's signs
multiply in (the delta-join algebra's signed counts; relations and
old-state views count each visible row once, so their steps only
gather).  The order decides only how many rows the intermediate batches
carry (the ``join_rows`` counter): every batch is canonicalized
(:func:`canonicalize_batch`) before anything folds it.

A delta source leads its plan, and its step is not a probe: it binds the
source batch's own columns (:func:`_bind_source` — rows whose constant
positions hold the step's constants and whose repeated variables agree,
in row order, exactly the pairs a probe of the batch from one empty
binding returns).  A one-document insert's batches are 1–3 rows, so
every later step probes with a few keys, and a probe under
:data:`~repro.db.columnar._SMALL_BATCH` keys walks them one at a time
(:meth:`~repro.db.columnar._TableIndex.probe_small`, the vector probe's
pairs in its order: base matches, then overflow), as does an old-state
view's fence and flip filter; from the threshold on, the same steps run
vectorized (``tests/test_columnar.py::TestSmallBatchPaths`` holds the
two to one result at sizes around it).

This is the only way the package evaluates a query.  The tuple-at-a-time
evaluator in ``tests/reference/query.py`` defines the semantics the plans
are held to: ``tests/test_columnar.py`` checks the signed binding
multisets agree on random programs and deltas, and that any atom order
gives the same canonical batch.

For incremental grounding, :func:`compile_delta_plans` emits the k-term
old/new factorization of a body's delta (the DBSP/DRed form)::

    Δ(A₁ ⋈ … ⋈ A_k) = Σ_i  A₁ⁿᵉʷ ⋈ … ⋈ A_{i−1}ⁿᵉʷ ⋈ Δ_i ⋈ A_{i+1}ᵒˡᵈ ⋈ … ⋈ A_kᵒˡᵈ

one plan per body position ``i``: step ``i`` consumes the signed per-
predicate delta batch, steps ``j<i`` probe new state (the relations),
and steps ``j>i`` probe *old-state* views (:class:`repro.db.columnar.
TableView`) the store reads off the open update's write log
(:meth:`repro.db.columnar.ColumnarStore.old_view`) — k terms for a
k-atom body, where the inclusion/exclusion expansion over the new state
alone (``Σ_S ±(⋈Δ/⋈new)``) needs 2^k−1.

A term can be empty before it runs.  The interner is append-only, so a
code interned in the open update (at or above the store's
:attr:`~repro.db.columnar.ColumnarStore.floor`) is in no relation's old
state.  When a source column holds only such codes and a later
old-state step keys on its variable, the step matches nothing:
:meth:`JoinPlan.execute` returns the empty batch before it resolves a
table and counts the term in ``terms_pruned``.  A one-document insert
makes such terms by construction — they join the document's rows
against old rows on ids the document itself introduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.columnar import ColumnarBatch, ColumnarStore
from repro.db.query import Var, static_join_order

__all__ = [
    "BindingBatch",
    "JoinPlan",
    "canonicalize_batch",
    "compile_delta_plans",
]

#: The columns of every empty batch (nothing can be written into them).
_NO_CODES = np.empty(0, dtype=np.int32)
_NO_SIGNS = np.empty(0, dtype=np.int64)
_NO_CODES.flags.writeable = _NO_SIGNS.flags.writeable = False


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
    #: fused delta plans: probe the relation's old-state view (when the
    #: open update changed it) instead of the live relation.
    probe_old: bool = False


class JoinPlan:
    """A compiled conjunctive query over columnar relations."""

    def __init__(self, atoms, order, steps, out_vars) -> None:
        self.atoms = tuple(atoms)
        self.order = tuple(order)
        self.steps = tuple(steps)
        self.out_vars = tuple(out_vars)
        #: ``(source atom index, position)`` of each source column whose
        #: variable a later old-state step keys on (:meth:`cannot_match`)
        self.fresh_guards = _fresh_guards(self.atoms, self.steps)

    @classmethod
    def compile(
        cls,
        atoms,
        source_positions=frozenset(),
        old_positions=frozenset(),
        fan_out=None,
    ) -> "JoinPlan":
        """Compile ``atoms`` into a plan.  ``old_positions`` marks atoms
        that must probe old-state views (the ``j>i`` segment of a fused
        delta term); the execution order still interleaves freely — the
        state choice is per-atom, not per-segment.  ``fan_out`` estimates
        an atom's matches per probe (see
        :func:`~repro.db.query.static_join_order`); without it the
        order is the static one."""
        atoms = tuple(atoms)
        source_positions = frozenset(source_positions)
        old_positions = frozenset(old_positions)
        order = static_join_order(atoms, source_positions, fan_out=fan_out)
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
        return BindingBatch(cols=dict.fromkeys(self.out_vars, _NO_CODES), signs=_NO_SIGNS)

    def resolve_tables(self, store: ColumnarStore, db, sources=None) -> list:
        """Every step's table, in step order: its source batch, its
        relation, or — for an old-state step over a relation the open
        update changed — the relation's old-state view."""
        tables = []
        for step in self.steps:
            if step.is_source:
                tables.append(sources[step.atom_index])
                continue
            pred = self.atoms[step.atom_index].pred
            view = store.old_view(pred) if step.probe_old else None
            tables.append(view if view is not None else db.relation(pred))
        return tables

    def cannot_match(self, store: ColumnarStore, sources) -> bool:
        """Whether some guarded source column holds only codes interned
        in the open update: the old-state step keyed on its variable
        then matches nothing (module docstring)."""
        floor = store.floor
        if floor is None:
            return False
        for atom_index, pos in self.fresh_guards:
            column = sources[atom_index].codes[:, pos]
            if len(column) and column.min() >= floor:
                return True
        return False

    def execute(self, store: ColumnarStore, db, sources=None) -> BindingBatch:
        """Run the plan; ``sources`` maps atom index → :class:`ColumnarBatch`.

        ``db`` supplies the relations for non-source atoms; each step
        probes the relation itself, and the rows it emits count in the
        store's ``join_rows``.  A term that :meth:`cannot_match` returns
        the empty batch at once (``terms_pruned``).
        """
        interner = store.interner
        stats = store.stats
        if self.cannot_match(store, sources):
            stats["terms_pruned"] += 1
            return self._empty()
        tables = self.resolve_tables(store, db, sources=sources)
        cols: dict = {}
        signs = None
        for step, table in zip(self.steps, tables):
            consts = [interner.probe(value) for value in step.const_values]
            if min(consts, default=0) < 0:
                return self._empty()
            if signs is None and step.is_source:
                cols, signs = _bind_source(step, table, consts)
            else:
                m = 1 if signs is None else len(signs)
                if not consts and len(step.bound_names) == 1:
                    key_rows = cols[step.bound_names[0]].reshape(m, 1)
                else:
                    key_rows = np.empty((m, len(step.key_positions)), dtype=np.int32)
                    key_rows[:, : step.const_count] = consts
                    for bi, name in enumerate(step.bound_names):
                        key_rows[:, step.const_count + bi] = cols[name]
                probe_idx, slots = table.probe(step.key_positions, key_rows)
                for pos_a, pos_b in step.eq_filters:
                    keep = table.codes_at(slots, pos_a) == table.codes_at(slots, pos_b)
                    probe_idx, slots = probe_idx[keep], slots[keep]
                cols = {name: col[probe_idx] for name, col in cols.items()}
                for name, pos in step.new_vars:
                    cols[name] = table.codes_at(slots, pos)
                if signs is None:
                    signs = np.ones(len(slots), dtype=np.int64)
                else:
                    signs = signs[probe_idx]
                if isinstance(table, ColumnarBatch):
                    signs = signs * table.signs[slots]
            stats["join_rows"] += len(signs)
            if not len(signs):
                return self._empty()
        if signs is None:  # no atom: the one empty binding
            signs = np.ones(1, dtype=np.int64)
        return BindingBatch(cols=cols, signs=signs)


def _bind_source(step: _Step, batch: ColumnarBatch, consts: list) -> tuple:
    """``(cols, signs)`` of a leading source step: the batch's own rows
    whose constant positions hold ``consts`` and whose repeated
    variables agree, in row order — what probing the batch on its
    constants from one empty binding returns, without the probe."""
    codes = batch.codes
    rows = None  # every row
    if consts:
        at = codes[:, step.key_positions[: step.const_count]] == consts
        rows = np.flatnonzero(at.all(axis=1))
    for pos_a, pos_b in step.eq_filters:
        keep = codes[:, pos_a] == codes[:, pos_b]
        rows = np.flatnonzero(keep) if rows is None else rows[keep[rows]]
    if rows is None:
        return {name: codes[:, pos] for name, pos in step.new_vars}, batch.signs
    return {name: codes[rows, pos] for name, pos in step.new_vars}, batch.signs[rows]


def _fresh_guards(atoms, steps) -> tuple:
    """The ``(source atom index, position)`` pairs of the source columns
    whose variable an old-state step after the source keys on: every row
    a source emits carries its code there into that probe."""
    guards: list = []
    sources: list = []
    for step in steps:
        if step.is_source:
            sources.append(step.atom_index)
        elif step.probe_old:
            guards += [
                (source, pos)
                for source in sources
                for pos, arg in enumerate(atoms[source].args)
                if isinstance(arg, Var) and arg.name in step.bound_names
            ]
    return tuple(dict.fromkeys(guards))


def compile_delta_plans(atoms, fan_out=None) -> tuple:
    """The k fused delta plans of a body — one per position (module
    docstring identity).  Plan ``i`` consumes the signed delta batch at
    position ``i``; positions ``j<i`` probe new state and ``j>i`` probe
    old-state views.  Positions whose predicate did not change this
    update execute identically under either state (old = new), so the
    driver simply skips plans whose Δᵢ is empty — the surviving terms
    telescope to exactly ``⋈new − ⋈old``.  ``fan_out`` orders every
    plan's non-source atoms as in :meth:`JoinPlan.compile`.
    """
    atoms = tuple(atoms)
    k = len(atoms)
    return tuple(
        JoinPlan.compile(
            atoms,
            source_positions=frozenset((i,)),
            old_positions=frozenset(range(i + 1, k)),
            fan_out=fan_out,
        )
        for i in range(k)
    )
