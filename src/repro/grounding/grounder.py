"""Full grounding: program + database → factor graph (paper §2.5, Fig. 3).

Phases, mirroring the paper's execution model:

1. **Derivation** — evaluate the deterministic rules (candidate mappings,
   feature extraction, supervision) in stratified order, recording
   derivation counts (this is what DRed's delta relations maintain).
2. **Variables** — every visible tuple of every variable relation becomes
   a Boolean random variable.
3. **Evidence** — rows of ``R_Ev`` relations clamp the matching variable.
4. **Factors** — each inference rule's body join is evaluated; bindings
   are grouped by ``(head variable, weight key)`` and each group becomes
   one rule factor whose groundings are the bodies' variable literals.

Phases 1 and 4 are joins, and every join is a compiled vectorized plan
over the database's columnar relations (:mod:`repro.db.plan`): a rule body
executes into one binding batch, and whole batches fold into relations
and — phase 4 — straight into factor-table columns
(:func:`ground_rule_batch`), concatenated in program order.  The
grounded graph's factor list is born lowered, so compiling it walks no
factor object.  The raw columns (:attr:`GroundingResult.raw_rules`) are
what incremental maintenance seeds its per-rule grounding tables from;
an update's binding batches reach those tables as signed code rows
(:func:`binding_rows`).  What the result must equal is defined outside
the package, by the tuple-at-a-time ``reference_ground`` under
``tests/reference/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datalog.ast import EVIDENCE_SUFFIX, InferenceRule
from repro.datalog.program import Program
from repro.db.columnar import (
    ColumnarBatch,
    appearance_order,
    pack_rows,
    row_keys,
    small,
)
from repro.db.database import Database
from repro.db.plan import BindingBatch
from repro.db.query import Var
from repro.graph.delta import KIND_RULE, FactorList, FactorTable
from repro.graph.factor_graph import FactorGraph
from repro.graph.semantics import sem_code


@dataclass
class GroundingResult:
    """The grounded graph plus the columns incremental maintenance
    seeds from.

    A variable's id sits in its relation's vid column
    (:meth:`~repro.db.relation.Relation.vids_of`); ``graph.name_of`` is
    the inverse.  ``graph.factors`` is born lowered: the canonical form
    (:meth:`~repro.graph.delta.FactorTable.canonical`) of ``raw_rules``,
    the rule columns the joins produced, in program order — from which
    :class:`~repro.grounding.incremental.IncrementalGrounder` seeds its
    grounding tables.
    """

    graph: FactorGraph
    raw_rules: FactorTable     # one row per factor, groundings as joined
    rule_spans: list           # (rule name, semantics, #factors) per rule

    def compile(self):
        """Build the compiled substrate from the grounded graph's
        (born-lowered) factor table; no factor object is walked.  The
        substrate owns graph state from here on (see
        ``CompiledFactorGraph.apply_delta``)."""
        from repro.graph.compiled import CompiledFactorGraph

        return CompiledFactorGraph(self.graph)


# ---------------------------------------------------------------------- #
# Batch helpers (shared by full and incremental grounding)
# ---------------------------------------------------------------------- #


def full_body_batch(db: Database, rule):
    """Canonical binding batch of a rule's full body join: the cached
    plan's batch, canonicalized (:func:`repro.db.plan.canonicalize_batch`)
    so downstream folding does not depend on the join's row order.
    """
    from repro.db.plan import canonicalize_batch

    store = db.columnar
    return canonicalize_batch(store.plan(rule.body).execute(store, db))


def signed_head_counts(db: Database, rule, batch) -> ColumnarBatch:
    """Fold a binding batch into the head's signed code rows, grouped
    (:meth:`~repro.db.columnar.ColumnarBatch.grouped`: one row per head
    tuple, zero sums dropped) — what the head relation's ``apply_delta``
    takes.  UDF-free rules never leave codes; UDF rules decode the batch
    once and expand per binding (UDFs are arbitrary Python and must see
    real values).
    """
    interner = db.interner
    if rule.udf is None:
        codes = _atom_code_matrix(batch, interner, rule.head.args)
        return ColumnarBatch(codes, batch.signs).grouped()
    decoded = {
        name: interner.decode(col) for name, col in batch.cols.items()
    }
    rows, signs = [], []
    for i, sign in enumerate(batch.signs.tolist()):
        binding = {name: col[i] for name, col in decoded.items()}
        for expanded in rule.expanded_bindings(binding):
            rows.append(rule.head_tuple(expanded))
            signs.append(sign)
    codes = interner.encode_rows(rows, len(rule.head.args))
    return ColumnarBatch(codes, np.asarray(signs, dtype=np.int64)).grouped()


def _atom_code_matrix(batch, interner, args) -> np.ndarray:
    """``(m, len(args))`` code matrix of an atom under a binding batch."""
    matrix = np.empty((batch.num_rows, len(args)), dtype=np.int32)
    for i, arg in enumerate(args):
        if isinstance(arg, Var):
            matrix[:, i] = batch.cols[arg.name]
        else:
            matrix[:, i] = interner.intern(arg)
    return matrix


def variable_order(relation_name: str, rows: list) -> list:
    """Indices of a variable relation's ``rows`` in row order, the order
    their variables are numbered in.  Rows whose constants do not
    compare (an ``int`` beside a ``str`` in one column) raise a
    ``ValueError`` naming the relation."""
    try:
        return sorted(range(len(rows)), key=rows.__getitem__)
    except TypeError as error:
        raise ValueError(
            f"{relation_name}: rows whose constants do not compare cannot "
            f"be numbered as variables ({error})"
        ) from None


def _vids(rule, pred: str, matrix, db: Database, is_head: bool) -> np.ndarray:
    """Variable ids of the code rows ``matrix`` of variable relation
    ``pred``: each row's slot, gathered from the relation's vid column.

    A row with no variable raises the "not a grounded variable"
    diagnosis for a head atom, a plain ``KeyError`` naming ``(pred, row)``
    for a body literal atom.
    """
    vids = db.relation(pred).vids_of(matrix)
    if vids.min(initial=0) < 0:
        row = tuple(db.interner.decode(matrix[np.argmax(vids < 0)]))
        if not is_head:
            raise KeyError((pred, row))
        raise KeyError(
            f"inference rule {rule.name!r} derives head tuple {(pred, row)} "
            "that is not a grounded variable; add a candidate (derivation) "
            "rule that creates it"
        )
    return vids


#: Below this many bindings a batch interns weights and groups factors in
#: first-appearance order; from it on, in ``np.unique`` order.
_BATCH_VECTOR_THRESHOLD = 64


def _weight_ids(rule, tied, interner, weights, appearance: bool) -> np.ndarray:
    """The weight id of each row of the tied-value code matrix ``tied``.
    Each distinct row's key interns once: in first-appearance order when
    ``appearance``, else in ``np.unique`` order."""
    initial, fixed = rule.weight.value, rule.weight.fixed
    if not rule.weight.tied_on:
        wid = weights.intern((rule.name, ()), initial=initial, fixed=fixed)
        return np.full(len(tied), wid, dtype=np.int64)
    if appearance and small(len(tied)):  # the same order, row by row
        keys = row_keys(tied)
        wid_of: dict = {}
        for key, row in zip(keys, tied.tolist()):
            if key not in wid_of:
                key_values = (rule.name, tuple(interner.decode(row)))
                wid_of[key] = weights.intern(key_values, initial=initial, fixed=fixed)
        return np.array([wid_of[key] for key in keys], dtype=np.int64)
    _, first, inverse = np.unique(
        pack_rows(tied), return_index=True, return_inverse=True
    )
    distinct = np.empty(len(first), dtype=np.int64)
    for g in (np.argsort(first) if appearance else range(len(first))):
        key = (rule.name, tuple(interner.decode(tied[first[g]])))
        distinct[g] = weights.intern(key, initial=initial, fixed=fixed)
    return distinct[inverse]


def _resolve_batch(rule, batch, db, variable_relations, weights, appearance):
    """A batch's bindings as arrays: head variable ids, weight ids, and
    one literal variable-id column per variable body atom — each atom a
    slot lookup and a vid gather (:func:`_vids`), each distinct tied row
    interned once (:func:`_weight_ids`)."""
    interner = db.interner

    def atom_vids(atom, is_head):
        matrix = _atom_code_matrix(batch, interner, atom.args)
        return _vids(rule, atom.pred, matrix, db, is_head)

    head_vids = atom_vids(rule.head, True)
    tied = batch.column_matrix(rule.weight.tied_on)
    wids = _weight_ids(rule, tied, interner, weights, appearance)
    lit_vids = [
        atom_vids(atom, False) for atom in rule.body if atom.pred in variable_relations
    ]
    return head_vids, wids, lit_vids


def binding_rows(
    rule: InferenceRule, batch, db: Database, variable_relations, weights
) -> ColumnarBatch:
    """One signed incremental binding batch of ``rule`` as grounding
    rows: ``(head var, weight id, lit var₁ … lit var_k)`` per binding,
    the literal variables in body order (the rule fixes each one's
    polarity, :func:`literal_polarities`).  Under
    :data:`_BATCH_VECTOR_THRESHOLD` bindings the rows come insertions
    first and weights intern in first-appearance order; otherwise in
    batch order and ``np.unique`` order."""
    appearance = batch.num_rows < _BATCH_VECTOR_THRESHOLD
    if appearance and (batch.signs < 0).any():
        order = np.argsort(batch.signs < 0, kind="stable")
        batch = BindingBatch(
            {name: col[order] for name, col in batch.cols.items()},
            batch.signs[order],
        )
    head_vids, wids, lit_vids = _resolve_batch(
        rule, batch, db, variable_relations, weights, appearance
    )
    return ColumnarBatch(np.column_stack([head_vids, wids, *lit_vids]), batch.signs)


def literal_polarities(rule: InferenceRule, variable_relations) -> list:
    """Per variable body atom of ``rule``, in body order, whether its
    literal is positive."""
    return [
        pos not in rule.negated_positions
        for pos, atom in enumerate(rule.body)
        if atom.pred in variable_relations
    ]


def ground_rule_batch(
    rule: InferenceRule, sem: int, batch, db: Database, variable_relations, weights
) -> FactorTable:
    """A full ground's binding batch for ``rule`` as rule columns: one
    factor per ``(head variable, weight id)``, one grounding (the body's
    variable literals) per binding, taken as the join produced them
    (:func:`~repro.graph.delta.rule_columns`: canonicalize before the
    substrate reads them).  ``sem`` is the rule's semantics code.

    Factor order is fixed by the batch's shape, and weights intern in
    the same order:

    * under :data:`_BATCH_VECTOR_THRESHOLD` bindings, first appearance;
    * no variable body atom (a frequency rule, every grounding empty):
      the ``np.unique`` order of the raw head / tied code rows, each
      group resolved and interned once;
    * otherwise ascending ``head << 31 | weight id`` (a stable sort, so
      a factor's groundings keep batch order) — or batch order when every
      binding is its own factor.
    """
    m = batch.num_rows
    if m == 0:
        return FactorTable()
    if not bool(np.all(batch.signs > 0)):
        raise ValueError("a signed batch folds through binding_rows")
    appearance = m < _BATCH_VECTOR_THRESHOLD
    if not any(atom.pred in variable_relations for atom in rule.body):
        heads, wids, counts = _frequency_groups(rule, batch, db, weights, appearance)
        return _rule_rows(
            heads, wids, sem, grounding_ri=np.repeat(np.arange(heads.shape[0]), counts)
        )
    head_vids, wids, lit_vids = _resolve_batch(
        rule, batch, db, variable_relations, weights, appearance
    )
    _, first, inverse = np.unique(
        (head_vids << 31) | wids, return_index=True, return_inverse=True
    )
    if appearance or len(first) == m:
        first, inverse = appearance_order(first, inverse)
    order = np.argsort(inverse, kind="stable")
    return _rule_rows(
        head_vids[first],
        wids[first],
        sem,
        grounding_ri=inverse[order],
        lit_gg=np.repeat(np.arange(m), len(lit_vids)),
        lit_var=np.stack(lit_vids, axis=1)[order].ravel(),
        lit_pos=np.tile(literal_polarities(rule, variable_relations), m),
    )


def _rule_rows(heads, wids, sem, **groundings) -> FactorTable:
    """Rule columns for rows ``heads`` / ``wids`` of one semantics code,
    with their grounding and literal columns."""
    return FactorTable(
        kind=np.full(heads.shape[0], KIND_RULE, dtype=np.int8),
        rule_head=heads,
        rule_wid=wids,
        rule_sem=np.full(heads.shape[0], sem),
        **groundings,
    )


def _frequency_groups(rule, batch, db, weights, appearance: bool) -> tuple:
    """A literal-free rule's bindings grouped on their raw (head, tied)
    code rows: per group — in first-appearance order when
    ``appearance``, else ``np.unique`` order — the head variable id, the
    weight id and the binding count.  Heads resolve and weights intern
    once per *group*, in group order."""
    head_width = len(rule.head.args)
    matrix = np.concatenate(
        [
            _atom_code_matrix(batch, db.interner, rule.head.args),
            batch.column_matrix(rule.weight.tied_on),
        ],
        axis=1,
    )
    _, first, inverse = np.unique(
        pack_rows(matrix), return_index=True, return_inverse=True
    )
    if appearance:
        first, inverse = appearance_order(first, inverse)
    groups = matrix[first]
    heads = _vids(rule, rule.head.pred, groups[:, :head_width], db, is_head=True)
    wids = _weight_ids(rule, groups[:, head_width:], db.interner, weights, True)
    return heads, wids, np.bincount(inverse, minlength=len(first))


class Grounder:
    """Grounds ``program`` over ``db`` from scratch."""

    def __init__(self, program: Program, db: Database) -> None:
        self.program = program
        self.db = db

    # ------------------------------------------------------------------ #

    def run_derivation_rules(self) -> None:
        """Evaluate all derivation rules, accumulating derivation counts."""
        for rule in self.program.stratified_derivation_rules():
            batch = full_body_batch(self.db, rule)
            self.db.relation(rule.head.pred).apply_delta(
                signed_head_counts(self.db, rule, batch)
            )

    def create_variables(self, graph: FactorGraph) -> None:
        """One variable per candidate tuple, named ``(relation, row)`` and
        numbered in row order; its id goes into the relation's vid
        column, which holds no other.  The inverse map is
        ``graph.name_of``."""
        for relation_name in sorted(self.program.variable_relations):
            relation = self.db.relation(relation_name)
            codes = relation.rows_at(relation.alive_slots()).codes
            rows = self.db.interner.decode_rows(codes)
            order = variable_order(relation_name, rows)
            vids = graph.add_named_variables([(relation_name, rows[i]) for i in order])
            relation.clear_vids()
            relation.set_vids(codes[order], vids)

    def apply_evidence(self, graph: FactorGraph) -> None:
        """Clamp every variable its ``R_Ev`` rows label; a positive label
        wins a conflict, whatever the row order."""
        for relation_name in self.program.variable_relations:
            ev_name = relation_name + EVIDENCE_SUFFIX
            if not self.db.has_relation(ev_name):
                continue
            evidence = self.db.relation(ev_name)
            codes = evidence.rows_at(evidence.alive_slots()).codes
            vids = self.db.relation(relation_name).vids_of(codes[:, :-1])
            labels = self.db.interner.decode(codes[:, -1])
            for vid, label in zip(vids.tolist(), labels):
                if vid >= 0 and (label or graph.evidence_value(vid) is None):
                    graph.set_evidence(vid, bool(label))

    def ground_inference_rule(self, rule: InferenceRule, graph: FactorGraph) -> FactorTable:
        """One inference rule's factors, from its full body's binding
        batch, as raw rule columns (:func:`ground_rule_batch`)."""
        return ground_rule_batch(
            rule,
            sem_code(self.program.semantics_of(rule)),
            full_body_batch(self.db, rule),
            self.db,
            self.program.variable_relations,
            graph.weights,
        )

    # ------------------------------------------------------------------ #

    def ground(self) -> GroundingResult:
        """Run all phases and return the grounded graph + seed columns."""
        self.run_derivation_rules()
        graph = FactorGraph()
        self.create_variables(graph)
        self.apply_evidence(graph)
        tables, spans = [], []
        for rule in self.program.inference_rules:
            table = self.ground_inference_rule(rule, graph)
            tables.append(table)
            spans.append((rule.name, self.program.semantics_of(rule), table.num_rules))
        # Every id was resolved through a vid column or interned in
        # ``graph.weights``, so the columns need no validate() pass.
        raw = FactorTable.concat(tables)
        graph.factors = FactorList(raw.canonical())
        return GroundingResult(graph=graph, raw_rules=raw, rule_spans=spans)
