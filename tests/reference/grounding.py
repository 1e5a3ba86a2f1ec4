"""From-scratch grounding, one binding at a time (paper §2.5, Fig. 3).

:func:`reference_ground` is the one grounding oracle: derivation rules in
stratified order, a variable per visible tuple, evidence, one factor per
``(rule, head variable, weight key)`` — every join through
:func:`tests.reference.query.evaluate_query`.  It shares no code with
``repro.grounding`` beyond the rule AST, so "replay the updates on a
fresh database, ground it here, compare canonical forms" checks
*incremental ≡ from-scratch* and *columnar ≡ tuple-at-a-time* at once.

:func:`fold_ground` is the full ground as the package ran it before it
folded binding batches straight into factor-table columns: every batch
folds into ``FactorRecord`` objects holding literal tuples, one
``RuleFactor`` per record, and ``lower_factors`` of those objects is
what ``Grounder.ground()``'s table must equal column by column — factor
order, grounding order and weight-intern order included.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.datalog.ast import EVIDENCE_SUFFIX
from repro.db.columnar import pack_rows
from repro.db.query import Var
from repro.graph.factor_graph import FactorGraph, RuleFactor
from repro.grounding.grounder import (
    _BATCH_VECTOR_THRESHOLD,
    FactorRecord,
    Grounder,
    VariableCodeResolver,
    full_body_batch,
)

from tests.reference.query import evaluate_query


def _instantiate(atom, binding) -> tuple:
    return tuple(binding[a.name] if isinstance(a, Var) else a for a in atom.args)


def reference_ground(program, db) -> FactorGraph:
    """Ground ``program`` over ``db``; derived relations are written into
    ``db`` (pass a copy to keep the base state)."""
    for rule in program.stratified_derivation_rules():
        head = db.relation(rule.head.pred)
        for binding, _sign in evaluate_query(db, rule.body):
            for expanded in rule.expanded_bindings(binding):
                head.insert(rule.head_tuple(expanded))

    graph = FactorGraph()
    variable_of: dict = {}
    for name in sorted(program.variable_relations):
        names = [(name, row) for row in sorted(db.relation(name).rows())]
        variable_of.update(zip(names, graph.add_named_variables(names)))
        evidence = name + EVIDENCE_SUFFIX
        if not db.has_relation(evidence):
            continue
        # Negative labels first, so a positive one wins a conflict.
        for row in sorted(db.relation(evidence).rows(), key=lambda r: bool(r[-1])):
            vid = variable_of.get((name, row[:-1]))
            if vid is not None:
                graph.set_evidence(vid, bool(row[-1]))

    for rule in program.inference_rules:
        literal_atoms = [
            (atom, pos not in rule.negated_positions)
            for pos, atom in enumerate(rule.body)
            if atom.pred in program.variable_relations
        ]
        groups: dict = {}
        for binding, _sign in evaluate_query(db, rule.body):
            weight_id = graph.weights.intern(
                rule.weight.key_for(rule.name, binding),
                initial=rule.weight.value,
                fixed=rule.weight.fixed,
            )
            head = variable_of[(rule.head.pred, rule.head_tuple(binding))]
            groups.setdefault((head, weight_id), []).append(
                tuple(
                    (variable_of[(atom.pred, _instantiate(atom, binding))], positive)
                    for atom, positive in literal_atoms
                )
            )
        for (head, weight_id), groundings in groups.items():
            graph.add_rule_factor(
                weight_id, head, groundings, program.semantics_of(rule)
            )
    graph.validate()
    return graph


def replay(program, db, update: dict) -> None:
    """Apply one ``apply_update`` payload to a never-grounded
    ``(program, db)`` pair: rule changes to the program, row changes to
    the base relations."""
    for rule in update.get("add_derivation_rules", ()):
        program.register_derivation_rule(rule)
    for rule in update.get("add_inference_rules", ()):
        program.register_inference_rule(rule)
    for rule in update.get("remove_inference_rules", ()):
        program.remove_inference_rule(getattr(rule, "name", rule))
    for name, rows in (update.get("inserts") or {}).items():
        for row in rows:
            db.relation(name).insert(row)
    for name, rows in (update.get("deletes") or {}).items():
        for row in rows:
            db.relation(name).delete(row)


# ---------------------------------------------------------------------- #
# The record fold
# ---------------------------------------------------------------------- #


def fold_ground(program, db) -> tuple:
    """Ground ``program`` over ``db`` through factor records; returns
    ``(graph, records)`` — ``graph.factors`` a list of raw ``RuleFactor``
    objects (literal tuples as the joins produced them), ``records``
    ``{(rule, head var, weight id): FactorRecord}`` with plain-list
    groundings and ``factor_index`` set."""
    grounder = Grounder(program, db)
    grounder.run_derivation_rules()
    graph = FactorGraph()
    variable_of, _tuple_of = grounder.create_variables(graph)
    grounder.apply_evidence(graph, variable_of)
    interner = db.columnar.interner
    resolver = VariableCodeResolver(interner, variable_of)
    records: dict = {}
    for rule in program.inference_rules:
        batch = full_body_batch(db, rule)
        semantics = program.semantics_of(rule)
        if batch.num_rows >= _BATCH_VECTOR_THRESHOLD:
            _fold_batch(
                rule, semantics, batch, interner, program.variable_relations,
                graph.weights, records, resolver,
            )
        else:
            _fold_rows(
                rule, semantics, batch, interner, program.variable_relations,
                variable_of, graph.weights, records,
            )
    for record in records.values():
        record.factor_index = len(graph.factors)
        graph.factors.append(
            RuleFactor(
                weight_id=record.weight_id,
                head=record.head_var,
                groundings=tuple(record.groundings),
                semantics=record.semantics,
            )
        )
    return graph, records


def _record(records, rule_name, semantics, head_var, weight_id) -> FactorRecord:
    key = (rule_name, head_var, weight_id)
    record = records.get(key)
    if record is None:
        record = records[key] = FactorRecord(
            rule_name=rule_name,
            head_var=head_var,
            weight_id=weight_id,
            semantics=semantics,
        )
    return record


def _fold_rows(
    rule, semantics, batch, interner, variable_relations, variable_of,
    weights, records,
) -> None:
    """A small batch, binding by binding: records in first-appearance
    order, weights interned as the bindings come."""
    decoded = {name: interner.decode(col) for name, col in batch.cols.items()}
    literal_atoms = [
        (atom, pos not in rule.negated_positions)
        for pos, atom in enumerate(rule.body)
        if atom.pred in variable_relations
    ]

    def args_of(atom, i):
        return tuple(
            decoded[a.name][i] if isinstance(a, Var) else a for a in atom.args
        )

    for i in range(batch.num_rows):
        literals = tuple(
            (variable_of[(atom.pred, args_of(atom, i))], positive)
            for atom, positive in literal_atoms
        )
        head_key = (rule.head.pred, args_of(rule.head, i))
        head_var = variable_of.get(head_key)
        if head_var is None:
            raise KeyError(
                f"inference rule {rule.name!r} derives head tuple "
                f"{head_key} that is not a grounded variable; add a "
                "candidate (derivation) rule that creates it"
            )
        weight_id = weights.intern(
            (rule.name, tuple(decoded[v][i] for v in rule.weight.tied_on)),
            initial=rule.weight.value,
            fixed=rule.weight.fixed,
        )
        _record(records, rule.name, semantics, head_var, weight_id).groundings.append(
            literals
        )


def _code_matrix(batch, interner, args) -> np.ndarray:
    matrix = np.empty((batch.num_rows, len(args)), dtype=np.int32)
    for i, arg in enumerate(args):
        if isinstance(arg, Var):
            matrix[:, i] = batch.cols[arg.name]
        else:
            matrix[:, i] = interner.intern(arg)
    return matrix


def _intern_tied(rule, batch, interner, weights, rows) -> list:
    """Weight ids of the tied-value rows ``rows`` of the batch, interned
    in that order."""
    return [
        weights.intern(
            (
                rule.name,
                tuple(interner.decode(np.array([batch.cols[v][row] for v in rule.weight.tied_on]))),
            ),
            initial=rule.weight.value,
            fixed=rule.weight.fixed,
        )
        for row in rows
    ]


def _fold_batch(
    rule, semantics, batch, interner, variable_relations, weights, records,
    resolver,
) -> None:
    """A large batch over arrays: a literal-free rule groups its raw
    (head, tied) code rows (``np.unique`` order), any other rule its
    ``(head, weight)`` pairs (stable sort on ``head << 31 | wid``, or row
    order when every binding is its own record)."""
    m = batch.num_rows
    has_literals = any(atom.pred in variable_relations for atom in rule.body)
    if not has_literals:
        head_width = len(rule.head.args)
        tied = np.stack(
            [batch.cols[v] for v in rule.weight.tied_on], axis=1
        ) if rule.weight.tied_on else np.empty((m, 0), dtype=np.int32)
        matrix = np.concatenate(
            [_code_matrix(batch, interner, rule.head.args), tied], axis=1
        ).astype(np.int32)
        _, first, counts = np.unique(
            pack_rows(matrix), return_index=True, return_counts=True
        )
        head_vids = resolver.resolve(
            rule.name, rule.head.pred, matrix[first][:, :head_width]
        ).tolist()
        if rule.weight.tied_on:
            wids = _intern_tied(rule, batch, interner, weights, first.tolist())
        else:
            wids = [
                weights.intern(
                    (rule.name, ()), initial=rule.weight.value, fixed=rule.weight.fixed
                )
            ] * len(first)
        for gi, count in enumerate(counts.tolist()):
            _record(
                records, rule.name, semantics, head_vids[gi], wids[gi]
            ).groundings.extend([()] * count)
        return
    head_vids = resolver.resolve(
        rule.name, rule.head.pred, _code_matrix(batch, interner, rule.head.args)
    )
    if rule.weight.tied_on:
        tied = np.stack([batch.cols[v] for v in rule.weight.tied_on], axis=1)
        _, first, inverse = np.unique(
            pack_rows(tied.astype(np.int32)), return_index=True, return_inverse=True
        )
        wids = np.array(
            _intern_tied(rule, batch, interner, weights, first.tolist()),
            dtype=np.int64,
        )[inverse]
    else:
        wids = np.full(
            m,
            weights.intern(
                (rule.name, ()), initial=rule.weight.value, fixed=rule.weight.fixed
            ),
            dtype=np.int64,
        )
    pair_lists = [
        list(
            zip(
                resolver.resolve(
                    rule.name,
                    atom.pred,
                    _code_matrix(batch, interner, atom.args),
                    is_head=False,
                ).tolist(),
                itertools.repeat(pos not in rule.negated_positions),
            )
        )
        for pos, atom in enumerate(rule.body)
        if atom.pred in variable_relations
    ]
    literals = list(zip(*pair_lists))
    heads, wid_list = head_vids.tolist(), wids.tolist()
    group_codes = (head_vids << 31) | wids
    order = np.argsort(group_codes, kind="stable")
    ordered = group_codes[order]
    boundaries = np.flatnonzero(ordered[1:] != ordered[:-1])
    if len(boundaries) + 1 == m:
        for i in range(m):
            _record(records, rule.name, semantics, heads[i], wid_list[i]).groundings.append(
                literals[i]
            )
        return
    starts = np.concatenate(([0], boundaries + 1, [m])).tolist()
    order = order.tolist()
    for lo, hi in zip(starts, starts[1:]):
        row0 = order[lo]
        _record(records, rule.name, semantics, heads[row0], wid_list[row0]).groundings.extend(
            literals[i] for i in order[lo:hi]
        )
