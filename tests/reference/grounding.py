"""From-scratch grounding, one binding at a time (paper §2.5, Fig. 3).

:func:`reference_ground` is the one grounding oracle: derivation rules in
stratified order, a variable per visible tuple, evidence, one factor per
``(rule, head variable, weight key)`` — every join through
:func:`tests.reference.query.evaluate_query`.  It shares no code with
``repro.grounding`` beyond the rule AST, so "replay the updates on a
fresh database, ground it here, compare canonical forms" checks
*incremental ≡ from-scratch* and *columnar ≡ tuple-at-a-time* at once.
"""

from __future__ import annotations

from repro.datalog.ast import EVIDENCE_SUFFIX
from repro.db.query import Var
from repro.graph.factor_graph import FactorGraph

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
