"""Incremental grounding: delta rules over the counting algorithm (§3.1).

DeepDive maintains, for every relation, derivation counts (DRed's delta
relations); on an update it propagates *visibility transitions* (tuples
appearing/disappearing) through the stratified derivation rules and then
re-joins only the changed part of each inference rule's body to produce
the modified variables ∆V and factors ∆F.

A rule's binding delta is the DBSP/DRed-style k-term old/new
factorization::

    Δ(A₁ ⋈ … ⋈ A_k) = Σ_i A^new_{<i} ⋈ Δ_i ⋈ A^old_{>i}

driven by k compiled plans per rule (cached like the full-ground
``JoinPlan``s) whose ``>i`` steps probe *old-state table views* read off
the update's write log (:meth:`~repro.db.columnar.ColumnarStore.old_view`)
— **linear** in body arity, where expanding the same delta over the new
state alone (``Σ_{∅≠S} (−1)^{|S|+1} ⋈_{i∈S} Δ_i ⋈_{i∉S} A_i^new``) takes
2^c−1 terms for c changed positions.  Tuple signs multiply through the
join and the terms telescope to the exact net signed multiset.  Because
the paper's programs are non-recursive, this specialisation of DRed is
exact — no over-deletion/rederivation pass is needed.

There is one such path.  What it must equal — after every update —
is the from-scratch, tuple-at-a-time ``reference_ground`` of the same
state (``tests/reference/``).

Program changes are handled in the same framework: an added rule's delta
is its full evaluation over the new state; a removed inference rule's
delta is the retraction of all its factors.

An update is undone whole: until the next one begins,
:meth:`IncrementalGrounder.rollback` puts the relations and grounding
tables (from their stores' O(|Δ|) write logs), the interner, the
program's rules, the graph and ``last_result`` back exactly as they
were.  ``apply_update`` rolls back on any exception; a ``KeyError`` or
``ValueError`` then leaves as
:class:`~repro.reliability.errors.UpdateRejected`.

An inference rule's groundings are a relation too: one signed-count
table per rule (:class:`~repro.db.relation.Relation` over
:class:`~repro.db.relation.RawIds`) with a row ``(head var, weight id,
lit var₁ … lit var_k)`` per distinct grounding — the rule fixes k and
each literal's polarity — and its multiplicity in the count column.  A
rule's delta terms are netted into one grouped batch, land in its table
with one ``apply_delta``, and every ``(head, weight)`` factor the batch
touches is rebuilt from the table's rows.  A weight key starts with its
rule's name, so ``(head, weight)`` names one factor of the graph.

The grounder splices each delta into its own lowered graph
(``delta.apply_in_place``) and hands the same delta to its consumer; a
compiled substrate is the engine's
(:class:`~repro.core.resident.ResidentGraph`), never the grounder's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.datalog.ast import EVIDENCE_SUFFIX
from repro.datalog.program import Program
from repro.db.columnar import ColumnarBatch, ColumnarStore, group_rows
from repro.db.database import Database
from repro.db.plan import canonicalize_batch
from repro.db.relation import RawIds, Relation
from repro.graph.delta import FactorGraphDelta, FactorList, FactorTable, rule_table
from repro.graph.factor_graph import FactorGraph
from repro.graph.semantics import sem_code
from repro.reliability.errors import UpdateRejected
from repro.reliability.faults import maybe_fire
from repro.grounding.grounder import (
    Grounder,
    GroundingResult,
    binding_rows,
    full_body_batch,
    literal_polarities,
    signed_head_counts,
    variable_order,
)


@dataclass
class UpdateResult:
    """What one incremental update produced: the delta, and the
    grounder's graph with that delta spliced in place."""

    delta: FactorGraphDelta
    graph: FactorGraph

    @property
    def summary(self) -> str:
        return self.delta.summary()


class _UpdateUndo(NamedTuple):
    """What an update rebinds or appends to, as it was when it began."""

    interner_size: int
    rules: tuple  # copies of the derivation and inference rule lists
    grounding_tables: dict
    last_result: UpdateResult | None
    num_vars: int
    num_weights: int
    factors: FactorList
    evidence: dict  # var -> its evidence before the splice clamped it


def _fused_delta_batches(db: Database, body, transitions: dict, batches: dict):
    """Yield the fused delta terms of a body join, one binding batch per
    *changed* body position ``i``.

    ``transitions`` maps relation name → the signed code batch of its
    visibility transitions this update.  Each term drives the cached
    fused plan whose step ``i`` consumes that batch
    (``new_{<i} ⋈ Δ_i ⋈ old_{>i}``).  Positions whose predicate did not
    change contribute no term (their Δ is empty and old = new), so the
    surviving terms telescope to the exact net delta.  ``batches``
    memoizes the hand-off of one batch per predicate across all k plans
    of *all* rules in the update (counted as ``delta_batch_builds``).
    """
    changed_positions = [
        i for i, atom in enumerate(body) if atom.pred in transitions
    ]
    if not changed_positions:
        return
    store = db.columnar
    plans = store.delta_plans(tuple(body))
    for i in changed_positions:
        pred = body[i].pred
        batch = batches.get(pred)
        if batch is None:
            batch = batches[pred] = transitions[pred]
            store.stats["delta_batch_builds"] += 1
        yield canonicalize_batch(plans[i].execute(store, db, sources={i: batch}))


class IncrementalGrounder:
    """Owns the current grounding and evolves it under updates.

    Use :meth:`from_scratch` to ground initially, then call
    :meth:`apply_update` per development iteration; each call returns the
    :class:`FactorGraphDelta` (for incremental inference) and the updated
    graph, and advances the grounder's internal state — revocably, by
    :meth:`rollback`, until the next call begins.
    """

    def __init__(
        self,
        program: Program,
        db: Database,
        grounding: GroundingResult,
    ):
        self.program = program
        self.db = db
        self.graph = grounding.graph
        #: the grounding tables' undo log and deferred compactions
        self._table_store = ColumnarStore(RawIds())
        #: rule name -> the rule's grounding table (module docstring)
        self.grounding_tables = self._seeded_tables(
            grounding.raw_rules, grounding.rule_spans
        )
        #: the most recent :class:`UpdateResult`
        self.last_result: UpdateResult | None = None
        #: what undoes the last update, until the next one begins
        self._undo: _UpdateUndo | None = None

    def __getstate__(self) -> dict:
        # A checkpoint follows a commit: the undo does not travel.
        state = dict(self.__dict__)
        state["_undo"] = None
        return state

    @classmethod
    def from_scratch(cls, program: Program, db: Database) -> "IncrementalGrounder":
        return cls(program, db, Grounder(program, db).ground())

    def _grounding_table(self, rule) -> Relation:
        """An empty grounding table for ``rule``."""
        k = len(literal_polarities(rule, self.program.variable_relations))
        columns = ("head", "wid", *(f"lit{i}" for i in range(k)))
        return Relation(rule.name, columns, RawIds(), self._table_store)

    def _seeded_tables(self, raw: FactorTable, spans) -> dict:
        """Every inference rule's grounding table, filled from a full
        ground's raw rule columns (``spans``: each rule's run of rows)."""
        rules = {rule.name: rule for rule in self.program.inference_rules}
        row_ends = np.cumsum([count for *_, count in spans], dtype=np.int64)
        grounding_ends = np.searchsorted(raw.grounding_ri, row_ends)
        literal_ends = np.searchsorted(raw.lit_gg, grounding_ends)
        tables: dict = {}
        g0 = l0 = 0
        for (name, *_), g1, l1 in zip(
            spans, grounding_ends.tolist(), literal_ends.tolist()
        ):
            table = tables[name] = self._grounding_table(rules[name])
            owner = raw.grounding_ri[g0:g1]
            lits = raw.lit_var[l0:l1].reshape(g1 - g0, table.arity - 2)
            rows = np.column_stack([raw.rule_head[owner], raw.rule_wid[owner], lits])
            table.apply_delta(
                ColumnarBatch(rows, np.ones(g1 - g0, dtype=np.int64)).grouped()
            )
            g0, l0 = g1, l1
        return tables

    # ------------------------------------------------------------------ #
    # The update entry point
    # ------------------------------------------------------------------ #

    def apply_update(
        self,
        inserts: dict | None = None,
        deletes: dict | None = None,
        add_derivation_rules=(),
        add_inference_rules=(),
        remove_inference_rules=(),
    ) -> UpdateResult:
        """Process one development iteration's changes.

        ``inserts``/``deletes`` map base-relation names to lists of rows.
        Rules are :class:`DerivationRule` / :class:`InferenceRule`
        instances (or names, for removal).  Any exception rolls the
        update back (:meth:`rollback`); an update that names an unknown
        relation, has a row of the wrong arity, deletes more than is
        stored, makes an invalid rule change or leaves a factor without
        its head variable raises
        :class:`~repro.reliability.errors.UpdateRejected` (a ``KeyError``
        or ``ValueError``).
        """
        self._begin_update()
        try:
            maybe_fire("ground.update.start")
            result = self._apply_update(
                inserts or {},
                deletes or {},
                add_derivation_rules,
                add_inference_rules,
                remove_inference_rules,
            )
        except Exception as error:
            self.rollback()
            if isinstance(error, (KeyError, ValueError)):
                raise UpdateRejected.of(error) from error
            raise
        self.db.columnar.end_update()
        return result

    def _begin_update(self) -> None:
        """Drop the last update's undo and open this one's."""
        self._undo = None
        self.db.columnar.begin_update()
        self._table_store.begin_update()
        program, graph = self.program, self.graph
        self._undo = _UpdateUndo(
            len(self.db.interner),
            (list(program.derivation_rules), list(program.inference_rules)),
            dict(self.grounding_tables),
            self.last_result,
            graph.num_vars,
            len(graph.weights),
            graph.factors,
            {},
        )

    def rollback(self) -> None:
        """Undo the last :meth:`apply_update` whole — a no-op once the
        next one has begun, or after a rollback."""
        undo, self._undo = self._undo, None
        if undo is None:
            return
        self.db.columnar.rollback()
        self._table_store.rollback()
        self.db.interner.truncate(undo.interner_size)
        self.program.derivation_rules, self.program.inference_rules = undo.rules
        self.grounding_tables.clear()
        self.grounding_tables.update(undo.grounding_tables)
        self.last_result = undo.last_result
        graph = self.graph
        graph.factors = undo.factors
        for var, value in undo.evidence.items():
            if value is None:
                graph.clear_evidence(var)
            else:
                graph.set_evidence(var, value)
        graph.truncate_variables(undo.num_vars)
        graph.weights.truncate(undo.num_weights)

    def _rule_delta_batches(self, rule, new_rule_names, transitions, delta_batches):
        """The binding batches whose signed sum is ``rule``'s delta.

        A rule registered by this update evaluates its full body over the
        new state; a rule that was already registered drives one fused
        term per changed body position (none when nothing it reads
        changed).  Derivation and inference rules make the same choice.
        """
        if rule.name in new_rule_names:
            return (full_body_batch(self.db, rule),)
        return _fused_delta_batches(self.db, rule.body, transitions, delta_batches)

    def _apply_update(
        self,
        inserts,
        deletes,
        add_derivation_rules,
        add_inference_rules,
        remove_inference_rules,
    ) -> UpdateResult:
        # ---- 1. Change the rules and make the base-relation visibility
        # transitions.
        rule_changes = tuple(
            map(tuple, (add_derivation_rules, add_inference_rules, remove_inference_rules))
        )
        self.program.change_rules(*rule_changes)
        added_derivations, added_rules, removed_rules = rule_changes
        new_derivation_names = {rule.name for rule in added_derivations}
        new_rule_names = {rule.name for rule in added_rules}
        all_transitions: dict = {}
        for name in dict.fromkeys([*inserts, *deletes]):
            relation = self.db.relation(name)
            plus, minus = list(inserts.get(name, ())), list(deletes.get(name, ()))
            batch = relation.encode(
                plus + minus, np.repeat([1, -1], [len(plus), len(minus)])
            )
            self._record(all_transitions, relation, relation.apply_delta(batch))

        # ---- 2. Propagate through derivation rules in stratified order:
        # each head's signed code rows, netted across its rules, land in
        # one ``apply_delta`` whose transitions the next strata consume.
        #: per-relation delta batches handed to fused plans, memoized
        #: across rules in this update; dropped when a relation's
        #: transitions change.
        delta_batches: dict = {}
        rules_by_head: dict = {}
        for rule in self.program.stratified_derivation_rules():
            rules_by_head.setdefault(rule.head.pred, []).append(rule)
        for head_name in self._derived_relation_order():
            parts = [
                signed_head_counts(self.db, rule, batch)
                for rule in rules_by_head.get(head_name, ())
                for batch in self._rule_delta_batches(
                    rule, new_derivation_names, all_transitions, delta_batches
                )
                if batch.num_rows
            ]
            parts = [part for part in parts if part.num_rows]
            if not parts:
                continue
            head_delta = ColumnarBatch.concat(parts)
            if len(parts) > 1:
                head_delta = head_delta.grouped()
                if not head_delta.num_rows:
                    continue
            relation = self.db.relation(head_name)
            if self._record(all_transitions, relation, relation.apply_delta(head_delta)):
                delta_batches.pop(head_name, None)  # batch now stale

        # ---- 3. Variable relation transitions -> ∆V: an appearing row's
        # new id goes into its slot of the relation's vid column.  A
        # removed row keeps its id there until the factor deltas are
        # joined (their retraction bindings need it); it is cleared after.
        delta = FactorGraphDelta()
        removed_vars: set = set()
        removed_rows: list = []  # (relation, code rows) to clear
        new_var_offset: dict = {}
        for name in sorted(self.program.variable_relations):
            flipped = all_transitions.get(name)
            if flipped is None:
                continue
            relation = self.db.relation(name)
            rows = self.db.interner.decode_rows(flipped.codes)
            signs = flipped.signs.tolist()
            order = variable_order(name, rows)
            appeared = [i for i in order if signs[i] > 0]
            first = self.graph.num_vars + delta.num_new_vars
            relation.set_vids(
                flipped.codes[appeared], np.arange(first, first + len(appeared))
            )
            # A candidate appearing after its labels picks up the
            # pre-existing evidence rows.
            labels = self._evidence_labels(name, flipped.codes[appeared])
            for i, value in zip(appeared, labels):
                offset = delta.num_new_vars
                delta.num_new_vars += 1
                delta.new_var_names.append((name, rows[i]))
                new_var_offset[self.graph.num_vars + offset] = offset
                if value is not None:
                    delta.new_var_evidence[offset] = value
            gone = flipped.codes[[i for i in order if signs[i] < 0]]
            removed_vars.update(relation.vids_of(gone).tolist())
            removed_rows.append((relation, gone))

        # ---- 4. Evidence transitions (db is fully in its new state now).
        self._apply_evidence_transitions(delta, all_transitions, new_var_offset)

        # ---- 5. Inference-rule factor deltas.  A removed rule retracts
        # all its factors.  Every other rule nets its delta terms into one
        # grouped batch of grounding rows — a term may retract a grounding
        # a later term re-inserts — lands it in its table, and rebuilds the
        # factors it touched from the table.  Groundings that referenced a
        # removed variable are retracted here naturally: the variable's
        # tuple disappeared from its relation, so the delta join emits the
        # matching negative bindings.
        tables = self.grounding_tables
        touched: list = []  # (head, weight id) rows of every touched factor
        for name in {getattr(rule, "name", rule) for rule in removed_rules}:
            table = tables.pop(name)
            touched.append(table.rows_at(table.alive_slots()).codes[:, :2])
        weights = self.graph.weights  # a weight new to it is the delta's
        variable_relations = self.program.variable_relations
        rebuilt: dict = {}  # (rule, head, weight id) -> groundings
        sems: dict = {}
        for rule in self.program.inference_rules:
            if rule.name in new_rule_names:
                tables[rule.name] = self._grounding_table(rule)
            parts = [
                binding_rows(rule, batch, self.db, variable_relations, weights)
                for batch in self._rule_delta_batches(
                    rule, new_rule_names, all_transitions, delta_batches
                )
                if batch.num_rows
            ]
            if not parts:
                continue
            rows = ColumnarBatch.concat(parts).grouped()
            if not rows.num_rows:
                continue
            table = tables[rule.name]
            table.apply_delta(rows)
            touched.append(rows.codes[:, :2])
            polarities = literal_polarities(rule, variable_relations)
            for (head, wid), groundings in _groundings_of(
                table, rows, polarities, self.graph.num_vars
            ).items():
                rebuilt[rule.name, head, wid] = groundings
            sems[rule.name] = sem_code(self.program.semantics_of(rule))
        delta.new_weight_entries = [
            (weights.key_for(wid), weights.value(wid), weights.is_fixed(wid))
            for wid in range(self._undo.num_weights, len(weights))
        ]

        # ---- 6. (∆F): every touched factor is rebuilt — its old factor
        # removed, and, while it has groundings, the new one appended.
        if touched:
            delta.removed_factor_ids = self._factor_ids(np.concatenate(touched))
        if removed_vars:
            self._check_heads(removed_vars, delta.removed_factor_ids, rebuilt)
        for relation, gone in removed_rows:
            relation.set_vids(gone, -1)
        keys = sorted(rebuilt, key=str)
        delta.new_factors = rule_table(
            [head for _, head, _ in keys],
            [wid for *_, wid in keys],
            [sems[name] for name, *_ in keys],
            [rebuilt[key] for key in keys],
        )

        # Tombstone removed variables: clamp them false so any residual
        # reference contributes nothing.
        for var in removed_vars:
            delta.evidence_updates[var] = False

        # ---- 7. Splice.  The O(graph) invariant walk is skipped: the
        # grounder constructs deltas from resolved variable ids and
        # interned weights.
        self._undo.evidence.update(
            (var, self.graph.evidence_value(var)) for var in delta.evidence_updates
        )
        delta.apply_in_place(self.graph)
        result = UpdateResult(delta=delta, graph=self.graph)
        self.last_result = result
        maybe_fire("ground.update.finish")
        return result

    def _factor_ids(self, pairs: np.ndarray) -> set:
        """Ids of the graph's factors named by ``(head, weight id)``
        rows.  The grounder's graph holds rule factors only, so a rule
        row of its factor table is a factor id."""
        table = self.graph.factor_table()
        named = (table.rule_head << 31) | table.rule_wid
        wanted = (pairs[:, 0].astype(np.int64) << 31) | pairs[:, 1]
        return set(np.flatnonzero(np.isin(named, wanted)).tolist())

    def _check_heads(self, removed_vars: set, removed_ids: set, rebuilt: dict) -> None:
        """Raise the full ground's "not a grounded variable" ``KeyError``
        when a factor outlives its head variable — a rule whose body does
        not imply its head candidate: a rebuilt factor that keeps
        groundings, or an untouched one, on a removed variable.  The
        update then rolls back and leaves as a rejection."""
        table = self.graph.factor_table()
        left = np.isin(table.rule_head, list(removed_vars))
        left[list(removed_ids)] = False
        orphans = [(name, head) for name, head, _ in rebuilt if head in removed_vars] + [
            (self.graph.weights.key_for(wid)[0], head)
            for head, wid in zip(table.rule_head[left].tolist(), table.rule_wid[left].tolist())
        ]
        if orphans:
            name, head = orphans[0]
            raise KeyError(
                f"inference rule {name!r} derives head tuple "
                f"{self.graph.name_of(head)} that is not a grounded variable; "
                "add a candidate (derivation) rule that creates it"
            )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _derived_relation_order(self) -> list:
        """Derived relations in dependency order (deduped, stable)."""
        seen = []
        for rule in self.program.stratified_derivation_rules():
            if rule.head.pred not in seen:
                seen.append(rule.head.pred)
        return seen

    @staticmethod
    def _record(transitions: dict, relation, flipped: ColumnarBatch) -> bool:
        """Fold ``relation``'s visibility transitions into
        ``transitions``; True when there were any."""
        if not flipped.num_rows:
            return False
        prior = transitions.get(relation.name)
        if prior is not None:
            flipped = ColumnarBatch.concat([prior, flipped]).grouped()
        transitions[relation.name] = flipped
        return True

    def _evidence_labels(self, name: str, codes: np.ndarray) -> list:
        """The evidence label of each variable code row under the
        current db state (``None`` where unlabelled) — one index probe
        on the relation's ``R_Ev``.  A positive label wins a conflict."""
        labels = [None] * len(codes)
        ev_name = name + EVIDENCE_SUFFIX
        if not len(codes) or not self.db.has_relation(ev_name):
            return labels
        evidence = self.db.relation(ev_name)
        width = codes.shape[1]
        probe_idx, slots = evidence.probe(tuple(range(width)), codes)
        values = self.db.interner.decode(evidence.codes_at(slots, width))
        for i, value in zip(probe_idx.tolist(), values):
            labels[i] = labels[i] is True or bool(value)
        return labels

    def _apply_evidence_transitions(
        self, delta: FactorGraphDelta, transitions: dict, new_var_offset: dict
    ) -> None:
        for name in self.program.variable_relations:
            changed = transitions.get(name + EVIDENCE_SUFFIX)
            if changed is None:
                continue
            var_codes = changed.codes[:, :-1]
            var_codes = var_codes[group_rows(var_codes)[0]]
            vids = self.db.relation(name).vids_of(var_codes).tolist()
            # Evidence about a non-candidate tuple clamps nothing.
            known = [i for i, vid in enumerate(vids) if vid >= 0]
            for i, value in zip(known, self._evidence_labels(name, var_codes[known])):
                vid = vids[i]
                if vid in new_var_offset:
                    if value is not None:
                        delta.new_var_evidence[new_var_offset[vid]] = value
                elif self.graph.evidence_value(vid) != value:
                    delta.evidence_updates[vid] = value


def _groundings_of(table: Relation, rows: ColumnarBatch, polarities, first_new_var) -> dict:
    """``{(head, weight id): groundings}`` of the factors ``rows`` (just
    applied to the rule's ``table``) touched that still have groundings:
    a factor's rows in slot order, each repeated by its count, as
    ``(var, positive)`` literals with the rule's ``polarities``.

    A factor whose head variable is new this update has only the rows
    ``rows`` brought, appended in batch order, so it skips the probe.
    Probing it too gives the same rows but keeps a ``(head, weight)``
    index that insert-only streams otherwise never build: on the e2e
    ``stream_insert`` workload (2-CPU x86 box, 8 alternating pairs) that
    costs +6.7 % op p50, +11.8 % op p90 and +8.1 % run time, slower in
    every pair."""
    old = rows.codes[:, 0] < first_new_var
    if old.any():
        factors = rows.codes[old, :2]
        _, slots = table.probe((0, 1), factors[group_rows(factors)[0]])
        new = ~old
        rows = ColumnarBatch.concat(
            [table.rows_at(np.unique(slots)), ColumnarBatch(rows.codes[new], rows.signs[new])]
        )
    groundings: dict = {}
    for (head, wid, *lits), count in zip(rows.codes.tolist(), rows.signs.tolist()):
        groundings.setdefault((head, wid), []).extend(
            [tuple(zip(lits, polarities))] * count
        )
    return groundings
