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
``JoinPlan``s) whose ``>i`` steps probe *old-state table views* captured
at the update's ``apply_delta`` boundaries — **linear** in body arity,
where expanding the same delta over the new state alone
(``Σ_{∅≠S} (−1)^{|S|+1} ⋈_{i∈S} Δ_i ⋈_{i∉S} A_i^new``) takes 2^c−1 terms
for c changed positions.  Tuple signs multiply through the join and the
terms telescope to the exact net signed multiset.  Because the paper's
programs are non-recursive, this specialisation of DRed is exact — no
over-deletion/rederivation pass is needed.

There is one such path.  What it must equal — after every update —
is the from-scratch, tuple-at-a-time ``reference_ground`` of the same
state (``tests/reference/``).

Program changes are handled in the same framework: an added rule's delta
is its full evaluation over the new state; a removed inference rule's
delta is the retraction of all its factors.

The grounder splices each delta into its own lowered graph
(``delta.apply_in_place``) and hands the same delta to its consumer; a
compiled substrate is the engine's
(:class:`~repro.core.resident.ResidentGraph`), never the grounder's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datalog.ast import EVIDENCE_SUFFIX
from repro.datalog.program import Program
from repro.db.columnar import ColumnarBatch, group_rows
from repro.db.database import Database
from repro.db.plan import canonicalize_batch
from repro.graph.delta import KIND_RULE, FactorGraphDelta, FactorList, rule_table
from repro.graph.factor_graph import FactorGraph
from repro.graph.semantics import sem_code
from repro.reliability.faults import maybe_fire
from repro.grounding.grounder import (
    FactorRecord,
    Grounder,
    GroundingMultiset,
    GroundingResult,
    RuleDeltaAccumulator,
    VariableCodeResolver,
    apply_rule_binding_batch,
    full_body_batch,
    signed_head_counts,
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
    graph, and advances the grounder's internal state.
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
        self.variable_of = grounding.variable_of
        self.records = grounding.factor_records
        # Promote freshly grounded records (plain lists) to counted
        # multisets so retraction deltas fold in O(|Δ|), not O(n) each.
        for record in self.records.values():
            if not isinstance(record.groundings, GroundingMultiset):
                record.groundings = GroundingMultiset(record.groundings)
        self._records_by_var: dict = {}
        for key, record in self.records.items():
            for var in self._record_vars(record):
                self._records_by_var.setdefault(var, set()).add(key)
        #: factor index -> record key, maintained across deltas so
        #: re-indexing after a compaction is one list pass, not an
        #: O(#factors) mapping dict + full registry walk.
        self._factor_keys: list = [None] * self.graph.num_factors
        for key, record in self.records.items():
            if record.factor_index >= 0:
                self._factor_keys[record.factor_index] = key
        #: persistent vectorized (relation, row) → vid maps; kept in sync
        #: as variables appear/disappear so updates never rebuild them.
        self._code_resolver = VariableCodeResolver(
            db.interner, self.variable_of
        )
        #: the most recent :class:`UpdateResult` — stashed *before* the
        #: ``ground.update.finish`` injection point so a failure between
        #: grounding and downstream application can resume without
        #: re-running the (non-idempotent) relation deltas.
        self.last_result: UpdateResult | None = None

    @classmethod
    def from_scratch(cls, program: Program, db: Database) -> "IncrementalGrounder":
        return cls(program, db, Grounder(program, db).ground())

    @staticmethod
    def _record_vars(record: FactorRecord):
        seen = {record.head_var}
        for grounding in record.groundings:
            for var, _pos in grounding:
                seen.add(var)
        return seen

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
        instances (or names, for removal).
        """
        inserts = inserts or {}
        deletes = deletes or {}
        # Fires before any relation is mutated: a failure here leaves the
        # grounder (db, records, graph) exactly as it was.
        maybe_fire("ground.update.start")
        # Relations some fused plan may probe in their old state, from the
        # rules registered *before* this update (added rules evaluate
        # fully over new state): each is captured right before the first
        # ``apply_delta`` that flips one of its rows.
        self.db.columnar.begin_update(self._body_predicates())
        try:
            return self._apply_update(
                inserts,
                deletes,
                add_derivation_rules,
                add_inference_rules,
                remove_inference_rules,
            )
        finally:
            # Old-state views live exactly one update; releasing them
            # unpins their fences (and keeps the store picklable for
            # service checkpoints between updates).
            self.db.columnar.release_views()

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
        # ---- 1. Base-relation visibility transitions.  Every relation's
        # rows are encoded and its counts validated before any relation
        # is touched, so a rejected update leaves the database — its
        # interner included — exactly as it was.
        interner = self.db.interner
        mark = len(interner)
        base: list = []
        try:
            for name in dict.fromkeys([*inserts, *deletes]):
                relation = self.db.relation(name)
                plus, minus = list(inserts.get(name, ())), list(deletes.get(name, ()))
                batch = relation.encode(
                    plus + minus, np.repeat([1, -1], [len(plus), len(minus)])
                )
                if minus:  # only a delete can exceed the derivations stored
                    short = relation.counts_of(batch.codes) + batch.signs < 0
                    if short.any():
                        (row,) = interner.decode_rows(batch.codes[short][:1])
                        raise KeyError(
                            f"update deletes more derivations of {row!r} from "
                            f"{name!r} than exist"
                        )
                base.append((relation, batch))
        except BaseException:
            interner.truncate(mark)
            raise
        all_transitions: dict = {}
        for relation, batch in base:
            self._record(all_transitions, relation, relation.apply_delta(batch))

        # ---- 2. Register new derivation rules.
        new_derivation_names = set()
        for rule in add_derivation_rules:
            self.program.register_derivation_rule(rule)
            new_derivation_names.add(rule.name)

        # ---- 3. Propagate through derivation rules in stratified order:
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

        # ---- 4. Variable relation transitions -> ∆V.  Removed tuples stay
        # resolvable in ``variable_of`` until the factor deltas are joined
        # (their retraction bindings need the ids); they are dropped in
        # step 7.
        delta = FactorGraphDelta()
        removed_vars: set = set()
        new_var_offset: dict = {}
        for name in sorted(self.program.variable_relations):
            flipped = all_transitions.get(name)
            if flipped is None:
                continue
            rows = self.db.interner.decode_rows(flipped.codes)
            signs = flipped.signs.tolist()
            order = sorted(range(len(rows)), key=rows.__getitem__)
            appeared = [i for i in order if signs[i] > 0]
            # A candidate appearing after its labels picks up the
            # pre-existing evidence rows.
            labels = self._evidence_labels(name, flipped.codes[appeared])
            for i, value in zip(appeared, labels):
                offset = delta.num_new_vars
                delta.num_new_vars += 1
                delta.new_var_names.append((name, rows[i]))
                vid = self.graph.num_vars + offset
                self.variable_of[(name, rows[i])] = vid
                self._code_resolver.add(name, rows[i], vid)
                new_var_offset[vid] = offset
                if value is not None:
                    delta.new_var_evidence[offset] = value
            for i in order:
                if signs[i] < 0:
                    removed_vars.add(self.variable_of[(name, rows[i])])

        # ---- 5. Evidence transitions (db is fully in its new state now).
        self._apply_evidence_transitions(delta, all_transitions, new_var_offset)

        # ---- 6. Inference-rule factor deltas.
        removed_record_keys: set = set()
        touched_keys: set = set()
        # 6a. Removed rules retract all their factors.
        removed_rule_names = set()
        for rule_or_name in remove_inference_rules:
            name = getattr(rule_or_name, "name", rule_or_name)
            self.program.remove_inference_rule(name)
            removed_rule_names.add(name)
        if removed_rule_names:
            # The one pass over every record: only a rule removal pays it.
            for key, record in self.records.items():
                if record.rule_name in removed_rule_names:
                    removed_record_keys.add(key)
        # 6b. New rules ground fully; existing rules ground their delta.
        # Groundings that referenced a removed variable are retracted here
        # naturally: the variable's tuple disappeared from its relation, so
        # the delta join emits the matching negative bindings.
        new_rule_names = set()
        for rule in add_inference_rules:
            self.program.register_inference_rule(rule)
            new_rule_names.add(rule.name)
        new_weight_entries: list = []
        weights = _DeltaWeightView(self.graph.weights, new_weight_entries)
        # Persistent across updates; per-relation maps build lazily on
        # the first large batch and are maintained in O(|ΔV|) after.
        resolver = self._code_resolver
        for rule in self.program.inference_rules:
            if rule.name in removed_rule_names:
                continue
            semantics = self.program.semantics_of(rule)
            # Net the rule's delta across all its terms before folding:
            # an individual term may retract a grounding that a later
            # term re-inserts (see RuleDeltaAccumulator).
            accumulator = RuleDeltaAccumulator()
            for batch in self._rule_delta_batches(
                rule, new_rule_names, all_transitions, delta_batches
            ):
                apply_rule_binding_batch(
                    rule,
                    batch,
                    self.db.interner,
                    self.program.variable_relations,
                    self.variable_of,
                    weights,
                    accumulator,
                    resolver=resolver,
                )
            accumulator.flush(
                rule.name, semantics, self.records, touched_keys
            )
        delta.new_weight_entries = new_weight_entries
        # 6c. Records whose head variable disappeared are retracted; their
        # ids are dropped from the maps now that joins are done.
        for var in removed_vars:
            for key in list(self._records_by_var.get(var, ())):
                if self.records[key].head_var == var:
                    removed_record_keys.add(key)
            name_row = self.graph.name_of(var)
            del self.variable_of[name_row]
            self._code_resolver.discard(*name_row)

        # ---- 7. Convert record changes into (∆F): every touched surviving
        # record is rebuilt (old factor removed, new factor appended).
        touched_keys -= removed_record_keys
        for key in removed_record_keys:
            record = self.records.pop(key)
            if record.factor_index >= 0:
                delta.removed_factor_ids.add(record.factor_index)
            for var in self._record_vars(record):
                bucket = self._records_by_var.get(var)
                if bucket:
                    bucket.discard(key)
        # Each rebuilt record's groundings are flattened straight into the
        # delta's factor table: no factor object is made on the way.
        appended: list = []
        rebuilt: list = []
        for key in sorted(touched_keys, key=str):
            record = self.records[key]
            if record.factor_index >= 0:
                delta.removed_factor_ids.add(record.factor_index)
            if not record.groundings:
                del self.records[key]
                for var in self._record_vars(record):
                    bucket = self._records_by_var.get(var)
                    if bucket:
                        bucket.discard(key)
                continue
            rebuilt.append(record)
            appended.append(key)
            for var in self._record_vars(record):
                self._records_by_var.setdefault(var, set()).add(key)
        delta.new_factors = FactorList.from_table(
            rule_table(
                [record.head_var for record in rebuilt],
                [record.weight_id for record in rebuilt],
                [sem_code(record.semantics) for record in rebuilt],
                [record.groundings.as_tuple() for record in rebuilt],
            )
        )

        # Tombstone removed variables: clamp them false so any residual
        # reference contributes nothing.
        for var in removed_vars:
            delta.evidence_updates[var] = False

        # ---- 8. Splice and re-index.  The O(graph) invariant walk is
        # skipped: the grounder constructs deltas from resolved variable
        # ids and interned weights, and _reindex re-verifies the factor
        # registry whenever factors were removed.
        delta.apply_in_place(self.graph)
        self._reindex(delta, appended)
        result = UpdateResult(delta=delta, graph=self.graph)
        self.last_result = result
        maybe_fire("ground.update.finish")
        return result

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _body_predicates(self) -> frozenset:
        """Predicates appearing in any registered rule body — the set of
        relations whose pre-update state a fused delta plan may probe."""
        preds: set = set()
        for rule in self.program.stratified_derivation_rules():
            preds.update(atom.pred for atom in rule.body)
        for rule in self.program.inference_rules:
            preds.update(atom.pred for atom in rule.body)
        return frozenset(preds)

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
            vids = [
                self.variable_of.get((name, row))
                for row in self.db.interner.decode_rows(var_codes)
            ]
            # Evidence about a non-candidate tuple clamps nothing.
            known = [i for i, vid in enumerate(vids) if vid is not None]
            for i, value in zip(known, self._evidence_labels(name, var_codes[known])):
                vid = vids[i]
                if vid in new_var_offset:
                    if value is not None:
                        delta.new_var_evidence[new_var_offset[vid]] = value
                elif self.graph.evidence_value(vid) != value:
                    delta.evidence_updates[vid] = value

    def _reindex(self, delta: FactorGraphDelta, appended) -> None:
        """Recompute record factor indexes after a delta application.

        With no removals, surviving indexes are untouched and only the
        appended records are assigned — O(|Δ|).  Removals compact the
        factor list: the maintained ``_factor_keys`` table is compacted
        in one list pass and indexes are reassigned from the first
        removed position onward.  Verification is scoped to the touched
        (appended) records — survivors keep positions by construction.
        """
        removed = delta.removed_factor_ids
        records = self.records
        if removed:
            first = min(removed)
            keys = self._factor_keys
            keys = keys[:first] + [
                keys[index]
                for index in range(first, len(keys))
                if index not in removed
            ]
            keys.extend(appended)
            self._factor_keys = keys
            for index in range(first, len(keys)):
                record = records.get(keys[index])
                if record is not None:
                    record.factor_index = index
        else:
            base = len(self._factor_keys)
            self._factor_keys.extend(appended)
            for offset, key in enumerate(appended):
                records[key].factor_index = base + offset
        if len(self._factor_keys) != self.graph.num_factors:
            raise AssertionError("factor registry out of sync")
        if appended and not self._factors_match([records[key] for key in appended]):
            raise AssertionError("factor registry out of sync")

    def _factors_match(self, appended: list) -> bool:
        """Head-check the appended records against the graph's factor
        table (read as arrays — a lowered list stays lowered)."""
        index = np.array([record.factor_index for record in appended])
        table = self.graph.factor_table()
        kind = table.kind
        rows = (np.cumsum(kind == KIND_RULE) - 1)[index]
        heads = [record.head_var for record in appended]
        return bool((kind[index] == KIND_RULE).all()) and (
            table.rule_head[rows].tolist() == heads
        )


class _DeltaWeightView:
    """Weight-store facade that records newly interned keys into a delta.

    Existing keys resolve against the base store; new keys get the next
    ids *as if* appended, matching :meth:`FactorGraphDelta.apply`.
    """

    def __init__(self, base, new_entries: list) -> None:
        self._base = base
        self._new_entries = new_entries
        self._new_ids: dict = {}

    def intern(self, key, initial: float = 0.0, fixed: bool = False) -> int:
        existing = self._base.id_for(key)
        if existing is not None:
            return existing
        if key in self._new_ids:
            return self._new_ids[key]
        wid = len(self._base) + len(self._new_entries)
        self._new_ids[key] = wid
        self._new_entries.append((key, initial, fixed))
        return wid
