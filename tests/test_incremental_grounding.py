"""Incremental grounding must be *semantically identical* to regrounding.

The central invariant of §3.1: after any sequence of base-table updates
and rule changes, the incrementally maintained factor graph equals the
graph produced by grounding the final database from scratch.  Graphs are
compared canonically (by tuple names, not variable ids).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, DerivationRule, InferenceRule, Program, Var, WeightSpec
from repro.graph import FactorGraph, RuleFactor
from repro.grounding import IncrementalGrounder

from tests.reference import reference_ground, replay
from tests.test_grounding import spouse_db, spouse_program


def canonical_form(graph: FactorGraph) -> dict:
    """Graph summary invariant to variable-id renumbering.

    Removed (tombstoned) variables — clamped False with no factors —
    are excluded so that incrementally maintained graphs compare equal
    to freshly grounded ones.  Factors compare in canonical form (the
    factor table's: a repeated literal once, a contradictory grounding
    dropped), so the raw objects of ``reference_ground`` meet the
    grounder's born-lowered lists.
    """
    factor_objects = graph.factor_table().factors()
    touched = set()
    for factor in factor_objects:
        touched.update(factor.variables())

    def name(v):
        n = graph.name_of(v)
        return n if n is not None else ("_anon", v)

    variables = set()
    evidence = {}
    for v in range(graph.num_vars):
        is_tombstone = (
            v not in touched and graph.evidence_value(v) is False
        )
        if is_tombstone:
            continue
        variables.add(name(v))
        if graph.is_evidence(v):
            evidence[name(v)] = graph.evidence_value(v)

    factors = {}
    for factor in factor_objects:
        if not isinstance(factor, RuleFactor):
            raise TypeError("canonical_form only supports rule factors")
        key = graph.weights.key_for(factor.weight_id)
        groundings = tuple(
            sorted(
                tuple(sorted((name(v), pos) for v, pos in g))
                for g in factor.groundings
            )
        )
        sig = (key, name(factor.head), factor.semantics.value, groundings)
        factors[sig] = factors.get(sig, 0) + 1
    return {"variables": variables, "evidence": evidence, "factors": factors}


def assert_equivalent(incremental: FactorGraph, scratch: FactorGraph):
    a, b = canonical_form(incremental), canonical_form(scratch)
    assert a["variables"] == b["variables"]
    assert a["evidence"] == b["evidence"]
    assert a["factors"] == b["factors"]


def reground(program_factory, db_builder, updates):
    """Apply ``updates`` incrementally and check every step against the
    reference: the same updates replayed on a fresh, never-grounded
    ``(program, db)`` twin, grounded from scratch tuple-at-a-time.
    Returns the final ``(incremental graph, reference graph)``."""
    program = program_factory()
    grounder = IncrementalGrounder.from_scratch(program, db_builder(program))
    twin_program = program_factory()
    twin_db = db_builder(twin_program)
    scratch = reference_ground(twin_program, twin_db.copy())
    assert_equivalent(grounder.graph, scratch)
    for update in updates:
        grounder.apply_update(**update)
        replay(twin_program, twin_db, update)
        scratch = reference_ground(twin_program, twin_db.copy())
        assert_equivalent(grounder.graph, scratch)
    return grounder.graph, scratch


class TestIncrementalMatchesScratch:
    def test_insert_new_sentence(self):
        incr, scratch = reground(
            spouse_program,
            spouse_db,
            [
                {
                    "inserts": {
                        "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
                        "PhraseFeature": [("m5", "m6", "and his wife")],
                    }
                }
            ],
        )
        assert_equivalent(incr, scratch)

    def test_insert_new_feature_only(self):
        incr, scratch = reground(
            spouse_program,
            spouse_db,
            [{"inserts": {"PhraseFeature": [("m1", "m2", "were married")]}}],
        )
        assert_equivalent(incr, scratch)

    def test_new_supervision_data(self):
        incr, scratch = reground(
            spouse_program,
            spouse_db,
            [
                {
                    "inserts": {
                        "EL": [("m3", "e_a"), ("m4", "e_b")],
                        "Married": [("e_a", "e_b")],
                    }
                }
            ],
        )
        assert_equivalent(incr, scratch)

    def test_delete_feature(self):
        incr, scratch = reground(
            spouse_program,
            spouse_db,
            [{"deletes": {"PhraseFeature": [("m3", "m4", "friend of")]}}],
        )
        assert_equivalent(incr, scratch)

    def test_delete_person_removes_variables(self):
        incr, scratch = reground(
            spouse_program,
            spouse_db,
            [{"deletes": {"PersonCandidate": [("s2", "m4")]}}],
        )
        assert_equivalent(incr, scratch)

    def test_add_inference_rule(self):
        symmetry = InferenceRule(
            name="i1",
            head=Atom("MarriedMentions", (Var("m2"), Var("m1"))),
            body=(Atom("MarriedMentions", (Var("m1"), Var("m2"))),),
            weight=WeightSpec(value=1.5, fixed=True),
            semantics="logical",
        )
        incr, scratch = reground(
            spouse_program, spouse_db, [{"add_inference_rules": [symmetry]}]
        )
        assert_equivalent(incr, scratch)

    def test_remove_inference_rule(self):
        incr, scratch = reground(
            spouse_program, spouse_db, [{"remove_inference_rules": ["fe1"]}]
        )
        assert_equivalent(incr, scratch)

    def test_add_derivation_rule_cascades(self):
        """A new supervision rule derives evidence from existing data."""
        negatives = DerivationRule(
            name="s2",
            head=Atom("MarriedMentions_Ev", (Var("m1"), Var("m2"), False)),
            body=(
                Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
                Atom("EL", (Var("m1"), Var("e"))),
                Atom("EL", (Var("m2"), Var("e"))),
            ),
        )
        incr, scratch = reground(
            spouse_program, spouse_db, [{"add_derivation_rules": [negatives]}]
        )
        assert_equivalent(incr, scratch)

    def test_sequence_of_updates(self):
        updates = [
            {"inserts": {"PersonCandidate": [("s3", "m5"), ("s3", "m6")]}},
            {"inserts": {"PhraseFeature": [("m5", "m6", "and his wife")]}},
            {
                "add_inference_rules": [
                    InferenceRule(
                        name="i1",
                        head=Atom("MarriedMentions", (Var("m2"), Var("m1"))),
                        body=(
                            Atom("MarriedMentions", (Var("m1"), Var("m2"))),
                        ),
                        weight=WeightSpec(value=1.5, fixed=True),
                    )
                ]
            },
            {"deletes": {"PhraseFeature": [("m1", "m2", "and his wife")]}},
            {
                "inserts": {
                    "EL": [("m5", "e_x"), ("m6", "e_y")],
                    "Married": [("e_x", "e_y")],
                }
            },
        ]
        incr, scratch = reground(spouse_program, spouse_db, updates)
        assert_equivalent(incr, scratch)

    def test_evidence_flip_produces_update(self):
        program = spouse_program()
        db = spouse_db(program)
        grounder = IncrementalGrounder.from_scratch(program, db)
        vid = grounder.variable_of[("MarriedMentions", ("m3", "m4"))]
        result = grounder.apply_update(
            inserts={"MarriedMentions_Ev": [("m3", "m4", True)]}
        )
        assert result.delta.evidence_updates == {vid: True}
        assert result.graph.evidence_value(vid) is True

    def test_delta_classification_flags(self):
        program = spouse_program()
        db = spouse_db(program)
        grounder = IncrementalGrounder.from_scratch(program, db)
        # Pure supervision change: evidence but no structure.
        r1 = grounder.apply_update(
            inserts={"MarriedMentions_Ev": [("m3", "m4", False)]}
        )
        assert r1.delta.changes_evidence and not r1.delta.changes_structure
        # New feature: structure + new weights.
        r2 = grounder.apply_update(
            inserts={"PhraseFeature": [("m1", "m2", "brand new feature")]}
        )
        assert r2.delta.changes_structure and r2.delta.adds_features

    def test_empty_update_is_empty_delta(self):
        program = spouse_program()
        db = spouse_db(program)
        grounder = IncrementalGrounder.from_scratch(program, db)
        result = grounder.apply_update()
        assert result.delta.is_empty


class TestRejectedUpdateAppliesNothing:
    """An update is validated whole — unknown relation, arity, deleting
    more derivations than exist — before any relation is touched."""

    NEW_SENTENCE = [("s3", "m5"), ("s3", "m6")]

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"deletes": {"PhraseFeature": [("nope", "nope", "nope")]}}, KeyError),
            ({"inserts": {"NoSuchRelation": [("x",)]}}, KeyError),
            ({"inserts": {"EL": [("m5", "barack", "extra")]}}, ValueError),
        ],
    )
    def test_database_untouched_and_next_update_grounds(self, bad, error):
        program = spouse_program()
        db = spouse_db(program)
        grounder = IncrementalGrounder.from_scratch(program, db)
        before = {name: db.relation(name).counts() for name in db.relation_names()}
        rejected = {"inserts": {"PersonCandidate": self.NEW_SENTENCE}}
        for key, relations in bad.items():
            rejected[key] = {**rejected.get(key, {}), **relations}
        # PersonCandidate comes first in the payload and is valid.
        assert next(iter(rejected["inserts"])) == "PersonCandidate"
        with pytest.raises(error):
            grounder.apply_update(**rejected)
        after = {name: db.relation(name).counts() for name in db.relation_names()}
        assert after == before
        assert grounder.last_result is None

        # The client retries without the bad part: same state as if the
        # rejected update had never been sent.
        update = {"inserts": {"PersonCandidate": self.NEW_SENTENCE}}
        result = grounder.apply_update(**update)
        assert result.delta.num_new_vars == 4  # m5, m6 pair up four ways
        twin_program = spouse_program()
        twin_db = spouse_db(twin_program)
        replay(twin_program, twin_db, update)
        assert_equivalent(grounder.graph, reference_ground(twin_program, twin_db))


class _ScanCountingDict(dict):
    """A dict that counts whole-dict passes (not keyed lookups)."""

    scans = 0

    def _scanned(self, view):
        self.scans += 1
        return view

    def __iter__(self):
        return self._scanned(super().__iter__())

    def items(self):
        return self._scanned(super().items())

    def values(self):
        return self._scanned(super().values())

    def keys(self):
        return self._scanned(super().keys())


class TestUpdateCostIsNotLinearInRecords:
    """The grounder's insert path is keyed: only a rule removal may walk
    the whole record registry."""

    def make(self):
        program = spouse_program()
        grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
        grounder.records = _ScanCountingDict(grounder.records)
        assert len(grounder.records) > 0
        return grounder

    def test_insert_only_update_never_scans_records(self):
        grounder = self.make()
        before = len(grounder.records)
        result = grounder.apply_update(
            inserts={
                "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
                "PhraseFeature": [("m5", "m6", "and his wife")],
            }
        )
        assert result.delta.new_factors  # the update did ground something
        assert len(grounder.records) > before
        assert grounder.records.scans == 0

    def test_rule_removal_still_retracts_exactly_its_factors(self):
        grounder = self.make()
        symmetry = InferenceRule(
            name="i1",
            head=Atom("MarriedMentions", (Var("m2"), Var("m1"))),
            body=(Atom("MarriedMentions", (Var("m1"), Var("m2"))),),
            weight=WeightSpec(value=1.5, fixed=True),
            semantics="logical",
        )
        grounder.apply_update(add_inference_rules=[symmetry])

        def factor_ids(rule_name):
            return {
                record.factor_index
                for record in dict.values(grounder.records)
                if record.rule_name == rule_name
            }

        theirs, others = factor_ids("fe1"), len(factor_ids("i1"))
        assert theirs and others
        result = grounder.apply_update(remove_inference_rules=["fe1"])
        assert set(result.delta.removed_factor_ids) == theirs
        assert not result.delta.new_factors
        assert not factor_ids("fe1")
        assert len(factor_ids("i1")) == others == grounder.graph.num_factors


@st.composite
def update_sequences(draw):
    """Random update sequences over a small universe."""
    persons = [f"m{i}" for i in range(6)]
    sentences = [f"s{i}" for i in range(3)]
    features = ["fA", "fB", "fC"]
    updates = []
    for _ in range(draw(st.integers(1, 4))):
        inserts, deletes = {}, {}
        kind = draw(st.integers(0, 3))
        if kind == 0:
            inserts["PersonCandidate"] = [
                (draw(st.sampled_from(sentences)), draw(st.sampled_from(persons)))
            ]
        elif kind == 1:
            inserts["PhraseFeature"] = [
                (
                    draw(st.sampled_from(persons)),
                    draw(st.sampled_from(persons)),
                    draw(st.sampled_from(features)),
                )
            ]
        elif kind == 2:
            inserts["EL"] = [
                (draw(st.sampled_from(persons)), draw(st.sampled_from(["e1", "e2"])))
            ]
            inserts["Married"] = [("e1", "e2")]
        else:
            deletes["PersonCandidate"] = [("s1", "m1")]
        updates.append({"inserts": inserts or None, "deletes": deletes or None})
    return updates


class TestIncrementalProperty:
    @given(update_sequences())
    @settings(max_examples=25, deadline=None)
    def test_random_update_sequences_match_scratch(self, updates):
        # Deletions may target absent tuples; skip those sequences.
        try:
            incr, scratch = reground(spouse_program, spouse_db, updates)
        except KeyError as err:
            if "delete" in str(err):
                return
            raise
        assert_equivalent(incr, scratch)
