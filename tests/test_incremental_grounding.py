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
from repro.db.relation import Relation
from repro.graph import FactorGraph, FactorGraphDelta, RuleFactor
from repro.grounding import Grounder, IncrementalGrounder
from repro.reliability import UpdateRejected

from tests.helpers import vid_of
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
        vid = vid_of(db, "MarriedMentions", ("m3", "m4"))
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


def _mentions_rule(name, head_pred, body_pred) -> DerivationRule:
    return DerivationRule(
        name=name,
        head=Atom(head_pred, (Var("m1"), Var("m2"))),
        body=(Atom(body_pred, (Var("m1"), Var("m2"))),),
    )


def _feature_rule(name) -> InferenceRule:
    return InferenceRule(
        name=name,
        head=Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        body=(Atom("MarriedCandidate", (Var("m1"), Var("m2"))),),
        weight=WeightSpec(value=0.5),
    )


class TestRejectedRuleChangeAppliesNothing:
    """Every rule change is checked before any relation moves: a
    rejected one leaves the database, its interner, the variables and the
    program as they were, raises typed, and the next valid update grounds
    as if it had never been sent."""

    NEW_SENTENCE = [("s3", "m5"), ("s3", "m6")]

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"remove_inference_rules": ["no_such_rule"]}, KeyError),
            (
                {"add_derivation_rules": [_mentions_rule("r1", "MarriedCandidate", "EL")]},
                ValueError,
            ),
            ({"add_inference_rules": [_feature_rule("fe1")]}, ValueError),
            (
                {"add_inference_rules": [_feature_rule("fe9"), _feature_rule("fe9")]},
                ValueError,
            ),
            (
                {
                    "add_derivation_rules": [
                        _mentions_rule("loop", "MarriedCandidate", "MarriedCandidate")
                    ]
                },
                ValueError,
            ),
            (
                {
                    "add_derivation_rules": [
                        _mentions_rule("there", "Married", "MarriedCandidate"),
                        _mentions_rule("back", "MarriedCandidate", "Married"),
                    ]
                },
                ValueError,
            ),
        ],
        ids=[
            "unknown-removal",
            "duplicate-derivation",
            "duplicate-inference",
            "duplicate-within-update",
            "recursive",
            "cyclic",
        ],
    )
    def test_state_untouched_and_next_update_grounds(self, change, error):
        program = spouse_program()
        db = spouse_db(program)
        grounder = IncrementalGrounder.from_scratch(program, db)

        def state():
            return (
                {name: db.relation(name).counts() for name in db.relation_names()},
                len(db.interner),
                {
                    (name, row): vid_of(db, name, row)
                    for name in program.variable_relations
                    for row in db.relation(name).rows()
                },
                grounder.graph.num_vars,
                [rule.name for rule in program.derivation_rules],
                [rule.name for rule in program.inference_rules],
            )

        before = state()
        with pytest.raises(error) as raised:
            grounder.apply_update(
                inserts={"PersonCandidate": self.NEW_SENTENCE}, **change
            )
        assert isinstance(raised.value, UpdateRejected)
        assert state() == before
        assert grounder.last_result is None

        update = {"inserts": {"PersonCandidate": self.NEW_SENTENCE}}
        grounder.apply_update(**update)
        twin_program = spouse_program()
        twin_db = spouse_db(twin_program)
        replay(twin_program, twin_db, update)
        assert_equivalent(grounder.graph, reference_ground(twin_program, twin_db))

    @pytest.mark.parametrize(
        "bad",
        [
            {"deletes": {"PhraseFeature": [("nope", "nope", "nope")]}},
            {"inserts": {"NoSuchRelation": [("x",)]}},
            {"inserts": {"EL": [("m5", "barack", "extra")]}},
        ],
        ids=["over-delete", "unknown-relation", "arity"],
    )
    def test_bad_rows_are_rejections_too(self, bad):
        program = spouse_program()
        grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
        with pytest.raises(UpdateRejected):
            grounder.apply_update(**bad)


class TestUpdateTouchesOnlyItsRulesTables:
    """An update reads and writes the grounding table of a rule its
    changes reach, and no other; a rule removal retracts exactly that
    rule's factors."""

    def make(self):
        program = spouse_program()
        grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
        symmetry = InferenceRule(
            name="i1",
            head=Atom("MarriedMentions", (Var("m2"), Var("m1"))),
            body=(Atom("MarriedMentions", (Var("m1"), Var("m2"))),),
            weight=WeightSpec(value=1.5, fixed=True),
            semantics="logical",
        )
        grounder.apply_update(add_inference_rules=[symmetry])
        return grounder

    def test_insert_only_update_probes_no_other_rules_table(self, monkeypatch):
        grounder = self.make()
        touched = []
        for name, table in grounder.grounding_tables.items():
            for method in ("probe", "apply_delta", "rows_at"):
                real = getattr(table, method)

                def counting(*args, _name=name, _real=real):
                    touched.append(_name)
                    return _real(*args)

                monkeypatch.setattr(table, method, counting)
        result = grounder.apply_update(
            inserts={"PhraseFeature": [("m1", "m2", "friend of")]}
        )
        assert result.delta.new_factors  # the update did ground something
        assert set(touched) == {"fe1"}  # i1's body reads no PhraseFeature

    def test_rule_removal_still_retracts_exactly_its_factors(self):
        grounder = self.make()

        def factor_ids(rule_name):
            graph = grounder.graph
            return {
                f
                for f, wid in enumerate(graph.factor_table().rule_wid.tolist())
                if graph.weights.key_for(wid)[0] == rule_name
            }

        theirs, others = factor_ids("fe1"), len(factor_ids("i1"))
        assert theirs and others
        result = grounder.apply_update(remove_inference_rules=["fe1"])
        assert set(result.delta.removed_factor_ids) == theirs
        assert not result.delta.new_factors
        assert not factor_ids("fe1")
        assert "fe1" not in grounder.grounding_tables
        assert len(factor_ids("i1")) == others == grounder.graph.num_factors


    def test_a_rule_removed_and_readded_in_one_update_regrounds(self):
        program = spouse_program()
        grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
        (fe1,) = program.inference_rules
        result = grounder.apply_update(
            remove_inference_rules=["fe1"], add_inference_rules=[fe1]
        )
        assert len(result.delta.removed_factor_ids) == len(result.delta.new_factors) == 3
        twin = spouse_program()
        assert_equivalent(grounder.graph, reference_ground(twin, spouse_db(twin)))


class TestFactorOutlivingItsHeadRaises:
    """A rule whose body does not imply its head candidate: deleting the
    candidate while the body rows stay leaves a factor with no head
    variable.  The update raises the error a full ground of that state
    raises, whether the factor is untouched or rebuilt this update, as a
    rejection that moved nothing."""

    def make(self):
        program = Program(default_semantics="ratio")
        program.add_relation("Cand", ("a",))
        program.add_relation("Feat", ("a", "f"))
        program.declare_variable_relation("Q", ("a",))
        program.add_derivation_rule("vars", Atom("Q", (Var("a"),)), [Atom("Cand", (Var("a"),))])
        program.add_inference_rule(
            "fe",
            Atom("Q", (Var("a"),)),
            [Atom("Feat", (Var("a"), Var("f")))],
            weight=WeightSpec(tied_on=("f",), value=0.5),
        )
        db = program.create_database()
        db.relation("Cand").insert(("x",))
        db.relation("Cand").insert(("y",))
        db.relation("Feat").insert(("x", "f1"))
        db.relation("Feat").insert(("y", "f1"))
        return program, db

    @pytest.mark.parametrize(
        "extra",
        [{}, {"inserts": {"Feat": [("x", "f2")]}}],
        ids=["untouched-factor", "rebuilt-factor"],
    )
    def test_update_raises_like_the_full_ground(self, extra):
        program, db = self.make()
        grounder = IncrementalGrounder.from_scratch(program, db)
        update = {"deletes": {"Cand": [("x",)]}, **extra}
        before = {name: db.relation(name).counts() for name in db.relation_names()}
        with pytest.raises(UpdateRejected, match=r"'fe'.*\('Q', \('x',\)\).*not a grounded variable"):
            grounder.apply_update(**update)
        assert {name: db.relation(name).counts() for name in db.relation_names()} == before
        twin_program, twin_db = self.make()
        replay(twin_program, twin_db, update)
        with pytest.raises(KeyError, match="not a grounded variable"):
            Grounder(twin_program, twin_db).ground()

    def test_deleting_the_body_with_its_head_grounds(self):
        program, db = self.make()
        grounder = IncrementalGrounder.from_scratch(program, db)
        grounder.apply_update(deletes={"Cand": [("x",)], "Feat": [("x", "f1")]})
        assert_equivalent(grounder.graph, reference_ground(program, db))


class TestTombstonedSlotNeverResolves:
    """A removed variable's slot keeps its relation row as a tombstone,
    but its vid is cleared once the update has retracted its factors: a
    later binding that reaches the row is not a grounded variable, and a
    re-inserted row gets a fresh id."""

    make = TestFactorOutlivingItsHeadRaises.make
    RETRACT_X = {"deletes": {"Cand": [("x",)], "Feat": [("x", "f1")]}}

    def test_a_retracted_head_stays_ungrounded(self):
        program, db = self.make()
        grounder = IncrementalGrounder.from_scratch(program, db)
        grounder.apply_update(**self.RETRACT_X)
        with pytest.raises(KeyError, match=r"'fe'.*\('Q', \('x',\)\).*not a grounded variable"):
            grounder.apply_update(inserts={"Feat": [("x", "f3")]})

    def test_a_reinserted_candidate_gets_a_fresh_vid(self):
        program, db = self.make()
        grounder = IncrementalGrounder.from_scratch(program, db)
        old = vid_of(db, "Q", ("x",))
        updates = [self.RETRACT_X, {"inserts": {"Cand": [("x",)], "Feat": [("x", "f3")]}}]
        grounder.apply_update(**updates[0])
        assert vid_of(db, "Q", ("x",)) == -1
        fresh = grounder.graph.num_vars
        grounder.apply_update(**updates[1])
        assert vid_of(db, "Q", ("x",)) == fresh != old
        assert grounder.graph.name_of(fresh) == ("Q", ("x",))
        twin_program, twin_db = self.make()
        for update in updates:
            replay(twin_program, twin_db, update)
        assert_equivalent(grounder.graph, reference_ground(twin_program, twin_db))


class TestCompactionInsideAnUpdate:
    """A variable relation whose dead fraction crosses the threshold
    mid-update compacts only once the next update begins: its removed
    variables' retraction bindings resolve through their slots first,
    and the update stays revocable slot for slot until then."""

    def make(self):
        program = Program(default_semantics="ratio")
        program.add_relation("Cand", ("a",))
        program.add_relation("Feat", ("a", "f"))
        program.add_relation("Link", ("a", "b"))
        program.declare_variable_relation("Q", ("a",))
        program.add_derivation_rule("vars", Atom("Q", (Var("a"),)), [Atom("Cand", (Var("a"),))])
        program.add_inference_rule(
            "fe",
            Atom("Q", (Var("a"),)),
            [Atom("Feat", (Var("a"), Var("f")))],
            weight=WeightSpec(tied_on=("f",), value=0.5),
        )
        program.add_inference_rule(
            "link",
            Atom("Q", (Var("a"),)),
            [Atom("Q", (Var("b"),)), Atom("Link", (Var("a"), Var("b")))],
            weight=WeightSpec(value=0.3),
        )
        db = program.create_database()
        names = [f"c{i}" for i in range(8)]
        db.insert_all("Cand", [(c,) for c in names])
        db.insert_all("Feat", [(c, f"f{i % 2}") for i, c in enumerate(names)])
        db.insert_all("Link", list(zip(names, names[1:])))
        return program, db

    def test_removed_variables_resolve_until_the_update_ends(self, monkeypatch):
        monkeypatch.setattr(Relation, "_COMPACT_MIN_SLOTS", 4)
        program, db = self.make()
        grounder = IncrementalGrounder.from_scratch(program, db)
        gone = [f"c{i}" for i in range(2, 8)]  # 6 of the 8 candidates
        removed = {vid_of(db, "Q", (c,)) for c in gone}
        update = {
            "deletes": {
                "Cand": [(c,) for c in gone],
                "Feat": [(c, f"f{i % 2}") for i, c in enumerate(gone, start=2)],
                "Link": [(f"c{i}", f"c{i + 1}") for i in range(2, 7)],
            }
        }
        stats = db.columnar.stats
        before = stats["rebuilds"]
        at_splice = []
        splice = FactorGraphDelta.apply_in_place

        def recording(delta, graph):
            at_splice.append(stats["rebuilds"])
            return splice(delta, graph)

        monkeypatch.setattr(FactorGraphDelta, "apply_in_place", recording)
        grounder.apply_update(**update)
        assert at_splice == [before]
        assert stats["rebuilds"] == before
        assert removed.isdisjoint(grounder.graph.factor_table().variables().tolist())
        for c in ("c0", "c1"):
            assert grounder.graph.name_of(vid_of(db, "Q", (c,))) == ("Q", (c,))
        twin_program, twin_db = self.make()
        replay(twin_program, twin_db, update)
        assert_equivalent(grounder.graph, reference_ground(twin_program, twin_db.copy()))
        # The next update repacks the column first, and it serves that
        # update.
        again = {"inserts": {"Cand": [("c2",)], "Feat": [("c2", "f0")], "Link": [("c2", "c1")]}}
        grounder.apply_update(**again)
        assert at_splice[-1] > before
        replay(twin_program, twin_db, again)
        assert_equivalent(grounder.graph, reference_ground(twin_program, twin_db.copy()))


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
