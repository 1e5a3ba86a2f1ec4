"""Tests for full grounding (paper Fig. 3) over the spouse example."""

import pytest

from repro.datalog import Atom, Program, Var, WeightSpec
from repro.graph import RuleFactor, Semantics
from repro.grounding import Grounder

from tests.helpers import vid_of


def spouse_program() -> Program:
    """The paper's running example (Fig. 2) as a program."""
    program = Program(default_semantics="ratio")
    program.add_relation("PersonCandidate", ("s", "m"))
    program.add_relation("EL", ("m", "e"))
    program.add_relation("Married", ("e1", "e2"))
    program.add_relation("MarriedCandidate", ("m1", "m2"))
    program.add_relation("PhraseFeature", ("m1", "m2", "f"))
    program.declare_variable_relation("MarriedMentions", ("m1", "m2"))

    # (R1) candidate mapping.
    program.add_derivation_rule(
        "r1",
        Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
        [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ],
    )
    # Candidates become random variables.
    program.add_derivation_rule(
        "vars",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [Atom("MarriedCandidate", (Var("m1"), Var("m2")))],
    )
    # (S1) distant supervision.
    program.add_derivation_rule(
        "s1",
        Atom("MarriedMentions_Ev", (Var("m1"), Var("m2"), True)),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("EL", (Var("m1"), Var("e1"))),
            Atom("EL", (Var("m2"), Var("e2"))),
            Atom("Married", (Var("e1"), Var("e2"))),
        ],
    )
    # (FE1) phrase feature classifier with tied weights.
    program.add_inference_rule(
        "fe1",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("PhraseFeature", (Var("m1"), Var("m2"), Var("f"))),
        ],
        weight=WeightSpec(tied_on=("f",)),
    )
    return program


def spouse_db(program):
    db = program.create_database()
    db.insert_all(
        "PersonCandidate",
        [("s1", "m1"), ("s1", "m2"), ("s2", "m3"), ("s2", "m4")],
    )
    db.insert_all("EL", [("m1", "barack"), ("m2", "michelle")])
    db.insert_all("Married", [("barack", "michelle")])
    db.insert_all(
        "PhraseFeature",
        [
            ("m1", "m2", "and his wife"),
            ("m3", "m4", "and his wife"),
            ("m3", "m4", "friend of"),
        ],
    )
    return db


class TestFullGrounding:
    def test_derivation_rules_populate_candidates(self):
        program = spouse_program()
        db = spouse_db(program)
        Grounder(program, db).run_derivation_rules()
        # 2x2 ordered pairs per sentence.
        assert len(db.relation("MarriedCandidate")) == 8
        assert len(db.relation("MarriedMentions")) == 8

    def test_derivation_counts(self):
        program = spouse_program()
        db = spouse_db(program)
        Grounder(program, db).run_derivation_rules()
        assert db.relation("MarriedCandidate").count(("m1", "m2")) == 1

    def test_variables_created_for_all_candidates(self):
        program = spouse_program()
        db = spouse_db(program)
        result = Grounder(program, db).ground()
        assert result.graph.num_vars == 8
        assert vid_of(db, "MarriedMentions", ("m1", "m2")) >= 0

    def test_distant_supervision_sets_evidence(self):
        program = spouse_program()
        db = spouse_db(program)
        result = Grounder(program, db).ground()
        vid = vid_of(db, "MarriedMentions", ("m1", "m2"))
        assert result.graph.evidence_value(vid) is True
        free = vid_of(db, "MarriedMentions", ("m3", "m4"))
        assert result.graph.evidence_value(free) is None

    def test_weight_tying_across_sentences(self):
        """'and his wife' in s1 and s2 must share one weight (§2.3)."""
        program = spouse_program()
        db = spouse_db(program)
        result = Grounder(program, db).ground()
        wid = result.graph.weights.id_for(("fe1", ("and his wife",)))
        assert wid is not None
        tied = [
            f
            for f in result.graph.factors
            if isinstance(f, RuleFactor) and f.weight_id == wid
        ]
        assert len(tied) == 2  # one factor per (head, weight) pair

    def test_factor_structure(self):
        program = spouse_program()
        db = spouse_db(program)
        result = Grounder(program, db).ground()
        # m3-m4 has two features, hence two factors on the same head.
        head = vid_of(db, "MarriedMentions", ("m3", "m4"))
        mine = [f for f in result.graph.factors if f.head == head]
        assert len(mine) == 2
        for f in mine:
            assert f.semantics is Semantics.RATIO
            # Body atoms are data relations (constant-folded by the join),
            # so each factor carries one vacuously satisfied grounding:
            # exactly the "classifier" reading of Ex. 2.6.
            assert f.groundings == ((),)

    def test_missing_head_variable_raises(self):
        program = spouse_program()
        # Drop the rule that turns candidates into variables: fe1's head
        # tuples then have no grounded variable to attach to.
        program.derivation_rules = [
            r for r in program.derivation_rules if r.name != "vars"
        ]
        db = spouse_db(program)
        with pytest.raises(KeyError, match="not a grounded variable"):
            Grounder(program, db).ground()

    def test_udf_feature_extraction(self):
        program = Program()
        program.add_relation("Token", ("t",))
        program.add_relation("Feature", ("t", "f"))
        program.declare_variable_relation("Q", ("t",))
        program.add_derivation_rule(
            "vars", Atom("Q", (Var("t"),)), [Atom("Token", (Var("t"),))]
        )
        program.add_derivation_rule(
            "feat",
            Atom("Feature", (Var("t"), Var("f"))),
            [Atom("Token", (Var("t"),))],
            udf=lambda b: [{"f": f"prefix:{str(b['t'])[:1]}"}],
        )
        db = program.create_database()
        db.insert_all("Token", [("apple",), ("axe",), ("bee",)])
        Grounder(program, db).run_derivation_rules()
        assert db.relation("Feature").count(("apple", "prefix:a")) == 1
        assert len(db.relation("Feature")) == 3

    def test_fixed_weight_rule(self):
        program = spouse_program()
        program.add_inference_rule(
            "i1",
            Atom("MarriedMentions", (Var("m2"), Var("m1"))),
            [Atom("MarriedMentions", (Var("m1"), Var("m2")))],
            weight=WeightSpec(value=1.5, fixed=True),
            semantics="logical",
        )
        db = spouse_db(program)
        result = Grounder(program, db).ground()
        wid = result.graph.weights.id_for(("i1", ()))
        assert result.graph.weights.is_fixed(wid)
        assert result.graph.weights.value(wid) == 1.5
        # The symmetry factor couples (m1,m2) with (m2,m1).
        a = vid_of(db, "MarriedMentions", ("m1", "m2"))
        b = vid_of(db, "MarriedMentions", ("m2", "m1"))
        sym = [
            f
            for f in result.graph.factors
            if f.weight_id == wid and f.head == a
        ]
        assert len(sym) == 1
        assert sym[0].groundings == (((b, True),),)
