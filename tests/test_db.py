"""Tests for the relational substrate: relations, indexes, joins."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, Relation
from repro.db.query import Atom, Var

from tests.reference import binding_counts, evaluate_query


def evaluate_bindings(db, atoms, initial_binding=None):
    """Unsigned bindings of a plain (non-delta) query."""
    return [b for b, _sign in evaluate_query(db, atoms, initial_binding)]


class TestRelation:
    def test_insert_and_visibility(self):
        rel = Relation("R", ("a", "b"))
        assert rel.insert(("x", 1)) is True
        assert rel.insert(("x", 1)) is False  # second derivation
        assert rel.count(("x", 1)) == 2
        assert ("x", 1) in rel
        assert len(rel) == 1

    def test_delete_derivations(self):
        rel = Relation("R", ("a",))
        rel.insert(("x",), count=3)
        assert rel.delete(("x",)) is False
        assert rel.delete(("x",), count=2) is True
        assert ("x",) not in rel

    def test_over_delete_raises(self):
        rel = Relation("R", ("a",))
        rel.insert(("x",))
        with pytest.raises(KeyError):
            rel.delete(("x",), count=2)

    def test_arity_checked(self):
        rel = Relation("R", ("a", "b"))
        with pytest.raises(ValueError):
            rel.insert(("only-one",))

    def test_nonpositive_counts_rejected(self):
        rel = Relation("R", ("a",))
        with pytest.raises(ValueError):
            rel.insert(("x",), count=0)
        rel.insert(("x",))
        with pytest.raises(ValueError):
            rel.delete(("x",), count=-1)

    def test_lookup_builds_and_maintains_index(self):
        rel = Relation("R", ("a", "b"))
        rel.insert(("x", 1))
        rel.insert(("x", 2))
        rel.insert(("y", 1))
        assert sorted(rel.lookup((0,), ("x",))) == [("x", 1), ("x", 2)]
        # Index maintained after the fact.
        rel.insert(("x", 3))
        assert len(rel.lookup((0,), ("x",))) == 3
        rel.delete(("x", 1))
        assert len(rel.lookup((0,), ("x",))) == 2

    def test_lookup_empty_positions_scans(self):
        rel = Relation("R", ("a",))
        rel.insert(("x",))
        rel.insert(("y",))
        assert len(rel.lookup((), ())) == 2

    def test_multicolumn_lookup(self):
        rel = Relation("R", ("a", "b", "c"))
        rel.insert((1, 2, 3))
        rel.insert((1, 9, 3))
        rel.insert((2, 2, 3))
        assert sorted(rel.lookup((0, 2), (1, 3))) == [(1, 2, 3), (1, 9, 3)]
        # Misses and hits return the same type (tuple), like rows().
        assert rel.lookup((0, 2), (9, 9)) == ()

    def test_bulk_insert_counts_matches_inserts(self):
        rel = Relation("R", ("a", "b"))
        rel.insert(("x", 1))
        rel.bulk_insert_counts({("x", 1): 2, ("y", 2): 1})
        assert rel.count(("x", 1)) == 3
        assert rel.count(("y", 2)) == 1

    def test_bulk_insert_counts_atomic_on_error(self):
        """A bad entry anywhere in the map must leave the relation
        (and its indexes/mirrors) completely untouched."""
        rel = Relation("R", ("a", "b"))
        rel.lookup((0,), ("x",))  # force an index into existence
        with pytest.raises(ValueError):
            rel.bulk_insert_counts({("x", 1): 1, ("bad",): 1})
        with pytest.raises(ValueError):
            rel.bulk_insert_counts({("x", 1): 1, ("y", 2): 0})
        assert len(rel) == 0
        assert rel.lookup((0,), ("x",)) == ()

    def test_apply_delta_transitions(self):
        rel = Relation("R", ("a",))
        rel.insert(("x",))
        appeared, disappeared = rel.apply_delta({("y",): 2, ("x",): -1})
        assert appeared == [("y",)]
        assert disappeared == [("x",)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 3)), max_size=40
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_index_consistent_with_scan(self, ops):
        """Property: index lookups always agree with full scans."""
        rel = Relation("R", ("a",))
        rel.lookup((0,), (0,))  # force index creation up front
        for value, count in ops:
            if rel.count((value,)) >= count and value % 2:
                rel.delete((value,), count)
            else:
                rel.insert((value,), count)
        for value in range(6):
            via_index = set(rel.lookup((0,), (value,)))
            via_scan = {row for row in rel.rows() if row[0] == value}
            assert via_index == via_scan


class TestDatabase:
    def test_create_and_fetch(self):
        db = Database()
        db.create_relation("R", ("a",))
        assert db.has_relation("R")
        assert "R" in db
        with pytest.raises(ValueError):
            db.create_relation("R", ("a",))
        with pytest.raises(KeyError):
            db.relation("missing")

    def test_insert_all(self):
        db = Database()
        db.create_relation("R", ("a",))
        assert db.insert_all("R", [("x",), ("y",), ("x",)]) == 2

    def test_copy_is_deep(self):
        db = Database()
        db.create_relation("R", ("a",))
        db.insert_all("R", [("x",)])
        clone = db.copy()
        clone.relation("R").insert(("y",))
        assert len(db.relation("R")) == 1
        assert len(clone.relation("R")) == 2

    def test_stats(self):
        db = Database()
        db.create_relation("R", ("a",))
        db.insert_all("R", [("x",), ("y",)])
        assert db.stats() == {"R": 2}


def spouse_db():
    db = Database()
    db.create_relation("PersonCandidate", ("s", "m"))
    db.create_relation("Sentence", ("s", "text"))
    db.insert_all(
        "PersonCandidate", [("s1", "m1"), ("s1", "m2"), ("s2", "m3")]
    )
    db.insert_all("Sentence", [("s1", "obama..."), ("s2", "malia...")])
    return db


class TestQueryEvaluation:
    """The tuple-at-a-time reference evaluator (``tests/reference``) —
    the oracle every compiled plan is compared against is itself held to
    hand-checked answers here."""

    def test_single_atom_scan(self):
        db = spouse_db()
        atoms = [Atom("PersonCandidate", (Var("s"), Var("m")))]
        bindings = list(evaluate_bindings(db, atoms))
        assert len(bindings) == 3

    def test_join_via_shared_variable(self):
        """The candidate rule R1: pairs of persons in the same sentence."""
        db = spouse_db()
        atoms = [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ]
        pairs = {
            (b["m1"], b["m2"]) for b in evaluate_bindings(db, atoms)
        }
        # s1 contributes 2x2 pairs, s2 contributes 1.
        assert len(pairs) == 5

    def test_constant_filter(self):
        db = spouse_db()
        atoms = [Atom("PersonCandidate", ("s1", Var("m")))]
        assert len(list(evaluate_bindings(db, atoms))) == 2

    def test_repeated_variable_within_atom(self):
        db = Database()
        db.create_relation("E", ("a", "b"))
        db.insert_all("E", [(1, 1), (1, 2)])
        atoms = [Atom("E", (Var("x"), Var("x")))]
        bindings = list(evaluate_bindings(db, atoms))
        assert len(bindings) == 1 and bindings[0]["x"] == 1

    def test_initial_binding(self):
        db = spouse_db()
        atoms = [Atom("PersonCandidate", (Var("s"), Var("m")))]
        bindings = list(
            evaluate_bindings(db, atoms, initial_binding={"s": "s2"})
        )
        assert len(bindings) == 1 and bindings[0]["m"] == "m3"

    def test_three_way_join(self):
        db = spouse_db()
        atoms = [
            Atom("Sentence", (Var("s"), Var("t"))),
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ]
        assert len(list(evaluate_bindings(db, atoms))) == 5

    def test_source_override_with_signs(self):
        db = spouse_db()
        atoms = [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ]
        # Delta: one new person in s2 — joins against existing persons.
        sources = {0: [(("s2", "m4"), 1)]}
        results = list(evaluate_query(db, atoms, sources=sources))
        pairs = {(b["m1"], b["m2"]) for b, _ in results}
        assert pairs == {("m4", "m3")}
        assert all(sign == 1 for _, sign in results)

    def test_negative_sign_propagates(self):
        db = spouse_db()
        atoms = [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ]
        sources = {0: [(("s1", "m1"), -1)]}
        results = list(evaluate_query(db, atoms, sources=sources))
        assert {sign for _, sign in results} == {-1}

    def test_binding_counts_aggregates(self):
        db = spouse_db()
        atoms = [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ]
        counts = binding_counts(db, atoms, ("m1", "m2"))
        assert counts[("m1", "m2")] == 1
        assert len(counts) == 5

    def test_binding_counts_cancellation(self):
        db = spouse_db()
        atoms = [Atom("PersonCandidate", (Var("s"), Var("m")))]
        sources = {0: [(("s1", "m1"), 1), (("s1", "m1"), -1)]}
        counts = binding_counts(db, atoms, ("m",), sources=sources)
        assert counts == {}
