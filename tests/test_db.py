"""Tests for the relational substrate: relations, indexes, joins."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    def test_apply_delta_adds_derivations(self):
        rel = Relation("R", ("a", "b"))
        rel.insert(("x", 1))
        rel.apply_delta({("x", 1): 2, ("y", 2): 1})
        assert rel.count(("x", 1)) == 3
        assert rel.count(("y", 2)) == 1

    def test_apply_delta_atomic_on_error(self):
        """A bad entry anywhere in the delta must leave the relation —
        its index and the interner included — completely untouched."""
        rel = Relation("R", ("a", "b"))
        rel.insert(("x", 1))
        rel.lookup((0,), ("x",))  # force an index into existence
        codes = len(rel.interner)
        with pytest.raises(ValueError):
            rel.apply_delta({("y", 2): 1, ("bad",): 1})
        with pytest.raises(KeyError):
            rel.apply_delta({("y", 2): 1, ("x", 1): -2})
        assert rel.counts() == {("x", 1): 1}
        assert rel.lookup((0,), ("y",)) == ()
        assert len(rel.interner) == codes

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


VALUES_A = ("a", "b", 3, 4)
VALUES_B = (0, "z")
UNIVERSE = [(x, y) for x in VALUES_A for y in VALUES_B]
POSITION_SUBSETS = [(), (0,), (1,), (0, 1)]


def view_rows(relation, view) -> list:
    _, slots = view.probe((), np.empty((1, 0), dtype=np.int32))
    codes = np.stack(
        [view.codes_at(slots, p) for p in range(relation.arity)], axis=1
    )
    return relation.interner.decode_rows(codes)


class TestRelationModel:
    """Random signed-count histories — inserts, deletes, re-inserts and
    over-deletes — against a ``collections.Counter`` model, with
    compaction forced low.  From step ``capture_at`` on an update is
    open, and the view its log implies must be the model as of then."""

    @given(
        deltas=st.lists(
            st.dictionaries(
                st.sampled_from(UNIVERSE),
                st.integers(-2, 3).filter(bool),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=30,
        ),
        capture_at=st.integers(0, 30),
    )
    @example(  # all eight in, update open, six out: compaction deferred
        deltas=[
            {row: 1 for row in UNIVERSE},
            {row: -1 for row in UNIVERSE[:6]},
            {UNIVERSE[0]: 2, UNIVERSE[7]: -2},
            {UNIVERSE[7]: -1},
        ],
        capture_at=1,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_counter_model(self, deltas, capture_at):
        with mock.patch.object(Relation, "_COMPACT_MIN_SLOTS", 4):
            self.check_history(deltas, capture_at)

    def check_history(self, deltas, capture_at) -> None:
        rel = Relation("R", ("a", "b"))
        model = Counter()
        snapshot = None
        for step, delta in enumerate(deltas):
            if step == capture_at:
                rel._store.begin_update()
                snapshot = {row for row, c in model.items() if c > 0}
            new = {row: model[row] + change for row, change in delta.items()}
            if any(count < 0 for count in new.values()):
                before = rel.counts()
                with pytest.raises(KeyError):
                    rel.apply_delta(delta)
                assert rel.counts() == before
            else:
                appeared, disappeared = rel.apply_delta(delta)
                assert set(appeared) == {
                    row for row, c in new.items() if c > 0 and model[row] == 0
                }
                assert set(disappeared) == {
                    row for row, c in new.items() if c == 0 and model[row] > 0
                }
                assert len(appeared) + len(disappeared) == len(
                    set(appeared) | set(disappeared)
                )
                model.update(delta)
            self.check_state(rel, model)
            if snapshot is not None:
                self.check_view(rel, snapshot)

    def check_state(self, rel, model) -> None:
        visible = {row for row, c in model.items() if c > 0}
        assert len(rel) == len(visible)
        rows = rel.rows()
        assert set(rows) == visible and len(rows) == len(visible)
        assert rel.counts() == {row: model[row] for row in visible}
        for row in UNIVERSE:
            assert rel.count(row) == model[row]
            assert (row in rel) == (row in visible)
        for positions in POSITION_SUBSETS:
            for key in {tuple(row[p] for p in positions) for row in UNIVERSE}:
                got = rel.lookup(positions, key)
                expected = {
                    row for row in visible
                    if tuple(row[p] for p in positions) == key
                }
                assert set(got) == expected and len(got) == len(expected)

    def check_view(self, rel, snapshot) -> None:
        view = rel._store.old_view(rel.name)
        if view is None:  # nothing flipped: the live table is the old state
            assert set(rel.rows()) == snapshot
            return
        rows = view_rows(rel, view)
        assert set(rows) == snapshot and len(rows) == len(snapshot)
        assert view.num_rows == len(snapshot)
        for value in VALUES_A:
            code = rel.interner.probe(value)
            if code < 0:
                continue
            _, slots = view.probe((0,), np.array([[code]], dtype=np.int32))
            assert len(slots) == sum(1 for row in snapshot if row[0] == value)


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
