"""Fused k-term delta plans (§3.1 delta rules, linear-in-arity form).

Three layers under test:

* equivalence — after *every* update of long randomized sequences
  (retractions, re-insertions, body arities k=1..5) the fused
  factorization ``Σ_i new_{<i} ⋈ Δ_i ⋈ old_{>i}`` must have maintained a
  factor graph canonically identical to ``reference_ground`` of the same
  state: from scratch, tuple at a time, no delta algebra at all;
* old-state views — the ``TableView`` an update's write log implies must
  be the relation as the update found it, through later ``apply_delta``
  and overflow-bucket merges, and exist only while the update is open;
* counters — one shared signed delta batch per predicate per update,
  cached fused plans, and views built only for old state a plan reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, Program, Var, WeightSpec
from repro.db.columnar import _TableIndex
from repro.db.database import Database
from repro.grounding import Grounder, IncrementalGrounder

from tests.reference import reference_ground
from tests.test_incremental_grounding import assert_equivalent, reground


# --------------------------------------------------------------------- #
# Chain workload: every body position references Edge, so one Edge
# update makes ALL k positions "changed" — k fused terms per rule, every
# one of them probing old-state views.
# --------------------------------------------------------------------- #


NODES = tuple(f"n{i}" for i in range(5))


def chain_program(k: int) -> Program:
    """Candidates come from the static Node × Node cross product, so
    every head tuple an update's delta terms can transiently produce is
    always a grounded variable (individual fused terms emit net-zero
    transients; only the netted delta must be meaningful)."""
    program = Program(default_semantics="ratio")
    program.add_relation("Node", ("n",))
    program.add_relation("Edge", ("a", "b"))
    program.add_relation("PathCandidate", ("a", "b"))
    program.add_relation("Reach", ("a", "b"))
    program.declare_variable_relation("Path", ("a", "b"))
    chain = [
        Atom("Edge", (Var(f"x{i}"), Var(f"x{i + 1}"))) for i in range(k)
    ]
    program.add_derivation_rule(
        "cand",
        Atom("PathCandidate", (Var("a"), Var("b"))),
        [Atom("Node", (Var("a"),)), Atom("Node", (Var("b"),))],
    )
    program.add_derivation_rule(
        "vars",
        Atom("Path", (Var("a"), Var("b"))),
        [Atom("PathCandidate", (Var("a"), Var("b")))],
    )
    # k-ary *derivation* body: Reach transitions are themselves derived,
    # exercising old-view capture of a derived head relation.
    program.add_derivation_rule(
        "reach", Atom("Reach", (Var("x0"), Var(f"x{k}"))), list(chain)
    )
    # k-ary *inference* body over the base relation…
    program.add_inference_rule(
        "inf",
        Atom("Path", (Var("x0"), Var(f"x{k}"))),
        list(chain),
        weight=WeightSpec(value=0.5, fixed=True),
    )
    # …and a consumer of the derived relation's transitions.
    program.add_inference_rule(
        "inf2",
        Atom("Path", (Var("a"), Var("b"))),
        [Atom("Reach", (Var("a"), Var("b")))],
        weight=WeightSpec(value=0.25, fixed=True),
    )
    return program


def chain_db(program: Program, edges) -> Database:
    db = program.create_database()
    db.insert_all("Node", [(n,) for n in NODES])
    db.insert_all("Edge", list(edges))
    return db


def ground_sequence(k, edges, updates) -> tuple:
    """Run ``updates`` through the incremental grounder, held to the
    reference after every step; ``(final graph, reference graph)``."""
    return reground(
        lambda: chain_program(k), lambda p: chain_db(p, edges), updates
    )


@st.composite
def edge_update_sequences(draw):
    """(base edges, updates) with count-aware deletes: sequences freely
    retract visible edges and re-insert them later — the transitions the
    old-state views must get right."""
    nodes = [f"n{i}" for i in range(5)]
    universe = [(a, b) for a in nodes for b in nodes if a != b]
    base = draw(
        st.lists(st.sampled_from(universe), min_size=2, max_size=7, unique=True)
    )
    counts = {edge: 1 for edge in base}
    updates = []
    for _ in range(draw(st.integers(1, 5))):
        inserts, deletes = [], []
        for _ in range(draw(st.integers(1, 3))):
            if counts and draw(st.booleans()):
                edge = draw(st.sampled_from(sorted(counts)))
                deletes.append(edge)
                counts[edge] -= 1
                if not counts[edge]:
                    del counts[edge]
            else:
                edge = draw(st.sampled_from(universe))
                inserts.append(edge)
                counts[edge] = counts.get(edge, 0) + 1
        updates.append(
            {
                "inserts": {"Edge": inserts} if inserts else None,
                "deletes": {"Edge": deletes} if deletes else None,
            }
        )
    return base, updates


class TestFusedEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @given(data=edge_update_sequences())
    @settings(max_examples=10, deadline=None)
    def test_fused_matches_reference_after_every_update(self, k, data):
        base, updates = data
        ground_sequence(k, base, updates)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_retraction_reinsertion_roundtrip(self, k):
        base = [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4")]
        updates = [
            {"deletes": {"Edge": [("n1", "n2")]}},
            {"inserts": {"Edge": [("n1", "n2"), ("n1", "n2")]}},  # count 2
            {"deletes": {"Edge": [("n1", "n2")]}},  # count 1: no transition
            {"inserts": {"Edge": [("n4", "n0")]}},  # close the cycle
            {"deletes": {"Edge": [("n0", "n1"), ("n2", "n3")]}},
            {"inserts": {"Edge": [("n0", "n1")]}},  # re-insertion
        ]
        fused, _ = ground_sequence(k, base, updates)
        # Final state from scratch: n2→n3 gone, n4→n0 added — by the
        # reference and by the columnar full ground.
        final = [e for e in base if e != ("n2", "n3")] + [("n4", "n0")]
        program = chain_program(k)
        assert_equivalent(
            fused, reference_ground(program, chain_db(program, final))
        )
        program = chain_program(k)
        scratch = Grounder(program, chain_db(program, final)).ground()
        assert_equivalent(fused, scratch.graph)

    def test_spouse_workload_fused_matches_reference(self):
        from tests.test_grounding import spouse_db, spouse_program

        update = dict(
            inserts={
                "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
                "EL": [("m5", "barack")],
                "PhraseFeature": [("m5", "m6", "and his wife")],
            },
            deletes={
                "PersonCandidate": [("s1", "m1")],
                "Married": [("barack", "michelle")],
            },
        )
        reground(spouse_program, spouse_db, [update])


# --------------------------------------------------------------------- #
# Counters: batch sharing, plan caching, capture bounds (satellites).
# --------------------------------------------------------------------- #


def _columnar_stats(db: Database) -> dict:
    return dict(db.index_stats()["columnar"])


class TestCounters:
    def test_one_delta_batch_per_predicate_across_rules(self):
        """All k fused plans of BOTH 3-ary rules (reach + inf) must
        share one signed Edge batch; the only other batch is Reach's
        (consumed by inf2)."""
        program = chain_program(3)
        db = chain_db(program, [("n0", "n1"), ("n1", "n2"), ("n2", "n3")])
        grounder = IncrementalGrounder.from_scratch(program, db)
        before = _columnar_stats(db)
        grounder.apply_update(inserts={"Edge": [("n3", "n4")]})
        after = _columnar_stats(db)
        assert (
            after["delta_batch_builds"] - before["delta_batch_builds"] == 2
        )

    def test_view_captures_bounded_by_changed_body_preds(self):
        """A view is built when a fused term first probes a changed
        relation's old state, and reused until that relation writes
        again.  Edge changes and the 3-atom bodies of reach and inf
        probe its old state — one view, however many terms read it.
        Reach changes too, but its only reader is inf2's one-atom body,
        whose one term reads no old state; Path has no reader, and
        Node / PathCandidate do not change."""
        program = chain_program(3)
        db = chain_db(program, [("n0", "n1"), ("n1", "n2"), ("n2", "n3")])
        grounder = IncrementalGrounder.from_scratch(program, db)
        before = _columnar_stats(db)
        grounder.apply_update(inserts={"Edge": [("n3", "n4")]})
        after = _columnar_stats(db)
        assert after["view_captures"] - before["view_captures"] == 1
        # Views exist while the update is open, not after it returns.
        assert db.columnar.old_view("Edge") is None

    def test_delta_plans_cached_across_updates(self):
        program = chain_program(2)
        db = chain_db(program, [("n0", "n1"), ("n1", "n2")])
        grounder = IncrementalGrounder.from_scratch(program, db)
        grounder.apply_update(inserts={"Edge": [("n2", "n3")]})
        first = _columnar_stats(db)
        assert first["delta_plan_misses"] > 0
        grounder.apply_update(inserts={"Edge": [("n3", "n4")]})
        second = _columnar_stats(db)
        assert second["delta_plan_misses"] == first["delta_plan_misses"]
        assert second["delta_plan_hits"] > first["delta_plan_hits"]


# --------------------------------------------------------------------- #
# Old-state views: read off the update's log, through writes and merges.
# --------------------------------------------------------------------- #


def _edge_db(rows) -> Database:
    db = Database()
    db.create_relation("E", ("a", "b"))
    db.insert_all("E", list(rows))
    return db


def _view_rows(store, view) -> list:
    _, slots = view.probe((), np.empty((1, 0), dtype=np.int32))
    cols = [store.interner.decode(view.codes_at(slots, p)) for p in (0, 1)]
    return sorted(zip(*cols))


class TestTableViews:
    def test_view_immune_to_apply_delta(self):
        db = _edge_db([("a", "b"), ("b", "c"), ("c", "d")])
        store, rel = db.columnar, db.relation("E")
        store.begin_update()
        rel.delete(("a", "b"))
        rel.insert(("x", "y"))
        rel.insert(("b", "c"))  # count 2: visibility unchanged
        assert rel.num_rows == 3
        view = store.old_view("E")
        assert view.num_rows == 3
        assert _view_rows(store, view) == [("a", "b"), ("b", "c"), ("c", "d")]
        # Keyed probe: the deleted row resolves in the view only.
        key = np.array([[store.interner.probe("a")]], dtype=np.int32)
        assert len(view.probe((0,), key)[1]) == 1
        assert len(rel.probe((0,), key)[1]) == 0
        # And the row the update added resolves in the live relation only.
        key = np.array([[store.interner.probe("x")]], dtype=np.int32)
        assert len(view.probe((0,), key)[1]) == 0
        assert len(rel.probe((0,), key)[1]) == 1
        # Memoized until the relation writes again.
        assert store.old_view("E") is view
        rel.delete(("c", "d"))
        view = store.old_view("E")
        assert _view_rows(store, view) == [("a", "b"), ("b", "c"), ("c", "d")]

    def test_double_flip_keeps_the_old_state(self):
        db = _edge_db([("a", "b"), ("c", "d")])
        store, rel = db.columnar, db.relation("E")
        store.begin_update()
        rel.delete(("a", "b"))
        rel.insert(("a", "b"))  # slot reused: visible again
        rel.insert(("p", "q"))
        rel.delete(("p", "q"))
        # Every flip netted out: the live table is the old state.
        assert store.old_view("E") is None
        rel.delete(("c", "d"))
        rel.insert(("c", "d"))
        rel.delete(("a", "b"))
        assert _view_rows(store, store.old_view("E")) == [("a", "b"), ("c", "d")]

    def test_held_view_survives_forced_merges(self, monkeypatch):
        # Any overflow slot forces a merge.
        monkeypatch.setattr(_TableIndex, "_MERGE_FRACTION", 10**9)
        db = _edge_db([(f"a{i}", "hub") for i in range(20)])
        store = db.columnar
        rel = db.relation("E")
        key = np.array([[store.interner.intern("hub")]], dtype=np.int32)
        rel.probe((1,), key)  # build the index before the update
        store.begin_update()
        for i in range(20, 40):
            rel.insert((f"a{i}", "hub"))
        view = store.old_view("E")
        merges = store.stats["index_merges"]
        assert len(rel.probe((1,), key)[1]) == 40
        assert store.stats["index_merges"] > merges
        # Merges reorder nothing the fence relies on: the held view
        # still answers with exactly the 20 pre-update rows, live.
        assert len(view.probe((1,), key)[1]) == 20

    def test_no_view_outside_an_update_or_after_a_rollback(self):
        db = _edge_db([("a", "b"), ("c", "d")])
        store, rel = db.columnar, db.relation("E")
        rel.delete(("a", "b"))
        assert store.old_view("E") is None  # no update yet
        store.begin_update()
        rel.delete(("c", "d"))
        assert _view_rows(store, store.old_view("E")) == [("c", "d")]
        store.rollback()
        assert store.old_view("E") is None
        assert rel.rows() == (("c", "d"),)
        store.begin_update()
        rel.delete(("c", "d"))
        assert store.old_view("E") is not None
        store.end_update()
        assert store.old_view("E") is None  # closed; the log still undoes it
        store.rollback()
        assert rel.rows() == (("c", "d"),)

    def test_grounder_failure_leaves_no_view(self):
        """A mid-update crash rolls the update back, and no old-state
        view outlives it."""
        from repro.reliability.errors import FaultInjected
        from repro.reliability.faults import Fault, FaultPlan, inject_faults

        program = chain_program(2)
        db = chain_db(program, [("n0", "n1"), ("n1", "n2")])
        grounder = IncrementalGrounder.from_scratch(program, db)
        before = _columnar_stats(db)
        # Every fused term has run by the update's last injection
        # point; only Edge's old state is probed (Reach's reader, inf2,
        # has a one-atom body).
        plan = FaultPlan([Fault("ground.update.finish")])
        with inject_faults(plan), pytest.raises(FaultInjected):
            grounder.apply_update(inserts={"Edge": [("n2", "n3")]})
        after = _columnar_stats(db)
        assert after["view_captures"] - before["view_captures"] == 1
        assert db.columnar.old_view("Edge") is None
