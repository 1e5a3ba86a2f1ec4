"""Fused k-term delta plans (§3.1 delta rules, linear-in-arity form).

Three layers under test:

* equivalence — after *every* update of long randomized sequences
  (retractions, re-insertions, body arities k=1..5) the fused
  factorization ``Σ_i new_{<i} ⋈ Δ_i ⋈ old_{>i}`` must have maintained a
  factor graph canonically identical to ``reference_ground`` of the same
  state: from scratch, tuple at a time, no delta algebra at all;
* old-state views — ``TableView`` snapshots must be immune to concurrent
  ``apply_delta``, overflow-bucket merges, and compaction;
* counters — one shared signed delta batch per predicate per update,
  cached fused plans, and captures bounded by changed body predicates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, Program, Var, WeightSpec
from repro.db.columnar import ColumnarTable, Interner
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
    copy-on-write views must get right."""
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
        """Edge and Reach appear in rule bodies and transition; Path
        transitions too but no body references it, and Node/PathCandidate
        never change — two captures, regardless of how many fused terms
        probe old state."""
        program = chain_program(3)
        db = chain_db(program, [("n0", "n1"), ("n1", "n2"), ("n2", "n3")])
        grounder = IncrementalGrounder.from_scratch(program, db)
        before = _columnar_stats(db)
        grounder.apply_update(inserts={"Edge": [("n3", "n4")]})
        after = _columnar_stats(db)
        assert after["view_captures"] - before["view_captures"] == 2
        # Views live exactly one update: the epoch is released even
        # though nothing failed.
        assert db.columnar._old_views == {}

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
# Old-state views: immunity to apply_delta, merges, and compaction.
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
        table = store.table(rel)
        view = table.capture_view()
        assert view.num_rows == 3
        rel.delete(("a", "b"))
        rel.insert(("x", "y"))
        rel.insert(("b", "c"))  # count 2: visibility unchanged
        table.sync()
        assert table.num_rows == 3
        assert view.num_rows == 3
        assert _view_rows(store, view) == [("a", "b"), ("b", "c"), ("c", "d")]
        # Keyed probe: the deleted row resolves in the view only.
        key = np.array([[store.interner.probe("a")]], dtype=np.int32)
        assert len(view.probe((0,), key)[1]) == 1
        assert len(table.probe((0,), key)[1]) == 0
        # And the post-capture row resolves in the live table only.
        key = np.array([[store.interner.probe("x")]], dtype=np.int32)
        assert len(view.probe((0,), key)[1]) == 0
        assert len(table.probe((0,), key)[1]) == 1

    def test_double_flip_keeps_capture_state(self):
        db = _edge_db([("a", "b")])
        store, rel = db.columnar, db.relation("E")
        table = store.table(rel)
        view = table.capture_view()
        rel.delete(("a", "b"))
        table.sync()
        rel.insert(("a", "b"))  # slot reused: alive flips back
        table.sync()
        assert _view_rows(store, view) == [("a", "b")]
        rel.insert(("p", "q"))
        table.sync()
        rel.delete(("p", "q"))
        table.sync()
        assert _view_rows(store, view) == [("a", "b")]

    def test_view_survives_compaction_by_materializing(self):
        rows = [(f"a{i}", f"b{i}") for i in range(600)]
        db = _edge_db(rows)
        store = db.columnar
        table = store.table(db.relation("E"))
        view = table.capture_view()
        for i in range(500):
            db.relation("E").delete((f"a{i}", f"b{i}"))
        rebuilds = store.stats["rebuilds"]
        table.sync()  # crosses the dead-fraction threshold: compacts
        assert store.stats["rebuilds"] > rebuilds
        assert view._materialized is not None
        assert view.num_rows == 600
        assert _view_rows(store, view) == sorted(rows)
        # Live table kept only the survivors.
        assert table.num_rows == 100

    def test_held_view_survives_forced_merges(self):
        db = _edge_db([(f"a{i}", "hub") for i in range(20)])
        store = db.columnar
        store.merge_fraction = 10**9  # any overflow slot forces a merge
        rel = db.relation("E")
        table = store.table(rel)
        key = np.array([[store.interner.intern("hub")]], dtype=np.int32)
        table.probe((1,), key)  # build the index pre-capture
        view = table.capture_view()
        merges = store.stats["index_merges"]
        for i in range(20, 40):
            rel.insert((f"a{i}", "hub"))
            table.sync()
            table.probe((1,), key)
        assert store.stats["index_merges"] > merges
        # Merges reorder nothing the fence relies on: the held view
        # still answers with exactly the 20 pre-capture rows, live.
        assert view._materialized is None
        assert len(view.probe((1,), key)[1]) == 20
        assert len(table.probe((1,), key)[1]) == 40

    def test_merge_knobs_reach_indexes(self):
        db = _edge_db([("a", "b")])
        store = db.columnar
        store.merge_fraction = 7
        store.probe_merge_threshold = 99
        table = store.table(db.relation("E"))
        index = table._ensure_index((0,))
        assert index.merge_fraction == 7
        assert index.probe_merge_threshold == 99

    def test_constructor_knobs_direct(self):
        db = _edge_db([("a", "b"), ("c", "d")])
        stats = dict.fromkeys(
            ("index_builds", "index_merges", "probes", "rebuilds"), 0
        )
        table = ColumnarTable(
            db.relation("E"),
            Interner(),
            stats,
            merge_fraction=2,
            probe_merge_threshold=5,
        )
        index = table._ensure_index((1,))
        assert index.merge_fraction == 2
        assert index.probe_merge_threshold == 5

    def test_released_view_stops_copy_on_write(self):
        db = _edge_db([("a", "b"), ("c", "d")])
        store, rel = db.columnar, db.relation("E")
        table = store.table(rel)
        view = table.capture_view()
        view.release()
        rel.delete(("a", "b"))
        table.sync()  # must not touch the detached view
        assert view._overrides == {}
        assert table._views == []

    def test_grounder_releases_views_on_failure(self):
        """A mid-update crash must not leak capture epochs (the store is
        pickled by service checkpoints between updates)."""
        from repro.reliability.errors import FaultInjected
        from repro.reliability.faults import Fault, FaultPlan, inject_faults

        program = chain_program(2)
        db = chain_db(program, [("n0", "n1"), ("n1", "n2")])
        grounder = IncrementalGrounder.from_scratch(program, db)
        before = _columnar_stats(db)
        # Edge and Reach both captured and applied by the time the
        # update's last injection point fires.
        plan = FaultPlan([Fault("ground.update.finish")])
        with inject_faults(plan), pytest.raises(FaultInjected):
            grounder.apply_update(inserts={"Edge": [("n2", "n3")]})
        after = _columnar_stats(db)
        assert after["view_captures"] - before["view_captures"] == 2
        assert db.columnar._old_views == {}
