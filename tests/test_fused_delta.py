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
  cached fused plans, and views built only for old state a plan reads;
* pruned terms — a term whose Δ column holds only codes interned in the
  open update, keying an old-state probe, returns no rows when run
  anyway, and pruning it changes no batch.
"""

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, Program, Var, WeightSpec
from repro.db.columnar import _TableIndex
from repro.db.database import Database
from repro.db.plan import JoinPlan, canonicalize_batch
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


# --------------------------------------------------------------------- #
# Terms that cannot match: a one-document insert joins its own rows
# against old rows on ids it introduced.
# --------------------------------------------------------------------- #

#: each rule's body atoms, permuted by a drawn order so the fused terms
#: put different atoms after their source
DOCUMENT_BODIES = {
    "cand": [("Sentence", ("s", "m1")), ("Sentence", ("s", "m2"))],
    "ev": [("Cand", ("m1", "m2")), ("EL", ("m1", "e1")), ("EL", ("m2", "e2")),
           ("Known", ("e1", "e2"))],
    "fe": [("Cand", ("m1", "m2")), ("Feature", ("m1", "m2", "f"))],
    "el": [("Cand", ("m1", "m2")), ("EL", ("m1", "e1")), ("EL", ("m2", "e1"))],
}

DOCUMENT_BASE = {
    "Sentence": [("s0", "m0"), ("s0", "m1"), ("s1", "m2"), ("s1", "m3")],
    "EL": [("m0", "e0"), ("m1", "e1"), ("m2", "e0"), ("m3", "e0")],
    "Known": [("e0", "e1")],
    "Feature": [("m0", "m1", "f0"), ("m2", "m3", "f1")],
}


def document_program(orders: dict) -> Program:
    """Spouse-shaped (Fig. 2): sentences pair their mentions into
    candidates, known entity pairs supervise them, phrase features and
    shared entities weigh them."""
    program = Program(default_semantics="ratio")
    for name, columns in (
        ("Sentence", ("s", "m")), ("EL", ("m", "e")), ("Known", ("e1", "e2")),
        ("Feature", ("m1", "m2", "f")), ("Cand", ("m1", "m2")),
    ):
        program.add_relation(name, columns)
    program.declare_variable_relation("Rel", ("m1", "m2"))

    def body(rule):
        atoms = DOCUMENT_BODIES[rule]
        order = orders.get(rule, range(len(atoms)))
        return [Atom(atoms[i][0], tuple(map(Var, atoms[i][1]))) for i in order]

    rel = Atom("Rel", (Var("m1"), Var("m2")))
    program.add_derivation_rule("cand", Atom("Cand", (Var("m1"), Var("m2"))), body("cand"))
    program.add_derivation_rule("vars", rel, [Atom("Cand", (Var("m1"), Var("m2")))])
    program.add_derivation_rule(
        "ev", Atom("Rel_Ev", (Var("m1"), Var("m2"), True)), body("ev")
    )
    program.add_inference_rule("fe", rel, body("fe"), weight=WeightSpec(tied_on=("f",)))
    program.add_inference_rule(
        "el", rel, body("el"), weight=WeightSpec(value=0.5, fixed=True)
    )
    return program


def document_grounder(orders: dict) -> IncrementalGrounder:
    program = document_program(orders)
    db = program.create_database()
    for name, rows in DOCUMENT_BASE.items():
        db.insert_all(name, rows)
    return IncrementalGrounder.from_scratch(program, db)


def document_update(u: int, mentions: int, entities: list, phrase: str) -> dict:
    """Document ``u``: a fresh sentence of fresh mentions, linked to
    ``entities`` (cycled), its mention pairs featuring ``phrase``."""
    ms = [f"d{u}m{j}" for j in range(mentions)]
    return {
        "Sentence": [(f"d{u}", m) for m in ms],
        "EL": [(m, entities[j % len(entities)]) for j, m in enumerate(ms)],
        "Feature": [(a, b, phrase) for a in ms for b in ms if a != b],
    }


@st.composite
def document_histories(draw):
    """``(orders, updates)``: a permutation of every rule body, and a
    history of one-document inserts (fresh sentence and mention ids,
    old or fresh entities and phrases) mixed with count-aware
    retractions and re-insertions of stored rows."""
    orders = {
        rule: tuple(draw(st.permutations(range(len(atoms)))))
        for rule, atoms in DOCUMENT_BODIES.items()
    }
    stored = Counter((name, row) for name, rows in DOCUMENT_BASE.items() for row in rows)
    entities = ["e0", "e1"]
    updates = []
    for u in range(draw(st.integers(1, 5))):
        inserts: dict = {}
        deletes: dict = {}
        if draw(st.booleans()):
            if draw(st.booleans()):
                entities.append(f"d{u}e")
            linked = draw(st.lists(st.sampled_from(entities), min_size=1, max_size=3))
            phrase = draw(st.sampled_from(["f0", "f1", f"d{u}f"]))
            inserts = document_update(u, draw(st.integers(1, 3)), linked, phrase)
            if draw(st.booleans()):
                inserts["Known"] = [(linked[0], linked[-1])]
        for _ in range(draw(st.integers(0, 3))):
            name, row = draw(st.sampled_from(sorted(stored)))
            if draw(st.booleans()):
                deletes.setdefault(name, []).append(row)
                stored[name, row] -= 1
                if not stored[name, row]:
                    del stored[name, row]
            else:
                inserts.setdefault(name, []).append(row)
        for name, rows in inserts.items():
            stored.update((name, row) for row in rows)
        if inserts or deletes:
            updates.append({"inserts": inserts, "deletes": deletes})
    return orders, updates


@contextmanager
def executions(observe):
    """Call ``observe(run, plan, store, db, sources, batch)`` after every
    plan execution, ``run`` being the unwrapped ``JoinPlan.execute``."""
    run = JoinPlan.execute

    def execute(plan, store, db, sources=None):
        batch = run(plan, store, db, sources=sources)
        observe(run, plan, store, db, sources, batch)
        return batch

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JoinPlan, "execute", execute)
        yield


def run_anyway(run, plan, store, db, sources):
    """``plan`` executed with no floor: every step probes."""
    floor, store.floor = store.floor, None
    try:
        return run(plan, store, db, sources=sources)
    finally:
        store.floor = floor


def batch_key(batch) -> tuple:
    batch = canonicalize_batch(batch)
    return (
        tuple(sorted((name, col.tolist()) for name, col in batch.cols.items())),
        batch.signs.tolist(),
    )


class TestTermsThatCannotMatch:
    def test_one_document_insert_prunes_its_fresh_terms(self):
        """A document of fresh sentence and mention ids: its candidate
        pairs, and every term probing old links or features on its
        mentions, prune — and run anyway, each is empty."""
        grounder = document_grounder({})
        pruned = []

        def observe(run, plan, store, db, sources, batch):
            if plan.cannot_match(store, sources):
                pruned.append(run_anyway(run, plan, store, db, sources).num_rows)

        with executions(observe):
            grounder.apply_update(inserts=document_update(9, 3, ["e0", "e1"], "f0"))
        stats = grounder.db.index_stats()["columnar"]
        assert stats["terms_pruned"] == len(pruned) > 0
        assert pruned == [0] * len(pruned)
        assert grounder.db.columnar.floor is None  # closed with the update

    @given(history=document_histories())
    @settings(max_examples=25, deadline=None)
    def test_a_pruned_term_run_anyway_returns_no_rows(self, history):
        orders, updates = history
        grounder = document_grounder(orders)

        def observe(run, plan, store, db, sources, batch):
            if plan.cannot_match(store, sources):
                assert batch.num_rows == 0
                assert run_anyway(run, plan, store, db, sources).num_rows == 0

        with executions(observe):
            for update in updates:
                grounder.apply_update(**update)

    @given(history=document_histories())
    @settings(max_examples=25, deadline=None)
    def test_every_delta_batch_is_the_same_with_pruning_off(self, history):
        """Every plan execution returns the same canonical batch, and
        the grounded factor tables end equal, column by column."""
        orders, updates = history
        batches, tables = {}, {}
        for prune in (True, False):
            grounder = document_grounder(orders)
            seen = batches[prune] = []

            def observe(run, plan, store, db, sources, batch):
                seen.append(batch_key(batch))

            with executions(observe), pytest.MonkeyPatch.context() as patch:
                if not prune:
                    patch.setattr(JoinPlan, "cannot_match", lambda *_: False)
                for update in updates:
                    grounder.apply_update(**update)
            tables[prune] = grounder.graph.factor_table().columns()
            pruned = grounder.db.index_stats()["columnar"]["terms_pruned"]
            assert prune or not pruned
        assert batches[True] == batches[False]
        for name, column in tables[True].items():
            assert np.array_equal(column, tables[False][name]), name
