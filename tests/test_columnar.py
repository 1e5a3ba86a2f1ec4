"""Randomized equivalence: columnar plans vs the reference evaluator.

The compiled columnar plans are the only join engine in the package;
what they must compute is defined by the tuple-at-a-time evaluator under
``tests/reference``: on any program, database, and update sequence the
same signed binding multisets, the same grounded graph (canonically,
after every update), and the same posterior marginals.  Satellite
regressions (counted grounding multisets, static join order, index
survival) live here too.
"""

import numpy as np
import pytest

from repro.datalog import Atom, DerivationRule, InferenceRule, Program, Var, WeightSpec
from repro.db import Database
from repro.db.columnar import ColumnarBatch
from repro.db.plan import BindingBatch, canonicalize_batch
from repro.db.query import static_join_order
from repro.graph.factor_graph import FactorGraph
from repro.grounding import Grounder, IncrementalGrounder
from repro.grounding.grounder import GroundingMultiset
from repro.inference.exact import ExactInference

from tests.reference import binding_counts, evaluate_query, reference_ground, replay
from tests.reference.columnar import columnar_binding_counts
from tests.test_incremental_grounding import assert_equivalent


# ---------------------------------------------------------------------- #
# Random query / database generators
# ---------------------------------------------------------------------- #


def random_database(rng, num_relations=3, domain=8, max_rows=30):
    db = Database()
    arities = {}
    for ri in range(num_relations):
        name = f"R{ri}"
        arity = int(rng.integers(1, 4))
        arities[name] = arity
        db.create_relation(name, tuple(f"c{i}" for i in range(arity)))
        for _ in range(int(rng.integers(0, max_rows)) if max_rows else 0):
            db.relation(name).insert(
                tuple(int(rng.integers(domain)) for _ in range(arity))
            )
    return db, arities


def random_query(rng, arities, max_atoms=3, num_vars=4, domain=8):
    atoms = []
    names = list(arities)
    for _ in range(int(rng.integers(1, max_atoms + 1))):
        name = names[int(rng.integers(len(names)))]
        args = []
        for _ in range(arities[name]):
            kind = rng.integers(3)
            if kind == 0:
                args.append(int(rng.integers(domain)))  # constant
            else:
                args.append(Var(f"v{int(rng.integers(num_vars))}"))
        atoms.append(Atom(name, tuple(args)))
    return atoms


def signed_multiset(pairs):
    counts = {}
    for binding, sign in pairs:
        key = tuple(sorted(binding.items()))
        counts[key] = counts.get(key, 0) + sign
    return {k: c for k, c in counts.items() if c != 0}


class TestPlanVsReferenceBindings:
    def test_random_queries_match(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            db, arities = random_database(rng)
            atoms = random_query(rng, arities)
            head_vars = sorted(
                {v for atom in atoms for v in atom.variables()}
            )
            expected = binding_counts(db, atoms, head_vars)
            col = columnar_binding_counts(db, atoms, head_vars)
            assert expected == col, f"trial {trial}: {expected} != {col}"

    def test_random_delta_sources_match(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            db, arities = random_database(rng)
            atoms = random_query(rng, arities, max_atoms=3)
            head_vars = sorted(
                {v for atom in atoms for v in atom.variables()}
            )
            # A random signed delta over a random subset of atoms.
            sources = {}
            for i, atom in enumerate(atoms):
                if rng.random() < 0.5:
                    rows = [
                        tuple(
                            int(rng.integers(8))
                            for _ in range(arities[atom.pred])
                        )
                        for _ in range(int(rng.integers(1, 5)))
                    ]
                    sources[i] = [
                        (row, 1 if rng.random() < 0.6 else -1)
                        for row in rows
                    ]
            if not sources:
                continue
            expected = binding_counts(db, atoms, head_vars, sources=sources)
            col = columnar_binding_counts(
                db, atoms, head_vars, sources=sources
            )
            assert expected == col, f"trial {trial}: {expected} != {col}"

    def test_prebuilt_columnar_batch_source(self):
        db = Database()
        db.create_relation("R", ("a", "b"))
        db.insert_all("R", [(1, 2), (2, 3)])
        atoms = [Atom("R", (Var("x"), Var("y"))), Atom("R", (Var("y"), Var("z")))]
        source_rows = [((2, 9), 1), ((2, 3), -1)]
        expected = binding_counts(db, atoms, ("x", "y", "z"), sources={1: source_rows})
        batch = ColumnarBatch.from_signed_rows(db.columnar.interner, source_rows)
        col = columnar_binding_counts(db, atoms, ("x", "y", "z"), sources={1: batch})
        assert expected == col


# ---------------------------------------------------------------------- #
# Random programs: full ground + update sequences, columnar ≡ reference
# ---------------------------------------------------------------------- #


def random_program_and_db(rng):
    """A small random (non-recursive) DeepDive-style program + data."""
    domain = 6
    program = Program(default_semantics="ratio")
    program.add_relation("Base", ("a", "b"))
    program.add_relation("Side", ("a", "f"))
    program.add_relation("Cand", ("a", "b"))
    program.declare_variable_relation("Q", ("a", "b"))

    program.add_derivation_rule(
        "cand",
        Atom("Cand", (Var("x"), Var("y"))),
        [Atom("Base", (Var("x"), Var("y")))],
    )
    program.add_derivation_rule(
        "vars",
        Atom("Q", (Var("x"), Var("y"))),
        [Atom("Cand", (Var("x"), Var("y")))],
    )
    program.add_inference_rule(
        "feat",
        Atom("Q", (Var("x"), Var("y"))),
        [
            Atom("Cand", (Var("x"), Var("y"))),
            Atom("Side", (Var("x"), Var("f"))),
        ],
        weight=WeightSpec(tied_on=("f",)),
    )
    if rng.random() < 0.5:
        program.add_inference_rule(
            "selfneg",
            Atom("Q", (Var("x"), Var("y"))),
            [
                Atom("Q", (Var("x"), Var("y"))),
                Atom("Cand", (Var("x"), Var("y"))),
            ],
            weight=WeightSpec(value=0.7, fixed=True),
            semantics="logical",
            negated_positions={0},
        )

    def build_db(p):
        db = p.create_database()
        for _ in range(int(rng.integers(4, 14))):
            db.relation("Base").insert(
                (int(rng.integers(domain)), int(rng.integers(domain)))
            )
        for _ in range(int(rng.integers(2, 10))):
            db.relation("Side").insert(
                (int(rng.integers(domain)), int(rng.integers(3)))
            )
        return db

    def random_update(db):
        update = {"inserts": {}, "deletes": {}}
        for name in ("Base", "Side"):
            relation = db.relation(name)
            if rng.random() < 0.7:
                arity = relation.arity
                update["inserts"][name] = [
                    tuple(int(rng.integers(domain)) for _ in range(arity))
                    for _ in range(int(rng.integers(1, 4)))
                ]
            rows = list(relation.rows())
            if rows and rng.random() < 0.5:
                update["deletes"][name] = [
                    rows[int(rng.integers(len(rows)))]
                ]
        return update

    return program, build_db, random_update


class TestGroundingEquivalence:
    def test_full_ground_matches_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            program, build_db, _updates = random_program_and_db(rng)
            db = build_db(program)
            columnar = Grounder(program, db.copy()).ground()
            assert_equivalent(columnar.graph, reference_ground(program, db))

    def test_update_sequences_match_reference(self):
        """After every update: the incrementally maintained graph ≡ the
        reference ground of a twin database the updates were replayed on
        (row changes only, so the twin can share the program)."""
        rng = np.random.default_rng(3)
        for _ in range(12):
            program, build_db, random_update = random_program_and_db(rng)
            db = build_db(program)
            twin_db = db.copy()
            grounder = IncrementalGrounder.from_scratch(program, db)
            for _ in range(3):
                update = random_update(db)
                grounder.apply_update(**update)
                replay(program, twin_db, update)
                scratch_db = twin_db.copy()
                assert_equivalent(
                    grounder.graph, reference_ground(program, scratch_db)
                )
                assert db.stats() == scratch_db.stats()

    def test_marginals_after_update_match_reference(self):
        """The maintained graph and the reference ground agree on exact
        posteriors after an incremental update (weights keyed, so id
        order may differ)."""
        rng = np.random.default_rng(4)
        compared = 0
        for _ in range(20):
            program, build_db, random_update = random_program_and_db(rng)
            db = build_db(program)
            twin_db = db.copy()
            grounder = IncrementalGrounder.from_scratch(program, db)
            update = random_update(db)
            grounder.apply_update(**update)
            if len(grounder.graph.free_variables()) > 12:
                continue
            replay(program, twin_db, update)
            graphs = (grounder.graph, reference_ground(program, twin_db))
            # Seed learnable weights deterministically BY KEY on both.
            for graph in graphs:
                for wid in range(len(graph.weights)):
                    if not graph.weights.is_fixed(wid):
                        key = graph.weights.key_for(wid)
                        graph.weights.set_value(
                            wid, (hash(str(key)) % 7 - 3) * 0.3
                        )
            by_name = [
                {
                    graph.name_of(v): p
                    for v, p in enumerate(ExactInference(graph).marginals())
                    if graph.name_of(v) is not None
                }
                for graph in graphs
            ]
            shared = set(by_name[0]) & set(by_name[1])
            assert shared
            for name in shared:
                assert by_name[0][name] == pytest.approx(
                    by_name[1][name], abs=1e-9
                )
            compared += 1
            if compared >= 5:
                break
        assert compared >= 1


# ---------------------------------------------------------------------- #
# Satellite: counted grounding multiset (heavy retraction is O(|Δ|))
# ---------------------------------------------------------------------- #


class TestGroundingMultiset:
    def test_counted_semantics(self):
        ms = GroundingMultiset()
        g1, g2 = ((1, True),), ((2, False),)
        ms.append(g1)
        ms.append(g2)
        ms.append(g1)
        assert len(ms) == 3
        assert sorted(ms) == sorted([g1, g1, g2])
        ms.remove(g1)
        assert len(ms) == 2
        assert ms.counts() == {g1: 1, g2: 1}
        ms.remove(g1)
        with pytest.raises(ValueError):
            ms.remove(g1)
        assert ms.as_tuple() == (g2,)

    def test_bulk_retraction_is_linear(self):
        """Regression: retracting a large batch must not be quadratic.

        20k retractions from a 20k-grounding record complete in well
        under a second with the counted multiset; the old list-based
        ``remove`` was an O(n) scan each (~minutes at this size).
        """
        import time

        n = 20000
        ms = GroundingMultiset(((i, True),) for i in range(n))
        assert len(ms) == n
        start = time.perf_counter()
        for i in range(n):
            ms.remove(((i, True),))
        elapsed = time.perf_counter() - start
        assert len(ms) == 0
        assert elapsed < 1.0, f"bulk retraction took {elapsed:.2f}s"

    def test_incremental_promotes_records_to_multisets(self):
        rng = np.random.default_rng(5)
        program, build_db, _updates = random_program_and_db(rng)
        grounder = IncrementalGrounder.from_scratch(program, build_db(program))
        assert all(
            isinstance(r.groundings, GroundingMultiset)
            for r in grounder.records.values()
        )

    def test_heavy_retraction_update(self):
        """A delta that retracts many groundings of one record at once."""
        program = Program(default_semantics="ratio")
        program.add_relation("Occ", ("a", "s"))
        program.add_relation("Cand", ("a",))
        program.declare_variable_relation("Q", ("a",))
        program.add_derivation_rule(
            "cand", Atom("Cand", (Var("x"),)), [Atom("Occ", (Var("x"), Var("s")))]
        )
        program.add_derivation_rule(
            "vars", Atom("Q", (Var("x"),)), [Atom("Cand", (Var("x"),))]
        )
        program.add_inference_rule(
            "occ",
            Atom("Q", (Var("x"),)),
            [Atom("Occ", (Var("x"), Var("s")))],
        )
        db = program.create_database()
        rows = [("a", f"s{i}") for i in range(400)]
        db.insert_all("Occ", rows)
        grounder = IncrementalGrounder.from_scratch(program, db)
        (record,) = grounder.records.values()
        assert len(record.groundings) == 400
        grounder.apply_update(deletes={"Occ": rows[1:]})
        (record,) = grounder.records.values()
        assert len(record.groundings) == 1
        # Rebuild from the surviving database state and compare.
        fresh_db = program.create_database()
        fresh_db.insert_all("Occ", rows[:1])
        assert_equivalent(grounder.graph, reference_ground(program, fresh_db))


# ---------------------------------------------------------------------- #
# Satellite: hoisted static join order ≡ per-level dynamic recomputation
# ---------------------------------------------------------------------- #


def _dynamic_reference_order(atoms, source_positions, prebound):
    """The pre-hoist per-level rescoring, reimplemented as the oracle."""
    atoms = tuple(atoms)
    bound = set(prebound)
    remaining = list(range(len(atoms)))
    order = []
    while remaining:

        def bound_score(idx):
            count = sum(
                1
                for arg in atoms[idx].args
                if not isinstance(arg, Var) or arg.name in bound
            )
            return (idx in source_positions, count, -idx)

        idx = max(remaining, key=bound_score)
        remaining.remove(idx)
        order.append(idx)
        bound.update(atoms[idx].variables())
    return tuple(order)


class TestStaticJoinOrder:
    def test_matches_dynamic_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            _db, arities = random_database(rng, num_relations=4, max_rows=0)
            atoms = random_query(rng, arities, max_atoms=4)
            sources = frozenset(
                i for i in range(len(atoms)) if rng.random() < 0.3
            )
            prebound = frozenset(
                f"v{i}" for i in range(4) if rng.random() < 0.2
            )
            assert static_join_order(atoms, sources, prebound) == \
                _dynamic_reference_order(atoms, sources, prebound)

    def test_evaluation_unchanged_by_hoisting(self):
        """Bindings (order included) match a per-level-rescored evaluation."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            db, arities = random_database(rng)
            atoms = random_query(rng, arities)
            result = list(evaluate_query(db, atoms))
            # The hoisted order is the only order the evaluator uses;
            # signed multisets must match binding_counts ground truth.
            head_vars = sorted({v for a in atoms for v in a.variables()})
            agg = {}
            for binding, sign in result:
                key = tuple(binding[v] for v in head_vars)
                agg[key] = agg.get(key, 0) + sign
            agg = {k: c for k, c in agg.items() if c != 0}
            assert agg == binding_counts(db, atoms, head_vars)


class TestCanonicalBatchOrder:
    def test_order_depends_only_on_the_contents(self):
        """Folding interns weights, head constants and variable ids in
        batch order, so a batch's canonical order must not depend on the
        join order that produced it: any permutation canonicalizes to the
        same rows, insertions before retractions among equal rows."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(0, 40))
            cols = {
                name: rng.integers(0, 4, size=m).astype(np.int32)
                for name in ("y", "x", "z")
            }
            batch = BindingBatch(cols=cols, signs=rng.choice([-1, 1, 2], size=m))
            perm = rng.permutation(m)
            shuffled = BindingBatch(
                cols={name: col[perm] for name, col in cols.items()},
                signs=batch.signs[perm],
            )
            a, b = canonicalize_batch(batch), canonicalize_batch(shuffled)
            assert np.array_equal(a.signs, b.signs)
            for name in cols:
                assert np.array_equal(a.cols[name], b.cols[name])
            rows = list(zip(a.cols["x"].tolist(), a.cols["y"].tolist(),
                            a.cols["z"].tolist(), (-a.signs).tolist()))
            assert rows == sorted(rows)

    def test_canonical_order_is_a_permutation_of_the_rows(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = int(rng.integers(0, 25))
            cols = {name: rng.integers(0, 3, size=m).astype(np.int32) for name in "ab"}
            batch = BindingBatch(cols=cols, signs=rng.choice([-1, 1], size=m))
            out = canonicalize_batch(batch)

            def rows(b):
                return sorted(
                    zip(b.cols["a"].tolist(), b.cols["b"].tolist(), b.signs.tolist())
                )

            assert out.num_rows == m
            assert rows(out) == rows(batch)


class TestResolveTables:
    def test_an_empty_join_still_syncs_every_step(self):
        """The interner after an execution is a function of the plan and
        the data: a join that comes up empty at its first step still
        mirrors — and interns — every later step's relation."""
        db = Database()
        db.create_relation("E", ("a", "b"))
        db.create_relation("F", ("b", "c"))
        db.insert_all("F", [("p", "q"), ("q", "r")])
        store = db.columnar
        plan = store.plan(
            (Atom("E", (Var("x"), Var("y"))), Atom("F", (Var("y"), Var("z"))))
        )
        assert plan.atoms[plan.steps[0].atom_index].pred == "E"
        assert store.interner.probe("r") < 0
        batch = plan.execute(store, db)
        assert batch.num_rows == 0
        assert [store.interner.probe(v) >= 0 for v in "pqr"] == [True] * 3


# ---------------------------------------------------------------------- #
# Satellite: index statistics + survival across deltas
# ---------------------------------------------------------------------- #


class TestIndexStats:
    def test_relation_index_survives_apply_delta(self):
        db = Database()
        db.create_relation("R", ("a", "b"))
        db.insert_all("R", [(1, 2), (3, 4)])
        relation = db.relation("R")
        relation.lookup((0,), (1,))
        builds_before = db.index_stats()["relation"]["builds"]
        assert builds_before == 1
        relation.apply_delta({(5, 6): 1, (1, 2): -1})
        assert relation.lookup((0,), (5,)) == ((5, 6),)
        assert relation.lookup((0,), (1,)) == ()
        stats = db.index_stats()["relation"]
        assert stats["builds"] == builds_before  # maintained, not rebuilt
        assert stats["probes"] >= 3

    def test_columnar_index_survives_apply_delta(self):
        db = Database()
        db.create_relation("R", ("a", "b"))
        db.insert_all("R", [(i, i % 3) for i in range(10)])
        atoms = [Atom("R", (Var("x"), 1))]
        columnar_binding_counts(db, atoms, ("x",))
        before = db.index_stats()["columnar"]
        db.relation("R").apply_delta({(50, 1): 1, (1, 1): -1})
        counts = columnar_binding_counts(db, atoms, ("x",))
        assert counts == binding_counts(db, atoms, ("x",))
        after = db.index_stats()["columnar"]
        assert after["index_builds"] == before["index_builds"]
        assert after["rebuilds"] == before["rebuilds"]
        assert after["probes"] > before["probes"]

    def test_interner_conflates_like_python_equality(self):
        """True/1 collide under dict equality in plan and reference alike."""
        db = Database()
        db.create_relation("R", ("a",))
        db.insert_all("R", [(1,)])
        atoms = [Atom("R", (True,))]
        assert binding_counts(db, atoms, ()) == \
            columnar_binding_counts(db, atoms, ())


class TestPlanCache:
    """``ColumnarStore.plan`` and ``.delta_plans`` share one two-level
    (identity, structural) cache."""

    BODY = (Atom("R", (Var("x"), Var("y"))), Atom("R", (Var("y"), Var("z"))))

    def test_identity_then_structure_then_compile(self):
        store = Database().columnar
        plan = store.plan(self.BODY)
        assert store.plan(self.BODY) is plan
        assert store.plan(list(self.BODY)) is plan  # fresh, equal sequence
        deltas = store.delta_plans(self.BODY)
        assert len(deltas) == 2 and deltas[0] is not plan
        assert store.delta_plans(self.BODY) is deltas
        assert store.delta_plans(tuple(list(self.BODY))) is deltas
        assert store.stats["delta_plan_misses"] == 1
        assert store.stats["delta_plan_hits"] == 2

    def test_recycled_id_never_returns_another_bodys_plan(self):
        """A store unpickled from a checkpoint carries id keys of objects
        that no longer exist; a new body allocated at such an address
        must compile (or hit structurally), not inherit the stale plan."""
        store = Database().columnar
        stale = store.plan(self.BODY)
        other = (Atom("S", (Var("x"),)),)
        store._plans[("full", id(other))] = stale  # id reused, pin is not
        assert store.plan(other).atoms == other


class TestColumnarMirrorMaintenance:
    def test_mirror_tracks_clear(self):
        db = Database()
        db.create_relation("R", ("a",))
        db.insert_all("R", [(1,), (2,)])
        atoms = [Atom("R", (Var("x"),))]
        assert len(columnar_binding_counts(db, atoms, ("x",))) == 2
        db.relation("R").clear()
        db.insert_all("R", [(7,)])
        assert columnar_binding_counts(db, atoms, ("x",)) == {(7,): 1}

    def test_compaction_after_heavy_deletion(self):
        db = Database()
        db.create_relation("R", ("a",))
        rows = [(i,) for i in range(600)]
        db.insert_all("R", rows)
        atoms = [Atom("R", (Var("x"),))]
        assert len(columnar_binding_counts(db, atoms, ("x",))) == 600
        db.relation("R").apply_delta({row: -1 for row in rows[:500]})
        assert len(columnar_binding_counts(db, atoms, ("x",))) == 100
        stats = db.columnar.stats
        assert stats["rebuilds"] >= 2  # initial load + threshold compaction

    def test_row_reappears_after_deletion(self):
        db = Database()
        db.create_relation("R", ("a",))
        db.insert_all("R", [(1,), (2,)])
        atoms = [Atom("R", (Var("x"),))]
        columnar_binding_counts(db, atoms, ("x",))
        db.relation("R").delete((1,))
        assert columnar_binding_counts(db, atoms, ("x",)) == {(2,): 1}
        db.relation("R").insert((1,))
        assert columnar_binding_counts(db, atoms, ("x",)) == {(1,): 1, (2,): 1}
