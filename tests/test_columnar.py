"""Randomized equivalence: columnar plans vs the reference evaluator.

The compiled columnar plans are the only join engine in the package;
what they must compute is defined by the tuple-at-a-time evaluator under
``tests/reference``: on any program, database, and update sequence the
same signed binding multisets, the same grounded graph (canonically,
after every update), and the same posterior marginals.  Satellite
regressions (counted grounding tables, static join order, index
survival) live here too.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Atom, DerivationRule, InferenceRule, Program, Var, WeightSpec
from repro.db import Database
from repro.db import columnar
from repro.db.columnar import ColumnarBatch, ColumnarStore, _TableIndex, pack_rows, row_keys
from repro.db.plan import BindingBatch, JoinPlan, canonicalize_batch, compile_delta_plans
from repro.db.query import static_join_order
from repro.graph.factor_graph import FactorGraph
from repro.grounding import Grounder, IncrementalGrounder
from repro.db.relation import RawIds, Relation
from repro.inference.exact import ExactInference
from repro.workloads.systems import PHARMA

from tests.helpers import delta_fingerprint, graph_fingerprint
from tests.reference import binding_counts, evaluate_query, reference_ground, replay
from tests.reference.columnar import columnar_binding_counts
from tests.reference.grounding import fold_ground, fold_rows, table_rows
from tests.test_full_ground_table import kbc_inputs
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


def threshold_size(size) -> int:
    """A batch size given as an int or relative to the shipped
    ``_SMALL_BATCH`` (``"T"``, ``"T-1"``, ``"T+1"``, ``"3T"``)."""
    if isinstance(size, int):
        return size
    t = columnar._SMALL_BATCH
    return {"T-1": t - 1, "T": t, "T+1": t + 1, "3T": 3 * t}[size]


@contextlib.contextmanager
def small_batch(threshold: int):
    """Run with ``_SMALL_BATCH`` at ``threshold`` (0: every batch on the
    vector path; a huge one: every batch row by row)."""
    shipped = columnar._SMALL_BATCH
    columnar._SMALL_BATCH = threshold
    try:
        yield
    finally:
        columnar._SMALL_BATCH = shipped


ROW_BY_ROW, VECTOR = 10**9, 0


def source_batch(db, rows, arity) -> ColumnarBatch:
    """Signed ``(row, sign)`` pairs as a code batch (empty ones too)."""
    if not rows:
        return ColumnarBatch(np.empty((0, arity), dtype=np.int32), np.empty(0, dtype=np.int64))
    return ColumnarBatch.from_signed_rows(db.columnar.interner, rows)


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

    @pytest.mark.parametrize("size", [0, 1, 2, "T-1", "T", "T+1", "3T"])
    def test_leading_source_of_any_size_matches(self, size):
        """A leading delta source binds its own rows (constants and
        repeated variables filtered in place, no probe): held to the
        reference on 0-, 1- and many-row sources, with later sources and
        relation steps probing as usual."""
        size = threshold_size(size)
        rng = np.random.default_rng(size + 5)
        for trial in range(40):
            db, arities = random_database(rng, domain=4)
            atoms = random_query(rng, arities, max_atoms=3, num_vars=3, domain=4)
            head_vars = sorted({v for atom in atoms for v in atom.variables()})
            sources = {}
            for i, atom in enumerate(atoms):
                if i == 0 or rng.random() < 0.3:
                    n = size if i == 0 else int(rng.integers(0, 4))
                    sources[i] = [
                        (tuple(int(v) for v in rng.integers(4, size=arities[atom.pred])),
                         1 if rng.random() < 0.6 else -1)
                        for _ in range(n)
                    ]
            expected = binding_counts(db, atoms, head_vars, sources=sources)
            batches = {i: source_batch(db, rows, arities[atoms[i].pred]) for i, rows in sources.items()}
            col = columnar_binding_counts(db, atoms, head_vars, sources=batches)
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
# Satellite: counted grounding tables (heavy retraction is O(|Δ|))
# ---------------------------------------------------------------------- #


def occurrence_program(literal: bool = False) -> Program:
    """One factor per ``a``, one grounding per ``Occ(a, s)`` row — with
    ``literal``, the grounding is the sentence variable ``S(s)``, else
    empty."""
    program = Program(default_semantics="ratio")
    program.add_relation("Occ", ("a", "s"))
    program.add_relation("Cand", ("a",))
    program.declare_variable_relation("Q", ("a",))
    program.declare_variable_relation("S", ("s",))
    program.add_derivation_rule(
        "cand", Atom("Cand", (Var("x"),)), [Atom("Occ", (Var("x"), Var("s")))]
    )
    program.add_derivation_rule(
        "vars", Atom("Q", (Var("x"),)), [Atom("Cand", (Var("x"),))]
    )
    program.add_derivation_rule(
        "sentences", Atom("S", (Var("s"),)), [Atom("Occ", (Var("x"), Var("s")))]
    )
    body = [Atom("Occ", (Var("x"), Var("s")))]
    if literal:
        body.append(Atom("S", (Var("s"),)))
    program.add_inference_rule("occ", Atom("Q", (Var("x"),)), body)
    return program


class TestGroundingTable:
    def test_counted_semantics(self):
        table = Relation("r", ("head", "wid", "lit0"), RawIds())
        g1, g2 = (0, 1, 5), (0, 1, 6)

        def apply(rows, signs):
            table.apply_delta(ColumnarBatch(np.array(rows), np.array(signs)))

        apply([g1, g2], [2, 1])
        assert len(table) == 2
        assert table.counts() == {g1: 2, g2: 1}
        apply([g1], [-1])
        assert table.counts() == {g1: 1, g2: 1}
        apply([g1], [-1])
        with pytest.raises(KeyError, match=r"cannot delete 1 derivations of \(0, 1, 5\)"):
            apply([g1], [-1])
        assert table.counts() == {g2: 1}
        assert table.count(g2) == 1 and table.count(g1) == 0

    @pytest.mark.parametrize("literal", [False, True], ids=["empty", "distinct"])
    def test_bulk_retraction_is_linear(self, literal):
        """Regression: retracting a large factor must not be quadratic.

        A 20k-grounding factor — 20k empty groundings in one counted row,
        or 20k distinct rows — retracted in one update completes in well
        under a second; a list-based ``remove`` was an O(n) scan per
        grounding (~minutes at this size)."""
        import time

        n = 20000
        program = occurrence_program(literal)
        db = program.create_database()
        rows = [("a", f"s{i}") for i in range(n)]
        db.insert_all("Occ", rows)
        grounder = IncrementalGrounder.from_scratch(program, db)
        (rule_rows,) = table_rows(grounder).values()
        assert sum(rule_rows.values()) == n
        assert len(rule_rows) == (n if literal else 1)
        start = time.perf_counter()
        result = grounder.apply_update(deletes={"Occ": rows})
        elapsed = time.perf_counter() - start
        assert table_rows(grounder) == {}
        assert result.delta.removed_factor_ids == {0}
        assert grounder.graph.num_factors == 0
        assert elapsed < 1.0, f"bulk retraction took {elapsed:.2f}s"

    @pytest.mark.parametrize("seed", range(5))
    def test_tables_are_the_record_fold(self, seed):
        rng = np.random.default_rng(seed)
        program, build_db, _updates = random_program_and_db(rng)
        db = build_db(program)
        grounder = IncrementalGrounder.from_scratch(program, db.copy())
        _graph, records = fold_ground(program, db)
        assert list(table_rows(grounder).items()) == list(fold_rows(records).items())

    def test_heavy_retraction_update(self):
        """A delta that retracts many groundings of one factor at once."""
        program = occurrence_program()
        db = program.create_database()
        rows = [("a", f"s{i}") for i in range(400)]
        db.insert_all("Occ", rows)
        grounder = IncrementalGrounder.from_scratch(program, db)
        (rule_rows,) = table_rows(grounder).values()
        assert sum(rule_rows.values()) == 400
        grounder.apply_update(deletes={"Occ": rows[1:]})
        (rule_rows,) = table_rows(grounder).values()
        assert sum(rule_rows.values()) == 1
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


# ---------------------------------------------------------------------- #
# Data-ordered joins: the order moves how many rows a join builds, never
# the canonical batch it yields
# ---------------------------------------------------------------------- #


def same_batch(a, b) -> bool:
    return (
        set(a.cols) == set(b.cols)
        and np.array_equal(a.signs, b.signs)
        and all(np.array_equal(a.cols[name], b.cols[name]) for name in a.cols)
    )


def three_estimates(store, seed):
    """The data-derived estimate, none (the static order), and a seeded
    random one."""
    rng = np.random.default_rng(seed)
    return store.fan_out, None, lambda atom, positions: float(rng.random())


def random_signed_delta(rng, relation, domain=8):
    """A code batch of fresh rows in and stored rows out."""
    rows = [
        tuple(int(rng.integers(domain)) for _ in range(relation.arity))
        for _ in range(int(rng.integers(0, 4)))
    ]
    signs = [1] * len(rows)
    stored = list(relation.rows())
    for i in rng.permutation(len(stored))[: int(rng.integers(0, 4))]:
        rows.append(stored[int(i)])
        signs.append(-1)
    return relation.encode(rows, np.array(signs, dtype=np.int64))


class TestAnyOrderGivesTheSameBatch:
    def test_full_plans(self):
        rng = np.random.default_rng(11)
        for trial in range(80):
            db, arities = random_database(rng)
            atoms = random_query(rng, arities, max_atoms=4)
            store = db.columnar
            batches = [
                canonicalize_batch(
                    JoinPlan.compile(atoms, fan_out=fan_out).execute(store, db)
                )
                for fan_out in three_estimates(store, trial)
            ]
            for batch in batches[1:]:
                assert same_batch(batches[0], batch), trial

    def test_fused_delta_plans_inside_an_update(self):
        """Every term ``new_{<i} ⋈ Δ_i ⋈ old_{>i}`` runs while the
        update's old-state views are live."""
        rng = np.random.default_rng(12)
        terms = 0
        for trial in range(80):
            db, arities = random_database(rng)
            atoms = random_query(rng, arities, max_atoms=4)
            store = db.columnar
            preds = sorted({atom.pred for atom in atoms})
            store.begin_update()
            transitions = {}
            for pred in preds:
                relation = db.relation(pred)
                flipped = relation.apply_delta(random_signed_delta(rng, relation))
                if flipped.num_rows:
                    transitions[pred] = flipped
                    assert store.old_view(pred) is not None
            plan_sets = [
                compile_delta_plans(atoms, fan_out=fan_out)
                for fan_out in three_estimates(store, trial)
            ]
            for i, atom in enumerate(atoms):
                if atom.pred not in transitions:
                    continue
                sources = {i: transitions[atom.pred]}
                batches = [
                    canonicalize_batch(plans[i].execute(store, db, sources=sources))
                    for plans in plan_sets
                ]
                for batch in batches[1:]:
                    assert same_batch(batches[0], batch), trial
                terms += 1
        assert terms > 50

    def test_groundings_and_deltas_do_not_move(self, monkeypatch):
        """A grounder under each estimate: the same graph from the full
        ground and the same delta from every update."""
        runs = []
        for fan_out in ("data", "static", "random"):
            rng = np.random.default_rng(13)
            order_rng = np.random.default_rng(14)
            if fan_out == "static":  # every estimate ties
                monkeypatch.setattr(ColumnarStore, "fan_out", lambda *_: 0.0)
            elif fan_out == "random":
                monkeypatch.setattr(
                    ColumnarStore, "fan_out", lambda *_: float(order_rng.random())
                )
            fingerprints = []
            for _ in range(6):
                program, build_db, random_update = random_program_and_db(rng)
                grounder = IncrementalGrounder.from_scratch(program, build_db(program))
                fingerprints.append(graph_fingerprint(grounder.graph))
                for _ in range(3):
                    grounder.apply_update(**random_update(grounder.db))
                    fingerprints.append(delta_fingerprint(grounder.last_result.delta))
            runs.append(fingerprints)
        assert runs[0] == runs[1] == runs[2]


class TestDataOrderedJoins:
    def test_pharma_full_ground_builds_few_join_rows(self):
        """Pharma's agreement rule probes its candidate guard before the
        entity links it would otherwise cross: the from-scratch ground of
        the six-rule program at cold-build scale emits ≤ 60 000 binding
        rows (the static order emits 208 778, 177 248 of them in one
        intermediate of the agreement rule)."""
        program, db = kbc_inputs(PHARMA, scale=2.5)
        Grounder(program, db).ground()
        assert db.index_stats()["columnar"]["join_rows"] <= 60_000

    def test_an_empty_relation_is_probed_first(self):
        db = Database()
        db.create_relation("Big", ("a", "b"))
        db.create_relation("Empty", ("b",))
        db.insert_all("Big", [(i, i % 3) for i in range(30)])
        body = (Atom("Big", (Var("x"), Var("y"))), Atom("Empty", (Var("y"),)))
        assert db.columnar.plan(body).order == (1, 0)
        assert db.columnar.plan(body).execute(db.columnar, db).num_rows == 0
        assert db.columnar.stats["join_rows"] == 0


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
    def test_values_intern_when_stored(self):
        """The interner is a function of the data stored, not of the
        joins run over it: a value is interned when a row holding it is
        first stored, and a join that comes up empty interns nothing."""
        db = Database()
        db.create_relation("E", ("a", "b"))
        db.create_relation("F", ("b", "c"))
        db.insert_all("F", [("p", "q"), ("q", "r")])
        store = db.columnar
        assert [store.interner.probe(v) for v in "pqr"] == [0, 1, 2]
        plan = store.plan(
            (Atom("E", (Var("x"), Var("y"))), Atom("F", (Var("y"), Var("z"))))
        )
        assert plan.atoms[plan.steps[0].atom_index].pred == "E"
        assert plan.resolve_tables(store, db) == [db.relation("E"), db.relation("F")]
        batch = plan.execute(store, db)
        assert batch.num_rows == 0
        assert len(store.interner) == 3


# ---------------------------------------------------------------------- #
# Satellite: index statistics + survival across deltas
# ---------------------------------------------------------------------- #


class TestIndexStats:
    def test_lookup_index_survives_apply_delta(self):
        db = Database()
        db.create_relation("R", ("a", "b"))
        db.insert_all("R", [(1, 2), (3, 4)])
        relation = db.relation("R")
        relation.lookup((0,), (1,))
        builds_before = db.index_stats()["columnar"]["index_builds"]
        assert builds_before == 1
        relation.apply_delta({(5, 6): 1, (1, 2): -1})
        assert relation.lookup((0,), (5,)) == ((5, 6),)
        assert relation.lookup((0,), (1,)) == ()
        stats = db.index_stats()["columnar"]
        assert stats["index_builds"] == builds_before  # maintained, not rebuilt
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


class TestColumnarMaintenance:
    def test_compaction_after_heavy_deletion(self):
        db = Database()
        db.create_relation("R", ("a",))
        rows = [(i,) for i in range(600)]
        db.insert_all("R", rows)
        atoms = [Atom("R", (Var("x"),))]
        assert len(columnar_binding_counts(db, atoms, ("x",))) == 600
        db.relation("R").apply_delta({row: -1 for row in rows[:500]})
        assert len(columnar_binding_counts(db, atoms, ("x",))) == 100
        assert db.columnar.stats["rebuilds"] == 1  # the threshold compaction

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


# ---------------------------------------------------------------------- #
# Small batches: the row-by-row paths do the vector paths' work
# ---------------------------------------------------------------------- #

SIZES = st.sampled_from([0, 1, "T-1", "T", "T+1"]).map(threshold_size)


def key_matrix(ids, width: int) -> np.ndarray:
    """Distinct key ids as distinct ``width``-column code rows (three
    columns pack into void keys)."""
    ids = np.asarray(ids, dtype=np.int32).reshape(-1)
    return np.stack([ids, ids % 3, ids // 2][:width], axis=1)


class TestSmallBatchPaths:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=SIZES,
        width=st.sampled_from([1, 2, 3]),
        with_base=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_index_probe_small_is_vector(self, seed, size, width, with_base):
        """Keys 0–9 live in the base only, 10–19 in the overflow only,
        20–29 in both, 30–39 nowhere; a probe repeats keys."""
        rng = np.random.default_rng(seed)
        base_ids = rng.choice(np.r_[0:10, 20:30], size=40) if with_base else np.empty(0)
        index = _TableIndex(pack_rows(key_matrix(base_ids, width)))
        over_ids = rng.choice(np.r_[10:30], size=12)
        slots = range(len(base_ids), len(base_ids) + len(over_ids))
        index.extend(row_keys(key_matrix(over_ids, width)), slots)
        probe_keys = pack_rows(key_matrix(rng.integers(0, 40, size=size), width))
        small, vector = index.probe_small(probe_keys), index.probe_vector(probe_keys)
        for a, b in zip(small, vector):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
        for threshold in (ROW_BY_ROW, VECTOR):
            with small_batch(threshold):
                assert all(map(np.array_equal, index.probe(probe_keys), vector))

    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(SIZES, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_relation_writes_small_is_vector(self, seed, sizes):
        """One signed history — fresh rows, count-only changes,
        retractions to zero, tombstones that reappear, compactions —
        applied row by row and on the vector path: the same transitions,
        slots, counts, log, view probes and counters after every step."""
        rng = np.random.default_rng(seed)
        twins = {}
        for threshold in (ROW_BY_ROW, VECTOR):
            relation = Relation("r", ("a", "b"))
            relation._COMPACT_MIN_SLOTS = 8  # compactions inside the history
            relation.probe((0,), np.zeros((1, 1), dtype=np.int32))  # an index to extend
            twins[threshold] = relation
        model: dict = {}
        for size in sizes:
            changes: dict = {}
            for _ in range(size):
                row = (int(rng.integers(12)), int(rng.integers(3)))
                have = model.get(row, 0) + changes.get(row, 0)
                change = int(rng.integers(-have, 3)) if have else int(rng.integers(1, 3))
                changes[row] = changes.get(row, 0) + change
            changes = {row: c for row, c in changes.items() if c}
            for row, c in changes.items():
                model[row] = model.get(row, 0) + c
            seen = {}
            for threshold, relation in twins.items():
                with small_batch(threshold):
                    store = relation._store
                    store.begin_update()
                    batch = relation.encode(list(changes), np.array(list(changes.values()), dtype=np.int64))
                    flipped = relation.apply_delta(batch)
                    view = store.old_view("r")
                    keys = np.arange(len(relation.interner), dtype=np.int32).reshape(-1, 1)
                    probes = [relation.probe((0,), keys)]
                    if view is not None:
                        probes.append(view.probe((0,), keys))
                    store.end_update()
                seen[threshold] = (flipped, relation, probes, store)
            (fa, ra, pa, sa), (fb, rb, pb, sb) = seen[ROW_BY_ROW], seen[VECTOR]
            assert np.array_equal(fa.codes, fb.codes) and np.array_equal(fa.signs, fb.signs)
            assert fa.signs.dtype == fb.signs.dtype == np.int64
            n = ra._n_slots
            assert (n, ra._n_alive) == (rb._n_slots, rb._n_alive)
            assert np.array_equal(ra._codes[:n], rb._codes[:n])
            assert np.array_equal(ra._count[: n + 1], rb._count[: n + 1])
            assert ra._slot_of == rb._slot_of
            assert ra.counts() == rb.counts() == {r: c for r, c in model.items() if c}
            assert len(pa) == len(pb)
            for (ia, sa_), (ib, sb_) in zip(pa, pb):
                assert np.array_equal(ia, ib) and np.array_equal(sa_, sb_)
            assert sa.stats == sb.stats
            log_a, log_b = sa._log[ra], sb._log[rb]
            assert len(log_a) == len(log_b)
            for wa, wb in zip(log_a, log_b):
                assert wa[:3] == wb[:3]
                assert np.array_equal(wa[3], wb[3]) and np.array_equal(wa[4], wb[4])

    @pytest.mark.parametrize("threshold", [ROW_BY_ROW, VECTOR])
    def test_over_retraction_fails_alike(self, threshold):
        relation = Relation("r", ("a",))
        relation.apply_delta({(1,): 2})
        with small_batch(threshold), pytest.raises(KeyError, match=r"cannot delete 3 derivations of \(1,\) \(has 2\)"):
            relation.apply_delta(relation.encode([(2,), (1,)], np.array([1, -3])))
        assert relation.counts() == {(1,): 2}
