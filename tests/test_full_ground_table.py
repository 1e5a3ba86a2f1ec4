"""A full ground folds each rule's binding batch into factor-table columns.

``Grounder.ground()`` builds the grounded graph's factor list born
lowered; compile, copy, validate and Algorithm 1's ``NZ`` read that
table, and the per-factor records only the incremental grounder keeps
are derived from the raw columns when asked for.  The oracle is
``tests.reference.grounding.fold_ground`` — the record fold, one
``RuleFactor`` per record — lowered by ``lower_factors``.  Here:

* **Same work** — the table equals the oracle's lowering column by
  column, and the weight store, names and evidence are the oracle's, on
  the five KBC systems at two scales and on random programs covering
  every fold shape (row-at-a-time, frequency, grouped, one factor per
  binding) with negated, tied, constant, repeated and contradictory
  literals.
* **Records only when asked** — the Rerun path builds and pickles none;
  derived, they equal the oracle's, raw repeats and ``factor_index``
  included, and a repeated-literal grounding retracts cleanly.
* **Lowered lists stay lowered** — copies share the table,
  ``factor_table(ids)`` takes from it, a delta lands by concatenation,
  the engine's base graph and the unbound grounder never build a factor
  object; ``validate`` raises the same errors from the columns.
* **Materialization reads arrays** — ``learn_approximation`` equals the
  pair-loop oracle bit for bit and leaves the base graph lowered.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, IncrementalEngine
from repro.core.variational import learn_approximation
from repro.datalog import Atom, Program, Var, WeightSpec
from repro.graph import FactorGraph
from repro.graph.delta import KIND_ISING, KIND_RULE, FactorList, FactorTable, lower_factors
from repro.grounding import Grounder, IncrementalGrounder
from repro.grounding.grounder import _BATCH_VECTOR_THRESHOLD, full_body_batch
from repro.inference.gibbs import GibbsSampler
from repro.workloads import ALL_SYSTEMS, build_pipeline

from tests.helpers import graph_fingerprint, mixed_case
from tests.reference.grounding import fold_ground
from tests.reference.variational import reference_learn_approximation
from tests.test_incremental_grounding import reground

SHAPES = {"row", "frequency", "grouped", "per-binding"}


def kbc_inputs(spec, scale):
    """A system's full six-rule program over its corpus (the Rerun
    path's input): every snapshot's rules registered, its rows loaded."""
    pipeline = build_pipeline(spec, scale=scale, seed=0)
    program = pipeline.build_program()
    rows = pipeline.corpus_rows()
    for _label, update in pipeline.snapshot_updates():
        for rule in update.get("add_derivation_rules", ()):
            program.register_derivation_rule(rule)
        for rule in update.get("add_inference_rules", ()):
            program.register_inference_rule(rule)
        for name, extra in update.get("inserts", {}).items():
            rows[name] = rows.get(name, []) + list(extra)
    db = program.create_database()
    for name, tuples in rows.items():
        db.insert_all(name, tuples)
    return program, db


def ground_both(program, db) -> tuple:
    """``Grounder.ground()`` and the oracle over copies of ``db``; the
    two must agree on everything but the factor representation."""
    ours = Grounder(program, db.copy()).ground()
    oracle, records = fold_ground(program, db.copy())
    graph = ours.graph
    assert isinstance(graph.factors, FactorList)
    assert not graph.factors.materialized
    expected = lower_factors(oracle.factors)
    for name, column in expected.columns().items():
        got = getattr(graph.factors.table, name)
        assert got.dtype == column.dtype, name
        assert np.array_equal(got, column), name
    assert list(graph.weights.items()) == list(oracle.weights.items())
    assert graph.weights.fixed_mask().tolist() == oracle.weights.fixed_mask().tolist()
    assert [graph.name_of(v) for v in range(graph.num_vars)] == [
        oracle.name_of(v) for v in range(oracle.num_vars)
    ]
    assert dict(graph.evidence) == dict(oracle.evidence)
    return ours, oracle, records


def fold_shapes(program, db, records) -> set:
    """The fold shape each inference rule's batch took (``db`` is the
    grounded one: derived relations in place)."""
    shapes = set()
    for rule in program.inference_rules:
        m = full_body_batch(db, rule).num_rows
        if m == 0:
            continue
        count = sum(1 for key in records if key[0] == rule.name)
        if m < _BATCH_VECTOR_THRESHOLD:
            shapes.add("row")
        elif not any(a.pred in program.variable_relations for a in rule.body):
            shapes.add("frequency")
        elif count == m:
            shapes.add("per-binding")
        else:
            shapes.add("grouped")
    return shapes


# --------------------------------------------------------------------- #
# Random programs over every fold shape
# --------------------------------------------------------------------- #

X, Y, Z, F = Var("x"), Var("y"), Var("z"), Var("f")


def Q(*args):
    return Atom("Q", args)


def D(*args):
    return Atom("D", args)


#: name → (head, body, negated positions).  Q holds a variable for every
#: pair of the domain, so any head or literal tuple resolves.
RULES = {
    "freq": (Q(X, Y), [D(X, Y, F)], ()),
    "freq_const": (Q(0, Y), [D(X, Y, F)], ()),
    "lit": (Q(X, Y), [D(X, Y, F), Q(Y, X)], ()),
    "neg": (Q(X, Y), [D(X, Y, F), Q(Y, X)], (1,)),
    "repeat": (Q(X, Y), [D(X, Y, F), Q(Y, X), Q(Y, X)], ()),
    "contra": (Q(X, Y), [D(X, Y, F), Q(Y, X), Q(Y, X)], (2,)),
    "group": (Q(X, Y), [D(X, Z, F), Q(Z, Y)], ()),
    "self": (Q(X, Y), [Q(X, Y), D(X, Y, F)], (0,)),
    "const_lit": (Q(X, Y), [D(X, Y, F), Q(0, X)], ()),
}


def make_program(rng, names) -> Program:
    program = Program(
        default_semantics=("ratio", "linear", "logical")[int(rng.integers(3))]
    )
    program.add_relation("Dom", ("a",))
    program.add_relation("D", ("a", "b", "f"))
    program.add_relation("Pair", ("a", "b"))
    program.declare_variable_relation("Q", ("a", "b"))
    program.add_derivation_rule(
        "pair", Atom("Pair", (X, Y)), [Atom("Dom", (X,)), Atom("Dom", (Y,))]
    )
    program.add_derivation_rule("vars", Q(X, Y), [Atom("Pair", (X, Y))])
    program.add_derivation_rule(
        "ev", Atom("Q_Ev", (X, Y, True)), [D(X, Y, 0), Atom("Dom", (X,))]
    )
    for name in names:
        head, body, negated = RULES[name]
        program.add_inference_rule(
            name,
            head,
            body,
            weight=WeightSpec(
                tied_on=("f",) if rng.random() < 0.5 else (),
                value=float(rng.normal()),
                fixed=bool(rng.random() < 0.2),
            ),
            semantics=(None, "ratio", "linear", "logical")[int(rng.integers(4))],
            negated_positions=set(negated),
        )
    return program


def make_db(program, domain, triples):
    db = program.create_database()
    db.insert_all("Dom", [(v,) for v in range(domain)])
    db.insert_all("D", triples)
    return db


def random_case(seed):
    rng = np.random.default_rng(seed)
    names = list(RULES)
    count = int(rng.integers(1, len(names) + 1))
    names = [names[i] for i in rng.permutation(len(names))[:count]]
    program = make_program(rng, names)
    domain, features = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    triples = [
        (int(rng.integers(domain)), int(rng.integers(domain)), int(rng.integers(features)))
        for _ in range(int(rng.integers(0, 160)))
    ]
    return program, make_db(program, domain, triples)


def full_case(seed=0):
    """Every rule, a dense ``D`` (≥ 64 bindings per rule) and a sparse
    one (< 64): between them every fold shape."""
    rng = np.random.default_rng(seed)
    program = make_program(rng, list(RULES))
    dense = [
        (a, b, f) for a in range(7) for b in range(7) for f in range(3) if (a + b + f) % 2
    ]
    sparse = dense[:9]
    return program, make_db(program, 7, dense), make_db(program, 7, sparse)


class TestSameWork:
    @pytest.mark.parametrize("scale", [0.3, 2.5])
    @pytest.mark.parametrize("spec", ALL_SYSTEMS, ids=lambda spec: spec.name)
    def test_kbc_systems(self, spec, scale):
        program, db = kbc_inputs(spec, scale)
        ours, _oracle, records = ground_both(program, db)
        assert ours.graph.num_factors > 0
        assert list(ours.factor_records.items()) == list(records.items())

    def test_every_fold_shape_and_literal_kind(self):
        program, dense, sparse = full_case()
        shapes = set()
        for db in (dense, sparse):
            ours, _oracle, records = ground_both(program, db)
            grounded = db.copy()
            Grounder(program, grounded).run_derivation_rules()
            shapes |= fold_shapes(program, grounded, records)
            assert list(ours.factor_records.items()) == list(records.items())
            # The raw rows keep repeats and contradictions; the table is
            # their canonical form.
            assert ours.raw_rules.lit_var.size > ours.graph.factors.table.lit_var.size
        assert shapes == SHAPES

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_random_programs(self, seed):
        program, db = random_case(seed)
        ours, _oracle, records = ground_both(program, db)
        assert list(ours.factor_records.items()) == list(records.items())


class TestRecordsOnlyWhenAsked:
    def test_the_rerun_path_builds_and_pickles_no_record(self):
        program, dense, _sparse = full_case()
        result = Grounder(program, dense).ground()
        result.compile()
        blob = pickle.dumps(result)
        assert "factor_records" not in vars(result)
        assert b"FactorRecord" not in blob and b"RuleFactor" not in blob
        restored = pickle.loads(blob)
        assert not restored.graph.factors.materialized
        assert list(restored.factor_records.items()) == list(result.factor_records.items())

    def test_incremental_grounder_gets_the_oracle_records(self):
        program, dense, _sparse = full_case(1)
        _ours, _oracle, records = ground_both(program, dense)
        grounder = IncrementalGrounder.from_scratch(program, dense.copy())
        assert [
            (key, r.head_var, r.weight_id, r.factor_index, sorted(r.groundings))
            for key, r in grounder.records.items()
        ] == [
            (key, r.head_var, r.weight_id, r.factor_index, sorted(r.groundings))
            for key, r in records.items()
        ]

    @pytest.mark.parametrize("negated", [(), (2,)], ids=["repeated", "contradictory"])
    @pytest.mark.parametrize("domain", [3, 7], ids=["rows", "arrays"])
    def test_a_repeated_literal_grounding_retracts_cleanly(self, negated, domain):
        """``Q(y, x)`` twice in one body: the record holds the raw tuple
        the join produced, so the delta join's retraction finds it."""

        def factory():
            program = make_program(np.random.default_rng(2), [])
            head, body, _ = RULES["repeat"]
            program.add_inference_rule("repeat", head, body, negated_positions=set(negated))
            return program

        triples = [(a, b, f) for a in range(domain) for b in range(domain) for f in range(2)]
        rest = [t for i, t in enumerate(triples) if i % 3]
        graph, _ = reground(
            factory,
            lambda program: make_db(program, domain, triples),
            [{"deletes": {"D": triples[::3]}}, {"deletes": {"D": rest}}],
        )
        assert graph.num_factors == 0


class TestLoweredListsStayLowered:
    def grounded(self):
        program, dense, _sparse = full_case()
        return Grounder(program, dense).ground().graph

    def test_copy_free_twin_and_factor_table_share_the_table(self):
        graph = self.grounded()
        table = graph.factors.table
        for other in (graph.copy(), graph.copy(share_weights=True), graph.free_twin()):
            assert other.factors.table is table and not other.factors.materialized
        ids = [5, 0, 3, graph.num_factors - 1]
        taken = graph.factor_table(ids)
        assert not graph.factors.materialized
        assert taken.factors() == [graph.factors[i] for i in ids]

    @pytest.mark.parametrize("seed", range(20))
    def test_a_mask_takes_what_its_indexes_take(self, seed):
        base, delta = mixed_case(seed)
        table = FactorTable.concat([base.factor_table(), delta.new_factors.table])
        keep = np.random.default_rng(seed).random(len(table)) < 0.6
        by_mask, by_index = table.take(keep), table.take(np.flatnonzero(keep))
        for name, column in by_index.columns().items():
            assert getattr(by_mask, name).dtype == column.dtype, name
            assert np.array_equal(getattr(by_mask, name), column), name

    @pytest.mark.parametrize("seed", range(40))
    def test_a_delta_lands_on_a_lowered_list_as_on_objects(self, seed):
        base, delta = mixed_case(seed)
        lowered = base.copy()
        lowered.factors = FactorList.from_table(base.factor_table())
        objects = delta.apply(base)
        applied = delta.apply(lowered)
        assert isinstance(applied.factors, FactorList)
        assert not applied.factors.materialized
        expected, got = objects.factor_table(), applied.factor_table()
        for name, column in expected.columns().items():
            assert np.array_equal(getattr(got, name), column), name
        assert applied.num_vars == objects.num_vars
        assert dict(applied.evidence) == dict(objects.evidence)
        assert list(applied.weights.items()) == list(objects.weights.items())

    def test_the_engine_and_the_unbound_grounder_build_no_factor_object(self):
        pipeline = build_pipeline(ALL_SYSTEMS[0], scale=0.3, seed=0)
        grounder = pipeline.build_base()
        engine = IncrementalEngine(
            grounder.graph,
            EngineConfig(
                materialization_samples=60,
                inference_steps=20,
                inference_samples=20,
                variational_inference_samples=20,
                seed=0,
            ),
        )
        engine.materialize()
        for _label, update in list(pipeline.snapshot_updates())[:2]:
            result = grounder.apply_update(**update)
            engine.apply_update(result.delta)
            engine.relearn(1)
        assert not grounder.graph.factors.materialized
        assert not engine.base_graph.factors.materialized

    @pytest.mark.parametrize("lowered", [False, True], ids=["objects", "lowered"])
    def test_validate_raises_from_the_columns(self, lowered):
        def graph(lit_var=(1, 2), ising_wid=0, evidence=()):
            table = FactorTable(
                kind=[KIND_RULE, KIND_ISING],
                rule_head=[0],
                rule_wid=[0],
                rule_sem=[0],
                grounding_ri=[0],
                lit_gg=[0, 0],
                lit_var=list(lit_var),
                lit_pos=[True, False],
                ising_i=[0],
                ising_j=[1],
                ising_wid=[ising_wid],
            )
            fg = FactorGraph()
            fg.add_variables(3)
            fg.weights.intern("w", initial=0.5)
            fg.factors = FactorList.from_table(table) if lowered else table.factors()
            for var in evidence:
                fg._evidence[var] = True
            return fg

        graph().validate()
        with pytest.raises(ValueError, match="unknown variable 7"):
            graph(lit_var=(1, 7)).validate()
        with pytest.raises(ValueError, match="unknown weight 4"):
            graph(ising_wid=4).validate()
        with pytest.raises(ValueError, match="evidence on unknown variable 9"):
            graph(evidence=(9,)).validate()


class TestMaterializationReadsArrays:
    @pytest.mark.parametrize("spec", ALL_SYSTEMS, ids=lambda spec: spec.name)
    def test_learn_approximation_equals_the_pair_loop(self, spec):
        graph = Grounder(*kbc_inputs(spec, 0.3)).ground().graph
        samples = GibbsSampler(graph, seed=0).sample_worlds(60, burn_in=5)
        ours = learn_approximation(graph, 0.05, samples=samples)
        assert not graph.factors.materialized
        oracle = reference_learn_approximation(graph, 0.05, samples)
        assert ours.candidate_pairs == oracle.candidate_pairs > 0
        assert ours.kept_pairs == oracle.kept_pairs
        assert np.array_equal(ours.precision, oracle.precision)
        assert graph_fingerprint(ours.graph) == graph_fingerprint(oracle.graph)

    @pytest.mark.parametrize("seed", range(20))
    def test_neighbor_pairs_are_the_object_walk(self, seed):
        from tests.reference.variational import object_neighbor_pairs

        base, _delta = mixed_case(seed)
        canonical = FactorGraph()
        canonical.add_variables(base.num_vars)
        canonical.factors = base.factor_table().factors()
        pairs = base.neighbor_pairs()
        assert pairs.tolist() == sorted(map(list, object_neighbor_pairs(canonical)))
