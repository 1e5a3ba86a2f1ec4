"""The package has one way to ground, one gradient, one scan, one rule
path, one process, and one copy of each piece of update state.

Every option whose non-default side only tests ever selected is gone, and
the implementations those options selected live under ``tests/reference``
— which nothing under ``src/`` may import.  These tests keep it that way:
each removed keyword is a ``TypeError`` on every callable that took it,
and an AST walk over the package finds no import of ``tests``, no second
query evaluator and no process pool.
"""

import ast
import pathlib
import re
from dataclasses import fields

import numpy as np
import pytest

import repro
import repro.db.query
import repro.graph.delta
import repro.core.engine
from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.db.relation import Relation
from repro.graph import FactorGraph, RuleFactor
from repro.graph.compiled import CompiledFactorGraph
from repro.grounding import Grounder, IncrementalGrounder
from repro.grounding.grounder import GroundingResult
from repro.grounding.incremental import UpdateResult
from repro.inference import GibbsSampler
from repro.kbc.corpus import generate_corpus
from repro.kbc.pipeline import KBCPipeline
from repro.learning import SGDLearner
from repro.learning.gradient import (
    factor_counts_per_weight,
    weight_gradient,
    weight_statistics,
)
from repro.service import ServiceConfig
from repro.workloads.systems import ALL_SYSTEMS, build_pipeline

from tests.helpers import chain_ising_graph
from tests.test_grounding import spouse_db, spouse_program

SRC = pathlib.Path(repro.__file__).resolve().parent


def grounding_inputs():
    program = spouse_program()
    db = spouse_db(program)
    return program, db


def grounding_entry_points() -> dict:
    """Every callable that took ``engine=`` / ``delta_strategy=``."""
    program, db = grounding_inputs()
    grounding = Grounder(program, db).ground()
    spec = ALL_SYSTEMS[0]
    corpus = generate_corpus(spec.corpus_config(scale=0.1, seed=0))
    return {
        "Grounder": lambda **kw: Grounder(program, db, **kw),
        "IncrementalGrounder": lambda **kw: IncrementalGrounder(
            program, db, grounding, **kw
        ),
        "from_scratch": lambda **kw: IncrementalGrounder.from_scratch(
            program, db, **kw
        ),
        "KBCPipeline": lambda **kw: KBCPipeline(corpus, **kw),
        "build_pipeline": lambda **kw: build_pipeline(spec, scale=0.1, **kw),
    }


class TestRemovedKeywordsAreTypeErrors:
    @pytest.mark.parametrize(
        "keyword, value, not_on",
        [
            ("engine", "legacy", ()),
            ("engine", "columnar", ()),
            ("delta_strategy", "subset", ("Grounder",)),  # never took it
            ("delta_strategy", "fused", ("Grounder",)),
        ],
    )
    def test_engine_and_delta_strategy(self, keyword, value, not_on):
        for name, call in grounding_entry_points().items():
            if name in not_on:
                continue
            with pytest.raises(TypeError, match=keyword):
                call(**{keyword: value})

    def test_delta_sources_on_the_full_ground_entry_points(self):
        program, db = grounding_inputs()
        grounder = Grounder(program, db)
        with pytest.raises(TypeError, match="sources"):
            grounder.ground_inference_rule(
                program.inference_rules[0], None, {}, {}, sources={}
            )
        body = program.inference_rules[0].body
        with pytest.raises(TypeError):
            db.columnar.plan(body, frozenset({0}))

    def test_gradient_takes_the_compiled_substrate_only(self):
        graph = chain_ising_graph(4)
        compiled = CompiledFactorGraph(graph)
        worlds = np.zeros((2, graph.num_vars), dtype=bool)
        for call in (
            lambda: weight_statistics(graph, worlds, compiled=compiled),
            lambda: factor_counts_per_weight(graph, compiled=compiled),
            lambda: weight_gradient(graph, worlds, worlds, compiled=compiled),
        ):
            with pytest.raises(TypeError, match="compiled"):
                call()

    def test_fresh_cache(self):
        graph = chain_ising_graph(4)
        graph.set_evidence(0, True)
        learner = SGDLearner(graph, seed=0)
        with pytest.raises(TypeError, match="fresh_cache"):
            learner.evidence_pseudo_nll(fresh_cache=True)

    def test_randomize_scan(self):
        with pytest.raises(TypeError, match="randomize_scan"):
            GibbsSampler(chain_ising_graph(3), seed=0, randomize_scan=True)

    def test_transactional(self):
        with pytest.raises(TypeError, match="transactional"):
            EngineConfig(transactional=False)


class TestPackageReachesNoOracle:
    def modules(self):
        files = sorted(SRC.rglob("*.py"))
        assert len(files) > 50
        for path in files:
            yield path, ast.parse(path.read_text(), filename=str(path))

    def test_no_import_of_tests_and_no_second_evaluator(self):
        oracle_names = {"evaluate_query", "binding_counts"}
        offenders = []
        for path, tree in self.modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                    names = []
                elif isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""]
                    names = [alias.name for alias in node.names]
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    imported, names = [], [node.name]
                else:
                    continue
                if any(m == "tests" or m.startswith("tests.") for m in imported):
                    offenders.append((path.name, node.lineno, "imports tests"))
                for name in oracle_names.intersection(names):
                    offenders.append((path.name, node.lineno, name))
        assert not offenders

    def test_query_module_is_syntax_only(self):
        public = {
            name for name in vars(repro.db.query) if not name.startswith("_")
        }
        assert public - {"annotations", "dataclass"} == {
            "Atom",
            "Var",
            "static_join_order",
        }
        assert not hasattr(repro.db.query, "evaluate_query")

    def test_one_function_lowers_factor_objects(self):
        """The walk over factor kinds that turns objects into arrays
        exists once (``graph.delta.lower_factors``): the compile, the
        patch and the MH target read tables.  The per-factor patch and
        the object-walking compile live in ``tests/reference/compiled``."""
        kinds = {"BiasFactor", "IsingFactor", "RuleFactor"}
        dispatchers = []
        for path, tree in self.modules():
            if path.parent.name != "graph":
                continue
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                tested = {
                    call.args[1].id
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "isinstance"
                    and len(call.args) == 2
                    and isinstance(call.args[1], ast.Name)
                }
                if kinds <= tested:
                    dispatchers.append((path.relative_to(SRC).as_posix(), node.name))
        assert dispatchers == [("graph/delta.py", "lower_factors")]
        for name in ("_ri_factor", "rule_factors", "_has_duplicated_literal"):
            assert not any(name in path.read_text() for path, _ in self.modules())

    def test_vectorised_g_is_the_table(self):
        """``g`` over arrays is ``semantics.g_table`` and nothing else:
        the ``where``/``log1p`` forms and the uniform-semantics special
        case that chose between them live in ``tests/reference/gibbs``."""
        for name in ("g_coded", "g_code_array", "rule_sem_uniform"):
            assert not any(name in path.read_text() for path, _ in self.modules())

    def test_the_serial_epoch_is_one_stacked_call(self):
        """``SGDLearner`` advances its chain pair through its
        ``ChainStack`` and nowhere else: the two-call epoch is the oracle
        ``tests/reference/learning.reference_epoch_worlds``."""
        (tree,) = [t for path, t in self.modules() if path.name == "sgd.py"]
        calls = [
            node.func.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sample_worlds"
        ]
        assert [ast.unparse(owner) for owner in calls] == ["self._chains"]
        for path, _ in self.modules():
            assert "reference_epoch" not in path.read_text()


class TestNoProcessPools:
    """Chain ensembles, the learner pool and grounding shards lost to
    their in-process twins and left the package; nothing brings a pool,
    its option sites or its supervision back in."""

    #: Removed names; ``_executor`` must not match asyncio's
    #: ``run_in_executor``, which the JSON-lines server still uses.
    REMOVED = (
        r"n_workers",
        r"\bexecutor=",
        r"(?<![A-Za-z0-9])_executor\b",
        r"WorkerCrashError",
        r"ParallelChainEnsemble",
        r"GibbsWorkerPool",
        r"SharedGraphExport",
        r"ShardedGroundingExecutor",
        r"partition_of",
        r"shard_assignments",
        r"_cap_views",
        r"apply_patch_ops",
    )

    def sources(self):
        files = sorted(SRC.rglob("*.py"))
        assert len(files) > 50
        return [(path, path.read_text()) for path in files]

    def test_no_module_imports_multiprocessing(self):
        offenders = []
        for path, text in self.sources():
            for node in ast.walk(ast.parse(text, filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "multiprocessing" for m in modules):
                    offenders.append((path.relative_to(SRC).as_posix(), node.lineno))
        assert not offenders

    def test_removed_names_stay_gone(self):
        offenders = [
            (path.relative_to(SRC).as_posix(), pattern)
            for path, text in self.sources()
            for pattern in self.REMOVED
            if re.search(pattern, text)
        ]
        assert not offenders
        assert "run_in_executor" in (SRC / "service" / "server.py").read_text()

    def test_engine_config_takes_no_n_workers(self):
        with pytest.raises(TypeError, match="n_workers"):
            EngineConfig(n_workers=2)


class TestOneRulePath:
    """Groundings are canonical when lowered, so the substrate keeps one
    rule representation, one scalar kernel and one per-variable view (the
    ``py_*`` mirrors): the brute-force slow path, the numpy forms of the
    scalar kernel and the per-variable CSR slices only they read stay
    gone."""

    REMOVED = (
        "slow_list",
        "_KIND_SLOW",
        "_SCALAR_NUMPY_MIN",
        "py_slow",
        "_needs_scalar",
        "scalar_only",
        "repeats_a_variable",
        "body_indptr",
        "bseg_indptr",
    )

    def test_removed_names_stay_gone(self):
        offenders = [
            (path.relative_to(SRC).as_posix(), name)
            for path in sorted(SRC.rglob("*.py"))
            for name in self.REMOVED
            if name in path.read_text()
        ]
        assert not offenders

    def test_the_only_per_variable_offsets_are_isings_and_neighbours(self):
        graph = chain_ising_graph(6)
        wid = graph.weights.intern("rule", initial=0.4)
        graph.add_rule_factor(wid, 0, [[(1, True), (1, True)], [(2, False)]], "ratio")
        compiled = CompiledFactorGraph(graph)
        offsets = {name for name in vars(compiled) if name.endswith("_indptr")}
        assert offsets == {"ising_indptr", "_nbr_indptr"}


class TestGroundStraightIntoArrays:
    """A full ground folds its binding batches into factor-table columns
    and the compile reads that table: between them no ``RuleFactor`` is
    constructed, ``lower_factors`` and ``FactorGraph.validate`` never run,
    the factor list stays unmaterialized and no record is derived.  The
    record fold and its object loop are ``tests/reference/grounding``'s
    ``fold_ground``."""

    def test_ground_and_compile_build_no_factor_object(self, monkeypatch):
        calls = {"RuleFactor": 0, "lower_factors": 0, "validate": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            RuleFactor, "__init__", counting("RuleFactor", RuleFactor.__init__)
        )
        monkeypatch.setattr(
            repro.graph.delta,
            "lower_factors",
            counting("lower_factors", repro.graph.delta.lower_factors),
        )
        monkeypatch.setattr(
            FactorGraph, "validate", counting("validate", FactorGraph.validate)
        )
        for spec in ALL_SYSTEMS:
            pipeline = build_pipeline(spec, scale=0.3, seed=0)
            program = pipeline.build_program()
            db = program.create_database()
            for name, rows in pipeline.corpus_rows().items():
                db.insert_all(name, rows)
            grounding = Grounder(program, db).ground()
            compiled = grounding.compile()
            assert compiled.num_factors == grounding.graph.num_factors > 0
            assert not grounding.graph.factors.materialized
            assert "factor_records" not in vars(grounding)
        assert calls == {"RuleFactor": 0, "lower_factors": 0, "validate": 0}


class TestOneCopyOfUpdateState:
    """Grounding emits an update's (ΔV, ΔF) once and the engine consumes
    it: the engine keeps no log of its own (the pipeline's / service's WAL
    of update inputs is the one recovery replays), a grounder splices its
    own lowered graph and never a substrate, and the graph's names are the
    one inverse of ``variable_of``."""

    def test_grounder_binds_no_substrate(self):
        program, db = grounding_inputs()
        grounder = IncrementalGrounder.from_scratch(program, db)
        for name in ("bind_compiled", "compile", "_compiled", "_compact_threshold"):
            assert not hasattr(grounder, name), name
        result = grounder.apply_update(
            inserts={"PersonCandidate": [("s3", "m5"), ("s3", "m6")]}
        )
        assert result.graph is grounder.graph
        assert isinstance(grounder.graph, FactorGraph)

    def test_update_result_is_the_delta_and_the_graph(self):
        assert [f.name for f in fields(UpdateResult)] == ["delta", "graph"]

    def test_no_inverse_variable_map(self):
        program, db = grounding_inputs()
        grounding = Grounder(program, db).ground()
        assert "tuple_of" not in {f.name for f in fields(GroundingResult)}
        grounder = IncrementalGrounder(program, db, grounding)
        assert not hasattr(grounder, "tuple_of")
        for key, vid in grounder.variable_of.items():
            assert grounder.graph.name_of(vid) == key

    @pytest.mark.parametrize("engine_cls", [IncrementalEngine, RerunEngine])
    def test_engines_keep_no_log(self, engine_cls):
        engine = engine_cls(chain_ising_graph(4), EngineConfig(seed=0))
        assert not hasattr(engine, "wal")
        assert not hasattr(repro.core.engine, "WAL_WINDOW")
        core = SRC / "core"
        assert not any(
            "reliability.wal" in path.read_text() for path in core.rglob("*.py")
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EngineConfig(wal_path="engine.wal"),
            lambda: EngineConfig(incremental_burn_in=2),
            lambda: ServiceConfig(default_max_staleness=0),
            lambda: Relation("R", ("a",), merge_fraction=2),
        ],
        ids=["wal_path", "incremental_burn_in", "default_max_staleness", "merge_fraction"],
    )
    def test_removed_knobs_are_type_errors(self, make):
        with pytest.raises(TypeError):
            make()

    def test_config_field_counts(self):
        assert len(fields(EngineConfig)) == 11
        assert len(fields(ServiceConfig)) == 7


class TestOneRelationRepresentation:
    """A relation is stored once, as its columnar table: no tuple-keyed
    count dict, no hash indexes beside the table's, no rows cache and no
    mirror to keep in sync — the join plans probe the relation itself."""

    def test_relation_keeps_no_second_copy(self):
        _program, db = grounding_inputs()
        relation = db.relation("PersonCandidate")
        for name in ("_counts", "_indexes", "_rows_cache", "_mirrors", "attach_mirror"):
            assert not hasattr(relation, name), name

    def test_nothing_in_the_db_package_syncs_or_reloads(self):
        defined = {
            node.name
            for path in (SRC / "db").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert not {"sync", "_load"} & defined

    def test_plan_steps_probe_the_relation_itself(self, monkeypatch):
        program, db = grounding_inputs()
        probed = []
        real_probe = Relation.probe

        def probe(self, positions, key_rows):
            probed.append(self)
            return real_probe(self, positions, key_rows)

        monkeypatch.setattr(Relation, "probe", probe)
        rule = program.inference_rules[0]
        db.columnar.plan(rule.body).execute(db.columnar, db)
        assert probed
        assert all(relation is db.relation(relation.name) for relation in probed)
        assert {relation.name for relation in probed} <= {a.pred for a in rule.body}
