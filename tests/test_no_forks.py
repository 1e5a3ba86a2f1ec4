"""The package has one way to ground, one gradient, one scan, one rule
path, one process, one factor representation, and one copy of each
piece of update state.

Every option whose non-default side only tests ever selected is gone, and
the implementations those options selected live under ``tests/reference``
— which nothing under ``src/`` may import.  These tests keep it that way:
each removed keyword is a ``TypeError`` on every callable that took it,
and an AST walk over the package finds no import of ``tests``, no second
query evaluator and no process pool.
"""

import ast
import contextlib
import dataclasses
import inspect
import pathlib
import re
from dataclasses import fields

import numpy as np
import pytest

import repro
import repro.db.query
import repro.core.engine
from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.core.decomposition import group_subgraph, plan_groups
from repro.db.relation import Relation
from repro.graph import BiasFactor, FactorGraph, FactorGraphDelta, IsingFactor, RuleFactor
from repro.graph.compiled import CompiledFactorGraph
from repro.graph.delta import FactorList, FactorTable
from repro.graph.delta_energy import DeltaEvaluator
from repro.grounding import Grounder, IncrementalGrounder
from repro.grounding.grounder import GroundingResult
from repro.grounding.incremental import UpdateResult
from repro.inference import ExactInference, GibbsSampler
from repro.kbc.corpus import generate_corpus
from repro.kbc.entity_linking import link_mentions
from repro.kbc.pipeline import KBCPipeline
from repro.learning import SGDLearner
from repro.learning.gradient import (
    factor_counts_per_weight,
    weight_gradient,
    weight_statistics,
)
from repro.service import ServiceConfig
from repro.workloads.systems import ALL_SYSTEMS, build_pipeline

from tests.helpers import chain_ising_graph, counting, decodes, voting_graph
from tests.reference.grounding import FactorRecord
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

    def test_no_function_walks_factor_records(self):
        """No function dispatches on the factor kinds of records: the
        compile, the patch, the energy and the MH target read tables.
        Lowering records (``lower_factors``), the per-factor patch and
        the record-walking compile live in ``tests/reference``."""
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
        assert dispatchers == []
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
    rule representation: the brute-force slow path, the numpy forms of
    the former scalar kernel and the per-variable CSR slices only they
    read stay gone."""

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

    def test_the_only_per_variable_offsets_are_the_gathers(self):
        """Per variable, the build lays down offsets over its Ising rows,
        the rules it heads and the literals it is in — what blocks and
        the recolouring gather through — and nothing else."""
        graph = chain_ising_graph(6)
        wid = graph.weights.intern("rule", initial=0.4)
        graph.add_rule_factor(wid, 0, [[(1, True), (1, True)], [(2, False)]], "ratio")
        compiled = CompiledFactorGraph(graph)
        offsets = {name for name in vars(compiled) if name.endswith("_indptr")}
        assert offsets == {"ising_indptr", "head_indptr", "lit_indptr"}


class TestOneIncidenceRepresentation:
    """The substrate's flat arrays are its one incidence representation
    and the block kernel its one kernel: a block gathers its rows through
    the build's offsets and the appended tail, and the recolouring reads
    a variable's neighbours off the same rows.  The per-variable Python
    mirrors, their snapshot journal, the neighbour multiset and the
    scalar kernel live in ``tests/reference`` (``compiled``, ``gibbs``);
    the batch/scalar crossover is gone."""

    REMOVED = (
        "py_bias",
        "py_ising",
        "py_head",
        "py_body",
        "_mirrors",
        "_per_variable",
        "_MIRROR_NAMES",
        "_rule_head_l",
        "_rule_wid_l",
        "_rule_sem_l",
        "_SNAP_APPEND_LISTS",
        "_mirror_journal",
        "nbr_patch",
        "_nbr_idx",
        "_nbr_indptr",
        "_nbr_patch",
        "_nbr_adjust",
        "_var_neighbors",
        "_csr_num_vars",
        "_incidence_rows",
        "delta_energy",
        "commit_flip",
        "scalar_parts",
        "_pays_to_batch",
        "_BATCH_MIN",
        "_BATCH_MIN_ROWS",
        "use_batch",
        "gathered",
        "batched_fraction",
        "conditional_probability",
        "_sigmoid",
    )

    @staticmethod
    def identifiers(tree) -> set:
        """Every name a module defines, binds, reads or spells as an
        identifier-shaped string (``__slots__``, snapshot name lists)."""
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
        return names

    def test_removed_names_stay_gone(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            names = self.identifiers(ast.parse(path.read_text()))
            offenders += [(path.name, name) for name in self.REMOVED if name in names]
            if path.name == "compiled.py":
                assert "Counter" not in names  # no neighbour multiset
        assert not offenders

    def test_one_kernel_surface(self):
        from repro.graph.compiled import GibbsCache, StackedCache, SweepPlan, _Block
        from repro.inference.gibbs import ChainStack

        for owner, name in (
            (GibbsCache, "delta_energy"),
            (GibbsCache, "commit_flip"),
            (StackedCache, "scalar_parts"),
            (_Block, "use_batch"),
            (_Block, "gathered"),
            (_Block, "parts"),
            (SweepPlan, "batched_fraction"),
            (GibbsSampler, "conditional_probability"),
        ):
            assert not hasattr(owner, name), (owner, name)
        graph = chain_ising_graph(6)
        members = [GibbsSampler(graph, seed=k) for k in range(2)]
        members[1].compiled = members[0].compiled
        members[1].plan = members[0].plan
        members[1].cache = GibbsCache(members[0].compiled, members[1].state)
        stack = ChainStack(members)
        stack._begin(1)
        assert not hasattr(stack.cache, "views")
        assert not any(hasattr(block, "parts") for block in stack.plan.blocks)
        stack._end()
        snap = members[0].compiled.snapshot_state()
        assert not {"mirrors", "append_lists", "nbr_patch"} & snap.keys()


class TestGroundStraightIntoArrays:
    """A full ground folds its binding batches into factor-table columns
    and the compile reads that table: between them no ``RuleFactor`` is
    constructed, no table is decoded into records, ``FactorGraph.validate``
    never runs and no grounding record is derived.  The record fold and
    its object loop are ``tests/reference/grounding``'s ``fold_ground``."""

    def test_ground_and_compile_build_no_factor_object(self, monkeypatch):
        calls = {"RuleFactor": 0, "decodes": 0, "validate": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            RuleFactor, "__init__", counting("RuleFactor", RuleFactor.__init__)
        )
        monkeypatch.setattr(
            FactorTable, "factors", counting("decodes", FactorTable.factors)
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
            assert not hasattr(grounding, "factor_records")
        assert calls == {"RuleFactor": 0, "decodes": 0, "validate": 0}


class TestOneCopyOfUpdateState:
    """Grounding emits an update's (ΔV, ΔF) once and the engine consumes
    it: the engine keeps no log of its own (the pipeline's / service's WAL
    of update inputs is the one recovery replays), a grounder splices its
    own lowered graph and never a substrate, and a variable's id is held
    once, in its relation's vid column, whose one inverse is the graph's
    names."""

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

    def test_one_variable_representation(self):
        program, db = grounding_inputs()
        grounding = Grounder(program, db).ground()
        grounder = IncrementalGrounder(program, db, grounding)
        grounder.apply_update(
            inserts={"PersonCandidate": [("s3", "m5"), ("s3", "m6")]},
            deletes={"PhraseFeature": [("m1", "m2", "and his wife")]},
        )
        for name in ("variable_of", "tuple_of"):
            assert name not in {f.name for f in fields(GroundingResult)}
            assert not hasattr(grounder, name)
        def name_keyed(value) -> bool:
            return isinstance(value, dict) and any(
                isinstance(key, tuple) and key[:1] and key[0] in program.variable_relations
                for key in value
            )

        for holder in (grounding, grounder):
            assert not any(map(name_keyed, vars(holder).values()))
        module = repro.grounding.grounder
        assert not hasattr(module, "VariableCodeResolver")
        assert not hasattr(module, "_batch_rows")
        # No variable was removed, so the live slots hold every vid once.
        graph, seen = grounder.graph, []
        for name in program.variable_relations:
            relation = db.relation(name)
            codes = relation.rows_at(relation.alive_slots()).codes
            vids = relation.vids_of(codes).tolist()
            for row, vid in zip(db.interner.decode_rows(codes), vids):
                assert graph.name_of(vid) == (name, row)
            seen += vids
        assert sorted(seen) == list(range(graph.num_vars))

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
        assert len(fields(EngineConfig)) == 10
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

    def test_old_state_is_read_off_the_write_log(self):
        """An update's pre-update state is recorded once, in its store's
        write log: no copy-on-write view registry on a relation and no
        capture set or release on the store."""
        _program, db = grounding_inputs()
        relation = db.relation("PersonCandidate")
        for name in ("capture_view", "_views"):
            assert not hasattr(relation, name), name
        for name in ("before_flip", "release_views", "_capture", "_old_views"):
            assert not hasattr(db.columnar, name), name
        assert list(inspect.signature(db.columnar.begin_update).parameters) == []

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


def document_rows(corpus, doc) -> dict:
    """The base-relation rows of one document (``corpus_rows`` of the
    document alone)."""
    rows = {"MentionInSentence": [], "CuePhrase": [], "SentenceContext": []}
    for sentence in doc.sentences:
        rows["MentionInSentence"] += [
            (sentence.sentence_id, mention.mention_id) for mention in sentence.mentions
        ]
        rows["CuePhrase"].append((sentence.sentence_id, sentence.cue))
        rows["SentenceContext"].append(
            (sentence.sentence_id, sentence.tokens[0] if sentence.tokens else "")
        )
    mentions = {row[1] for row in rows["MentionInSentence"]}
    rows["EL"] = [row for row in link_mentions(corpus) if row[0] in mentions]
    return rows


class TestOneGroundingRepresentation:
    """An inference rule's groundings are stored once, as its grounding
    table (a signed-count relation of ``(head, weight, literal vars)``
    rows): no per-factor record, no grounding multiset, no delta
    accumulator and no factor-position registry beside it."""

    REMOVED = (
        "GroundingMultiset",
        "RuleDeltaAccumulator",
        "FactorRecord",
        "factor_records",
        "apply_rule_binding_batch",
        "_factor_keys",
        "_records_by_var",
        "_record_vars",
        "_reindex",
        "_factors_match",
    )

    def test_removed_names_stay_gone(self):
        pattern = re.compile(r"\b(" + "|".join(self.REMOVED) + r")\b")
        for path in SRC.rglob("*.py"):
            assert not pattern.search(path.read_text()), path

    def test_a_stream_sized_update_builds_no_record(self, monkeypatch):
        built = {"FactorRecord": 0, "RuleFactor": 0, "decodes": 0}
        real_decode = FactorTable.factors

        def decode(self):
            built["decodes"] += 1
            return real_decode(self)

        monkeypatch.setattr(FactorTable, "factors", decode)
        for cls in (FactorRecord, RuleFactor):
            real = cls.__init__

            def counting(self, *args, _name=cls.__name__, _real=real, **kwargs):
                built[_name] += 1
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        spec = ALL_SYSTEMS[0]
        corpus = generate_corpus(spec.corpus_config(scale=0.3, seed=0))
        *documents, last = corpus.documents
        base = KBCPipeline(
            dataclasses.replace(corpus, documents=documents), i1_style=spec.i1_style
        )
        grounder = base.build_base()
        for _label, update in base.snapshot_updates():
            grounder.apply_update(**update)
        rows = document_rows(corpus, last)
        for update in ({"inserts": rows}, {"deletes": rows}):
            delta = grounder.apply_update(**update).delta
            assert delta.new_factors or delta.removed_factor_ids
        assert built == {"FactorRecord": 0, "RuleFactor": 0, "decodes": 0}


class TestOneFactorRepresentation:
    """A factor graph is its factor table: ``FactorGraph.factors`` and a
    delta's ``new_factors`` are read-only :class:`FactorList` s over one,
    energies are scored from its columns, and the three factor records
    are only what a table decodes into — fields and ``variables()``.  The
    object form, its lowering walk and the one-world energy oracle live
    in ``tests/reference`` (``factors``, ``delta_energy``)."""

    REMOVED = (
        "lower_factors",
        "materialized_factors",
        "_view_factors",
        "_view_factors_version",
        "_relocalize",
        "_raise_unknown_variable",
        "log_density_ratio",
        "violates_evidence",
        "extend_world",
        "removed_factors",
        "unit_energy",
    )

    def test_removed_names_stay_gone(self):
        pattern = re.compile(r"\b(" + "|".join(self.REMOVED) + r")\b")
        for path in SRC.rglob("*.py"):
            assert not pattern.search(path.read_text()), path
        for name in ("_objects", "materialized", "from_table", "append", "insert"):
            assert not hasattr(FactorList, name), name
        for name in ("__setitem__", "__delitem__"):
            assert getattr(FactorList, name, None) is None, name
        for name in ("delta_energy", "reweighted", "_terms", "_score", "new_factors"):
            assert not hasattr(DeltaEvaluator, name), name
        assert not hasattr(CompiledFactorGraph, "materialized_factors")
        assert not {"_view_factors", "_view_factors_version"} & set(
            CompiledFactorGraph._SNAP_SCALARS
        )
        for record in (RuleFactor, IsingFactor, BiasFactor):
            methods = {
                name
                for name, value in vars(record).items()
                if callable(value) and not name.startswith("__")
            }
            assert methods == {"variables"}, record

    @pytest.fixture
    def built(self):
        """Factor records constructed (any kind, under ``"__init__"``) or
        decoded from a table (``"factors"``) while the test runs."""
        with contextlib.ExitStack() as stack:
            counts = stack.enter_context(decodes())
            for record in (RuleFactor, IsingFactor, BiasFactor):
                stack.enter_context(counting(record, "__init__", counts))
            yield counts

    def test_add_built_graphs_score_from_the_table(self, built):
        graph = voting_graph(num_up=2, num_down=2, voter_bias=0.3)
        graph.add_ising_factor(graph.weights.intern("J", initial=0.2), 1, 3)
        compiled = CompiledFactorGraph(graph.copy())
        exact = ExactInference(graph)
        graph.energy(np.ones(graph.num_vars, dtype=bool))
        for group in plan_groups(graph, [0]):
            group_subgraph(graph, group)
        delta = FactorGraphDelta(num_new_vars=1, removed_factor_ids={1})
        delta.new_weight_entries.append(("new", 0.4, False))
        delta.new_factors.add_bias(len(graph.weights), graph.num_vars)
        evaluator = DeltaEvaluator(graph, delta)
        worlds = evaluator.extend_worlds(exact.worlds, np.random.default_rng(0))
        evaluator.delta_energies(worlds)
        compiled.apply_delta(delta)
        delta.apply(graph)
        assert not built

    @pytest.mark.parametrize("strategy", ["sampling", "variational"])
    def test_ground_compile_update_splice_and_score_build_no_record(
        self, built, strategy
    ):
        """Ground → compile → insert / retract updates through an engine
        whose only strategy is MH over ``delta_energies`` or the
        variational splice, with relearning between updates."""
        spec = ALL_SYSTEMS[0]
        corpus = generate_corpus(spec.corpus_config(scale=0.3, seed=0))
        *documents, last = corpus.documents
        base = KBCPipeline(
            dataclasses.replace(corpus, documents=documents), i1_style=spec.i1_style
        )
        grounder = base.build_base()
        engine = IncrementalEngine(
            grounder.graph,
            EngineConfig(
                materialization_samples=60,
                inference_steps=20,
                inference_samples=20,
                variational_inference_samples=20,
                strategies=(strategy,),
                seed=0,
            ),
        )
        engine.materialize()
        rows = document_rows(corpus, last)
        for update in ({"inserts": rows}, {"deletes": rows}):
            delta = grounder.apply_update(**update).delta
            outcome = engine.apply_update(delta)
            assert outcome.strategy == strategy
            engine.relearn(1)
        assert not built
        assert engine.current_graph.compiled.views_materialized == 0
