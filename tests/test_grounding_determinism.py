"""Grounding is a pure function of the program, the data and the update
history.

Variable ids, factor order and the weight store's interning order follow
the order the join plans emit their bindings in, and every binding is a
code from the database's interner.  ``JoinPlan.resolve_tables`` syncs
every step's mirror before a plan executes, so the interner — and every
code a later plan emits — does not depend on where an earlier join came
up empty.  Here:

* **Bit identity** — two independent grounds of one program and
  database, full or carried through one update history, give graphs
  equal to the bit (``tests.helpers.graph_fingerprint``); the
  incremental grounder's base graph is the full ground's.
* **Workloads** — each of the five systems' development-loop histories
  is bit-identical across runs and, after every update, canonically equal
  to a from-scratch reference ground of the same state.
* **Retries** — an update that ``ReliableUpdatePipeline`` retries after a
  fault at a grounding or engine injection point grounds the graph of a
  never-faulted twin.
"""

import pytest
from hypothesis import given, settings

from repro.grounding import Grounder, IncrementalGrounder
from repro.reliability import Fault, FaultPlan, inject_faults
from repro.workloads import ALL_SYSTEMS, build_pipeline

from tests.helpers import graph_fingerprint
from tests.reference import reference_ground, replay
from tests.test_fused_delta import chain_db, chain_program, edge_update_sequences
from tests.test_grounding import spouse_db, spouse_program
from tests.test_incremental_grounding import assert_equivalent
from tests.test_reliability import UPDATE, make_stack

EDGES = [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
#: A cycle through every node: chains of any length k ground factors.
CYCLE = EDGES + [("n3", "n4"), ("n4", "n0")]
UPDATES = [
    {"inserts": {"Edge": [("n0", "n2"), ("n3", "n4")]}},
    {"deletes": {"Edge": [("n1", "n2")]}},
    {
        "inserts": {"Edge": [("n1", "n2"), ("n2", "n0")]},
        "deletes": {"Edge": [("n0", "n1")]},
    },
    {"inserts": {"Edge": [("n4", "n0")]}},
]
SPOUSE_UPDATES = [
    {
        "inserts": {
            "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
            "PhraseFeature": [("m5", "m6", "and his wife")],
        }
    },
    {"deletes": {"PhraseFeature": [("m3", "m4", "friend of")]}},
    {"remove_inference_rules": ["fe1"]},
]


def assert_bit_identical(graph_a, graph_b) -> None:
    a, b = graph_fingerprint(graph_a), graph_fingerprint(graph_b)
    for key in a:
        assert a[key] == b[key], f"graphs differ on {key}"


def chain_grounder(k, edges=EDGES) -> IncrementalGrounder:
    program = chain_program(k)
    return IncrementalGrounder.from_scratch(program, chain_db(program, edges))


class TestFullGround:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_chain_ground_is_bit_identical_across_runs(self, k):
        graphs = []
        for _ in range(2):
            program = chain_program(k)
            graphs.append(Grounder(program, chain_db(program, CYCLE)).ground().graph)
        assert graphs[0].num_factors > 0
        assert_bit_identical(*graphs)

    def test_spouse_ground_is_bit_identical_across_runs(self):
        graphs = []
        for _ in range(2):
            program = spouse_program()
            graphs.append(Grounder(program, spouse_db(program)).ground().graph)
        assert_bit_identical(*graphs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_incremental_base_is_the_full_ground(self, k):
        program = chain_program(k)
        full = Grounder(program, chain_db(program, CYCLE)).ground()
        assert full.graph.num_factors > 0
        assert_bit_identical(chain_grounder(k, CYCLE).graph, full.graph)

    def test_store_stats_carry_no_shard_counters(self):
        """One process grounds: the store reports no worker or shard
        counters, before or after an update."""
        program = chain_program(3)
        db = chain_db(program, EDGES)
        grounder = IncrementalGrounder.from_scratch(program, db)
        removed = {
            "n_workers",
            "partition_builds",
            "shard_probes",
            "shard_batches_merged",
            "degradations",
        }
        assert not removed & set(db.index_stats()["columnar"])
        grounder.apply_update(**UPDATES[0])
        stats = db.index_stats()["columnar"]
        assert stats["delta_batch_builds"] > 0
        assert not removed & set(stats)


class TestUpdateHistory:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_chain_history_is_bit_identical_and_matches_reference(self, k):
        ours, theirs = chain_grounder(k), chain_grounder(k)
        twin_program = chain_program(k)
        twin_db = chain_db(twin_program, EDGES)
        for update in UPDATES:
            ours.apply_update(**update)
            theirs.apply_update(**update)
            assert_bit_identical(ours.graph, theirs.graph)
            replay(twin_program, twin_db, update)
            assert_equivalent(
                ours.graph, reference_ground(twin_program, twin_db.copy())
            )

    def test_spouse_history_is_bit_identical(self):
        sides = []
        for _ in range(2):
            program = spouse_program()
            sides.append(IncrementalGrounder.from_scratch(program, spouse_db(program)))
        for update in SPOUSE_UPDATES:
            for grounder in sides:
                grounder.apply_update(**update)
            assert_bit_identical(sides[0].graph, sides[1].graph)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @given(data=edge_update_sequences())
    @settings(max_examples=10, deadline=None)
    def test_random_histories_are_bit_identical(self, k, data):
        base, updates = data
        ours, theirs = chain_grounder(k, base), chain_grounder(k, base)
        assert_bit_identical(ours.graph, theirs.graph)
        for update in updates:
            ours.apply_update(**update)
            theirs.apply_update(**update)
            assert_bit_identical(ours.graph, theirs.graph)


class TestWorkloads:
    @pytest.mark.parametrize("spec", ALL_SYSTEMS, ids=lambda spec: spec.name)
    def test_development_loop_is_bit_identical_across_runs(self, spec):
        histories = []
        for _ in range(2):
            pipeline = build_pipeline(spec, scale=0.6, seed=0)
            grounder = pipeline.build_base()
            history = [graph_fingerprint(grounder.graph)]
            for _label, update in pipeline.snapshot_updates():
                grounder.apply_update(**update)
                history.append(graph_fingerprint(grounder.graph))
            histories.append(history)
        assert len(histories[0]) == 7
        assert histories[0] == histories[1]

    @pytest.mark.parametrize("spec", ALL_SYSTEMS, ids=lambda spec: spec.name)
    def test_development_loop_matches_reference_after_every_update(self, spec):
        pipeline = build_pipeline(spec, scale=0.6, seed=0)
        grounder = pipeline.build_base()
        twin_program = pipeline.build_program()
        twin_db = twin_program.create_database()
        for name, rows in pipeline.corpus_rows().items():
            twin_db.insert_all(name, rows)
        assert_equivalent(grounder.graph, reference_ground(twin_program, twin_db.copy()))
        for _label, update in pipeline.snapshot_updates():
            grounder.apply_update(**update)
            replay(twin_program, twin_db, update)
            assert_equivalent(
                grounder.graph, reference_ground(twin_program, twin_db.copy())
            )


class TestRetries:
    @pytest.mark.parametrize(
        "site",
        [
            "ground.update.start",
            "ground.update.finish",
            "engine.update.start",
            "engine.update.patched",
            "engine.update.inferred",
        ],
    )
    def test_retried_update_grounds_the_twin_graph(self, site):
        twin_grounder, twin_engine, twin = make_stack()
        twin.apply_update(**UPDATE)
        grounder, engine, pipe = make_stack()
        plan = FaultPlan([Fault(site=site)])
        with inject_faults(plan):
            pipe.apply_update(**UPDATE)
        assert plan.fired_sites() == [site]
        assert pipe.retries == 1
        assert len(pipe.wal.committed()) == 1
        assert_bit_identical(grounder.graph, twin_grounder.graph)
        assert_bit_identical(engine.current_graph, twin_engine.current_graph)
