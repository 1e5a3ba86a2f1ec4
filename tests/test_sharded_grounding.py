"""Sharded grounding (hash-partitioned plan shards on the worker pool).

Four contracts under test:

* partition invariants — every first-step row lands on exactly one
  shard, and the shard outputs form an exact disjoint cover of the
  serial plan output (hypothesis-randomized over data and shard count);
* bit-identity — full ground and the fused-Δ incremental path produce
  graphs identical *to the bit* (names, evidence, factor tuples, weight
  interning order, fixedness) to the serial path for every tested
  ``n_workers``, regardless of shard completion order (shuffled-merge
  monkeypatch), with ``n_workers=1`` taking the exact serial code path —
  and canonically identical to ``reference_ground`` after every update;
* counters — ``partition_builds`` / ``shard_probes`` /
  ``shard_batches_merged`` / ``degradations`` surface through
  ``Database.index_stats`` and ``GroundingResult.stats``;
* supervision — worker PIDs survive updates, a killed worker is
  respawned with its session re-shipped (twin-exact result), repeated
  kills degrade to serial with a twin-exact result, and the degradation
  composes with ``ReliableUpdatePipeline`` transactions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalEngine
from repro.datalog import Atom, Var
from repro.db.columnar import shard_assignments
from repro.db.plan import canonicalize_batch, head_partition_positions
from repro.grounding import (
    Grounder,
    IncrementalGrounder,
    ShardedGroundingExecutor,
)
from repro.reliability import ReliableUpdatePipeline, RetryPolicy
from repro.reliability.faults import Fault, FaultPlan, inject_faults

from tests.reference import reference_ground, replay
from tests.test_fused_delta import chain_db, chain_program
from tests.test_grounding import spouse_db, spouse_program
from tests.test_incremental_grounding import assert_equivalent
from tests.test_reliability import small_config

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

EDGES = [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
UPDATES = [
    {"inserts": {"Edge": [("n0", "n2"), ("n3", "n4")]}},
    {"deletes": {"Edge": [("n1", "n2")]}},
    {
        "inserts": {"Edge": [("n1", "n2"), ("n2", "n0")]},
        "deletes": {"Edge": [("n0", "n1")]},
    },
]

SHARD_COUNTERS = (
    "partition_builds",
    "shard_probes",
    "shard_batches_merged",
    "degradations",
)


def graph_fingerprint(graph) -> dict:
    """Everything observable about a grounded graph, in exact order —
    two runs are bit-identical iff their fingerprints are equal.  Also
    imported by ``bench_grounding_incremental.py --check``."""
    return {
        "names": [graph.name_of(v) for v in range(graph.num_vars)],
        "evidence": dict(graph.evidence),
        "factors": [
            (f.weight_id, f.head, tuple(f.groundings), f.semantics)
            for f in graph.factors
        ],
        "weights": list(graph.weights.items()),
        "fixed": [
            graph.weights.is_fixed(i) for i in range(len(graph.weights))
        ],
    }


def assert_bit_identical(graph_a, graph_b) -> None:
    a, b = graph_fingerprint(graph_a), graph_fingerprint(graph_b)
    for key in a:
        assert a[key] == b[key], f"graphs differ on {key}"


def serial_chain(k, updates=()):
    program = chain_program(k)
    grounder = IncrementalGrounder.from_scratch(
        program, chain_db(program, EDGES)
    )
    for update in updates:
        grounder.apply_update(**update)
    return grounder


def sharded_chain(k, n_workers, updates=(), retry=None, **kwargs):
    program = chain_program(k)
    grounder = IncrementalGrounder.from_scratch(
        program,
        chain_db(program, EDGES),
        n_workers=n_workers,
        retry=retry or FAST_RETRY,
        **kwargs,
    )
    try:
        for update in updates:
            grounder.apply_update(**update)
    except Exception:
        grounder.close()
        raise
    return grounder


# --------------------------------------------------------------------- #
# Partition invariants
# --------------------------------------------------------------------- #


class TestPartitionInvariants:
    @given(
        codes=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50)),
            min_size=0,
            max_size=60,
        ),
        n_shards=st.integers(1, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_row_exactly_one_shard(self, codes, n_shards):
        matrix = np.asarray(codes, dtype=np.int32).reshape(len(codes), 2)
        assigned = shard_assignments(
            [matrix[:, 0], matrix[:, 1]], n_shards, length=len(codes)
        )
        assert assigned.shape == (len(codes),)
        assert ((assigned >= 0) & (assigned < n_shards)).all()
        # Pure function of the codes: recomputation and per-row hashing
        # agree with the batch assignment.
        again = shard_assignments(
            [matrix[:, 0], matrix[:, 1]], n_shards, length=len(codes)
        )
        assert (assigned == again).all()
        for i in range(len(codes)):
            row = shard_assignments(
                [matrix[i : i + 1, 0], matrix[i : i + 1, 1]], n_shards
            )
            assert row[0] == assigned[i]

    def test_no_columns_degenerates_to_one_shard(self):
        assigned = shard_assignments([], 4, length=5)
        assert len(set(assigned.tolist())) == 1

    @given(
        edges=st.lists(
            st.sampled_from(
                [(f"n{a}", f"n{b}") for a in range(5) for b in range(5) if a != b]
            ),
            min_size=2,
            max_size=12,
            unique=True,
        ),
        k=st.integers(1, 4),
        n_shards=st.integers(2, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_shard_union_is_exact_disjoint_cover(self, edges, k, n_shards):
        """Partition-restricted executions of a plan sum to the serial
        batch as a signed multiset, with row counts adding up exactly
        (together: a disjoint cover)."""
        program = chain_program(k)
        db = chain_db(program, edges)
        body = tuple(
            Atom("Edge", (Var(f"x{i}"), Var(f"x{i + 1}"))) for i in range(k)
        )
        store = db.columnar
        plan = store.plan(body)
        positions = head_partition_positions(plan, ("x0", f"x{k}"))
        serial = plan.execute(store, db)

        def multiset(batch):
            names = sorted(batch.cols)
            counts: dict = {}
            for i in range(batch.num_rows):
                key = tuple(int(batch.cols[n][i]) for n in names)
                counts[key] = counts.get(key, 0) + int(batch.signs[i])
            return {k_: v for k_, v in counts.items() if v}

        shards = [
            plan.execute(store, db, partition=(positions, n_shards, w))
            for w in range(n_shards)
        ]
        assert sum(b.num_rows for b in shards) == serial.num_rows
        union: dict = {}
        for batch in shards:
            for key, count in multiset(batch).items():
                union[key] = union.get(key, 0) + count
        assert {k_: v for k_, v in union.items() if v} == multiset(serial)


# --------------------------------------------------------------------- #
# Bit-identity
# --------------------------------------------------------------------- #


class TestFullGroundBitIdentity:
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_chain_full_ground_matches_serial(self, n_workers):
        serial_program = chain_program(3)
        serial = Grounder(
            serial_program, chain_db(serial_program, EDGES)
        ).ground()
        program = chain_program(3)
        grounder = Grounder(
            program, chain_db(program, EDGES), n_workers=n_workers
        )
        try:
            sharded = grounder.ground()
        finally:
            grounder.close()
        assert_bit_identical(serial.graph, sharded.graph)

    def test_spouse_full_ground_matches_serial(self):
        serial_program = spouse_program()
        serial = Grounder(serial_program, spouse_db(serial_program)).ground()
        program = spouse_program()
        grounder = Grounder(program, spouse_db(program), n_workers=2)
        try:
            sharded = grounder.ground()
        finally:
            grounder.close()
        assert_bit_identical(serial.graph, sharded.graph)

    def test_n_workers_1_is_the_serial_code_path(self):
        program = chain_program(2)
        grounder = Grounder(program, chain_db(program, EDGES), n_workers=1)
        assert grounder.executor is None  # no pool, no executor at all
        result = grounder.ground()
        assert result.stats["n_workers"] == 1
        assert all(result.stats[c] == 0 for c in SHARD_COUNTERS)

    def test_executor_needs_two_workers(self):
        program = chain_program(2)
        with pytest.raises(ValueError, match="n_workers"):
            ShardedGroundingExecutor(chain_db(program, EDGES), 1)


class TestIncrementalBitIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sharded_matches_serial_and_reference_after_every_update(self, k):
        serial = serial_chain(k)
        sharded = sharded_chain(k, 2)
        twin_program = chain_program(k)
        twin_db = chain_db(twin_program, EDGES)
        try:
            for update in UPDATES:
                serial.apply_update(**update)
                sharded.apply_update(**update)
                assert_bit_identical(serial.graph, sharded.graph)
                replay(twin_program, twin_db, update)
                assert_equivalent(
                    sharded.graph,
                    reference_ground(twin_program, twin_db.copy()),
                )
            assert not sharded.executor.degraded
        finally:
            sharded.close()

    def test_three_workers_match_serial(self):
        serial = serial_chain(3, UPDATES)
        sharded = sharded_chain(3, 3, UPDATES)
        sharded.close()
        assert_bit_identical(serial.graph, sharded.graph)

    def test_n_workers_1_incremental_is_serial_path(self):
        grounder = serial_chain(2, UPDATES)
        assert grounder.executor is None
        stats = grounder.db.index_stats()["columnar"]
        assert all(stats[c] == 0 for c in SHARD_COUNTERS)


class TestCanonicalOrder:
    def test_shuffled_shard_completion_order_is_bit_identical(
        self, monkeypatch
    ):
        """Factor ids and weight order must not depend on which shard's
        results land first: shuffle the collected results before every
        merge and require the graph unchanged to the bit."""
        serial = serial_chain(3, UPDATES)
        rng = np.random.default_rng(7)
        original = ShardedGroundingExecutor._merge

        def shuffled_merge(self, results):
            results = list(results)
            rng.shuffle(results)
            return original(self, results)

        monkeypatch.setattr(
            ShardedGroundingExecutor, "_merge", shuffled_merge
        )
        sharded = sharded_chain(3, 3, UPDATES)
        sharded.close()
        assert_bit_identical(serial.graph, sharded.graph)


# --------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------- #


class TestShardCounters:
    def test_counters_flow_through_stats_surfaces(self):
        program = chain_program(3)
        db = chain_db(program, EDGES)
        grounder = Grounder(program, db, n_workers=2)
        try:
            result = grounder.ground()
        finally:
            grounder.close()
        assert result.stats["n_workers"] == 2
        assert result.stats["partition_builds"] > 0
        assert result.stats["shard_probes"] > 0
        assert result.stats["shard_batches_merged"] > 0
        assert result.stats["degradations"] == 0
        columnar = db.index_stats()["columnar"]
        for counter in SHARD_COUNTERS:
            assert columnar[counter] == result.stats[counter]

    def test_updates_advance_shard_counters(self):
        sharded = sharded_chain(2, 2)
        before = dict(sharded.db.index_stats()["columnar"])
        sharded.apply_update(**UPDATES[0])
        after = sharded.db.index_stats()["columnar"]
        sharded.close()
        assert after["shard_batches_merged"] > before["shard_batches_merged"]
        assert after["shard_probes"] >= before["shard_probes"]
        assert after["degradations"] == 0


# --------------------------------------------------------------------- #
# Supervision: respawn, degrade-to-serial, pipeline integration
# --------------------------------------------------------------------- #


class TestSupervision:
    def test_pool_pids_survive_updates(self):
        sharded = sharded_chain(3, 2)
        pids = sharded.executor.pool.pids()
        for update in UPDATES:
            sharded.apply_update(**update)
        assert sharded.executor.pool.pids() == pids
        assert sharded.executor.pool.respawns == 0
        sharded.close()

    def test_single_worker_kill_respawns_and_recovers(self):
        serial = serial_chain(3, UPDATES)
        plan = FaultPlan(
            [Fault("pool.send", action="kill", method="ground", at=5)]
        )
        with inject_faults(plan):
            sharded = sharded_chain(3, 2, UPDATES)
        assert plan.fired, "fault never reached the grounding dispatch"
        assert not sharded.executor.degraded
        assert sharded.executor.pool.respawns >= 1
        stats = sharded.db.index_stats()["columnar"]
        assert stats["degradations"] == 0
        sharded.close()
        assert_bit_identical(serial.graph, sharded.graph)

    def test_repeated_kills_degrade_to_serial_twin_exact(self):
        serial = serial_chain(3, UPDATES)
        plan = FaultPlan(
            [
                Fault(
                    "pool.send",
                    action="kill",
                    method="ground",
                    at=3,
                    repeat=True,
                )
            ]
        )
        with inject_faults(plan):
            sharded = sharded_chain(3, 2, UPDATES)
        assert sharded.executor.degraded
        assert not sharded.executor.active
        assert sharded.db.index_stats()["columnar"]["degradations"] == 1
        sharded.close()
        assert_bit_identical(serial.graph, sharded.graph)

    def test_degraded_executor_keeps_serving_serially(self):
        """After a mid-ground degradation every later call — same update
        and subsequent ones — runs serially and stays twin-exact."""
        serial = serial_chain(2, UPDATES)
        plan = FaultPlan(
            [
                Fault(
                    "pool.send",
                    action="kill",
                    method="ground",
                    at=1,
                    repeat=True,
                )
            ]
        )
        with inject_faults(plan):
            sharded = sharded_chain(2, 2, UPDATES)
        assert sharded.executor.degraded
        sharded.apply_update(inserts={"Edge": [("n4", "n0")]})
        serial.apply_update(inserts={"Edge": [("n4", "n0")]})
        sharded.close()
        assert_bit_identical(serial.graph, sharded.graph)

    def test_pipeline_update_commits_through_degradation(self):
        def stack(n_workers):
            program = spouse_program()
            db = spouse_db(program)
            grounder = IncrementalGrounder.from_scratch(
                program, db, n_workers=n_workers, retry=FAST_RETRY
            )
            engine = IncrementalEngine(grounder.graph, small_config())
            engine.materialize()
            return grounder, ReliableUpdatePipeline(
                grounder, engine, retry=FAST_RETRY
            )

        update = {
            "inserts": {
                "PersonCandidate": [("s3", "m5"), ("s3", "m6")],
                "PhraseFeature": [("m5", "m6", "and his wife")],
            }
        }
        serial_grounder, serial_pipe = stack(1)
        serial_pipe.apply_update(**update)
        grounder, pipe = stack(2)
        plan = FaultPlan(
            [
                Fault(
                    "pool.send",
                    action="kill",
                    method="ground",
                    at=1,
                    repeat=True,
                )
            ]
        )
        with inject_faults(plan):
            pipe.apply_update(**update)
        assert plan.fired
        assert grounder.executor.degraded
        assert pipe.updates == 1
        assert len(pipe.wal.committed()) == 1
        assert (
            grounder.db.index_stats()["columnar"]["degradations"] == 1
        )
        grounder.close()
        assert_bit_identical(serial_grounder.graph, grounder.graph)
