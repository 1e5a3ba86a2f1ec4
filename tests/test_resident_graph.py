"""One owner for a patched substrate and the chains that ride it.

:class:`~repro.core.resident.ResidentGraph` is the single place that
compiles an evolving graph, patches it, carries its followers across the
patch and snapshots / restores the lot.  The per-PR suites each exercise
one of those steps; this one composes them — random interleavings of
append / retract / evidence-flip deltas, threshold compactions,
``snapshot → fault → restore(verify=True)`` and pickle round-trips
against a twin that never failed and was never pickled — because the bugs
of this layer (flags lost only after restore *then* patch *then* append)
live in the composition.

Also here: the engine WAL stays bounded, and ``EngineConfig`` carries
exactly the surviving knobs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.core.engine import WAL_WINDOW
from repro.core.resident import ResidentGraph
from repro.graph import FactorGraph, FactorGraphDelta
from repro.graph.factor_graph import BiasFactor
from repro.reliability.faults import Fault, FaultInjected, FaultPlan, inject_faults
from repro.reliability.snapshots import RngSnapshot

from tests.helpers import chain_ising_graph
from tests.test_incremental_compile import seed_graph
from tests.test_variational_incremental import canonical, draw_delta

#: Low enough that a handful of drawn deltas crosses it.
COMPACT_THRESHOLD = 0.15


def make_resident(seed: int, with_learner: bool) -> ResidentGraph:
    """The Rerun configuration: a serial chain, optionally a learner."""
    resident = ResidentGraph(
        seed_graph(seed),
        np.random.default_rng(seed),
        compact_threshold=COMPACT_THRESHOLD,
    )
    resident.marginals(2, 1)
    if with_learner:
        resident.warm_learner(True)
        resident.learner.fit(1, record_loss=False)
    return resident


def chains_of(resident: ResidentGraph) -> list:
    chains = [resident.chain]
    if resident.learner is not None:
        chains += [resident.learner._conditioned, resident.learner._free]
    return chains


def assert_same(live: ResidentGraph, twin: ResidentGraph) -> None:
    assert canonical(FactorGraph.from_compiled(live.compiled)) == canonical(
        FactorGraph.from_compiled(twin.compiled)
    )
    assert live.graph is live.compiled.graph
    for ours, theirs in zip(chains_of(live), chains_of(twin), strict=True):
        assert ours.compiled is live.compiled
        assert np.array_equal(ours.state, theirs.state)
        ours.cache.refresh_weights(ours.state)
        ours.cache.check_consistency(ours.state)
    # Identical next-sweep draw.
    assert live.rng.bit_generator.state == twin.rng.bit_generator.state


def failed_transaction(resident: ResidentGraph, delta: FactorGraphDelta) -> bool:
    """A transaction that patched, sampled and learned, then failed:
    everything it touched rolls back (the owner of the shared rng — an
    engine — snapshots it beside the graph).  Returns whether the patch
    compacted."""
    rng, snap = RngSnapshot(resident.rng), resident.snapshot()
    compacted = resident.apply_delta(delta).compacted
    advance(resident)
    resident.restore(snap, verify=True)
    rng.restore()
    return compacted


def advance(resident: ResidentGraph) -> np.ndarray:
    if resident.learner is not None:
        resident.learner.fit(1, record_loss=False)
    return resident.marginals(2, 1)


class TestComposedHistories:
    @pytest.mark.parametrize("with_learner", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_interleavings_match_twin(self, with_learner, data):
        seed = data.draw(st.integers(0, 3), label="graph seed")
        live = make_resident(seed, with_learner)
        twin = make_resident(seed, with_learner)
        for step in range(data.draw(st.integers(4, 9), label="steps")):
            op = data.draw(st.sampled_from(["delta", "fault", "pickle"]), label="op")
            if op == "pickle":
                live = pickle.loads(pickle.dumps(live))
            elif op == "fault":
                failed_transaction(live, draw_delta(data, live.graph, step))
            else:
                delta = draw_delta(data, twin.graph, step)
                live.apply_delta(delta)
                twin.apply_delta(delta)
                assert np.array_equal(advance(live), advance(twin))
            assert_same(live, twin)

    @pytest.mark.parametrize("with_learner", [False, True])
    def test_forced_compaction_inside_failed_transaction(self, with_learner):
        """The failed transaction crosses the threshold (the substrate
        recompiles itself mid-transaction); restore brings back the
        pre-compaction layout and the retry compacts again, like the
        twin."""
        live = make_resident(1, with_learner)
        twin = make_resident(1, with_learner)

        def appends(resident, step):
            return FactorGraphDelta(
                new_weight_entries=[((f"w{step}",), 0.3, False)],
                new_factors=[
                    BiasFactor(weight_id=len(resident.graph.weights), var=v)
                    for v in range(step, step + 5)
                ],
            )

        assert failed_transaction(live, appends(live, 0))
        assert_same(live, twin)
        for step in range(3):
            patches = [r.apply_delta(appends(r, step)) for r in (live, twin)]
            assert patches[0].compacted == patches[1].compacted
            assert np.array_equal(advance(live), advance(twin))
            assert_same(live, twin)


def grow_delta(engine, step: int) -> FactorGraphDelta:
    """Append one variable with a bias factor and flip one evidence."""
    graph = engine.current_graph
    return FactorGraphDelta(
        num_new_vars=1,
        new_var_names=[f"added-{step}"],
        new_weight_entries=[((f"g{step}",), 0.4, False)],
        new_factors=[BiasFactor(weight_id=len(graph.weights), var=graph.num_vars)],
        evidence_updates={step % 6: step % 2 == 0},
    )


def patch_delta(engine, step: int) -> FactorGraphDelta:
    """A factor on existing variables: flags a variable as patched."""
    graph = engine.current_graph
    return FactorGraphDelta(
        new_weight_entries=[((f"p{step}",), -0.3, False)],
        new_factors=[BiasFactor(weight_id=len(graph.weights), var=step % 6)],
    )


class TestRerunEngineComposedHistory:
    def test_restore_patch_append_pickle_patch_matches_twin(self):
        """The history that lost patch flags behind numpy's detached
        views, on the Rerun owner: restore → patch → append → pickle →
        patch, every step bit-identical to a never-failed, never-pickled
        twin."""
        config = EngineConfig(
            inference_samples=30, burn_in=3, seed=0, compact_threshold=1.0
        )
        live = RerunEngine(chain_ising_graph(6, 0.4, 0.1), config)
        twin = RerunEngine(chain_ising_graph(6, 0.4, 0.1), config)
        for engine in (live, twin):
            engine.apply_update(grow_delta(engine, 0))
            engine.relearn(2, record_loss=False)
        with inject_faults(FaultPlan([Fault(site="engine.update.inferred")])):
            with pytest.raises(FaultInjected):
                live.apply_update(patch_delta(live, 1))
        history = [patch_delta, grow_delta, "pickle", patch_delta, grow_delta]
        for step, make in enumerate(history, start=1):
            if make == "pickle":
                live = pickle.loads(pickle.dumps(live))
                continue
            ours = live.apply_update(make(live, step))
            theirs = twin.apply_update(make(twin, step))
            assert np.array_equal(ours.marginals, theirs.marginals)
            assert live.relearn(1).losses == twin.relearn(1).losses
            assert_same(live.resident, twin.resident)
        assert live.resident.compiled.has_patches
        assert (live.updates_patched, live.updates_recompiled) == (4, 1)


# --------------------------------------------------------------------- #
# The engine's in-memory WAL is bounded.


def tiny_config(**overrides) -> EngineConfig:
    base = dict(
        materialization_samples=20,
        inference_steps=3,
        inference_samples=2,
        variational_inference_samples=2,
        burn_in=1,
        seed=0,
    )
    base.update(overrides)
    return EngineConfig(**base)


def one_variable_append(engine, step: int) -> FactorGraphDelta:
    graph = engine.current_graph
    return FactorGraphDelta(
        num_new_vars=1,
        new_weight_entries=[((f"a{step}",), 0.2, False)],
        new_factors=[BiasFactor(weight_id=len(graph.weights), var=graph.num_vars)],
    )


class TestEngineWalIsBounded:
    @pytest.mark.parametrize("engine_cls", [IncrementalEngine, RerunEngine])
    def test_records_and_pickle_stay_flat_over_200_updates(self, engine_cls):
        engine = engine_cls(chain_ising_graph(20, 0.4, 0.1), tiny_config())
        if engine_cls is IncrementalEngine:
            engine.materialize()
        sizes = {}
        for step in range(200):
            engine.apply_update(one_variable_append(engine, step))
            if step + 1 in (100, 200):
                sizes[step + 1] = len(pickle.dumps(engine.wal))
        # The retained window, its floor marker, nothing pending.
        assert len(engine.wal.records()) == 2 * WAL_WINDOW + 1
        assert engine.wal.pending() == []
        assert len(engine.wal.committed()) == WAL_WINDOW
        assert sizes[200] <= sizes[100] + 64
        assert engine.committed_updates == 200

    def test_rolled_back_transactions_are_trimmed_too(self):
        engine = RerunEngine(chain_ising_graph(6, 0.4, 0.1), tiny_config())
        plan = FaultPlan([Fault(site="engine.update.start", at=1, repeat=True)])
        with inject_faults(plan):
            for step in range(3 * WAL_WINDOW):
                with pytest.raises(FaultInjected):
                    engine.apply_update(one_variable_append(engine, step))
        assert engine.rollbacks == 3 * WAL_WINDOW
        assert len(engine.wal.records()) == 2 * WAL_WINDOW + 1
        assert engine.wal.committed() == []

    def test_file_backed_wal_keeps_its_history(self, tmp_path):
        config = tiny_config(wal_path=str(tmp_path / "engine.wal"))
        with RerunEngine(chain_ising_graph(6, 0.4, 0.1), config) as engine:
            for step in range(2 * WAL_WINDOW):
                engine.apply_update(one_variable_append(engine, step))
            assert len(engine.wal.committed()) == 2 * WAL_WINDOW

    def test_service_checkpoint_does_not_carry_update_history(self, tmp_path):
        """Checkpoints pickle the engine: the engine WAL inside one taken
        after 200 updates is no larger than inside one taken after 100."""
        from repro.grounding import IncrementalGrounder
        from repro.service import KBService

        from tests.test_grounding import spouse_db, spouse_program
        from tests.test_reliability import FAST_RETRY

        program = spouse_program()
        grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
        engine = IncrementalEngine(grounder.graph, tiny_config())
        engine.materialize()
        service = KBService(
            grounder, engine, checkpoint_dir=tmp_path / "ckpt", retry=FAST_RETRY
        )
        service.prime()
        wal_bytes = {}
        for step in range(200):
            a, b = f"m{100 + 2 * step}", f"m{101 + 2 * step}"
            service.pipeline.apply_update(
                inserts={
                    "PersonCandidate": [(f"s{100 + step}", a), (f"s{100 + step}", b)],
                    "PhraseFeature": [(a, b, "and his wife")],
                }
            )
            if step + 1 in (100, 200):
                assert service.checkpoint() is not None
                wal_bytes[step + 1] = len(pickle.dumps(service.pipeline.engine.wal))
        assert wal_bytes[200] <= wal_bytes[100] + 64


# --------------------------------------------------------------------- #
# Option diet.


class TestEngineConfigSurface:
    # The field count is pinned where the latest removal is tested:
    # tests/test_no_forks.py (14 since ``transactional`` went).

    @pytest.mark.parametrize(
        "removed",
        [
            "reuse_compilation",
            "warm_start",
            "materialization_time_budget",
            "bundle_patch_fraction",
        ],
    )
    def test_removed_knobs_fail_loudly(self, removed):
        with pytest.raises(TypeError):
            EngineConfig(**{removed: 0})
