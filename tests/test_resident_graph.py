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

Also here: ``EngineConfig`` carries exactly the surviving knobs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.resident
from repro.core import EngineConfig, IncrementalEngine, RerunEngine
from repro.core.resident import ResidentGraph
from repro.graph import FactorGraph, FactorGraphDelta
from repro.graph.compiled import CompiledFactorGraph
from repro.graph.factor_graph import BiasFactor
from repro.reliability.faults import Fault, FaultInjected, FaultPlan, inject_faults
from repro.reliability.snapshots import RngSnapshot

from tests.helpers import chain_ising_graph, counting, graph_fingerprint
from tests.test_incremental_compile import seed_graph
from tests.test_variational_incremental import canonical, draw_delta
from tests.reference.factors import lower_factors

#: Low enough that a handful of drawn deltas crosses it.
COMPACT_THRESHOLD = 0.15


def make_resident(seed: int, with_learner: bool) -> ResidentGraph:
    """The Rerun configuration: a serial chain, optionally a learner."""
    resident = ResidentGraph(seed_graph(seed), np.random.default_rng(seed))
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
    @pytest.fixture(autouse=True, scope="class")
    def low_compact_threshold(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.core.resident, "COMPACT_THRESHOLD", COMPACT_THRESHOLD)
            yield

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

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_patches_and_restores_stay_at_or_under_the_threshold(self, data):
        """``apply_delta`` with compaction on, and ``restore``, leave
        ``patch_fraction() ≤ COMPACT_THRESHOLD``: so ``marginals`` never
        compacts a substrate a learner rides (only a deferred compaction
        leaves it over, and no such owner has a learner)."""
        resident = make_resident(data.draw(st.integers(0, 3), label="graph seed"), True)
        for step in range(data.draw(st.integers(4, 9), label="steps")):
            delta = draw_delta(data, resident.graph, step)
            if data.draw(st.booleans(), label="fail"):
                failed_transaction(resident, delta)
            else:
                resident.apply_delta(delta)
            assert resident.compiled.patch_fraction() <= COMPACT_THRESHOLD
            advance(resident)

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
                new_factors=lower_factors([
                    BiasFactor(weight_id=len(resident.graph.weights), var=v)
                    for v in range(step, step + 5)
                ]),
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
        new_factors=lower_factors([BiasFactor(weight_id=len(graph.weights), var=graph.num_vars)]),
        evidence_updates={step % 6: step % 2 == 0},
    )


def patch_delta(engine, step: int) -> FactorGraphDelta:
    """A factor on existing variables: flags a variable as patched."""
    graph = engine.current_graph
    return FactorGraphDelta(
        new_weight_entries=[((f"p{step}",), -0.3, False)],
        new_factors=lower_factors([BiasFactor(weight_id=len(graph.weights), var=step % 6)]),
    )


class TestRerunEngineComposedHistory:
    def test_restore_patch_append_pickle_patch_matches_twin(self, monkeypatch):
        """The history that lost patch flags behind numpy's detached
        views, on the Rerun owner: restore → patch → append → pickle →
        patch, every step bit-identical to a never-failed, never-pickled
        twin."""
        monkeypatch.setattr(repro.core.resident, "COMPACT_THRESHOLD", 1.0)
        config = EngineConfig(inference_samples=30, burn_in=3, seed=0)
        with counting(CompiledFactorGraph, "__init__") as builds:
            live = RerunEngine(chain_ising_graph(6, 0.4, 0.1), config)
            twin = RerunEngine(chain_ising_graph(6, 0.4, 0.1), config)
            self.run_history(live, twin)
        # One substrate per engine, compiled with it; a pickle round trip
        # constructs none.
        assert builds["__init__"] == 2

    @staticmethod
    def run_history(live, twin):
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


class TestIncrementalEngineRollbacks:
    """An ``IncrementalEngine`` patches its current graph at every
    update, before its first relearn too; both rollbacks such a state can
    meet leave it exactly where a twin that never failed stands."""

    @staticmethod
    def make() -> IncrementalEngine:
        engine = IncrementalEngine(
            chain_ising_graph(6, 0.4, 0.1),
            EngineConfig(
                materialization_samples=60,
                inference_steps=20,
                variational_inference_samples=20,
                burn_in=3,
                seed=0,
            ),
        )
        engine.materialize()
        return engine

    @staticmethod
    def assert_twins(live: IncrementalEngine, twin: IncrementalEngine) -> None:
        """Same updates ahead of both: same marginals, then the same
        first relearn, substrate and learner."""
        for step in (3, 4):
            ours = live.apply_update(grow_delta(live, step))
            theirs = twin.apply_update(grow_delta(twin, step))
            assert np.array_equal(ours.marginals, theirs.marginals)
        assert graph_fingerprint(live.current_graph) == graph_fingerprint(
            twin.current_graph
        )
        assert live.relearn(2).losses == twin.relearn(2).losses
        assert graph_fingerprint(
            FactorGraph.from_compiled(live.resident.compiled)
        ) == graph_fingerprint(FactorGraph.from_compiled(twin.resident.compiled))
        for ours, theirs in (
            (live.resident.learner._conditioned, twin.resident.learner._conditioned),
            (live.resident.learner._free, twin.resident.learner._free),
        ):
            assert np.array_equal(ours.state, theirs.state)
        assert live.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_rolled_back_updates_put_back_the_substrate(self):
        live, twin = self.make(), self.make()
        for engine in (live, twin):
            for step in (0, 1):
                engine.apply_update(grow_delta(engine, step))
        # A transaction that failed after its splice, then a committed
        # update undone whole.
        with inject_faults(FaultPlan([Fault(site="engine.update.inferred")])):
            with pytest.raises(FaultInjected):
                live.apply_update(grow_delta(live, 2))
        live.apply_update(patch_delta(live, 2))
        live.rollback()
        self.assert_twins(live, twin)

    def test_rolled_back_first_relearn_drops_its_learner(self):
        live, twin = self.make(), self.make()
        for engine in (live, twin):
            for step in (0, 1, 2):
                engine.apply_update(grow_delta(engine, step))
        with inject_faults(FaultPlan([Fault(site="learn.epoch", at=2)])):
            with pytest.raises(FaultInjected):
                live.relearn(2)
        assert live.resident.learner is None
        self.assert_twins(live, twin)


def materialized_engine(seed: int) -> IncrementalEngine:
    engine = IncrementalEngine(
        seed_graph(seed),
        EngineConfig(
            materialization_samples=60,
            inference_steps=20,
            variational_inference_samples=20,
            burn_in=3,
            seed=seed,
        ),
    )
    engine.materialize()
    return engine


def learner_chains(engine: IncrementalEngine) -> tuple:
    learner = engine.resident.learner
    return (learner._conditioned, learner._free)


def assert_relearned_alike(live: IncrementalEngine, twin: IncrementalEngine) -> None:
    """Bit for bit after a relearn: the substrate, the weights, the
    learner's chain states and caches, and the shared generator."""
    assert live.current_graph is live.resident.compiled.graph
    assert graph_fingerprint(live.current_graph) == graph_fingerprint(
        twin.current_graph
    )
    for ours, theirs in zip(learner_chains(live), learner_chains(twin), strict=True):
        assert ours.sweeps_done == theirs.sweeps_done
        for name in ("field", "unsat", "nsat"):
            assert np.array_equal(
                getattr(ours.cache, name), getattr(theirs.cache, name)
            )
        assert np.array_equal(ours.state, theirs.state)
    assert live.rng.bit_generator.state == twin.rng.bit_generator.state


class TestLearnerRidesEveryUpdate:
    """After a relearn an ``IncrementalEngine``'s learner rides the patch
    of every update.  Whatever the history — inserts, retractions,
    evidence flips, rolled-back updates and relearns, pickle round trips
    — each relearn leaves it where a twin that saw only the committed
    updates, and was never pickled, stands."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_every_relearn_matches_the_twin(self, data):
        seed = data.draw(st.integers(0, 3), label="graph seed")
        live, twin = materialized_engine(seed), materialized_engine(seed)
        ops = data.draw(
            st.lists(
                st.sampled_from(["update", "relearn", "rollback", "pickle"]),
                min_size=4,
                max_size=10,
            ),
            label="ops",
        )
        for step, op in enumerate(ops + ["relearn"]):
            if op == "pickle":
                live = pickle.loads(pickle.dumps(live))
            elif op == "relearn":
                assert live.relearn(1).losses == twin.relearn(1).losses
                assert_relearned_alike(live, twin)
            elif op == "rollback":
                # An update, maybe a relearn on top, undone whole: the
                # twin never sees either.
                live.apply_update(draw_delta(data, live.current_graph, step))
                if data.draw(st.booleans(), label="relearn before rollback"):
                    live.relearn(1)
                live.rollback()
            else:
                delta = draw_delta(data, twin.current_graph, step)
                ours, theirs = live.apply_update(delta), twin.apply_update(delta)
                assert np.array_equal(ours.marginals, theirs.marginals)
            assert live.rng.bit_generator.state == twin.rng.bit_generator.state


# --------------------------------------------------------------------- #
# Option diet.


class TestEngineConfigSurface:
    # The field count is pinned where the latest removal is tested:
    # tests/test_no_forks.py (10 since compact_threshold became
    # repro.core.resident.COMPACT_THRESHOLD).

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
