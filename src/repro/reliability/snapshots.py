"""Bounded state snapshots backing transactional engine updates.

``apply_update``/``relearn`` can fail anywhere in the
ground → patch → infer/relearn pipeline; these classes capture exactly
the state such a failure can have touched — O(touched), not O(graph) —
so the engine rolls back to its pre-update state and the retried apply
is bit-identical to a never-failed one (serial components; see below).

The heavy lifting for the compiled substrate lives on the objects
themselves (:meth:`CompiledFactorGraph.snapshot_state`,
:meth:`SweepPlan.snapshot_state`, :meth:`WeightStore.snapshot_state` —
designed around the mutation inventory of ``apply_patch_ops``: alive
masks and mirrors are copied, append-only arrays are truncated by size,
replaced-not-mutated arrays are captured by reference).  This module
composes them with chain/cache/materialization state into one
engine-level transaction snapshot.

**Pool-backed components are restored cold.**  A worker pool that
half-applied a patch cannot be rolled back message-by-message; the
snapshot instead closes it and leaves the engine to rebuild lazily (the
controller-side compiled substrate *is* rolled back exactly, so the
rebuilt pool starts from the correct pre-update structure).  Serial
samplers and learners are restored bit-exactly, including the shared rng
stream.  Exception: ``spawn()`` advances a SeedSequence child counter
that is not part of the generator state, so exact rng replay holds for
serial components only — which is also where bit-parity is asserted.

All snapshots are single-use: ``restore`` consumes them.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.reliability.errors import RollbackError


def _consume(snap) -> None:
    if getattr(snap, "_used", False):
        raise RollbackError(f"{type(snap).__name__} already consumed")
    snap._used = True


class RngSnapshot:
    """Exact bit-generator state of a shared ``np.random.Generator``."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.state = copy.deepcopy(rng.bit_generator.state)

    def restore(self) -> None:
        _consume(self)
        self.rng.bit_generator.state = copy.deepcopy(self.state)


class CacheSnapshot:
    """One :class:`GibbsCache`: incremental stats are copied, the weight
    vector (replaced, never mutated, on refresh) by reference."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.unsat = cache.unsat.copy()
        self.nsat = cache.nsat.copy()
        self.field = cache.field.copy()
        self.edge_w = cache._edge_w.copy()
        self.weights_vec = cache.weights_vec
        self.w_list = cache._w_list
        self.weights_version = cache._weights_version

    def restore(self):
        _consume(self)
        cache = self.cache
        cache.unsat = self.unsat
        cache.nsat = self.nsat
        cache.field = self.field
        cache._edge_w = self.edge_w
        cache.weights_vec = self.weights_vec
        cache._w_list = self.w_list
        cache._weights_version = self.weights_version
        return cache


class SerialSamplerSnapshot:
    """Exact state of an in-process :class:`GibbsSampler` chain."""

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.graph = sampler.graph
        self.plan = sampler.plan
        self.plan_state = sampler.plan.snapshot_state()
        self.state = sampler.state.copy()
        self.sweeps_done = sampler.sweeps_done
        self.cache = CacheSnapshot(sampler.cache)

    def restore(self, verify: bool = False):
        _consume(self)
        s = self.sampler
        s.graph = self.graph
        s.plan = self.plan
        self.plan.restore_state(self.plan_state)
        s.state = self.state
        s.sweeps_done = self.sweeps_done
        s.cache = self.cache.restore()
        if verify:
            # The restored cache may legitimately lag the weight store
            # (version-gated lazy refresh); bring it current first — the
            # same refresh the next sweep would run — so the from-scratch
            # comparison checks structure, not refresh timing.
            s.cache.refresh_weights(s.state)
            s.cache.check_consistency(s.state)
        return s


class MaterializationSnapshot:
    """:class:`SampleMaterialization` — the bundle matrix is replaced
    (never mutated in place) by ``materialize``/``extend_bundle``, so
    reference capture plus the cursor/width scalars is exact."""

    def __init__(self, sampling) -> None:
        self.sampling = sampling
        self.packed = sampling._packed
        self.base_marginals = sampling.base_marginals
        self.cursor = sampling._cursor
        self.width = sampling.width
        self.compiled = sampling._compiled
        self.graph = sampling.graph

    def restore(self) -> None:
        _consume(self)
        m = self.sampling
        m._packed = self.packed
        m.base_marginals = self.base_marginals
        m._cursor = self.cursor
        m.width = self.width
        m._compiled = self.compiled
        m.graph = self.graph


class VariationalSnapshot:
    """:class:`VariationalMaterialization` — ``apply_update`` patches the
    approximate substrate in place and warm-starts the persistent chain
    across the patch, so both roll back exactly (the chain is serial)."""

    def __init__(self, variational) -> None:
        self.variational = variational
        self.splice_counter = variational._splice_counter
        self.compiled = variational._compiled
        self.compiled_state = (
            self.compiled.snapshot_state() if self.compiled is not None else None
        )
        self.sampler_state = (
            SerialSamplerSnapshot(variational._sampler)
            if variational._sampler is not None
            else None
        )

    def restore(self, verify: bool = False) -> None:
        _consume(self)
        v = self.variational
        v._splice_counter = self.splice_counter
        if self.compiled_state is not None:
            self.compiled.restore_state(self.compiled_state)
            v.approximation.graph = self.compiled.graph
        v._sampler = (
            self.sampler_state.restore(verify=verify)
            if self.sampler_state is not None
            else None
        )


class LearnerSnapshot:
    """:class:`SGDLearner` — serial chain pairs restore exactly;
    pool-backed learners restore cold (closed; ``restore`` returns None
    and the engine rebuilds at the next relearn)."""

    def __init__(self, learner) -> None:
        self.learner = learner
        self.pool_backed = learner is not None and learner._pool is not None
        if learner is None or self.pool_backed:
            return
        self.graph = learner.graph
        self.free_graph = learner.free_graph
        self.scorer = learner._scorer
        self.conditioned = SerialSamplerSnapshot(learner._conditioned)
        self.free = SerialSamplerSnapshot(learner._free)

    def restore(self, verify: bool = False):
        _consume(self)
        learner = self.learner
        if learner is None:
            return None
        if self.pool_backed:
            learner.close()
            return None
        learner.graph = self.graph
        learner.free_graph = self.free_graph
        learner._scorer = self.scorer
        self.conditioned.restore(verify=verify)
        self.free.restore(verify=verify)
        return learner


def _close_quietly(obj) -> None:
    if obj is not None and hasattr(obj, "close"):
        try:
            obj.close()
        except OSError:
            pass


# --------------------------------------------------------------------- #
# Engine-level transaction snapshots (duck-typed; no engine imports).


class IncrementalUpdateSnapshot:
    """Everything ``IncrementalEngine.apply_update`` can touch."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.rng = RngSnapshot(engine.rng)
        self.cumulative_delta = engine.cumulative_delta
        self.current_graph = engine.current_graph
        self.last_marginals = engine._last_marginals
        self.sampling = MaterializationSnapshot(engine.sampling)
        self.variational = VariationalSnapshot(engine.variational)
        self.learn_compiled = engine._learn_compiled
        self.compiled_state = (
            engine._learn_compiled.snapshot_state()
            if engine._learn_compiled is not None
            else None
        )
        self.learner = LearnerSnapshot(engine._learner)
        self.learner_stale = engine._learner_stale

    def restore(self, verify: bool = True) -> None:
        _consume(self)
        e = self.engine
        e.cumulative_delta = self.cumulative_delta
        e._last_marginals = self.last_marginals
        self.sampling.restore()
        self.variational.restore(verify=verify)
        if self.compiled_state is not None:
            self.learn_compiled.restore_state(self.compiled_state)
        e._learn_compiled = self.learn_compiled
        if self.learn_compiled is not None:
            # Re-derive the lazy view from the rolled-back substrate; the
            # captured reference may be a graph materialized (or a facade
            # swapped in) during the failed update.
            e.current_graph = self.learn_compiled.graph
        else:
            e.current_graph = self.current_graph
        restored = self.learner.restore(verify=verify)
        if self.learner.pool_backed and restored is None:
            e._learner = None
            e._learner_stale = False
        else:
            e._learner = restored
            e._learner_stale = self.learner_stale
        self.rng.restore()


class RerunUpdateSnapshot:
    """Everything ``RerunEngine.apply_update`` can touch.

    The persistent serial sampler restores exactly; a sharded sampler is
    closed and rebuilt lazily from the rolled-back compiled substrate."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.rng = RngSnapshot(engine.rng)
        self.current_graph = engine.current_graph
        self.last_marginals = engine._last_marginals
        self.updates_patched = engine.updates_patched
        self.updates_recompiled = engine.updates_recompiled
        self.compiled = engine._compiled
        self.compiled_state = (
            engine._compiled.snapshot_state()
            if engine._compiled is not None
            else None
        )
        self.sampler = engine._sampler
        self.sampler_serial = (
            engine._sampler is not None
            and type(engine._sampler).__name__ == "GibbsSampler"
        )
        self.sampler_state = (
            SerialSamplerSnapshot(engine._sampler)
            if self.sampler_serial
            else None
        )
        self.learner = LearnerSnapshot(engine._learner)
        self.learner_stale = engine._learner_stale

    def restore(self, verify: bool = True) -> None:
        _consume(self)
        e = self.engine
        e._last_marginals = self.last_marginals
        e.updates_patched = self.updates_patched
        e.updates_recompiled = self.updates_recompiled
        if self.compiled_state is not None:
            self.compiled.restore_state(self.compiled_state)
        e._compiled = self.compiled
        if self.compiled is not None:
            # Re-derive the lazy view from the rolled-back substrate rather
            # than resurrecting a stale materialized graph reference.
            e.current_graph = self.compiled.graph
        else:
            e.current_graph = self.current_graph
        if e._sampler is not self.sampler:
            # A replacement sampler built during the failed update owns
            # pool/shm resources the original does not.
            _close_quietly(e._sampler)
        if self.sampler_serial:
            e._sampler = self.sampler_state.restore(verify=verify)
        elif self.sampler is not None:
            # Pool-backed (sharded) sampler: cold restore — close it and
            # let apply_update rebuild from the rolled-back compilation.
            _close_quietly(self.sampler)
            e._sampler = None
        else:
            e._sampler = None
        restored = self.learner.restore(verify=verify)
        if self.learner.pool_backed and restored is None:
            e._learner = None
            e._learner_stale = False
        else:
            e._learner = restored
            e._learner_stale = self.learner_stale
        self.rng.restore()


class RelearnSnapshot:
    """Everything ``relearn`` on either engine can touch: the weight
    store (mutated in place by SGD), the learner's chains, and the
    lazily-created compiled substrate / graph-copy references."""

    _COMPILED_ATTRS = ("_learn_compiled", "_compiled")

    def __init__(self, engine) -> None:
        self.engine = engine
        self.rng = RngSnapshot(engine.rng)
        self.current_graph = engine.current_graph
        self.weights = engine.current_graph.weights
        self.weights_state = self.weights.snapshot_state()
        self.compiled_refs = {
            name: getattr(engine, name)
            for name in self._COMPILED_ATTRS
            if hasattr(engine, name)
        }
        self.learner = engine._learner
        self.learner_state = LearnerSnapshot(engine._learner)
        self.learner_stale = engine._learner_stale
        self.learns_warm = engine.learns_warm
        self.learns_cold = engine.learns_cold

    def restore(self, verify: bool = True) -> None:
        _consume(self)
        e = self.engine
        self.weights.restore_state(self.weights_state)
        for name, ref in self.compiled_refs.items():
            setattr(e, name, ref)
        substrate = next(
            (ref for ref in self.compiled_refs.values() if ref is not None),
            None,
        )
        e.current_graph = (
            substrate.graph if substrate is not None else self.current_graph
        )
        if e._learner is not self.learner:
            # Cold learner constructed during the failed relearn.
            _close_quietly(e._learner)
        restored = self.learner_state.restore(verify=verify)
        if self.learner_state.pool_backed and restored is None:
            e._learner = None
            e._learner_stale = False
        else:
            e._learner = restored
            e._learner_stale = self.learner_stale
        e.learns_warm = self.learns_warm
        e.learns_cold = self.learns_cold
        self.rng.restore()
