"""Bounded state snapshots backing transactional engine updates.

``apply_update``/``relearn`` can fail anywhere in the
ground → patch → infer/relearn pipeline; these classes capture exactly
the state such a failure can have touched — O(touched), not O(graph) —
so the engine rolls back to its pre-update state and the retried apply
is bit-identical to a never-failed one.

The heavy lifting for the compiled substrate lives on the objects
themselves (:meth:`CompiledFactorGraph.snapshot_state`,
:meth:`WeightStore.snapshot_state` — designed around the mutation
inventory of a patch splice: alive masks are copied, append-only arrays
are truncated by size, replaced-not-mutated arrays are captured by
reference).  A scan plan is immutable, so a chain's is captured by
reference.  Pairing a substrate capture with the captures of the chains
that follow it is the owner's job
(:meth:`repro.core.resident.ResidentGraph.snapshot`); this module
supplies the per-component pieces it composes and the two engine-level
transaction snapshots built on top.  Every update patches the resident
graph as a relearn fits it, so both capture it whole: substrate, chain
and learner.  Samplers and learners are restored bit-exactly, including
the shared rng stream.

All snapshots are single-use: ``restore`` consumes them.
"""

from __future__ import annotations

from repro.reliability.errors import RollbackError


def _consume(snap) -> None:
    if getattr(snap, "_used", False):
        raise RollbackError(f"{type(snap).__name__} already consumed")
    snap._used = True


class RngSnapshot:
    """Exact bit-generator state of a shared ``np.random.Generator``.

    The ``state`` getter builds a new dict on every read and the setter
    copies the values it is given, so the capture is the getter's dict
    as it is."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.state = rng.bit_generator.state

    def restore(self) -> None:
        _consume(self)
        self.rng.bit_generator.state = self.state


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
        self.weights_version = cache._weights_version

    def restore(self):
        _consume(self)
        cache = self.cache
        cache.unsat = self.unsat
        cache.nsat = self.nsat
        cache.field = self.field
        cache._edge_w = self.edge_w
        cache.weights_vec = self.weights_vec
        cache._weights_version = self.weights_version
        return cache


class SerialSamplerSnapshot:
    """Exact state of an in-process :class:`GibbsSampler` chain."""

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.graph = sampler.graph
        self.plan = sampler.plan
        self.replan = sampler._replan
        self.state = sampler.state.copy()
        self.sweeps_done = sampler.sweeps_done
        self.cache = CacheSnapshot(sampler.cache)

    def restore(self, verify: bool = False):
        _consume(self)
        s = self.sampler
        s.graph = self.graph
        s.plan, s._replan = self.plan, self.replan
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
    capturing every attribute by reference is exact."""

    def __init__(self, sampling) -> None:
        self.sampling = sampling
        self.attrs = dict(vars(sampling))

    def restore(self) -> None:
        _consume(self)
        vars(self.sampling).update(self.attrs)


class LearnerSnapshot:
    """:class:`SGDLearner` — its chain pair restores exactly."""

    def __init__(self, learner) -> None:
        self.learner = learner
        if learner is None:
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
        learner.graph = self.graph
        learner.free_graph = self.free_graph
        learner._scorer = self.scorer
        self.conditioned.restore(verify=verify)
        self.free.restore(verify=verify)
        return learner


# --------------------------------------------------------------------- #
# Engine-level transaction snapshots (duck-typed; no engine imports).


class RelearnSnapshot:
    """A transaction on an engine's current graph: ``relearn`` on either
    engine, and ``RerunEngine.apply_update``, whose whole state is that
    graph.

    The resident graph (substrate, chain, learner) and the shared rng
    are mutated in place and capture themselves; everything else a
    transaction changes on the engine — last marginals, counters, the
    cumulative delta — it *rebinds*, so a shallow copy of the engine's
    attribute dict restores it by reference."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.attrs = dict(vars(engine))
        self.rng = RngSnapshot(engine.rng)
        self.resident = engine.resident.snapshot()

    def restore(self, verify: bool = True) -> None:
        _consume(self)
        vars(self.engine).update(self.attrs)
        self.engine.resident.restore(self.resident, verify=verify)
        self.rng.restore()


class IncrementalUpdateSnapshot(RelearnSnapshot):
    """Everything ``IncrementalEngine.apply_update`` can touch: the
    current graph plus both materializations."""

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.sampling = MaterializationSnapshot(engine.sampling)
        self.variational = engine.variational.snapshot()

    def restore(self, verify: bool = True) -> None:
        self.sampling.restore()
        self.engine.variational.restore(self.variational, verify=verify)
        super().restore(verify=verify)
