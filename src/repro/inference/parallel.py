"""Parallel chain ensembles over a shared-memory compiled graph.

Inference is the inner subroutine of both learning and incremental
materialization (paper §1, §3.3), so sampling throughput bounds the whole
pipeline.  This module runs the flat-array kernel of
:mod:`repro.graph.compiled` across OS processes in the spirit of
DimmWitted-style sampling (Ré et al. 2014): the compiled CSR arrays are
exported once into :mod:`multiprocessing.shared_memory`
(:class:`SharedGraphExport`), and a :class:`GibbsWorkerPool` of
persistent, supervised worker processes attaches zero-copy.

Whole independent chains are farmed to the workers — one
:class:`~repro.graph.compiled.GibbsCache` per chain, all attached to the
same shared compilation, no per-sweep synchronization.  Used by
:class:`ParallelChainEnsemble` (``inference.convergence``'s ensemble
marginals per sweep, ``core.sampling``'s parallel chains filling the
tuple bundle within the materialization budget) and by ``learning.sgd``
(conditioned + free persistent chains advance concurrently).  The same
pool, without a graph export, runs the grounding shards of
:mod:`repro.grounding.sharded`.

Every consumer takes ``n_workers=1`` as the in-process serial path, so
none depends on this module to run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import traceback
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.graph.compiled import (
    _GROWABLE_NAMES as _COMPILED_GROWABLE,
    CompiledFactorGraph,
    GibbsCache,
    bias_init_values,
)
from repro.inference.gibbs import iter_worlds, logit_rows, sweep_blocks
from repro.reliability.errors import WorkerCrashError
from repro.reliability.faults import maybe_fire
from repro.reliability.retry import RetryPolicy
from repro.util.rng import as_generator, spawn

#: Sentinel distinguishing "no timeout argument" from an explicit None.
_UNSET = object()

__all__ = [
    "SharedGraphExport",
    "GibbsWorkerPool",
    "ParallelChainEnsemble",
    "default_context",
]

#: Flat arrays of :class:`CompiledFactorGraph` exported into shared memory.
#: ``free_vars`` is derived (recomputed at attach); the growable arrays in
#: :data:`_GROWABLE_EXPORT` get capacity slack so patches land in place.
_EXPORT_ARRAYS = (
    "bias_indptr",
    "bias_wid",
    "bias_var",
    "bias_alive",
    "ising_indptr",
    "ising_other",
    "ising_wid",
    "ising_row",
    "ising_alive",
    "rule_head",
    "rule_wid",
    "rule_sem",
    "rule_alive",
    "grounding_ri",
    "lit_gg",
    "lit_var",
    "lit_pos",
    "head_indptr",
    "head_ri",
    "body_indptr",
    "body_ri",
    "body_gg",
    "body_pos",
    "bseg_indptr",
    "bseg_start",
    "bseg_ri",
    "slow_indptr",
    "slow_idx",
    "evidence_mask",
    "var_patched",
    "_force_singleton",
    "_needs_scalar",
    "_big_count",
    "_color",
    "_nbr_indptr",
    "_nbr_idx",
)

#: Exported arrays that :meth:`CompiledFactorGraph.apply_delta` grows.
#: Their shared regions are allocated with capacity slack and carry a
#: logical size in the ``__sizes__`` region, so updates grow them in
#: place (behind the structure-version cell) without respawning workers.
_GROWABLE_EXPORT = tuple(
    name for name in _EXPORT_ARRAYS if name in _COMPILED_GROWABLE
)


def _capacity(size: int) -> int:
    """Capacity reserved for a growable export region."""
    return size + max(size // 2, 64)


def default_context() -> mp.context.BaseContext:
    """The preferred multiprocessing context: ``fork`` where available
    (cheap worker start; Linux), else the platform default."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _align(offset: int, alignment: int = 16) -> int:
    return (offset + alignment - 1) // alignment * alignment


class SharedGraphExport:
    """Zero-copy export of a compiled factor graph into shared memory.

    All flat CSR arrays (plus the weight vector and a version cell) are
    copied once into a single :class:`multiprocessing.shared_memory`
    segment; worker processes attach by name and rebuild numpy views over
    the same pages — no per-worker copy of the graph structure.

    Weight updates flow through :meth:`push_weights`: the controller
    writes the new values and version between sweeps (workers are blocked
    on their command pipe at that point, so no tearing), and each worker's
    version-gated ``GibbsCache.refresh_weights`` picks them up on its next
    sweep, exactly like the serial kernel.
    """

    def __init__(self, compiled: CompiledFactorGraph) -> None:
        if compiled.has_patches:
            # Worker attachment rebuilds the Python mirrors from the
            # per-variable CSR snapshot, which is stale on a patched
            # compilation — compaction restores it (and resets the
            # tombstones the fresh export would otherwise carry).
            compiled.compact()
        self.compiled = compiled
        manifest = []
        offset = 0
        for name in _EXPORT_ARRAYS:
            arr = np.ascontiguousarray(getattr(compiled, name))
            cap = (
                _capacity(arr.shape[0])
                if name in _GROWABLE_EXPORT
                else arr.shape[0]
            )
            offset = _align(offset)
            manifest.append((name, offset, (cap,) + arr.shape[1:], arr.dtype.str))
            offset += int(np.prod((cap,) + arr.shape[1:])) * arr.dtype.itemsize

        weights = np.asarray(
            compiled.graph.weights.values_array(), dtype=np.float64
        )
        w_cap = _capacity(weights.shape[0])
        offset = _align(offset)
        manifest.append(("__weights__", offset, (w_cap,), weights.dtype.str))
        offset += w_cap * weights.dtype.itemsize
        for cell in ("__weights_version__", "__weights_size__", "__structure_version__"):
            offset = _align(offset)
            manifest.append((cell, offset, (1,), np.dtype(np.int64).str))
            offset += 8
        offset = _align(offset)
        manifest.append(
            (
                "__sizes__",
                offset,
                (len(_GROWABLE_EXPORT),),
                np.dtype(np.int64).str,
            )
        )
        offset += 8 * len(_GROWABLE_EXPORT)

        self.manifest = manifest
        self.shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        self._finalizer = weakref.finalize(
            self, _cleanup_shm, self.shm, unlink=True
        )
        self._views = _map_views(self.shm, manifest)
        for name in _EXPORT_ARRAYS:
            src = np.ascontiguousarray(getattr(compiled, name))
            if src.size:
                self._views[name][: src.shape[0]] = src
        for gi, name in enumerate(_GROWABLE_EXPORT):
            self._views["__sizes__"][gi] = getattr(compiled, name).shape[0]
        self._views["__weights__"][: weights.shape[0]] = weights
        self._views["__weights_version__"][0] = compiled.graph.weights.version
        self._views["__weights_size__"][0] = weights.shape[0]
        self._views["__structure_version__"][0] = 0

    def array(self, name: str) -> np.ndarray:
        """Controller-side view of an exported region (full capacity for
        growable regions — slice by the logical size)."""
        return self._views[name]

    def push_weights(self, store) -> None:
        """Publish the store's current values + version to the workers.

        The weight region has capacity slack, so stores that grew (a
        delta interned new feature weights) keep flowing through the
        existing cells until the capacity is exhausted."""
        values = np.asarray(store.values_array(), dtype=np.float64)
        region = self._views["__weights__"]
        if values.shape[0] > region.shape[0]:
            raise ValueError(
                f"weight store grew past the exported capacity "
                f"({values.shape[0]} > {region.shape[0]}); re-export"
            )
        region[: values.shape[0]] = values
        self._views["__weights_size__"][0] = values.shape[0]
        self._views["__weights_version__"][0] = store.version

    def fits(self, compiled: CompiledFactorGraph) -> bool:
        """True when the compiled arrays still fit the exported capacities."""
        for name in _GROWABLE_EXPORT:
            if getattr(compiled, name).shape[0] > self._views[name].shape[0]:
                return False
        return (
            len(compiled.graph.weights) <= self._views["__weights__"].shape[0]
        )

    def apply_patch(self, compiled: CompiledFactorGraph) -> bool:
        """Grow the export in place to match a freshly patched compiled.

        Re-copies every growable region (tombstone flips land anywhere,
        and a full memcpy of the flat arrays is cheaper than tracking
        them), updates the logical sizes, pushes the weights, and bumps
        the structure version.  Returns False — without touching the
        segment — when any array outgrew its capacity; the caller must
        then re-export into a fresh segment."""
        if not self.fits(compiled):
            return False
        for gi, name in enumerate(_GROWABLE_EXPORT):
            src = getattr(compiled, name)
            if src.size:
                self._views[name][: src.shape[0]] = src
            self._views["__sizes__"][gi] = src.shape[0]
        self.push_weights(compiled.graph.weights)
        self._views["__structure_version__"][0] += 1
        return True

    def verify(self) -> list:
        """Names of exported regions whose content diverged from the
        controller's compiled arrays (corruption detector).

        The controller's flat arrays are the ground truth: every shared
        structural region was copied from them (at export or by
        :meth:`apply_patch`), so any byte difference within the logical
        sizes means the segment was scribbled on.  The weight region is
        only compared when its version cell matches the store (a pending
        unpushed weight update is not corruption)."""
        bad = []
        c = self.compiled
        for name in _EXPORT_ARRAYS:
            src = np.ascontiguousarray(getattr(c, name))
            if not np.array_equal(self._views[name][: src.shape[0]], src):
                bad.append(name)
        sizes = self._views["__sizes__"]
        for gi, name in enumerate(_GROWABLE_EXPORT):
            if int(sizes[gi]) != getattr(c, name).shape[0]:
                bad.append("__sizes__")
                break
        store = c.graph.weights
        if int(self._views["__weights_version__"][0]) == store.version:
            values = np.asarray(store.values_array(), dtype=np.float64)
            if int(self._views["__weights_size__"][0]) != values.shape[0] or (
                not np.array_equal(
                    self._views["__weights__"][: values.shape[0]], values
                )
            ):
                bad.append("__weights__")
        return bad

    def repair(self, names) -> None:
        """Re-copy the named regions from the controller's arrays."""
        for name in names:
            if name == "__sizes__":
                for gi, gname in enumerate(_GROWABLE_EXPORT):
                    self._views["__sizes__"][gi] = getattr(
                        self.compiled, gname
                    ).shape[0]
            elif name == "__weights__":
                self.push_weights(self.compiled.graph.weights)
            else:
                src = np.ascontiguousarray(getattr(self.compiled, name))
                if src.size:
                    self._views[name][: src.shape[0]] = src

    def verify_and_repair(self) -> list:
        """Detect and fix corrupted regions; returns the repaired names."""
        bad = self.verify()
        if bad:
            self.repair(bad)
        return bad

    def spec(self) -> dict:
        """Picklable worker-attach description (structure not in shm)."""
        graph = self.compiled.graph
        return {
            "shm_name": self.shm.name,
            "manifest": self.manifest,
            "num_vars": self.compiled.num_vars,
            "num_rules": self.compiled.num_rules,
            "num_groundings": self.compiled.num_groundings,
            "rule_nmax": self.compiled.rule_nmax,
            "scan_window": self.compiled._scan_window,
            "slow_list": pickle.dumps(self.compiled.slow_list),
            "slow_alive": list(self.compiled.slow_alive),
            "num_live_rules": self.compiled.num_live_rules,
            "num_live_slow": self.compiled.num_live_slow,
            "evidence": dict(graph.evidence),
            "sizes": {
                name: int(getattr(self.compiled, name).shape[0])
                for name in _GROWABLE_EXPORT
            },
        }

    def close(self) -> None:
        """Detach and unlink the segment (idempotent)."""
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _cleanup_shm(shm, unlink: bool) -> None:
    try:
        shm.close()
    except OSError:
        pass
    if unlink:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def _map_views(shm, manifest) -> dict:
    views = {}
    for name, offset, shape, dtype in manifest:
        views[name] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
        )
    return views


# --------------------------------------------------------------------- #
# Worker-side graph reconstruction
# --------------------------------------------------------------------- #


class _StubWeights:
    """Worker-side :class:`WeightStore` stand-in over the shm regions.

    ``values`` is the full-capacity region; the logical length lives in
    the ``__weights_size__`` cell so pushed weight growth (new feature
    weights interned by a delta) is visible without re-attaching."""

    def __init__(self, values, version_cell, size_cell) -> None:
        self._values = values
        self._version_cell = version_cell
        self._size_cell = size_cell

    @property
    def version(self) -> int:
        return int(self._version_cell[0])

    def values_array(self) -> np.ndarray:
        return self._values[: len(self)]

    def value(self, weight_id: int) -> float:
        return float(self._values[weight_id])

    def __len__(self) -> int:
        return int(self._size_cell[0])


class _StubGraph:
    """Worker-side graph stand-in: evidence + weights, no factor objects.

    Provides exactly the surface the compiled kernels touch:
    ``weights`` (version-gated values), the evidence map/mask/arrays and
    ``initial_assignment`` — enough for ``CompiledFactorGraph.plan`` and
    :class:`GibbsCache`.
    """

    def __init__(self, num_vars: int, evidence: dict, weights: _StubWeights) -> None:
        self.num_vars = num_vars
        self.weights = weights
        self.evidence = dict(evidence)
        count = len(self.evidence)
        self._ev_vars = np.fromiter(self.evidence.keys(), dtype=np.int64, count=count)
        self._ev_vals = np.fromiter(self.evidence.values(), dtype=bool, count=count)

    def evidence_arrays(self):
        return self._ev_vars, self._ev_vals

    def evidence_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_vars, dtype=bool)
        mask[self._ev_vars] = True
        return mask

    def free_variables(self):
        return np.flatnonzero(~self.evidence_mask()).tolist()

    def initial_assignment(self, rng=None) -> np.ndarray:
        x = np.zeros(self.num_vars, dtype=bool)
        if rng is not None:
            x = rng.random(self.num_vars) < 0.5
        x[self._ev_vars] = self._ev_vals
        return x

    def apply_patch(self, num_new_vars: int, evidence_changes: dict) -> None:
        """Grow and re-clamp the stub across a compiled patch."""
        self.num_vars += int(num_new_vars)
        for var, val in evidence_changes.items():
            if val is None:
                self.evidence.pop(int(var), None)
            else:
                self.evidence[int(var)] = bool(val)
        count = len(self.evidence)
        self._ev_vars = np.fromiter(self.evidence.keys(), dtype=np.int64, count=count)
        self._ev_vals = np.fromiter(self.evidence.values(), dtype=bool, count=count)


def attach_compiled(spec: dict):
    """Rebuild a functional :class:`CompiledFactorGraph` from a spec.

    Returns ``(compiled, shm, views)``; the caller owns closing ``shm``.
    The heavy incidence arrays are zero-copy views of the shared segment;
    only the Python mirrors for the scalar kernel (small, per-variable
    lists) are materialised locally.
    """
    shm = shared_memory.SharedMemory(name=spec["shm_name"])
    views = _map_views(shm, spec["manifest"])
    c = CompiledFactorGraph.__new__(CompiledFactorGraph)
    sizes = spec["sizes"]
    for name in _EXPORT_ARRAYS:
        view = views[name]
        if name in _GROWABLE_EXPORT:
            view = view[: sizes[name]]
        setattr(c, name, view)
    c.num_vars = spec["num_vars"]
    c.num_rules = spec["num_rules"]
    c.num_groundings = spec["num_groundings"]
    c.rule_nmax = spec["rule_nmax"]
    c._scan_window = spec["scan_window"]
    c.slow_list = pickle.loads(spec["slow_list"])
    c.slow_alive = list(spec["slow_alive"])
    c.num_live_rules = spec["num_live_rules"]
    c.num_live_slow = spec["num_live_slow"]
    c._plan_cache = {}
    c.free_vars = np.flatnonzero(~c.evidence_mask)
    # Incremental state: attached views resize against the capacity
    # regions; the handle table lives only on the controller (ops arrive
    # pre-resolved).
    c._cap_views = views
    c._grow = None
    c._fkind = None
    c._fh1 = None
    c._fh2 = None
    c.weight_factor_counts = None  # gradient aggregation is controller-only
    c._patched = bool(c.var_patched.any())
    c._nbr_patch = {}
    c._csr_num_vars = c.num_vars
    c.structure_version = 0
    c.views_materialized = 0
    c._view_factors = None
    c._view_factors_version = -1
    # Exports are of compacted substrates, so the CSR snapshot is current.
    c._mirrors_from_csr()
    weights = _StubWeights(
        views["__weights__"], views["__weights_version__"], views["__weights_size__"]
    )
    c.graph = _StubGraph(c.num_vars, spec["evidence"], weights)
    return c, shm, views


# --------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------- #


def _pack_worlds(worlds: list) -> tuple:
    """Bit-pack a list of bool states into (uint8 matrix, count)."""
    if not worlds:
        return np.zeros((0, 0), dtype=np.uint8), 0
    stacked = np.asarray(worlds, dtype=bool)
    return np.packbits(stacked, axis=1), len(worlds)


def _noop() -> None:
    """Finalizer stand-in for graphless workers (nothing to clean up)."""


class _Worker:
    """Dispatch table of one worker process (chains, or a grounding
    session)."""

    def __init__(self, spec: dict) -> None:
        if spec is None:
            # Graphless pool (sharded grounding): there is no compiled
            # export to attach — the grounding session ships its own
            # columnar mirrors over the pipe instead.
            self.compiled = self.shm = self.views = None
            self._finalizer = weakref.finalize(self, _noop)
            self.default_evidence = {}
        else:
            self.compiled, self.shm, self.views = attach_compiled(spec)
            # Worker-side safety net: if this process dies abnormally
            # (killed mid-command, unhandled interpreter exit), the
            # attached segment view is still closed at GC/interpreter
            # shutdown instead of pinning the segment until the
            # controller unlinks it.
            self._finalizer = weakref.finalize(
                self, _cleanup_shm, self.shm, unlink=False
            )
            self.default_evidence = spec["evidence"]
        self.chains = {}
        self.grounding = None

    # ---- sharded-grounding mode -------------------------------------- #

    def ground(self, op, **kwargs):
        """Dispatch one sharded-grounding session command.

        Lazily imported so chain workers never pay for
        the grounding module; the session holds this worker's columnar
        mirrors, pinned plans, and pinned delta batches."""
        if self.grounding is None:
            from repro.grounding.sharded import GroundingWorkerSession

            self.grounding = GroundingWorkerSession()
        return self.grounding.dispatch(op, **kwargs)

    # ---- chain-ensemble mode ---------------------------------------- #

    def _stub_for(self, evidence):
        evidence = self.default_evidence if evidence is None else evidence
        return _StubGraph(
            self.compiled.num_vars, evidence, self.compiled.graph.weights
        )

    def chain_init(self, chain_id, rng, evidence=None, initial=None):
        stub = self._stub_for(evidence)
        rng = as_generator(rng)
        plan = self.compiled.plan(stub)
        if initial is None:
            state = stub.initial_assignment(rng)
        else:
            state = np.array(initial, dtype=bool)
            ev_vars, ev_vals = stub.evidence_arrays()
            state[ev_vars] = ev_vals
        self.chains[chain_id] = {
            "state": state,
            "cache": GibbsCache(self.compiled, state),
            "rng": rng,
            "plan": plan,
            "stub": stub,
            # Chains pinned to a custom evidence configuration (e.g. the
            # free chain of SGD learning) do not follow the graph's
            # evidence updates; default chains do.
            "custom_evidence": evidence is not None,
        }

    @staticmethod
    def _chain_sweep(chain) -> tuple:
        """``(sweep, rng, width)`` of one worker chain, as
        :func:`~repro.inference.gibbs.iter_worlds` takes them: the same
        sweeps, from the same draws, as a serial :class:`GibbsSampler`
        makes."""
        cache, state, plan = chain["cache"], chain["state"], chain["plan"]

        def sweep(logits):
            cache.refresh_weights(state)
            sweep_blocks(cache, state, plan.blocks, logits)

        return sweep, chain["rng"], len(plan.free_vars)

    def _sweep_chain(self, chain, num=1) -> None:
        sweep, rng, width = self._chain_sweep(chain)
        for logits in logit_rows(rng, width, num):
            sweep(logits)

    def chain_sweeps(self, chain_ids, num=1):
        # Chains are independent (own generator, own state), so each runs
        # its ``num`` sweeps from one draw.
        for cid in chain_ids:
            self._sweep_chain(self.chains[cid], num)

    def chain_sweep_report(self, chain_ids, var):
        """Advance each chain one sweep; report its value of ``var``."""
        out = np.empty(len(chain_ids), dtype=bool)
        for k, cid in enumerate(chain_ids):
            chain = self.chains[cid]
            self._sweep_chain(chain)
            out[k] = chain["state"][var]
        return out

    def chain_states(self, chain_ids):
        return np.stack([self.chains[cid]["state"] for cid in chain_ids])

    def chain_sample_worlds(self, chain_id, num_samples, thin=1, burn_in=0):
        chain = self.chains[chain_id]
        worlds = [
            chain["state"].copy()
            for _ in iter_worlds(*self._chain_sweep(chain), num_samples, thin, burn_in)
        ]
        return _pack_worlds(worlds)

    def chain_pseudo_nll(self, chain_id):
        """Evidence pseudo-NLL scored against this chain's live cache.

        Runs where the conditioned chain of a pool-backed
        :class:`~repro.learning.sgd.SGDLearner` lives, so per-epoch loss
        recording neither ships the state back nor rebuilds a cache.  The
        scorer is cached per chain and dropped on graph patches."""
        from repro.learning.gradient import EvidenceScorer

        chain = self.chains[chain_id]
        scorer = chain.get("nll_scorer")
        if scorer is None:
            scorer = chain["nll_scorer"] = EvidenceScorer(
                self.compiled, chain["stub"].evidence
            )
        return scorer.nll(chain["cache"], chain["state"])

    def chain_sample_for(self, chain_id, seconds, thin=1, burn_in=0):
        """Best-effort collection within a local time budget (§3.3)."""
        chain = self.chains[chain_id]
        start = time.perf_counter()
        self._sweep_chain(chain, burn_in)
        worlds = []
        while time.perf_counter() - start < seconds:
            self._sweep_chain(chain, thin)
            worlds.append(chain["state"].copy())
        return _pack_worlds(worlds)

    # ---- incremental graph updates ----------------------------------- #

    def _patch_chain_state(self, chain, patch) -> None:
        """Grow + re-clamp one persistent chain's state for a patch."""
        k = patch.num_new_vars
        old_n = patch.old_num_vars
        if k:
            new_vals = bias_init_values(
                k, old_n, patch.bias_add, self.compiled.graph.weights, chain["rng"]
            )
            for var, val in patch.evidence_sets:
                if var >= old_n:
                    new_vals[var - old_n] = val
            chain["state"] = np.concatenate([chain["state"], new_vals])

    def graph_patch(self, ops):
        """Replay a compiled patch on the attached views + local chains.

        The controller has already grown the shared regions in place (the
        segment survives, no respawn); this worker re-slices its views,
        replays the mirror ops, and warm-patches its persistent chains."""
        patch = self.compiled.apply_patch_ops(ops)
        self.default_evidence = dict(self.compiled.graph.evidence)
        for chain in self.chains.values():
            custom = chain["custom_evidence"]
            chain.pop("nll_scorer", None)
            self._patch_chain_state(chain, patch)
            chain["cache"].apply_patch(patch, chain["state"])
            chain["stub"].apply_patch(
                patch.num_new_vars, {} if custom else ops["evidence"]
            )
            chain["plan"] = self.compiled.plan(chain["stub"])
            if not custom:
                for var, val in patch.evidence_sets:
                    if bool(chain["state"][var]) != val:
                        chain["cache"].commit_flip(
                            int(var), bool(val), chain["state"]
                        )
        return None

    def graph_reattach(self, spec, ops=None):
        """Re-attach to a fresh export segment (capacity overflow or
        compaction path).  Persistent chain states survive; their plans
        and caches are rebuilt against the re-exported compilation."""
        old_shm = self.shm
        old_chains = self.chains
        self.compiled, self.shm, self.views = attach_compiled(spec)
        self._finalizer.detach()
        _cleanup_shm(old_shm, unlink=False)
        self._finalizer = weakref.finalize(
            self, _cleanup_shm, self.shm, unlink=False
        )
        self.default_evidence = spec["evidence"]
        self.chains = {}
        for cid, chain in old_chains.items():
            state = np.asarray(chain["state"], dtype=bool)
            if ops is not None and ops["num_new_vars"]:
                add = ops["add"]
                new_vals = bias_init_values(
                    ops["num_new_vars"],
                    state.shape[0],
                    np.column_stack([add.bias_var, add.bias_wid]),
                    self.compiled.graph.weights,
                    chain["rng"],
                )
                state = np.concatenate([state, new_vals])
            custom = chain["custom_evidence"]
            stub = self._stub_for(
                dict(chain["stub"].evidence) if custom else None
            )
            ev_vars, ev_vals = stub.evidence_arrays()
            state[ev_vars] = ev_vals
            self.chains[cid] = {
                "state": state,
                "cache": GibbsCache(self.compiled, state),
                "rng": chain["rng"],
                "plan": self.compiled.plan(stub),
                "stub": stub,
                "custom_evidence": custom,
            }
        return None

    # ---- fault injection ---------------------------------------------- #

    def fault_exit(self, after=None, kwargs=None, code=43):
        """Die abruptly (``os._exit``: no reply, no cleanup handlers).

        With ``after`` set, the named command runs to completion first —
        the deterministic "worker finished its command, then crashed
        before replying" scenario of the fault harness."""
        if after is not None:
            getattr(self, after)(**(kwargs or {}))
        self._finalizer()
        os._exit(int(code))


def _worker_main(conn, spec: dict) -> None:
    worker = None
    try:
        worker = _Worker(spec)
        conn.send(("ok", None))
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            method, kwargs = message
            try:
                result = getattr(worker, method)(**kwargs)
                conn.send(("ok", result))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        if worker is not None:
            worker._finalizer()
        conn.close()


class GibbsWorkerPool:
    """A set of persistent worker processes attached to one shared export.

    The pool owns the export segment and the worker lifecycles; consumers
    address workers by index with :meth:`call` (synchronous) or
    :meth:`send`/:meth:`recv` (fan-out: send to all, then collect — the
    workers run concurrently between the two).

    **Supervision.**  :meth:`recv` polls with liveness checks instead of
    blocking: a dead worker raises :class:`WorkerCrashError` immediately
    and an unresponsive one raises it after ``command_timeout`` seconds
    (``None`` waits indefinitely on a *live* worker but still detects
    death promptly).  :meth:`respawn_worker` rebuilds a crashed worker
    from the export's creation-time spec plus the recorded patch-op log —
    the same deterministic replay machinery used by the incremental
    update path — then replays recorded ``chain_init`` commands, or
    defers to ``session_restorer`` when a consumer (the grounding
    executor) owns richer per-worker state.  :meth:`supervised_call`
    wraps send/recv/respawn under a :class:`RetryPolicy`.
    """

    _POLL_STEP = 0.05

    def __init__(
        self,
        compiled: CompiledFactorGraph,
        n_workers: int,
        ctx=None,
        command_timeout: float | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        ctx = ctx if ctx is not None else default_context()
        self._ctx = ctx
        self.n_workers = n_workers
        self.command_timeout = command_timeout
        if compiled is None:
            # Graphless pool: grounding dispatch only — no shared export
            # segment; workers boot empty and are fed via ``ground``.
            self.export = None
            self._spec = None
        else:
            self.export = SharedGraphExport(compiled)
            # Respawn baseline: the clean (compacted) spec of the current
            # segment plus every patch-op dict shipped since.  A fresh
            # worker attaches the baseline and replays the log — patch
            # application is deterministic and in-place growth is
            # idempotent (identical content rewritten), so it converges
            # on the crashed worker's structural state.
            self._spec = self.export.spec()
        self._patch_ops_log: list = []
        self._chain_log = [[] for _ in range(n_workers)]
        self._last_tb = [None] * n_workers
        self.session_restorer = None
        self.respawns = 0
        spec = self._spec
        self._conns = []
        self._procs = []
        try:
            for _ in range(n_workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, args=(child, spec), daemon=True
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            for i in range(n_workers):
                self.recv(i)  # attach handshake
        except Exception:
            self.close()
            raise
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._conns, self._procs
        )

    def send(self, worker: int, method: str, **kwargs) -> None:
        fault = maybe_fire(
            "pool.send", worker=worker, method=method, export=self.export
        )
        if fault is not None:
            if fault.action == "drop":
                return
            if fault.action == "kill":
                proc = self._procs[worker]
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5)
            elif fault.action == "kill_after":
                try:
                    self._conns[worker].send(
                        ("fault_exit", {"after": method, "kwargs": kwargs})
                    )
                except (BrokenPipeError, OSError):
                    pass
                return
        try:
            self._conns[worker].send((method, kwargs))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                worker,
                f"connection closed while sending {method!r}: {exc}",
                exitcode=self._procs[worker].exitcode,
                last_traceback=self._last_tb[worker],
            ) from exc

    def recv(self, worker: int, timeout=_UNSET):
        maybe_fire("pool.recv", worker=worker, export=self.export)
        if timeout is _UNSET:
            timeout = self.command_timeout
        conn = self._conns[worker]
        proc = self._procs[worker]
        deadline = None if timeout is None else time.monotonic() + timeout
        while not conn.poll(self._POLL_STEP):
            if not proc.is_alive() and not conn.poll(0):
                raise WorkerCrashError(
                    worker,
                    f"worker process died (exitcode {proc.exitcode})",
                    exitcode=proc.exitcode,
                    last_traceback=self._last_tb[worker],
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerCrashError(
                    worker,
                    f"no reply within {timeout:.3g}s",
                    hung=True,
                    last_traceback=self._last_tb[worker],
                )
        try:
            status, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashError(
                worker,
                f"connection closed mid-reply: {exc}",
                exitcode=proc.exitcode,
                last_traceback=self._last_tb[worker],
            ) from exc
        if status != "ok":
            self._last_tb[worker] = payload
            raise RuntimeError(f"worker {worker} failed:\n{payload}")
        return payload

    def call(self, worker: int, method: str, **kwargs):
        self.send(worker, method, **kwargs)
        result = self.recv(worker)
        if method == "chain_init":
            # Recorded for crash recovery: replaying chain_init with the
            # original (never-advanced controller-side) rng restarts the
            # chain from its initial state on the replayed structure.
            self._chain_log[worker].append(dict(kwargs))
        return result

    def supervised_call(
        self, worker: int, method: str, retry: RetryPolicy | None = None, **kwargs
    ):
        """:meth:`call` with respawn-and-retry on worker crashes."""
        policy = retry if retry is not None else RetryPolicy()

        def attempt(_n):
            self.send(worker, method, **kwargs)
            result = self.recv(worker)
            if method == "chain_init":
                self._chain_log[worker].append(dict(kwargs))
            return result

        def on_retry(_n, _exc):
            self.respawn_worker(worker)

        return policy.call(
            attempt, retryable=(WorkerCrashError,), on_retry=on_retry
        )

    def respawn_worker(self, worker: int) -> None:
        """Replace a dead/hung worker with a fresh process.

        The replacement attaches the current segment via the baseline
        spec, replays the patch-op log to rebuild the crashed worker's
        structural state, then restores session state: the consumer's
        ``session_restorer`` callback if registered (grounding executor),
        else the recorded ``chain_init`` history (chain consumers —
        chains restart from their initial state)."""
        proc = self._procs[worker]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5)
        try:
            self._conns[worker].close()
        except OSError:
            pass
        parent, child = self._ctx.Pipe()
        new_proc = self._ctx.Process(
            target=_worker_main, args=(child, self._spec), daemon=True
        )
        new_proc.start()
        child.close()
        # The finalizer holds references to these lists, so in-place
        # replacement keeps shutdown covering the new process.
        self._conns[worker] = parent
        self._procs[worker] = new_proc
        self._last_tb[worker] = None
        self.respawns += 1
        self.recv(worker)  # attach handshake
        for ops in self._patch_ops_log:
            self.send(worker, "graph_patch", ops=ops)
            self.recv(worker)
        if self.session_restorer is not None:
            self.session_restorer(worker)
        else:
            for kwargs in self._chain_log[worker]:
                self.send(worker, "chain_init", **kwargs)
                self.recv(worker)

    def audit_export(self) -> list:
        """Detect-and-repair pass over the shared regions (see
        :meth:`SharedGraphExport.verify_and_repair`)."""
        if self.export is None:
            return []
        return self.export.verify_and_repair()

    def broadcast(self, method: str, per_worker_kwargs) -> list:
        """Fan a call out to every worker and collect results in order."""
        for i, kwargs in enumerate(per_worker_kwargs):
            self.send(i, method, **kwargs)
        return [self.recv(i) for i in range(self.n_workers)]

    def push_weights(self, store) -> None:
        if self.export is None:
            raise RuntimeError("graphless pool has no weight export")
        self.export.push_weights(store)

    def pids(self) -> list:
        """Worker process ids (stable across graph patches — the whole
        point of the incremental path is that these never respawn)."""
        return [proc.pid for proc in self._procs]

    def reexport(self, compiled: CompiledFactorGraph, ops=None) -> None:
        """Move the pool onto a fresh export segment without respawning.

        Used when a patch outgrew the old segment's capacity slack (or a
        compaction invalidated the CSR snapshot): workers detach, attach
        the new segment, and keep their persistent chain states."""
        new_export = SharedGraphExport(compiled)
        spec = new_export.spec()
        self.broadcast(
            "graph_reattach",
            [{"spec": spec, "ops": ops} for _ in range(self.n_workers)],
        )
        old = self.export
        self.export = new_export
        # New segment is a clean baseline of the patched compilation:
        # respawns start from here, nothing left to replay.
        self._spec = spec
        self._patch_ops_log.clear()
        old.close()

    def graph_patch(self, compiled: CompiledFactorGraph, patch) -> None:
        """Ship one compiled patch to every worker (export already grown
        in place by the caller via ``export.apply_patch``)."""
        self._patch_ops_log.append(patch.ops)
        self.broadcast(
            "graph_patch", [{"ops": patch.ops} for _ in range(self.n_workers)]
        )

    def close(self) -> None:
        try:
            if hasattr(self, "_finalizer"):
                self._finalizer()
            else:
                _shutdown_pool(self._conns, self._procs)
        finally:
            if self.export is not None:
                self.export.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _shutdown_pool(conns, procs) -> None:
    for conn in conns:
        try:
            conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass


# --------------------------------------------------------------------- #
# Parallel chain ensembles
# --------------------------------------------------------------------- #


class ParallelChainEnsemble:
    """Independent Gibbs chains farmed round-robin to worker processes.

    All chains attach to one shared compilation; each keeps its own
    sampler state in its worker.  The ensemble advances in lock-step
    (:meth:`sweep_values` / :meth:`sweeps`) or in bulk
    (:meth:`sample_worlds`), which is how the convergence harness, the
    SGD chain pair and the materialization bundle use it.
    """

    def __init__(
        self,
        graph,
        num_chains: int,
        n_workers: int,
        seed=None,
        initial=None,
        compiled: CompiledFactorGraph | None = None,
        ctx=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        n_workers = min(n_workers, num_chains)
        self.graph = graph
        self.num_chains = num_chains
        self.compiled = compiled if compiled is not None else CompiledFactorGraph(graph)
        if self.compiled.has_patches:
            # Compact eagerly (the export would do it implicitly) so the
            # caller's compiled is never mutated mid-derivation.
            self.compiled.compact()
        self.pool = GibbsWorkerPool(self.compiled, n_workers, ctx=ctx)
        rng = as_generator(seed)
        chain_rngs = spawn(rng, num_chains)
        self._worker_of = [cid % n_workers for cid in range(num_chains)]
        self._chains_of = [
            [cid for cid in range(num_chains) if cid % n_workers == w]
            for w in range(n_workers)
        ]
        for cid in range(num_chains):
            self.pool.call(
                self._worker_of[cid],
                "chain_init",
                chain_id=cid,
                rng=chain_rngs[cid],
                initial=initial,
            )

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    def sweep_values(self, var: int) -> np.ndarray:
        """Advance every chain one sweep; return each chain's ``var``."""
        results = self.pool.broadcast(
            "chain_sweep_report",
            [
                {"chain_ids": chain_ids, "var": var}
                for chain_ids in self._chains_of
            ],
        )
        out = np.empty(self.num_chains, dtype=bool)
        for w, values in enumerate(results):
            out[self._chains_of[w]] = values
        return out

    def sweeps(self, num: int = 1) -> None:
        """Advance every chain ``num`` sweeps."""
        self.pool.broadcast(
            "chain_sweeps",
            [
                {"chain_ids": chain_ids, "num": num}
                for chain_ids in self._chains_of
            ],
        )

    def states(self) -> np.ndarray:
        """Stacked ``(num_chains, num_vars)`` current states."""
        results = self.pool.broadcast(
            "chain_states",
            [{"chain_ids": chain_ids} for chain_ids in self._chains_of],
        )
        out = np.empty((self.num_chains, self.graph.num_vars), dtype=bool)
        for w, stacked in enumerate(results):
            out[self._chains_of[w]] = stacked
        return out

    def sample_worlds_packed(
        self,
        num_samples: int | None = None,
        time_budget: float | None = None,
        thin: int = 1,
        burn_in: int = 0,
    ) -> tuple:
        """Fill a tuple bundle from all chains; returns (packed, count).

        With ``num_samples`` the quota is split evenly across chains.
        With ``time_budget`` the budget bounds **wall time**: a worker
        runs its chains sequentially, so the budget is divided by the
        number of chains each worker hosts (the paper's §3.3 best-effort
        policy).  One chain per worker maximises the harvest.
        """
        if num_samples is None and time_budget is None:
            raise ValueError("need num_samples or time_budget")
        if num_samples is not None:
            quotas = np.full(self.num_chains, num_samples // self.num_chains)
            quotas[: num_samples % self.num_chains] += 1
            method = "chain_sample_worlds"
        else:
            method = "chain_sample_for"
        packed_parts, total = [], 0
        # Fan out one request per chain, worker-major so every worker
        # starts its first chain immediately.
        pending = []
        for w, chain_ids in enumerate(self._chains_of):
            for cid in chain_ids:
                kwargs = {"chain_id": cid, "thin": thin, "burn_in": burn_in}
                if num_samples is not None:
                    kwargs["num_samples"] = int(quotas[cid])
                else:
                    kwargs["seconds"] = time_budget / len(chain_ids)
                self.pool.send(w, method, **kwargs)
                pending.append(w)
        for w in pending:
            packed, count = self.pool.recv(w)
            if count:
                packed_parts.append(packed)
                total += count
        if not packed_parts:
            return np.zeros((0, 0), dtype=np.uint8), 0
        return np.concatenate(packed_parts, axis=0), total

    def push_weights(self, store) -> None:
        self.pool.push_weights(store)

    def close(self) -> None:
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

