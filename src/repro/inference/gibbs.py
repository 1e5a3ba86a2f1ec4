"""Systematic-scan Gibbs sampling (the paper's inference workhorse, §2.5).

Each sweep visits every free variable once and resamples it from its
conditional.  The hot path runs over the flat-array compilation of
:mod:`repro.graph.compiled`: the scan goes colour class by colour class
(within windows of consecutive ids) of a colouring the substrate
maintains, so every block holds mutually factor-independent variables
and is resampled — conditionals and cache commit — in a handful of array
operations.  The order is fixed by the substrate, not by variable ids.
Evidence variables stay clamped, which is exactly how the E-step
("conditioned chain") of weight learning is run as well.

The draw contract.  A chain owns its generator: between construction and
``close()`` only the chain draws from it, and only in two places — one
uniform per free variable per sweep, in scan order (:func:`logit_rows`),
and one per appended variable when a patch grows the state
(``bias_init_values``, inside ``apply_patch``).  Because
``Generator.random(k·n)`` is the concatenation of ``k`` calls of
``random(n)`` and nothing else touches the generator between the sweeps
of one ``run`` / ``sample_worlds`` / ``estimate_marginals`` /
``iter_worlds`` call, such a call draws all its sweeps' uniforms — and
takes their logits — up front, in chunks of :data:`_DRAW_CHUNK` doubles,
and hands each :meth:`GibbsSampler.sweep` its row.  The chain state after
``run(k)`` is bit for bit the state after ``k`` calls of ``sweep()``, and
so is the generator's; a caller that shares one generator between a chain
and something else (``SampleMaterialization`` seeds its sampler and its
MH proposals from one stream) sees the same stream either way, as long as
it does not draw *during* one of those calls.  ``tests/reference/gibbs.py``
keeps the draw-per-sweep kernel; ``tests/test_sweep_kernel.py`` holds this
module to it.

Stacked chains.  A :class:`ChainStack` advances K chains over one
substrate in one kernel pass per plan key, and draws for them exactly as
they would for themselves: nobody but a member's own generator supplies
that member's uniforms.  ``ChainStack.sample_worlds`` draws each member's
rows for the *whole call*, member by member in member order — what K
``sample_worlds`` calls made one after the other draw, also when the
members share a generator (``SGDLearner`` seeds both its chains from one);
``ChainStack.sweep()`` draws one row per member in member order — what
``for chain in chains: chain.sweep()`` draws.  Every member's state,
caches and generator end where its own calls would leave them
(``tests/test_chain_stack.py``).  The price is the row buffer: a stacked
call holds all its members' rows until their sweep, O(K · sweeps · width)
doubles (one epoch — 10 sweeps — for the learner, one sweep for
``sweep()``), where a single chain holds a :data:`_DRAW_CHUNK` at a time.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.compiled import (
    CompiledFactorGraph,
    GibbsCache,
    StackedCache,
    StackedPlan,
    bias_init_values,
)
from repro.graph.factor_graph import FactorGraph
from repro.util.rng import as_generator


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


#: Doubles drawn at once by :func:`logit_rows` (≈ 1.5 MB of temporaries
#: per chunk, whatever samples × variables a call asks for).  Not a knob:
#: the rows are the same under any value.
_DRAW_CHUNK = 1 << 16


def _uniform_chunks(rng, width: int, count: int):
    """``count`` rows of ``width`` uniforms as ``(k, width)`` matrices,
    one ``rng.random`` call each, drawn when asked for."""
    per_chunk = max(1, _DRAW_CHUNK // max(width, 1))
    while count > 0:
        k = min(per_chunk, count)
        count -= k
        yield rng.random(k * width).reshape(k, width)


def _logit(u: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):  # u == 0 ⇒ −inf: always 1
        return np.log(u) - np.log1p(-u)


def logit_rows(rng, width: int, count: int):
    """Yield ``count`` rows of ``logit(u)``, ``u`` uniform, ``width`` wide.

    The randomness of ``count`` sweeps over ``width`` free variables,
    drawn in as few ``rng.random`` calls as :data:`_DRAW_CHUNK` allows:
    ``random(k·n)`` is the concatenation of ``k`` calls of ``random(n)``,
    and the logarithms are elementwise, so row ``i`` is bit for bit what
    sweep ``i`` would have drawn by itself and ``rng`` ends where
    ``count`` separate draws would leave it.  A chunk is drawn when its
    first row is asked for.
    """
    for u in _uniform_chunks(rng, width, count):
        yield from _logit(u)


def iter_worlds(sweep, rng, width: int, num_samples: int, thin: int = 1, burn_in: int = 0):
    """Drive ``sweep(logits)`` through ``burn_in`` sweeps, then yield after
    every ``thin`` more, ``num_samples`` times.

    All of the call's randomness comes from one :func:`logit_rows` stream
    over ``rng``.  Run it to its end — an abandoned iterator leaves
    ``rng`` past the sweeps that ran (by at most one chunk)."""
    rows = logit_rows(rng, width, burn_in + num_samples * thin)
    for _ in range(burn_in):
        sweep(next(rows))
    for _ in range(num_samples):
        for _ in range(thin):
            sweep(next(rows))
        yield


def sweep_blocks(cache, state, blocks, logits) -> None:
    """Resample every variable of ``blocks`` in scan order, in place.

    ``logits`` must hold ``logit(u)`` of one uniform draw ``u`` per
    variable (a row of :func:`logit_rows`), concatenated in block order.
    This is the sweep kernel of :class:`GibbsSampler` and of the
    :class:`ChainStack` built on it.  A draw ``u`` sets its variable to 1 iff ``u < σ(Δ)``,
    evaluated as ``logit(u) < Δ`` so no kernel exponentiates.
    """
    offset = 0
    for block in blocks:
        size = block.vars.size
        logit_u = logits[offset : offset + size]
        offset += size
        if block.use_batch:
            cache.commit_block(
                block, logit_u < cache.delta_energy_block(block, state), state
            )
        else:
            # One chain's cache yields itself; stacked chains take their
            # turns, each on its own view of the flat arrays.
            k = 0
            for part, part_state, vars_ in cache.scalar_parts(block, state):
                for var in vars_:
                    new_value = bool(logit_u[k] < part.delta_energy(var, part_state))
                    if new_value != bool(part_state[var]):
                        part.commit_flip(var, new_value, part_state)
                    k += 1


class GibbsSampler:
    """Markov-chain Gibbs sampler over a factor graph.

    Parameters
    ----------
    graph:
        Factor graph (or an already compiled view via ``compiled=``).
    seed:
        RNG seed / generator.
    initial:
        Optional starting world; defaults to random consistent with
        evidence.
    compiled:
        Optional shared :class:`CompiledFactorGraph`.  It may have been
        compiled from a *different* graph object as long as the factor
        structure is identical (e.g. the conditioned/free chain pair of
        SGD learning shares one compilation); the scan plan is derived
        from ``graph``'s own evidence.
    """

    def __init__(
        self,
        graph: FactorGraph,
        seed=None,
        initial=None,
        compiled: CompiledFactorGraph | None = None,
    ) -> None:
        self.graph = graph
        self.compiled = compiled if compiled is not None else CompiledFactorGraph(graph)
        self.plan = self.compiled.plan(graph)
        self.rng = as_generator(seed)
        if initial is None:
            self.state = graph.initial_assignment(self.rng)
        else:
            self.state = np.array(initial, dtype=bool)
            ev_vars, ev_vals = graph.evidence_arrays()
            self.state[ev_vars] = ev_vals
        self.cache = GibbsCache(self.compiled, self.state)
        self.sweeps_done = 0

    # ------------------------------------------------------------------ #

    def _grow_state(self, patch) -> None:
        """Append the patch's new variables to the chain state.

        New free variables are drawn from their bias-only conditional
        (``P(x=1) = σ(2·Σ w_bias)``); clamped new variables take their
        evidence values."""
        k = patch.num_new_vars
        if not k:
            return
        old_n = patch.old_num_vars
        new_vals = bias_init_values(
            k, old_n, patch.bias_add, self.compiled.graph.weights, self.rng
        )
        for var, val in patch.evidence_sets:
            if var >= old_n:
                new_vals[var - old_n] = val
        self.state = np.concatenate([self.state, new_vals])

    def apply_patch(self, patch, graph: FactorGraph | None = None) -> None:
        """Warm-start this chain across a compiled-graph patch.

        The assignment of surviving variables is kept (the paper's
        incremental-inference premise: ``Pr^∆`` is close to ``Pr⁰``, so a
        stationary state of the old chain is a near-stationary start for
        the new one); new variables are initialized from their bias and
        re-clamped evidence flows through the cache.

        ``graph`` overrides the post-patch graph this chain samples:
        pass a structure-identical twin with its own evidence (e.g. the
        evidence-free chain of SGD learning) to keep the chain's clamping
        independent of the compiled graph's — only evidence the override
        graph actually clamps is re-applied."""
        compiled = self.compiled
        self._grow_state(patch)
        self.graph = graph if graph is not None else compiled.graph
        clamps = [
            (var, val)
            for var, val in patch.evidence_sets
            if self.graph.evidence_value(var) is not None
        ]
        if patch.compacted:
            # Full recompaction invalidated blocks and caches: re-derive
            # them; the warm assignment is all that carries over.
            for var, val in clamps:
                self.state[var] = val
            self.plan = compiled.plan(self.graph)
            self.cache = GibbsCache(compiled, self.state)
            return
        self.cache.apply_patch(patch, self.state)
        self.plan = compiled.plan(self.graph)
        for var, val in clamps:
            if bool(self.state[var]) != val:
                self.cache.commit_flip(int(var), bool(val), self.state)

    # ------------------------------------------------------------------ #

    def sweep(self, logits=None) -> None:
        """One full pass over the free variables.

        ``logits`` is this sweep's row of :func:`logit_rows` when the
        caller drew several sweeps' randomness at once; by default the
        sweep draws its own."""
        cache = self.cache
        state = self.state
        cache.refresh_weights(state)
        if logits is None:
            (logits,) = logit_rows(self.rng, len(self.plan.free_vars), 1)
        sweep_blocks(cache, state, self.plan.blocks, logits)
        self.sweeps_done += 1

    def run(self, num_sweeps: int) -> np.ndarray:
        """Run ``num_sweeps`` sweeps; returns the final state (a view)."""
        for logits in logit_rows(self.rng, len(self.plan.free_vars), num_sweeps):
            self.sweep(logits)
        return self.state

    def iter_worlds(self, num_samples: int, thin: int = 1, burn_in: int = 0):
        """``burn_in`` sweeps, then yield the state after every ``thin``
        more, ``num_samples`` times (see :func:`iter_worlds`).

        The yielded array is the live chain state: copy (or pack) it
        before advancing."""
        width = len(self.plan.free_vars)
        for _ in iter_worlds(self.sweep, self.rng, width, num_samples, thin, burn_in):
            yield self.state

    def sample_worlds(self, num_samples: int, thin: int = 1, burn_in: int = 0) -> np.ndarray:
        """Collect ``num_samples`` worlds, one per ``thin`` sweeps.

        Returns a ``(num_samples, num_vars)`` boolean matrix — the "tuple
        bundle" stored by the sampling materialization approach (one bit
        per variable per sample, as in MCDB).
        """
        out = np.empty((num_samples, self.graph.num_vars), dtype=bool)
        for s, world in enumerate(self.iter_worlds(num_samples, thin, burn_in)):
            out[s] = world
        return out

    def estimate_marginals(
        self, num_samples: int, thin: int = 1, burn_in: int = 0
    ) -> np.ndarray:
        """Monte-Carlo marginal estimates P(X_v = 1)."""
        worlds = self.sample_worlds(num_samples, thin=thin, burn_in=burn_in)
        return worlds.mean(axis=0)

    def conditional_probability(self, var: int) -> float:
        """P(X_var = 1 | rest of current state) — exposed for tests."""
        return _sigmoid(self.cache.delta_energy(var, self.state))


class ChainStack(GibbsSampler):
    """K chains over one compiled substrate, advanced together: one block
    evaluation per plan key instead of one per key per chain.

    K chains over one substrate are one chain over K block-diagonal
    replicas of it (:class:`~repro.graph.compiled.StackedPlan`), so a
    stacked sweep is :meth:`GibbsSampler.sweep` — the same kernel, the
    same span — over the members' arrays laid end to end
    (:class:`~repro.graph.compiled.StackedCache`), and leaves every
    member where its own sweeps, from its own draws, would have.

    The members stay the only truth.  A call refreshes each member's
    weights, draws each member's rows from that member's generator (see
    the module's draw contract), gathers the members' ``state`` /
    ``field`` / ``unsat`` / ``nsat``, sweeps, writes them back in place
    and bumps each member's ``sweeps_done``; between calls nothing
    stacked is resident, so patching, snapshotting, scoring or pickling a
    member needs to know nothing of the stack.  Only ``plan`` is kept —
    derived, checked against the members' block lists at every call,
    rebuilt when a patch moved them, dropped by pickling.  ``sweep`` and
    ``sample_worlds`` are the whole surface: the rest of a chain's
    belongs to the members.
    """

    def __init__(self, members) -> None:
        self.members = tuple(members)
        if len({id(member.compiled) for member in self.members}) != 1:
            raise ValueError("a ChainStack's members share one compiled substrate")
        self.plan = None
        self.cache = self.state = None
        self.sweeps_done = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        state["plan"] = None
        return state

    def _draw(self, count: int) -> np.ndarray:
        """``count`` sweeps' logits in stacked-block order, ``(count, Σ
        widths)``: each member's uniforms from its own generator, one
        member after the other for the whole call; the logarithms —
        elementwise — are taken once over all of them."""
        plan = self.plan
        u = np.empty((count, plan.free_vars.size))
        at = 0
        for member, width in zip(self.members, plan.widths):
            row = 0
            for chunk in _uniform_chunks(member.rng, width, count):
                u[row : row + len(chunk), at : at + width] = chunk
                row += len(chunk)
            at += width
        return _logit(u[:, plan.logit_order])

    def _begin(self, count: int):
        """Open a call of ``count`` sweeps: bring the plan and the
        members' weights up to date, draw, gather.  Returns the rows."""
        members = self.members
        compiled = members[0].compiled
        plans = [member.plan for member in members]
        if self.plan is None or not self.plan.covers(compiled, plans):
            self.plan = StackedPlan(compiled, plans)
        for member in members:
            member.cache.refresh_weights(member.state)
        rows = self._draw(count)
        self.cache = StackedCache(
            [member.cache for member in members], [member.state for member in members]
        )
        self.state = self.cache.state
        self.sweeps_done = 0  # of this call
        return rows

    def _end(self) -> None:
        """Close the call: scatter, credit the members their sweeps."""
        self.cache.scatter()
        for member in self.members:
            member.sweeps_done += self.sweeps_done
        self.cache = self.state = None

    def sweep(self) -> None:
        """One sweep of every member (≡ ``for m in members: m.sweep()``)."""
        (row,) = self._begin(1)
        try:
            super().sweep(row)
        finally:
            self._end()

    def sample_worlds(self, num_samples: int, thin: int = 1, burn_in: int = 0) -> np.ndarray:
        """``members[k].sample_worlds(...)`` for every ``k``, as one
        ``(K, num_samples, num_vars)`` boolean array (≡ the K calls made
        one after the other)."""
        rows = iter(self._begin(burn_in + num_samples * thin))
        K, n = len(self.members), self.plan.shape[0]
        worlds = np.empty((K, num_samples, n), dtype=bool)
        try:
            for _ in range(burn_in):
                super().sweep(next(rows))
            for s in range(num_samples):
                for _ in range(thin):
                    super().sweep(next(rows))
                worlds[:, s] = self.state.reshape(K, n)
        finally:
            self._end()
        return worlds
