"""Flat-array (CSR) compiled factor graph and Gibbs kernels.

The dominant cost of Gibbs sampling is fetching, for each variable, the
factors it participates in (paper §3.2.3).  DeepDive's sampler is fast
because the grounded graph is compiled once into contiguous incidence
arrays that a tight loop can walk without object traffic.  This module
is the Python equivalent: :class:`CompiledFactorGraph` builds flat numpy
arrays from a :class:`~repro.graph.factor_graph.FactorGraph`'s factor
table (``graph.factor_table()``, the graph's one factor
representation), and :class:`GibbsCache`
evaluates conditionals against them.

Compiled layout (all arrays contiguous, ``n`` = number of variables):

========================  =====================================================
``bias_var/bias_wid``     one row per bias factor, grouped by variable
``ising_row/…``           one row per Ising incidence, grouped by owning
                          variable ``ising_row``: ``ising_other`` (neighbour
                          id) and ``ising_wid`` (weight id); each edge
                          appears twice, once per endpoint.
                          ``ising_indptr`` is its per-variable CSR offsets.
``rule_head/rule_wid/``   per rule factor (dense index ``ri``): head
``rule_sem``              variable, tied weight id, semantics int8 code
``grounding_ri``          grounding id ``gg`` → owning rule ``ri``
``lit_gg/lit_var/``       one row per body literal
``lit_pos``
``head_order/``           the rules grouped by head variable, and the
``head_indptr``           per-variable offsets into that order
``lit_order/``            the literals grouped by variable, and the
``lit_indptr``            per-variable offsets into that order
========================  =====================================================

The arrays are the substrate's one incidence representation.  A
variable's rows are the ones the last build grouped under it (the
offsets) followed by the ones appended since (found by owner in the
tail behind the offsets), tombstoned rows masked by the ``*_alive``
arrays — in ascending row order, so every per-variable sum a kernel
takes adds its terms in one fixed order.

State kept by :class:`GibbsCache` (one instance per sampler chain):

* ``field``  — float64[n], ``bias(v) + Σ_j w_vj · σ_j``; the full
  bias+Ising part of the conditional is ``2·field[v]``.
* ``unsat``  — int64[G], unsatisfied-literal count per grounding.
* ``nsat``   — int64[R], fully-satisfied grounding count per rule factor.

A variable that heads a rule it also appears under (an agreement rule
with no ``m ≠ m′`` guard grounds nothing else) stays on the one rule
path: its block carries only the body incidence, and the kernel uses the
closed form ``E(v=1) − E(v=0) = w·(g(n₁) + g(n₀))`` in place of
``w·sign(head)·(g(n₁) − g(n₀))``.  No grounding mentions a variable
twice: :func:`~repro.graph.delta.rule_table` canonicalizes every rule
column it builds, so every rule factor is on this one path.

Scan-order blocking: the substrate keeps a proper greedy colouring of
the variables over the shared-factor neighbour relation (``_color``, one
growable array beside ``var_patched``; evidence is coloured too, so
clamping never recolours).  :class:`SweepPlan` scans colour class by
colour class inside windows of consecutive ids: the free variables of one
colour in one window form a block, no two of them share a factor, so the
block is resampled — conditionals *and* cache commit — in a handful of
array operations, and a sweep is a few dozen numpy calls per few hundred
variables however the ids interleave.  That is a different, equally
valid, systematic-scan Gibbs chain from the id-order scan; the order is a
pure function of the substrate state (colours, solo flags), the evidence
mask and the window width, so it survives snapshots, pickling and
checkpoint restores and is the same whether a plan was built from scratch
or repaired.  Members of very large rule factors scan alone.

Incremental compilation: :meth:`CompiledFactorGraph.apply_delta` brings
the compiled view to ``graph ⊕ delta`` in place from a
:class:`~repro.graph.delta.FactorGraphDelta` instead of recompiling —
the paper's O(|Δ|) update promise carried down into the CSR substrate.
Arrays in, arrays out: the delta's new factors arrive as a
:class:`~repro.graph.delta.FactorTable`, which has this module's own
column layout (``bias_var/bias_wid``, ``ising_i/ising_j/ising_wid``,
``rule_head/rule_wid/rule_sem``, ``grounding_ri``,
``lit_gg/lit_var/lit_pos``, ids local to the table), so landing a delta
is offsetting its ids and appending its columns.  The patch protocol:

* **ops** — the delta becomes a picklable op dict: the table as it is
  (``add``) and, for the removed factor ids, the slots they resolve to
  through the factor-handle table (``bias_del``, ``ising_del``,
  ``rule_del``).  Cached scan plans read its evidence ops
  when they follow the patch;
* **decide, then land** — what the ops will touch (every variable that
  gains or loses an incidence; a removed rule finds its body in its
  literal range) is read off the arrays before anything mutates, and
  with it the patched density the delta will leave.  At or under the
  caller's ``compact_threshold`` the ops are *spliced*; over it a splice
  would be thrown away by the compaction behind it, so the live rows and
  the table's rows go through the array build (``_build``, which is also
  all ``__init__`` does with the source graph's table, and all
  ``compact`` does) once instead, and the patch is marked ``compacted``;
* **appends** (new variables, factors, groundings, literals) land at the
  end of the global incidence arrays, which are backed by
  amortized-doubling :class:`_Growable` buffers — each array is appended
  at most once per patch, whatever |Δ|;
* **retractions** tombstone their entries via ``*_alive`` masks (the
  entries stay in the arrays, masked out of every reader) until the next
  build;
* every variable that gains or loses an incidence is flagged in
  ``var_patched`` until the next build; nothing per-variable is stored
  beside the arrays, so nothing per-variable goes stale;
* touched variables that now share a colour with a neighbour — and
  appended variables — take the smallest colour their neighbours leave
  free; nothing else is recoloured.  A variable's neighbours are read
  off its live rows: the other ends of its Ising rows and the members
  of the rules of at most ``_BIG_FACTOR`` variables it heads or appears
  in.

Derived state is repaired, not rebuilt: :meth:`GibbsCache.apply_patch`
splices the ``field``/``unsat``/``nsat`` caches, :meth:`SweepPlan.apply_patch`
moves only the touched variables between blocks and gathers the blocks
it rebuilds in one pass — in *every* cached plan, whatever evidence it
was derived for (one for other evidence that nobody asked for since the
previous patch is dropped instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

import numpy as np

from repro.graph.delta import (
    KIND_BIAS,
    KIND_ISING,
    KIND_RULE,
    FactorTable,
    expand_ranges,
    gather_rules,
    rule_literals,
    rule_unit_energies,
)
from repro.graph.factor_graph import CompiledGraphView, FactorGraph
from repro.graph.semantics import g_table

#: Rule factors touching more variables than this force their members into
#: singleton blocks (avoids quadratic co-membership edges; such factors
#: couple everything anyway, so no block could contain two members).
_BIG_FACTOR = 32

#: Target variables per scan block.  The scan window of a compilation is
#: ``_CHUNK_CAP × #colours`` consecutive ids, so one colour class inside
#: one window holds about this many variables.  Measured on blocks cut
#: from the five KBC systems' full-program plans at scale 1.0 (evaluate
#: + commit under ``sweep_blocks``, fresh draws per repeat, best of three
#: rounds), evaluate + commit costs ≈ 25 µs + 0.1 µs per variable: 3.2 / 1.7 /
#: 0.89 / 0.50 / 0.30 / 0.18 / 0.15 µs per variable at 8 / 16 / 32 / 64 /
#: 128 / 256 / 488 (the last two from scale-4.0 plans) — past 256 the
#: fixed cost is no longer the larger half, while the price of rebuilding
#: a block a patch touched keeps growing with its size.
_CHUNK_CAP = 256

#: A scan block's key packs (id window, colour); a variable that scans
#: alone (member of an oversized factor) gets
#: (``_SOLO_WINDOW``, id), which sorts after every real window.
_SOLO_WINDOW = 1 << 20
_KEY_SHIFT = 40


def _smallest_free_color(used) -> int:
    color = 0
    while color in used:
        color += 1
    return color


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of ``n`` variables over incidence rows grouped by
    owning variable."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _owned_rows(members, where, owner, indptr, order=None) -> tuple:
    """Every row of the flat incidence column ``owner`` that one of the
    distinct variables ``members`` owns, as ``(position in members, row)``
    in ascending ``(position, row)`` order; ``where`` maps a variable to
    its position in ``members`` (−1 elsewhere).

    The rows the last build grouped by owner are read through its
    offsets ``indptr`` (into ``order``, or into the rows themselves when
    they are laid down grouped); the rows appended since sit in the tail
    behind them and are found by owner there.  Tombstones are the
    caller's to mask."""
    built = indptr.shape[0] - 1
    rows, pos = expand_ranges(
        indptr[np.minimum(members, built)], indptr[np.minimum(members + 1, built)]
    )
    if order is not None:
        rows = order[rows]
    start = int(indptr[-1])
    if owner.shape[0] > start:
        tail = where[owner[start:]]
        hit = np.flatnonzero(tail >= 0)
        if hit.size:
            # Built rows precede the tail: a stable sort by position keeps
            # each member's rows ascending.
            pos = np.concatenate([pos, tail[hit]])
            by = np.argsort(pos, kind="stable")
            pos, rows = pos[by], np.concatenate([rows, start + hit])[by]
    return pos, rows


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[0], b[0], a[1], b[1], …`` — the two incidence rows an Ising
    factor owns, in the order they are laid down."""
    out = np.empty(2 * a.shape[0], dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def _groups(keys: np.ndarray) -> tuple:
    """Stable grouping of rows by key: the sorting order and, per
    distinct key in ascending order, ``(key, lo, hi)`` — its slice of the
    sorted rows."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    lo = [0] + cuts if keys.size else cuts
    return order, zip(keys[lo].tolist(), lo, cuts + [keys.size])


def _rows(*columns) -> np.ndarray:
    """Parallel id columns as the rows of one ``(m, len(columns))``
    array."""
    rows = np.empty((columns[0].shape[0], len(columns)), dtype=np.int64)
    for k, column in enumerate(columns):
        rows[:, k] = column
    return rows


def _by_owner(rows: np.ndarray) -> tuple:
    """Stable order grouping incidence ``rows`` by owning variable, and
    the slot each row lands in."""
    order = np.argsort(rows, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(order.shape[0])
    return order, slot


def _segment_starts(owner: np.ndarray, ri: np.ndarray) -> np.ndarray:
    """Where the body segments — runs of one ``(owner, rule)`` pair —
    start in literals sorted by owner (stably, so by rule within)."""
    starts = np.ones(owner.shape[0], dtype=bool)
    starts[1:] = (owner[1:] != owner[:-1]) | (ri[1:] != ri[:-1])
    return np.flatnonzero(starts)


def _max_groundings(grounding_ri: np.ndarray) -> int:
    """The largest number of groundings one rule owns: the count
    :func:`~repro.graph.semantics.g_table` must reach."""
    return int(np.bincount(grounding_ri).max()) if grounding_ri.size else 0


def _rule_members(num_rules: int, head, lit_ri, lit_var, span: int) -> tuple:
    """Who a batch of rules couples: ``(ri, var, size)``, one row per
    distinct member (head and body, once each) sorted by rule, with the
    member count of the row's rule.  ``span`` exceeds every variable id."""
    member = np.unique(
        np.concatenate([np.arange(num_rules) * span + head, lit_ri * span + lit_var])
    )
    ri, var = np.divmod(member, span)
    return ri, var, np.bincount(ri, minlength=num_rules)[ri]


def _member_pairs(ri, var, size) -> tuple:
    """Every ordered pair ``(a, b)`` of distinct members of each rule of
    :func:`_rule_members` that couples its members pairwise: a rule of
    one variable couples nothing, and the members of one over
    ``_BIG_FACTOR`` variables scan alone instead."""
    paired = (size > 1) & (size <= _BIG_FACTOR)
    ri, var, size = ri[paired], var[paired], size[paired]
    # Members of one rule are consecutive: pair each with its rule's run.
    first = np.searchsorted(ri, ri, "left")
    b, a = expand_ranges(first, first + size)
    distinct = a != b
    return var[a[distinct]], var[b[distinct]]


class _Growable:
    """Amortized-doubling backing buffer behind one flat global array.

    The first buffer is the built array itself, which may be a column of
    the source graph's (immutable, possibly read-only) factor table: an
    append that grows reallocates first, so it is never written."""

    __slots__ = ("buf", "size")

    def __init__(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        self.buf = arr
        self.size = arr.shape[0]

    @property
    def view(self) -> np.ndarray:
        return self.buf[: self.size]

    def __reduce__(self):
        # Pickle the rows in use, not the spare capacity.
        return (_Growable, (self.view,))

    def append(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=self.buf.dtype)
        if not values.shape[0]:
            return self.view
        need = self.size + values.shape[0]
        if need > self.buf.shape[0]:
            cap = max(need, 2 * self.buf.shape[0], 8)
            grown = np.empty((cap,) + self.buf.shape[1:], dtype=self.buf.dtype)
            grown[: self.size] = self.view
            self.buf = grown
        self.buf[self.size : need] = values
        self.size = need
        return self.buf[:need]


#: Global flat arrays maintained under :meth:`CompiledFactorGraph.apply_delta`
#: (appends via amortized doubling).
_GROWABLE_NAMES = (
    "bias_var",
    "bias_wid",
    "bias_alive",
    "ising_row",
    "ising_other",
    "ising_wid",
    "ising_alive",
    "rule_head",
    "rule_wid",
    "rule_sem",
    "rule_alive",
    "grounding_ri",
    "lit_gg",
    "lit_var",
    "lit_pos",
    "evidence_mask",
    "var_patched",
    "_force_singleton",
    "_big_count",
    "_color",
)


def bias_init_values(num_new_vars, old_num_vars, bias_add, weights, rng):
    """Initial values for a patch's appended variables.

    Draws each new variable from its bias-only conditional
    ``P(x=1) = σ(2·Σ w_bias)`` — the warm-start initialization of a
    patched chain.  ``bias_add``
    holds the patch's ``(var, weight id)`` rows
    (:attr:`CompiledPatch.bias_add`).  Evidence clamps are the caller's
    job (they differ per consumer)."""
    k = int(num_new_vars)
    if not k:
        return np.zeros(0, dtype=bool)
    bias = np.zeros(k, dtype=np.float64)
    new = bias_add[bias_add[:, 0] >= old_num_vars]
    np.add.at(bias, new[:, 0] - old_num_vars, weights.values_array()[new[:, 1]])
    p = 1.0 / (1.0 + np.exp(-2.0 * np.clip(bias, -40.0, 40.0)))
    return rng.random(k) < p


def _no_rows(*shape) -> np.ndarray:
    rows = np.zeros(shape, dtype=np.int64)
    rows.flags.writeable = False
    return rows


_NO_IDS, _NO_PAIRS, _NO_TRIPLES = _no_rows(0), _no_rows(0, 2), _no_rows(0, 3)


@dataclass
class CompiledPatch:
    """What one :meth:`CompiledFactorGraph.apply_delta` call changed.

    Consumed by :meth:`GibbsCache.apply_patch` (cache splice), warm-started
    samplers (state growth + evidence re-clamp) and scan plans.  ``ops``
    is the op dict the patch was landed from.  Row arrays: ``bias_del``
    the tombstoned bias positions,
    ``ising_del`` the ``(k1, k2)`` incidence pairs of tombstoned edges,
    ``bias_add`` the appended ``(var, weight id)`` rows, ``ising_add``
    the appended ``(i, j, weight id)`` rows.  When ``compacted`` is set
    the compiled object was rebuilt instead of spliced (the delta took
    the patched density over the threshold) and holders must re-derive
    plans/caches; the header fields and ``bias_add`` still describe the
    delta.
    """

    ops: dict
    old_num_vars: int
    num_new_vars: int = 0
    old_num_rules: int = 0
    old_num_groundings: int = 0
    old_num_lits: int = 0
    old_num_ising: int = 0
    old_num_bias: int = 0
    dirty_vars: np.ndarray = None
    evidence_sets: list = _dc_field(default_factory=list)
    evidence_clears: list = _dc_field(default_factory=list)
    bias_del: np.ndarray = _dc_field(default_factory=lambda: _NO_IDS)
    ising_del: np.ndarray = _dc_field(default_factory=lambda: _NO_PAIRS)
    bias_add: np.ndarray = _dc_field(default_factory=lambda: _NO_PAIRS)
    ising_add: np.ndarray = _dc_field(default_factory=lambda: _NO_TRIPLES)
    compacted: bool = False

    @property
    def structural(self) -> bool:
        ops = self.ops
        return bool(
            self.num_new_vars
            or len(ops["add"])
            or len(ops["bias_del"])
            or len(ops["ising_del"])
            or len(ops["rule_del"])
        )


class CompiledFactorGraph:
    """Immutable flat-array incidence index over a :class:`FactorGraph`.

    The compiled view snapshots the *structure* only; weight values are
    re-read from ``graph.weights`` (an O(1) array view) whenever a
    :class:`GibbsCache` refreshes, so learning can update them without
    recompiling.
    """

    def __init__(self, graph: FactorGraph) -> None:
        table = graph.factor_table()
        table.check_ids(graph.num_vars, len(graph.weights))
        for var in graph.evidence:
            if not 0 <= var < graph.num_vars:
                raise ValueError(f"evidence on unknown variable {var}")
        self.graph = graph
        # ---- substrate-as-truth state ------------------------------------
        # Once deltas are applied directly (``apply_delta`` with no
        # materialized graph) this object is the single source of graph
        # truth: ``structure_version`` stamps structural patches, and
        # ``views_materialized`` counts whole-list gathers of the factor
        # table (``FactorGraph.from_compiled``, ``CompiledGraphView.factors``)
        # — the default update path must never trigger one.
        self.structure_version = 0
        self.views_materialized = 0
        self._build(table, graph.num_vars)

    def _build(self, table: FactorTable, num_vars: int) -> None:
        """Derive the whole compiled state from ``table``, the graph's
        factor list in list order, over ``num_vars`` variables.

        The one array build: :meth:`__init__` runs it on the source
        graph's table, :meth:`compact` on the live rows, and a delta that
        takes the patched density over the threshold on the live rows
        with the delta's rows behind them.  Everything a patch maintains
        incrementally is reset (tombstones, ``var_patched``, the tails
        behind the offsets, colours, cached plans); graph state — names,
        evidence, weights, the ``graph`` facade — is the caller's."""
        n = self.num_vars = num_vars
        F = len(table)

        # Per-factor handle table: factor index → compiled handle (bias /
        # Ising incidence positions, rule ri).  Kept aligned with the
        # factor list across apply_delta calls so removed factor ids
        # resolve to tombstones in O(1).
        fkind = table.kind
        fh1 = np.empty(F, dtype=np.int64)
        fh2 = np.full(F, -1, dtype=np.int64)
        R = self.num_rules = table.num_rules
        fh1[fkind == KIND_RULE] = np.arange(R)

        # ---- bias / Ising incidences, grouped by owning variable ---------
        order, slot = _by_owner(table.bias_var)
        self.bias_var = table.bias_var[order]
        self.bias_wid = table.bias_wid[order]
        fh1[fkind == KIND_BIAS] = slot

        rows = _interleave(table.ising_i, table.ising_j)
        order, slot = _by_owner(rows)
        self.ising_row = rows[order]
        self.ising_other = _interleave(table.ising_j, table.ising_i)[order]
        self.ising_wid = np.repeat(table.ising_wid, 2)[order]
        self.ising_indptr = _indptr(self.ising_row, n)
        fh1[fkind == KIND_ISING] = slot[0::2]
        fh2[fkind == KIND_ISING] = slot[1::2]
        self._fkind, self._fh1, self._fh2 = fkind, fh1, fh2

        # ---- rules -------------------------------------------------------
        self.rule_head = table.rule_head
        self.rule_wid = table.rule_wid
        self.rule_sem = table.rule_sem
        self.grounding_ri = table.grounding_ri
        self.num_groundings = self.grounding_ri.shape[0]
        self.rule_nmax = _max_groundings(self.grounding_ri)
        self.lit_gg, self.lit_var, self.lit_pos = (
            table.lit_gg, table.lit_var, table.lit_pos
        )
        # The per-variable offsets blocks gather through: rules by head,
        # literals by variable (each stably, so ascending within).
        self.head_order = np.argsort(self.rule_head, kind="stable")
        self.head_indptr = _indptr(self.rule_head, n)
        self.lit_order = np.argsort(self.lit_var, kind="stable")
        self.lit_indptr = _indptr(self.lit_var, n)

        # ---- evidence ----------------------------------------------------
        self.evidence_mask = self.graph.evidence_mask()
        self.free_vars = np.flatnonzero(~self.evidence_mask)

        # ---- block planning ----------------------------------------------
        # Members of oversized rule factors are forced into singleton
        # blocks; every other pair of variables sharing a factor is a
        # neighbour pair, used here once to colour and then dropped.
        ri, var, size = _rule_members(
            R, self.rule_head, table.lit_ri, self.lit_var, max(n, 1)
        )
        self._big_count = np.bincount(
            var[size > _BIG_FACTOR], minlength=n
        ).astype(np.int32)
        self._force_singleton = self._big_count > 0
        a, b = _member_pairs(ri, var, size)
        rows = np.concatenate([self.ising_row, a])
        others = np.concatenate([self.ising_other, b])
        # Greedy colouring in id order (evidence included, so clamping a
        # variable never recolours anything): only neighbours with a
        # smaller id are coloured when a variable's turn comes.  The
        # window width is fixed here and only changes at compaction.
        earlier = others < rows
        order = np.argsort(rows[earlier], kind="stable")
        ptr = _indptr(rows[earlier], n)
        nbr = others[earlier][order].tolist()
        color = [0] * n
        ptr_l = ptr.tolist()
        for var in np.flatnonzero(np.diff(ptr)).tolist():
            color[var] = _smallest_free_color(
                {color[o] for o in nbr[ptr_l[var] : ptr_l[var + 1]]}
            )
        self._color = np.asarray(color, dtype=np.int32)
        self._scan_window = _CHUNK_CAP * (max(color, default=0) + 1)

        self._plan_cache = {}

        # ---- incremental-compilation state -------------------------------
        # Tombstone masks and amortized-doubling buffers behind the
        # global arrays (see module docstring).
        self.bias_alive = np.ones(self.bias_wid.shape[0], dtype=bool)
        self.ising_alive = np.ones(self.ising_wid.shape[0], dtype=bool)
        self.rule_alive = np.ones(R, dtype=bool)
        self.var_patched = np.zeros(n, dtype=bool)
        self.num_live_rules = R
        self._patched = False

        self._grow = {}
        for name in _GROWABLE_NAMES:
            ga = _Growable(getattr(self, name))
            self._grow[name] = ga
            setattr(self, name, ga.view)

        # Per-weight live-factor counts (the gradient normalizer): built
        # once here, then adjusted per patch by the splice.
        self.weight_factor_counts = self._compute_weight_counts()

    def __getstate__(self):
        # The growable arrays travel once, inside ``_grow``.
        state = self.__dict__.copy()
        for name in _GROWABLE_NAMES:
            del state[name]
        return state

    def __setstate__(self, state):
        # numpy pickles a view as a detached copy, and in-place writes to
        # a detached mask (tombstones, ``var_patched``) would be lost at
        # the next append: re-derive the views from their buffers.
        self.__dict__.update(state)
        for name, ga in self._grow.items():
            setattr(self, name, ga.view)

    # ------------------------------------------------------------------ #

    @property
    def is_pairwise(self) -> bool:
        """True when the graph holds only (live) bias/Ising factors."""
        return self.num_live_rules == 0

    @property
    def has_patches(self) -> bool:
        """True when any apply_delta landed since the last compaction."""
        return self._patched

    @property
    def num_factors(self) -> int:
        """Live factor count — O(1) via the handle table."""
        return int(self._fkind.shape[0])

    @property
    def weights(self):
        """The weight store of truth (always the facade graph's store)."""
        return self.graph.weights

    @property
    def names(self) -> list:
        """The shared variable-name list (owned by the substrate)."""
        return self.graph._names

    @property
    def evidence_dict(self) -> dict:
        """The shared mutable evidence dict (owned by the substrate)."""
        return self.graph._evidence

    def factor_table(self, indices) -> FactorTable:
        """The factors at ``indices`` of the current factor list, in that
        order, gathered from the arrays."""
        indices = np.asarray(indices, dtype=np.int64)
        kind, h1 = self._fkind[indices], self._fh1[indices]
        bias, ising = h1[kind == KIND_BIAS], h1[kind == KIND_ISING]
        columns = gather_rules(self, h1[kind == KIND_RULE])
        columns.update(
            kind=kind,
            bias_var=self.bias_var[bias],
            bias_wid=self.bias_wid[bias],
            ising_i=self.ising_row[ising],
            ising_j=self.ising_other[ising],
            ising_wid=self.ising_wid[ising],
        )
        return FactorTable(**columns)

    def _live_table(self) -> FactorTable:
        """The whole current factor list."""
        return self.factor_table(np.arange(self.num_factors))

    # ------------------------------------------------------------------ #
    # Compiled gradient aggregation (learning hot path)
    # ------------------------------------------------------------------ #

    def _compute_weight_counts(self) -> np.ndarray:
        """Live-factor count per weight id, from the flat arrays."""
        W = len(self.graph.weights)
        counts = np.zeros(W, dtype=np.int64)
        if self.bias_wid.size:
            counts += np.bincount(
                self.bias_wid, weights=self.bias_alive.astype(np.float64), minlength=W
            ).astype(np.int64)[:W]
        if self.ising_wid.size:
            # Each Ising factor owns two incidence rows.
            twice = np.bincount(
                self.ising_wid, weights=self.ising_alive.astype(np.float64), minlength=W
            ).astype(np.int64)[:W]
            counts += twice // 2
        if self.num_rules:
            counts += np.bincount(
                self.rule_wid, weights=self.rule_alive.astype(np.float64), minlength=W
            ).astype(np.int64)[:W]
        return counts

    def _count_adjust(self, wids: np.ndarray, delta: int) -> None:
        """Add ``delta`` to the live-factor count of each of ``wids``."""
        counts = self.weight_factor_counts
        if not wids.size:
            return
        top = int(wids.max())
        if top >= counts.shape[0]:
            grown = np.zeros(
                max(top + 1, len(self.graph.weights)), dtype=np.int64
            )
            grown[: counts.shape[0]] = counts
            self.weight_factor_counts = counts = grown
        np.add.at(counts, wids, delta)

    def factor_counts_per_weight(self) -> np.ndarray:
        """Live factors tied to each weight (length ``len(graph.weights)``).

        The per-weight gradient normalizer; maintained incrementally by
        every patch so re-learning after a delta never walks the factor
        list."""
        W = len(self.graph.weights)
        counts = self.weight_factor_counts
        if counts.shape[0] < W:
            grown = np.zeros(W, dtype=np.int64)
            grown[: counts.shape[0]] = counts
            self.weight_factor_counts = counts = grown
        return counts[:W].astype(np.float64)

    def weight_statistics(self, worlds, counts=None) -> np.ndarray:
        """Mean unit-energy vector ``E[U_k]`` over ``worlds``, vectorised.

        The compiled equivalent of
        :func:`repro.learning.gradient.weight_statistics`: for each weight
        ``k`` the average over worlds of the summed unit energies
        (``σ_v``, ``σ_i·σ_j``, ``sign(head)·g(nsat)``) of the live factors
        tied to ``k``.  Batched over the whole ``(S, n)`` world matrix via
        the flat incidence arrays — no per-factor Python work.  Stays
        correct across :meth:`apply_delta`
        patches: appends land in the global arrays and retractions are
        masked by the ``*_alive`` tombstones.

        With ``counts`` the rows of ``worlds`` are consecutive sets of
        that many worlds (the conditioned and the free chain's, for the
        gradient) and the result has one row of statistics per set: the
        unit energies are evaluated once over all of them and each set's
        rows reduced by themselves, which is what a call per set returns.
        """
        worlds = np.asarray(worlds, dtype=bool)
        if worlds.ndim == 1:
            worlds = worlds[None, :]
        S, n = worlds.shape
        if n != self.num_vars:
            raise ValueError(
                f"worlds have {n} variables, compiled for {self.num_vars}"
            )
        sizes = np.array([S] if counts is None else counts, dtype=np.int64)
        if sizes.sum() != S:
            raise ValueError(f"counts {sizes.tolist()} do not add up to {S} worlds")
        bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
        sets = list(zip(bounds[:-1], bounds[1:]))
        W = len(self.graph.weights)
        totals = np.zeros((len(sets), W), dtype=np.float64)
        spins = np.where(worlds, 1.0, -1.0)

        def add(wids, rows, scale=1.0) -> None:
            """Per set: ``rows`` summed over its worlds, then per weight."""
            for k, (lo, hi) in enumerate(sets):
                contrib = rows[lo:hi].sum(axis=0)
                totals[k] += scale * np.bincount(wids, weights=contrib, minlength=W)[:W]

        if self.bias_wid.size:
            add(self.bias_wid, spins[:, self.bias_var] * self.bias_alive)
        if self.ising_wid.size:
            # Each edge appears twice (once per endpoint): halve the sum.
            add(
                self.ising_wid,
                spins[:, self.ising_row] * spins[:, self.ising_other] * self.ising_alive,
                scale=0.5,
            )
        if self.num_rules:
            unit = rule_unit_energies(
                worlds,
                self.rule_head,
                self.rule_sem,
                self.grounding_ri,
                self.lit_gg,
                self.lit_var,
                self.lit_pos,
            )
            add(self.rule_wid, unit * self.rule_alive)
        stats = totals / sizes[:, None]
        return stats[0] if counts is None else stats

    def plan(self, graph: FactorGraph | None = None) -> "SweepPlan":
        """The (cached) block-structured scan plan for ``graph``'s evidence.

        ``graph`` defaults to the compiled graph; passing another graph
        with identical factor structure but different evidence (e.g. the
        free chain of SGD learning) reuses this compilation with its own
        free-variable partition.  Plans scan at the compilation's own
        window and are cached by evidence.
        """
        target = graph if graph is not None else self.graph
        if target.num_vars != self.num_vars:
            raise ValueError(
                f"graph has {target.num_vars} variables, "
                f"compiled for {self.num_vars}"
            )
        key = tuple(sorted(target.evidence.items()))
        plan = self._plan_cache.get(key)
        if plan is None:
            # Always read the *current* evidence (never the compile-time
            # snapshot): evidence may have been set after compilation.
            plan = SweepPlan(self, target.evidence_mask(), self._scan_window)
            self._plan_cache[key] = plan
        plan.requested = True
        return plan

    def gather_block(self, vars_) -> "_Block":
        """Gather arrays over ``vars_`` (distinct variables, in the given
        order): what :meth:`GibbsCache.delta_energy_block` evaluates in
        one step.  Only a block whose members share no factor may also be
        committed as one."""
        (block,) = self.gather_blocks([vars_])
        return block

    def gather_blocks(self, groups) -> list:
        """:meth:`gather_block` of every group of ``groups`` (distinct
        variables across all of them), in one pass over the arrays."""
        return _gather_blocks(self, [np.asarray(g, dtype=np.int64) for g in groups])

    # ------------------------------------------------------------------ #
    # Incremental compilation
    # ------------------------------------------------------------------ #

    def _append(self, name: str, values) -> None:
        """Append rows to one growable global array (amortized doubling)."""
        setattr(self, name, self._grow[name].append(values))

    def _owned(self, members: np.ndarray) -> tuple:
        """The live incidence rows the distinct variables ``members`` own,
        each as ``(position in members, row)`` in ascending ``(position,
        row)`` order (:func:`_owned_rows`): Ising rows, rules headed and
        body literals."""
        where = np.full(self.num_vars, -1, dtype=np.int64)
        where[members] = np.arange(members.shape[0])
        pos, rows = _owned_rows(members, where, self.ising_row, self.ising_indptr)
        keep = self.ising_alive[rows]
        ising = pos[keep], rows[keep]
        pos, ris = _owned_rows(
            members, where, self.rule_head, self.head_indptr, self.head_order
        )
        keep = self.rule_alive[ris]
        heads = pos[keep], ris[keep]
        pos, lits = _owned_rows(
            members, where, self.lit_var, self.lit_indptr, self.lit_order
        )
        keep = self.rule_alive[self.grounding_ri[self.lit_gg[lits]]]
        return ising, heads, (pos[keep], lits[keep])

    def _neighbours(self, vars_: np.ndarray) -> list:
        """Per variable of the distinct ``vars_``, the set of variables it
        shares a live factor with: the other ends of its Ising rows and
        the other members of every rule of at most ``_BIG_FACTOR``
        variables it heads or appears in."""
        (pos, rows), (_, heads), (_, lits) = self._owned(vars_)
        rules = np.unique(
            np.concatenate([heads, self.grounding_ri[self.lit_gg[lits]]])
        )
        grounding_ri, body, lit_gg = rule_literals(self, rules)
        a, b = _member_pairs(
            *_rule_members(
                rules.shape[0],
                self.rule_head[rules],
                grounding_ri[lit_gg],
                self.lit_var[body],
                max(self.num_vars, 1),
            )
        )
        a = np.concatenate([vars_[pos], a])
        order, groups = _groups(a)
        others = np.concatenate([self.ising_other[rows], b])[order].tolist()
        found = {var: set(others[lo:hi]) for var, lo, hi in groups}
        return [found.get(var, set()) for var in vars_.tolist()]

    def _count_big(self, num_rules, head, lit_ri, lit_var, span, delta) -> None:
        """The members of the oversized ones of a batch of rules (see
        :func:`_rule_members`) joined (+1) or left (−1) one more."""
        _, var, size = _rule_members(num_rules, head, lit_ri, lit_var, span)
        members = var[size > _BIG_FACTOR]
        if members.size:
            np.add.at(self._big_count, members, delta)
            self._force_singleton[members] = self._big_count[members] > 0

    def _recolor(self, vars_sorted: np.ndarray) -> None:
        """Restore a proper colouring after a patch touched ``vars_sorted``.

        A touched variable keeps its colour unless a neighbour now holds
        the same one; otherwise it takes the smallest colour its
        neighbours leave free.  Both endpoints of every added factor are
        touched, so visiting them in id order repairs every new
        conflict."""
        color = self._color
        for v, neighbours in zip(vars_sorted.tolist(), self._neighbours(vars_sorted)):
            used = {int(color[o]) for o in neighbours}
            if color[v] < 0 or int(color[v]) in used:
                used.discard(-1)
                color[v] = _smallest_free_color(used)

    def _ops_from_delta(self, delta, removed: np.ndarray) -> dict:
        """A :class:`FactorGraphDelta` as a picklable patch-op dict.

        The delta's factor table goes in as it is (``add``); the removed
        factor ids (``removed``, checked and ascending) resolve through
        the handle table — which is compacted to the post-delta factor
        numbering here — to the positions to tombstone."""
        ops = {
            "num_new_vars": int(delta.num_new_vars),
            "var_names": list(delta.new_var_names),
            "evidence": {},
            "bias_del": _NO_IDS,
            "ising_del": _NO_PAIRS,
            "rule_del": _NO_IDS,
            "add": delta.new_factors.table,
        }
        if removed.size:
            kind, h1 = self._fkind[removed], self._fh1[removed]
            ising = kind == KIND_ISING
            ops.update(
                bias_del=h1[kind == KIND_BIAS],
                ising_del=_rows(h1[ising], self._fh2[removed][ising]),
                rule_del=h1[kind == KIND_RULE],
            )
            keep = np.ones(self._fkind.shape[0], dtype=bool)
            keep[removed] = False
            self._fkind = self._fkind[keep]
            self._fh1 = self._fh1[keep]
            self._fh2 = self._fh2[keep]
        for offset, val in delta.new_var_evidence.items():
            ops["evidence"][self.num_vars + int(offset)] = bool(val)
        for var, val in delta.evidence_updates.items():
            ops["evidence"][int(var)] = None if val is None else bool(val)
        return ops

    def apply_delta(self, delta, compact_threshold: float = 0.25) -> CompiledPatch:
        """Bring the compiled substrate to ``graph ⊕ delta``, in place.

        The substrate is the source of truth: new weights are interned
        into the shared store, the delta's factor table and the handle
        table give the patch ops, and ``self.graph`` becomes (or stays) a
        lazy :class:`~repro.graph.factor_graph.CompiledGraphView` — no
        materialized ``delta.apply`` graph is ever built.  Returns the
        :class:`CompiledPatch` that cache/plan/chain holders follow.

        The patched density the delta will leave (:meth:`patch_fraction`)
        is read off the ops before anything mutates.  At or under
        ``compact_threshold`` the ops are spliced into the arrays
        (O(|Δ|)); over it the splice would be thrown away by a
        compaction, so the live rows and the delta's rows go through the
        array build once instead and the patch is marked ``compacted``
        (amortized O(|graph|)).  A removed factor id outside the list
        raises ``ValueError`` before anything moves."""
        removed = delta.removed_ids(self.num_factors)
        for key, initial, fixed in delta.new_weight_entries:
            self.weights.intern(key, initial=initial, fixed=fixed)
        for wid, value in delta.changed_weight_values.items():
            self.weights.set_value(wid, value)
        ops = self._ops_from_delta(delta, removed)
        patch, doomed = self._survey(ops)
        if (
            compact_threshold is not None
            and self._fraction_after(patch) > compact_threshold
        ):
            return self._rebuild(patch)
        return self._splice(patch, doomed)

    def _survey(self, ops: dict) -> tuple:
        """What ``ops`` will change, read off the arrays — nothing
        mutates.  Returns the patch header (``dirty_vars``: every variable
        that gains or loses an incidence) and what the splice needs: the
        ``(rule position in rule_del, variable)`` rows of the body
        literals of the rules to remove (``None`` when there are none)."""
        add = ops["add"]
        n = self.num_vars + ops["num_new_vars"]
        patch = CompiledPatch(
            ops=ops,
            old_num_vars=self.num_vars,
            num_new_vars=ops["num_new_vars"],
            old_num_rules=self.num_rules,
            old_num_groundings=self.num_groundings,
            old_num_lits=self.lit_gg.shape[0],
            old_num_ising=self.ising_wid.shape[0],
            old_num_bias=self.bias_wid.shape[0],
            bias_del=ops["bias_del"],
            ising_del=ops["ising_del"],
            bias_add=_rows(add.bias_var, add.bias_wid),
            ising_add=_rows(add.ising_i, add.ising_j, add.ising_wid),
        )
        touched = [add.variables()]
        if patch.bias_del.size:
            touched.append(self.bias_var[patch.bias_del])
        if patch.ising_del.size:
            k1 = patch.ising_del[:, 0]
            touched += [self.ising_row[k1], self.ising_other[k1]]
        doomed = None
        if ops["rule_del"].size:
            # A removed rule finds its body in its literal range.
            grounding_ri, lits, lit_gg = rule_literals(self, ops["rule_del"])
            doomed = grounding_ri[lit_gg], self.lit_var[lits]
            touched += [self.rule_head[ops["rule_del"]], doomed[1]]
        patch.dirty_vars = dirty = np.unique(np.concatenate(touched))
        if dirty.size and not 0 <= dirty[0] <= dirty[-1] < n:
            add.check_ids(n, len(self.weights))
        return patch, doomed

    def _slot_counts(self) -> list:
        """``(live, slots)`` per kind of slot a retraction tombstones:
        bias incidences, Ising incidences, rules."""
        return [
            (np.count_nonzero(self.bias_alive), self.bias_alive.shape[0]),
            (np.count_nonzero(self.ising_alive), self.ising_alive.shape[0]),
            (self.num_live_rules, self.num_rules),
        ]

    @staticmethod
    def _density(patched_vars: int, num_vars: int, slot_counts) -> float:
        """Max over the patched share of the variables and the dead share
        of each kind of slot."""
        ratios = [float(patched_vars) / max(num_vars, 1)]
        ratios += [1.0 - live / slots for live, slots in slot_counts if slots]
        return max(ratios)

    def patch_fraction(self) -> float:
        """Max tombstone/patched density across the compiled state."""
        if not self._patched:
            return 0.0
        return self._density(
            np.count_nonzero(self.var_patched), self.num_vars, self._slot_counts()
        )

    def _fraction_after(self, patch: CompiledPatch) -> float:
        """:meth:`patch_fraction` as it will read once ``patch`` is in."""
        if not (self._patched or patch.structural):
            return 0.0
        ops = patch.ops
        added = (len(patch.bias_add), 2 * len(patch.ising_add), ops["add"].num_rules)
        removed = (len(patch.bias_del), 2 * len(patch.ising_del), len(ops["rule_del"]))
        dirty = patch.dirty_vars
        old = dirty[: np.searchsorted(dirty, patch.old_num_vars)]
        return self._density(
            np.count_nonzero(self.var_patched)
            + np.count_nonzero(~self.var_patched[old])
            + patch.num_new_vars,
            patch.old_num_vars + patch.num_new_vars,
            [
                (live - gone + new, slots + new)
                for (live, slots), gone, new in zip(self._slot_counts(), removed, added)
            ],
        )

    def _graph_follows(self, patch: CompiledPatch) -> None:
        """Bring the graph facade — variable count and names, evidence —
        in line with ``patch``, and list its evidence ops on it."""
        ops, k = patch.ops, patch.num_new_vars
        evidence = sorted(ops["evidence"].items())
        for var, val in evidence:
            if val is None:
                patch.evidence_clears.append(var)
            else:
                patch.evidence_sets.append((var, val))
        # Substrate-as-truth: extend the shared name list, write
        # evidence through the shared dict, and keep ``self.graph``
        # a lazy view over this substrate.  The source graph handed
        # to ``__init__`` shares names/evidence/weights with the
        # substrate from compile time on — compiling transfers
        # ownership of that state.
        graph = self.graph
        if not (isinstance(graph, CompiledGraphView) and graph.compiled is self):
            graph = CompiledGraphView(self)
        if k:
            new_names = list(ops.get("var_names") or [])
            new_names += [None] * (k - len(new_names))
            graph._names.extend(new_names[:k])
        for var, val in evidence:
            if val is None:
                graph.clear_evidence(var)
            else:
                graph.set_evidence(var, val)
        if graph is not self.graph:
            old = self.graph
            self.graph = graph
            # The old facade shares the evidence dict; drop its
            # (now stale) cached evidence arrays.
            if hasattr(old, "_evidence_arrays"):
                old._evidence_arrays = None

    def _rebuild(self, patch: CompiledPatch) -> CompiledPatch:
        """Land ``patch`` by building: the live rows (its removals are
        already out of the handle table) with the delta's rows behind
        them, through :meth:`_build`."""
        table = FactorTable.concat([self._live_table(), patch.ops["add"]])
        self.num_vars = patch.old_num_vars + patch.num_new_vars
        self._graph_follows(patch)
        self._build(table, self.num_vars)
        self.structure_version += 1
        patch.compacted = True
        return patch

    def compact(self) -> None:
        """Rebuild the compiled state from its live rows, in place
        (clears all tombstones).

        Object identity is preserved so long-lived holders keep working,
        but plans/blocks/caches derived before the compaction are invalid
        — holders must re-derive them (apply_delta signals this with
        ``CompiledPatch.compacted``)."""
        self._build(self._live_table(), self.num_vars)
        self.structure_version += 1

    def _splice(self, patch: CompiledPatch, doomed) -> CompiledPatch:
        """Land ``patch`` in the arrays: every growable array is appended
        at most once, the handle table is extended with one concatenate,
        and the solo flags and colours of the touched variables follow."""
        ops, add = patch.ops, patch.ops["add"]
        old_evidence = (
            tuple(sorted(self.graph.evidence.items())) if self._plan_cache else ()
        )
        n0, k = patch.old_num_vars, patch.num_new_vars
        dirty = patch.dirty_vars

        # ---- new variables ----------------------------------------------
        if k:
            self.num_vars = n0 + k
            self._append("evidence_mask", np.zeros(k, dtype=bool))
            self._append("var_patched", np.ones(k, dtype=bool))
            self._append("_force_singleton", np.zeros(k, dtype=bool))
            self._append("_big_count", np.zeros(k, dtype=np.int32))
            self._append("_color", np.full(k, -1, dtype=np.int32))
        self.var_patched[dirty] = True

        # ---- removals (tombstones) ---------------------------------------
        if patch.bias_del.size:
            self.bias_alive[patch.bias_del] = False
            self._count_adjust(self.bias_wid[patch.bias_del], -1)
        if patch.ising_del.size:
            self.ising_alive[patch.ising_del.ravel()] = False
            self._count_adjust(self.ising_wid[patch.ising_del[:, 0]], -1)
        if ops["rule_del"].size:
            ris = ops["rule_del"]
            self.rule_alive[ris] = False
            self.num_live_rules -= ris.shape[0]
            self._count_adjust(self.rule_wid[ris], -1)
            self._count_big(
                ris.shape[0], self.rule_head[ris], *doomed, self.num_vars, -1
            )

        # ---- additions ---------------------------------------------------
        handle = np.empty(len(add), dtype=np.int64)
        handle2 = np.full(len(add), -1, dtype=np.int64)
        kind = add.kind
        if add.bias_var.size:
            handle[kind == KIND_BIAS] = patch.old_num_bias + np.arange(
                add.bias_var.shape[0]
            )
            self._append("bias_var", add.bias_var)
            self._append("bias_wid", add.bias_wid)
            self._append("bias_alive", np.ones(add.bias_var.shape[0], dtype=bool))
            self._count_adjust(add.bias_wid, 1)
        if add.ising_i.size:
            k1 = patch.old_num_ising + 2 * np.arange(add.ising_i.shape[0])
            handle[kind == KIND_ISING] = k1
            handle2[kind == KIND_ISING] = k1 + 1
            self._append("ising_row", _interleave(add.ising_i, add.ising_j))
            self._append("ising_other", _interleave(add.ising_j, add.ising_i))
            self._append("ising_wid", np.repeat(add.ising_wid, 2))
            self._append("ising_alive", np.ones(2 * add.ising_i.shape[0], dtype=bool))
            self._count_adjust(add.ising_wid, 1)
        if add.num_rules:
            self._count_adjust(add.rule_wid, 1)
            handle[kind == KIND_RULE] = patch.old_num_rules + np.arange(add.num_rules)
            self._splice_rules(add, patch)

        if len(add):
            self._fkind = np.concatenate([self._fkind, kind])
            self._fh1 = np.concatenate([self._fh1, handle])
            self._fh2 = np.concatenate([self._fh2, handle2])

        # ---- evidence ----------------------------------------------------
        self._graph_follows(patch)
        self.evidence_mask[patch.evidence_clears] = False
        self.evidence_mask[[var for var, _ in patch.evidence_sets]] = True
        self.free_vars = np.flatnonzero(~self.evidence_mask)

        if patch.structural:
            self._patched = True
            self.structure_version += 1

        # ---- recolour, then repair every cached scan plan ----------------
        self._recolor(np.union1d(dirty, np.arange(n0, n0 + k)))
        # Plans keyed to the graph's own evidence follow its evidence ops
        # (and are re-keyed); plans for other evidence configurations
        # (e.g. a free learning chain) keep theirs, and are dropped —
        # rebuilt on demand — once a whole patch interval passes without
        # anybody asking for them, so a caller whose evidence keeps
        # changing cannot grow the cache.  Own plans go last so they win
        # a key collision.
        new_evidence = (
            tuple(sorted(self.graph.evidence.items()))
            if self._plan_cache and ops["evidence"]
            else old_evidence
        )
        cache = {}
        for evidence, plan in sorted(
            self._plan_cache.items(), key=lambda item: item[0] == old_evidence
        ):
            own = evidence == old_evidence
            if not (own or plan.requested):
                continue
            plan.requested = False
            plan.apply_patch(patch, follow_evidence=own)
            cache[new_evidence if own else evidence] = plan
        self._plan_cache = cache
        return patch

    def _splice_rules(self, rules: FactorTable, patch: CompiledPatch) -> None:
        """Append the rule rows of ``rules`` (ids local to the table)
        behind the existing ones."""
        R0, R = patch.old_num_rules, rules.num_rules
        G0 = patch.old_num_groundings
        self.num_rules = R0 + R
        self.num_live_rules += R
        self.num_groundings = G0 + rules.grounding_ri.shape[0]
        self._append("rule_head", rules.rule_head)
        self._append("rule_wid", rules.rule_wid)
        self._append("rule_sem", rules.rule_sem)
        self._append("rule_alive", np.ones(R, dtype=bool))
        self._append("grounding_ri", rules.grounding_ri + R0)
        self._append("lit_gg", rules.lit_gg + G0)
        self._append("lit_var", rules.lit_var)
        self._append("lit_pos", rules.lit_pos)
        self.rule_nmax = max(self.rule_nmax, _max_groundings(rules.grounding_ri))
        self._count_big(
            R, rules.rule_head, rules.lit_ri, rules.lit_var, self.num_vars, 1
        )

    # ------------------------------------------------------------------ #
    # Transactional snapshot/rollback (repro.reliability)
    # ------------------------------------------------------------------ #

    #: Growable arrays whose *existing* rows a patch mutates (tombstone
    #: flips, evidence writes, block-planning flags) — these need content
    #: copies; every other growable array is append-only and rolls back by
    #: truncation alone.
    _SNAP_MUTATED = (
        "bias_alive",
        "ising_alive",
        "rule_alive",
        "var_patched",
        "evidence_mask",
        "_force_singleton",
        "_big_count",
        "_color",
    )

    #: Arrays a patch never mutates in place (``compact`` replaces them
    #: wholesale) — captured and restored by reference.
    _SNAP_STATIC = (
        "ising_indptr",
        "head_order",
        "head_indptr",
        "lit_order",
        "lit_indptr",
    )

    #: Attributes a patch only ever *replaces* (never mutates in place) —
    #: captured and restored by reference.
    _SNAP_REFS = ("graph", "free_vars", "_fkind", "_fh1", "_fh2")

    _SNAP_SCALARS = (
        "num_vars",
        "num_rules",
        "num_groundings",
        "num_live_rules",
        "rule_nmax",
        "_patched",
        "_scan_window",
        "structure_version",
        "views_materialized",
    )

    def snapshot_state(self) -> dict:
        """Bounded pre-update snapshot for commit-or-rollback deltas.

        Captures exactly the state :meth:`apply_delta` (and a threshold
        :meth:`compact` it may trigger) can change: the growable buffers
        by (object, size) plus content copies of the in-place-mutated
        masks, the handle table and plan cache.  Appends never write
        inside a captured size and a build abandons the buffers rather
        than mutating them, so a capture — not only the latest — stays
        restorable until a restore to an earlier one discards the rows
        behind it.
        Must be taken *before* ``apply_delta`` runs (``_ops_from_delta``
        rewrites the handle table first).  Restoring recovers the exact
        pre-patch layout — same tombstones, same block objects,
        same float summation order — so a retried update is bit-identical
        to one applied to a never-failed engine.
        """
        return {
            "grow": self._grow,
            "sizes": {n: self._grow[n].size for n in _GROWABLE_NAMES},
            "mutated": {n: getattr(self, n).copy() for n in self._SNAP_MUTATED},
            "static": {n: getattr(self, n) for n in self._SNAP_STATIC},
            "refs": {n: getattr(self, n) for n in self._SNAP_REFS},
            "scalars": {n: getattr(self, n) for n in self._SNAP_SCALARS},
            "weight_factor_counts": self.weight_factor_counts.copy(),
            "plan_cache": {
                key: (plan, plan.snapshot_state())
                for key, plan in self._plan_cache.items()
            },
            # Substrate-owned graph state: direct deltas intern weights
            # and mutate the shared evidence dict / name list in place,
            # so all three roll back with the arrays.
            "weights_state": self.weights.snapshot_state(),
            "evidence": dict(self.graph._evidence)
            if hasattr(self.graph, "_evidence")
            else None,
            "names_len": len(self.graph._names)
            if hasattr(self.graph, "_names")
            else None,
            "used": False,
        }

    def restore_state(self, snap: dict) -> None:
        """Roll back to a :meth:`snapshot_state` capture (single use).

        Valid across any sequence of ``apply_delta`` calls since the
        capture, including ones that triggered a threshold compaction
        (the snapshot holds the pre-patch buffer objects, which a
        compaction abandons rather than mutates)."""
        if snap["used"]:
            raise RuntimeError("compiled snapshot already consumed")
        snap["used"] = True
        self._grow = snap["grow"]
        for name in _GROWABLE_NAMES:
            ga = self._grow[name]
            ga.size = snap["sizes"][name]
            setattr(self, name, ga.view)
        for name, saved in snap["mutated"].items():
            getattr(self, name)[:] = saved
        for name, saved in snap["static"].items():
            setattr(self, name, saved)
        for name, saved in snap["refs"].items():
            setattr(self, name, saved)
        for name, saved in snap["scalars"].items():
            setattr(self, name, saved)
        self.weight_factor_counts = snap["weight_factor_counts"]
        cache = {}
        for key, (plan, plan_snap) in snap["plan_cache"].items():
            plan.restore_state(plan_snap)
            cache[key] = plan
        self._plan_cache = cache
        # Substrate-owned graph state (the graph ref itself was already
        # restored above): weights, the shared evidence dict (restored in
        # place so every facade sharing it rolls back too), names.
        self.weights.restore_state(snap["weights_state"])
        if snap["evidence"] is not None:
            evidence = self.graph._evidence
            evidence.clear()
            evidence.update(snap["evidence"])
            self.graph._evidence_arrays = None
        if snap["names_len"] is not None:
            del self.graph._names[snap["names_len"] :]


class _Block:
    """Gather arrays of the kernel over one set of variables.

    In a scan plan the members are one colour class inside one id window
    (or a single variable that scans alone) and therefore share no
    factor: their conditionals evaluate — and their flips commit — in a
    handful of numpy calls.

    One row per live Ising incidence (``ising_*``), per live rule headed
    and not also appeared under (``head_*``), per live body literal
    (``body_*``) and per distinct (member, rule) body pair (``fseg_*``),
    member by member and in ascending row order within a member;
    ``*_seg`` / ``fseg_pos`` are member positions, ``*_var`` variable
    ids.  A pair's body rows are consecutive and start at
    ``fseg_start``.  ``fseg_self`` marks pairs whose rule the member
    itself heads (``None`` when there is none).  Built by
    :func:`_gather_blocks`.
    """

    __slots__ = (
        "vars",
        "key",
        "ising_seg",
        "ising_other",
        "ising_wid",
        "head_seg",
        "head_ri",
        "head_wid",
        "head_sem",
        "body_seg",
        "body_var",
        "body_gg",
        "body_pos",
        "body_ri",
        "fseg_start",
        "fseg_pos",
        "fseg_var",
        "fseg_ri",
        "fseg_wid",
        "fseg_sem",
        "fseg_head",
        "fseg_self",
    )

    def __init__(self, vars_, key, columns: dict) -> None:
        self.vars = vars_
        self.key = key
        for name, column in columns.items():
            setattr(self, name, column)


def _gather_blocks(compiled, groups, keys=None) -> list:
    """One :class:`_Block` per array of ``groups`` (distinct variables
    across all of them), gathered from the arrays in one pass: every
    member's rows are found at once and cut per block."""
    if not groups:
        return []
    keys = [None] * len(groups) if keys is None else keys
    sizes = np.array([group.size for group in groups], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    members = np.concatenate(groups)
    # Each member's position inside its own block.
    local = np.arange(members.size) - np.repeat(first, sizes)
    (ising_p, ising), (head_p, head_ri), (body_p, lits) = compiled._owned(members)
    body_gg = compiled.lit_gg[lits]
    body_ri = compiled.grounding_ri[body_gg]
    starts = _segment_starts(body_p, body_ri)
    fseg_p, fseg_ri = body_p[starts], body_ri[starts]
    # A member that heads a rule it appears under carries only the body
    # pair (closed form, see module docstring).
    if head_p.size and fseg_p.size:
        span = compiled.num_rules
        outside = ~np.isin(head_p * span + head_ri, fseg_p * span + fseg_ri)
        head_p, head_ri = head_p[outside], head_ri[outside]
    fseg_var = members[fseg_p]
    fseg_head = compiled.rule_head[fseg_ri]
    fseg_self = fseg_head == fseg_var
    cuts = {
        name: np.searchsorted(p, first).tolist() + [p.size]
        for name, p in (("ising", ising_p), ("head", head_p), ("body", body_p), ("fseg", fseg_p))
    }
    body_first = np.asarray(cuts["body"][:-1], dtype=np.int64)
    columns = {
        "ising": {
            "ising_seg": local[ising_p],
            "ising_other": compiled.ising_other[ising],
            "ising_wid": compiled.ising_wid[ising],
        },
        "head": {
            "head_seg": local[head_p],
            "head_ri": head_ri,
            "head_wid": compiled.rule_wid[head_ri],
            "head_sem": compiled.rule_sem[head_ri].astype(np.intp),
        },
        "body": {
            "body_seg": local[body_p],
            "body_var": members[body_p],
            "body_gg": body_gg,
            "body_pos": compiled.lit_pos[lits],
            "body_ri": body_ri,
        },
        "fseg": {
            # Each pair's first body row, counted from its block's first.
            "fseg_start": starts - np.repeat(body_first, np.diff(cuts["fseg"])),
            "fseg_pos": local[fseg_p],
            "fseg_var": fseg_var,
            "fseg_ri": fseg_ri,
            "fseg_wid": compiled.rule_wid[fseg_ri],
            "fseg_sem": compiled.rule_sem[fseg_ri].astype(np.intp),
            "fseg_head": fseg_head,
        },
    }
    selfs = np.concatenate(([0], np.cumsum(fseg_self))).tolist()
    blocks = []
    for b, (group, key) in enumerate(zip(groups, keys)):
        block = {}
        for kind, named in columns.items():
            lo, hi = cuts[kind][b], cuts[kind][b + 1]
            for name, column in named.items():
                block[name] = column[lo:hi]
        lo, hi = cuts["fseg"][b], cuts["fseg"][b + 1]
        block["fseg_self"] = fseg_self[lo:hi] if selfs[hi] > selfs[lo] else None
        blocks.append(_Block(group, key, block))
    return blocks


#: What each gather column of a member's block is shifted by when the
#: block joins a stacked one: the member's offset into the flat per-chain
#: state (``n`` variables, ``G`` groundings, ``R`` rules), its position in
#: the stacked block (``pos``), the body rows stacked before its own
#: (``row``) — or nothing: weights and the ``g`` table are shared.
_STACK_SHIFT = {
    "ising_seg": "pos",
    "ising_other": "n",
    "ising_wid": None,
    "head_seg": "pos",
    "head_ri": "R",
    "head_wid": None,
    "head_sem": None,
    "body_seg": "pos",
    "body_var": "n",
    "body_gg": "G",
    "body_pos": None,
    "body_ri": "R",
    "fseg_start": "row",
    "fseg_pos": "pos",
    "fseg_var": "n",
    "fseg_ri": "R",
    "fseg_wid": None,
    "fseg_sem": None,
    "fseg_head": "n",
}


class _StackedBlock(_Block):
    """The blocks of one plan key in K chains over one substrate, as one
    block of the chain over K block-diagonal replicas of it.

    ``members`` is ``[(k, block), …]`` in member order: the columns are
    the members' concatenated, each index that addresses per-chain state
    moved to member ``k``'s stretch of the flat arrays
    (:data:`_STACK_SHIFT`).  Replicas share no factor, so the members'
    variables are as independent of each other as of their own block
    mates, and every per-variable sum keeps its rows in the member's
    order: the kernel computes for each member the floats it computes
    for that member alone.
    """

    __slots__ = ()

    def __init__(self, compiled, members):
        n, G, R = compiled.num_vars, compiled.num_groundings, compiled.num_rules
        self.key = members[0][1].key
        self.vars = np.concatenate([block.vars + k * n for k, block in members])
        columns = {name: [] for name in _STACK_SHIFT}
        fseg_self = []
        pos = row = 0
        for k, block in members:
            shift = {None: 0, "n": k * n, "G": k * G, "R": k * R, "pos": pos, "row": row}
            for name, by in _STACK_SHIFT.items():
                column = getattr(block, name)
                columns[name].append(column + shift[by] if shift[by] else column)
            if block.fseg_self is None:
                fseg_self.append(np.zeros(block.fseg_ri.size, dtype=bool))
            else:
                fseg_self.append(block.fseg_self)
            pos += block.vars.size
            row += block.body_gg.size
        for name, parts in columns.items():
            setattr(self, name, np.concatenate(parts))
        fseg_self = np.concatenate(fseg_self)
        self.fseg_self = fseg_self if fseg_self.any() else None


class SweepPlan:
    """Colour-class scan over the free variables of one evidence mask.

    A pure function of the substrate's colouring and solo flags, the
    evidence mask and the window width: the free variables of one colour
    inside one window of ``window`` consecutive ids form a block (no two
    share a factor, so resampling them at once is one valid systematic
    scan step), and a variable of an oversized factor scans alone.  Blocks run window by window, colour by colour inside each,
    solo blocks last; a patch moves only the variables it touched, so
    every other block object, and the scan order, survives.
    """

    def __init__(self, compiled: CompiledFactorGraph, evidence_mask, window: int) -> None:
        self.compiled = compiled
        self.window = window
        self.evidence_mask = np.asarray(evidence_mask, dtype=bool).copy()
        self.free_vars = np.flatnonzero(~self.evidence_mask)
        #: Asked for (``CompiledFactorGraph.plan``) since the last patch.
        self.requested = True
        keys = self._keys(self.free_vars)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        groups = np.split(self.free_vars[order], starts[1:]) if starts.size else []
        self.blocks = _gather_blocks(compiled, groups, keys[starts].tolist())
        self._index_blocks()

    def _keys(self, vars_) -> np.ndarray:
        """Block key of each variable: (id window, colour), or (solo, id)."""
        c = self.compiled
        return np.where(
            c._force_singleton[vars_],
            (_SOLO_WINDOW << _KEY_SHIFT) | vars_,
            ((vars_ // self.window) << _KEY_SHIFT) | c._color[vars_],
        )

    def _index_blocks(self) -> None:
        """(Re)build the var → block-position map."""
        self._block_of = np.full(self.compiled.num_vars, -1, dtype=np.int64)
        for bi, block in enumerate(self.blocks):
            self._block_of[block.vars] = bi

    def apply_patch(self, patch: CompiledPatch, follow_evidence: bool = True) -> None:
        """Re-plan only the blocks a compiled patch touched, in place.

        Every variable whose incidence, colour, solo flag or clamping
        changed leaves its block and joins the one its key now names;
        blocks that lost, gained or kept such a variable are rebuilt
        (fresh gather arrays, all gathered in one pass), every other
        block object survives.  With
        ``follow_evidence=False`` the patch's evidence ops are ignored
        (a plan pinned to its own evidence) and appended variables are
        free."""
        old_n = patch.old_num_vars
        k = patch.num_new_vars
        mask = self.evidence_mask
        if k:
            mask = np.concatenate([mask, np.zeros(k, dtype=bool)])
        touched = set(patch.dirty_vars.tolist())
        touched.update(range(old_n, old_n + k))
        if follow_evidence:
            for var, val in patch.ops["evidence"].items():
                mask[int(var)] = val is not None
                touched.add(int(var))
        self.evidence_mask = mask
        if not touched:
            return

        by_key = {block.key: block for block in self.blocks}
        members = {}
        touched = np.fromiter(sorted(touched), dtype=np.int64, count=len(touched))
        for v, key in zip(touched.tolist(), self._keys(touched).tolist()):
            if v < old_n and self._block_of[v] >= 0:
                old = self.blocks[self._block_of[v]]
                members.setdefault(old.key, set(old.vars.tolist())).discard(v)
            if not mask[v]:
                if key not in members:
                    block = by_key.get(key)
                    members[key] = set(block.vars.tolist()) if block else set()
                members[key].add(v)
        rebuilt = [key for key, vars_ in members.items() if vars_]
        for key in members.keys() - set(rebuilt):
            del by_key[key]
        groups = [
            np.fromiter(sorted(members[key]), dtype=np.int64, count=len(members[key]))
            for key in rebuilt
        ]
        by_key.update(
            (block.key, block)
            for block in _gather_blocks(self.compiled, groups, rebuilt)
        )
        self.blocks = [by_key[key] for key in sorted(by_key)]
        self.free_vars = np.flatnonzero(~mask)
        self._index_blocks()

    def snapshot_state(self) -> dict:
        """Capture the mutable plan state for transactional rollback.

        Surviving :class:`_Block` objects are never mutated by
        :meth:`apply_patch`, so the block list is captured shallowly;
        ``evidence_mask`` is copied because a var-count-preserving patch
        writes it in place."""
        return {
            "evidence_mask": self.evidence_mask.copy(),
            "free_vars": self.free_vars,
            "blocks": list(self.blocks),
            "block_of": self._block_of,
        }

    def restore_state(self, snap: dict) -> None:
        self.evidence_mask = snap["evidence_mask"]
        self.free_vars = snap["free_vars"]
        self.blocks = snap["blocks"]
        self._block_of = snap["block_of"]
        self.requested = True

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


class StackedPlan:
    """K scan plans over one substrate as the scan plan of one chain over
    K block-diagonal replicas of it.

    A plan's block keys — (id window, substrate colour) or (solo, id) —
    do not depend on its evidence, and its blocks are sorted by key: the
    union of the members' keys, in sorted order, visits every member's
    variables in that member's own scan order.  Stacked block ``i`` holds
    the members' blocks of key ``i`` (:class:`_StackedBlock`), so K
    chains advance in one block evaluation per key instead of one per
    key per chain.

    Derived data only: ``blocks``; ``free_vars`` (the members', each
    moved to its stretch of the flat state); ``widths`` (free variables
    per member — what each draws per sweep) and ``logit_order``, the
    permutation that takes the members' logit rows, laid end to end in
    member order, to stacked-block order.  :meth:`covers` says whether
    it still describes its members; rebuild it when it does not.
    """

    def __init__(self, compiled: CompiledFactorGraph, plans) -> None:
        self.compiled = compiled
        self.shape = (compiled.num_vars, compiled.num_groundings, compiled.num_rules)
        # References, not copies: valid while every member still scans
        # these very block objects (a patch rebuilds the blocks it touches).
        self.member_blocks = [list(plan.blocks) for plan in plans]
        self.widths = [plan.free_vars.size for plan in plans]
        n = compiled.num_vars
        self.free_vars = np.concatenate(
            [plan.free_vars + k * n for k, plan in enumerate(plans)]
        )
        by_key: dict = {}
        at = 0  # where the block's logits start in the members' rows, end to end
        for k, blocks in enumerate(self.member_blocks):
            for block in blocks:
                by_key.setdefault(block.key, []).append((k, block, at))
                at += block.vars.size
        self.blocks = []
        order = [np.zeros(0, dtype=np.int64)]
        for key in sorted(by_key):
            members = by_key[key]
            self.blocks.append(
                _StackedBlock(compiled, [(k, block) for k, block, _ in members])
            )
            order.extend(
                np.arange(at, at + block.vars.size) for _, block, at in members
            )
        self.logit_order = np.concatenate(order)

    def covers(self, compiled: CompiledFactorGraph, plans) -> bool:
        """Whether this is still the stack of ``plans`` over ``compiled``:
        same substrate, same (n, G, R) — the member offsets — and every
        member's block list holding the same block objects."""
        return (
            compiled is self.compiled
            and self.shape
            == (compiled.num_vars, compiled.num_groundings, compiled.num_rules)
            and len(plans) == len(self.member_blocks)
            and all(
                len(plan.blocks) == len(blocks)
                and all(a is b for a, b in zip(plan.blocks, blocks))
                for plan, blocks in zip(plans, self.member_blocks)
            )
        )


class GibbsCache:
    """Mutable sampler state tied to one assignment.

    Keeps ``field`` (bias + Ising local field per variable), ``unsat``
    (unsatisfied-literal count per grounding) and ``nsat`` (satisfied
    grounding count per rule factor) in sync with the assignment: the one
    kernel evaluates a block's conditionals from them
    (:meth:`delta_energy_block`) and commits its new values into them
    (:meth:`commit_block`).  ``refresh_weights`` re-snapshots the weight
    vector (an O(1) view of the store) and rebuilds the field; samplers
    call it once per sweep so learning updates land without per-incidence
    ``weights.value()`` calls.
    """

    def __init__(self, compiled: CompiledFactorGraph, assignment: np.ndarray) -> None:
        self.compiled = compiled
        self._weights_version = None
        self._init_rule_state(assignment)
        self.refresh_weights(assignment)

    def _init_rule_state(self, assignment) -> None:
        c = self.compiled
        if c.lit_gg.size:
            mismatch = (
                np.asarray(assignment, dtype=bool)[c.lit_var] != c.lit_pos
            ).astype(np.float64)
            self.unsat = np.bincount(
                c.lit_gg, weights=mismatch, minlength=c.num_groundings
            ).astype(np.int64)
        else:
            self.unsat = np.zeros(c.num_groundings, dtype=np.int64)
        if c.num_groundings:
            self.nsat = np.bincount(
                c.grounding_ri,
                weights=(self.unsat == 0).astype(np.float64),
                minlength=c.num_rules,
            ).astype(np.int64)
        else:
            self.nsat = np.zeros(c.num_rules, dtype=np.int64)

    def refresh_weights(self, assignment) -> None:
        """Re-snapshot weights and rebuild the bias+Ising local field.

        A no-op when the weight store has not been mutated since the last
        refresh (the field is maintained incrementally by
        :meth:`commit_block`), so sweeping with static weights pays
        nothing; learning pays one rebuild per weight update.
        """
        c = self.compiled
        version = c.graph.weights.version
        if version == self._weights_version:
            return
        self._weights_version = version
        w = np.asarray(c.graph.weights.values_array(), dtype=np.float64)
        self.weights_vec = w
        n = c.num_vars
        if c.bias_wid.size:
            # Tombstoned incidences contribute nothing (alive multiply).
            field = np.bincount(
                c.bias_var, weights=w[c.bias_wid] * c.bias_alive, minlength=n
            )
        else:
            field = np.zeros(n, dtype=np.float64)
        if c.ising_wid.size:
            self._edge_w = w[c.ising_wid] * c.ising_alive
            spins = np.where(np.asarray(assignment, dtype=bool), 1.0, -1.0)
            field = field + np.bincount(
                c.ising_row,
                weights=self._edge_w * spins[c.ising_other],
                minlength=n,
            )
        else:
            self._edge_w = np.zeros(0, dtype=np.float64)
        self.field = field

    # ------------------------------------------------------------------ #
    # Kernel
    # ------------------------------------------------------------------ #

    def delta_energy_block(self, block: _Block, assignment: np.ndarray) -> np.ndarray:
        """``E(x | x_v=1) − E(x | x_v=0)`` for every variable ``v`` of a
        block at once: the logit of its Gibbs conditional.

        Per body pair, setting the member to its current value leaves the
        rule's satisfied count at ``nsat``; flipping it moves the count by
        +1 for each grounding whose only unsatisfied literal is the
        member's and by −1 for each satisfied grounding it sits in.  The
        counts stay integers (a pair's steps are summed by ``reduceat``
        over its run of body rows) and index the ``g`` table."""
        V = block.vars
        delta = 2.0 * self.field[V]
        w = self.weights_vec
        G = g_table(self.compiled.rule_nmax)
        if block.head_ri.size:
            g = G[block.head_sem, self.nsat[block.head_ri]]
            delta += np.bincount(
                block.head_seg,
                weights=2.0 * w[block.head_wid] * g,
                minlength=V.size,
            )
        if block.body_gg.size:
            mismatch = block.body_pos != assignment[block.body_var]
            only_mine = self.unsat[block.body_gg] == mismatch
            now = self.nsat[block.fseg_ri]
            flipped = now + np.add.reduceat(
                np.where(mismatch, 1, -1) * only_mine, block.fseg_start
            )
            g_now = G[block.fseg_sem, now]
            g_flipped = G[block.fseg_sem, flipped]
            current = assignment[block.fseg_var]
            # E(1) − E(0) = ±sign(head)·(g(flipped) − g(now)), + when the
            # member is currently 0; a member that heads the rule itself
            # contributes w·(g(n₁) + g(n₀)) whichever value it holds.
            toward_one = assignment[block.fseg_head] != current
            unit = np.where(toward_one, g_flipped - g_now, g_now - g_flipped)
            if block.fseg_self is not None:
                unit = np.where(block.fseg_self, g_now + g_flipped, unit)
            delta += np.bincount(
                block.fseg_pos, weights=w[block.fseg_wid] * unit, minlength=V.size
            )
        return delta

    def commit_block(self, block: _Block, new_values, assignment: np.ndarray) -> None:
        """Set a block's variables to ``new_values``, caches too.

        One vectorised commit from the block's own gather arrays: block
        members share no factor, so the groundings they touch are
        disjoint and the ``unsat`` scatter is collision-free; several
        members may neighbour one variable or flip several groundings of
        one rule, so ``field``/``nsat`` accumulate through ``np.add.at``."""
        V = block.vars
        changed = new_values != assignment[V]
        if not changed.any():
            return
        assignment[V] = new_values
        if block.ising_seg.size:
            rows = changed[block.ising_seg]
            np.add.at(
                self.field,
                block.ising_other[rows],
                self.weights_vec[block.ising_wid[rows]]
                * np.where(new_values[block.ising_seg[rows]], 2.0, -2.0),
            )
        if block.body_gg.size:
            rows = changed[block.body_seg]
            gg = block.body_gg[rows]
            before = self.unsat[gg]
            # A literal whose polarity is the member's new value just
            # became satisfied; every other literal of a flipped member
            # just stopped being.
            after = before + np.where(
                block.body_pos[rows] == assignment[block.body_var[rows]], -1, 1
            )
            self.unsat[gg] = after
            np.add.at(
                self.nsat,
                block.body_ri[rows],
                (after == 0).astype(np.int64) - (before == 0),
            )

    # ------------------------------------------------------------------ #
    # Incremental repair
    # ------------------------------------------------------------------ #

    def apply_patch(self, patch: CompiledPatch, assignment: np.ndarray) -> None:
        """Splice the caches to match a compiled patch, in O(|Δ|).

        ``assignment`` must already be grown to the new variable count,
        with the new variables holding their initial values and *old*
        variables untouched (evidence re-clamps go through
        :meth:`commit_block` afterwards, so the caches follow).  Tombstoned
        rules/groundings keep their (now unread) cache entries; new
        groundings get theirs from the appended literal slices."""
        c = self.compiled
        if patch.compacted:
            raise RuntimeError("compacted patch: rebuild the cache instead")
        assignment = np.asarray(assignment, dtype=bool)
        if assignment.shape[0] != c.num_vars:
            raise ValueError(
                f"assignment has {assignment.shape[0]} vars, compiled has {c.num_vars}"
            )

        # ---- unsat / nsat for appended groundings and rules --------------
        new_g = c.num_groundings - patch.old_num_groundings
        new_r = c.num_rules - patch.old_num_rules
        if new_g or new_r:
            lit_gg = c.lit_gg[patch.old_num_lits :]
            lit_var = c.lit_var[patch.old_num_lits :]
            lit_pos = c.lit_pos[patch.old_num_lits :]
            mismatch = (assignment[lit_var] != lit_pos).astype(np.float64)
            new_unsat = np.bincount(
                lit_gg - patch.old_num_groundings, weights=mismatch, minlength=new_g
            ).astype(np.int64)
            self.unsat = np.concatenate([self.unsat, new_unsat])
            new_nsat = np.bincount(
                c.grounding_ri[patch.old_num_groundings :] - patch.old_num_rules,
                weights=(new_unsat == 0).astype(np.float64),
                minlength=new_r,
            ).astype(np.int64)
            self.nsat = np.concatenate([self.nsat, new_nsat])

        # ---- field -------------------------------------------------------
        k = patch.num_new_vars
        version = c.graph.weights.version
        if version != self._weights_version:
            # Weight values changed too: the version-gated full rebuild
            # (alive-masked) reconstructs the field wholesale.
            if k:
                self.field = np.concatenate([self.field, np.zeros(k)])
            self._weights_version = None
            self.refresh_weights(assignment)
            return
        w = np.asarray(c.graph.weights.values_array(), dtype=np.float64)
        self.weights_vec = w
        if k:
            self.field = np.concatenate([self.field, np.zeros(k)])
        field = self.field

        def spin(vars_):
            return np.where(assignment[vars_], 1.0, -1.0)

        # Row by row in patch order (``ufunc.at`` is unbuffered), an
        # edge's two endpoints one after the other: the float sums come
        # out as a loop over the factors would leave them.
        if patch.ising_del.size:
            pairs = patch.ising_del.ravel()
            np.subtract.at(
                field,
                c.ising_row[pairs],
                self._edge_w[pairs] * spin(c.ising_other[pairs]),
            )
            self._edge_w[pairs] = 0.0
        np.subtract.at(field, c.bias_var[patch.bias_del], w[c.bias_wid[patch.bias_del]])
        np.add.at(field, patch.bias_add[:, 0], w[patch.bias_add[:, 1]])
        old_i = patch.old_num_ising
        if c.ising_wid.shape[0] > old_i:
            self._edge_w = np.concatenate(
                [self._edge_w, w[c.ising_wid[old_i:]]]
            )
        i, j, wid = patch.ising_add.T
        np.add.at(
            field, _interleave(i, j), np.repeat(w[wid], 2) * spin(_interleave(j, i))
        )

    # ------------------------------------------------------------------ #

    def check_consistency(self, assignment: np.ndarray) -> None:
        """Recompute all caches from scratch and compare (test helper).

        Tombstoned groundings/rules are excluded: their cache entries are
        deliberately frozen (no kernel reads them), so only live entries
        must agree with a from-scratch rebuild."""
        c = self.compiled
        fresh = GibbsCache(c, assignment)
        galive = (
            c.rule_alive[c.grounding_ri]
            if c.num_groundings
            else np.zeros(0, dtype=bool)
        )
        if not np.array_equal(fresh.unsat[galive], self.unsat[galive]):
            raise AssertionError("GibbsCache.unsat disagrees with the assignment")
        if not np.array_equal(
            fresh.nsat[c.rule_alive], self.nsat[c.rule_alive]
        ):
            raise AssertionError("GibbsCache.nsat disagrees with the assignment")
        if not np.allclose(fresh.field, self.field, rtol=1e-9, atol=1e-9):
            raise AssertionError("GibbsCache.field disagrees with the assignment")


class StackedCache(GibbsCache):
    """The caches and assignments of K chains over one substrate, laid
    end to end: what the kernels read and write while the chains advance
    as one over a :class:`StackedPlan`.

    ``field`` / ``unsat`` / ``nsat`` and ``state`` are the members'
    concatenated (member ``k`` at ``k·n`` / ``k·G`` / ``k·R`` / ``k·n``),
    which is where a :class:`_StackedBlock`'s shifted indices point, so
    ``delta_energy_block`` and ``commit_block`` run unchanged.  A
    per-call object: the members' caches must be current with the weight
    store before they are gathered, and nothing is theirs again until
    :meth:`scatter`.
    """

    def __init__(self, caches, states) -> None:
        first = caches[0]
        c = self.compiled = first.compiled
        self.weights_vec = first.weights_vec
        self.field = np.concatenate([cache.field for cache in caches])
        self.unsat = np.concatenate([cache.unsat for cache in caches])
        self.nsat = np.concatenate([cache.nsat for cache in caches])
        self.state = np.concatenate(states)
        K, n, G, R = len(caches), c.num_vars, c.num_groundings, c.num_rules
        sizes = (self.state.size, self.field.size, self.unsat.size, self.nsat.size)
        if sizes != (K * n, K * n, K * G, K * R):
            raise ValueError("stacked chains do not all follow the substrate")
        self._members = list(zip(caches, states))

    def refresh_weights(self, assignment) -> None:
        """Nothing to do: the members refreshed before they were gathered
        and the weight store does not move during a call."""

    def scatter(self) -> None:
        """Write every member's stretch back into its own arrays, in
        place."""
        for k, (cache, state) in enumerate(self._members):
            n, G, R = state.size, cache.unsat.size, cache.nsat.size
            state[:] = self.state[k * n : (k + 1) * n]
            cache.field[:] = self.field[k * n : (k + 1) * n]
            cache.unsat[:] = self.unsat[k * G : (k + 1) * G]
            cache.nsat[:] = self.nsat[k * R : (k + 1) * R]
