"""The compiled substrate as it was before a delta landed as arrays.

``ReferenceCompiledFactorGraph`` keeps the four things the package's
substrate replaced, verbatim, so the array paths have something slow and
obvious to equal:

* ``__init__`` walks the graph's factor *records* — its table decoded,
  ``graph.factor_table().factors()``, canonical since the package keeps
  no other form — into per-variable Python lists and flattens those;
* ``apply_delta`` lowers the delta to lists of tuples
  (``_ops_from_delta``), applies them one factor at a time
  (``apply_patch_ops``: a dozen single-row appends per factor, a
  ``RuleFactor`` kept resident per rule in ``_ri_factor``), and only
  *then* looks at ``patch_fraction()``;
* ``compact`` decodes every factor record from the arrays so that
  ``__init__`` can walk them back into arrays;
* the per-variable Python lists (``py_*``, the scalar kernel's input,
  :mod:`tests.reference.gibbs`) and the neighbour multiset, both
  maintained factor by factor through every patch, and the recolouring
  that reads the multiset; a snapshot copies them whole.

Everything else — the block gather, kernels, plans, caches, the array
snapshot — is inherited, and the
:class:`~repro.graph.compiled.CompiledPatch` it returns has the
package's shape (row arrays), so followers ride either substrate.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np

from repro.graph.compiled import (
    _BIG_FACTOR,
    _CHUNK_CAP,
    _GROWABLE_NAMES,
    CompiledFactorGraph,
    CompiledPatch,
    _Growable,
    _smallest_free_color,
)
from repro.graph.factor_graph import (
    BiasFactor,
    CompiledGraphView,
    FactorGraph,
    IsingFactor,
    RuleFactor,
)
from repro.graph.semantics import sem_code, sem_from_code


def recolor(color, neighbours, touched) -> None:
    """The substrate-walk recolouring, in place: every touched variable
    (ascending ids) whose colour is −1 or held by one of its neighbours
    — ``neighbours(vars)`` gives each one's full neighbour set — takes
    the smallest colour its neighbours leave free.  The package
    recolours from the delta's own pairs instead and must leave the
    colours this leaves."""
    vars_ = np.asarray(touched, dtype=np.int64)
    for v, found in zip(vars_.tolist(), neighbours(vars_)):
        used = {int(color[o]) for o in found}
        if color[v] < 0 or int(color[v]) in used:
            used.discard(-1)
            color[v] = _smallest_free_color(used)


def scanned_patch_fraction(compiled) -> float:
    """``patch_fraction`` read off the arrays — the patched flags and the
    alive masks counted whole — where the package keeps counts."""
    if not compiled._patched:
        return 0.0
    return compiled._density(
        np.count_nonzero(compiled.var_patched),
        compiled.num_vars,
        [
            (np.count_nonzero(compiled.bias_alive), compiled.bias_alive.shape[0]),
            (np.count_nonzero(compiled.ising_alive), compiled.ising_alive.shape[0]),
            (compiled.num_live_rules, compiled.num_rules),
        ],
    )


def _csr(lists):
    """Flatten a list of per-variable lists into (indptr, flat array)."""
    counts = np.fromiter((len(l) for l in lists), dtype=np.int64, count=len(lists))
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    flat = np.fromiter(
        (x for l in lists for x in l), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, flat


class ReferenceCompiledFactorGraph(CompiledFactorGraph):
    """Object-walking compile, per-factor patch, patch-then-compact."""

    # The resident factor objects roll back with the arrays.
    _SNAP_REFS = CompiledFactorGraph._SNAP_REFS + ("rule_factors",)

    #: The per-variable state only the reference keeps: copied whole by a
    #: snapshot.
    _LISTS = (
        "py_bias",
        "py_ising",
        "py_head",
        "py_body",
        "_rule_head_l",
        "_rule_wid_l",
        "_rule_sem_l",
        "_ri_factor",
        "_nbr_indptr",
        "_nbr_idx",
        "_nbr_patch",
        "_csr_num_vars",
    )

    def __init__(self, graph: FactorGraph) -> None:
        graph.validate()
        self.graph = graph
        n = self.num_vars = graph.num_vars

        bias_lists = [[] for _ in range(n)]   # [wid]
        ising_lists = [[] for _ in range(n)]  # [(other, wid)]
        head_lists = [[] for _ in range(n)]   # [ri]
        body_lists = [[] for _ in range(n)]   # [(ri, gg, pos)]
        # What blocks gather through: every rule by its head, every
        # literal by its variable.
        heads_of = [[] for _ in range(n)]     # [ri]
        lits_of = [[] for _ in range(n)]      # [literal row]

        self.rule_factors = {}   # original factor idx -> canonical RuleFactor

        rule_head_l, rule_wid_l, rule_sem_l, rule_code_l = [], [], [], []
        grounding_ri_l = []
        lit_gg_l, lit_var_l, lit_pos_l = [], [], []

        # Per-factor handle table: original factor index → compiled handle
        # (bias/ising incidence positions, rule ri).  Kept aligned
        # with the graph's factor list across apply_delta calls so removed
        # factor ids resolve to tombstones in O(1).
        fkind_l, fprov_l = [], []

        for fi, factor in enumerate(graph.factor_table().factors()):
            if isinstance(factor, BiasFactor):
                fkind_l.append(0)
                fprov_l.append((factor.var, len(bias_lists[factor.var])))
                bias_lists[factor.var].append(factor.weight_id)
            elif isinstance(factor, IsingFactor):
                fkind_l.append(1)
                fprov_l.append(
                    (
                        (factor.i, len(ising_lists[factor.i])),
                        (factor.j, len(ising_lists[factor.j])),
                    )
                )
                ising_lists[factor.i].append((factor.j, factor.weight_id))
                ising_lists[factor.j].append((factor.i, factor.weight_id))
            elif isinstance(factor, RuleFactor):
                ri = len(rule_head_l)
                fkind_l.append(2)
                fprov_l.append(ri)
                self.rule_factors[fi] = factor
                heads_of[factor.head].append(ri)
                rule_head_l.append(factor.head)
                rule_wid_l.append(factor.weight_id)
                rule_sem_l.append(factor.semantics)
                rule_code_l.append(sem_code(factor.semantics))
                for grounding in factor.groundings:
                    gg = len(grounding_ri_l)
                    grounding_ri_l.append(ri)
                    for var, pos in grounding:
                        lits_of[var].append(len(lit_gg_l))
                        lit_gg_l.append(gg)
                        lit_var_l.append(var)
                        lit_pos_l.append(bool(pos))
                        body_lists[var].append((ri, gg, bool(pos)))
                # A head that sits in its own body carries only the body
                # incidence (closed form, see module docstring).
                segs = body_lists[factor.head]
                if not (segs and segs[-1][0] == ri):
                    head_lists[factor.head].append(ri)
            else:
                raise TypeError(f"unknown factor type {type(factor)!r}")

        # ---- flat arrays -------------------------------------------------
        bias_indptr, self.bias_wid = _csr(bias_lists)
        self.bias_var = np.repeat(np.arange(n, dtype=np.int64), np.diff(bias_indptr))

        self.ising_indptr, _ = _csr([[0] * len(l) for l in ising_lists])
        self.ising_other = np.fromiter(
            (o for l in ising_lists for o, _ in l),
            dtype=np.int64,
            count=int(self.ising_indptr[-1]),
        )
        self.ising_wid = np.fromiter(
            (w for l in ising_lists for _, w in l),
            dtype=np.int64,
            count=int(self.ising_indptr[-1]),
        )
        self.ising_row = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.ising_indptr)
        )

        self.rule_head = np.asarray(rule_head_l, dtype=np.int64)
        self.rule_wid = np.asarray(rule_wid_l, dtype=np.int64)
        self.rule_sem = np.asarray(rule_code_l, dtype=np.int8)
        self.num_rules = len(rule_head_l)
        self.rule_nmax = max(
            (len(factor.groundings) for factor in self.rule_factors.values()), default=0
        )

        self.grounding_ri = np.asarray(grounding_ri_l, dtype=np.int64)
        self.num_groundings = len(grounding_ri_l)
        self.lit_gg = np.asarray(lit_gg_l, dtype=np.int64)
        self.lit_var = np.asarray(lit_var_l, dtype=np.int64)
        self.lit_pos = np.asarray(lit_pos_l, dtype=bool)
        self.head_indptr, self.head_order = _csr(heads_of)
        self.lit_indptr, self.lit_order = _csr(lits_of)

        # ---- Python mirrors: the per-variable view ----------------------
        self.py_ising = ising_lists
        self.py_head = head_lists
        self.py_body = []
        for var in range(n):
            segs = []
            prev_ri = -1
            for ri, gg, pos in body_lists[var]:
                if ri != prev_ri:
                    segs.append((ri, []))
                    prev_ri = ri
                segs[-1][1].append((gg, pos))
            self.py_body.append(segs)
        self.py_bias = bias_lists
        self._rule_head_l = rule_head_l
        self._rule_wid_l = rule_wid_l
        self._rule_sem_l = rule_sem_l

        # ---- evidence ----------------------------------------------------
        self.evidence_mask = graph.evidence_mask()

        # ---- block-planning adjacency ------------------------------------
        # nbr: variables sharing any factor (used to prove two scan
        # neighbours conditionally independent).  Members of oversized rule
        # factors are forced into singleton blocks.
        # One entry per *incidence* (parallel edges are not deduplicated):
        # apply_delta decrements the neighbour multiset per removed factor,
        # which is only sound if compile time counted per factor too.
        nbr = [[o for o, _ in l] for l in ising_lists]
        self._force_singleton = np.zeros(n, dtype=bool)
        self._big_count = np.zeros(n, dtype=np.int32)
        for factor in self.rule_factors.values():
            members = set(factor.variables())
            if len(members) > _BIG_FACTOR:
                mlist = list(members)
                self._force_singleton[mlist] = True
                self._big_count[mlist] += 1
                continue
            for a in members:
                nbr[a].extend(members - {a})
        self._nbr_indptr, self._nbr_idx = _csr(nbr)
        # Greedy colouring in id order (evidence included, so clamping a
        # variable never recolours anything).  The window width is fixed
        # here and only changes at compaction.
        color_l = []
        for var in range(n):
            color_l.append(
                _smallest_free_color({color_l[o] for o in nbr[var] if o < var})
            )
        self._color = np.asarray(color_l, dtype=np.int32)
        self._scan_window = _CHUNK_CAP * (max(color_l, default=0) + 1)

        self._plan_cache = {}

        # ---- incremental-compilation state -------------------------------
        # Tombstone masks, the factor-handle table, and amortized-doubling
        # buffers behind the global arrays (see module docstring).
        self.bias_alive = np.ones(self.bias_wid.shape[0], dtype=bool)
        self.ising_alive = np.ones(self.ising_wid.shape[0], dtype=bool)
        self.rule_alive = np.ones(self.num_rules, dtype=bool)
        self.var_patched = np.zeros(n, dtype=bool)
        self.num_live_rules = self.num_rules
        # The package's density counts: the reference scans instead
        # (``patch_fraction``), and a snapshot carries them as they are.
        self.num_patched = self.num_live_bias = self.num_live_ising = None
        self._ri_factor = list(self.rule_factors.values())
        self._patched = False
        self._nbr_patch = {}
        self._csr_num_vars = n

        F = len(fkind_l)
        self._fkind = np.asarray(fkind_l, dtype=np.int8)
        self._fh1 = np.empty(F, dtype=np.int64)
        self._fh2 = np.full(F, -1, dtype=np.int64)
        for fi in range(F):
            kind, prov = fkind_l[fi], fprov_l[fi]
            if kind == 0:
                var, occ = prov
                self._fh1[fi] = bias_indptr[var] + occ
            elif kind == 1:
                (i, occ_i), (j, occ_j) = prov
                self._fh1[fi] = self.ising_indptr[i] + occ_i
                self._fh2[fi] = self.ising_indptr[j] + occ_j
            else:
                self._fh1[fi] = prov

        self._grow = {}
        for name in _GROWABLE_NAMES:
            ga = _Growable(getattr(self, name))
            self._grow[name] = ga
            setattr(self, name, ga.view)

        # Per-weight live-factor counts (the gradient normalizer): built
        # once here, then adjusted in O(1) per factor add/remove by
        # apply_patch_ops.
        self.weight_factor_counts = self._compute_weight_counts()

        # ``compact()`` preserves these across its re-init.
        self.structure_version = 0
        self.views_materialized = 0

    def factor_at(self, fi: int):
        """The factor at index ``fi`` of the current factor list, rebuilt
        O(1) from the handle table — no factor list is materialized."""
        kind = self._fkind[fi]
        h1 = self._fh1[fi]
        if kind == 2:
            return self._ri_factor[h1]
        if kind == 1:
            return IsingFactor(
                int(self.ising_wid[h1]),
                int(self.ising_row[h1]),
                int(self.ising_other[h1]),
            )
        return BiasFactor(int(self.bias_wid[h1]), int(self.bias_var[h1]))

    def _count_adjust(self, wid: int, delta: int) -> None:
        counts = self.weight_factor_counts
        if counts is None:
            return
        if wid >= counts.shape[0]:
            grown = np.zeros(
                max(wid + 1, len(self.graph.weights)), dtype=np.int64
            )
            grown[: counts.shape[0]] = counts
            self.weight_factor_counts = counts = grown
        counts[wid] += delta

    def patch_fraction(self) -> float:
        return scanned_patch_fraction(self)

    def _nbr_adjust(self, a: int, b: int, delta: int) -> None:
        self._nbr_patch.setdefault(a, Counter())[b] += delta

    def _var_neighbors(self, var: int) -> set:
        """Variables sharing a live factor with ``var``: the positive
        entries of its compile-time row plus its patch counts."""
        counts = Counter()
        if var < self._csr_num_vars:
            lo, hi = int(self._nbr_indptr[var]), int(self._nbr_indptr[var + 1])
            counts.update(self._nbr_idx[lo:hi].tolist())
        counts.update(self._nbr_patch.get(var, {}))
        return {o for o, c in counts.items() if c > 0}

    def _neighbours(self, vars_) -> list:
        """The multiset's neighbour sets: what the inherited recolouring
        reads here."""
        return [self._var_neighbors(v) for v in vars_.tolist()]

    def snapshot_state(self) -> dict:
        snap = super().snapshot_state()
        snap["lists"] = copy.deepcopy({name: getattr(self, name) for name in self._LISTS})
        return snap

    def restore_state(self, snap: dict) -> None:
        super().restore_state(snap)
        for name, value in snap["lists"].items():
            setattr(self, name, value)

    def _ops_from_delta(self, delta) -> dict:
        """Lower a :class:`FactorGraphDelta` to a picklable patch-op dict.

        Resolves removed factor ids through the handle table (and compacts
        the table to match the post-delta factor numbering).  Added rule
        factors go in canonical (``delta.new_factors.table.factors()``),
        as the package lands them."""
        ops = {
            "num_new_vars": int(delta.num_new_vars),
            "var_names": list(delta.new_var_names),
            "evidence": {},
            "bias_del": [],
            "ising_del": [],
            "rule_del": [],
            "bias_add": [],
            "ising_add": [],
            "rule_add": [],
            # Kind of each new factor in delta order (0 bias / 1 ising /
            # 2 rule): the handle table must follow the *factor list*
            # order, which interleaves kinds.
            "add_order": [],
            # Read by ``CompiledPatch.structural`` only.
            "add": delta.new_factors.table,
        }
        removed = delta.removed_ids(self.num_factors).tolist()
        for fi in removed:
            kind = int(self._fkind[fi])
            if kind == 0:
                ops["bias_del"].append(int(self._fh1[fi]))
            elif kind == 1:
                ops["ising_del"].append((int(self._fh1[fi]), int(self._fh2[fi])))
            else:
                ri = int(self._fh1[fi])
                factor = self._ri_factor[ri]
                body_vars = sorted({v for g in factor.groundings for v, _ in g})
                ops["rule_del"].append((ri, int(factor.head), body_vars))
        if removed:
            keep = np.ones(self._fkind.shape[0], dtype=bool)
            keep[removed] = False
            for name in ("_fkind", "_fh1", "_fh2"):
                self._replace(name, getattr(self, name)[keep])
        for factor in delta.new_factors.table.factors():
            if isinstance(factor, BiasFactor):
                ops["add_order"].append(0)
                ops["bias_add"].append((int(factor.var), int(factor.weight_id)))
            elif isinstance(factor, IsingFactor):
                ops["add_order"].append(1)
                ops["ising_add"].append(
                    (int(factor.i), int(factor.j), int(factor.weight_id))
                )
            elif isinstance(factor, RuleFactor):
                ops["add_order"].append(2)
                ops["rule_add"].append(
                    (
                        int(factor.head),
                        int(factor.weight_id),
                        sem_code(factor.semantics),
                        tuple(
                            tuple((int(v), bool(p)) for v, p in g)
                            for g in factor.groundings
                        ),
                    )
                )
            else:
                raise TypeError(f"unknown factor type {type(factor)!r}")
        for offset, val in delta.new_var_evidence.items():
            ops["evidence"][self.num_vars + int(offset)] = bool(val)
        for var, val in delta.evidence_updates.items():
            ops["evidence"][int(var)] = None if val is None else bool(val)
        return ops

    def apply_delta(self, delta, compact_threshold: float = 0.25) -> CompiledPatch:
        """Patch the compiled substrate in place from a factor-graph delta.

        The substrate is the source of truth: new weights are interned
        into the shared store, patch ops derive from the handle table,
        and ``self.graph`` becomes (or stays) a lazy
        :class:`~repro.graph.factor_graph.CompiledGraphView` — no
        materialized ``delta.apply`` graph is ever built.  Returns the
        :class:`CompiledPatch` that cache holders splice
        from.  When the tombstone/patched density crosses
        ``compact_threshold`` the instance is recompiled in place
        (amortized O(|graph|)) and the patch is marked ``compacted``."""
        for key, initial, fixed in delta.new_weight_entries:
            self.weights.intern(key, initial=initial, fixed=fixed)
        for wid, value in delta.changed_weight_values.items():
            self.weights.set_value(wid, value)
        ops = self._ops_from_delta(delta)
        patch = self.apply_patch_ops(ops)
        if (
            compact_threshold is not None
            and scanned_patch_fraction(self) > compact_threshold
        ):
            self.compact()
            patch.compacted = True
        return patch

    def apply_patch_ops(self, ops: dict) -> CompiledPatch:
        """Replay a patch-op dict against this compiled view, one factor
        at a time."""
        patch = CompiledPatch(
            ops=ops,
            old_num_vars=self.num_vars,
            num_new_vars=int(ops["num_new_vars"]),
            old_num_rules=self.num_rules,
            old_num_groundings=self.num_groundings,
            old_num_lits=self.lit_gg.shape[0],
            old_num_ising=self.ising_wid.shape[0],
            old_num_bias=self.bias_wid.shape[0],
        )
        patch.bias_del, patch.ising_del, patch.bias_add, patch.ising_add = [], [], [], []
        dirty = set()
        handles_by_kind = {0: [], 1: [], 2: []}

        # ---- new variables ----------------------------------------------
        k = patch.num_new_vars
        n0 = self.num_vars
        if k:
            self.num_vars = n0 + k
            self._append("evidence_mask", np.zeros(k, dtype=bool))
            self._append("var_patched", np.ones(k, dtype=bool))
            self._append("_force_singleton", np.zeros(k, dtype=bool))
            self._append("_big_count", np.zeros(k, dtype=np.int32))
            self._append("_color", np.full(k, -1, dtype=np.int32))
            for _ in range(k):
                self.py_bias.append([])
                self.py_ising.append([])
                self.py_head.append([])
                self.py_body.append([])

        def touch(var):
            """Mark ``var`` patched."""
            var = int(var)
            dirty.add(var)
            self.var_patched[var] = True

        # ---- removals (tombstones + mirror scrub) ------------------------
        for kb in ops["bias_del"]:
            var, wid = int(self.bias_var[kb]), int(self.bias_wid[kb])
            touch(var)
            self.bias_alive[kb] = False
            self.py_bias[var].remove(wid)
            self._count_adjust(wid, -1)
            patch.bias_del.append(int(kb))
        for k1, k2 in ops["ising_del"]:
            i, j = int(self.ising_row[k1]), int(self.ising_other[k1])
            wid = int(self.ising_wid[k1])
            touch(i)
            touch(j)
            self.ising_alive[k1] = False
            self.ising_alive[k2] = False
            self.py_ising[i].remove((j, wid))
            self.py_ising[j].remove((i, wid))
            self._count_adjust(wid, -1)
            self._nbr_adjust(i, j, -1)
            self._nbr_adjust(j, i, -1)
            patch.ising_del.append((int(k1), int(k2)))
        for ri, head, body_vars in ops["rule_del"]:
            members = set(body_vars) | {head}
            for var in members:
                touch(var)
            self.rule_alive[ri] = False
            self.num_live_rules -= 1
            self._count_adjust(int(self.rule_wid[ri]), -1)
            if head not in body_vars:
                self.py_head[head].remove(ri)
            for var in body_vars:
                segs = self.py_body[var]
                for s, (seg_ri, _lits) in enumerate(segs):
                    if seg_ri == ri:
                        del segs[s]
                        break
            if len(members) > _BIG_FACTOR:
                for var in members:
                    self._big_count[var] -= 1
                    if self._big_count[var] <= 0:
                        self._force_singleton[var] = False
            else:
                for a in members:
                    for b in members:
                        if a != b:
                            self._nbr_adjust(a, b, -1)

        # ---- additions ---------------------------------------------------
        for var, wid in ops["bias_add"]:
            kb = self.bias_wid.shape[0]
            touch(var)
            self._append("bias_var", [var])
            self._append("bias_wid", [wid])
            self._append("bias_alive", [True])
            self.py_bias[var].append(wid)
            self._count_adjust(wid, 1)
            patch.bias_add.append((int(var), int(wid)))
            handles_by_kind[0].append((0, kb, -1))
        for i, j, wid in ops["ising_add"]:
            k1 = self.ising_wid.shape[0]
            touch(i)
            touch(j)
            self._append("ising_row", [i, j])
            self._append("ising_other", [j, i])
            self._append("ising_wid", [wid, wid])
            self._append("ising_alive", [True, True])
            self.py_ising[i].append((j, wid))
            self.py_ising[j].append((i, wid))
            self._count_adjust(wid, 1)
            self._nbr_adjust(i, j, 1)
            self._nbr_adjust(j, i, 1)
            patch.ising_add.append((int(i), int(j), int(wid)))
            handles_by_kind[1].append((1, k1, k1 + 1))
        for head, wid, code, groundings in ops["rule_add"]:
            semantics = sem_from_code(code)
            self._count_adjust(wid, 1)
            factor = RuleFactor(
                weight_id=wid, head=head, groundings=groundings, semantics=semantics
            )
            body_vars = {v for grounding in groundings for v, _ in grounding}
            members = body_vars | {head}
            for var in members:
                touch(var)
            ri = self.num_rules
            self.num_rules += 1
            self.num_live_rules += 1
            self._append("rule_head", [head])
            self._append("rule_wid", [wid])
            self._append("rule_sem", [code])
            self._append("rule_alive", [True])
            self._rule_head_l.append(head)
            self._rule_wid_l.append(wid)
            self._rule_sem_l.append(semantics)
            self._ri_factor.append(factor)
            self.rule_nmax = max(self.rule_nmax, len(groundings))
            if head not in body_vars:
                self.py_head[head].append(ri)
            per_var = {}
            gg0 = self.num_groundings
            lit_gg_new, lit_var_new, lit_pos_new = [], [], []
            for g_off, grounding in enumerate(groundings):
                gg = gg0 + g_off
                for v, p in grounding:
                    lit_gg_new.append(gg)
                    lit_var_new.append(v)
                    lit_pos_new.append(bool(p))
                    per_var.setdefault(v, []).append((gg, bool(p)))
            self.num_groundings = gg0 + len(groundings)
            self._append("grounding_ri", [ri] * len(groundings))
            if lit_gg_new:
                self._append("lit_gg", lit_gg_new)
                self._append("lit_var", lit_var_new)
                self._append("lit_pos", lit_pos_new)
            for v, lits in per_var.items():
                self.py_body[v].append((ri, lits))
            if len(members) > _BIG_FACTOR:
                for var in members:
                    self._big_count[var] += 1
                    self._force_singleton[var] = True
            else:
                for a in members:
                    for b in members:
                        if a != b:
                            self._nbr_adjust(a, b, 1)
            handles_by_kind[2].append((2, ri, -1))

        if ops["add_order"]:
            # Interleave the per-kind handle rows back into the factor
            # list's append order.
            iters = {kind: iter(rows) for kind, rows in handles_by_kind.items()}
            new_handles = [next(iters[kind]) for kind in ops["add_order"]]
            for name, column in zip(("_fkind", "_fh1", "_fh2"), zip(*new_handles)):
                self._append(name, list(column))

        # ---- evidence ----------------------------------------------------
        for var, val in sorted(ops["evidence"].items()):
            var = int(var)
            if val is None:
                self.evidence_mask[var] = False
                patch.evidence_clears.append(var)
            else:
                self.evidence_mask[var] = True
                patch.evidence_sets.append((var, bool(val)))

        # Substrate-as-truth: extend the shared name list, write evidence
        # through the shared dict, and keep ``self.graph`` a lazy view
        # over this substrate.  The source graph handed to ``__init__``
        # shares names/evidence/weights with the substrate from compile
        # time on — compiling transfers ownership of that state.
        graph = self.graph
        if not (isinstance(graph, CompiledGraphView) and graph.compiled is self):
            graph = CompiledGraphView(self)
        if k:
            new_names = list(ops.get("var_names") or [])
            new_names += [None] * (k - len(new_names))
            graph._names.extend(new_names[:k])
        for var, val in sorted(ops["evidence"].items()):
            if val is None:
                graph.clear_evidence(int(var))
            else:
                graph.set_evidence(int(var), bool(val))
        if graph is not self.graph:
            old = self.graph
            self.graph = graph
            # The old facade shares the evidence dict; drop its (now
            # stale) cached evidence arrays.
            if hasattr(old, "_evidence_arrays"):
                old._evidence_arrays = None

        if patch.structural:
            self._patched = True
            self.structure_version += 1
        patch.dirty_vars = np.fromiter(sorted(dirty), dtype=np.int64, count=len(dirty))

        # ---- recolour; the scan plans built before the patch go ----------
        recolor(self._color, self._neighbours, sorted(dirty.union(range(n0, n0 + k))))
        self._plan_cache = {}
        # The package's patch shape: row arrays.
        patch.bias_del = np.asarray(patch.bias_del, dtype=np.int64)
        for name, width in (("ising_del", 2), ("bias_add", 2), ("ising_add", 3)):
            rows = np.asarray(getattr(patch, name), dtype=np.int64)
            setattr(patch, name, rows.reshape(-1, width))
        return patch

    def compact(self) -> None:
        """Recompile the current graph in place (clears all tombstones).

        Object identity is preserved so long-lived holders keep working,
        but plans/blocks/caches derived before the compaction are invalid
        — holders must re-derive them (apply_delta signals this with
        ``CompiledPatch.compacted``)."""
        graph = self.graph
        version = self.structure_version
        materialized = self.views_materialized
        # Re-init decodes ``graph.factor_table()`` before it writes an
        # array, and a view's table gathers from this instance's arrays.
        self.__init__(graph)
        self.structure_version = version + 1
        self.views_materialized = materialized

