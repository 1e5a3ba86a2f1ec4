"""The ``(∆V, ∆F)`` object connecting grounding to incremental inference.

Incremental grounding (paper §3.1) emits the *changes* to the factor graph:
new variables, new factors, removed factors, evidence flips, and weight
changes.  Incremental inference (§3.2) consumes this object: the sampling
approach evaluates its Metropolis–Hastings acceptance test using **only**
the delta, and the variational approach splices the delta into the
approximated graph.

A factor list is a table.  :class:`FactorTable` is the flat layout
:class:`~repro.graph.compiled.CompiledFactorGraph` stores — ``bias_var /
bias_wid``, ``ising_i / ising_j / ising_wid``, ``rule_head / rule_wid /
rule_sem``, ``grounding_ri``, ``lit_gg / lit_var / lit_pos``, rule and
grounding ids local to the table, plus ``kind``, the factor kinds in
list order — and :class:`FactorList` wraps one as the factor list of a
:class:`~repro.graph.factor_graph.FactorGraph` and as
``FactorGraphDelta.new_factors``: ``add_*_factor`` append rows to it,
the grounder flattens its touched groundings straight into one
(:func:`rule_table`), :func:`compose_deltas` concatenates two, the
variational splice remaps the weight columns, the MH target scores the
columns as they are (:meth:`FactorTable.energies`) and ``apply_delta``
appends them to the substrate.  A full ground builds the same columns
from its binding batches (:func:`rule_columns`, then
:meth:`FactorTable.canonical`).  The factor records of
:mod:`repro.graph.factor_graph` exist only as what
:meth:`FactorTable.factors` decodes a table into, for readers outside
the update path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.graph.semantics import Semantics, g_table, sem_code, sems_from_codes

#: ``FactorTable.kind`` codes — the substrate's handle table uses the
#: same ones.
KIND_BIAS, KIND_ISING, KIND_RULE = 0, 1, 2

_COLUMN_DTYPES = {
    "kind": np.int8,
    "bias_var": np.int64,
    "bias_wid": np.int64,
    "ising_i": np.int64,
    "ising_j": np.int64,
    "ising_wid": np.int64,
    "rule_head": np.int64,
    "rule_wid": np.int64,
    "rule_sem": np.int8,
    "grounding_ri": np.int64,
    "lit_gg": np.int64,
    "lit_var": np.int64,
    "lit_pos": np.bool_,
}


#: The columns holding variable ids, in :meth:`FactorTable.variables` order.
_VARIABLE_COLUMNS = ("bias_var", "ising_i", "ising_j", "rule_head", "lit_var")

_NO_ROWS = {name: np.zeros(0, dtype=dtype) for name, dtype in _COLUMN_DTYPES.items()}
for _column in _NO_ROWS.values():
    _column.flags.writeable = False


def _bounds(owner: np.ndarray, count: int) -> np.ndarray:
    """``owner`` never decreases: the ``count + 1`` offsets of its runs."""
    return np.searchsorted(owner, np.arange(count + 1))


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The concatenation of ``arange(lo[k], hi[k])`` over ``k``, and the
    ``k`` each element came from."""
    counts = hi - lo
    owner = np.arange(lo.shape[0]).repeat(counts)
    first = counts.cumsum() - counts
    return np.arange(owner.shape[0]) + (lo - first)[owner], owner


def rule_literals(store, rows) -> tuple:
    """Where the rule rows ``rows`` keep their groundings and literals in
    ``store`` — a :class:`FactorTable`, or the compiled substrate, whose
    rule columns have the same names and the same order.

    Returns ``(grounding_ri, lits, lit_gg)``: per grounding of the rows,
    the position in ``rows`` of its rule; per literal, its position in
    ``store`` and the (renumbered) grounding it belongs to."""
    lo = store.grounding_ri.searchsorted(rows, "left")
    hi = store.grounding_ri.searchsorted(rows, "right")
    groundings, grounding_ri = expand_ranges(lo, hi)
    lo = store.lit_gg.searchsorted(groundings, "left")
    hi = store.lit_gg.searchsorted(groundings, "right")
    lits, lit_gg = expand_ranges(lo, hi)
    return grounding_ri, lits, lit_gg


def gather_rules(store, rows) -> dict:
    """The rule columns of rows ``rows`` of ``store`` (see
    :func:`rule_literals`), ids renumbered in the order given."""
    grounding_ri, lits, lit_gg = rule_literals(store, rows)
    return {
        "rule_head": store.rule_head[rows],
        "rule_wid": store.rule_wid[rows],
        "rule_sem": store.rule_sem[rows],
        "grounding_ri": grounding_ri,
        "lit_gg": lit_gg,
        "lit_var": store.lit_var[lits],
        "lit_pos": store.lit_pos[lits],
    }


#: Cells (rows × widest per-world temporary) one scoring chunk may span.
#: The rule block holds ``(rows, literals)`` gather, mismatch, int64
#: index and float64 weight temporaries at once — 18 bytes a cell, so
#: 2¹⁸ cells keep a chunk near 5 MB however many worlds a call scores
#: (a Fig. 9-scale Δ × 300 steps in one piece would take hundreds of MB).
_SCORE_CELLS = 1 << 18


def rule_unit_energies(
    worlds, rule_head, rule_sem, grounding_ri, lit_gg, lit_var, lit_pos
) -> np.ndarray:
    """``(S, R)`` unit energies ``sign(head) · g(#satisfied groundings)``
    of rule factors in the flat layout, one row per world of the
    ``(S, n)`` boolean matrix ``worlds``.

    The whole-world rule kernel shared by :meth:`FactorTable.energies`
    and :meth:`~repro.graph.compiled.CompiledFactorGraph.weight_statistics`:
    literal mismatches are summed per grounding and satisfied groundings
    per rule with ``bincount``, so an empty grounding counts as satisfied
    and a rule without groundings has ``n = 0`` (``np.add.reduceat``
    gets both wrong).  A grounding with contradictory literals is never
    satisfied and one with a repeated literal is satisfied when the
    literal is, so a raw grounding and its canonical form
    (:func:`rule_table`) score the same."""
    S = worlds.shape[0]
    R, G = rule_head.shape[0], grounding_ri.shape[0]
    if G:
        if lit_gg.size:
            mismatch = worlds[:, lit_var] != lit_pos
            flat_g = (lit_gg[None, :] + G * np.arange(S)[:, None]).ravel()
            unsat = np.bincount(
                flat_g,
                weights=mismatch.astype(np.float64).ravel(),
                minlength=S * G,
            ).reshape(S, G)
        else:
            unsat = np.zeros((S, G), dtype=np.float64)
        flat_r = (grounding_ri[None, :] + R * np.arange(S)[:, None]).ravel()
        nsat = np.bincount(flat_r[(unsat == 0).ravel()], minlength=S * R).reshape(S, R)
    else:
        nsat = np.zeros((S, R), dtype=np.int64)
    g = g_table(int(nsat.max()) if nsat.size else 0)[rule_sem, nsat]
    return np.where(worlds[:, rule_head], 1.0, -1.0) * g


class FactorTable:
    """Factors lowered to flat arrays (see the module docstring).

    ``kind[f]`` is the kind of the ``f``-th factor of the list the table
    stands for; the ``k``-th factor of a kind owns row ``k`` of that
    kind's columns.  A rule's groundings are the run of ``grounding_ri``
    equal to its row and a grounding's literals the run of ``lit_gg``
    equal to its id, both in list order, so neither column ever
    decreases.  Every grounding is canonical — it names each variable
    once (:func:`rule_table` builds the rule columns, :meth:`canonical`
    makes :func:`rule_columns`' raw ones so, and every operation here
    keeps them).  Tables are immutable: every operation returns a new
    one (sharing the columns it did not touch).  The columns are the
    instance's attributes, set in one update.
    """

    def __init__(self, **columns) -> None:
        unknown = columns.keys() - _COLUMN_DTYPES.keys()
        if unknown:
            raise TypeError(f"unknown columns {sorted(unknown)}")
        attrs = self.__dict__
        attrs.update(_NO_ROWS)
        for name, column in columns.items():
            if column is not None:
                attrs[name] = np.asarray(column, dtype=_COLUMN_DTYPES[name])

    @classmethod
    def _of(cls, columns: dict) -> "FactorTable":
        """A table over ``columns`` — every column, each already of its
        dtype — as they are: the constructor of this class's own
        operations."""
        table = cls.__new__(cls)
        table.__dict__.update(columns)
        return table

    def __len__(self) -> int:
        return self.kind.shape[0]

    @property
    def num_rules(self) -> int:
        return self.rule_head.shape[0]

    @property
    def lit_ri(self) -> np.ndarray:
        """The rule row each literal belongs to."""
        return self.grounding_ri[self.lit_gg]

    def columns(self) -> dict:
        return dict(self.__dict__)

    def variables(self) -> np.ndarray:
        """Every variable id the factors mention (with repeats)."""
        columns = self.__dict__
        return np.concatenate([columns[name] for name in _VARIABLE_COLUMNS])

    def variable_owners(self) -> np.ndarray:
        """The factor (list position) each entry of :meth:`variables`
        belongs to."""
        rule_f = np.flatnonzero(self.kind == KIND_RULE)
        ising_f = np.flatnonzero(self.kind == KIND_ISING)
        bias_f = np.flatnonzero(self.kind == KIND_BIAS)
        return np.concatenate([bias_f, ising_f, ising_f, rule_f, rule_f[self.lit_ri]])

    def with_variables(self, lookup: np.ndarray) -> "FactorTable":
        """The same factors, variable ``v`` renamed ``lookup[v]``."""
        columns = self.columns()
        for name in _VARIABLE_COLUMNS:
            columns[name] = lookup[columns[name]]
        return FactorTable(**columns)

    def check_ids(self, num_vars: int, num_weights: int) -> None:
        """Every variable and weight id exists; ``ValueError`` names the
        first one that does not."""
        for ids, count, what in (
            (self.variables(), num_vars, "variable"),
            (self.weight_ids(), num_weights, "weight"),
        ):
            if ids.size and not 0 <= ids.min() <= ids.max() < count:
                bad = ids[(ids < 0) | (ids >= count)][0]
                raise ValueError(f"factor references unknown {what} {int(bad)}")

    def neighbor_pairs(self) -> np.ndarray:
        """Each unordered variable pair ``(a, b)``, ``a < b``, that
        co-occurs in some factor, ascending, as a ``(k, 2)`` array: the
        ``NZ`` set of Algorithm 1."""
        owner, var = self.variable_owners(), self.variables()
        n = int(var.max()) + 1 if var.size else 1
        # Distinct (factor, variable) memberships, sorted: each one pairs
        # with the later members of its factor (a bias has none).
        owner, var = np.divmod(np.unique(owner * n + var), n)
        later, first = expand_ranges(
            np.arange(1, owner.shape[0] + 1), np.searchsorted(owner, owner, "right")
        )
        pairs = np.unique(var[first] * n + var[later])
        return np.stack(np.divmod(pairs, n), axis=1)

    def weight_ids(self) -> np.ndarray:
        """The weight id of each factor, in list order."""
        wids = np.empty(len(self), dtype=np.int64)
        wids[self.kind == KIND_BIAS] = self.bias_wid
        wids[self.kind == KIND_ISING] = self.ising_wid
        wids[self.kind == KIND_RULE] = self.rule_wid
        return wids

    def with_weights(self, wids: np.ndarray) -> "FactorTable":
        """The same factors, factor ``f`` tied to weight ``wids[f]`` —
        ``wids = lookup[table.weight_ids()]`` re-points a table at
        another weight store."""
        columns = self.columns()
        wids = np.asarray(wids, dtype=np.int64)
        for code, name in enumerate(("bias_wid", "ising_wid", "rule_wid")):
            columns[name] = wids[self.kind == code]
        return FactorTable._of(columns)

    def energies(self, worlds: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """``Σ_f coef[f] · U_f(x)`` for every row ``x`` of the ``(S, n)``
        boolean matrix ``worlds``, as an ``(S,)`` float64 vector:
        ``coef`` holds one float per factor in list order and ``U`` is a
        factor's unit energy — ``σ_v`` for a bias, ``σ_i σ_j`` for an
        Ising factor, ``sign(head) · g(n)`` for a rule (Eq. 1), with
        ``σ = 2x − 1``.  The one energy scorer: a graph's energy is its
        table under ``coef = w[weight_ids()]``, the MH target ``δW`` the
        delta's terms under theirs.  Worlds go through in chunks of at
        most :data:`_SCORE_CELLS` cells."""
        coefs = [coef[self.kind == code] for code in (KIND_BIAS, KIND_ISING, KIND_RULE)]
        energies = np.zeros(worlds.shape[0], dtype=np.float64)
        widest = max(
            1,
            self.lit_var.size,
            self.grounding_ri.size,
            self.bias_var.size,
            self.ising_i.size,
        )
        rows = max(1, _SCORE_CELLS // widest)
        for lo in range(0, worlds.shape[0], rows):
            energies[lo : lo + rows] = self._energies(worlds[lo : lo + rows], *coefs)
        return energies

    def _energies(self, worlds, bias_coef, ising_coef, rule_coef) -> np.ndarray:
        energy = np.zeros(worlds.shape[0], dtype=np.float64)
        if self.bias_var.size:
            energy += np.where(worlds[:, self.bias_var], 1.0, -1.0) @ bias_coef
        if self.ising_i.size:
            agree = worlds[:, self.ising_i] == worlds[:, self.ising_j]
            energy += np.where(agree, 1.0, -1.0) @ ising_coef
        if self.rule_head.size:
            energy += (
                rule_unit_energies(
                    worlds,
                    self.rule_head,
                    self.rule_sem,
                    self.grounding_ri,
                    self.lit_gg,
                    self.lit_var,
                    self.lit_pos,
                )
                @ rule_coef
            )
        return energy

    def take(self, which) -> "FactorTable":
        """The factors at ``which`` — a boolean mask over the list, or
        indexes in the order wanted — with rule and grounding ids
        renumbered.  A mask keeps list order, so its groundings and
        literals are masked in one pass each rather than searched for."""
        index = np.asarray(which)
        if index.dtype == bool:
            return self._masked(index)
        kind = self.kind[index]
        local = np.empty(len(self), dtype=np.int64)
        for code in (KIND_BIAS, KIND_ISING, KIND_RULE):
            of_kind = self.kind == code
            local[of_kind] = np.arange(np.count_nonzero(of_kind))
        local = local[index]
        bias, ising = local[kind == KIND_BIAS], local[kind == KIND_ISING]
        return FactorTable._of(
            dict(
                kind=kind,
                bias_var=self.bias_var[bias],
                bias_wid=self.bias_wid[bias],
                ising_i=self.ising_i[ising],
                ising_j=self.ising_j[ising],
                ising_wid=self.ising_wid[ising],
                **gather_rules(self, local[kind == KIND_RULE]),
            )
        )

    def _masked(self, keep: np.ndarray) -> "FactorTable":
        bias, ising, rules = (
            keep[self.kind == code] for code in (KIND_BIAS, KIND_ISING, KIND_RULE)
        )
        groundings = rules[self.grounding_ri]
        lits = groundings[self.lit_gg]
        return FactorTable._of(
            dict(
                kind=self.kind[keep],
                bias_var=self.bias_var[bias],
                bias_wid=self.bias_wid[bias],
                ising_i=self.ising_i[ising],
                ising_j=self.ising_j[ising],
                ising_wid=self.ising_wid[ising],
                rule_head=self.rule_head[rules],
                rule_wid=self.rule_wid[rules],
                rule_sem=self.rule_sem[rules],
                grounding_ri=(np.cumsum(rules) - 1)[self.grounding_ri[groundings]],
                lit_gg=(np.cumsum(groundings) - 1)[self.lit_gg[lits]],
                lit_var=self.lit_var[lits],
                lit_pos=self.lit_pos[lits],
            )
        )

    @staticmethod
    def concat(tables) -> "FactorTable":
        """One table for the tables' lists laid end to end."""
        tables = [table for table in tables if len(table)]
        if not tables:
            return FactorTable()
        if len(tables) == 1:
            return tables[0]
        parts = [table.__dict__ for table in tables]
        columns = {name: [part[name] for part in parts] for name in _COLUMN_DTYPES}
        rules = groundings = 0
        for k, table in enumerate(tables):
            if k:
                columns["grounding_ri"][k] = table.grounding_ri + rules
                columns["lit_gg"][k] = table.lit_gg + groundings
            rules += table.num_rules
            groundings += table.grounding_ri.shape[0]
        return FactorTable._of(
            {name: np.concatenate(parts) for name, parts in columns.items()}
        )

    def canonical(self) -> "FactorTable":
        """This table with every grounding canonical (:func:`_canonical`;
        columns without a repeat are shared, not copied)."""
        names = ("grounding_ri", "lit_gg", "lit_var", "lit_pos")
        columns = self.columns()
        columns.update(zip(names, _canonical(*(columns[name] for name in names))))
        return FactorTable(**columns)

    def rule_groundings(self) -> list:
        """Per rule row, its groundings as tuples of ``(var, positive)``
        literals, in table order."""
        lits = list(zip(self.lit_var.tolist(), self.lit_pos.tolist()))
        l_ptr = _bounds(self.lit_gg, self.grounding_ri.shape[0]).tolist()
        groundings = [tuple(lits[a:b]) for a, b in zip(l_ptr, l_ptr[1:])]
        g_ptr = _bounds(self.grounding_ri, self.num_rules).tolist()
        return [tuple(groundings[a:b]) for a, b in zip(g_ptr, g_ptr[1:])]

    def factors(self) -> list:
        """The factor records the table stands for, in list order: the
        read-only view for readers off the update path (tests, the e2e
        benchmark's graph check); nothing in the package calls it."""
        from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor

        bias = map(BiasFactor, self.bias_wid.tolist(), self.bias_var.tolist())
        ising = map(
            IsingFactor,
            self.ising_wid.tolist(),
            self.ising_i.tolist(),
            self.ising_j.tolist(),
        )
        rules = map(
            RuleFactor,
            self.rule_wid.tolist(),
            self.rule_head.tolist(),
            self.rule_groundings(),
            sems_from_codes(self.rule_sem),
        )
        by_kind = (bias, ising, rules)
        return [next(by_kind[code]) for code in self.kind.tolist()]


def _canonical(grounding_ri, lit_gg, lit_var, lit_pos) -> tuple:
    """The groundings as conjunctions that name each variable once.

    ``x ∧ x = x``: a repeated literal is dropped, its first occurrence
    stays.  ``x ∧ ¬x`` holds in no world: a grounding with a variable
    under both polarities is dropped whole — never left empty, since an
    empty grounding counts as satisfied.  Either way every world keeps
    its satisfied-grounding count, so energies do not move.  Groundings
    without a repeat come back as they are."""
    if lit_gg.size < 2:
        return grounding_ri, lit_gg, lit_var, lit_pos
    # Sorting by variable inside each grounding (``lit_gg`` never
    # decreases and the sort is stable) puts a repeated variable right
    # behind its first occurrence.
    order = np.lexsort((lit_var, lit_gg))
    gg, var = lit_gg[order], lit_var[order]
    repeat = (gg[1:] == gg[:-1]) & (var[1:] == var[:-1])
    if not repeat.any():
        return grounding_ri, lit_gg, lit_var, lit_pos
    pos = lit_pos[order]
    contradicted = np.zeros(grounding_ri.shape[0], dtype=bool)
    contradicted[gg[1:][repeat & (pos[1:] != pos[:-1])]] = True
    keep = ~contradicted[lit_gg]
    keep[order[1:][repeat]] = False
    renumber = np.cumsum(~contradicted) - 1
    return (
        grounding_ri[~contradicted],
        renumber[lit_gg[keep]],
        lit_var[keep],
        lit_pos[keep],
    )


def rule_columns(heads, wids, sems, groundings) -> FactorTable:
    """Rule columns from parallel per-rule sequences: head variable,
    weight id, semantics code, and the rule's groundings (each a
    sequence of ``(var, positive)`` literals), taken as they are —
    repeats and contradictions included, so not yet a table the
    substrate may read (:meth:`FactorTable.canonical` makes it one)."""
    per_rule = np.fromiter(map(len, groundings), dtype=np.int64, count=len(heads))
    flat = list(chain.from_iterable(groundings))
    per_grounding = np.fromiter(map(len, flat), dtype=np.int64, count=len(flat))
    num_lits = int(per_grounding.sum())
    lits = np.fromiter(
        chain.from_iterable(chain.from_iterable(flat)),
        dtype=np.int64,
        count=2 * num_lits,
    ).reshape(num_lits, 2)
    return FactorTable(
        kind=np.full(len(heads), KIND_RULE, dtype=np.int8),
        rule_head=heads,
        rule_wid=wids,
        rule_sem=sems,
        grounding_ri=np.repeat(np.arange(len(heads)), per_rule),
        lit_gg=np.repeat(np.arange(len(flat)), per_grounding),
        lit_var=lits[:, 0],
        lit_pos=lits[:, 1],
    )


def rule_table(heads, wids, sems, groundings) -> FactorTable:
    """A table of rule factors from parallel per-rule sequences (see
    :func:`rule_columns`).

    The groundings land canonical (:func:`_canonical`), which is what
    lets the substrate keep a single rule representation."""
    return rule_columns(heads, wids, sems, groundings).canonical()


_NO_FACTORS = FactorTable()
#: What :meth:`FactorGraphDelta.removed_ids` and ``base_terms`` return
#: for a delta that removes nothing: shared, read-only.
_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_SHIFT = np.zeros(0)
_NO_IDS.flags.writeable = _NO_SHIFT.flags.writeable = False


class FactorList(Sequence):
    """The factor list of a :class:`~repro.graph.factor_graph.FactorGraph`
    and a delta's ``new_factors``: a :class:`FactorTable` (:attr:`table`)
    plus the rows appended since it was last read.

    ``add_bias`` / ``add_ising`` / ``add_rule`` append one row each
    without checking ids (``FactorGraph.add_*_factor`` check them first);
    the rows are buffered and land in the table in one concatenation, at
    the next :attr:`table` read.  :meth:`extended` lays a table behind
    the list the same way: at the new list's first :attr:`table` read,
    so a list extended once per update is concatenated once per read,
    not once per update.  Reading an item or iterating decodes factor
    records (:meth:`FactorTable.factors`) — a read-only view for tests;
    ``len``, :meth:`extended`, :meth:`copy` and pickling never do.
    """

    __slots__ = ("_table", "_tail", "_tail_len", "_kind", "_rows")

    def __init__(self, table: FactorTable | None = None) -> None:
        if table is not None and not isinstance(table, FactorTable):
            raise TypeError(f"a FactorList wraps a FactorTable, not {type(table)!r}")
        self._table = _NO_FACTORS if table is None else table
        #: tables laid behind ``_table`` at the next read, and their length
        self._tail = ()
        self._tail_len = 0
        self._kind = []
        self._rows = ([], [], [])

    def _add(self, kind: int, row: tuple) -> int:
        self._kind.append(kind)
        self._rows[kind].append(row)
        return len(self) - 1

    def add_bias(self, weight_id, var) -> int:
        """Append a bias factor; returns its index."""
        return self._add(KIND_BIAS, (int(weight_id), int(var)))

    def add_ising(self, weight_id, i, j) -> int:
        """Append an Ising factor; returns its index."""
        return self._add(KIND_ISING, (int(weight_id), int(i), int(j)))

    def add_rule(self, weight_id, head, groundings, semantics) -> int:
        """Append a rule factor; returns its index.  ``groundings`` is an
        iterable of groundings, each an iterable of ``(var, positive)``
        literals; they land canonical (:func:`rule_table`)."""
        groundings = tuple(
            tuple((int(var), bool(pos)) for var, pos in grounding)
            for grounding in groundings
        )
        code = sem_code(Semantics.coerce(semantics))
        return self._add(KIND_RULE, (int(weight_id), int(head), groundings, code))

    def extended(self, table: FactorTable) -> "FactorList":
        """A new list: this one's factors, then ``table``'s."""
        if self._kind:
            self.table  # the buffered rows come first
        out = FactorList(self._table)
        if len(table):
            out._tail = (*self._tail, table)
            out._tail_len = self._tail_len + len(table)
        else:
            out._tail, out._tail_len = self._tail, self._tail_len
        return out

    @property
    def table(self) -> FactorTable:
        if self._tail:
            self._table = FactorTable.concat((self._table, *self._tail))
            self._tail, self._tail_len = (), 0
        if self._kind:
            bias, ising, rules = self._rows
            wids, heads, groundings, sems = zip(*rules) if rules else ((),) * 4
            columns = rule_table(heads, wids, sems, groundings).columns()
            bias = np.array(bias, dtype=np.int64).reshape(-1, 2)
            ising = np.array(ising, dtype=np.int64).reshape(-1, 3)
            columns.update(
                kind=self._kind,
                bias_wid=bias[:, 0],
                bias_var=bias[:, 1],
                ising_wid=ising[:, 0],
                ising_i=ising[:, 1],
                ising_j=ising[:, 2],
            )
            self._table = FactorTable.concat([self._table, FactorTable(**columns)])
            self._kind, self._rows = [], ([], [], [])
        return self._table

    def copy(self) -> "FactorList":
        """A list of its own over the same table."""
        return FactorList(self.table)

    def __reduce__(self):
        return FactorList, (self.table,)

    def __len__(self) -> int:
        return len(self._table) + self._tail_len + len(self._kind)

    def __iter__(self):
        return iter(self.table.factors())

    def __getitem__(self, index: int):
        return self.table.take([range(len(self))[index]]).factors()[0]

    def __repr__(self) -> str:
        return f"FactorList({len(self)} factors)"


@dataclass
class FactorGraphDelta:
    """A change set against a base :class:`FactorGraph`.

    Attributes
    ----------
    num_new_vars:
        Count of variables appended after the base graph's variables; the
        new ids are ``base.num_vars .. base.num_vars + num_new_vars - 1``.
    new_var_names:
        Optional names for the new variables (same length or empty).
    new_var_evidence:
        Evidence clamps for *new* variables, ``{new var id: value}``.
    new_factors:
        The added factors, which may reference both old and new variable
        ids; weight ids must be valid after ``new_weight_entries`` are
        appended.  Always a :class:`FactorList` — assign one or a
        :class:`FactorTable`, or append rows with its ``add_*``;
        consumers read ``new_factors.table``.
    removed_factor_ids:
        Indexes into the base graph's factor list to drop; every
        consumer checks them (:meth:`removed_ids`) before anything moves.
    evidence_updates:
        ``{existing var id: True/False/None}`` — ``None`` clears evidence
        (a label retracted), a bool sets or flips it (new training data).
    new_weight_entries:
        ``(key, initial value, fixed)`` triples appended to the weight
        store, in order; their ids follow the base store's ids.  Non-empty
        entries mean the update *introduces new features* (optimizer rule 3).
    changed_weight_values:
        ``{existing weight id: new value}`` — e.g. re-learned weights.
    """

    num_new_vars: int = 0
    new_var_names: list = field(default_factory=list)
    new_var_evidence: dict = field(default_factory=dict)
    new_factors: FactorList = field(default_factory=FactorList)
    removed_factor_ids: set = field(default_factory=set)
    evidence_updates: dict = field(default_factory=dict)
    new_weight_entries: list = field(default_factory=list)
    changed_weight_values: dict = field(default_factory=dict)

    def removed_ids(self, num_factors: int) -> np.ndarray:
        """``removed_factor_ids`` ascending, as an array, checked against
        a base of ``num_factors`` factors: ``ValueError`` names the first
        id outside ``[0, num_factors)``."""
        if not self.removed_factor_ids:
            return _NO_IDS
        removed = np.array(sorted(self.removed_factor_ids), dtype=np.int64)
        bad = removed[(removed < 0) | (removed >= num_factors)]
        if bad.size:
            raise ValueError(
                f"removed factor id {int(bad[0])}, outside [0, {num_factors})"
            )
        return removed

    def check_ids(self, num_vars: int, weights) -> None:
        """Every variable and weight id the new factors name exists once
        this delta lands on a base of ``num_vars`` variables over the
        store ``weights`` (whose ids the new keys extend): ``ValueError``
        names the first that does not.  Reads only, so a consumer calls
        it before anything moves."""
        new_keys = {
            key for key, _, _ in self.new_weight_entries if weights.id_for(key) is None
        }
        self.new_factors.table.check_ids(
            num_vars + self.num_new_vars, len(weights) + len(new_keys)
        )

    # ------------------------------------------------------------------ #
    # Classification used by the rule-based optimizer (§3.3)
    # ------------------------------------------------------------------ #

    @property
    def is_empty(self) -> bool:
        return not (
            self.num_new_vars
            or self.new_factors
            or self.removed_factor_ids
            or self.evidence_updates
            or self.new_var_evidence
            or self.new_weight_entries
            or self.changed_weight_values
        )

    @property
    def changes_structure(self) -> bool:
        """True when the variable/factor *structure* of the graph changes."""
        return bool(self.num_new_vars or self.new_factors or self.removed_factor_ids)

    @property
    def changes_evidence(self) -> bool:
        """True when training labels are added, removed, or flipped."""
        return bool(self.evidence_updates)

    @property
    def adds_features(self) -> bool:
        """True when new (tied) weights — i.e. new features — appear."""
        return bool(self.new_weight_entries)

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #

    def apply(self, base: FactorGraph, validate: bool = True) -> FactorGraph:
        """Materialise the updated graph ``base ⊕ delta`` (base untouched).

        This is the validated *oracle* for the compiled-direct patch path
        (``CompiledFactorGraph.apply_delta``), which maintains the same
        state in the substrate's arrays.

        ``validate=False`` skips the O(|graph|) invariant walk — used by
        slow-path callers where the delta comes from the grounder and the
        compiled patch application re-checks ids anyway.
        """
        updated = self.apply_in_place(base.copy())
        if validate:
            updated.validate()
        return updated

    def apply_in_place(self, base: FactorGraph) -> FactorGraph:
        """Apply this delta directly onto ``base``, mutating it: the
        factor table drops the removed rows with ``take`` and gains the
        new ones behind it (:meth:`FactorList.extended`)."""
        removed = self.removed_ids(base.num_factors)
        for key, initial, fixed in self.new_weight_entries:
            base.weights.intern(key, initial=initial, fixed=fixed)
        for wid, value in self.changed_weight_values.items():
            base.weights.set_value(wid, value)

        names = list(self.new_var_names)
        for offset in range(self.num_new_vars):
            name = names[offset] if offset < len(names) else None
            vid = base.add_variable(name=name)
            if offset in self.new_var_evidence:
                base.set_evidence(vid, self.new_var_evidence[offset])

        if removed.size:
            keep = np.ones(base.num_factors, dtype=bool)
            keep[removed] = False
            base.factors = FactorList(base.factor_table().take(keep))
        base.factors = base.factors.extended(self.new_factors.table)

        for var, value in self.evidence_updates.items():
            if value is None:
                base.clear_evidence(var)
            else:
                base.set_evidence(var, value)
        return base

    def base_terms(self, base: FactorGraph) -> tuple:
        """What this delta does to factors ``base`` already has, as
        ``(removed, reweighted, shift)``: the factors it removes and the
        surviving ones whose weight value it moves, both as tables (in
        list order), and ``w_new − w_old`` per weight of ``base``."""
        removed_ids = self.removed_ids(base.num_factors)
        if not (removed_ids.size or self.changed_weight_values):
            return _NO_FACTORS, _NO_FACTORS, _NO_SHIFT
        removed = base.factor_table(removed_ids)
        old = base.weights.values_array()
        shift = np.zeros(old.shape[0])
        for wid, value in self.changed_weight_values.items():
            if wid < shift.shape[0]:
                shift[wid] = value - old[wid]
        reweighted = FactorTable()
        if shift.any():
            survivors = base.factor_table(
                np.setdiff1d(np.arange(base.num_factors), removed_ids)
            )
            reweighted = survivors.take(shift[survivors.weight_ids()] != 0.0)
        return removed, reweighted, shift

    def summary(self) -> str:
        return (
            f"Delta(+vars={self.num_new_vars}, +factors={len(self.new_factors)}, "
            f"-factors={len(self.removed_factor_ids)}, "
            f"evidence={len(self.evidence_updates)}, "
            f"+weights={len(self.new_weight_entries)}, "
            f"~weights={len(self.changed_weight_values)})"
        )


class _FactorListField:
    """``FactorGraphDelta.new_factors``: a write wraps a
    :class:`FactorTable` in a :class:`FactorList`; a read is the
    instance's own attribute (no ``__get__``, so reads cost no call)."""

    def __set__(self, delta, value) -> None:
        if not isinstance(value, FactorList):
            value = FactorList(value)
        delta.__dict__["new_factors"] = value


FactorGraphDelta.new_factors = _FactorListField()


def compose_deltas(
    base: FactorGraph, first: FactorGraphDelta, second: FactorGraphDelta
) -> FactorGraphDelta:
    """Compose two successive deltas into one against ``base``.

    ``first`` is a delta against ``base``; ``second`` is a delta against
    ``base ⊕ first``.  The result satisfies
    ``base ⊕ composed ≡ (base ⊕ first) ⊕ second``.  The incremental
    engine uses this to keep a single cumulative delta against the
    *materialized* graph across many development iterations.
    """
    composed = FactorGraphDelta()

    # --- Variables: first's then second's, second's offsets shifted.
    composed.num_new_vars = first.num_new_vars + second.num_new_vars
    names = list(first.new_var_names)
    names += [None] * (first.num_new_vars - len(names))
    second_names = list(second.new_var_names)
    second_names += [None] * (second.num_new_vars - len(second_names))
    composed.new_var_names = names + second_names
    composed.new_var_evidence = dict(first.new_var_evidence)
    for offset, value in second.new_var_evidence.items():
        composed.new_var_evidence[first.num_new_vars + offset] = value

    # --- Evidence on pre-existing variables.  Updates from ``second``
    # that target variables created by ``first`` become new-var evidence.
    composed.evidence_updates = dict(first.evidence_updates)
    for var, value in second.evidence_updates.items():
        if var >= base.num_vars:
            offset = var - base.num_vars
            if value is None:
                composed.new_var_evidence.pop(offset, None)
            else:
                composed.new_var_evidence[offset] = value
        else:
            composed.evidence_updates[var] = value

    # --- Weights.
    composed.new_weight_entries = list(first.new_weight_entries) + list(
        second.new_weight_entries
    )
    composed.changed_weight_values = dict(first.changed_weight_values)
    base_weights = len(base.weights)
    for wid, value in second.changed_weight_values.items():
        if wid >= base_weights:
            # Value change to a weight ``first`` introduced: fold it into
            # that entry's initial value.
            entry_index = wid - base_weights
            key, _initial, fixed = composed.new_weight_entries[entry_index]
            composed.new_weight_entries[entry_index] = (key, value, fixed)
        else:
            composed.changed_weight_values[wid] = value

    # --- Factors.  ``second.removed_factor_ids`` index the intermediate
    # graph: survivors of base first, then first's new factors.  Survivor
    # indexes translate back to base indexes in O(|first.removed|) per
    # lookup; the grow-only common case (``first`` removes nothing) is an
    # identity map, so neither path builds an O(#factors) index map.  The
    # factors themselves are ``first``'s — masked by what ``second``
    # removed of them — with ``second``'s laid behind, at the composed
    # list's first read (``FactorList.extended``): composing one update
    # after another copies no table.
    removed_first = sorted(first.removed_factor_ids)
    survivors = base.num_factors - len(removed_first)
    composed.removed_factor_ids = set(first.removed_factor_ids)
    kept = first.new_factors
    keep = None
    for removed in second.removed_factor_ids:
        if removed < survivors:
            composed.removed_factor_ids.add(
                removed
                if not removed_first
                else _survivor_to_base(removed, removed_first)
            )
        else:
            if keep is None:
                keep = np.ones(len(kept), dtype=bool)
            keep[removed - survivors] = False
    if keep is not None:
        kept = FactorList(kept.table.take(keep))
    composed.new_factors = kept.extended(second.new_factors.table)
    return composed


def _survivor_to_base(index: int, removed_sorted: list) -> int:
    """Map a post-removal survivor index back to its base-graph index.

    ``removed_sorted`` is the ascending list of removed base indexes; the
    survivor at ``index`` sits ``k`` slots later in the base list, where
    ``k`` counts removed indexes at or below the answer.
    """
    base_index = index
    for removed in removed_sorted:
        if removed <= base_index:
            base_index += 1
        else:
            break
    return base_index
