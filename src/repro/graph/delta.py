"""The ``(∆V, ∆F)`` object connecting grounding to incremental inference.

Incremental grounding (paper §3.1) emits the *changes* to the factor graph:
new variables, new factors, removed factors, evidence flips, and weight
changes.  Incremental inference (§3.2) consumes this object: the sampling
approach evaluates its Metropolis–Hastings acceptance test using **only**
the delta, and the variational approach splices the delta into the
approximated graph.

∆F travels as arrays.  :class:`FactorTable` is the flat layout
:class:`~repro.graph.compiled.CompiledFactorGraph` stores — ``bias_var /
bias_wid``, ``ising_i / ising_j / ising_wid``, ``rule_head / rule_wid /
rule_sem``, ``grounding_ri``, ``lit_gg / lit_var / lit_pos``, rule and
grounding ids local to the table, plus ``kind``, the factor kinds in
list order — and it is the payload of ``FactorGraphDelta.new_factors``:
the grounder flattens its touched records straight into one
(:func:`rule_table`), :func:`compose_deltas` concatenates two, the
variational splice remaps the weight columns, the MH target scores the
columns as they are and ``apply_delta`` appends them to the substrate.
A full ground builds the same columns from its binding batches
(:func:`rule_columns`, then :meth:`FactorTable.canonical`), so a
grounded graph's factor list is born lowered too.
:func:`lower_factors` is the one place factor *objects* become a table;
:class:`FactorList` keeps a lowered list readable as a list of objects
for the oracle paths (``delta.apply``, the strawman, tests) and lowers a
list that was built from objects on first use.
"""

from __future__ import annotations

from collections.abc import MutableSequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.graph.factor_graph import BiasFactor, FactorGraph, IsingFactor, RuleFactor
from repro.graph.semantics import sem_code, sems_from_codes

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
    owner = np.repeat(np.arange(lo.shape[0]), counts)
    first = np.cumsum(counts) - counts
    return np.arange(owner.shape[0]) + (lo - first)[owner], owner


def rule_literals(store, rows) -> tuple:
    """Where the rule rows ``rows`` keep their groundings and literals in
    ``store`` — a :class:`FactorTable`, or the compiled substrate, whose
    rule columns have the same names and the same order.

    Returns ``(grounding_ri, lits, lit_gg)``: per grounding of the rows,
    the position in ``rows`` of its rule; per literal, its position in
    ``store`` and the (renumbered) grounding it belongs to."""
    lo = np.searchsorted(store.grounding_ri, rows, "left")
    hi = np.searchsorted(store.grounding_ri, rows, "right")
    groundings, grounding_ri = expand_ranges(lo, hi)
    lo = np.searchsorted(store.lit_gg, groundings, "left")
    hi = np.searchsorted(store.lit_gg, groundings, "right")
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
    one (sharing the columns it did not touch).
    """

    __slots__ = tuple(_COLUMN_DTYPES)

    def __init__(self, **columns) -> None:
        for name, dtype in _COLUMN_DTYPES.items():
            column = columns.pop(name, None)
            setattr(
                self,
                name,
                _NO_ROWS[name] if column is None else np.asarray(column, dtype=dtype),
            )
        if columns:
            raise TypeError(f"unknown columns {sorted(columns)}")

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
        return {name: getattr(self, name) for name in _COLUMN_DTYPES}

    def variables(self) -> np.ndarray:
        """Every variable id the factors mention (with repeats)."""
        return np.concatenate(
            [self.bias_var, self.ising_i, self.ising_j, self.rule_head, self.lit_var]
        )

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
        rule_f = np.flatnonzero(self.kind == KIND_RULE)
        ising_f = np.flatnonzero(self.kind == KIND_ISING)
        owner = np.concatenate([rule_f, rule_f[self.lit_ri], ising_f, ising_f])
        var = np.concatenate([self.rule_head, self.lit_var, self.ising_i, self.ising_j])
        n = int(var.max()) + 1 if var.size else 1
        # Distinct (factor, variable) memberships, sorted: each one pairs
        # with the later members of its factor.
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
        for code, name in enumerate(("bias_wid", "ising_wid", "rule_wid")):
            columns[name] = wids[self.kind == code]
        return FactorTable(**columns)

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
        return FactorTable(
            kind=kind,
            bias_var=self.bias_var[bias],
            bias_wid=self.bias_wid[bias],
            ising_i=self.ising_i[ising],
            ising_j=self.ising_j[ising],
            ising_wid=self.ising_wid[ising],
            **gather_rules(self, local[kind == KIND_RULE]),
        )

    def _masked(self, keep: np.ndarray) -> "FactorTable":
        bias, ising, rules = (
            keep[self.kind == code] for code in (KIND_BIAS, KIND_ISING, KIND_RULE)
        )
        groundings = rules[self.grounding_ri]
        lits = groundings[self.lit_gg]
        return FactorTable(
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

    @staticmethod
    def concat(tables) -> "FactorTable":
        """One table for the tables' lists laid end to end."""
        tables = [table for table in tables if len(table)]
        if not tables:
            return FactorTable()
        if len(tables) == 1:
            return tables[0]
        columns = {
            name: [getattr(table, name) for table in tables]
            for name in _COLUMN_DTYPES
        }
        rules = groundings = 0
        for k, table in enumerate(tables):
            if k:
                columns["grounding_ri"][k] = table.grounding_ri + rules
                columns["lit_gg"][k] = table.lit_gg + groundings
            rules += table.num_rules
            groundings += table.grounding_ri.shape[0]
        return FactorTable(
            **{name: np.concatenate(parts) for name, parts in columns.items()}
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
        """The factor objects the table stands for (oracle view)."""
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


def lower_factors(factors) -> FactorTable:
    """Factor objects → :class:`FactorTable` (the package's one walk over
    factor kinds)."""
    kind = []
    bias_var, bias_wid = [], []
    ising_i, ising_j, ising_wid = [], [], []
    heads, wids, sems, groundings = [], [], [], []
    for factor in factors:
        if isinstance(factor, RuleFactor):
            kind.append(KIND_RULE)
            heads.append(factor.head)
            wids.append(factor.weight_id)
            sems.append(sem_code(factor.semantics))
            groundings.append(factor.groundings)
        elif isinstance(factor, IsingFactor):
            kind.append(KIND_ISING)
            ising_i.append(factor.i)
            ising_j.append(factor.j)
            ising_wid.append(factor.weight_id)
        elif isinstance(factor, BiasFactor):
            kind.append(KIND_BIAS)
            bias_var.append(factor.var)
            bias_wid.append(factor.weight_id)
        else:
            raise TypeError(f"unknown factor type {type(factor)!r}")
    columns = rule_table(heads, wids, sems, groundings).columns()
    columns.update(
        kind=kind,
        bias_var=bias_var,
        bias_wid=bias_wid,
        ising_i=ising_i,
        ising_j=ising_j,
        ising_wid=ising_wid,
    )
    return FactorTable(**columns)


class FactorList(MutableSequence):
    """A list of factor objects backed by a :class:`FactorTable`:
    ``FactorGraphDelta.new_factors``, and the factor list of a grounded
    :class:`~repro.graph.factor_graph.FactorGraph`.

    Built from objects, it lowers them on the first ``table`` read; born
    lowered (:meth:`from_table`), it builds the objects on the first read
    that needs them — iteration, indexing, comparison — and ``len``,
    :meth:`copy` and pickling never do.  Either form is cached; a
    mutation goes through the objects and drops the table.
    """

    __slots__ = ("_objects", "_table")

    def __init__(self, factors=()) -> None:
        self._objects = list(factors)
        self._table = None

    @classmethod
    def from_table(cls, table: FactorTable) -> "FactorList":
        self = cls.__new__(cls)
        self._objects = None
        self._table = table
        return self

    @property
    def table(self) -> FactorTable:
        if self._table is None:
            self._table = lower_factors(self._objects)
        return self._table

    @property
    def materialized(self) -> bool:
        """Whether the factor objects exist (the update path never asks)."""
        return self._objects is not None

    def _factors(self) -> list:
        if self._objects is None:
            self._objects = self._table.factors()
        return self._objects

    def copy(self) -> "FactorList":
        """A list of its own over the same table and objects."""
        clone = FactorList.from_table(self._table)
        if self._objects is not None:
            clone._objects = list(self._objects)
        return clone

    def __reduce__(self):
        if self._table is not None:
            return FactorList.from_table, (self._table,)
        return FactorList, (self._objects,)

    def __len__(self) -> int:
        return len(self._table if self._objects is None else self._objects)

    def __iter__(self):
        return iter(self._factors())

    def __getitem__(self, index):
        return self._factors()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (FactorList, list)):
            return self._factors() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FactorList({len(self)} factors)"

    def __setitem__(self, index, factor) -> None:
        self._factors()[index] = factor
        self._table = None

    def __delitem__(self, index) -> None:
        del self._factors()[index]
        self._table = None

    def insert(self, index, factor) -> None:
        self._factors().insert(index, factor)
        self._table = None


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
        The added factors (Rule/Ising/Bias), which may reference both old
        and new variable ids; weight ids must be valid after
        ``new_weight_entries`` are appended.  Always a :class:`FactorList`
        — assign a :class:`FactorTable`-backed one or any iterable of
        factor objects; consumers on the update path read
        ``new_factors.table``.
    removed_factor_ids:
        Indexes into the base graph's factor list to drop.
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

    def __setattr__(self, name, value) -> None:
        if name == "new_factors" and not isinstance(value, FactorList):
            value = FactorList(value)
        object.__setattr__(self, name, value)

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
        state without ever materializing a factor list.

        ``validate=False`` skips the O(|graph|) invariant walk — used by
        slow-path callers where the delta comes from the grounder and the
        compiled patch application re-checks ids anyway.
        """
        updated = self.apply_in_place(base.copy())
        if validate:
            updated.validate()
        return updated

    def apply_in_place(self, base: FactorGraph) -> FactorGraph:
        """Apply this delta directly onto ``base``, mutating it.

        A lowered factor list (:class:`FactorList`) stays lowered: it
        drops the removed factors with ``take`` and appends the new ones
        by table concatenation, and builds no object.  A list of objects
        removes through a set-difference tail splice — only the list from
        ``min(removed_factor_ids)`` onward is rebuilt — and extends.
        """
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

        removed = self.removed_factor_ids
        factors = base.factors
        if isinstance(factors, FactorList):
            table = factors.table
            if removed:
                keep = np.ones(len(table), dtype=bool)
                keep[list(removed)] = False
                table = table.take(keep)
            base.factors = FactorList.from_table(
                FactorTable.concat([table, self.new_factors.table])
            )
        else:
            if removed:
                lo = min(removed)
                tail = [
                    f
                    for fi, f in enumerate(factors[lo:], start=lo)
                    if fi not in removed
                ]
                del factors[lo:]
                factors.extend(tail)
            factors.extend(self.new_factors)

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
        if not (self.removed_factor_ids or self.changed_weight_values):
            return FactorTable(), FactorTable(), np.zeros(0)
        removed_ids = sorted(self.removed_factor_ids)
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
    # factors themselves are two tables laid end to end, ``first``'s
    # masked by what ``second`` removed of it.
    removed_first = sorted(first.removed_factor_ids)
    survivors = base.num_factors - len(removed_first)
    composed.removed_factor_ids = set(first.removed_factor_ids)
    kept = first.new_factors.table
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
        kept = kept.take(keep)
    composed.new_factors = FactorList.from_table(
        FactorTable.concat([kept, second.new_factors.table])
    )
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
