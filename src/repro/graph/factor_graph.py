"""Mutable factor-graph model.

Variables are Boolean random variables (one per tuple in the user schema,
paper §2.4).  Factors come in three kinds:

* :class:`RuleFactor` — the paper's general inference-rule factor: a head
  variable, a bag of body *groundings* (each a conjunction of signed
  literals over variables), a tied weight, and a semantics ``g``.  Its
  energy is ``w · sign(head, I) · g(#satisfied groundings)`` (Eq. 1).
* :class:`IsingFactor` — a pairwise binary potential ``w · σ_i · σ_j`` with
  ``σ = 2x − 1``.  These are emitted by the variational approximation
  (Algorithm 1 outputs pairwise-only graphs) and by synthetic workloads.
* :class:`BiasFactor` — a unary potential ``w · σ_v``; the per-tuple prior
  weight ``w_a : R(a)`` of Appendix A.

Weights are stored once in a :class:`WeightStore` and referenced by id so
that *weight tying* (§2.3) works: factors grounded from the same rule with
the same feature key share a single learnable parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.graph.semantics import Semantics, g_value

# A literal is (variable id, required truth value); a grounding is a
# conjunction of literals.  An empty grounding is vacuously satisfied
# (it arises when all body atoms of a rule ground to known facts).
Literal = "tuple[int, bool]"
Grounding = "tuple[Literal, ...]"


@dataclass(frozen=True)
class RuleFactor:
    """General inference-rule factor (paper Eq. 1)."""

    weight_id: int
    head: int
    groundings: tuple
    semantics: Semantics

    def variables(self):
        """All distinct variable ids this factor touches."""
        seen = {self.head}
        for grounding in self.groundings:
            for var, _ in grounding:
                seen.add(var)
        return seen

    def unit_energy(self, assignment) -> float:
        """``sign(head) · g(n)`` — the energy per unit of weight."""
        sign = 1.0 if assignment[self.head] else -1.0
        n = sum(
            1
            for grounding in self.groundings
            if all(bool(assignment[var]) == pos for var, pos in grounding)
        )
        return sign * g_value(self.semantics, n)

    def energy(self, assignment, weights: "WeightStore") -> float:
        """``w · sign(head) · g(n)`` under ``assignment`` (bool array)."""
        return weights.value(self.weight_id) * self.unit_energy(assignment)


@dataclass(frozen=True)
class IsingFactor:
    """Pairwise spin-coupling potential ``w · σ_i · σ_j``."""

    weight_id: int
    i: int
    j: int

    def variables(self):
        return {self.i, self.j}

    def unit_energy(self, assignment) -> float:
        si = 1.0 if assignment[self.i] else -1.0
        sj = 1.0 if assignment[self.j] else -1.0
        return si * sj

    def energy(self, assignment, weights: "WeightStore") -> float:
        return weights.value(self.weight_id) * self.unit_energy(assignment)


@dataclass(frozen=True)
class BiasFactor:
    """Unary potential ``w · σ_v``."""

    weight_id: int
    var: int

    def variables(self):
        return {self.var}

    def unit_energy(self, assignment) -> float:
        return 1.0 if assignment[self.var] else -1.0

    def energy(self, assignment, weights: "WeightStore") -> float:
        return weights.value(self.weight_id) * self.unit_energy(assignment)


class WeightStore:
    """Interned, tied weights backed by a contiguous float64 array.

    Each weight has a hashable *key* (typically ``(rule name, feature)``),
    a float value, and a ``fixed`` flag marking weights excluded from
    learning (e.g. hard supervision-rule weights).  Values live in a
    capacity-doubling numpy array so :meth:`values_array` is an O(1)
    view — the compiled Gibbs kernels gather weights straight from it
    instead of calling :meth:`value` per incidence.
    """

    _INITIAL_CAPACITY = 8

    def __init__(self) -> None:
        self._values = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._fixed = np.zeros(self._INITIAL_CAPACITY, dtype=bool)
        self._size = 0
        self._keys: list = []
        self._by_key: dict = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped on any value mutation or intern.

        Samplers use it to skip weight-vector refreshes between sweeps
        when nothing changed.
        """
        return self._version

    def __len__(self) -> int:
        return self._size

    def _check(self, weight_id: int) -> None:
        if not 0 <= weight_id < self._size:
            raise IndexError(
                f"weight id {weight_id} out of range [0, {self._size})"
            )

    def intern(self, key, initial: float = 0.0, fixed: bool = False) -> int:
        """Return the id for ``key``, creating it with ``initial`` if new.

        Re-interning an existing key returns the existing id and leaves the
        stored value untouched (this is what makes weight tying work across
        rule groundings).
        """
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        wid = self._size
        if wid == len(self._values):
            grown = np.zeros(2 * len(self._values), dtype=np.float64)
            grown[:wid] = self._values
            self._values = grown
            grown_fixed = np.zeros(2 * len(self._fixed), dtype=bool)
            grown_fixed[:wid] = self._fixed
            self._fixed = grown_fixed
        self._values[wid] = float(initial)
        self._fixed[wid] = bool(fixed)
        self._size += 1
        self._keys.append(key)
        self._by_key[key] = wid
        self._version += 1
        return wid

    def id_for(self, key):
        """The id of ``key`` or ``None`` if it has not been interned."""
        return self._by_key.get(key)

    def key_for(self, weight_id: int):
        self._check(weight_id)
        return self._keys[weight_id]

    def value(self, weight_id: int) -> float:
        self._check(weight_id)
        return float(self._values[weight_id])

    def set_value(self, weight_id: int, value: float) -> None:
        self._check(weight_id)
        self._values[weight_id] = float(value)
        self._version += 1

    def is_fixed(self, weight_id: int) -> bool:
        self._check(weight_id)
        return bool(self._fixed[weight_id])

    def values_array(self) -> np.ndarray:
        """O(1) read-only view of the current weight values.

        The view stays in sync with :meth:`set_value` /
        :meth:`set_values_array` (both write in place); interning *new*
        weights may reallocate the backing array, so long-lived holders
        should re-fetch rather than cache across interns.
        """
        view = self._values[: self._size]
        view.flags.writeable = False
        return view

    def set_values_array(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self._size,):
            raise ValueError(
                f"expected {self._size} weights, got shape {values.shape}"
            )
        self._values[: self._size] = values
        self._version += 1

    def learnable_ids(self) -> list:
        return np.flatnonzero(~self._fixed[: self._size]).tolist()

    def snapshot_state(self) -> dict:
        """Capture values/keys/version for transactional rollback."""
        return {
            "values": self._values[: self._size].copy(),
            "fixed": self._fixed[: self._size].copy(),
            "size": self._size,
            "keys_len": len(self._keys),
            "version": self._version,
        }

    def restore_state(self, snap: dict) -> None:
        """Roll back to a :meth:`snapshot_state` capture.

        Writes values in place and resets — not bumps — the version, so
        version-gated caches built before the failed mutation stay valid
        (their incrementally maintained fields match the restored values
        bit for bit, which a forced rebuild would not guarantee)."""
        size = snap["size"]
        for key in self._keys[size:]:
            self._by_key.pop(key, None)
        del self._keys[size:]
        self._size = size
        self._values[:size] = snap["values"]
        self._fixed[:size] = snap["fixed"]
        self._version = snap["version"]

    def fixed_mask(self) -> np.ndarray:
        """Read-only boolean view: True where the weight is fixed."""
        view = self._fixed[: self._size]
        view.flags.writeable = False
        return view

    def copy(self) -> "WeightStore":
        clone = WeightStore()
        clone._values = self._values.copy()
        clone._fixed = self._fixed.copy()
        clone._size = self._size
        clone._keys = list(self._keys)
        clone._by_key = dict(self._by_key)
        clone._version = self._version
        return clone

    def items(self):
        """Iterate ``(key, value)`` pairs in id order."""
        return zip(self._keys, self._values[: self._size].tolist())


class FactorGraph:
    """A factor graph ``(V, F, w)`` over Boolean variables.

    Evidence variables (``E = P ∪ N`` in §2.4) are clamped to fixed values;
    query variables are free.  The graph owns a :class:`WeightStore`.
    ``factors`` is a list of factor objects, or — for a grounded graph —
    a :class:`~repro.graph.delta.FactorList` born lowered, which the
    compile, :meth:`copy`, :meth:`validate` and :meth:`factor_table` read
    as a table without building an object.
    """

    def __init__(self, weights: WeightStore | None = None) -> None:
        self.weights = weights if weights is not None else WeightStore()
        self.factors: list = []
        self._num_vars = 0
        self._names: list = []
        self._evidence: dict = {}
        self._evidence_view = MappingProxyType(self._evidence)
        self._evidence_arrays = None

    def __getstate__(self):
        # MappingProxyType is not picklable; the view is rebuilt over
        # the evidence dict on load (service checkpoints pickle whole
        # graphs).
        state = self.__dict__.copy()
        state.pop("_evidence_view", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._evidence_view = MappingProxyType(self._evidence)

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def add_variable(self, name=None, evidence=None) -> int:
        """Add one variable; returns its id.

        ``evidence`` may be ``True``/``False`` to clamp the variable.
        """
        vid = self._num_vars
        self._num_vars += 1
        self._names.append(name)
        if evidence is not None:
            self._evidence[vid] = bool(evidence)
            self._evidence_arrays = None
        return vid

    def add_variables(self, count: int) -> range:
        """Add ``count`` anonymous free variables; returns their id range."""
        start = self._num_vars
        self._num_vars += count
        self._names.extend([None] * count)
        return range(start, self._num_vars)

    def add_named_variables(self, names) -> range:
        """Add one free variable per name in one pass; returns the range."""
        start = self._num_vars
        self._names.extend(names)
        self._num_vars = len(self._names)
        return range(start, self._num_vars)

    def name_of(self, var: int):
        return self._names[var]

    def set_evidence(self, var: int, value: bool) -> None:
        self._check_var(var)
        self._evidence[var] = bool(value)
        self._evidence_arrays = None

    def clear_evidence(self, var: int) -> None:
        if self._evidence.pop(var, None) is not None:
            self._evidence_arrays = None

    def is_evidence(self, var: int) -> bool:
        return var in self._evidence

    def evidence_value(self, var: int):
        """The clamped value of ``var`` or ``None`` if it is free."""
        return self._evidence.get(var)

    @property
    def evidence(self):
        """Read-only live view of the evidence map ``{var: value}``.

        This is a :class:`types.MappingProxyType` over the internal dict —
        no copy is made, so hot paths may access it freely.
        """
        return self._evidence_view

    def evidence_arrays(self) -> tuple:
        """Cached ``(vars, values)`` arrays of the evidence map.

        Invalidated on any evidence mutation; used to clamp assignments
        and build masks without per-variable Python loops.
        """
        cached = self._evidence_arrays
        if cached is None:
            count = len(self._evidence)
            ev_vars = np.fromiter(
                self._evidence.keys(), dtype=np.int64, count=count
            )
            ev_vals = np.fromiter(
                self._evidence.values(), dtype=bool, count=count
            )
            cached = self._evidence_arrays = (ev_vars, ev_vals)
        return cached

    def free_variables(self) -> list:
        return [v for v in range(self._num_vars) if v not in self._evidence]

    def evidence_mask(self) -> np.ndarray:
        mask = np.zeros(self._num_vars, dtype=bool)
        ev_vars, _ = self.evidence_arrays()
        mask[ev_vars] = True
        return mask

    def initial_assignment(self, rng=None) -> np.ndarray:
        """A world consistent with evidence; free variables random or False."""
        x = np.zeros(self._num_vars, dtype=bool)
        if rng is not None:
            x = rng.random(self._num_vars) < 0.5
        ev_vars, ev_vals = self.evidence_arrays()
        x[ev_vars] = ev_vals
        return x

    # ------------------------------------------------------------------ #
    # Factors
    # ------------------------------------------------------------------ #

    def add_rule_factor(self, weight_id, head, groundings, semantics) -> int:
        """Add a rule factor; returns its index in ``self.factors``.

        ``groundings`` is an iterable of groundings, each an iterable of
        ``(var, positive)`` literals.
        """
        semantics = Semantics.coerce(semantics)
        self._check_var(head)
        frozen = []
        for grounding in groundings:
            lits = tuple((int(v), bool(p)) for v, p in grounding)
            for var, _ in lits:
                self._check_var(var)
            frozen.append(lits)
        factor = RuleFactor(
            weight_id=int(weight_id),
            head=int(head),
            groundings=tuple(frozen),
            semantics=semantics,
        )
        self._check_weight(factor.weight_id)
        self.factors.append(factor)
        return len(self.factors) - 1

    def add_ising_factor(self, weight_id, i, j) -> int:
        self._check_var(i)
        self._check_var(j)
        if i == j:
            raise ValueError("Ising factor endpoints must differ")
        self._check_weight(weight_id)
        self.factors.append(IsingFactor(int(weight_id), int(i), int(j)))
        return len(self.factors) - 1

    def add_bias_factor(self, weight_id, var) -> int:
        self._check_var(var)
        self._check_weight(weight_id)
        self.factors.append(BiasFactor(int(weight_id), int(var)))
        return len(self.factors) - 1

    def factor_table(self, indices=None):
        """The factors at ``indices`` of the factor list (all of them by
        default), in that order, as a
        :class:`~repro.graph.delta.FactorTable`: a lowered list and a
        compiled view gather it from their arrays without building a
        factor object."""
        from repro.graph.delta import FactorList, lower_factors

        factors = self.factors
        if isinstance(factors, FactorList):
            table = factors.table
            if indices is None:
                return table
            return table.take(np.asarray(indices, dtype=np.int64))
        if indices is None:
            return lower_factors(factors)
        return lower_factors([factors[index] for index in indices])

    # ------------------------------------------------------------------ #
    # Energy / probability
    # ------------------------------------------------------------------ #

    def energy(self, assignment) -> float:
        """Total log-weight ``W(F, I)`` of a world (paper §2.5)."""
        assignment = np.asarray(assignment, dtype=bool)
        if assignment.shape != (self._num_vars,):
            raise ValueError(
                f"assignment must have shape ({self._num_vars},), "
                f"got {assignment.shape}"
            )
        return sum(f.energy(assignment, self.weights) for f in self.factors)

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def neighbor_pairs(self) -> np.ndarray:
        """Each unordered variable pair ``(a, b)``, ``a < b``, co-occurring
        in some factor, ascending, as a ``(k, 2)`` array.

        This is the ``NZ`` set of Algorithm 1 (variational materialization).
        """
        return self.factor_table().neighbor_pairs()

    def copy(self, share_weights: bool = False) -> "FactorGraph":
        """Deep-enough copy: immutable factors shared, weights copied.

        A lowered factor list is copied as its table, never materialized.
        With ``share_weights=True`` the clone references the *same*
        :class:`WeightStore`, so learning on one graph is visible to the
        other (used for the conditioned/free chain pair in SGD).
        """
        clone = FactorGraph(self.weights if share_weights else self.weights.copy())
        clone.factors = self.factors.copy()
        clone._num_vars = self._num_vars
        clone._names = list(self._names)
        clone._evidence.update(self._evidence)
        return clone

    def free_twin(self) -> "FactorGraph":
        """This structure over the *same* :class:`WeightStore` with
        nothing clamped: the graph of SGD learning's free chain."""
        twin = self.copy(share_weights=True)
        twin._evidence.clear()
        return twin

    @classmethod
    def from_compiled(cls, compiled, share_weights: bool = False) -> "FactorGraph":
        """Materialize a plain mutable graph from a compiled substrate.

        The compiled substrate is the source of truth for graph state;
        this is the oracle-view escape hatch for slow paths (strawman, exact
        inference, test references) that need a real factor list.  O(#factors) — never call it on the
        default update path.
        """
        graph = cls(compiled.weights if share_weights else compiled.weights.copy())
        graph._num_vars = compiled.num_vars
        graph._names = list(compiled.names)
        graph._evidence.update(compiled.evidence_dict)
        graph.factors = list(compiled.materialized_factors())
        return graph

    def validate(self) -> None:
        """Check internal invariants; raises ``ValueError`` on violation:
        range checks on the factor table's id columns and the evidence."""
        self.factor_table().check_ids(self._num_vars, len(self.weights))
        ev_vars, _ = self.evidence_arrays()
        if ev_vars.size and not 0 <= ev_vars.min() <= ev_vars.max() < self._num_vars:
            bad = ev_vars[(ev_vars < 0) | (ev_vars >= self._num_vars)][0]
            raise ValueError(f"evidence on unknown variable {int(bad)}")

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _check_var(self, var) -> None:
        if not 0 <= int(var) < self._num_vars:
            raise ValueError(
                f"variable id {var} out of range [0, {self._num_vars})"
            )

    def _check_weight(self, weight_id) -> None:
        if not 0 <= int(weight_id) < len(self.weights):
            raise ValueError(f"weight id {weight_id} not in store")

    def __repr__(self) -> str:
        return (
            f"FactorGraph(vars={self._num_vars}, factors={len(self.factors)}, "
            f"weights={len(self.weights)}, evidence={len(self._evidence)})"
        )


class CompiledGraphView(FactorGraph):
    """Read-mostly :class:`FactorGraph` facade over a compiled substrate.

    The :class:`~repro.graph.compiled.CompiledFactorGraph` owns the graph
    state (CSR arrays + the factor-handle table); this view exposes the
    classic ``FactorGraph`` API on top of it without holding a factor
    list of its own.  ``factors`` lazily materializes from the handle
    table (version-stamped cache in the substrate), so slow-path oracles
    keep working while the default update path never pays O(#factors).

    Structure is immutable through the view — patch the substrate
    instead.  Evidence mutation is allowed and writes through to the
    shared evidence dict (the compiled kernels always read *current*
    evidence at plan time).
    """

    def __init__(self, compiled, evidence: dict | None = None) -> None:
        # Deliberately does NOT call FactorGraph.__init__: ``factors``
        # and ``_num_vars`` are properties delegating to the substrate.
        self._compiled = compiled
        self.weights = compiled.weights
        self._names = compiled.names
        self._evidence = compiled.evidence_dict if evidence is None else evidence
        self._evidence_view = MappingProxyType(self._evidence)
        self._evidence_arrays = None

    @property
    def compiled(self):
        """The owning substrate."""
        return self._compiled

    @property
    def _num_vars(self) -> int:
        return self._compiled.num_vars

    @property
    def num_factors(self) -> int:
        return self._compiled.num_factors

    @property
    def factors(self) -> list:
        return self._compiled.materialized_factors()

    def factor_table(self, indices=None):
        if indices is None:
            return self._compiled._live_table()
        return self._compiled.factor_table(indices)

    # --- Structural mutation goes through the substrate, not the view.

    def _immutable(self, what: str):
        raise TypeError(
            f"cannot {what} through a CompiledGraphView; apply a delta to "
            "the compiled substrate (CompiledFactorGraph.apply_delta) or "
            "materialize a mutable copy via FactorGraph.from_compiled()"
        )

    def add_variable(self, name=None, evidence=None) -> int:
        self._immutable("add variables")

    def add_variables(self, count: int) -> range:
        self._immutable("add variables")

    def add_named_variables(self, names) -> range:
        self._immutable("add variables")

    def add_rule_factor(self, weight_id, head, groundings, semantics) -> int:
        self._immutable("add factors")

    def add_ising_factor(self, weight_id, i, j) -> int:
        self._immutable("add factors")

    def add_bias_factor(self, weight_id, var) -> int:
        self._immutable("add factors")

    def copy(self, share_weights: bool = False) -> "FactorGraph":
        """Copy semantics for views.

        ``share_weights=True`` returns another *lazy* view over the same
        substrate with an independent evidence dict (the SGD free-chain
        twin: shared weights, private evidence, no materialization).
        ``share_weights=False`` materializes a fully detached mutable
        :class:`FactorGraph` (oracle semantics).
        """
        if share_weights:
            return CompiledGraphView(self._compiled, evidence=dict(self._evidence))
        graph = FactorGraph.from_compiled(self._compiled, share_weights=False)
        graph._evidence.clear()
        graph._evidence.update(self._evidence)
        graph._evidence_arrays = None
        return graph

    def free_twin(self) -> "FactorGraph":
        return CompiledGraphView(self._compiled, evidence={})

    def __repr__(self) -> str:
        return (
            f"CompiledGraphView(vars={self._num_vars}, "
            f"factors={self.num_factors}, weights={len(self.weights)}, "
            f"evidence={len(self._evidence)})"
        )
