"""The three grounding-count semantics of Figure 4.

A rule factor's energy is ``w · sign(head, I) · g(n)`` where ``n`` is the
number of satisfied body groundings (paper Eq. 1).  ``g`` is a
"transformation group" choice that models different noise assumptions:

* ``LINEAR``  — ``g(n) = n`` — raw counts are meaningful (classic MLN).
* ``RATIO``   — ``g(n) = log(1 + n)`` — vote *ratios* matter (Ex. 2.5).
* ``LOGICAL`` — ``g(n) = 1{n > 0}`` — existence only.

The paper shows (§2.3, Fig. 10b, App. A) that the choice affects both KBC
quality (up to 10% F1) and Gibbs mixing time (linear mixes exponentially
slowly on voting programs; logical/ratio mix in O(n log n)).

Over arrays, ``g`` is a table: counts are integers bounded by the largest
number of groundings any rule owns, so :func:`g_table` tabulates the three
functions once per process and a batch of mixed-semantics rules evaluates
as the single gather ``G[codes, counts]``.  The table's columns come from
the elementwise float64 expressions ``n``, ``np.log1p(n)`` and ``n > 0``
— the ones ``np.where``-selecting ``g`` per element would evaluate on the
counts themselves — so a looked-up value is bit-equal to a computed one
(``tests/reference/gibbs.py`` keeps the computed form and
``tests/test_sweep_kernel.py`` compares every column with it).
"""

from __future__ import annotations

import enum
import math

import numpy as np


class Semantics(enum.Enum):
    """Choice of the ``g`` function applied to grounding counts."""

    LINEAR = "linear"
    RATIO = "ratio"
    LOGICAL = "logical"

    @classmethod
    def coerce(cls, value) -> "Semantics":
        """Accept a :class:`Semantics`, or its string name ("ratio" etc.)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                raise ValueError(
                    f"unknown semantics {value!r}; expected one of "
                    f"{[m.value for m in cls]}"
                ) from None
        raise TypeError(f"cannot interpret {value!r} as Semantics")


def g_value(semantics: Semantics, n: int) -> float:
    """Evaluate ``g(n)`` for a single non-negative count ``n``."""
    if n < 0:
        raise ValueError(f"grounding count must be non-negative, got {n}")
    if semantics is Semantics.LINEAR:
        return float(n)
    if semantics is Semantics.RATIO:
        return math.log1p(n)
    if semantics is Semantics.LOGICAL:
        return 1.0 if n > 0 else 0.0
    raise TypeError(f"unknown semantics {semantics!r}")


def g_array(semantics: Semantics, n: np.ndarray) -> np.ndarray:
    """Vectorised ``g`` over an array of counts."""
    n = np.asarray(n, dtype=float)
    if semantics is Semantics.LINEAR:
        return n
    if semantics is Semantics.RATIO:
        return np.log1p(n)
    if semantics is Semantics.LOGICAL:
        return (n > 0).astype(float)
    raise TypeError(f"unknown semantics {semantics!r}")


# Integer codes for the compiled (flat-array) factor graph: rule factors
# store their semantics as an int8 so mixed-semantics batches can be
# evaluated without touching enum objects.
SEM_LINEAR, SEM_RATIO, SEM_LOGICAL = 0, 1, 2

_SEM_CODES = {
    Semantics.LINEAR: SEM_LINEAR,
    Semantics.RATIO: SEM_RATIO,
    Semantics.LOGICAL: SEM_LOGICAL,
}


def sem_code(semantics: Semantics) -> int:
    """The int8 code of ``semantics`` used by compiled rule arrays."""
    return _SEM_CODES[Semantics.coerce(semantics)]


_SEM_FROM_CODE = {code: sem for sem, code in _SEM_CODES.items()}


def sem_from_code(code: int) -> Semantics:
    """Inverse of :func:`sem_code` (used when reconstructing factors
    from a compiled graph's flat arrays)."""
    try:
        return _SEM_FROM_CODE[int(code)]
    except KeyError:
        raise ValueError(f"unknown semantics code {code!r}") from None


def sems_from_codes(codes) -> list:
    """:func:`sem_from_code` over an array of codes, as a list."""
    return list(map(_SEM_FROM_CODE.__getitem__, np.asarray(codes).tolist()))


#: The three ``g`` functions tabulated over counts ``0 … cols − 1``, one
#: row per semantics code.  Process-local and grown by doubling: it is a
#: pure function of its width, so it is never pickled or exported.
_G_TABLE = None


def _g_rows(lo: int, hi: int) -> np.ndarray:
    n = np.arange(lo, hi, dtype=np.float64)
    rows = np.empty((3, hi - lo), dtype=np.float64)
    rows[SEM_LINEAR] = n
    rows[SEM_RATIO] = np.log1p(n)
    rows[SEM_LOGICAL] = n > 0
    return rows


def g_table(n_max: int) -> np.ndarray:
    """``G`` with ``G[code, n] == g(n)`` for every ``0 ≤ n ≤ n_max``.

    A read-only ``(3, ≥ n_max + 1)`` float64 table: mixed-semantics
    batches evaluate ``g`` as the one gather ``G[codes, counts]`` (integer
    counts).  The columns are filled by the array expressions ``n``,
    ``np.log1p(n)`` and ``n > 0`` over float64 ``n`` — what evaluating
    ``g`` on the counts directly computes — so a lookup is bit-equal to
    it."""
    global _G_TABLE
    table = _G_TABLE
    if table is None or n_max >= table.shape[1]:
        have = 0 if table is None else table.shape[1]
        cols = max(64, 2 * have)
        while cols <= n_max:
            cols *= 2
        grown = _g_rows(have, cols)
        if have:
            grown = np.concatenate([table, grown], axis=1)
        grown.flags.writeable = False
        _G_TABLE = table = grown
    return table
