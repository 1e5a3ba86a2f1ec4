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
    """Inverse of :func:`sem_code` (used when reconstructing a compiled
    graph from its flat arrays, e.g. in sampler worker processes)."""
    try:
        return _SEM_FROM_CODE[int(code)]
    except KeyError:
        raise ValueError(f"unknown semantics code {code!r}") from None


def sems_from_codes(codes) -> list:
    """:func:`sem_from_code` over an array of codes, as a list."""
    return list(map(_SEM_FROM_CODE.__getitem__, np.asarray(codes).tolist()))


def g_code_array(code: int, n: np.ndarray) -> np.ndarray:
    """Vectorised ``g`` for a single semantics *code* (uniform batch)."""
    n = np.asarray(n, dtype=float)
    if code == SEM_LINEAR:
        return n
    if code == SEM_RATIO:
        return np.log1p(n)
    if code == SEM_LOGICAL:
        return (n > 0).astype(float)
    raise ValueError(f"unknown semantics code {code!r}")


def g_coded(codes: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Vectorised ``g`` over parallel arrays of semantics codes and counts."""
    n = np.asarray(n, dtype=float)
    return np.where(
        codes == SEM_RATIO, np.log1p(n), np.where(codes == SEM_LOGICAL, n > 0, n)
    )
