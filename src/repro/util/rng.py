"""Random-number-generator plumbing.

Every stochastic component in the library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`numpy.random.Generator` (shared stream).  Centralising the
conversion here keeps experiments reproducible end to end.
"""

from __future__ import annotations

import numpy as np

Seed = "int | np.random.Generator | None"


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged so that callers can
    thread one stream through a pipeline of components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RngMixin:
    """Mixin giving a class a lazily created private generator."""

    def _init_rng(self, seed=None) -> None:
        self._rng = as_generator(seed)

    @property
    def rng(self) -> np.random.Generator:
        if not hasattr(self, "_rng"):
            self._rng = as_generator(None)
        return self._rng
