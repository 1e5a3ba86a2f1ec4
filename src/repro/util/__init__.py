"""Shared utilities: deterministic RNG management, timers, statistics.

These helpers are deliberately tiny; everything substantive lives in the
domain packages (``repro.graph``, ``repro.inference``, ``repro.core`` ...).
"""

from repro.util.rng import RngMixin, as_generator
from repro.util.stats import (
    empirical_marginals,
    kl_divergence_bernoulli,
    max_marginal_error,
    total_variation,
)
from repro.util.tables import format_table
from repro.util.timer import Timer

__all__ = [
    "RngMixin",
    "Timer",
    "as_generator",
    "empirical_marginals",
    "format_table",
    "kl_divergence_bernoulli",
    "max_marginal_error",
    "total_variation",
]
