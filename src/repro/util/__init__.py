"""Shared utilities: deterministic RNG management, statistics, tables.

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

__all__ = [
    "RngMixin",
    "as_generator",
    "empirical_marginals",
    "format_table",
    "kl_divergence_bernoulli",
    "max_marginal_error",
    "total_variation",
]
