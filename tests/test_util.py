"""Tests for the utility layer: stats, tables, rng."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    as_generator,
    empirical_marginals,
    format_table,
    kl_divergence_bernoulli,
    max_marginal_error,
    total_variation,
)


class TestStats:
    def test_total_variation_identical_is_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        assert total_variation(p, p) == 0.0

    def test_total_variation_disjoint_is_one(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_total_variation_shape_mismatch(self):
        with pytest.raises(ValueError):
            total_variation([1.0], [0.5, 0.5])

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
    )
    def test_total_variation_bounds(self, a, b):
        n = min(len(a), len(b))
        p = np.array(a[:n]) / sum(a[:n])
        q = np.array(b[:n]) / sum(b[:n])
        tv = total_variation(p, q)
        assert 0.0 <= tv <= 1.0 + 1e-9

    def test_kl_zero_for_identical(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence_bernoulli(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_kl_positive_for_different(self):
        assert kl_divergence_bernoulli([0.9], [0.1]) > 0.5

    def test_kl_handles_extremes(self):
        # Clipping keeps 0/1 marginals finite.
        assert np.isfinite(kl_divergence_bernoulli([0.0, 1.0], [1.0, 0.0]))

    def test_max_marginal_error(self):
        assert max_marginal_error([0.1, 0.5], [0.2, 0.5]) == pytest.approx(0.1)
        assert max_marginal_error([], []) == 0.0

    def test_empirical_marginals(self):
        samples = np.array([[1, 0], [1, 1], [1, 0], [1, 1]], dtype=bool)
        assert np.allclose(empirical_marginals(samples), [1.0, 0.5])

    def test_empirical_marginals_requires_2d(self):
        with pytest.raises(ValueError):
            empirical_marginals(np.array([1, 0], dtype=bool))


class TestTables:
    def test_basic_render(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 0.0001]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title_prepended(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["v"], [[1234567.0], [0.00001], [0.5]])
        assert "1.23e+06" in out
        assert "1e-05" in out
        assert "0.5" in out


class TestRng:
    def test_int_seed_deterministic(self):
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = as_generator(0)
        assert as_generator(gen) is gen

    def test_shared_stream_is_consumed_by_every_holder(self):
        shared = as_generator(9)
        a, b = as_generator(shared), as_generator(shared)
        drawn = np.concatenate([a.random(2), b.random(2)])
        assert np.array_equal(drawn, as_generator(9).random(4))

    def test_mixin_seeds_once_and_creates_lazily(self):
        from repro.util.rng import RngMixin

        seeded = RngMixin()
        seeded._init_rng(5)
        assert seeded.rng is seeded.rng
        assert np.array_equal(seeded.rng.random(3), as_generator(5).random(3))
        lazy = RngMixin()
        assert isinstance(lazy.rng, np.random.Generator)
        assert lazy.rng is lazy.rng
