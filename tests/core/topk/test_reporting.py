"""Shared iteration-report simulation and cohort splitting."""

import numpy as np
import pytest

from repro.core.topk import simulate_iteration_support, split_counts_over_iterations, top_indices
from repro.core.topk.reporting import split_scalar_over_iterations
from repro.exceptions import ConfigurationError, DomainError


class TestSimulateIterationSupport:
    def test_vp_mode_returns_domain_sized_support(self, rng):
        support = simulate_iteration_support(
            np.asarray([100, 50, 25]), 30, 1.0, "vp", rng
        )
        assert support.shape == (3,)
        assert (support >= 0).all()

    def test_random_mode_uniform_replacement(self, rng):
        support = simulate_iteration_support(
            np.asarray([100, 50, 25]), 30, 1.0, "random", rng
        )
        assert support.shape == (3,)

    def test_random_mode_weighted_replacement(self, rng):
        """Replacement weights steer where invalid users land."""
        from repro.mechanisms.ue import oue_probabilities

        n_trials = 300
        first = 0.0
        for _ in range(n_trials):
            support = simulate_iteration_support(
                np.zeros(2, dtype=np.int64),
                1000,
                8.0,
                "random",
                rng,
                replacement_weights=np.asarray([3.0, 1.0]),
            )
            first += support[0]
        # 3:1 weighting: value 0 expects 750 holders, OUE-attenuated.
        p, q = oue_probabilities(8.0)
        expected = 1000 * (0.75 * p + 0.25 * q)
        assert first / n_trials == pytest.approx(expected, rel=0.1)

    def test_rejects_unknown_mode(self, rng):
        with pytest.raises(ConfigurationError):
            simulate_iteration_support(np.asarray([1]), 0, 1.0, "nope", rng)

    def test_rejects_negative_invalid(self, rng):
        with pytest.raises(DomainError):
            simulate_iteration_support(np.asarray([1]), -1, 1.0, "vp", rng)

    def test_rejects_bad_weights(self, rng):
        with pytest.raises(DomainError):
            simulate_iteration_support(
                np.asarray([1, 2]), 5, 1.0, "random", rng,
                replacement_weights=np.asarray([1.0]),
            )
        with pytest.raises(DomainError):
            simulate_iteration_support(
                np.asarray([1, 2]), 5, 1.0, "random", rng,
                replacement_weights=np.asarray([0.0, 0.0]),
            )

    def test_vp_mode_filters_invalid_noise(self, rng):
        """Invalid users contribute ~q(1-p) under VP vs ~q + (p-q)/d under
        random replacement (Theorems 4-5) — check the ordering."""
        trials = 200
        vp_noise, random_noise = 0.0, 0.0
        zero = np.zeros(4, dtype=np.int64)
        for _ in range(trials):
            vp_noise += simulate_iteration_support(zero, 1000, 1.0, "vp", rng).mean()
            random_noise += simulate_iteration_support(zero, 1000, 1.0, "random", rng).mean()
        assert vp_noise < random_noise


class TestSplitCounts:
    def test_preserves_totals_and_shape(self, rng):
        counts = rng.multinomial(10_000, np.ones(20) / 20)
        parts = split_counts_over_iterations(counts, 4, rng)
        assert len(parts) == 4
        assert sum(int(p.sum()) for p in parts) == 10_000
        assert (np.stack(parts).sum(axis=0) == counts).all()

    def test_near_equal_cohort_sizes(self, rng):
        counts = rng.multinomial(10_001, np.ones(5) / 5)
        parts = split_counts_over_iterations(counts, 3, rng)
        sizes = sorted(int(p.sum()) for p in parts)
        assert sizes[-1] - sizes[0] <= 1

    def test_preserves_matrix_shape(self, rng):
        counts = rng.multinomial(600, np.ones(6) / 6).reshape(2, 3)
        parts = split_counts_over_iterations(counts, 2, rng)
        assert parts[0].shape == (2, 3)

    def test_single_iteration_identity(self, rng):
        counts = np.asarray([5, 6, 7])
        parts = split_counts_over_iterations(counts, 1, rng)
        assert (parts[0] == counts).all()

    def test_rejects_bad_args(self, rng):
        with pytest.raises(DomainError):
            split_counts_over_iterations(np.asarray([1]), 0, rng)
        with pytest.raises(DomainError):
            split_counts_over_iterations(np.asarray([-1]), 2, rng)

    def test_scalar_rejects_no_iterations_even_for_zero_users(self, rng):
        for total, n_iterations in ((0, 0), (0, -3), (5, 0)):
            with pytest.raises(DomainError):
                split_scalar_over_iterations(total, n_iterations, rng)

    def test_rejects_fractional_counts(self, rng):
        with pytest.raises(DomainError):
            split_counts_over_iterations(np.asarray([1.7, 2.2]), 2, rng)
        parts = split_counts_over_iterations(np.asarray([1.0, 2.0]), 2, rng)
        assert parts[0].dtype == np.int64
        assert (np.stack(parts).sum(axis=0) == [1, 2]).all()


class TestTopIndices:
    def test_orders_by_support(self):
        assert top_indices(np.asarray([5, 9, 1, 7]), 2).tolist() == [1, 3]

    def test_ties_break_to_lower_index(self):
        assert top_indices(np.asarray([5, 9, 9, 5]), 3).tolist() == [1, 2, 0]

    def test_k_larger_than_domain(self):
        assert top_indices(np.asarray([3, 1]), 5).tolist() == [0, 1]

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            top_indices(np.asarray([1.0]), 0)
