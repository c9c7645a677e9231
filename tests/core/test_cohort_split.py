"""Law of the sparse cohort split behind both public partition functions.

Every cohort of a sequential multivariate hypergeometric partition is a
uniform sample without replacement of ``s`` of the ``N`` users, so cell
``i`` of a cohort of size ``s`` is Hypergeometric(N, n_i, s): mean
``n_i·s/N`` and variance ``n_i·s/N·(1−n_i/N)·(N−s)/(N−1)``.
"""

import numpy as np
import pytest

from repro.core.frameworks import split_counts_into_groups
from repro.core.frameworks.base import equal_group_sizes
from repro.core.topk import split_counts_over_iterations

#: 40 cells, 8 of them non-zero, N = 500 users.
SUPPORT = np.asarray([1, 5, 9, 14, 22, 27, 33, 38])
COUNTS = np.zeros(40, dtype=np.int64)
COUNTS[SUPPORT] = [150, 90, 80, 60, 50, 35, 25, 10]
N = int(COUNTS.sum())
R = 2000
#: Two-sided z bound per cell (≈1e-5 tail each, 24 cells per function);
#: the draws are seeded, so the test is deterministic.
Z = 4.5

SPLITS = {
    "iterations": (
        lambda counts, rng: np.stack(split_counts_over_iterations(counts, 3, rng)),
        equal_group_sizes(N, 3),
    ),
    "groups": (
        lambda counts, rng: split_counts_into_groups(counts, [250, 150, 100], rng),
        [250, 150, 100],
    ),
}


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_cohort_cells_follow_the_hypergeometric_law(name):
    split, sizes = SPLITS[name]
    draws = np.stack([split(COUNTS, np.random.default_rng(seed)) for seed in range(R)])
    assert draws.shape == (R, 3, 40)
    assert draws.dtype == np.int64
    # Exact structure: zero cells stay 0, cohorts hold their sizes, and
    # the cohorts add back up to the population.
    zero = np.setdiff1d(np.arange(40), SUPPORT)
    assert not draws[:, :, zero].any()
    assert (draws.sum(axis=2) == sizes).all()
    assert (draws.sum(axis=1) == COUNTS).all()

    cells = draws[:, :, SUPPORT].astype(np.float64)
    n_i = COUNTS[SUPPORT].astype(np.float64)
    s = np.asarray(sizes, dtype=np.float64)[:, None]
    mean = n_i * s / N
    var = n_i * s / N * (1 - n_i / N) * (N - s) / (N - 1)

    observed_mean = cells.mean(axis=0)
    assert (np.abs(observed_mean - mean) <= Z * np.sqrt(var / R)).all()

    squared = (cells - observed_mean) ** 2
    observed_var = squared.sum(axis=0) / (R - 1)
    var_se = squared.std(axis=0) / np.sqrt(R)
    assert (np.abs(observed_var - var) <= Z * var_se).all()


@pytest.mark.parametrize("name", sorted(SPLITS))
def test_zero_cells_draw_no_randomness(name):
    """Padding the population with empty cells leaves the seeded draws of
    the occupied cells unchanged."""
    split, _ = SPLITS[name]
    compact = COUNTS[SUPPORT]
    for seed in range(5):
        dense = split(COUNTS, np.random.default_rng(seed))
        packed = split(compact, np.random.default_rng(seed))
        assert (dense[:, SUPPORT] == packed).all()
