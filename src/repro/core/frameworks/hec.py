"""HEC — Handling Each Class independently (paper Section II-D).

The strawman framework: users are partitioned into ``c`` equal groups,
group ``g`` mines class ``g`` with the *full* budget ε through the
adaptive GRR/OUE oracle.  A user whose label does not match her group's
class is *invalid* and reports a uniformly random item for deniability.

HEC wastes roughly a ``(c-1)/c`` fraction of users per class and its
random-item deniability injects ``(N - n)/d`` bias per cell (Theorem 4);
both effects are what the paper's PTJ/PTS frameworks remove.
"""

from __future__ import annotations

import numpy as np

from ...datasets.base import LabelItemDataset
from ...mechanisms.adaptive import make_adaptive
from ...rng import RngLike
from ..estimators import calibrate_hec
from .base import MulticlassFramework, equal_group_sizes, split_counts_into_groups


def simulate_hec_group_support(
    oracle, valid_counts: np.ndarray, n_invalid: int, rng: np.random.Generator
) -> np.ndarray:
    """Support of one HEC group: valid users through the adaptive oracle,
    invalid users replaced by a uniformly random item first.

    Module-level so the streaming session
    (:class:`repro.stream.session.OnlineHEC`) shares the exact sampling
    law with the one-shot framework.
    """
    d = oracle.domain_size
    if oracle.name == "grr":
        support = oracle.simulate_support(valid_counts, rng=rng)
        if n_invalid:
            # uniform item + GRR lands uniformly on the whole domain
            # (q + (p-q)/d per value, summing to one).
            support += rng.multinomial(n_invalid, np.full(d, 1.0 / d))
        return support
    # OUE: valid users are exact binomials; an invalid user sets bit v
    # with marginal probability q + (p - q)/d.
    p, q = oracle.p, oracle.q
    valid_counts = np.asarray(valid_counts, dtype=np.int64)
    n_valid = int(valid_counts.sum())
    ones = rng.binomial(valid_counts, p)
    zeros = rng.binomial(n_valid - valid_counts, q)
    support = ones + zeros
    if n_invalid:
        support += rng.binomial(np.full(d, n_invalid), q + (p - q) / d)
    return support.astype(np.int64)


class HECFramework(MulticlassFramework):
    """User-partition strawman with random-item deniability."""

    name = "hec"

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        super().__init__(epsilon, n_classes, n_items, mode=mode, rng=rng)
        # One oracle instance to read (p, q, selected) from; group runs
        # reuse the same probabilities.
        self._oracle = make_adaptive(self.epsilon, self.n_items, rng=self.rng)

    @property
    def oracle_name(self) -> str:
        """Which oracle the adaptive rule selected ("grr" or "oue")."""
        return self._oracle.name

    def communication_bits_per_user(self) -> int:
        return self._oracle.communication_bits()

    # ------------------------------------------------------------------
    # simulate path
    # ------------------------------------------------------------------
    def _estimate_simulated(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> np.ndarray:
        sizes = equal_group_sizes(dataset.n_users, self.n_classes)
        groups = split_counts_into_groups(dataset.pair_counts(), sizes, rng)
        p, q = self._oracle.p, self._oracle.q
        support = np.empty((self.n_classes, self.n_items), dtype=np.int64)
        for g in range(self.n_classes):
            valid_counts = groups[g, g, :]
            n_invalid = int(groups[g].sum() - valid_counts.sum())
            support[g] = self._simulate_group(valid_counts, n_invalid, rng)
        return calibrate_hec(
            support, np.asarray(sizes, dtype=np.float64), dataset.n_users, p, q
        )

    def _simulate_group(
        self, valid_counts: np.ndarray, n_invalid: int, rng: np.random.Generator
    ) -> np.ndarray:
        return simulate_hec_group_support(self._oracle, valid_counts, n_invalid, rng)
