"""Framework base class for multi-class frequency estimation.

A *framework* fixes how the label-item pair travels to the server (HEC's
user partition, PTJ's joint domain, PTS's split budget, PTS-CP's
correlated perturbation) and produces an unbiased ``(c, d)`` matrix of
estimated pair counts from a :class:`~repro.datasets.base.LabelItemDataset`.

Every framework supports two execution modes:

``"simulate"`` (default)
    Exact sufficient-statistic sampling — the aggregated supports are
    drawn directly from the distribution the per-user protocol induces
    (see :mod:`repro.mechanisms.base`).  Scales to millions of users.

``"protocol"``
    The literal wire protocol: one report per user, privatised and
    aggregated in vectorised batches through the report-plane engine
    (:mod:`repro.mechanisms.engine`).  One-shot protocol runs are simply
    a stream of one batch: the framework routes the dataset through its
    :class:`~repro.stream.session.OnlineFrameworkSession`, so the
    one-shot and streaming paths share a single ingest/estimate core.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence, Union

import numpy as np

from ...datasets.base import LabelItemDataset
from ...exceptions import ConfigurationError, ReproError
from ...mechanisms.base import check_domain_size, check_epsilon
from ...rng import RngLike, ensure_rng

#: The two execution modes accepted by every framework.
MODES = ("simulate", "protocol")


class MulticlassFramework(abc.ABC):
    """Estimate the ``(c, d)`` pair-count matrix under ε-LDP.

    Parameters
    ----------
    epsilon:
        Total per-user privacy budget.
    n_classes, n_items:
        Domain sizes; must match the dataset passed to
        :meth:`estimate_frequencies`.
    mode:
        ``"simulate"`` or ``"protocol"`` (see module docstring).
    """

    name: str = "framework"

    def __init__(
        self,
        epsilon: float,
        n_classes: int,
        n_items: int,
        mode: str = "simulate",
        rng: RngLike = None,
    ) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.n_classes = check_domain_size(n_classes)
        self.n_items = check_domain_size(n_items)
        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def estimate_frequencies(
        self, dataset: LabelItemDataset, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Run the framework end to end and return estimated pair counts."""
        self._check_dataset(dataset)
        rng = rng if rng is not None else self.rng
        if self.mode == "simulate":
            return self._estimate_simulated(dataset, rng)
        return self._estimate_protocol(dataset, rng)

    @abc.abstractmethod
    def communication_bits_per_user(self) -> int:
        """Per-user report size in bits (Table II accounting)."""

    def streaming_session(self, rng: RngLike = None):
        """A fresh online session with this framework's configuration.

        The session ingests ``(labels, items)`` batches incrementally and
        answers ``estimate()`` / ``topk(k)`` queries at any point
        mid-stream (see :mod:`repro.stream.session`).  Pass ``rng`` to
        give the session its own stream; it defaults to a child of this
        framework's generator so framework and session stay independent.
        """
        from ...rng import spawn
        from ...stream.session import make_session

        if rng is None:
            rng = spawn(self.rng, 1)[0]
        return make_session(
            self.name,
            epsilon=self.epsilon,
            n_classes=self.n_classes,
            n_items=self.n_items,
            mode=self.mode,
            rng=rng,
            label_fraction=getattr(self, "label_fraction", None),
        )

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _estimate_simulated(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> np.ndarray:
        """Sufficient-statistic path."""

    def _estimate_protocol(
        self, dataset: LabelItemDataset, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-user report path: the dataset as a stream of one batch.

        Delegates to the framework's online session, whose protocol-mode
        ingest privatises and aggregates through the vectorised report
        plane — there is exactly one protocol implementation per
        framework, shared by one-shot and streaming execution.  (For HEC
        this assigns users to class groups iid-uniformly, the streaming
        law; the calibration divides by realised group sizes, so the
        estimates stay unbiased.)
        """
        from ...stream.session import make_session

        session = make_session(
            self.name,
            epsilon=self.epsilon,
            n_classes=self.n_classes,
            n_items=self.n_items,
            mode="protocol",
            rng=rng,
            label_fraction=getattr(self, "label_fraction", None),
        )
        session.ingest_batch(dataset.labels, dataset.items)
        return session.estimate()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_dataset(self, dataset: LabelItemDataset) -> None:
        if dataset.n_classes != self.n_classes or dataset.n_items != self.n_items:
            raise ConfigurationError(
                f"framework configured for (c={self.n_classes}, d={self.n_items}) "
                f"but dataset has (c={dataset.n_classes}, d={dataset.n_items})"
            )
        if dataset.n_users == 0:
            raise ConfigurationError("dataset holds no users")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon!r}, "
            f"n_classes={self.n_classes!r}, n_items={self.n_items!r}, "
            f"mode={self.mode!r})"
        )


def equal_group_sizes(n_users: int, n_groups: int) -> list[int]:
    """Near-equal group sizes summing to ``n_users``; the first
    ``n_users % n_groups`` groups take one extra user (HEC's split)."""
    base, extra = divmod(n_users, n_groups)
    return [base + (index < extra) for index in range(n_groups)]


def split_counts_into_groups(
    pair_counts: np.ndarray, group_sizes: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    """Exactly partition a ``(c, d)`` count matrix into user groups.

    Returns ``(g, c, d)`` counts whose sum over axis 0 reproduces the
    input.  Each group is a uniform random sample without replacement of
    the user population, so per-group cell counts follow the multivariate
    hypergeometric distribution — identical in law to shuffling the users
    and slicing.  The cost is O(non-zero cells × groups): zero cells draw
    no randomness.  Malformed counts or sizes raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    support, draws = _partition_counts(pair_counts, group_sizes, rng, ConfigurationError)
    shape = np.shape(pair_counts)
    out = np.zeros((len(draws), math.prod(shape)), dtype=np.int64)
    out[:, support] = draws
    return out.reshape(len(draws), *shape)


def _partition_counts(
    counts: np.ndarray,
    sizes: Union[int, Sequence[int]],
    rng: np.random.Generator,
    error: type[ReproError],
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential multivariate hypergeometric partition into cohorts.

    ``sizes`` lists the cohort sizes, or is a cohort count for
    near-equal cohorts (:func:`equal_group_sizes`).  Returns the flat
    indices of the non-zero cells of ``counts`` and a ``(cohorts, cells)``
    int64 array of their draws, whose rows sum to the cohort sizes and
    whose columns sum to the counts.  Only the non-zero cells are drawn:
    a zero cell's hypergeometric draw is always 0, so the law is
    unchanged while the cost falls from O(cells × cohorts) to O(non-zero
    cells × cohorts).  Malformed input raises ``error``.
    """
    array = np.asarray(counts)
    if array.dtype.kind not in "biuf":
        raise error(f"counts must be integers, got dtype {array.dtype}")
    with np.errstate(invalid="ignore"):
        flat = array.astype(np.int64, copy=False).ravel()
    if array.dtype.kind not in "bi" and not np.array_equal(flat, array.ravel()):
        raise error("counts must be integral and within int64")
    if (flat < 0).any():
        raise error("counts must be non-negative")
    total = int(flat.sum())
    if isinstance(sizes, (int, np.integer)):
        if sizes < 1:
            raise error(f"need >= 1 cohort, got {sizes}")
        sizes = equal_group_sizes(total, int(sizes))
    if len(sizes) < 1:
        raise error("need >= 1 cohort, got none")
    if min(sizes) < 0:
        raise error(f"cohort sizes must be non-negative, got {list(sizes)}")
    if sum(sizes) != total:
        raise error(f"cohort sizes sum to {sum(sizes)} but the counts hold {total} users")

    support = np.flatnonzero(flat)
    remaining = flat[support]
    left = total
    draws = np.zeros((len(sizes), support.size), dtype=np.int64)
    for row, size in zip(draws, sizes):
        if size == left:
            row[:] = remaining
        elif size > 0:
            row[:] = rng.multivariate_hypergeometric(remaining, size, method="marginals")
        remaining -= row
        left -= size
    return support, draws
