"""The four multi-class frequency-estimation frameworks."""

import numpy as np
import pytest

from repro.core.frameworks import (
    FRAMEWORKS,
    HECFramework,
    PTJFramework,
    PTSCPFramework,
    PTSFramework,
    make_framework,
    split_counts_into_groups,
)
from repro.datasets import LabelItemDataset
from repro.exceptions import ConfigurationError
from repro.metrics import rmse


def _trials(framework, dataset, n_trials, seed0=1000):
    return np.stack(
        [
            framework.estimate_frequencies(dataset, rng=np.random.default_rng(seed0 + t))
            for t in range(n_trials)
        ]
    )


class TestRegistry:
    def test_four_frameworks(self):
        assert set(FRAMEWORKS) == {"hec", "ptj", "pts", "pts-cp"}

    def test_make_framework_by_name(self):
        fw = make_framework("ptj", epsilon=1.0, n_classes=2, n_items=4)
        assert isinstance(fw, PTJFramework)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_framework("nope", epsilon=1.0, n_classes=2, n_items=4)

    def test_label_fraction_only_for_split_frameworks(self):
        with pytest.raises(ConfigurationError):
            make_framework("hec", epsilon=1.0, n_classes=2, n_items=4, label_fraction=0.3)
        fw = make_framework("pts", epsilon=1.0, n_classes=2, n_items=4, label_fraction=0.3)
        assert fw.epsilon1 == pytest.approx(0.3)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PTJFramework(1.0, 2, 4, mode="telepathy")

    def test_pts_needs_two_classes(self):
        with pytest.raises(ConfigurationError):
            PTSFramework(1.0, 1, 4)
        with pytest.raises(ConfigurationError):
            PTSCPFramework(1.0, 1, 4)


class TestDatasetValidation:
    def test_domain_mismatch(self, small_dataset):
        fw = PTJFramework(1.0, 5, 5)
        with pytest.raises(ConfigurationError):
            fw.estimate_frequencies(small_dataset)


class TestGroupSplitting:
    def test_split_preserves_totals(self, rng):
        counts = rng.multinomial(10_000, np.ones(12) / 12).reshape(3, 4)
        groups = split_counts_into_groups(counts, [4000, 3000, 3000], rng)
        assert groups.shape == (3, 3, 4)
        assert (groups.sum(axis=0) == counts).all()
        assert groups[0].sum() == 4000

    def test_split_rejects_bad_sizes(self, rng):
        counts = np.ones((2, 2), dtype=np.int64)
        with pytest.raises(ConfigurationError):
            split_counts_into_groups(counts, [3, 3], rng)

    def test_split_rejects_negative_sizes_and_counts(self, rng):
        counts = np.asarray([4, 6], dtype=np.int64)
        with pytest.raises(ConfigurationError):
            split_counts_into_groups(counts, [12, -2], rng)
        with pytest.raises(ConfigurationError):
            split_counts_into_groups(np.asarray([12, -2]), [5, 5], rng)


class TestUnbiasedness:
    """PTJ, PTS and PTS-CP are unbiased; HEC carries the Theorem-4 bias."""

    def test_ptj_unbiased(self, small_dataset):
        fw = PTJFramework(2.0, 3, 8)
        trials = _trials(fw, small_dataset, 80)
        spread = trials.std(axis=0).max() / np.sqrt(80)
        bias = np.abs(trials.mean(axis=0) - small_dataset.pair_counts())
        assert bias.max() < 6 * spread

    def test_pts_unbiased(self, small_dataset):
        fw = PTSFramework(2.0, 3, 8)
        trials = _trials(fw, small_dataset, 80)
        spread = trials.std(axis=0).max() / np.sqrt(80)
        bias = np.abs(trials.mean(axis=0) - small_dataset.pair_counts())
        assert bias.max() < 6 * spread

    def test_pts_cp_unbiased(self, small_dataset):
        fw = PTSCPFramework(2.0, 3, 8)
        trials = _trials(fw, small_dataset, 80)
        spread = trials.std(axis=0).max() / np.sqrt(80)
        bias = np.abs(trials.mean(axis=0) - small_dataset.pair_counts())
        assert bias.max() < 6 * spread

    def test_hec_bias_matches_theorem4(self, small_dataset):
        """HEC's deniability bias is (N - n_C)/d per cell of class C."""
        fw = HECFramework(2.0, 3, 8)
        trials = _trials(fw, small_dataset, 120)
        observed_bias = trials.mean(axis=0) - small_dataset.pair_counts()
        n_total = small_dataset.n_users
        expected = (n_total - small_dataset.class_counts()) / small_dataset.n_items
        spread = trials.std(axis=0).max() / np.sqrt(120)
        assert np.abs(observed_bias - expected[:, None]).max() < 6 * spread


class TestModesAgree:
    """The protocol path and the simulate path induce the same estimates
    in distribution (mean agreement on a small dataset)."""

    @pytest.mark.parametrize("name", ["hec", "ptj", "pts", "pts-cp"])
    def test_mean_agreement(self, name, rng):
        counts = rng.multinomial(1200, np.ones(6) / 6).reshape(2, 3)
        data = LabelItemDataset.from_pair_counts(counts, rng=rng)
        sim = make_framework(name, epsilon=2.0, n_classes=2, n_items=3, mode="simulate")
        proto = make_framework(name, epsilon=2.0, n_classes=2, n_items=3, mode="protocol")
        sim_trials = _trials(sim, data, 120)
        proto_trials = _trials(proto, data, 40, seed0=9000)
        sigma = np.sqrt(
            sim_trials.var(axis=0) / 120 + proto_trials.var(axis=0) / 40
        )
        diff = np.abs(sim_trials.mean(axis=0) - proto_trials.mean(axis=0))
        assert (diff < 5 * sigma + 1e-9).all()


class TestUtilityOrdering:
    def test_hec_is_worst(self, small_dataset):
        """Fig. 6's headline: PTJ and PTS beat HEC decisively."""
        errors = {}
        for name in ("hec", "ptj", "pts"):
            fw = make_framework(name, epsilon=1.0, n_classes=3, n_items=8)
            trials = _trials(fw, small_dataset, 20)
            errors[name] = np.mean(
                [rmse(t, small_dataset.pair_counts()) for t in trials]
            )
        assert errors["hec"] > errors["ptj"]
        assert errors["hec"] > errors["pts"]

    def test_cp_beats_pts_at_small_epsilon_with_structure(self, rng):
        """With class-concentrated items and a small budget, correlated
        perturbation reduces the cross-class noise PTS suffers."""
        # Each class has its own disjoint popular items.
        counts = np.zeros((4, 40), dtype=np.int64)
        for c in range(4):
            counts[c, c * 10 : (c + 1) * 10] = 2500
        data = LabelItemDataset.from_pair_counts(counts, rng=rng)
        pts = PTSFramework(0.5, 4, 40)
        cp = PTSCPFramework(0.5, 4, 40)
        pts_err = np.mean([rmse(t, counts) for t in _trials(pts, data, 25)])
        cp_err = np.mean([rmse(t, counts) for t in _trials(cp, data, 25)])
        assert cp_err < pts_err


class TestCommunication:
    def test_ptj_costs_more_than_pts(self):
        """Table II: PTJ's joint OUE report dominates the per-user cost."""
        ptj = PTJFramework(1.0, 10, 1000)
        pts = PTSFramework(1.0, 10, 1000)
        assert ptj.communication_bits_per_user() > pts.communication_bits_per_user()

    def test_hec_adaptive_selection(self):
        small = HECFramework(1.0, 2, 4)
        large = HECFramework(1.0, 2, 4096)
        assert small.oracle_name == "grr"
        assert large.oracle_name == "oue"
