"""Outlier identification and channel reordering (§4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outliers import (
    identify_outliers,
    reorder_permutation,
    sample_calibration_tokens,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(31)


class TestIdentifyOutliers:
    def test_finds_planted_channels(self, rng):
        x = rng.normal(size=(100, 32))
        planted = [3, 17, 29]
        x[:, planted] *= 50.0
        found = identify_outliers(x, 3)
        assert set(found.tolist()) == set(planted)

    def test_sorted_ascending_by_magnitude(self, rng):
        x = rng.normal(size=(200, 16))
        x[:, 5] *= 100.0
        x[:, 9] *= 10.0
        found = identify_outliers(x, 2)
        assert found.tolist() == [9, 5]  # largest last

    def test_square_sum_criterion(self, rng):
        """§5.1: channels with the highest SQUARE SUM, not max."""
        x = np.zeros((100, 4))
        x[:, 0] = 1.0  # consistently moderate: sq sum 100
        x[0, 1] = 5.0  # single spike: sq sum 25
        found = identify_outliers(x, 1)
        assert found.tolist() == [0]

    def test_zero_outliers(self, rng):
        assert identify_outliers(rng.normal(size=(10, 8)), 0).size == 0

    def test_bounds_checked(self, rng):
        with pytest.raises(ValueError):
            identify_outliers(rng.normal(size=(10, 8)), 9)
        with pytest.raises(ValueError):
            identify_outliers(rng.normal(size=(10,)), 1)


class TestReorderPermutation:
    def test_is_a_permutation(self):
        perm = reorder_permutation(10, np.array([2, 7]))
        assert sorted(perm.tolist()) == list(range(10))

    def test_outliers_moved_to_end(self):
        perm = reorder_permutation(10, np.array([2, 7]))
        assert perm[-2:].tolist() == [2, 7]

    def test_normal_channels_keep_relative_order(self):
        perm = reorder_permutation(6, np.array([1, 3]))
        assert perm[:4].tolist() == [0, 2, 4, 5]

    def test_reorder_then_inverse_identity(self, rng):
        x = rng.normal(size=(4, 12))
        perm = reorder_permutation(12, np.array([5, 1, 9]))
        x_r = x[:, perm]
        inv = np.empty_like(perm)
        inv[perm] = np.arange(12)
        np.testing.assert_array_equal(x_r[:, inv], x)

    @given(st.sets(st.integers(0, 19), min_size=0, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_permutation_property(self, outliers):
        perm = reorder_permutation(20, np.array(sorted(outliers), dtype=np.int64))
        assert sorted(perm.tolist()) == list(range(20))
        if outliers:
            assert set(perm[-len(outliers):].tolist()) == outliers

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            reorder_permutation(8, np.array([1, 1]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            reorder_permutation(8, np.array([8]))


class TestCalibration:
    def test_sample_shape(self):
        toks = sample_calibration_tokens(16, 32)
        assert toks.shape == (16, 32)

    def test_sample_deterministic(self):
        np.testing.assert_array_equal(
            sample_calibration_tokens(8, 16), sample_calibration_tokens(8, 16)
        )

    def test_calibration_activations_keyed_by_site(self, model7b):
        toks = sample_calibration_tokens(4, 16)
        sites = model7b.capture_site_inputs(toks)
        c = model7b.config
        expected = {
            f"layers.{i}.{s}"
            for i in range(c.n_layers)
            for s in ("attn_in", "attn_out", "ffn_in", "ffn_hidden")
        }
        assert set(sites) == expected

    def test_site_activation_widths(self, model7b):
        toks = sample_calibration_tokens(4, 16)
        sites = model7b.capture_site_inputs(toks)
        c = model7b.config
        assert sites["layers.0.attn_in"].shape[1] == c.dim
        assert sites["layers.0.ffn_hidden"].shape[1] == c.ffn_dim
