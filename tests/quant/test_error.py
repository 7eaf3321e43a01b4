"""The relative error metric the quantizer reports per linear, and the
effective weight bits (footnote 1) of a quantized linear."""

import numpy as np
import pytest

from repro.core.gptq import rtn_weight_quantize
from repro.core.groups import make_group_slices
from repro.core.linear import AtomLinear
from repro.quant.error import relative_error


@pytest.fixture()
def rng():
    return np.random.default_rng(21)


class TestMetrics:
    def test_relative_error_scale_invariant(self, rng):
        x = rng.normal(size=32)
        y = x + rng.normal(size=32) * 0.1
        assert np.isclose(relative_error(x, y), relative_error(10 * x, 10 * y))

    def test_relative_error_zero_signal(self):
        assert relative_error(np.zeros(4), np.zeros(4)) == 0.0
        assert relative_error(np.zeros(4), np.ones(4)) == float("inf")


def _effective_bits(n_channels, n_outlier, *, body_bits=4, group_size=128):
    """``AtomLinear.effective_weight_bits`` of a 2-row weight with INT8
    outliers and FP16 scales."""
    slices = make_group_slices(
        n_channels, n_outlier=n_outlier, group_size=group_size,
        body_bits=body_bits, outlier_bits=8,
    )
    w = np.random.default_rng(0).normal(size=(2, n_channels))
    lin = AtomLinear(rtn_weight_quantize(w, slices), perm=None, a_bits=4, act_clip=1.0)
    return lin.effective_weight_bits()


class TestEffectiveBits:
    def test_paper_footnote_value(self):
        """((4096-128)*4 + 128*8)/4096 + 16/128 = 4.25 (footnote 1)."""
        assert _effective_bits(4096, 128) == 4.25

    def test_no_outliers(self):
        """1024 INT4 channels in groups of 128, no outliers: 4 + 16/128."""
        assert _effective_bits(1024, 0) == 4.125

    def test_monotone_in_outliers(self):
        vals = [_effective_bits(4096, n) for n in (0, 128, 256, 512)]
        assert vals == sorted(vals)

    def test_outliers_exceeding_channels_rejected(self):
        with pytest.raises(ValueError):
            _effective_bits(64, 128)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            _effective_bits(0, 0)
        with pytest.raises(ValueError):
            _effective_bits(64, 0, body_bits=0)
