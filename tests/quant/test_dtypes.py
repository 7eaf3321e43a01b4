"""Number formats: integer ranges, minifloat grids, and the MX (power-of-two
scale) variant of the executed weight and activation quantizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.dtypes import FP4_E2M1, FP8_E4M3, FloatFormat, IntFormat

INT4, INT8 = IntFormat(4), IntFormat(8)
from repro.core.gptq import rtn_weight_quantize
from repro.core.groups import make_group_slices
from repro.core.linear import _dynamic_act_quant


class TestIntFormat:
    def test_int4_symmetric_range(self):
        assert INT4.qmin == -8
        assert INT4.qmax == 7

    def test_int4_asymmetric_range(self):
        assert INT4.umin == 0
        assert INT4.umax == 15

    def test_int8_ranges(self):
        assert (INT8.qmin, INT8.qmax) == (-128, 127)
        assert (INT8.umin, INT8.umax) == (0, 255)

    def test_n_levels(self):
        assert IntFormat(2).n_levels == 4
        assert IntFormat(3).n_levels == 8
        assert INT4.n_levels == 16

    def test_storage_dtype(self):
        """The executed weight quantizer stores INT and MX codes as int8."""
        w = np.random.default_rng(0).normal(size=(4, 16))
        slices = make_group_slices(
            16, n_outlier=4, group_size=None, body_bits=4, outlier_bits=8
        )
        for fmt in ("int", "mx"):
            codes = rtn_weight_quantize(w, slices, fmt=fmt).codes
            assert [c.dtype for c in codes] == [np.int8, np.int8]

    @pytest.mark.parametrize("bits", [0, 1, 17, -3])
    def test_invalid_bits_rejected(self, bits):
        with pytest.raises(ValueError):
            IntFormat(bits)


class TestFP4Grid:
    def test_grid_matches_paper_e2m1_values(self):
        # The FP4 values evaluated in Table 4: +-{0, .5, 1, 1.5, 2, 3, 4, 6}.
        np.testing.assert_allclose(
            FP4_E2M1.grid, [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        )

    def test_bits(self):
        assert FP4_E2M1.bits == 4
        assert FP8_E4M3.bits == 8

    def test_fp8_e4m3_max_is_448(self):
        # OCP E4M3: max finite value is 448 (exponent max, mantissa 110).
        assert FP8_E4M3.max_value == 448.0

    def test_round_exact_on_grid(self):
        vals = np.concatenate([-FP4_E2M1.grid[::-1], FP4_E2M1.grid])
        np.testing.assert_array_equal(FP4_E2M1.round(vals), vals)

    def test_round_saturates(self):
        assert FP4_E2M1.round(np.array([100.0]))[0] == 6.0
        assert FP4_E2M1.round(np.array([-100.0]))[0] == -6.0

    def test_round_nearest(self):
        # 2.4 is closer to 2 than 3; 2.6 closer to 3.
        assert FP4_E2M1.round(np.array([2.4]))[0] == 2.0
        assert FP4_E2M1.round(np.array([2.6]))[0] == 3.0

    def test_sign_symmetry(self):
        x = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(FP4_E2M1.round(-x), -FP4_E2M1.round(x))

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_round_returns_nearest_grid_point(self, x):
        rounded = float(FP4_E2M1.round(np.array([x]))[0])
        signed_grid = np.concatenate([-FP4_E2M1.grid, FP4_E2M1.grid])
        clipped = np.clip(x, -6.0, 6.0)
        best = signed_grid[np.argmin(np.abs(signed_grid - clipped))]
        assert abs(rounded - clipped) <= abs(best - clipped) + 1e-12

    def test_idempotent(self):
        x = np.random.default_rng(0).normal(size=100) * 3
        once = FP4_E2M1.round(x)
        np.testing.assert_array_equal(FP4_E2M1.round(once), once)


class TestMXFormat:
    """``fmt="mx"``: integer codes under power-of-two scales, one scale per
    group slice of a weight row (``rtn_weight_quantize``) or per token of an
    activation slice (``_dynamic_act_quant``).  Scale exponents and code
    ranges at unit magnitude are pinned in ``tests/core/test_extensions.py``."""

    @staticmethod
    def _mx_weight(w, group_size, bits=4):
        slices = make_group_slices(
            w.shape[1], n_outlier=0, group_size=group_size, body_bits=bits,
            outlier_bits=None,
        )
        return rtn_weight_quantize(w, slices, fmt="mx")

    def test_roundtrip_shape(self, rng):
        w = rng.normal(size=(3, 48))
        assert self._mx_weight(w, 16).dequantize().shape == w.shape

    def test_values_fit_element_range_after_scaling(self, rng):
        sliced = self._mx_weight(rng.normal(size=(8, 64)) * 100, 32)
        for codes in sliced.codes:
            assert INT4.qmin <= codes.min() and codes.max() <= INT4.qmax

    def test_int8_element_variant(self, rng):
        x = rng.normal(size=(4, 64))
        codes, scale = _dynamic_act_quant(x, 8, 1.0, "mx")
        err = np.abs(codes * scale - x).max()
        # INT8 blocks should reconstruct within ~1% of block max.
        assert err < 0.02 * np.abs(x).max()

    def test_zero_block(self):
        codes, scale = _dynamic_act_quant(np.zeros((1, 32)), 4, 1.0, "mx")
        assert np.isfinite(scale).all()
        np.testing.assert_array_equal(codes * scale, 0.0)
        out = self._mx_weight(np.zeros((2, 32)), 32).dequantize()
        np.testing.assert_array_equal(out, 0.0)

    def test_relative_error_bounded(self, rng):
        w = rng.normal(size=(16, 64))
        rel = np.linalg.norm(self._mx_weight(w, 32).dequantize() - w) / np.linalg.norm(w)
        assert rel < 0.35  # INT4 under a power-of-two scale: ~2-3 bits of signal


@pytest.fixture()
def rng():
    return np.random.default_rng(1)
