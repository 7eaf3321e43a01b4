"""The quantized linear executor (AtomLinear)."""

import numpy as np
import pytest

from repro.core.gptq import rtn_weight_quantize
from repro.core.groups import make_group_slices
from repro.core.linear import AtomLinear, _dynamic_act_quant
from reference import float32_gemm_bound  # tests/core/reference.py


@pytest.fixture()
def rng():
    return np.random.default_rng(71)


def _atom_linear(w, *, n_outlier=4, group_size=16, perm=None, a_bits=4,
                 outlier_bits=8, act_clip=1.0, fmt="int"):
    slices = make_group_slices(
        w.shape[1],
        n_outlier=n_outlier,
        group_size=group_size,
        body_bits=4,
        outlier_bits=outlier_bits,
    )
    w_r = w if perm is None else w[:, perm]
    sliced = rtn_weight_quantize(w_r, slices, clip=1.0, fmt=fmt)
    return AtomLinear(sliced, perm=perm, a_bits=a_bits, act_clip=act_clip, fmt=fmt)


class TestDynamicActQuant:
    def test_scale_shape(self, rng):
        x = rng.normal(size=(8, 16))
        codes, scale = _dynamic_act_quant(x, 4, 1.0, "int")
        assert scale.shape == (8, 1)
        assert codes.shape == x.shape

    def test_codes_in_range(self, rng):
        codes, _ = _dynamic_act_quant(rng.normal(size=(8, 16)), 4, 1.0, "int")
        assert codes.min() >= -8 and codes.max() <= 7

    def test_reconstruction(self, rng):
        x = rng.normal(size=(8, 16))
        codes, scale = _dynamic_act_quant(x, 8, 1.0, "int")
        assert np.abs(codes * scale - x).max() <= scale.max() / 2 + 1e-12

    def test_fp4_grid(self, rng):
        from repro.quant.dtypes import FP4_E2M1

        codes, _ = _dynamic_act_quant(rng.normal(size=(4, 8)), 4, 1.0, "fp")
        grid = set(np.concatenate([-FP4_E2M1.grid, FP4_E2M1.grid]).tolist())
        assert set(np.unique(codes).tolist()) <= grid


class TestAtomLinear:
    def test_matches_manual_computation(self, rng):
        """The fused executor must equal the explicit quantize-dequantize
        reference computed slice by slice, on the float32 input the linear
        sees, within the float32 GEMM bound."""
        w = rng.normal(size=(24, 48))
        x = rng.normal(size=(10, 48))
        lin = _atom_linear(w)
        got = lin(x)
        assert got.dtype == np.float32
        # Manual reference: float32 activation codes, float64 contraction.
        xq = lin._prepare(x)
        ref = np.zeros((10, 24))
        x_hats, w_hats = [], []
        sliced = lin.weight
        for s, codes, wscale in zip(sliced.slices, sliced.codes, sliced.scales):
            xs = xq[:, s.start : s.stop]
            bits = 4 if not s.is_outlier else 8
            acodes, ascale = _dynamic_act_quant(xs, bits, 1.0, "int")
            assert acodes.dtype == np.float32
            x_hat = acodes * ascale
            w_hat = codes * wscale
            ref += x_hat @ w_hat.T
            x_hats.append(x_hat)
            w_hats.append(w_hat)
        bound = float32_gemm_bound(np.hstack(x_hats), np.hstack(w_hats).T)
        assert np.all(np.abs(got - ref) <= bound)

    def test_high_bits_approaches_float(self, rng):
        w = rng.normal(size=(16, 32))
        x = rng.normal(size=(8, 32))
        slices = make_group_slices(32, n_outlier=0, group_size=8, body_bits=8, outlier_bits=None)
        lin = AtomLinear(rtn_weight_quantize(w, slices), perm=None, a_bits=8, act_clip=1.0)
        rel = np.linalg.norm(lin(x) - x @ w.T) / np.linalg.norm(x @ w.T)
        assert rel < 0.03

    def test_permutation_equivalence(self, rng):
        """Reordering channels (and weights to match) must not change the
        mathematical function being approximated."""
        w = rng.normal(size=(16, 32))
        x = rng.normal(size=(8, 32))
        perm = np.random.default_rng(1).permutation(32)
        lin_plain = _atom_linear(w, n_outlier=0, group_size=None, a_bits=8)
        # With 8-bit everything and no groups, both orderings are ~exact.
        slices = make_group_slices(32, n_outlier=0, group_size=None, body_bits=8, outlier_bits=None)
        lin_perm = AtomLinear(
            rtn_weight_quantize(w[:, perm], slices),
            perm=perm, a_bits=8, act_clip=1.0,
        )
        ref = x @ w.T
        assert np.linalg.norm(lin_perm(x) - ref) < 0.05 * np.linalg.norm(ref)

    def test_outliers_in_int8_beat_int4_on_outlier_data(self, rng):
        w = rng.normal(size=(16, 32))
        x = rng.normal(size=(64, 32))
        x[:, -4:] *= 50.0  # planted outliers in the tail channels
        ref = x @ w.T
        lin_mixed = _atom_linear(w, n_outlier=4, group_size=8)
        lin_flat = _atom_linear(w, n_outlier=0, group_size=8)
        err_mixed = np.linalg.norm(lin_mixed(x) - ref)
        err_flat = np.linalg.norm(lin_flat(x) - ref)
        assert err_mixed < err_flat / 2

    def test_fp16_outlier_slices_exact_for_tail(self, rng):
        w = rng.normal(size=(8, 16))
        x = np.zeros((4, 16))
        x[:, -2:] = rng.normal(size=(4, 2))  # only the fp16 tail is active
        lin = _atom_linear(w, n_outlier=2, group_size=None, outlier_bits=None)
        ref = x[:, -2:] @ w[:, -2:].T
        np.testing.assert_allclose(lin(x), ref, atol=1e-5)

    def test_dequantized_weight_inverse_permutation(self, rng):
        w = rng.normal(size=(8, 16))
        perm = np.random.default_rng(2).permutation(16)
        slices = make_group_slices(16, n_outlier=0, group_size=None, body_bits=8, outlier_bits=None)
        lin = AtomLinear(
            rtn_weight_quantize(w[:, perm], slices), perm=perm, a_bits=8, act_clip=1.0
        )
        np.testing.assert_allclose(lin.dequantized_weight(), w, atol=0.02)

    def test_effective_weight_bits(self, rng):
        w = rng.normal(size=(8, 64))
        lin = _atom_linear(w, n_outlier=0, group_size=16)
        # 4-bit codes + 16-bit scale per 16-wide group = 5 bits/element.
        assert lin.effective_weight_bits() == pytest.approx(5.0)

    def test_in_out_features(self, rng):
        lin = _atom_linear(rng.normal(size=(24, 48)))
        assert lin.in_features == 48
        assert lin.out_features == 24

    def test_rejects_non_2d_input(self, rng):
        lin = _atom_linear(rng.normal(size=(8, 16)))
        with pytest.raises(ValueError, match="2-D"):
            lin(rng.normal(size=(2, 4, 16)))

    def test_perm_length_validated(self, rng):
        w = rng.normal(size=(8, 16))
        slices = make_group_slices(16, n_outlier=0, group_size=None, body_bits=4, outlier_bits=None)
        with pytest.raises(ValueError, match="permutation"):
            AtomLinear(
                rtn_weight_quantize(w, slices),
                perm=np.arange(8),
                a_bits=4,
                act_clip=1.0,
            )

    def test_output_dtype_float32(self, rng):
        lin = _atom_linear(rng.normal(size=(8, 16)))
        assert lin(rng.normal(size=(2, 16))).dtype == np.float32

    def test_unpermuted_basic_accuracy(self, rng):
        """No reorder, no outlier tail: a uniform W8A8 linear."""
        w = rng.normal(size=(16, 32))
        x = rng.normal(size=(8, 32))
        slices = make_group_slices(32, n_outlier=0, group_size=None, body_bits=8, outlier_bits=None)
        lin = AtomLinear(rtn_weight_quantize(w, slices), perm=None, a_bits=8, act_clip=1.0)
        ref = x @ w.T
        assert np.linalg.norm(lin(x) - ref) / np.linalg.norm(ref) < 0.03
