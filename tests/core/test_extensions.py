"""Extension features: sequential calibration, act-order GPTQ, FP8 outliers,
MX format, per-slice format overrides."""

import numpy as np
import pytest

from repro.core import AtomConfig, AtomQuantizer
from repro.core.gptq import gptq_quantize, hessian, rtn_weight_quantize
from repro.core.groups import GroupSlice, make_group_slices
from repro.core.linear import _dynamic_act_quant


@pytest.fixture()
def rng():
    return np.random.default_rng(91)


@pytest.fixture()
def text_tokens():
    from repro.data.corpus import corpus_splits
    from repro.data.tokenizer import CharTokenizer

    _, eval_text = corpus_splits("synthwiki")
    return CharTokenizer().encode(eval_text[:128]).reshape(2, 64)


class TestMXFormat:
    def test_mx_act_scales_are_powers_of_two(self, rng):
        x = rng.normal(size=(8, 32))
        _, scale = _dynamic_act_quant(x, 4, 1.0, "mx")
        log2 = np.log2(scale)
        np.testing.assert_allclose(log2, np.round(log2))

    def test_mx_codes_within_range(self, rng):
        codes, _ = _dynamic_act_quant(rng.normal(size=(8, 32)), 4, 1.0, "mx")
        assert codes.min() >= -8 and codes.max() <= 7

    def test_mx_weight_scales_power_of_two(self, rng):
        w = rng.normal(size=(16, 32))
        slices = make_group_slices(32, n_outlier=0, group_size=8, body_bits=4, outlier_bits=None)
        sliced = rtn_weight_quantize(w, slices, fmt="mx")
        for s in sliced.scales:
            log2 = np.log2(s)
            np.testing.assert_allclose(log2, np.round(log2))

    def test_mx_storage_counts_8bit_scales(self, rng):
        w = rng.normal(size=(16, 32))
        slices = make_group_slices(32, n_outlier=0, group_size=8, body_bits=4, outlier_bits=None)
        mx = rtn_weight_quantize(w, slices, fmt="mx").storage_bits()
        fl = rtn_weight_quantize(w, slices, fmt="int").storage_bits()
        # 4 groups x 16 rows scales: MX at 8 bits vs FP16 at 16 bits.
        assert fl - mx == 4 * 16 * 8

    def test_mx_slightly_worse_than_float_scales(self, rng):
        """Power-of-two scales waste up to 1 bit of range => more error."""
        x = rng.normal(size=(256, 64))
        ci, si = _dynamic_act_quant(x, 4, 1.0, "int")
        cm, sm = _dynamic_act_quant(x, 4, 1.0, "mx")
        err_int = np.mean((ci * si - x) ** 2)
        err_mx = np.mean((cm * sm - x) ** 2)
        assert err_int <= err_mx <= 4 * err_int

    def test_mx_end_to_end(self, model7b, text_tokens):
        q = AtomQuantizer(AtomConfig.paper_default().with_(fmt="mx"))
        out = q.quantize(model7b)
        base = model7b.forward(text_tokens)
        corr = np.corrcoef(base.ravel(), out.forward(text_tokens).ravel())[0, 1]
        assert corr > 0.9


class TestPerSliceFormat:
    def test_fp8_outlier_slice(self, rng):
        w = rng.normal(size=(16, 32))
        slices = make_group_slices(
            32, n_outlier=4, group_size=None, body_bits=4, outlier_bits=8,
            outlier_fmt="fp",
        )
        assert slices[-1].fmt == "fp"
        sliced = rtn_weight_quantize(w, slices, fmt="int")
        # Outlier codes land on the FP8 grid (non-integral values appear).
        tail = sliced.codes[-1]
        assert not np.all(tail == np.round(tail))

    def test_invalid_slice_fmt_rejected(self):
        with pytest.raises(ValueError, match="fmt"):
            GroupSlice(0, 8, 4, fmt="bf16")

    def test_fp8_outliers_match_int8_accuracy(self, model7b, text_tokens):
        """§4.1: 8-bit representations such as FP8 and INT8 are both
        sufficient to express outliers."""
        base = model7b.forward(text_tokens)
        outs = {}
        for fmt in (None, "fp"):
            q = AtomQuantizer(AtomConfig.paper_default().with_(outlier_fmt=fmt))
            m = q.quantize(model7b)
            outs[fmt] = np.linalg.norm(m.forward(text_tokens) - base)
        assert abs(outs[None] - outs["fp"]) < 0.3 * outs[None]


class TestActOrder:
    def test_act_order_runs_and_reconstructs(self, rng):
        n_in, n_out = 64, 32
        x = rng.normal(size=(500, n_in)) * np.exp(rng.normal(0, 1, n_in))
        w = rng.normal(size=(n_out, n_in))
        slices = make_group_slices(n_in, n_outlier=4, group_size=16, body_bits=4, outlier_bits=8)
        h = hessian(x)
        sliced = gptq_quantize(w, h, slices, act_order=True)
        rel = np.linalg.norm(sliced.dequantize() - w) / np.linalg.norm(w)
        assert rel < 0.3

    def test_act_order_competitive_with_default(self, rng):
        """On heavy-tailed activations act-order should be within 20% of the
        default order on the Hessian-weighted objective."""
        losses = {"default": [], "act_order": []}
        for t in range(5):
            r = np.random.default_rng(t)
            n_in = 64
            x = r.normal(size=(500, n_in)) * np.exp(r.normal(0, 1.5, n_in))
            w = r.normal(size=(32, n_in))
            slices = make_group_slices(n_in, n_outlier=0, group_size=16, body_bits=4, outlier_bits=None)
            h = hessian(x)
            for key, flag in (("default", False), ("act_order", True)):
                deq = gptq_quantize(w, h, slices, clip=1.0, act_order=flag).dequantize()
                losses[key].append(np.linalg.norm((w - deq) @ x.T))
        ratio = np.mean(losses["act_order"]) / np.mean(losses["default"])
        assert ratio < 1.25

    def test_act_order_end_to_end(self, model7b, text_tokens):
        q = AtomQuantizer(AtomConfig.paper_default().with_(act_order=True))
        out = q.quantize(model7b)
        base = model7b.forward(text_tokens)
        corr = np.corrcoef(base.ravel(), out.forward(text_tokens).ravel())[0, 1]
        assert corr > 0.93


class TestSequentialCalibration:
    def test_sequential_runs(self, model7b, text_tokens):
        q = AtomQuantizer(AtomConfig.paper_default().with_(sequential=True))
        out = q.quantize(model7b)
        base = model7b.forward(text_tokens)
        corr = np.corrcoef(base.ravel(), out.forward(text_tokens).ravel())[0, 1]
        assert corr > 0.94

    def test_sequential_quantizes_every_linear(self, model7b):
        from repro.core.linear import AtomLinear

        q = AtomQuantizer(AtomConfig.paper_default().with_(sequential=True))
        out = q.quantize(model7b)
        assert all(isinstance(l, AtomLinear) for l in out.linears.values())

    def test_sequential_report_complete(self, model7b):
        q = AtomQuantizer(AtomConfig.paper_default().with_(sequential=True))
        q.quantize(model7b)
        assert set(q.report.weight_errors) == set(model7b.linear_names())

    def test_sequential_differs_from_oneshot_beyond_layer0(self, model7b):
        """Layer 0 sees identical calibration either way; later layers see
        quantized activations, so their outlier sets may differ and the
        Hessians certainly do."""
        q1 = AtomQuantizer(AtomConfig.paper_default())
        q2 = AtomQuantizer(AtomConfig.paper_default().with_(sequential=True))
        m1, m2 = q1.quantize(model7b), q2.quantize(model7b)
        l0_same = np.array_equal(
            m1.parts["layers.0.wq"].weight.codes[0],
            m2.parts["layers.0.wq"].weight.codes[0],
        )
        assert l0_same
        l1_same = np.array_equal(
            m1.parts["layers.1.wq"].weight.codes[0],
            m2.parts["layers.1.wq"].weight.codes[0],
        )
        assert not l1_same


class TestConfigValidation:
    def test_mx_fmt_accepted(self):
        assert AtomConfig(fmt="mx").fmt == "mx"

    def test_invalid_outlier_fmt_rejected(self):
        with pytest.raises(ValueError, match="outlier_fmt"):
            AtomConfig(outlier_fmt="bf16")

    def test_fp_outlier_bits_validated(self):
        with pytest.raises(ValueError):
            AtomConfig(outlier_fmt="fp", outlier_bits=6)

    def test_label_includes_fmt(self):
        assert "mx" in AtomConfig(fmt="mx").label()
