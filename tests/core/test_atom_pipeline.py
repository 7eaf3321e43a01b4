"""The end-to-end AtomQuantizer pipeline (§4.5)."""

import numpy as np
import pytest

from repro.core import AtomConfig, AtomKVCodec, AtomQuantizer
from repro.core.linear import AtomLinear
from repro.models.llama import FloatLinear, input_site


@pytest.fixture()
def tokens(model7b):
    # Real corpus text: quantization quality statements only hold on the
    # data distribution the calibration saw.
    from repro.data.corpus import corpus_splits
    from repro.data.tokenizer import CharTokenizer

    _, eval_text = corpus_splits("synthwiki")
    return CharTokenizer().encode(eval_text[:64]).reshape(2, 32)


class TestAtomConfig:
    def test_paper_default(self):
        cfg = AtomConfig.paper_default()
        assert cfg.a_bits == cfg.w_bits == 4
        assert cfg.outlier_bits == 8
        assert cfg.use_gptq
        assert cfg.kv_bits == 4
        assert (cfg.act_clip, cfg.weight_clip) == (0.9, 0.85)

    def test_rtn_has_everything_off(self):
        cfg = AtomConfig.rtn_w4a4()
        assert cfg.n_outlier == 0
        assert cfg.group_size is None
        assert not cfg.use_gptq
        assert cfg.kv_bits is None

    def test_with_updates(self):
        cfg = AtomConfig.paper_default().with_(a_bits=3, w_bits=3)
        assert (cfg.a_bits, cfg.w_bits) == (3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomConfig(fmt="bf16")
        with pytest.raises(ValueError):
            AtomConfig(a_bits=1)
        with pytest.raises(ValueError):
            AtomConfig(act_clip=0.0)

    def test_label(self):
        assert AtomConfig.paper_default().label() == "atom-w4a4-g128"
        assert AtomConfig(fmt="fp", group_size=None).label() == "atom-w4a4-fp"


class TestQuantizePipeline:
    def test_output_close_to_fp16(self, model7b, atom7b, tokens):
        base = model7b.forward(tokens)
        quant = atom7b.forward(tokens)
        corr = np.corrcoef(base.ravel(), quant.ravel())[0, 1]
        assert corr > 0.95

    def test_original_model_untouched(self, model7b, tokens):
        before = model7b.forward(tokens)
        AtomQuantizer(AtomConfig.paper_default()).quantize(model7b)
        np.testing.assert_array_equal(model7b.forward(tokens), before)
        assert all(isinstance(l, FloatLinear) for l in model7b.linears.values())

    def test_all_linears_replaced(self, atom7b):
        assert all(isinstance(l, AtomLinear) for l in atom7b.linears.values())

    def test_kv_codec_installed(self, atom7b):
        assert isinstance(atom7b.kv_codec, AtomKVCodec)

    def test_kv_codec_not_installed_when_disabled(self, model7b):
        q = AtomQuantizer(AtomConfig.paper_default().with_(kv_bits=None))
        out = q.quantize(model7b)
        assert not isinstance(out.kv_codec, AtomKVCodec)

    def test_report_populated(self, model7b):
        q = AtomQuantizer(AtomConfig.paper_default())
        q.quantize(model7b)
        names = set(model7b.linear_names())
        assert set(q.report.weight_errors) == names
        assert all(0 <= v < 1.0 for v in q.report.weight_errors.values())
        assert q.report.mean_weight_error > 0

    def test_effective_bits_reported(self, model7b):
        q = AtomQuantizer(AtomConfig.paper_default())
        q.quantize(model7b)
        bits = list(q.report.effective_weight_bits.values())
        # W4 + INT8 outliers + group scales: between 4 and 7 effective bits.
        assert all(4.0 < b < 7.0 for b in bits)

    def test_outlier_channels_recorded_per_site(self, model7b):
        q = AtomQuantizer(AtomConfig.paper_default())
        q.quantize(model7b)
        c = model7b.config
        assert len(q.report.outlier_channels) == 4 * c.n_layers
        for idx in q.report.outlier_channels.values():
            assert len(idx) == c.n_outlier

    def test_shared_permutation_across_site_consumers(self, model7b):
        q = AtomQuantizer(AtomConfig.paper_default())
        out = q.quantize(model7b)
        wq = out.parts["layers.0.wq"]
        wk = out.parts["layers.0.wk"]
        np.testing.assert_array_equal(wq.perm, wk.perm)

    def test_rtn_config_has_no_perm(self, model7b):
        out = AtomQuantizer(AtomConfig.rtn_w4a4()).quantize(model7b)
        assert all(l.perm is None for l in out.linears.values())

    def test_weight_reconstruction_good(self, model7b):
        q = AtomQuantizer(AtomConfig.paper_default())
        q.quantize(model7b)
        # Group-quantized GPTQ at 4 bits: per-layer relative error well
        # below naive levels.
        assert q.report.mean_weight_error < 0.25

    def test_custom_calib_tokens(self, model7b):
        calib = np.random.default_rng(3).integers(
            0, model7b.config.vocab_size, size=(4, 16)
        )
        out = AtomQuantizer(AtomConfig.paper_default()).quantize(
            model7b, calib_tokens=calib
        )
        assert isinstance(out.parts["layers.0.wq"], AtomLinear)

    def test_w3a3_runs(self, model7b, tokens):
        cfg = AtomConfig.paper_default().with_(a_bits=3, w_bits=3, kv_bits=3)
        out = AtomQuantizer(cfg).quantize(model7b)
        assert np.isfinite(out.forward(tokens)).all()

    def test_fp4_variant(self, model7b, tokens):
        cfg = AtomConfig.paper_default().with_(fmt="fp")
        out = AtomQuantizer(cfg).quantize(model7b)
        base = model7b.forward(tokens)
        corr = np.corrcoef(base.ravel(), out.forward(tokens).ravel())[0, 1]
        assert corr > 0.95

    def test_moe_quantization_shares_expert_perms(self, moe_model):
        q = AtomQuantizer(AtomConfig.paper_default())
        out = q.quantize(moe_model)
        e0 = out.parts["layers.0.experts.0.w_gate"]
        e3 = out.parts["layers.0.experts.3.w_gate"]
        np.testing.assert_array_equal(e0.perm, e3.perm)

    def test_moe_quantized_output_reasonable(self, moe_model):
        toks = np.random.default_rng(4).integers(
            0, moe_model.config.vocab_size, size=(2, 24)
        )
        out = AtomQuantizer(AtomConfig.paper_default()).quantize(moe_model)
        base = moe_model.forward(toks)
        corr = np.corrcoef(base.ravel(), out.forward(toks).ravel())[0, 1]
        assert corr > 0.95
