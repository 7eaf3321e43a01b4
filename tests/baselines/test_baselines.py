"""Baseline quantizers: mechanics and the paper's accuracy ordering."""

import numpy as np
import pytest

from repro.baselines import (
    OmniQuantLite,
    QLLMLite,
    RTNQuantizer,
    SmoothQuantQuantizer,
    WeightOnlyGPTQ,
)
from repro.baselines.qllm_lite import disassembly_plan
from repro.baselines.smoothquant import smooth_weights
from repro.core.outliers import sample_calibration_tokens
from repro.models.llama import LlamaModel


@pytest.fixture(scope="module")
def calib():
    return sample_calibration_tokens(16, 32)


@pytest.fixture(scope="module")
def text_tokens():
    from repro.data.corpus import corpus_splits
    from repro.data.tokenizer import CharTokenizer

    _, eval_text = corpus_splits("synthwiki")
    return CharTokenizer().encode(eval_text[:128]).reshape(2, 64)


class TestSmoothQuant:
    def test_smoothing_is_function_preserving(self, model7b, calib, text_tokens):
        sites = model7b.capture_site_inputs(calib)
        smoothed = LlamaModel(model7b.config, smooth_weights(model7b, sites, 0.5))
        np.testing.assert_allclose(
            model7b.forward(text_tokens), smoothed.forward(text_tokens), atol=1e-3
        )

    def test_smoothing_shrinks_activation_outliers(self, model7b, calib):
        sites = model7b.capture_site_inputs(calib)
        smoothed = LlamaModel(model7b.config, smooth_weights(model7b, sites, 0.5))
        before = sites["layers.0.attn_in"]
        after = smoothed.capture_site_inputs(calib)["layers.0.attn_in"]
        ratio_before = np.abs(before).max() / np.median(np.abs(before).max(axis=0))
        ratio_after = np.abs(after).max() / np.median(np.abs(after).max(axis=0))
        assert ratio_after < ratio_before

    def test_invalid_alpha_rejected(self, model7b, calib):
        sites = model7b.capture_site_inputs(calib)
        with pytest.raises(ValueError):
            smooth_weights(model7b, sites, 0.0)

    def test_w8a8_near_lossless(self, model7b, calib, text_tokens):
        q = SmoothQuantQuantizer(a_bits=8, w_bits=8, alpha=0.5)
        out = q.quantize(model7b, calib_tokens=calib)
        base = model7b.forward(text_tokens)
        rel = np.linalg.norm(out.forward(text_tokens) - base) / np.linalg.norm(base)
        assert rel < 0.08

    def test_alpha_grid_search_records_choice(self, model7b, calib):
        q = SmoothQuantQuantizer(a_bits=8, w_bits=8, alpha_grid=(0.3, 0.7))
        q.quantize(model7b, calib_tokens=calib)
        assert q.chosen_alpha in (0.3, 0.7)

    def test_name(self):
        assert SmoothQuantQuantizer(a_bits=4, w_bits=4).name == "smoothquant-w4a4"


class TestQLLMLite:
    def test_disassembly_plan_reassembles_exactly(self):
        acts = np.ones((10, 4))
        acts[:, 2] = 100.0
        col_map, inv_mult = disassembly_plan(acts, threshold=4.0, max_copies=16)
        x = np.random.default_rng(0).normal(size=(5, 4))
        expanded = x[:, col_map] * inv_mult
        # Summing duplicated sub-channels restores the original product
        # against a weight whose columns are duplicated the same way.
        w = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(expanded @ w[:, col_map].T, x @ w.T, atol=1e-12)

    def test_outlier_channels_get_more_copies(self):
        acts = np.ones((10, 4))
        acts[:, 2] = 100.0
        col_map, _ = disassembly_plan(acts, threshold=4.0, max_copies=16)
        counts = np.bincount(col_map, minlength=4)
        assert counts[2] > counts[0]

    def test_copies_capped(self):
        acts = np.ones((10, 16))
        acts[:, 1] = 1e6  # median amax stays 1, so theta = threshold
        col_map, _ = disassembly_plan(acts, threshold=2.0, max_copies=8)
        assert np.bincount(col_map, minlength=16)[1] == 8

    def test_quantize_accuracy_reasonable(self, model7b, calib, text_tokens):
        q = QLLMLite()
        out = q.quantize(model7b, calib_tokens=calib)
        base = model7b.forward(text_tokens)
        corr = np.corrcoef(base.ravel(), out.forward(text_tokens).ravel())[0, 1]
        assert corr > 0.9

    def test_expansion_ratio_recorded(self, model7b, calib):
        q = QLLMLite()
        q.quantize(model7b, calib_tokens=calib)
        assert all(r >= 1.0 for r in q.expansion_ratio.values())
        assert any(r > 1.0 for r in q.expansion_ratio.values())


class TestWeightOnly:
    def test_w4a16_accuracy_close_to_fp16(self, model7b, calib, text_tokens):
        out = WeightOnlyGPTQ().quantize(model7b, calib_tokens=calib)
        base = model7b.forward(text_tokens)
        rel = np.linalg.norm(out.forward(text_tokens) - base) / np.linalg.norm(base)
        assert rel < 0.2  # only weights approximated

    def test_activations_stay_fp16(self, model7b, calib):
        from repro.baselines.weight_only import DequantizedLinear

        out = WeightOnlyGPTQ().quantize(model7b, calib_tokens=calib)
        assert all(
            isinstance(l, DequantizedLinear) for l in out.linears.values()
        )


class TestOrdering:
    """The central accuracy claim of Tables 1-2: Atom beats every W4A4
    baseline; baselines order SmoothQuant < OmniQuant < QLLM < Atom."""

    @pytest.fixture(scope="class")
    def ppls(self, model7b, calib):
        from repro.core import AtomConfig, AtomQuantizer
        from repro.eval import perplexity

        out = {"fp16": perplexity(model7b, "synthwiki", eval_chars=4096)}
        quantizers = {
            "atom": AtomQuantizer(AtomConfig.paper_default()),
            "smoothquant": SmoothQuantQuantizer(a_bits=4, w_bits=4, alpha=0.5),
            "qllm": QLLMLite(),
            "rtn": RTNQuantizer(),
        }
        for name, q in quantizers.items():
            out[name] = perplexity(
                q.quantize(model7b, calib_tokens=calib), "synthwiki", eval_chars=4096
            )
        return out

    def test_atom_beats_all_w4a4_baselines(self, ppls):
        assert ppls["atom"] < ppls["smoothquant"]
        assert ppls["atom"] < ppls["qllm"]
        assert ppls["atom"] < ppls["rtn"]

    def test_rtn_collapses(self, ppls):
        assert ppls["rtn"] > 2 * ppls["fp16"]

    def test_atom_close_to_fp16(self, ppls):
        assert ppls["atom"] < 1.5 * ppls["fp16"]

    def test_qllm_beats_smoothquant(self, ppls):
        assert ppls["qllm"] < ppls["smoothquant"]
