"""Inference model: consistency with the trainer, caching, capture hooks."""

import numpy as np
import pytest

from repro.models.config import get_config
from repro.models.llama import FloatLinear, LlamaModel, input_site
from repro.models.net import TrainableLlama, rope_tables


@pytest.fixture(scope="module")
def toy():
    cfg = get_config("llama-7b-sim")
    train = TrainableLlama(cfg)
    return cfg, train, LlamaModel(cfg, train.export_weights())


@pytest.fixture()
def tokens(toy):
    cfg, _, _ = toy
    return np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 24))


class TestInputSite:
    def test_attention_linears_share_site(self):
        assert input_site("layers.0.wq") == "layers.0.attn_in"
        assert input_site("layers.0.wk") == "layers.0.attn_in"
        assert input_site("layers.0.wv") == "layers.0.attn_in"

    def test_other_sites(self):
        assert input_site("layers.2.wo") == "layers.2.attn_out"
        assert input_site("layers.1.w_gate") == "layers.1.ffn_in"
        assert input_site("layers.1.w_up") == "layers.1.ffn_in"
        assert input_site("layers.1.w_down") == "layers.1.ffn_hidden"

    def test_moe_experts_share_sites(self):
        assert input_site("layers.0.experts.0.w_gate") == "layers.0.ffn_in"
        assert input_site("layers.0.experts.3.w_gate") == "layers.0.ffn_in"
        assert input_site("layers.0.experts.1.w_down") == "layers.0.ffn_hidden"

    def test_non_quantizable_rejected(self):
        with pytest.raises(ValueError):
            input_site("embed")


class TestForward:
    def test_matches_trainable_model(self, toy, tokens):
        cfg, train, infer = toy
        lt = train.forward(tokens).data
        li = infer.forward(tokens)
        np.testing.assert_allclose(lt, li, atol=2e-5)

    def test_gqa_matches_trainable(self, tokens):
        cfg = get_config("llama2-70b-sim")
        train = TrainableLlama(cfg)
        infer = LlamaModel(cfg, train.export_weights())
        np.testing.assert_allclose(
            train.forward(tokens).data, infer.forward(tokens), atol=2e-4
        )

    def test_moe_matches_trainable(self, tokens):
        cfg = get_config("mixtral-sim")
        train = TrainableLlama(cfg)
        infer = LlamaModel(cfg, train.export_weights())
        np.testing.assert_allclose(
            train.forward(tokens).data, infer.forward(tokens), atol=2e-4
        )

    def test_incremental_decode_matches_full(self, toy, tokens):
        _, _, infer = toy
        full = infer.forward(tokens[:1])
        cache: dict = {}
        a = infer.forward(tokens[:1, :10], cache=cache)
        b = infer.forward(tokens[:1, 10:], pos_offset=10, cache=cache)
        np.testing.assert_allclose(np.concatenate([a, b], axis=1), full, atol=2e-5)

    def test_token_by_token_decode_matches_full(self, toy, tokens):
        _, _, infer = toy
        seq = tokens[0, :8]
        full = infer.forward(seq[None, :])
        cache: dict = {}
        outs = [infer.forward(seq[None, :1], cache=cache)]
        for i in range(1, len(seq)):
            outs.append(
                infer.forward(seq[None, i : i + 1], pos_offset=i, cache=cache)
            )
        np.testing.assert_allclose(np.concatenate(outs, axis=1), full, atol=2e-5)

    def test_causality(self, toy, tokens):
        """Changing a future token must not change earlier logits."""
        _, _, infer = toy
        a = tokens[:1].copy()
        b = a.copy()
        b[0, -1] = (b[0, -1] + 1) % infer.config.vocab_size
        la = infer.forward(a)
        lb = infer.forward(b)
        np.testing.assert_allclose(la[0, :-1], lb[0, :-1], atol=1e-6)

    def test_sequence_too_long_rejected(self, toy):
        cfg, _, infer = toy
        too_long = np.zeros((1, cfg.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="max_seq_len"):
            infer.forward(too_long)

    def test_logits_shape(self, toy, tokens):
        cfg, _, infer = toy
        assert infer.forward(tokens).shape == (2, 24, cfg.vocab_size)


class TestRopeTables:
    def test_shapes(self):
        cos, sin = rope_tables(16, 8, 10000.0)
        assert cos.shape == sin.shape == (16, 4)

    def test_position_zero_is_identity(self):
        cos, sin = rope_tables(4, 8, 10000.0)
        np.testing.assert_allclose(cos[0], 1.0)
        np.testing.assert_allclose(sin[0], 0.0)

    def test_unit_circle(self):
        cos, sin = rope_tables(32, 8, 10000.0)
        np.testing.assert_allclose(cos**2 + sin**2, 1.0, atol=1e-6)


class TestLinearManagement:
    def test_replace_linears_validates_names(self, toy):
        _, _, infer = toy
        with pytest.raises(KeyError):
            infer.clone().replace_linears({"nonexistent": FloatLinear(np.zeros((2, 2)))})

    def test_replace_linears_validates_shapes(self, toy):
        _, _, infer = toy
        with pytest.raises(ValueError, match="shape mismatch"):
            infer.clone().replace_linears(
                {"layers.0.wq": FloatLinear(np.zeros((2, 2)))}
            )

    def test_clone_is_independent(self, toy, tokens):
        _, _, infer = toy
        clone = infer.clone()
        name = "layers.0.wq"
        clone.replace_linears({name: FloatLinear(np.zeros_like(infer.weights[name]))})
        assert not np.allclose(clone.forward(tokens), infer.forward(tokens))

    def test_linear_names_cover_all_dense_sites(self, toy):
        cfg, _, infer = toy
        names = infer.linear_names()
        assert len(names) == cfg.n_layers * 7
        assert all(n in infer.weights for n in names)

    def test_moe_linear_names(self):
        cfg = get_config("mixtral-sim")
        infer = LlamaModel(cfg, TrainableLlama(cfg).export_weights())
        names = infer.linear_names()
        assert len(names) == cfg.n_layers * (4 + 3 * cfg.n_experts)


class TestCapture:
    def test_capture_shapes(self, toy, tokens):
        cfg, _, infer = toy
        acts = infer.capture_site_inputs(tokens)
        n_tok = tokens.size
        assert acts[input_site("layers.0.wq")].shape == (n_tok, cfg.dim)
        assert acts[input_site("layers.0.w_down")].shape == (n_tok, cfg.ffn_dim)

    def test_qkv_capture_identical(self, toy, tokens):
        """wq/wk/wv read one record: the normed embedding entering layer 0."""
        cfg, _, infer = toy
        acts = infer.capture_site_inputs(tokens)
        site = input_site("layers.0.wq")
        assert input_site("layers.0.wk") == input_site("layers.0.wv") == site
        normed = infer._rms_norm(
            infer.embed(tokens), infer.weights["layers.0.attn_norm"], cfg.norm_eps
        )
        np.testing.assert_array_equal(acts[site], normed.reshape(-1, cfg.dim))

    def test_capture_resets_after_use(self, toy, tokens):
        _, _, infer = toy
        infer.capture_site_inputs(tokens)
        assert infer._capture is None


class TestScoringAndGeneration:
    def test_nll_positive(self, toy, tokens):
        _, _, infer = toy
        assert infer.nll(tokens) > 0

    def test_untrained_nll_near_uniform(self, toy, tokens):
        cfg, _, infer = toy
        # An untrained model should score close to log(V).
        assert abs(infer.nll(tokens) - np.log(cfg.vocab_size)) < 0.5

    def test_sequence_logprob_additivity(self, toy, tokens):
        _, _, infer = toy
        seq = tokens[0, :12]
        full = infer.sequence_logprob(seq, start=1)
        head = infer.sequence_logprob(seq, start=1) - infer.sequence_logprob(
            seq, start=6
        )
        tail = infer.sequence_logprob(seq, start=6)
        assert full == pytest.approx(head + tail, abs=1e-8)

    def test_generate_greedy_deterministic(self, toy):
        _, _, infer = toy
        prompt = np.array([5, 6, 7])
        a = infer.generate(prompt, 10)
        b = infer.generate(prompt, 10)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 13

    def test_generate_respects_max_seq_len(self, toy):
        cfg, _, infer = toy
        prompt = np.arange(10) % cfg.vocab_size
        out = infer.generate(prompt, cfg.max_seq_len + 100)
        assert len(out) <= cfg.max_seq_len

    def test_generate_sampled_seeded(self, toy):
        _, _, infer = toy
        prompt = np.array([5, 6, 7])
        a = infer.generate(prompt, 8, temperature=1.0, seed=3)
        b = infer.generate(prompt, 8, temperature=1.0, seed=3)
        np.testing.assert_array_equal(a, b)
