"""Trainable decoder: gradients through the whole network, param registry."""

import numpy as np
import pytest

from repro.models.config import ModelConfig
from repro.models.net import TrainableLlama
from tensor.gradcheck import gradcheck  # tests/tensor/gradcheck.py (pytest puts tests/ on sys.path)


@pytest.fixture(scope="module")
def tiny():
    cfg = ModelConfig("grad-test", dim=16, n_layers=1, n_heads=2, n_kv_heads=2,
                      ffn_dim=32, group_size=8, vocab_size=11, seed=5)
    return cfg, TrainableLlama(cfg)


class TestWholeModelGradients:
    def test_loss_gradient_matches_finite_differences(self, tiny):
        """End-to-end gradcheck of the full decoder loss on a few params."""
        cfg, model = tiny
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, cfg.vocab_size, size=(2, 6))
        targets = rng.integers(0, cfg.vocab_size, size=(2, 6))
        for name in ("embed", "layers.0.wq", "layers.0.w_down",
                     "layers.0.attn_norm", "lm_head"):
            p = model.params[name]
            gradcheck(
                lambda _p: model.loss(tokens, targets),
                [p],
                eps=3e-3,
                rtol=6e-2,
                atol=6e-3,
            )

    def test_every_parameter_receives_gradient(self, tiny):
        cfg, model = tiny
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, cfg.vocab_size, size=(2, 8))
        targets = rng.integers(0, cfg.vocab_size, size=(2, 8))
        for p in model.parameters():
            p.zero_grad()
        model.loss(tokens, targets).backward()
        for name, p in model.params.items():
            assert p.grad is not None, name
            assert np.abs(p.grad).max() > 0, name

    def test_moe_router_and_experts_receive_gradient(self):
        cfg = ModelConfig("grad-moe", dim=16, n_layers=1, n_heads=2, n_kv_heads=2,
                          ffn_dim=16, group_size=8, vocab_size=11,
                          n_experts=3, top_k=2, seed=6)
        model = TrainableLlama(cfg)
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, cfg.vocab_size, size=(2, 8))
        targets = rng.integers(0, cfg.vocab_size, size=(2, 8))
        model.loss(tokens, targets).backward()
        assert np.abs(model.params["layers.0.router"].grad).max() > 0
        touched = sum(
            np.abs(model.params[f"layers.0.experts.{e}.w_gate"].grad).max() > 0
            for e in range(cfg.n_experts)
        )
        assert touched >= 2  # top-2 routing reaches at least two experts


class TestParamRegistry:
    def test_export_load_roundtrip(self, tiny):
        cfg, model = tiny
        weights = model.export_weights()
        clone = TrainableLlama(cfg, rng=np.random.default_rng(999))
        clone.load_weights(weights)
        toks = np.random.default_rng(3).integers(0, cfg.vocab_size, size=(1, 6))
        np.testing.assert_allclose(
            model.forward(toks).data, clone.forward(toks).data, atol=1e-6
        )

    def test_load_missing_key_rejected(self, tiny):
        cfg, model = tiny
        weights = model.export_weights()
        weights.pop("embed")
        with pytest.raises(KeyError):
            TrainableLlama(cfg).load_weights(weights)

    def test_load_shape_mismatch_rejected(self, tiny):
        cfg, model = tiny
        weights = model.export_weights()
        weights["embed"] = weights["embed"][:, :8]
        with pytest.raises(ValueError, match="shape"):
            TrainableLlama(cfg).load_weights(weights)

    def test_n_params_matches_config(self, tiny):
        cfg, model = tiny
        assert model.n_params() == cfg.n_params()
