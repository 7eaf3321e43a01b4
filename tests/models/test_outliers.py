"""Outlier injection: function preservation and the injected spectrum."""

import numpy as np
import pytest

from repro.models.config import get_config
from repro.models.llama import LlamaModel, input_site
from repro.models.net import TrainableLlama
from repro.models.outliers import channel_scale_vector, inject_outlier_channels


@pytest.fixture(scope="module")
def setup():
    cfg = get_config("llama-7b-sim")
    weights = TrainableLlama(cfg).export_weights()
    injected = inject_outlier_channels(cfg, weights, seed=77)
    return cfg, weights, injected


@pytest.fixture()
def tokens(setup):
    cfg, _, _ = setup
    return np.random.default_rng(1).integers(0, cfg.vocab_size, size=(2, 24))


class TestScaleVector:
    def test_shape_and_positive(self):
        rng = np.random.default_rng(0)
        s = channel_scale_vector(rng, 64, n_outlier=4, magnitude=50.0)
        assert s.shape == (64,)
        assert (s > 0).all()

    def test_outlier_count(self):
        rng = np.random.default_rng(0)
        s = channel_scale_vector(rng, 64, n_outlier=4, magnitude=50.0)
        assert (s >= 25.0).sum() == 4  # magnitude/2 lower bound

    def test_moderate_tail_exists(self):
        rng = np.random.default_rng(0)
        s = channel_scale_vector(rng, 64, n_outlier=4, magnitude=50.0)
        moderate = ((s >= 2.0) & (s < 25.0)).sum()
        assert moderate >= 10  # ~25% of the 60 non-outlier channels

    def test_no_outliers_option(self):
        rng = np.random.default_rng(0)
        s = channel_scale_vector(rng, 64, n_outlier=0, magnitude=1.0)
        assert s.max() < 25.0


class TestFunctionPreservation:
    def test_logits_unchanged(self, setup, tokens):
        cfg, weights, injected = setup
        base = LlamaModel(cfg, weights).forward(tokens)
        out = LlamaModel(cfg, injected).forward(tokens)
        np.testing.assert_allclose(base, out, atol=5e-5)

    def test_gqa_model_preserved(self, tokens):
        cfg = get_config("llama2-70b-sim")
        weights = TrainableLlama(cfg).export_weights()
        injected = inject_outlier_channels(cfg, weights, seed=5)
        base = LlamaModel(cfg, weights).forward(tokens)
        out = LlamaModel(cfg, injected).forward(tokens)
        np.testing.assert_allclose(base, out, atol=5e-4)

    def test_moe_model_preserved(self, tokens):
        cfg = get_config("mixtral-sim")
        weights = TrainableLlama(cfg).export_weights()
        injected = inject_outlier_channels(cfg, weights, seed=5)
        base = LlamaModel(cfg, weights).forward(tokens)
        out = LlamaModel(cfg, injected).forward(tokens)
        np.testing.assert_allclose(base, out, atol=5e-4)

    def test_original_weights_untouched(self, setup):
        cfg, weights, _ = setup
        fresh = TrainableLlama(cfg).export_weights()
        for k in weights:
            np.testing.assert_array_equal(weights[k], fresh[k])


class TestInjectedPhenomenon:
    def test_activations_have_outlier_channels(self, setup, tokens):
        """Fig. 5(a): a few channels orders larger than the rest."""
        cfg, _, injected = setup
        model = LlamaModel(cfg, injected)
        x = model.capture_site_inputs(tokens)[input_site("layers.0.wq")]
        mags = np.abs(x).mean(axis=0)
        assert mags.max() / np.median(mags) > 10.0

    def test_pristine_model_has_no_outliers(self, setup, tokens):
        cfg, weights, _ = setup
        model = LlamaModel(cfg, weights)
        x = model.capture_site_inputs(tokens)[input_site("layers.0.wq")]
        mags = np.abs(x).mean(axis=0)
        assert mags.max() / np.median(mags) < 10.0

    def test_v_cache_milder_than_activations(self, setup, tokens):
        """Fig. 9: the V cache shows far fewer outliers than dense inputs."""
        cfg, _, injected = setup
        model = LlamaModel(cfg, injected)
        x = model.capture_site_inputs(tokens)[input_site("layers.0.wq")]
        v = x @ model.weights["layers.0.wv"].T  # V-cache contents
        act_ratio = np.abs(x).mean(axis=0).max() / np.median(np.abs(x).mean(axis=0))
        v_ratio = np.abs(v).mean(axis=0).max() / np.median(np.abs(v).mean(axis=0))
        assert v_ratio < act_ratio / 2

    def test_injection_deterministic(self, setup):
        cfg, weights, injected = setup
        again = inject_outlier_channels(cfg, weights, seed=77)
        for k in injected:
            np.testing.assert_array_equal(injected[k], again[k])

    def test_custom_magnitude(self, setup, tokens):
        cfg, weights, _ = setup
        strong = inject_outlier_channels(cfg, weights, magnitude=200.0, seed=1)
        weak = inject_outlier_channels(cfg, weights, magnitude=10.0, seed=1)
        site = input_site("layers.0.wq")
        xs = LlamaModel(cfg, strong).capture_site_inputs(tokens)[site]
        xw = LlamaModel(cfg, weak).capture_site_inputs(tokens)[site]
        r_strong = np.abs(xs).max()
        r_weak = np.abs(xw).max()
        assert r_strong > r_weak
