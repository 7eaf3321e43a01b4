"""OmniQuant-lite: calibration-optimized smoothing + clipping.

OmniQuant (Shao et al. 2023) learns two sets of parameters with block-wise
gradient descent: *learnable weight clipping* and a *learnable equivalent
transformation* (a generalized SmoothQuant scale).  Running its training
loop is out of scope here; this lite variant optimizes the same two knobs
with coordinate grid search on calibration data:

1. per-site smoothing alpha minimizing the site's joint quantization MSE
   (activation + weight reconstruction error, the objective OmniQuant's
   transform is trained against);
2. global weight / activation clip factors minimizing calibration NLL.

This lands where the paper's Table 2 puts OmniQuant at W4A4: far better
than SmoothQuant, far worse than Atom — the transform helps, but without
mixed-precision outliers and fine-grained groups, 4-bit resolution is
insufficient.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.smoothquant import smooth_weights
from repro.core.atom import AtomQuantizer
from repro.core.config import AtomConfig
from repro.core.outliers import sample_calibration_tokens
from repro.models.llama import LlamaModel
from repro.quant.dtypes import IntFormat

__all__ = ["OmniQuantLite"]


def _site_mse_alpha(
    acts: np.ndarray, weights: list[np.ndarray], alpha: float, bits: int
) -> float:
    """Joint act+weight quantization MSE proxy for one site under ``alpha``."""
    amax_x = np.maximum(np.abs(acts).max(axis=0), 1e-5)
    amax_w = np.maximum(
        np.max([np.abs(w).max(axis=0) for w in weights], axis=0), 1e-5
    )
    s = amax_x**alpha / amax_w ** (1.0 - alpha)
    s = np.maximum(s, 1e-5)
    f = IntFormat(bits)

    def qerr(m: np.ndarray, axis: int) -> float:
        amax = np.maximum(np.abs(m).max(axis=axis, keepdims=True), 1e-12)
        scale = 2.0 * amax / (f.n_levels - 1)
        q = np.clip(np.round(m / scale), f.qmin, f.qmax)
        return float(np.mean((q * scale - m) ** 2))

    err = qerr(acts / s, axis=1)
    for w in weights:
        err += qerr(w * s, axis=1)
    return err


class OmniQuantLite:
    """Grid-search analog of OmniQuant's learned transform + clipping."""

    def __init__(
        self,
        *,
        a_bits: int = 4,
        w_bits: int = 4,
        alpha_grid: tuple[float, ...] = (0.3, 0.45, 0.6, 0.75, 0.9),
        clip_grid: tuple[float, ...] = (0.8, 0.9, 1.0),
    ) -> None:
        self.a_bits = a_bits
        self.w_bits = w_bits
        self.alpha_grid = alpha_grid
        self.clip_grid = clip_grid
        self.name = f"omniquant-lite-w{w_bits}a{a_bits}"
        self.chosen: dict[str, float] = {}

    def quantize(
        self, model: LlamaModel, *, calib_tokens: np.ndarray | None = None
    ) -> LlamaModel:
        if calib_tokens is None:
            calib_tokens = sample_calibration_tokens(128, 64)
        site_acts = model.capture_site_inputs(calib_tokens)

        # 1. Per-site alpha by MSE proxy; we pick one alpha per model as the
        #    median of per-site optima (block-wise optima vary little and a
        #    single fold keeps smooth_weights reusable).
        from repro.baselines.smoothquant import _site_consumers

        per_site_alpha: list[float] = []
        for layer in range(model.config.n_layers):
            for site, consumers in _site_consumers(model, layer).items():
                weights = [model.weights[n] for n in consumers]
                errs = [
                    _site_mse_alpha(site_acts[site], weights, a, self.a_bits)
                    for a in self.alpha_grid
                ]
                per_site_alpha.append(self.alpha_grid[int(np.argmin(errs))])
        alpha = float(np.median(per_site_alpha))
        smoothed = LlamaModel(
            model.config, smooth_weights(model, site_acts, alpha)
        )

        # 2. Clip factors by calibration NLL.
        probe = calib_tokens[: min(16, len(calib_tokens))]
        best_model, best_nll, best_clips = None, np.inf, (1.0, 1.0)
        for w_clip in self.clip_grid:
            for a_clip in self.clip_grid:
                cfg = AtomConfig.rtn_w4a4().with_(
                    a_bits=self.a_bits,
                    w_bits=self.w_bits,
                    act_clip=a_clip,
                    weight_clip=w_clip,
                )
                q = AtomQuantizer(cfg).quantize(smoothed, calib_tokens=calib_tokens)
                nll = q.nll(probe)
                if nll < best_nll:
                    best_model, best_nll = q, nll
                    best_clips = (w_clip, a_clip)
        assert best_model is not None
        self.chosen = {
            "alpha": alpha,
            "weight_clip": best_clips[0],
            "act_clip": best_clips[1],
        }
        return best_model
