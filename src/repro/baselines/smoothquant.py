"""SmoothQuant (Xiao et al. 2023), implemented from scratch.

SmoothQuant migrates quantization difficulty from activations to weights
with a mathematically-equivalent per-channel rescale: for a foldable site,

    X' = X / s,   W' = W * s,   s_c = amax_X(c)^alpha / amax_W(c)^(1-alpha)

folded into the preceding RMSNorm gain (so runtime cost is zero).  Only the
norm-fed sites (``attn_in``, ``ffn_in``) are foldable, exactly as in the
original paper; ``attn_out`` / ``ffn_hidden`` activations are quantized
directly.  After smoothing, weights are quantized per-output-channel and
activations per-token (symmetric, dynamic).

The paper's §5.2 grid-searches alpha and reports the best number per
benchmark; :class:`SmoothQuantQuantizer` with ``alpha=None`` does the same
using calibration NLL.

At W8A8 this is near-lossless (its home turf); at W4A4 it collapses —
Tables 1-2 of the Atom paper show exactly that, and so does this
implementation — because smoothing spreads, but does not remove, the
outlier mass.
"""

from __future__ import annotations

import numpy as np

from repro.core.atom import AtomQuantizer
from repro.core.config import AtomConfig
from repro.core.outliers import sample_calibration_tokens
from repro.models.llama import LlamaModel

__all__ = ["SmoothQuantQuantizer", "smooth_weights"]

_DEFAULT_ALPHA_GRID = (0.3, 0.5, 0.7, 0.85)


def _site_consumers(model: LlamaModel, layer: int) -> dict[str, list[str]]:
    """Foldable sites and their consumer linears for one layer."""
    c = model.config
    pre = f"layers.{layer}"
    attn = [f"{pre}.wq", f"{pre}.wk", f"{pre}.wv"]
    if c.is_moe:
        ffn = [
            f"{pre}.experts.{e}.{n}"
            for e in range(c.n_experts)
            for n in ("w_gate", "w_up")
        ]
    else:
        ffn = [f"{pre}.w_gate", f"{pre}.w_up"]
    return {
        f"{pre}.attn_in": attn,
        f"{pre}.ffn_in": ffn,
    }


def smooth_weights(
    model: LlamaModel,
    site_acts: dict[str, np.ndarray],
    alpha: float,
) -> dict[str, np.ndarray]:
    """Return a smoothed copy of the model's weights (function-preserving)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    w = {k: v.copy() for k, v in model.weights.items()}
    for layer in range(model.config.n_layers):
        for site, consumers in _site_consumers(model, layer).items():
            acts = site_acts[site]
            amax_x = np.maximum(np.abs(acts).max(axis=0), 1e-5)
            amax_w = np.maximum(
                np.max([np.abs(w[name]).max(axis=0) for name in consumers], axis=0),
                1e-5,
            )
            s = amax_x**alpha / amax_w ** (1.0 - alpha)
            s = np.maximum(s, 1e-5).astype(np.float32)
            norm_name = (
                f"layers.{layer}.attn_norm"
                if site.endswith("attn_in")
                else f"layers.{layer}.mlp_norm"
            )
            w[norm_name] /= s
            for name in consumers:
                w[name] *= s[None, :]
    return w


class SmoothQuantQuantizer:
    """SmoothQuant WxAx with (optionally grid-searched) alpha."""

    def __init__(
        self,
        *,
        a_bits: int = 8,
        w_bits: int = 8,
        alpha: float | None = None,
        alpha_grid: tuple[float, ...] = _DEFAULT_ALPHA_GRID,
    ) -> None:
        self.a_bits = a_bits
        self.w_bits = w_bits
        self.alpha = alpha
        self.alpha_grid = alpha_grid
        self.name = f"smoothquant-w{w_bits}a{a_bits}"
        self.chosen_alpha: float | None = alpha

    def _quantize_with_alpha(
        self,
        model: LlamaModel,
        site_acts: dict[str, np.ndarray],
        alpha: float,
        calib_tokens: np.ndarray,
    ) -> LlamaModel:
        smoothed = LlamaModel(model.config, smooth_weights(model, site_acts, alpha))
        cfg = AtomConfig.rtn_w4a4().with_(a_bits=self.a_bits, w_bits=self.w_bits)
        return AtomQuantizer(cfg).quantize(smoothed, calib_tokens=calib_tokens)

    def quantize(
        self, model: LlamaModel, *, calib_tokens: np.ndarray | None = None
    ) -> LlamaModel:
        if calib_tokens is None:
            calib_tokens = sample_calibration_tokens(128, 64)
        site_acts = model.capture_site_inputs(calib_tokens)
        if self.alpha is not None:
            return self._quantize_with_alpha(
                model, site_acts, self.alpha, calib_tokens
            )
        # Grid search on calibration NLL, like the paper's baseline setup.
        best, best_nll = None, np.inf
        for alpha in self.alpha_grid:
            q = self._quantize_with_alpha(model, site_acts, alpha, calib_tokens)
            nll = q.nll(calib_tokens[: min(16, len(calib_tokens))])
            if nll < best_nll:
                best, best_nll, self.chosen_alpha = q, nll, alpha
        assert best is not None
        return best
