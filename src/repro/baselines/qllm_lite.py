"""QLLM-lite: adaptive channel disassembly.

QLLM (Liu et al. 2023a) handles activation outliers by *disassembling* each
outlier channel into several sub-channels carrying ``x_c / m`` each (the
consumer weight column is duplicated ``m`` times, so the product is exactly
preserved), then reassembling after quantization.  Magnitudes shrink by
``m``, so uniform low-bit quantization covers them.  The original also adds
low-rank error compensation (LoRC), which we omit — the disassembly is the
mechanism that addresses outliers, and the accuracy band the paper's
Table 2 assigns QLLM (better than OmniQuant, well short of Atom) is set by
it.

Implementation: per activation site, channels whose calibration ``amax``
exceeds ``theta = threshold x median`` are split into
``ceil(amax / theta)`` copies (capped).  Runtime cost is a gather + scale of
the activation (the expansion) before a standard per-token / per-channel
quantized GEMM on the expanded matrix.
"""

from __future__ import annotations

import numpy as np

from repro.core.gptq import rtn_weight_quantize
from repro.core.groups import make_group_slices
from repro.core.linear import AtomLinear
from repro.core.outliers import sample_calibration_tokens
from repro.models.llama import LlamaModel, input_site

__all__ = ["QLLMLite", "disassembly_plan"]


def disassembly_plan(
    acts: np.ndarray, *, threshold: float = 4.0, max_copies: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the channel expansion for one site.

    Returns ``(col_map, inv_mult)``: the expanded activation is
    ``x[:, col_map] * inv_mult`` where each disassembled channel appears
    ``m`` times with ``inv_mult = 1/m``.
    """
    amax = np.abs(acts).max(axis=0)
    theta = threshold * max(float(np.median(amax)), 1e-8)
    copies = np.ceil(np.maximum(amax, theta) / theta).astype(np.int64)
    copies = np.minimum(copies, max_copies)
    col_map = np.repeat(np.arange(len(amax)), copies)
    inv_mult = np.repeat(1.0 / copies, copies)
    return col_map, inv_mult.astype(np.float64)


class DisassembledLinear(AtomLinear):
    """Quantized linear over the disassembled (expanded) channel axis."""

    def __init__(
        self,
        sliced_weight,
        *,
        col_map: np.ndarray,
        inv_mult: np.ndarray,
        orig_in: int,
        a_bits: int,
        act_clip: float = 1.0,
    ) -> None:
        super().__init__(
            sliced_weight, perm=None, a_bits=a_bits, act_clip=act_clip, fmt="int"
        )
        self.col_map = col_map
        self.inv_mult = inv_mult
        self._orig_in = orig_in

    @property
    def in_features(self) -> int:  # report pre-expansion width for validation
        return self._orig_in

    def _prepare(self, x: np.ndarray) -> np.ndarray:
        # AtomLinear's perm is None: expand, then run its sliced quantized
        # GEMM on the disassembled channels (x / m rounded once to float32).
        expanded = super()._prepare(x)[:, self.col_map] * self.inv_mult
        return expanded.astype(np.float32)

    def activation_signature(self) -> tuple:
        return super().activation_signature() + (
            self.col_map.tobytes(),
            self.inv_mult.tobytes(),
            self._orig_in,
        )

    def with_weight(self, weight) -> "DisassembledLinear":
        return DisassembledLinear(
            weight,
            col_map=self.col_map,
            inv_mult=self.inv_mult,
            orig_in=self._orig_in,
            a_bits=self.a_bits,
            act_clip=self.act_clip,
        )


class QLLMLite:
    """Channel-disassembly WxAx quantizer."""

    def __init__(
        self,
        *,
        a_bits: int = 4,
        w_bits: int = 4,
        threshold: float = 4.0,
        max_copies: int = 16,
    ) -> None:
        self.a_bits = a_bits
        self.w_bits = w_bits
        self.threshold = threshold
        self.max_copies = max_copies
        self.name = f"qllm-lite-w{w_bits}a{a_bits}"
        self.expansion_ratio: dict[str, float] = {}

    def quantize(
        self, model: LlamaModel, *, calib_tokens: np.ndarray | None = None
    ) -> LlamaModel:
        if calib_tokens is None:
            calib_tokens = sample_calibration_tokens(128, 64)
        site_acts = model.capture_site_inputs(calib_tokens)
        plans = {
            site: disassembly_plan(
                acts, threshold=self.threshold, max_copies=self.max_copies
            )
            for site, acts in site_acts.items()
        }
        qmodel = model.clone()
        mapping: dict[str, DisassembledLinear] = {}
        for name in model.linear_names():
            site = input_site(name)
            col_map, inv_mult = plans[site]
            w = model.weights[name].astype(np.float64)
            w_exp = w[:, col_map]  # duplicated columns reassemble the sum
            slices = make_group_slices(
                w_exp.shape[1],
                n_outlier=0,
                group_size=None,
                body_bits=self.w_bits,
                outlier_bits=None,
            )
            sliced = rtn_weight_quantize(w_exp, slices, clip=1.0, fmt="int")
            mapping[name] = DisassembledLinear(
                sliced,
                col_map=col_map,
                inv_mult=inv_mult,
                orig_in=w.shape[1],
                a_bits=self.a_bits,
            )
            self.expansion_ratio[name] = len(col_map) / w.shape[1]
        qmodel.replace_linears(mapping)
        return qmodel
