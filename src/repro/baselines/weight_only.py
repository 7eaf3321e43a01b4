"""W4A16 weight-only quantization (GPTQ), the serving baseline of Figs. 10-11.

Weights are quantized to low-bit per-group via GPTQ; activations stay FP16.
At run time the weight must be dequantized before an FP16 GEMM — which is
exactly why weight-only quantization cannot use low-bit tensor cores and
loses to weight-activation quantization at large batch (§3 of the paper).
Accuracy-wise the scheme is strong (only weights are approximated); the
executor here multiplies by the dequantized weight, which is bit-identical
to dequantize-then-FP16-GEMM.
"""

from __future__ import annotations

import numpy as np

from repro.core.gptq import gptq_quantize, hessian
from repro.core.groups import make_group_slices
from repro.core.outliers import sample_calibration_tokens
from repro.models.llama import FloatLinear, LlamaModel, input_site

__all__ = ["WeightOnlyGPTQ", "DequantizedLinear"]


class DequantizedLinear(FloatLinear):
    """FP16 GEMM against a dequantized low-bit weight (W4A16 executor)."""

    def __init__(self, dequantized_weight: np.ndarray, w_bits: int) -> None:
        super().__init__(dequantized_weight.astype(np.float32))
        self.w_bits = w_bits

    def activation_signature(self) -> tuple:
        return (self.w_bits,)

    @classmethod
    def fuse(cls, parts: "list[DequantizedLinear]") -> "DequantizedLinear":
        return cls(np.concatenate([p.weight for p in parts]), parts[0].w_bits)


class WeightOnlyGPTQ:
    """GPTQ weight-only quantizer (per-group scales, FP16 activations)."""

    def __init__(self, *, w_bits: int = 4, group_size: int | None = None) -> None:
        self.w_bits = w_bits
        self.group_size = group_size
        self.name = f"gptq-w{w_bits}a16"

    def quantize(
        self, model: LlamaModel, *, calib_tokens: np.ndarray | None = None
    ) -> LlamaModel:
        if calib_tokens is None:
            calib_tokens = sample_calibration_tokens(128, 64)
        site_acts = model.capture_site_inputs(calib_tokens)
        group = (
            self.group_size
            if self.group_size is not None
            else model.config.group_size
        )
        qmodel = model.clone()
        mapping: dict[str, DequantizedLinear] = {}
        hessians = {site: hessian(acts) for site, acts in site_acts.items()}
        for name in model.linear_names():
            w = model.weights[name].astype(np.float64)
            slices = make_group_slices(
                w.shape[1],
                n_outlier=0,
                group_size=group,
                body_bits=self.w_bits,
                outlier_bits=None,
            )
            sliced = gptq_quantize(
                w, hessians[input_site(name)], slices, clip=1.0, fmt="int"
            )
            mapping[name] = DequantizedLinear(sliced.dequantize(), self.w_bits)
        qmodel.replace_linears(mapping)
        return qmodel
