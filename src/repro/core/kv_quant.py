"""Asymmetric low-bit KV-cache quantization (§4.4).

The self-attention layer in the decode stage is memory-bound: throughput
scales with the bytes of KV-cache moved.  Atom stores the KV-cache in
low-bit and dequantizes on load inside the fused attention kernel; since the
memory traffic of symmetric and asymmetric codes is the same, it uses
**asymmetric** quantization (better accuracy for the one-sided distributions
of K and V) at the granularity of one (token, attention head) vector.

The codec here is accuracy-exact with that scheme: ``encode_decode``
round-trips values through the quantized representation, which is precisely
what the serving kernel's store/load does.  It works in float32, like the
FP16 dequantization of the real kernel: each element comes back within
half a code step (``scale / 2``) of its float32 input, plus float32
rounding, and differs from a float64 codec only where the float64 value
sits within that rounding of a code-step tie.
"""

from __future__ import annotations

import numpy as np

from repro.models.llama import KVCodec
from repro.quant.dtypes import IntFormat

__all__ = ["AtomKVCodec", "quantize_kv_headwise"]


def quantize_kv_headwise(
    kv: np.ndarray, bits: int, *, asymmetric: bool = True
) -> np.ndarray:
    """Quantize-dequantize ``(..., head_dim)`` vectors independently; float32."""
    q, scale, zero = _kv_codes(kv, bits, asymmetric)
    q -= zero
    q *= scale
    return q


def _kv_codes(
    kv: np.ndarray, bits: int, asymmetric: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float32 ``(codes, scale, zero)`` of each ``(..., head_dim)`` vector:
    ``codes - zero`` times ``scale`` dequantizes.  Asymmetric codes lie in
    ``[umin, umax]``; symmetric ones in ``[qmin, qmax]`` with ``zero = 0``."""
    f = IntFormat(bits)
    x = np.asarray(kv, dtype=np.float32)
    if asymmetric:
        xmin = x.min(axis=-1, keepdims=True)
        xmax = x.max(axis=-1, keepdims=True)
        scale = np.maximum((xmax - xmin) / (f.n_levels - 1), 1e-12)
        zero = np.rint(-xmin / scale)
        lo, hi = f.umin, f.umax
    else:
        amax = np.maximum(np.abs(x).max(axis=-1, keepdims=True), 1e-12)
        scale = 2.0 * amax / (f.n_levels - 1)
        zero = np.zeros_like(scale)
        lo, hi = f.qmin, f.qmax
    q = x / scale
    np.rint(q, out=q)
    q += zero
    np.minimum(q, hi, out=q)
    np.maximum(q, lo, out=q)
    return q, scale, zero


class AtomKVCodec(KVCodec):
    """Per-(token, head) asymmetric quantization of the KV-cache.

    Every ``head_dim`` vector is quantized alone, so K and V stacked on the
    heads axis (``kind="kv"``, how the model's attention prologue calls it
    once per layer) round-trip byte-equal to separate ``"k"`` and ``"v"``
    calls.
    """

    def __init__(self, bits: int = 4, *, asymmetric: bool = True) -> None:
        if not 2 <= bits <= 8:
            raise ValueError(f"kv bits must be in [2, 8], got {bits}")
        self._bits = bits
        self.asymmetric = asymmetric

    def encode_decode(self, kv: np.ndarray, kind: str) -> np.ndarray:
        if kind not in ("k", "v", "kv"):
            raise ValueError(f"kind must be 'k', 'v' or 'kv', got {kind!r}")
        return quantize_kv_headwise(kv, self._bits, asymmetric=self.asymmetric)

    @property
    def bits(self) -> float:
        # Scale + zero point (FP16 each) amortized over one head vector is
        # negligible for memory-movement modelling; codes dominate.
        return float(self._bits)
