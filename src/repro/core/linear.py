"""Quantized linear executors: dynamic activation quantization + integer GEMM.

:class:`AtomLinear` models the full fused pipeline of Figs. 7-8:

1. **Reorder** the incoming activation by the calibration permutation
   (fused into the prior operator in the real kernel; functionally a column
   gather here).
2. **Dynamically quantize** each channel slice per token: low-bit symmetric
   with clipping for body groups, INT8 for the outlier tail (or FP16
   passthrough in the ablation variant).
3. **Integer GEMM per slice** with exact integer accumulation (the tensor-core
   MMA), then dequantize with the token-scale x weight-scale outer product and
   accumulate in float (the fused epilogue of Fig. 8).

Execution has two code paths:

- The **fast path** (default, the software analog of Atom's fused kernel)
  groups the slices into one bucket per activation-quantizer signature
  ``(width, act_bits, fmt)``, plus one unquantized bucket for FP16
  passthrough slices.  Each bucket quantizes all of its groups in a single
  vectorized pass over a ``(tokens, groups, width)`` view and folds the
  per-token group scale into the codes; every slice's weight scale is folded
  into one precomputed ``(in_features, out)`` float64 block, so the folded
  activations of all buckets contract in ONE GEMM per call.  Weight
  bit-width never reaches the GEMM, so e.g. INT3 and INT4 weight tiers that
  both run A4 share a bucket: an Atom linear (INT4 body + INT8 tail) and a
  MixedBit linear (INT3/INT4 body + INT8 tier) each run two quantize passes
  and one GEMM.  (A batched per-group integer MMA with a scale-outer-product
  epilogue — the literal reading of Fig. 8 — was measured first: its
  ``(groups, tokens, out)`` partial tensor costs more memory traffic than
  the GEMM saves, and NumPy's batched matmul cannot fuse the epilogue the
  way a real kernel does.  Folding both scales into the operands moves the
  group reduction inside one BLAS call; the reassociation changes results by
  ~1e-15 normed relative vs the slice loop.)
- The **reference path** (``fast=False``) is the original per-slice Python
  loop, kept as the equivalence oracle and the "before" baseline of the
  ``repro bench`` microbenchmarks.

When a telemetry sink (:mod:`repro.serving.telemetry`) is attached via the
``telemetry`` attribute, the fast path emits one ``IterationSample`` per call
with ``t_quant`` (dynamic quantization) and ``t_dense`` (GEMM + epilogue)
wall-times, so existing trace tooling attributes quantize-vs-GEMM cost with
no extra instrumentation.

:class:`QuantLinear` is the same machinery with no reorder and no outlier
tail — the executor used by RTN / SmoothQuant / W8A8-style baselines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.gptq import SlicedWeight, _fp_grid
from repro.core.groups import GroupSlice
from repro.models.llama import LinearImpl, rowwise_matmul
from repro.quant.dtypes import IntFormat

__all__ = ["AtomLinear", "QuantLinear"]

def _dynamic_act_quant(
    x: np.ndarray, bits: int, clip: float, fmt: str, axis: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token symmetric quantization of activation slices along ``axis``.

    Returns ``(codes, scale)`` with ``scale`` keeping a size-1 ``axis`` (for
    the default 2-D per-slice call: shape ``(tokens, 1)``).  The same formula
    vectorizes over a stacked ``(tokens, groups, width)`` tensor with
    ``axis=2``.  ``fmt="mx"`` restricts scales to powers of two
    (MX/microscaling, §6).
    """
    amax = np.abs(x).max(axis=axis, keepdims=True)
    np.maximum(amax, 1e-12, out=amax)
    if fmt not in ("int", "mx"):
        grid = _fp_grid(bits)
        scale = amax / grid.max_value * clip
        return grid.round(x / scale), scale
    f = IntFormat(bits)
    if fmt == "int":
        scale = 2.0 * amax / (f.n_levels - 1) * clip
    else:
        scale = np.exp2(np.ceil(np.log2(clip * amax / f.qmax)))
    # np.clip(np.round(x / scale), qmin, qmax), rounded and clipped in place:
    # the same values with fewer temporaries and wrapper calls.
    codes = x / scale
    np.rint(codes, out=codes)
    np.minimum(codes, f.qmax, out=codes)
    np.maximum(codes, f.qmin, out=codes)
    return codes, scale


class AtomLinear(LinearImpl):
    """Mixed-precision, group-quantized linear with channel reordering."""

    def __init__(
        self,
        weight: SlicedWeight,
        *,
        perm: np.ndarray | None,
        a_bits: int,
        act_clip: float,
        fmt: str = "int",
        out_features: int | None = None,
        fast: bool = True,
    ) -> None:
        self.weight = weight
        self.perm = None if perm is None else np.asarray(perm, dtype=np.int64)
        self.a_bits = a_bits
        self.act_clip = act_clip
        self.fmt = fmt
        self.fast = fast
        #: Optional telemetry sink; the fast path emits one IterationSample
        #: per call with t_quant / t_dense when this is an enabled recorder.
        self.telemetry = None
        self._out = (
            out_features if out_features is not None else weight.codes[0].shape[0]
        )
        self._in = sum(s.width for s in weight.slices)
        if self.perm is not None and len(self.perm) != self._in:
            raise ValueError("permutation length != in_features")
        # Legacy float64 transposed blocks, built lazily: only the reference
        # path (equivalence oracle / "before" benchmarks) needs them.
        self._wT_f64: list[np.ndarray] | None = None
        self._build_fast_path()

    # ------------------------------------------------------------------ #
    # Construction-time fast-path layout
    # ------------------------------------------------------------------ #
    def _act_bits(self, s: GroupSlice) -> int:
        return self.a_bits if not s.is_outlier else (s.bits or 8)

    def _build_fast_path(self) -> None:
        """One bucket per activation-quantizer signature, one weight block.

        Buckets are keyed on ``(width, act_bits, fmt)`` (``None`` for FP16
        passthrough slices) in order of first appearance.  ``_buckets`` holds
        ``(lo, hi, groups, signature)`` column ranges of the bucket-ordered
        input; ``_cols`` is the gather into that order, ``None`` when it is
        the identity (every bucket one ascending run, the usual layout).
        """
        w = self.weight
        members: dict[tuple[int, int, str] | None, list[int]] = {}
        for i, s in enumerate(w.slices):
            sig = (
                None
                if w.scales[i] is None
                else (s.width, self._act_bits(s), w.slice_fmt(s))
            )
            members.setdefault(sig, []).append(i)
        order = [i for idx in members.values() for i in idx]
        cols = np.concatenate(
            [np.arange(w.slices[i].start, w.slices[i].stop) for i in order]
        )
        self._cols = None if np.array_equal(cols, np.arange(self._in)) else cols
        self._buckets: list[tuple[int, int, int, tuple[int, int, str] | None]] = []
        lo = 0
        for sig, idx in members.items():
            hi = lo + sum(w.slices[i].width for i in idx)
            self._buckets.append((lo, hi, len(idx), sig))
            lo = hi
        # (in_features, out) block in bucket order: row r of slice i holds
        # codes[i][:, r] * scale[i] (raw weights for FP16 slices), so the
        # per-group weight scales ride inside the single GEMM.
        self._w = np.concatenate(
            [
                w.codes[i].T.astype(np.float64)
                * (1.0 if w.scales[i] is None else w.scales[i][:, 0])
                for i in order
            ]
        )

    @property
    def out_features(self) -> int:
        return self._out

    @property
    def in_features(self) -> int:
        return self._in

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D activations, got shape {x.shape}")
        if self.perm is not None:
            x = x[:, self.perm]
        y = self._forward_fast(x) if self.fast else self._forward_reference(x)
        return y.astype(np.float32)

    def forward_rowwise(self, x: np.ndarray) -> np.ndarray:
        """Batch-size-invariant forward: row ``i`` == ``self(x[i:i+1])[0]``.

        Identical pipeline to :meth:`__call__` — quantization and scale
        folding are already per-token — but the single GEMM contracts through
        :func:`~repro.models.llama.rowwise_matmul`, so each row keeps the
        accumulation order of its own single-row call regardless of how many
        requests share the batch.  The reference path falls back to the
        generic per-row loop (it is the frozen oracle; no need to thread the
        flag through it).
        """
        if not self.fast:
            return LinearImpl.forward_rowwise(self, x)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D activations, got shape {x.shape}")
        if self.perm is not None:
            x = x[:, self.perm]
        return self._forward_fast(x, rowwise=True).astype(np.float32)

    def _forward_fast(self, x: np.ndarray, *, rowwise: bool = False) -> np.ndarray:
        """Vectorized pipeline; float64 output (pre-cast)."""
        t0 = time.perf_counter()
        # ---- Phase 1: dynamic activation quantization, one pass per bucket #
        n = x.shape[0]
        xb = x if self._cols is None else x[:, self._cols]
        # Row-major operand: a permuted input is column-major, and a strided
        # row takes a different GEMM kernel than the same row alone, which
        # would break the forward_rowwise contract.
        qx = np.empty((n, self._in))
        for lo, hi, groups, sig in self._buckets:
            if sig is None:
                qx[:, lo:hi] = xb[:, lo:hi]  # FP16 passthrough: no quantization
                continue
            width, bits, fmt = sig
            xg = xb[:, lo:hi].reshape(n, groups, width)
            codes, scale = _dynamic_act_quant(xg, bits, self.act_clip, fmt, axis=2)
            # Fold the per-token group scale into the codes.
            qx[:, lo:hi] = (codes * scale).reshape(n, hi - lo)
        t1 = time.perf_counter()
        # ---- Phase 2: ONE GEMM against the scale-folded weight block ----- #
        y = (rowwise_matmul if rowwise else np.matmul)(qx, self._w)
        t2 = time.perf_counter()
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.iteration_sample(
                t_quant=t1 - t0, t_dense=t2 - t1, t_iter=t2 - t0
            )
        return y

    def _forward_reference(self, x: np.ndarray) -> np.ndarray:
        """Original per-slice loop (float64 output, pre-cast).

        This is the equivalence oracle for the fast path and the "before"
        measurement of the perf harness — keep it semantically frozen.
        """
        if self._wT_f64 is None:
            self._wT_f64 = [
                c.astype(np.float64).T.copy() for c in self.weight.codes
            ]
        y = np.zeros((x.shape[0], self._out), dtype=np.float64)
        for s, w_t, ws in zip(self.weight.slices, self._wT_f64, self.weight.scales):
            xs = x[:, s.start : s.stop]
            if ws is None:
                # FP16 slice: both operands stay high precision.
                y += xs @ w_t
                continue
            bits = self.a_bits if not s.is_outlier else (s.bits or 8)
            fmt = self.weight.slice_fmt(s)
            codes, scale = _dynamic_act_quant(xs, bits, self.act_clip, fmt)
            # Integer MMA + fused dequant-accumulate (Fig. 8 steps 1-3).
            y += (codes @ w_t) * scale * ws.T
        return y

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def dequantized_weight(self) -> np.ndarray:
        """Float weight in the ORIGINAL (un-reordered) column order."""
        w = self.weight.dequantize()
        if self.perm is None:
            return w
        out = np.empty_like(w)
        out[:, self.perm] = w
        return out

    def effective_weight_bits(self) -> float:
        """Average stored bits per weight element, incl. scales."""
        return self.weight.storage_bits() / (self._out * self._in)


class QuantLinear(AtomLinear):
    """Uniform quantized linear (no reorder, no outlier tail).

    Convenience for the baselines: per-token activations, per-output-channel
    (optionally grouped) weights.
    """

    def __init__(
        self,
        weight: SlicedWeight,
        *,
        a_bits: int,
        act_clip: float = 1.0,
        fmt: str = "int",
        fast: bool = True,
    ) -> None:
        if any(s.is_outlier for s in weight.slices):
            raise ValueError("QuantLinear does not support outlier slices")
        super().__init__(
            weight, perm=None, a_bits=a_bits, act_clip=act_clip, fmt=fmt, fast=fast
        )
