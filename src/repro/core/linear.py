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

Execution groups the slices into one bucket per activation-quantizer layout
``(width, fmt)`` — ``(width, fmt, act_bits)`` for fp formats — plus one
unquantized bucket for FP16 passthrough slices (the software analog of
Atom's fused kernel).  Each bucket quantizes all of its groups in a single
vectorized pass over a ``(tokens, groups, width)`` view, each group on its
own bit-width's grid (per-group ``qmin``/``qmax`` vectors, bit-identical to
one pass per bit-width), and folds the per-token group scale into the codes;
every slice's weight scale is folded into one precomputed ``(in_features,
out)`` block, so the folded activations of all buckets contract in ONE GEMM
per call.  An Atom linear (INT4 body + INT8 tail) and a MixedBit linear
(INT3/INT4 body + INT8 tier) with equal-width groups each run one quantize
pass and one GEMM.  Linears sharing an input site are fused into one
executor (:meth:`AtomLinear.fuse` stacks their codes and scales along the
output axis), so one activation is reordered and quantized once for all of
its consumers.  (A batched per-group integer MMA with a
scale-outer-product epilogue — the literal reading of Fig. 8 — was measured
first: its ``(groups, tokens, out)`` partial tensor costs more memory
traffic than the GEMM saves, and NumPy's batched matmul cannot fuse the
epilogue the way a real kernel does.  Folding both scales into the operands
moves the group reduction inside one BLAS call.)

The whole path runs in float32, like the FP16 epilogue of the real kernel:
the activation quantizer, the folded operands and the GEMM (the weight
block is folded in float64 once, at construction, and stored as float32).
The precision contract against the per-slice loop of
``tests/core/reference.py`` (exact integer MMA, float64 epilogue) fed the
same float32 input has two parts: the activation codes are bit-identical,
and the output differs by at most ``gamma_n * (|qx| @ |w|)`` with
``gamma_n = n*u / (1 - n*u)``, ``u = 2**-24`` and ``n = in_features + 2``
(float32 reassociation of the ``in_features``-term contraction, plus the
float32 roundings of the two folded operands).

When a telemetry sink (:mod:`repro.serving.telemetry`) is attached via the
``telemetry`` attribute, each call emits one ``IterationSample`` with
``t_quant`` (dynamic quantization) and ``t_dense`` (GEMM + epilogue)
wall-times, so existing trace tooling attributes quantize-vs-GEMM cost with
no extra instrumentation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.gptq import SlicedWeight, _fp_grid
from repro.core.groups import GroupSlice
from repro.models.llama import LinearImpl, rowwise_matmul
from repro.quant.dtypes import IntFormat

__all__ = ["AtomLinear"]

def _dynamic_act_quant(
    x: np.ndarray, bits: int, clip: float, fmt: str, axis: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token symmetric quantization of activation slices along ``axis``.

    Returns ``(codes, scale)`` with ``scale`` keeping a size-1 ``axis`` (for
    the default 2-D per-slice call: shape ``(tokens, 1)``).  ``fmt="mx"``
    restricts scales to powers of two (MX/microscaling, §6).
    """
    if fmt not in ("int", "mx"):
        amax = np.abs(x).max(axis=axis, keepdims=True)
        np.maximum(amax, 1e-12, out=amax)
        grid = _fp_grid(bits)
        scale = amax / grid.max_value * clip
        return grid.round(x / scale), scale
    f = IntFormat(bits)
    return _int_act_quant(x, clip, fmt, f.n_levels - 1, f.qmin, f.qmax, axis)


def _int_act_quant(x, clip, fmt, steps, qmin, qmax, axis):
    """The int/mx body of :func:`_dynamic_act_quant` with the grid given as
    ``steps = n_levels - 1``, ``qmin`` and ``qmax``.

    Scalars quantize every slice on one grid; ``(1, groups, 1)`` vectors
    over a stacked ``(tokens, groups, width)`` tensor (``axis=2``) give
    each group its own grid in the same elementwise float operations, so a
    mixed INT4/INT8 bucket yields the codes of per-bit-width passes.
    """
    amax = np.abs(x).max(axis=axis, keepdims=True)
    np.maximum(amax, 1e-12, out=amax)
    if fmt == "int":
        scale = 2.0 * amax / steps * clip
    else:
        scale = np.exp2(np.ceil(np.log2(clip * amax / qmax)))
    # np.clip(np.round(x / scale), qmin, qmax), rounded and clipped in place:
    # the same values with fewer temporaries and wrapper calls.
    codes = x / scale
    np.rint(codes, out=codes)
    np.minimum(codes, qmax, out=codes)
    np.maximum(codes, qmin, out=codes)
    return codes, scale


def _int_grid(bits: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group ``(steps, qmin, qmax)`` of :func:`_int_act_quant`, each a
    ``(1, groups, 1)`` vector."""
    fs = [IntFormat(b) for b in bits]
    return tuple(
        np.array(vals, dtype=np.float32)[None, :, None]
        for vals in (
            [f.n_levels - 1 for f in fs],
            [f.qmin for f in fs],
            [f.qmax for f in fs],
        )
    )


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
    ) -> None:
        self.weight = weight
        self.perm = None if perm is None else np.asarray(perm, dtype=np.int64)
        self.a_bits = a_bits
        self.act_clip = act_clip
        self.fmt = fmt
        #: Optional telemetry sink; each call emits one IterationSample
        #: with t_quant / t_dense when this is an enabled recorder.
        self.telemetry = None
        self._out = (
            out_features if out_features is not None else weight.codes[0].shape[0]
        )
        self._in = sum(s.width for s in weight.slices)
        if self.perm is not None and len(self.perm) != self._in:
            raise ValueError("permutation length != in_features")
        self._build_layout()

    # ------------------------------------------------------------------ #
    # Construction-time bucket layout
    # ------------------------------------------------------------------ #
    def _act_bits(self, s: GroupSlice) -> int:
        return self.a_bits if not s.is_outlier else (s.bits or 8)

    def _build_layout(self) -> None:
        """One bucket per activation-quantizer layout, one weight block.

        int/mx slices bucket on ``(width, fmt)``: every group of a bucket is
        quantized in one pass, each on its own bit-width's grid (per-group
        ``steps``/``qmin``/``qmax`` vectors), so an INT4 body and an INT8
        tail of equal width share one pass.  fp slices bucket on ``(width,
        bits, fmt)`` (one value grid per pass); FP16 passthrough slices
        share the ``None`` bucket.  Buckets are in order of first
        appearance.  ``_buckets`` holds ``(lo, hi, groups, signature,
        grid)`` column ranges of the bucket-ordered input; ``_cols`` is the
        gather into that order, ``None`` when it is the identity (every
        bucket one ascending run, the usual layout).
        """
        w = self.weight
        members: dict[tuple | None, list[int]] = {}
        for i, s in enumerate(w.slices):
            fmt = w.slice_fmt(s)
            if w.scales[i] is None:
                sig = None
            elif fmt in ("int", "mx"):
                sig = (s.width, fmt)
            else:
                sig = (s.width, fmt, self._act_bits(s))
            members.setdefault(sig, []).append(i)
        order = [i for idx in members.values() for i in idx]
        cols = np.concatenate(
            [np.arange(w.slices[i].start, w.slices[i].stop) for i in order]
        )
        self._cols = None if np.array_equal(cols, np.arange(self._in)) else cols
        self._buckets: list[tuple] = []
        lo = 0
        for sig, idx in members.items():
            hi = lo + sum(w.slices[i].width for i in idx)
            grid = None
            if sig is not None and sig[1] in ("int", "mx"):
                grid = _int_grid([self._act_bits(w.slices[i]) for i in idx])
            self._buckets.append((lo, hi, len(idx), sig, grid))
            lo = hi
        # (in_features, out) block in bucket order: row r of slice i holds
        # codes[i][:, r] * scale[i] (raw weights for FP16 slices), so the
        # per-group weight scales ride inside the single GEMM.  Folded in
        # float64, stored in float32: one rounding per element.
        self._w = np.concatenate(
            [
                w.codes[i].T.astype(np.float64)
                * (1.0 if w.scales[i] is None else w.scales[i][:, 0])
                for i in order
            ]
        ).astype(np.float32)

    # ------------------------------------------------------------------ #
    # Site fusion
    # ------------------------------------------------------------------ #
    def activation_signature(self) -> tuple:
        return (
            None if self.perm is None else self.perm.tobytes(),
            tuple(self.weight.slices),
            tuple(scale is None for scale in self.weight.scales),
            self.weight.fmt,
            self.a_bits,
            self.act_clip,
            self.fmt,
        )

    def with_weight(self, weight: SlicedWeight) -> "AtomLinear":
        """An :class:`AtomLinear` reading its input exactly like ``self``,
        over another weight of the same slice layout."""
        return AtomLinear(
            weight,
            perm=self.perm,
            a_bits=self.a_bits,
            act_clip=self.act_clip,
            fmt=self.fmt,
        )

    @classmethod
    def fuse(cls, parts: "list[AtomLinear]") -> "AtomLinear":
        """Stack the parts' per-slice codes and scales along the output
        axis: the fused block is the column concatenation of theirs."""
        head = parts[0].weight
        return parts[0].with_weight(
            SlicedWeight(
                head.slices,
                [np.concatenate(c) for c in zip(*(p.weight.codes for p in parts))],
                [
                    None if sc[0] is None else np.concatenate(sc)
                    for sc in zip(*(p.weight.scales for p in parts))
                ],
                head.fmt,
            )
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
    def _prepare(self, x: np.ndarray) -> np.ndarray:
        """2-D float32 activations in the weight's (reordered) column order:
        the input the quantizer sees (float64 input is rounded once, here)."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D activations, got shape {x.shape}")
        return x if self.perm is None else x[:, self.perm]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._forward(self._prepare(x))

    def forward_rowwise(self, x: np.ndarray) -> np.ndarray:
        """Batch-size-invariant forward: row ``i`` == ``self(x[i:i+1])[0]``.

        Identical pipeline to :meth:`__call__` — quantization and scale
        folding are already per-token — but the single GEMM contracts through
        :func:`~repro.models.llama.rowwise_matmul`, so each row keeps the
        accumulation order of its own single-row call regardless of how many
        requests share the batch.
        """
        return self._forward(self._prepare(x), rowwise=True)

    def _forward(self, x: np.ndarray, *, rowwise: bool = False) -> np.ndarray:
        """Quantize, then ONE float32 GEMM against the scale-folded weight
        block; ``x`` is :meth:`_prepare`'s output, the result float32."""
        t0 = time.perf_counter()
        qx = self._quantize(x)
        t1 = time.perf_counter()
        y = (rowwise_matmul if rowwise else np.matmul)(qx, self._w)
        t2 = time.perf_counter()
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.iteration_sample(
                t_quant=t1 - t0, t_dense=t2 - t1, t_iter=t2 - t0
            )
        return y

    def _quantize(self, x: np.ndarray) -> np.ndarray:
        """Dynamic activation quantization, one pass per bucket: the float32
        ``(tokens, in_features)`` GEMM operand in bucket order, each code
        folded with its per-token group scale (FP16 slices pass through)."""
        n = x.shape[0]
        xb = x if self._cols is None else x[:, self._cols]
        # Row-major operand: a permuted input is column-major, and a strided
        # row takes a different GEMM kernel than the same row alone, which
        # would break the forward_rowwise contract.
        qx = np.empty((n, self._in), dtype=np.float32)
        for lo, hi, groups, sig, grid in self._buckets:
            if sig is None:
                qx[:, lo:hi] = xb[:, lo:hi]  # FP16 passthrough: no quantization
                continue
            xg = xb[:, lo:hi].reshape(n, groups, sig[0])
            if grid is None:
                codes, scale = _dynamic_act_quant(
                    xg, sig[2], self.act_clip, sig[1], axis=2
                )
            else:
                codes, scale = _int_act_quant(
                    xg, self.act_clip, sig[1], *grid, axis=2
                )
            # Fold the per-token group scale into the codes.
            qx[:, lo:hi] = (codes * scale).reshape(n, hi - lo)
        return qx

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
