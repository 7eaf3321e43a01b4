"""Reference implementations the execution engine is checked against.

``src/`` runs one execution path; these are the straightforward versions it
replaced, kept only as test oracles:

- :func:`slice_loop_forward` — AtomLinear as one dynamic quantization and
  one exact integer GEMM per channel slice (:class:`SliceLoopLinear` wraps
  it as a model executor), with :func:`slice_loop_operand` (its activation
  codes) and :func:`float32_gemm_bound` (how far the float32 linear may
  sit from it);
- :class:`ConcatKVCache` — a KV cache that concatenates every step, plugged
  in through ``LlamaModel(kv_cache_factory=...)``;
- :func:`repeat_gqa_attention` — attention over ``np.repeat``-materialized
  K/V heads, one row at a time (:class:`ReferenceModel` runs it in place of
  the one attention kernel, ``LlamaModel._attention_rows``);
- :func:`quantize_sequential_full` — sequential calibration that re-runs a
  full forward of the partially quantized model per layer (O(L^2)).

Import it the way ``tests/serving/chaos.py`` is imported: pytest puts this
directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.core.atom import AtomQuantizer
from repro.core.kv_quant import AtomKVCodec
from repro.core.linear import AtomLinear, _dynamic_act_quant
from repro.models.llama import LinearImpl, LlamaModel


U32 = 2.0**-24  # unit roundoff of float32


def _slice_quant(lin: AtomLinear, x: np.ndarray):
    """Per slice of ``lin``: ``(slice, weight codes, weight scale, activation
    codes, activation scale)``; an FP16 slice yields its raw activations
    and two ``None`` scales."""
    w = lin.weight
    for s, codes, ws in zip(w.slices, w.codes, w.scales):
        xs = x[:, s.start : s.stop]
        if ws is None:
            yield s, codes, None, xs, None
            continue
        bits = lin.a_bits if not s.is_outlier else (s.bits or 8)
        yield (s, codes, ws,
               *_dynamic_act_quant(xs, bits, lin.act_clip, w.slice_fmt(s)))


def slice_loop_forward(lin: AtomLinear, x: np.ndarray) -> np.ndarray:
    """``lin``'s pipeline as a per-slice loop; float64 output, pre-cast.

    ``x`` is already in the weight's (reordered) column order, normally
    ``lin._prepare(...)``'s float32 output; the activations are quantized in
    ``x``'s dtype.  Each slice contracts its codes in float64, which is
    exact for integer codes (the int32 MMA), and the epilogue runs in
    float64, so this is the float32 linear's real-number target.
    """
    y = np.zeros((x.shape[0], lin.out_features), dtype=np.float64)
    for _, codes, ws, codes_x, scale in _slice_quant(lin, x):
        w_t = codes.astype(np.float64).T
        if ws is None:
            # FP16 slice: both operands stay high precision.
            y += codes_x @ w_t
            continue
        # Integer MMA + fused dequant-accumulate (Fig. 8 steps 1-3).
        y += (codes_x @ w_t) * scale * ws.T
    return y


def slice_loop_operand(lin: AtomLinear, x: np.ndarray) -> np.ndarray:
    """The float32 ``(tokens, in_features)`` GEMM operand of the slice loop
    in the weight's column order: each slice's activation codes times their
    per-token scale (FP16 slices pass through).

    With equal scales the fold is injective in the code (codes are small
    integers or grid values, far apart at float32 resolution), so a
    bit-equal operand means bit-equal activation codes.
    """
    return np.concatenate(
        [
            (codes_x if scale is None else codes_x * scale).astype(np.float32)
            for _, _, _, codes_x, scale in _slice_quant(lin, x)
        ],
        axis=1,
    )


def float32_gemm_bound(qx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Elementwise bound on ``|y - slice_loop_forward|`` for the float32
    linear ``y = fl32(qx) @ fl32(w)`` with ``w`` the ``(in_features, out)``
    scale-folded weight: ``gamma_n * (|qx| @ |w|)``.

    A float32 dot product of ``K = in_features`` terms, in any summation
    order (blocked, FMA or not), is within ``gamma_K * sum |a_k b_k|`` of the
    exact one, ``gamma_n = n*u / (1 - n*u)``, ``u = 2**-24``: one rounding
    for each product and at most ``K - 1`` for the additions on any term's
    path.  The operands add one rounding each (the activation fold
    ``code * scale`` and the float32 store of the float64 weight fold), so
    ``n = K + 2``.  The oracle's own float64 error (~1e-16 relative) is
    below the bound's resolution.
    """
    n = qx.shape[1] + 2
    gamma = n * U32 / (1.0 - n * U32)
    return gamma * (np.abs(qx).astype(np.float64) @ np.abs(w).astype(np.float64))


class SliceLoopLinear(LinearImpl):
    """Model executor running an AtomLinear through :func:`slice_loop_forward`.

    ``calls`` counts invocations, so a test can show the oracle ran.
    """

    def __init__(self, inner: AtomLinear) -> None:
        self.inner = inner
        self.calls = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        return slice_loop_forward(self.inner, self.inner._prepare(x)).astype(
            np.float32
        )

    def forward_rowwise(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self(x[i : i + 1]) for i in range(x.shape[0])])

    def activation_signature(self) -> tuple:
        return self.inner.activation_signature()

    @classmethod
    def fuse(cls, parts: "list[SliceLoopLinear]") -> "SliceLoopLinear":
        return cls(type(parts[0].inner).fuse([p.inner for p in parts]))

    @property
    def out_features(self) -> int:
        return self.inner.out_features

    @property
    def in_features(self) -> int:
        return self.inner.in_features


class ConcatKVCache:
    """KV cache that re-concatenates the whole history on every append."""

    def __init__(self, batch, n_kv_heads, head_dim, capacity) -> None:
        self.k = np.zeros((batch, n_kv_heads, 0, head_dim), dtype=np.float32)
        self.v = self.k

    def append(self, k_new, v_new):
        self.k = np.concatenate([self.k, k_new], axis=2)
        self.v = np.concatenate([self.v, v_new], axis=2)
        return self.k, self.v


def repeat_gqa_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    pos_offset: int,
) -> np.ndarray:
    """Causal attention with each KV head repeated over its query group.

    ``q`` is ``(b, heads, t, head_dim)`` at positions ``pos_offset ..
    pos_offset + t - 1``, ``k``/``v`` are ``(b, kv_heads, t_kv, head_dim)``,
    the result is the ``(b * t, heads * head_dim)`` context.  Each query row
    contracts alone.  Like ``LlamaModel._attention_rows``, it scales ``q``
    by a float32 ``1 / sqrt(head_dim)``, so float32 inputs are attended in
    float32.
    """
    b, h, t, hd = q.shape
    g = h // k.shape[1]
    k = np.repeat(k, g, axis=1)
    v = np.repeat(v, g, axis=1)
    kt = k.transpose(0, 1, 3, 2)
    q = q * np.float32(1.0 / np.sqrt(hd))
    scores = np.matmul(q[:, :, :, None, :], kt[:, :, None, :, :])[:, :, :, 0]
    q_pos = np.arange(pos_offset, pos_offset + t)[:, None]
    k_pos = np.arange(k.shape[2])[None, :]
    scores = np.where(k_pos <= q_pos, scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = np.matmul(attn[:, :, :, None, :], v[:, :, None, :, :])[:, :, :, 0]
    return ctx.transpose(0, 2, 1, 3).reshape(b * t, h * hd)


class ReferenceModel(LlamaModel):
    """LlamaModel whose attention is :func:`repeat_gqa_attention`.

    ``attention_calls`` counts invocations (one per key bucket per layer),
    so a test can show the oracle ran.
    """

    attention_calls = 0

    def _attention_rows(self, q, k, v, positions):
        # Rows of one sequence sit at consecutive positions.
        self.attention_calls += 1
        b, m = q.shape[:2]
        first = np.broadcast_to(np.reshape(positions, (-1, m)), (b, m))[:, 0]
        return np.stack(
            [
                repeat_gqa_attention(
                    q[i : i + 1].transpose(0, 2, 1, 3),
                    k[i : i + 1],
                    v[i : i + 1],
                    pos_offset=int(first[i]),
                )
                for i in range(b)
            ]
        )


def reference_model(model: LlamaModel) -> ReferenceModel:
    """``model`` rebuilt on every reference path: concatenating KV cache,
    ``np.repeat`` GQA, and slice-loop AtomLinears (other linears as is)."""
    ref = ReferenceModel(
        model.config,
        model.weights,
        kv_codec=model.kv_codec,
        kv_cache_factory=ConcatKVCache,
    )
    ref.replace_linears(
        {
            name: SliceLoopLinear(part) if isinstance(part, AtomLinear) else part
            for name, part in model.parts.items()
        }
    )
    return ref


def quantize_sequential_full(
    quantizer: AtomQuantizer, model: LlamaModel, calib_tokens: np.ndarray
) -> LlamaModel:
    """Sequential calibration by a full forward of the partially quantized
    model per layer: O(L^2) layer executions, no checkpointing."""
    assert quantizer.config.sequential
    n_outlier = quantizer._resolve_n_outlier(model)
    group_size = quantizer._resolve_group(model)
    qmodel = model.clone()
    for layer, linears in sorted(quantizer._layer_linears(model).items()):
        site_acts = quantizer._of_layer(
            qmodel.capture_site_inputs(calib_tokens), layer
        )
        quantizer._quantize_layer(
            model, qmodel, linears, site_acts, n_outlier, group_size
        )
    if quantizer.config.kv_bits is not None:
        qmodel.kv_codec = AtomKVCodec(quantizer.config.kv_bits)
    return qmodel
