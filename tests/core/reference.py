"""Reference implementations the execution engine is checked against.

``src/`` runs one execution path; these are the straightforward versions it
replaced, kept only as test oracles:

- :func:`slice_loop_forward` — AtomLinear as one dynamic quantization and
  one integer GEMM per channel slice (:class:`SliceLoopLinear` wraps it as a
  model executor);
- :class:`ConcatKVCache` — a KV cache that concatenates every step, plugged
  in through ``LlamaModel(kv_cache_factory=...)``;
- :func:`repeat_gqa_attention` — attention over ``np.repeat``-materialized
  K/V heads (:class:`ReferenceModel` runs it in place of both attention
  kernels, ``LlamaModel._attention_core`` and ``_attention_rows``);
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


def slice_loop_forward(lin: AtomLinear, x: np.ndarray) -> np.ndarray:
    """``lin``'s pipeline as a per-slice loop; float64, pre-cast.

    ``x`` is already in the weight's (reordered) column order.
    """
    y = np.zeros((x.shape[0], lin.out_features), dtype=np.float64)
    w = lin.weight
    for s, codes, ws in zip(w.slices, w.codes, w.scales):
        xs = x[:, s.start : s.stop]
        w_t = codes.astype(np.float64).T
        if ws is None:
            # FP16 slice: both operands stay high precision.
            y += xs @ w_t
            continue
        bits = lin.a_bits if not s.is_outlier else (s.bits or 8)
        codes_x, scale = _dynamic_act_quant(xs, bits, lin.act_clip, w.slice_fmt(s))
        # Integer MMA + fused dequant-accumulate (Fig. 8 steps 1-3).
        y += (codes_x @ w_t) * scale * ws.T
    return y


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
    rowwise: bool = False,
) -> np.ndarray:
    """Causal attention with each KV head repeated over its query group.

    Same contract as ``LlamaModel._attention_core``: ``q`` is ``(b, heads,
    t, head_dim)``, ``k``/``v`` are ``(b, kv_heads, t_kv, head_dim)``, the
    result is the ``(b * t, heads * head_dim)`` context.
    """
    b, h, t, hd = q.shape
    g = h // k.shape[1]
    k = np.repeat(k, g, axis=1)
    v = np.repeat(v, g, axis=1)
    kt = k.transpose(0, 1, 3, 2)
    if rowwise:
        scores = np.matmul(q[:, :, :, None, :], kt[:, :, None, :, :])[:, :, :, 0]
    else:
        scores = q @ kt
    scores = scores / np.sqrt(hd)
    q_pos = np.arange(pos_offset, pos_offset + t)[:, None]
    k_pos = np.arange(k.shape[2])[None, :]
    scores = np.where(k_pos <= q_pos, scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    if rowwise:
        ctx = np.matmul(attn[:, :, :, None, :], v[:, :, None, :, :])[:, :, :, 0]
    else:
        ctx = attn @ v
    return ctx.transpose(0, 2, 1, 3).reshape(b * t, h * hd)


class ReferenceModel(LlamaModel):
    """LlamaModel whose attention is :func:`repeat_gqa_attention`, on the
    flat path and on the rowwise (decode / rowwise prefill) path.

    ``attention_calls`` counts invocations, so a test can show the oracle
    ran.
    """

    attention_calls = 0

    def _attention_core(self, q, k, v, *, pos_offset, t):
        self.attention_calls += 1
        return repeat_gqa_attention(q, k, v, pos_offset=pos_offset)

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
                    rowwise=True,
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
