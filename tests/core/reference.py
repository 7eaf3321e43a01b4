"""Reference implementations the execution engine is checked against.

``src/`` runs one execution path; these are the straightforward versions it
replaced, kept only as test oracles:

- :func:`slice_loop_forward` — AtomLinear as one dynamic quantization and
  one exact integer GEMM per channel slice (:class:`SliceLoopLinear` wraps
  it as a model executor), with :func:`slice_loop_operand` (its activation
  codes) and :func:`float32_gemm_bound` (how far the float32 linear may
  sit from it);
- :class:`ConcatKVCache` — a KV cache that concatenates every step, which
  :class:`ReferenceModel` builds for every layer cache it creates;
- :func:`repeat_gqa_attention` — attention over ``np.repeat``-materialized
  K/V heads, one row at a time, with :func:`float32_attention_bound` (how
  far the one attention kernel, ``LlamaModel._attention_rows``, may sit
  from it); :class:`ReferenceModel` checks every kernel call against it;
- :func:`rms_norm_reference` and :func:`rope_reference` — RMSNorm and RoPE
  as the plain formulas (``np.mean``; a concatenated rotation);
- :func:`quantize_sequential_full` — sequential calibration that re-runs a
  full forward of the partially quantized model per layer (O(L^2));
- :func:`decode_one` — one request's decode step through ``forward``, the
  runner-level oracle of ``ModelRunner.decode_batch``.

Import it the way ``tests/serving/chaos.py`` is imported: pytest puts this
directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from repro.core.atom import AtomQuantizer
from repro.core.kv_quant import AtomKVCodec
from repro.core.linear import AtomLinear, _dynamic_act_quant
from repro.models.llama import LinearImpl, LlamaModel, key_bucket, sample_token
from repro.serving.model_runner import ModelRunner


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

    def __init__(self, batch, n_kv_heads, head_dim) -> None:
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


#: Relative error of NumPy's float32 ``exp``, in float32 ULPs (one ULP is
#: at most ``2 * U32`` relative).  NumPy documents its SIMD float32 ``exp``
#: within 2.52 ULP; 4 leaves room for other SIMD targets.
EXP_ULPS = 4


def _gamma(n: int) -> float:
    """``n*u / (1 - n*u)``: relative error bound of ``n`` float32 roundings."""
    return n * U32 / (1.0 - n * U32)


def float32_attention_bound(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, *, pos_offset: int, lp: int
) -> np.ndarray:
    """Elementwise bound on ``|ctx - exact|`` for ``LlamaModel._attention_rows``
    over keys padded to ``lp``, shaped like :func:`repeat_gqa_attention`'s
    output (which, fed float64 operands, is the exact reference).

    Operands as in :func:`repeat_gqa_attention`: float32 ``q`` ``(b, heads,
    t, hd)`` at positions ``pos_offset ..``, live ``k``/``v`` ``(b,
    kv_heads, t_kv, hd)``.  ``s`` is the float32 ``1 / sqrt(hd)`` both
    sides use, ``z_j = (q s) . k_j`` the exact scores of one query row and
    ``p_j = softmax(z)_j`` over its live keys (masked keys have ``p = 0``
    on both sides, so padding adds exact zeros).  Following the kernel:

    - scaled query and ``hd``-term scores: ``|s^_j - z_j| <= a_j =
      gamma_{hd+1} * sum_d |q_d s k_jd|`` (one rounding for ``q * s``);
    - max subtraction: ``|t^_j - (z_j - m)| <= d_j = a_j + u * (max z -
      z_j + a_j + max a)`` for the kernel's max ``m`` (softmax does not
      depend on the shift);
    - ``exp``: ``e^_j = e_j (1 + rho_j)``, ``|rho_j| <= r_j =
      (1 + eps) * expm1(d_j) + eps``, ``eps = 2u * EXP_ULPS``;
    - the ``lp``-term sum and the divide: ``|p^_j - p_j| <= p_j pi_j``,
      ``pi_j = (1 + r_j)(1 + u) / ((1 - sum_i p_i r_i)(1 - gamma_{lp-1}))
      - 1``;
    - the ``lp``-term context contraction: ``|ctx^ - ctx| <= sum_j p_j
      ((1 + pi_j)(1 + gamma_lp) - 1) |v_j|``.

    Underflowed ``exp`` terms (absolute error below ``2**-149``) and the
    float64 oracle's own error are below the bound's resolution.
    """
    b, h, t, hd = q.shape
    g = h // k.shape[1]
    s = np.float64(np.float32(1.0 / np.sqrt(hd)))
    qs = q.astype(np.float64) * s  # exact: a 24-bit by 24-bit product
    kt = np.repeat(k, g, axis=1).astype(np.float64).swapaxes(-1, -2)
    live = np.arange(k.shape[2]) <= np.arange(pos_offset, pos_offset + t)[:, None]
    z = np.where(live, qs @ kt, -np.inf)
    a = np.where(live, _gamma(hd + 1) * (np.abs(qs) @ np.abs(kt)), 0.0)
    zmax = z.max(axis=-1, keepdims=True)
    p = np.exp(z - zmax)
    p /= p.sum(axis=-1, keepdims=True)
    d = np.where(live, a + U32 * (zmax - z + a + a.max(axis=-1, keepdims=True)), 0.0)
    eps = 2 * EXP_ULPS * U32
    r = (1 + eps) * np.expm1(d) + eps
    rbar = (p * r).sum(axis=-1, keepdims=True)
    pi = (1 + r) * (1 + U32) / ((1 - rbar) * (1 - _gamma(lp - 1))) - 1
    w = p * ((1 + pi) * (1 + _gamma(lp)) - 1)
    bound = w @ np.abs(np.repeat(v, g, axis=1).astype(np.float64))
    return bound.transpose(0, 2, 1, 3).reshape(b * t, h * hd)


class ReferenceModel(LlamaModel):
    """LlamaModel whose every attention call is checked against
    :func:`repeat_gqa_attention`.

    Each ``_attention_rows`` call runs the kernel on the same operands
    (keys zero-padded to the rows' key bucket, as the model's caches pad
    them) and the float64 oracle per sequence, asserts the kernel within
    :func:`float32_attention_bound` of the oracle, and returns the
    kernel's context: the two models stay in lockstep, so rounding never
    compounds across layers and buckets, and each call is held to the
    derived bound on its own operands.  ``attention_calls`` counts calls
    (one per key bucket per layer), so a test can show the oracle ran.
    Every layer cache it creates is a :class:`ConcatKVCache`.
    """

    attention_calls = 0

    def _new_kv_cache(self, batch, capacity):
        c = self.config
        return ConcatKVCache(batch, c.n_kv_heads, c.head_dim)

    def _attention_rows(self, q, k, v, positions):
        # Rows of one sequence sit at consecutive positions.
        self.attention_calls += 1
        b, m = q.shape[:2]
        lp = key_bucket(int(np.max(positions)))
        pad = ((0, 0), (0, 0), (0, lp - k.shape[2]), (0, 0))
        got = super()._attention_rows(q, np.pad(k, pad), np.pad(v, pad), positions)
        first = np.broadcast_to(np.reshape(positions, (-1, m)), (b, m))[:, 0]
        for i in range(b):
            qi, ki, vi = q[i : i + 1].transpose(0, 2, 1, 3), k[i : i + 1], v[i : i + 1]
            exact = repeat_gqa_attention(
                qi.astype(np.float64), ki.astype(np.float64), vi.astype(np.float64),
                pos_offset=int(first[i]),
            )
            bound = float32_attention_bound(qi, ki, vi, pos_offset=int(first[i]), lp=lp)
            assert np.all(np.abs(got[i] - exact) <= bound), (i, positions)
        return got


def reference_model(model: LlamaModel) -> ReferenceModel:
    """``model`` rebuilt on every reference path: concatenating KV cache,
    ``np.repeat`` GQA, and slice-loop AtomLinears (other linears as is)."""
    ref = ReferenceModel(model.config, model.weights, kv_codec=model.kv_codec)
    ref.replace_linears(
        {
            name: SliceLoopLinear(part) if isinstance(part, AtomLinear) else part
            for name, part in model.parts.items()
        }
    )
    return ref


def rms_norm_reference(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """RMSNorm with float64 statistics, written as the formula."""
    ms = (x.astype(np.float64) ** 2).mean(axis=-1, keepdims=True)
    return (x / np.sqrt(ms + eps)).astype(np.float32) * gain


def rope_reference(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """RoPE of ``x``'s last axis, returned as a new array."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1)


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


def decode_one(runner: ModelRunner, request_id: int) -> int:
    """One decode step of one request: forward its last token, sample the
    next from its own rng.  ``runner.decode_batch`` must give the same
    tokens and rng states as this per request, in any order."""
    state = runner._states[request_id]
    logits = runner.model.forward(
        np.asarray([[state.tokens[-1]]]),
        pos_offset=len(state.tokens) - 1,
        cache=state.cache,
    )[0, -1]
    nxt = sample_token(logits, runner.temperature, state.rng)
    state.tokens.append(nxt)
    return nxt
