"""Pure-NumPy Llama inference model with pluggable quantized execution.

This is the substrate every quantization method in the repo plugs into:

- Each dense projection is executed through a :class:`LinearImpl`.  The
  default :class:`FloatLinear` is the FP16 baseline; Atom and the baselines
  replace these with quantized implementations (dynamic activation
  quantization + integer GEMM) via :meth:`LlamaModel.replace_linears`.
- The KV-cache passes through a :class:`KVCodec`.  The default is identity;
  Atom's asymmetric per-head low-bit codec lives in
  :mod:`repro.core.kv_quant`.
- KV *storage* is pluggable through the ``cache`` dict a forward is
  given: any object honouring the :class:`KVCache` protocol (``append(k,
  v) -> (k, v)``: the live prefix followed by finite padding up to
  :func:`key_bucket` of the last position) can back a layer's incremental
  cache under its ``layers.{i}.kv`` key.  A missing entry gets the dense
  preallocated :class:`KVCache`; the serving engine's numeric backend
  pre-populates :class:`repro.serving.paged_kv.PagedKVCache` entries so one
  model definition runs over both dense and paged KV with identical
  numerics.

The model also exposes :meth:`capture_site_inputs`, which records the
activation matrix entering every input site (once per site) during a forward
pass — this is how calibration data is gathered for outlier identification
(§5.1).  The layer-granular variants (:meth:`embed` / :meth:`forward_layer`
/ :meth:`capture_layer_site_inputs`) let sequential calibration resume from
already computed hidden states instead of re-running the whole model per
layer.

Incremental decoding uses a preallocated, geometrically grown
:class:`KVCache` per layer (write-in-place + length cursor) and executes GQA
with broadcastable views rather than ``np.repeat``-materialized K/V.

Attention has one kernel, :meth:`LlamaModel._attention_rows`, which serves
every forward: whole-sequence passes (calibration, perplexity, scoring),
prefill chunks, decode and batched decode.  A query row at absolute
position ``p`` attends over keys padded to ``key_bucket(p)`` positions
(padding masked to ``-inf``), and rows of one bucket stack into one call.
Every BLAS call a row makes then has a shape fixed by its position alone,
so a row's attention bytes never depend on batch composition or prefill
chunking.  A pass without a cache appends its K/V to a throwaway dense
:class:`KVCache`.  Every forward also shares one attention prologue,
:meth:`LlamaModel._attention_prologue`: the ``attn_in`` executor runs once,
RoPE rotates the q|k heads of its output in place in one call, and the KV
codec round-trips the k|v heads in one ``kind="kv"`` call; q, k and v go on
as views.  Both ops work per (token, head) vector, so one pass each is byte
for byte what separate q, k and v passes compute.

Linears that read the same activation run as ONE executor per input site:
at install time their parts are fused along the output axis
(:func:`fuse_site`), the forward pass calls the site once and splits the
columns, so each activation is reordered and quantized once — Atom's
"quantize in the producing operator" (§4.3).  ``model.linears`` maps each
site to its executor; ``model.parts`` keeps the installed per-linear parts.
Reordering and calibration are decided per *shared* site, which MoE experts
also share:

============================  ========================  ==========================
executor (``model.linears``)  parts                     shared (calibration) site
============================  ========================  ==========================
``layers.{i}.attn_in``        ``wq``, ``wk``, ``wv``    ``layers.{i}.attn_in``
``layers.{i}.attn_out``       ``wo``                    ``layers.{i}.attn_out``
``layers.{i}.ffn_in``         ``w_gate``, ``w_up``      ``layers.{i}.ffn_in``
``layers.{i}.ffn_hidden``     ``w_down``                ``layers.{i}.ffn_hidden``
============================  ========================  ==========================

In MoE layers each expert has its own ``layers.{i}.experts.{e}.ffn_in`` and
``.ffn_hidden`` executors, whose calibration activations pool into the
layer's shared sites.

The MoE router stays in FP16 — it is negligibly small, and the paper's MoE
adaptation (footnote 4) shares reorder indices across experts, which we
implement by keying reordering on the input site rather than the linear.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.models.config import ModelConfig
from repro.models.net import rope_tables

__all__ = [
    "LinearImpl",
    "FloatLinear",
    "KVCodec",
    "IdentityKVCodec",
    "KVCache",
    "LlamaModel",
    "SiteFusionError",
    "executor_site",
    "fuse_site",
    "input_site",
    "key_bucket",
    "rowwise_matmul",
    "sample_token",
]

#: Input site each linear reads, by the linear's leaf name.
_SITE_OF = {
    "wq": "attn_in",
    "wk": "attn_in",
    "wv": "attn_in",
    "wo": "attn_out",
    "w_gate": "ffn_in",
    "w_up": "ffn_in",
    "w_down": "ffn_hidden",
}


def executor_site(linear_name: str) -> str:
    """Map a linear's full name to the executor that runs it.

    E.g. ``layers.3.wk -> layers.3.attn_in`` and
    ``layers.2.experts.1.w_down -> layers.2.experts.1.ffn_hidden``.
    """
    prefix, _, leaf = linear_name.rpartition(".")
    if leaf not in _SITE_OF:
        raise ValueError(f"{linear_name!r} is not a quantizable linear")
    return f"{prefix}.{_SITE_OF[leaf]}"


def _shared_site(site: str) -> str:
    """``layers.2.experts.1.ffn_in -> layers.2.ffn_in`` (identity if dense)."""
    parts = site.split(".")
    return f"{parts[0]}.{parts[1]}.{parts[-1]}"


def input_site(linear_name: str) -> str:
    """Map a linear's full name to its shared activation-site key.

    E.g. ``layers.3.wk -> layers.3.attn_in`` and
    ``layers.2.experts.1.w_down -> layers.2.ffn_hidden``: MoE experts share
    their layer's sites (reordering and calibration are decided per site).
    """
    return _shared_site(executor_site(linear_name))


def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each row of ``a`` contracted independently.

    One stacked ``np.matmul`` over ``(rows, 1, k) @ (k, n)`` issues a
    separate inner GEMM per row, so row ``i`` of the result is bit-identical
    to ``a[i : i + 1] @ b`` — unlike a flat 2-D GEMM, whose blocked
    accumulation order (and therefore float rounding) depends on the row
    count.  This is the primitive that makes cross-request batched decode
    batch-size-invariant: stacking B requests into one call keeps every
    request's accumulation order identical to its own B=1 execution.
    """
    return np.matmul(a[:, None, :], b)[:, 0]


def key_bucket(position: int) -> int:
    """Padded key length of an attention query row at absolute ``position``.

    ``max(16, next_pow2(position + 1))``.  The rule is a fixed constant of
    the kernel: rows with one bucket stack into one attention call, and a
    row's BLAS shapes depend only on its bucket.
    """
    return max(16, 1 << int(position).bit_length())


class SiteFusionError(ValueError):
    """Linears sharing an input site read its activations differently."""


class LinearImpl(abc.ABC):
    """Execution backend for one dense projection ``y = x @ W.T``."""

    @abc.abstractmethod
    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to a 2-D activation matrix ``(tokens, in_features)``."""

    @abc.abstractmethod
    def forward_rowwise(self, x: np.ndarray) -> np.ndarray:
        """Apply with per-row accumulation order (batch-size-invariant).

        Row ``i`` of the result must be bit-identical to
        ``self(x[i : i + 1])[0]`` for any number of rows, e.g. by
        contracting through :func:`rowwise_matmul`.
        """

    def activation_signature(self) -> tuple:
        """Everything that decides how this linear reads its input.

        Linears of one class with equal signatures can be fused into one
        executor (:meth:`fuse`); the input is then prepared once for all.
        """
        return ()

    @classmethod
    def fuse(cls, parts: "list[LinearImpl]") -> "LinearImpl":
        """One ``cls`` instance whose output is the column concatenation of
        ``parts``' outputs (same class and signature, checked by
        :func:`fuse_site`)."""
        raise NotImplementedError(f"{cls.__name__} cannot be fused")

    @property
    @abc.abstractmethod
    def out_features(self) -> int: ...

    @property
    @abc.abstractmethod
    def in_features(self) -> int: ...


def fuse_site(site: str, parts: "dict[str, LinearImpl]") -> LinearImpl:
    """The one executor of ``site``, built from its parts (by linear name).

    A single part is its own executor.  Parts must share class and
    :meth:`~LinearImpl.activation_signature`; otherwise this raises
    :class:`SiteFusionError` naming the site and the disagreeing linear.
    """
    (head_name, head), *rest = parts.items()
    for name, part in rest:
        if (
            type(part) is not type(head)
            or part.activation_signature() != head.activation_signature()
        ):
            raise SiteFusionError(
                f"cannot fuse site {site!r}: {name} ({type(part).__name__}) "
                f"reads its input differently from {head_name} "
                f"({type(head).__name__})"
            )
    return type(head).fuse(list(parts.values())) if rest else head


class FloatLinear(LinearImpl):
    """Full-precision (FP16-baseline) linear."""

    def __init__(self, weight: np.ndarray) -> None:
        if weight.ndim != 2:
            raise ValueError("weight must be 2-D (out, in)")
        self.weight = np.asarray(weight, dtype=np.float32)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T

    def forward_rowwise(self, x: np.ndarray) -> np.ndarray:
        return rowwise_matmul(x, self.weight.T)

    @classmethod
    def fuse(cls, parts: "list[FloatLinear]") -> "FloatLinear":
        return cls(np.concatenate([p.weight for p in parts]))

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]


class KVCodec(abc.ABC):
    """Lossy storage codec for the KV-cache.

    ``encode_decode`` models a round-trip through the quantized cache:
    the serving kernel stores low-bit codes and dequantizes on load, so
    accuracy-wise the effect is exactly quantize->dequantize.
    Input layout: ``(batch, heads, tokens, head_dim)``.
    """

    @abc.abstractmethod
    def encode_decode(self, kv: np.ndarray, kind: str) -> np.ndarray:
        """Round-trip ``kv`` through the codec; ``kind`` is ``"k"``, ``"v"``
        or ``"kv"`` (K heads then V heads on axis 1, one call per layer)."""

    @property
    def bits(self) -> float:
        """Storage bits per element (for memory accounting); 16 = lossless."""
        return 16.0


class IdentityKVCodec(KVCodec):
    """FP16 KV-cache (the baseline)."""

    def encode_decode(self, kv: np.ndarray, kind: str) -> np.ndarray:
        return kv


class KVCache:
    """Preallocated per-layer KV buffer: write-in-place + length cursor.

    The buffer is zero-filled and always spans :func:`key_bucket` of the
    last live position, so ``append`` returns zero-copy views of the live
    prefix followed by zero padding: the operand the attention kernel
    contracts over.  A forward without a cache appends to a throwaway one.
    Buckets are powers of two, so the buffer at least doubles when it grows
    and total copying over a decode of ``n`` tokens is O(n).  ``capacity``
    is the first reservation (rounded up to a key bucket); ``max_capacity``
    bounds the live length.
    """

    __slots__ = ("k", "v", "length", "max_capacity")

    def __init__(
        self,
        batch: int,
        n_kv_heads: int,
        head_dim: int,
        *,
        capacity: int,
        max_capacity: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.max_capacity = max_capacity
        self.k = np.zeros(
            (batch, n_kv_heads, key_bucket(capacity - 1), head_dim), dtype=np.float32
        )
        self.v = np.zeros_like(self.k)
        self.length = 0

    @property
    def capacity(self) -> int:
        return self.k.shape[2]

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write ``(batch, kv_heads, t, head_dim)`` steps; return the live
        prefix padded with zeros to ``key_bucket(length - 1)`` positions."""
        need = self.length + k_new.shape[2]
        if self.max_capacity is not None and need > self.max_capacity:
            raise ValueError(
                f"KV cache needs {need} positions, max_capacity {self.max_capacity}"
            )
        padded = key_bucket(need - 1)
        if padded > self.capacity:
            k = np.zeros((*self.k.shape[:2], padded, self.k.shape[3]), dtype=self.k.dtype)
            v = np.zeros_like(k)
            k[:, :, : self.length] = self.k[:, :, : self.length]
            v[:, :, : self.length] = self.v[:, :, : self.length]
            self.k, self.v = k, v
        self.k[:, :, self.length : need] = k_new
        self.v[:, :, self.length : need] = v_new
        self.length = need
        return self.k[:, :, :padded], self.v[:, :, :padded]


def sample_token(
    logits: np.ndarray, temperature: float, rng: np.random.Generator
) -> int:
    """Greedy (``temperature <= 0``) or softmax-sampled next token.

    Shared by :meth:`LlamaModel.generate` and the serving engine's
    :class:`~repro.serving.model_runner.ModelRunner` so both decode paths
    run the identical float operations — the foundation of the
    engine-vs-``generate`` bit-identity oracle.
    """
    if temperature <= 0.0:
        return int(np.argmax(logits))
    z = (logits / temperature).astype(np.float64)
    z -= z.max()
    p = np.exp(z) / np.exp(z).sum()
    return int(rng.choice(len(p), p=p))


class LlamaModel:
    """Inference-time Llama with pluggable quantized linears and KV codec."""

    def __init__(
        self,
        config: ModelConfig,
        weights: dict[str, np.ndarray],
        *,
        kv_codec: KVCodec | None = None,
    ) -> None:
        self.config = config
        self.weights = {k: np.asarray(v, dtype=np.float32) for k, v in weights.items()}
        self.kv_codec = kv_codec or IdentityKVCodec()
        self._cos, self._sin = rope_tables(
            config.max_seq_len, config.head_dim, config.rope_theta
        )
        #: Installed per-linear implementations, by linear name (what
        #: :meth:`replace_linears` validates and checkpoints persist).
        self.parts: dict[str, LinearImpl] = {
            name: FloatLinear(self.weights[name]) for name in self.linear_names()
        }
        self._members: dict[str, list[str]] = {}
        for name in self.parts:
            self._members.setdefault(executor_site(name), []).append(name)
        #: The executors that run, one per input site (see the module table).
        self.linears: dict[str, LinearImpl] = {
            site: fuse_site(site, {n: self.parts[n] for n in names})
            for site, names in self._members.items()
        }
        self._capture: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def linear_names(self) -> list[str]:
        """All quantizable dense projections, in execution order."""
        c = self.config
        names: list[str] = []
        for i in range(c.n_layers):
            pre = f"layers.{i}"
            names += [f"{pre}.wq", f"{pre}.wk", f"{pre}.wv", f"{pre}.wo"]
            if c.is_moe:
                for e in range(c.n_experts):
                    ep = f"{pre}.experts.{e}"
                    names += [f"{ep}.w_gate", f"{ep}.w_up", f"{ep}.w_down"]
            else:
                names += [f"{pre}.w_gate", f"{pre}.w_up", f"{pre}.w_down"]
        return names

    def replace_linears(self, mapping: dict[str, LinearImpl]) -> None:
        """Swap in quantized linear implementations (validated shapes) and
        re-fuse every site they belong to.

        Raises :class:`SiteFusionError` (leaving the model unchanged) when a
        site's parts end up reading its input differently.
        """
        for name, impl in mapping.items():
            if name not in self.parts:
                raise KeyError(f"unknown linear {name!r}")
            old = self.parts[name]
            if (impl.in_features, impl.out_features) != (
                old.in_features,
                old.out_features,
            ):
                raise ValueError(
                    f"shape mismatch replacing {name!r}: "
                    f"({impl.in_features},{impl.out_features}) vs "
                    f"({old.in_features},{old.out_features})"
                )
        parts = {**self.parts, **mapping}
        executors = {
            site: fuse_site(site, {n: parts[n] for n in self._members[site]})
            for site in dict.fromkeys(executor_site(n) for n in mapping)
        }
        self.parts = parts
        self.linears.update(executors)

    def clone(self) -> "LlamaModel":
        """Fresh FP16 model sharing (copying) the same weights."""
        return LlamaModel(self.config, self.weights, kv_codec=self.kv_codec)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def _site(self, site: str, x2d: np.ndarray, rowwise: bool = False) -> np.ndarray:
        """Run ``site``'s executor once: a fresh ``(rows, out)`` float32
        array, its parts' outputs side by side in ``model.parts`` order.

        ``rowwise=True`` selects the batch-size-invariant kernel (one row
        per independent sequence, see :meth:`LinearImpl.forward_rowwise`).
        """
        if self._capture is not None:
            self._capture[site] = x2d.copy()
        lin = self.linears[site]
        return lin.forward_rowwise(x2d) if rowwise else lin(x2d)

    @staticmethod
    def _rope_apply(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
        """Rotate ``x``'s last axis in place (RoPE); ``cos``/``sin`` hold
        ``head_dim / 2`` angles and broadcast against ``x``'s other axes."""
        half = x.shape[-1] // 2
        x1, x2 = x[..., :half], x[..., half:]
        rot1 = x1 * cos
        rot1 -= x2 * sin
        x2 *= cos
        x2 += x1 * sin
        x1[...] = rot1

    @staticmethod
    def _rms_norm(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
        """``x / sqrt(mean(x**2) + eps) * gain``, the statistics in float64."""
        x64 = x.astype(np.float64)
        ms = np.add.reduce(x64 * x64, axis=-1, keepdims=True)
        ms /= x.shape[-1]
        ms += eps
        np.divide(x64, np.sqrt(ms, out=ms), out=x64)
        y = x64.astype(np.float32)
        y *= gain
        return y

    def _attention_prologue(
        self, x: np.ndarray, layer: int, cos: np.ndarray, sin: np.ndarray,
        rowwise: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One layer's attention operands from its normed input ``x``
        ``(b, t, dim)``, in one pass per op.

        The ``attn_in`` executor runs once; its fresh output, viewed as
        ``(b, t, n_heads + 2 * n_kv_heads, head_dim)``, holds q|k|v.  RoPE
        rotates the q|k heads in place in one call (``cos``/``sin``
        broadcast against ``(b, t, heads, head_dim / 2)``), and the KV
        codec round-trips the k|v heads in one ``"kv"`` call, viewed as
        ``(b, 2 * n_kv_heads, t, head_dim)``.  Both ops work per (token,
        head) vector, so the bytes equal separate q, k and v passes.
        Returns ``q`` ``(b, t, n_heads, head_dim)`` and ``k``/``v`` ``(b,
        n_kv_heads, t, head_dim)``, all views.
        """
        c = self.config
        b, t, _ = x.shape
        h, kv = c.n_heads, c.n_kv_heads
        y = self._site(f"layers.{layer}.attn_in", x.reshape(b * t, c.dim), rowwise)
        y = y.reshape(b, t, h + 2 * kv, c.head_dim)
        self._rope_apply(y[:, :, : h + kv], cos, sin)
        # The KV-cache round-trips through the codec (quantized storage).
        kvs = self.kv_codec.encode_decode(y[:, :, h:].transpose(0, 2, 1, 3), "kv")
        return y[:, :, :h], kvs[:, :kv], kvs[:, kv:]

    def _attention(
        self,
        x: np.ndarray,
        layer: int,
        *,
        pos_offset: int,
        cache: dict | None,
        rowwise: bool = False,
    ) -> np.ndarray:
        """Attention of ``t`` consecutive rows per sequence, (B, T, D) -> same.

        The rows sit at positions ``pos_offset .. pos_offset + t - 1``.
        :meth:`_attention_prologue` runs the QKV projection, RoPE over q|k
        and the KV codec over k|v once each; K/V append to ``cache``'s
        layer entry (a throwaway dense :class:`KVCache` without a cache);
        each key bucket runs one :meth:`_attention_rows` call; the output
        projection runs once.  Serves prefill, :meth:`generate`'s decode,
        calibration and :meth:`nll`.
        """
        c = self.config
        b, t, _ = x.shape
        h, kv, hd = c.n_heads, c.n_kv_heads, c.head_dim
        pre = f"layers.{layer}"
        if cache is None and pos_offset:
            raise ValueError("attention without a cache starts at 0")
        end = pos_offset + t
        q, k, v = self._attention_prologue(
            x, layer, self._cos[pos_offset:end, None], self._sin[pos_offset:end, None],
            rowwise,
        )
        if cache is None:
            kv_cache = KVCache(b, kv, hd, capacity=t)
        else:
            kv_cache = cache.get(f"{pre}.kv")
            if kv_cache is None:
                kv_cache = cache[f"{pre}.kv"] = self._new_kv_cache(b, t)
        k, v = kv_cache.append(k, v)
        # One kernel call per key bucket (consecutive positions, so each
        # bucket is a run of rows).
        out = np.empty((b, t, h * hd), dtype=np.float32)
        lo = 0
        while lo < t:
            lp = key_bucket(pos_offset + lo)
            hi = min(t, lp - pos_offset)
            out[:, lo:hi] = self._attention_rows(
                q[:, lo:hi],
                k[:, :, :lp],
                v[:, :, :lp],
                np.arange(pos_offset + lo, pos_offset + hi),
            )
            lo = hi
        y = self._site(f"{pre}.attn_out", out.reshape(b * t, h * hd), rowwise)
        return y.reshape(b, t, c.dim)

    def _attention_rows(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """The attention kernel over one key bucket.

        ``q`` is ``(b, m, n_heads, head_dim)``: query rows ``(i, j)`` at
        absolute positions ``positions``, shaped ``(m,)`` (consecutive rows
        of one :meth:`forward` call, shared over ``b``) or ``(b,)`` (one
        decode row per sequence, ``m == 1``).  ``k``/``v`` are ``(b,
        kv_heads, Lp, head_dim)``: keys at positions ``0 .. Lp-1``, where
        ``Lp`` is the rows' :func:`key_bucket`; keys past a row's position
        are masked to ``-inf``, so padding only needs to be finite.  Returns
        the pre-``wo`` context ``(b, m, n_heads * head_dim)``.

        Each row contracts through float32 ``(g, hd) @ (hd, Lp)`` and
        ``(g, Lp) @ (Lp, hd)`` matmuls (gemv when ``g == 1``) and
        elementwise or last-axis ops of length ``Lp``, so its bytes depend
        on its own operands and ``Lp`` only, never on ``b``, ``m`` or the
        live length.
        """
        b, m, h, hd = q.shape
        kv = self.config.n_kv_heads
        lp = k.shape[2]
        qg = q.reshape(b, m, kv, h // kv, hd) * np.float32(1.0 / np.sqrt(hd))
        scores = qg @ k[:, None].swapaxes(-1, -2)
        dead = np.arange(lp) > np.reshape(positions, (-1, m, 1, 1, 1))
        np.copyto(scores, -np.inf, where=dead)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        return (scores @ v[:, None]).reshape(b, m, h * hd)

    def _attention_batch(
        self,
        x: np.ndarray,
        layer: int,
        positions: np.ndarray,
        caches: list[dict],
        cos: np.ndarray,
        sin: np.ndarray,
    ) -> np.ndarray:
        """Fused decode attention for B independent single-token sequences.

        ``x`` is ``(B, 1, dim)`` — one decode token per request — with
        request ``j`` at absolute position ``positions[j]`` and its
        incremental KV in ``caches[j]``; ``cos``/``sin`` are the step's
        per-request RoPE tables, ``(B, 1, 1, head_dim / 2)``, indexed once
        per step by :meth:`forward_batch`.  The shared
        :meth:`_attention_prologue` runs the row-wise QKV projection, RoPE
        over q|k and the KV codec over k|v once each; cache appends go
        through :meth:`_append_kv_batch`, which hands back the requests
        grouped by :func:`key_bucket`; each bucket runs one
        :meth:`_attention_rows` call; the output projection runs row-wise
        once.
        """
        c = self.config
        b = x.shape[0]
        h, hd = c.n_heads, c.head_dim
        pre = f"layers.{layer}"
        q, k, v = self._attention_prologue(x, layer, cos, sin, rowwise=True)
        key = f"{pre}.kv"
        for cache in caches:
            if key not in cache:
                cache[key] = self._new_kv_cache(1, 1)
        out = np.empty((b, 1, h * hd), dtype=np.float32)
        for rows, kb, vb in self._append_kv_batch([c[key] for c in caches], k, v):
            out[rows] = self._attention_rows(q[rows], kb, vb, positions[rows])
        y = self._site(f"{pre}.attn_out", out.reshape(b, h * hd), rowwise=True)
        return y.reshape(b, 1, c.dim)

    def _new_kv_cache(self, batch: int, capacity: int):
        """A layer's incremental KV when its cache entry is missing: the
        dense preallocated :class:`KVCache`."""
        c = self.config
        return KVCache(
            batch,
            c.n_kv_heads,
            c.head_dim,
            capacity=capacity,
            max_capacity=c.max_seq_len,
        )

    @staticmethod
    def _append_kv_batch(
        kv_caches: list, k: np.ndarray, v: np.ndarray
    ) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray]]":
        """Append one token to each request's cache; return the key buckets.

        Each bucket is ``(rows, k, v)``: the indices of the requests whose
        last position shares one :func:`key_bucket` ``Lp``, and their padded
        K/V stacked as ``(len(rows), kv_heads, Lp, head_dim)``.  When every
        cache is the same type and that type offers an ``append_batch``
        classmethod (e.g. :class:`repro.serving.paged_kv.PagedKVCache`), it
        writes and gathers the whole batch in store-level operations;
        otherwise each request appends alone and is its own bucket.
        """
        cache_type = type(kv_caches[0])
        batch_append = getattr(cache_type, "append_batch", None)
        if batch_append is not None and all(
            type(cache) is cache_type for cache in kv_caches
        ):
            return batch_append(kv_caches, k, v)
        return [
            (np.asarray([j]), *cache.append(k[j : j + 1], v[j : j + 1]))
            for j, cache in enumerate(kv_caches)
        ]

    def _dense_ffn(
        self, x2d: np.ndarray, prefix: str, rowwise: bool = False
    ) -> np.ndarray:
        f = self.config.ffn_dim
        gate_up = self._site(f"{prefix}.ffn_in", x2d, rowwise)
        gate, up = gate_up[:, :f], gate_up[:, f:]
        hidden = (gate / (1.0 + np.exp(-gate))) * up  # SiLU(gate) * up
        return self._site(f"{prefix}.ffn_hidden", hidden, rowwise)

    @staticmethod
    def _topk_threshold(logits: np.ndarray, k: int) -> np.ndarray:
        """Per-row value of the k-th largest logit, shape ``(rows, 1)``.

        ``np.argpartition`` (O(E) selection) instead of a full sort — same
        threshold value, hence the same selected experts, asymptotically
        cheaper in the expert count.
        """
        if k >= logits.shape[-1]:
            return logits.min(axis=-1, keepdims=True)
        kth_idx = np.argpartition(logits, -k, axis=-1)[:, -k][:, None]
        return np.take_along_axis(logits, kth_idx, axis=-1)

    def _moe_ffn(self, x2d: np.ndarray, layer: int) -> np.ndarray:
        c = self.config
        pre = f"layers.{layer}"
        logits = x2d @ self.weights[f"{pre}.router"].T  # router stays FP16
        kth = self._topk_threshold(logits, c.top_k)
        masked = np.where(logits >= kth, logits, -np.inf)
        masked -= masked.max(axis=-1, keepdims=True)
        e = np.exp(masked)
        gates = e / e.sum(axis=-1, keepdims=True)  # (n, E)
        out = np.zeros_like(x2d)
        for ex in range(c.n_experts):
            active = gates[:, ex] > 0.0
            if not active.any():
                continue
            y = self._dense_ffn(x2d[active], f"{pre}.experts.{ex}")
            out[active] += gates[active, ex : ex + 1] * y
        return out

    def _layer_step(
        self,
        x: np.ndarray,
        layer: int,
        *,
        pos_offset: int = 0,
        cache: dict | None = None,
        rowwise: bool = False,
    ) -> np.ndarray:
        """One decoder layer: attention + FFN with residuals, (B, T, D) -> same.

        ``rowwise=True`` routes every projection through the
        position-invariant per-row GEMMs (see :meth:`forward`); attention
        runs the key-bucket kernel either way.  MoE routing stays on the
        flat path — the serving stack rejects MoE models, so
        position-invariant prefill is a dense-model contract.
        """
        c = self.config
        b, t, _ = x.shape
        pre = f"layers.{layer}"
        h = self._rms_norm(x, self.weights[f"{pre}.attn_norm"], c.norm_eps)
        x = x + self._attention(
            h, layer, pos_offset=pos_offset, cache=cache, rowwise=rowwise
        )
        h = self._rms_norm(x, self.weights[f"{pre}.mlp_norm"], c.norm_eps)
        h2d = h.reshape(b * t, c.dim)
        if c.is_moe:
            ffn = self._moe_ffn(h2d, layer)
        else:
            ffn = self._dense_ffn(h2d, pre, rowwise)
        return x + ffn.reshape(b, t, c.dim)

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        """Token embedding lookup: (B, T) int -> (B, T, D) float32."""
        return self.weights["embed"][np.atleast_2d(np.asarray(tokens))]

    def forward_layer(
        self,
        x: np.ndarray,
        layer: int,
        *,
        pos_offset: int = 0,
        cache: dict | None = None,
    ) -> np.ndarray:
        """Advance hidden states through decoder layer ``layer``.

        Together with :meth:`embed` this is the resume-from-activation-
        checkpoint API: sequential calibration carries layer ``i``'s output
        forward instead of re-running the whole model per layer (O(L) total
        layer executions instead of O(L^2)).
        """
        if not 0 <= layer < self.config.n_layers:
            raise ValueError(f"layer {layer} out of range")
        return self._layer_step(x, layer, pos_offset=pos_offset, cache=cache)

    def forward(
        self,
        tokens: np.ndarray,
        *,
        pos_offset: int = 0,
        cache: dict | None = None,
        rowwise: bool = False,
    ) -> np.ndarray:
        """``tokens`` (B, T) int -> logits (B, T, V).

        With ``cache`` (a dict carried across calls) the model runs
        incrementally: pass the prompt once, then one token at a time with
        increasing ``pos_offset``.

        Attention always runs :meth:`_attention_rows`, where the row at
        position ``i`` contracts over keys padded to ``key_bucket(i)``.
        ``rowwise`` chooses only the GEMM kernels of the linears and the lm
        head: ``rowwise=True`` contracts each token row independently, so
        the hidden state (and cached K/V) at position ``i`` depends only on
        tokens ``<= i`` — never on how many positions shared the call.  That
        makes chunked/resumed prefill bit-identical to one-shot prefill,
        which is what lets the prefix cache hand a request someone else's KV
        pages.  A single-token step (decode) issues the same single-row
        GEMMs either way, so with a cache it is byte-identical to its row of
        :meth:`forward_batch`.  The flat default, one 2-D GEMM per linear,
        is the calibration/perplexity path.  A call without a cache must
        start at ``pos_offset=0`` (``ValueError`` otherwise).
        """
        c = self.config
        tokens = np.atleast_2d(np.asarray(tokens))
        b, t = tokens.shape
        if pos_offset + t > c.max_seq_len:
            raise ValueError(
                f"positions up to {pos_offset + t} exceed max_seq_len {c.max_seq_len}"
            )
        x = self.weights["embed"][tokens]
        for i in range(c.n_layers):
            x = self._layer_step(
                x, i, pos_offset=pos_offset, cache=cache, rowwise=rowwise
            )
        x = self._rms_norm(x, self.weights["final_norm"], c.norm_eps)
        x2d = x.reshape(b * t, c.dim)
        if rowwise:
            logits = rowwise_matmul(x2d, self.weights["lm_head"].T)
        else:
            logits = x2d @ self.weights["lm_head"].T
        return logits.reshape(b, t, c.vocab_size)

    def forward_batch(
        self,
        tokens: np.ndarray,
        positions: np.ndarray,
        caches: list[dict],
    ) -> np.ndarray:
        """Fused decode step for B *independent* sequences -> logits (B, V).

        Request ``j`` contributes its last token ``tokens[j]`` at absolute
        position ``positions[j]`` with incremental KV ``caches[j]`` (holding
        exactly ``positions[j]`` tokens); the whole batch runs one row-wise
        batched linear per projection and one attention call per key bucket
        per layer.  Row ``j`` of the result is bit-identical to
        ``forward([[tokens[j]]], pos_offset=positions[j], cache=caches[j])``
        — batch composition never changes any request's numerics (see
        :func:`rowwise_matmul` and :meth:`_attention_rows`).
        """
        c = self.config
        if c.is_moe:
            raise ValueError("forward_batch covers dense models only")
        tokens = np.asarray(tokens, dtype=np.int64).ravel()
        positions = np.asarray(positions, dtype=np.int64).ravel()
        b = tokens.shape[0]
        if b == 0 or len(positions) != b or len(caches) != b:
            raise ValueError(
                f"batch mismatch: {b} tokens, {len(positions)} positions, "
                f"{len(caches)} caches (need equal and non-empty)"
            )
        if int(positions.max()) + 1 > c.max_seq_len:
            raise ValueError(
                f"positions up to {int(positions.max()) + 1} exceed "
                f"max_seq_len {c.max_seq_len}"
            )
        x = self.weights["embed"][tokens][:, None, :]
        # Per-request RoPE tables, broadcast over heads like a forward
        # call's (t, 1, hd/2) tables broadcast over its batch.
        cos = self._cos[positions][:, None, None]
        sin = self._sin[positions][:, None, None]
        for i in range(c.n_layers):
            pre = f"layers.{i}"
            hdn = self._rms_norm(x, self.weights[f"{pre}.attn_norm"], c.norm_eps)
            x = x + self._attention_batch(hdn, i, positions, caches, cos, sin)
            hdn = self._rms_norm(x, self.weights[f"{pre}.mlp_norm"], c.norm_eps)
            ffn = self._dense_ffn(hdn.reshape(b, c.dim), pre, rowwise=True)
            x = x + ffn.reshape(b, 1, c.dim)
        x = self._rms_norm(x, self.weights["final_norm"], c.norm_eps)
        return rowwise_matmul(x.reshape(b, c.dim), self.weights["lm_head"].T)

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def token_logprobs(self, tokens: np.ndarray) -> np.ndarray:
        """``log P(tokens[:, i + 1] | tokens[:, : i + 1])`` of a teacher-forced
        flat :meth:`forward`, as a ``(B, T - 1)`` float64 array."""
        tokens = np.atleast_2d(np.asarray(tokens))
        logits = self.forward(tokens[:, :-1]).astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=-1))
        targets = tokens[:, 1:, None]
        return np.take_along_axis(shifted, targets, axis=-1)[..., 0] - logz

    def nll(self, tokens: np.ndarray) -> float:
        """Mean next-token negative log-likelihood over (B, T) tokens."""
        return float(-self.token_logprobs(tokens).mean())

    def sequence_logprob(self, tokens: np.ndarray, *, start: int = 0) -> float:
        """Sum of log P(token_i | prefix) for i in [max(start,1), len)."""
        token_lp = self.token_logprobs(np.asarray(tokens).reshape(1, -1))[0]
        begin = max(start - 1, 0)  # logits index i predicts token i+1
        return float(token_lp[begin:].sum())

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        *,
        temperature: float = 0.0,
        seed: "int | list[int]" = 0,
    ) -> np.ndarray:
        """Greedy (or sampled) decoding with an incremental KV-cache.

        ``seed`` accepts anything ``np.random.default_rng`` does (ints or
        sequence keys); the serving engine's numeric backend uses per-request
        sequence keys so its sampling stream matches this oracle exactly.

        The prompt pass runs the rowwise (position-invariant) GEMMs so the
        oracle's prefill bytes match the serving runner's chunked/prefix-
        cached prefill exactly; a decode step is one row, so its GEMMs are
        the rowwise ones either way.
        """
        rng = np.random.default_rng(seed)
        tokens = list(np.asarray(prompt).ravel())
        cache: dict = {}
        logits = self.forward(np.asarray(tokens)[None, :], cache=cache, rowwise=True)[
            0, -1
        ]
        for _ in range(max_new_tokens):
            nxt = sample_token(logits, temperature, rng)
            tokens.append(nxt)
            if len(tokens) >= self.config.max_seq_len:
                break
            logits = self.forward(
                np.asarray([[nxt]]), pos_offset=len(tokens) - 1, cache=cache
            )[0, -1]
        return np.asarray(tokens, dtype=np.int64)

    def _record_sites(self, run) -> dict[str, np.ndarray]:
        """Call ``run()`` (one pass: every executor runs at most once)
        recording each executor's input by site."""
        self._capture = {}
        try:
            run()
        finally:
            captured, self._capture = self._capture, None
        return captured

    @staticmethod
    def _pooled(sites: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Site records keyed by shared site; MoE experts' rows pool into
        their layer's site (all rows the shared reorder will see)."""
        pools: dict[str, list[np.ndarray]] = {}
        for site, acts in sites.items():
            pools.setdefault(_shared_site(site), []).append(acts)
        return {
            site: xs[0] if len(xs) == 1 else np.concatenate(xs)
            for site, xs in pools.items()
        }

    def capture_site_inputs(self, tokens: np.ndarray) -> dict[str, np.ndarray]:
        """Run a forward pass recording each shared site's input activation.

        Returns ``{input_site: (rows, in_features)}`` (see
        :func:`input_site`), the calibration data of outlier identification,
        GPTQ Hessians and SmoothQuant statistics.
        """
        return self._pooled(self._record_sites(lambda: self.forward(tokens)))

    def capture_layer_site_inputs(
        self, x: np.ndarray, layer: int
    ) -> dict[str, np.ndarray]:
        """:meth:`capture_site_inputs` for ONE decoder layer run on hidden
        states ``x`` (as produced by :meth:`embed` / :meth:`forward_layer`).

        This is the O(L) sequential-calibration primitive: capturing layer
        ``i`` costs one layer execution, not a full model forward.
        """
        return self._pooled(self._record_sites(lambda: self._layer_step(x, layer)))
