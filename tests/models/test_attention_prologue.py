"""Byte-level pins for the one-pass attention prologue.

Each decoder layer runs its ``attn_in`` executor once, rotates the q|k heads
of that output with ONE RoPE call and round-trips the k|v heads through
ONE KV-codec call (``kind="kv"``).  RoPE and the codec work per (token,
head) vector, so the stacked calls must equal separate q, k and v calls
byte for byte; the leaner ``_rms_norm`` must equal the plain formula; and
the model must make exactly one RoPE and one codec call per layer on every
forward: flat, rowwise, cached decode and ``forward_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from core.reference import (  # tests/core/reference.py (pytest puts tests/ on sys.path)
    rms_norm_reference,
    rope_reference,
)
from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import SERVING_BENCH_CONFIG
from repro.core.kv_quant import AtomKVCodec
from repro.models.llama import IdentityKVCodec, LlamaModel
from repro.models.net import rope_tables

CFG = SERVING_BENCH_CONFIG
H, KV, HD = CFG.n_heads, CFG.n_kv_heads, CFG.head_dim


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Same dtype, shape and bytes (``-0.0`` differs from ``0.0`` here)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _qkv(rng, b: int, t: int, scale: float = 1.0) -> np.ndarray:
    """A fused ``attn_in`` output viewed per head: ``(b, t, H + 2 KV, HD)``."""
    return (scale * rng.normal(size=(b, t, H + 2 * KV, HD))).astype(np.float32)


def _codec_id(codec) -> str:
    if isinstance(codec, IdentityKVCodec):
        return "identity"
    return f"int{codec.bits:g}-{'asym' if codec.asymmetric else 'sym'}"


CODECS = [IdentityKVCodec()] + [
    AtomKVCodec(bits, asymmetric=asym) for bits in (2, 4, 8) for asym in (True, False)
]


class TestStackedKVCodec:
    @pytest.mark.parametrize("codec", CODECS, ids=_codec_id)
    @pytest.mark.parametrize("b, t", [(1, 1), (12, 1), (2, 37)])
    def test_kv_call_equals_k_and_v_calls(self, codec, b, t):
        rng = np.random.default_rng(b * 100 + t)
        y = _qkv(rng, b, t, scale=3.0)
        # The prologue's operand: a transposed view of the k|v heads.
        kv = y[:, :, H:].transpose(0, 2, 1, 3)
        stacked = codec.encode_decode(kv, "kv")
        k = codec.encode_decode(kv[:, :KV], "k")
        v = codec.encode_decode(kv[:, KV:], "v")
        assert_bytes_equal(stacked[:, :KV], k)
        assert_bytes_equal(stacked[:, KV:], v)


class TestRope:
    @pytest.mark.parametrize("b, t, pos", [(1, 1, 0), (3, 1, 77), (2, 20, 5)])
    def test_qk_call_equals_q_and_k_calls(self, b, t, pos):
        rng = np.random.default_rng(t + pos)
        cos, sin = rope_tables(CFG.max_seq_len, HD, CFG.rope_theta)
        cos, sin = cos[pos : pos + t, None], sin[pos : pos + t, None]
        y = _qkv(rng, b, t)
        want_q = rope_reference(y[:, :, :H], cos, sin)
        # k in the cache layout (b, KV, t, HD), with (t, HD/2) tables.
        want_k = rope_reference(
            y[:, :, H : H + KV].transpose(0, 2, 1, 3), cos[:, 0], sin[:, 0]
        )
        q = y[:, :, :H].copy()
        LlamaModel._rope_apply(q, cos, sin)
        assert_bytes_equal(q, want_q)
        LlamaModel._rope_apply(y[:, :, : H + KV], cos, sin)
        assert_bytes_equal(y[:, :, :H], want_q)
        assert_bytes_equal(y[:, :, H : H + KV].transpose(0, 2, 1, 3), want_k)

    def test_batch_tables_broadcast_per_request(self):
        rng = np.random.default_rng(3)
        cos, sin = rope_tables(CFG.max_seq_len, HD, CFG.rope_theta)
        positions = np.array([0, 5, 130, 17])
        y = _qkv(rng, len(positions), 1)
        qk = y[:, :, : H + KV]
        want = np.stack(
            [
                rope_reference(qk[j], cos[p : p + 1, None], sin[p : p + 1, None])
                for j, p in enumerate(positions)
            ]
        )
        LlamaModel._rope_apply(
            qk, cos[positions][:, None, None], sin[positions][:, None, None]
        )
        assert_bytes_equal(y[:, :, : H + KV], want)


class TestRmsNorm:
    @pytest.mark.parametrize(
        "shape, scale",
        [((12, 1, 128), 1.0), ((3, 33, 96), 1.0), ((4, 1, 64), 1e-30),
         ((4, 1, 64), 1e30), ((2, 5, 64), 3e38)],
    )
    def test_equals_formula(self, shape, scale):
        rng = np.random.default_rng(shape[1])
        for _ in range(25):
            x = (rng.uniform(-1.0, 1.0, size=shape) * scale).astype(np.float32)
            gain = rng.normal(size=shape[-1]).astype(np.float32)
            got = LlamaModel._rms_norm(x, gain, 1e-5)
            assert_bytes_equal(got, rms_norm_reference(x, gain, 1e-5))

    def test_mixed_magnitudes_and_zeros(self):
        rng = np.random.default_rng(9)
        exponents = rng.integers(-30, 30, size=(6, 2, 64))
        x = (rng.normal(size=(6, 2, 64)) * 10.0**exponents).astype(np.float32)
        x[0] = 0.0
        gain = rng.normal(size=64).astype(np.float32)
        assert_bytes_equal(
            LlamaModel._rms_norm(x, gain, 1e-6), rms_norm_reference(x, gain, 1e-6)
        )


class TestOperands:
    @pytest.mark.parametrize("rowwise", [False, True])
    def test_layer0_equals_separate_passes(self, rowwise, monkeypatch):
        """q reaching the kernel and the K/V cached by layer 0 equal the
        projection split into q, k and v, each rotated and round-tripped
        on its own."""
        model = build_bench_model(CFG, seed=0)
        model.kv_codec = AtomKVCodec(4)
        tokens = np.random.default_rng(1).integers(0, CFG.vocab_size, size=(2, 20))
        b, t = tokens.shape
        x = model._rms_norm(
            model.embed(tokens), model.weights["layers.0.attn_norm"], CFG.norm_eps
        ).reshape(b * t, CFG.dim)
        lin = model.linears["layers.0.attn_in"]
        y = lin.forward_rowwise(x) if rowwise else lin(x)
        y = y.reshape(b, t, H + 2 * KV, HD)
        cos, sin = rope_tables(CFG.max_seq_len, HD, CFG.rope_theta)
        want_q = rope_reference(y[:, :, :H], cos[:t, None], sin[:t, None])
        k = rope_reference(y[:, :, H : H + KV].transpose(0, 2, 1, 3), cos[:t], sin[:t])
        want_k = model.kv_codec.encode_decode(k, "k")
        v = y[:, :, H + KV :].transpose(0, 2, 1, 3)
        want_v = model.kv_codec.encode_decode(v, "v")

        qs = []
        kernel = model._attention_rows

        def spy(q, k, v, positions):
            qs.append(q.copy())
            return kernel(q, k, v, positions)

        monkeypatch.setattr(model, "_attention_rows", spy)
        cache: dict = {}
        model.forward(tokens, cache=cache, rowwise=rowwise)
        # Layer 0 runs buckets 16 and 32: rows 0-15, then 16-19.
        assert_bytes_equal(np.concatenate(qs[:2], axis=1), want_q)
        kv0 = cache["layers.0.kv"]
        assert_bytes_equal(kv0.k[:, :, :t], want_k)
        assert_bytes_equal(kv0.v[:, :, :t], want_v)


@pytest.fixture()
def spied(monkeypatch):
    """The serving-bench model with an INT4 KV codec, counting prologue
    calls: ``calls`` lists ``("rope", shape)`` and ``("codec", kind, shape)``."""
    model = build_bench_model(CFG, seed=0)
    model.kv_codec = AtomKVCodec(4)
    calls: list = []
    rope, codec = model._rope_apply, model.kv_codec.encode_decode

    def rope_spy(x, cos, sin):
        calls.append(("rope", x.shape))
        return rope(x, cos, sin)

    def codec_spy(kv, kind):
        calls.append(("codec", kind, kv.shape))
        return codec(kv, kind)

    monkeypatch.setattr(model, "_rope_apply", rope_spy)
    monkeypatch.setattr(model.kv_codec, "encode_decode", codec_spy)
    return model, calls


def _expect(b: int, t: int) -> list:
    per_layer = [("rope", (b, t, H + KV, HD)), ("codec", "kv", (b, 2 * KV, t, HD))]
    return per_layer * CFG.n_layers


class TestOneCallPerLayer:
    @pytest.mark.parametrize("rowwise", [False, True])
    def test_forward(self, spied, rowwise):
        model, calls = spied
        tokens = np.random.default_rng(0).integers(0, CFG.vocab_size, size=(2, 20))
        model.forward(tokens, rowwise=rowwise)
        assert calls == _expect(2, 20)

    def test_cached_decode(self, spied):
        model, calls = spied
        cache: dict = {}
        model.forward(np.arange(7)[None], cache=cache, rowwise=True)
        assert calls == _expect(1, 7)
        calls.clear()
        model.forward(np.array([[3]]), pos_offset=7, cache=cache)
        assert calls == _expect(1, 1)

    def test_forward_batch(self, spied):
        model, calls = spied
        caches = [{} for _ in range(3)]
        for n, cache in zip((4, 9, 17), caches):
            model.forward(np.arange(n)[None], cache=cache, rowwise=True)
        calls.clear()
        model.forward_batch(np.array([1, 2, 3]), np.array([4, 9, 17]), caches)
        assert calls == _expect(3, 1)
