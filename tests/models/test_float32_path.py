"""The quantized serving path runs in float32, with no float64 island.

A float64 operand anywhere on the path (a weight block, a quantizer grid
vector, a float64 scalar in an elementwise op) silently promotes what
follows it to float64: the GEMM to dgemm, the attention to float64
softmax.  The outputs stay correct, so only the dtypes show it.  Pinned on
the serving-bench Atom-W4A4 and MixedBit models, built the way the serving
benchmark builds them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import SERVING_BENCH_CONFIG
from repro.core.kv_quant import AtomKVCodec
from repro.core.linear import AtomLinear
from repro.serving import SCHEMES

F32 = np.dtype(np.float32)


@pytest.fixture(scope="module", params=["Atom-W4A4", "MixedBit"])
def model(request):
    base = build_bench_model(SERVING_BENCH_CONFIG, seed=0)
    calib = np.random.default_rng(1).integers(
        0, SERVING_BENCH_CONFIG.vocab_size, size=(4, 32)
    )
    return SCHEMES[request.param].quantize(base, calib_tokens=calib)


def test_site_executors_are_float32(model):
    rng = np.random.default_rng(2)
    assert model.linears
    for site, lin in model.linears.items():
        assert isinstance(lin, AtomLinear), site
        assert lin._w.dtype == F32, site
        for *_, grid in lin._buckets:
            assert grid is None or all(g.dtype == F32 for g in grid), site
        x = lin._prepare(rng.normal(size=(3, lin.in_features)))
        assert x.dtype == F32, site
        assert lin._forward(x).dtype == F32, site
        assert lin._forward(x, rowwise=True).dtype == F32, site


def test_kv_codec_is_float32(model):
    c = model.config
    assert isinstance(model.kv_codec, AtomKVCodec)
    kv = np.random.default_rng(3).normal(size=(2, c.n_kv_heads, 5, c.head_dim))
    for kind in ("k", "v"):
        assert model.kv_codec.encode_decode(kv.astype(np.float32), kind).dtype == F32


def test_attention_rows_context_is_float32_in_flat_forward(model, monkeypatch):
    contexts = []
    kernel = model._attention_rows

    def spy(q, k, v, positions):
        contexts.append(kernel(q, k, v, positions))
        return contexts[-1]

    monkeypatch.setattr(model, "_attention_rows", spy)
    c = model.config
    model.forward(np.random.default_rng(4).integers(0, c.vocab_size, size=(2, 20)))
    # Two key buckets (16, 32) per layer.
    assert len(contexts) == 2 * c.n_layers
    for ctx in contexts:
        assert ctx.dtype == F32
        assert ctx.shape[-1] == c.n_heads * c.head_dim


def test_site_inputs_are_float32(model):
    # SiLU(gate) * up of float32 executor outputs stays float32, so it
    # reaches ffn_hidden with no cast; so does every other site's input,
    # in a flat forward and in a batched decode step.
    c = model.config
    rng = np.random.default_rng(5)
    flat = model.capture_site_inputs(rng.integers(0, c.vocab_size, size=(2, 9)))
    caches = [{} for _ in range(3)]
    for n, cache in zip((3, 8, 20), caches):
        model.forward(rng.integers(0, c.vocab_size, size=(1, n)), cache=cache)
    batched = model._record_sites(
        lambda: model.forward_batch(np.array([1, 2, 3]), np.array([3, 8, 20]), caches)
    )
    for sites in (flat, batched):
        assert sorted(sites) == sorted(model.linears)
        for site, x in sites.items():
            assert x.dtype == F32, site
