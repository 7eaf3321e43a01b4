"""Equivalence gate for the vectorized inference engine.

Every optimization of the execution engine — the flat-GEMM AtomLinear
kernel, the preallocated KV-cache with broadcast GQA, the O(L)
resume-from-checkpoint sequential calibration, the argpartition MoE router —
is pinned to a straightforward reference: the oracles in
``tests/core/reference.py`` (slice loop, concatenating cache, ``np.repeat``
GQA, full-forward-per-layer calibration) and ``np.sort`` for the router:

- the float32 AtomLinear, across formats, ragged widths, outlier-tail
  sizes, FP16 tails, MixedBit tiers and random slice layouts, quantizes the
  input it sees (``lin._prepare(x)``) to activation codes bit-equal to the
  slice loop's, and its output (``__call__`` and ``forward_rowwise``) is
  within ``reference.float32_gemm_bound`` of the slice loop's exact-MMA
  result: ``gamma_n * (|qx| @ |w|)``, ``gamma_n = n*u / (1 - n*u)``,
  ``u = 2**-24``, ``n = in_features + 2`` (float32 reassociation of the
  contraction plus the two operand roundings); ``forward_rowwise`` row
  ``i`` is bit-equal to the single-row call;
- the attention kernel is within ``reference.float32_attention_bound`` of
  the float64 ``np.repeat`` GQA oracle: the ``hd``-term scores, the
  softmax's exp/sum/divide roundings and the ``Lp``-term context
  contraction, derived like the GEMM bound; in model-level runs every
  kernel call is held to it on its own operands (``ReferenceModel``), and
  logits agree between the preallocated cache and the concatenating one;
- sequential calibration produces bit-identical codes either way;
- the router selects the identical expert set.

Every model-level test asserts that the reference actually ran (call
counters, cache types), so it never compares the engine with itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.baselines.mixedbit import DEFAULT_TIERS, tier_slices
from repro.core import AtomConfig, AtomQuantizer
from repro.core.gptq import rtn_weight_quantize
from repro.core.groups import GroupSlice, make_group_slices
from repro.core.linear import AtomLinear
from repro.models.config import ModelConfig
from repro.models.llama import KVCache, LlamaModel, key_bucket
from repro.serving.telemetry import IterationSample, TraceRecorder, summarize
from reference import (  # tests/core/reference.py (pytest adds this dir to sys.path)
    ConcatKVCache,
    SliceLoopLinear,
    float32_attention_bound,
    float32_gemm_bound,
    quantize_sequential_full,
    reference_model,
    repeat_gqa_attention,
    slice_loop_forward,
    slice_loop_operand,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


def _sliced_linear(rng, slices, *, a_bits=4, fmt="int", out_features=24,
                   perm=True):
    k = slices[-1].stop
    w = rng.normal(size=(out_features, k))
    p = rng.permutation(k) if perm else None
    w_r = w if p is None else w[:, p]
    sliced = rtn_weight_quantize(w_r, slices, clip=1.0, fmt=fmt)
    return AtomLinear(sliced, perm=p, a_bits=a_bits, act_clip=1.0, fmt=fmt)


def _atom_linear(rng, k, *, n_outlier=4, group_size=16, a_bits=4, fmt="int",
                 outlier_bits=8, outlier_fmt=None, out_features=24, perm=True):
    slices = make_group_slices(
        k,
        n_outlier=n_outlier,
        group_size=group_size,
        body_bits=4,
        outlier_bits=outlier_bits,
        outlier_fmt=outlier_fmt,
    )
    return _sliced_linear(rng, slices, a_bits=a_bits, fmt=fmt,
                          out_features=out_features, perm=perm)


def _assert_paths_agree(lin, x):
    """Check the float32 linear against the slice loop on the input it sees:
    bit-equal activation codes, output within the derived float32 bound."""
    xr = lin._prepare(x)
    assert xr.dtype == np.float32
    ref_qx = slice_loop_operand(lin, xr)
    qx = lin._quantize(xr)  # bucket order: column j is weight column _cols[j]
    np.testing.assert_array_equal(
        qx, ref_qx if lin._cols is None else ref_qx[:, lin._cols]
    )
    ref = slice_loop_forward(lin, xr)
    bound = float32_gemm_bound(ref_qx, lin.weight.dequantize().T)
    rows = lin.forward_rowwise(x)
    for y in (lin(x), rows):
        assert y.dtype == np.float32
        assert np.all(np.abs(y - ref) <= bound)
    # Batch-size invariance: row i of the batched call is bit-equal to the
    # single-row call (where a flat multi-row GEMM would already differ).
    for i in range(len(x)):
        np.testing.assert_array_equal(rows[i], lin(x[i : i + 1])[0])


class TestAtomLinearEquivalence:
    @pytest.mark.parametrize("fmt", ["int", "mx", "fp"])
    def test_formats(self, rng, fmt):
        lin = _atom_linear(rng, 64, fmt=fmt)
        _assert_paths_agree(lin, rng.normal(size=(7, 64)))

    @pytest.mark.parametrize("n_outlier", [0, 1, 12])
    def test_outlier_tail_sizes(self, rng, n_outlier):
        lin = _atom_linear(rng, 48, n_outlier=n_outlier)
        _assert_paths_agree(lin, rng.normal(size=(5, 48)))

    def test_ragged_final_group(self, rng):
        # 52 - 1 outlier = 51 body channels over width-16 groups: 16/16/16/3.
        lin = _atom_linear(rng, 52, n_outlier=1)
        assert any(s.width == 3 for s in lin.weight.slices)
        _assert_paths_agree(lin, rng.normal(size=(6, 52)))

    def test_no_grouping(self, rng):
        lin = _atom_linear(rng, 64, group_size=None)
        _assert_paths_agree(lin, rng.normal(size=(4, 64)))

    @pytest.mark.parametrize("a_bits", [4, 8])
    def test_activation_bits(self, rng, a_bits):
        lin = _atom_linear(rng, 64, a_bits=a_bits)
        _assert_paths_agree(lin, rng.normal(size=(5, 64)))

    def test_fp16_outlier_tail(self, rng):
        lin = _atom_linear(rng, 48, outlier_bits=None)
        assert any(s.bits is None for s in lin.weight.slices)
        _assert_paths_agree(lin, rng.normal(size=(5, 48)))

    def test_fp8_outlier_tail_over_int_body(self, rng):
        lin = _atom_linear(rng, 48, outlier_fmt="fp")
        _assert_paths_agree(lin, rng.normal(size=(5, 48)))

    def test_single_token(self, rng):
        lin = _atom_linear(rng, 64)
        _assert_paths_agree(lin, rng.normal(size=(1, 64)))

    def test_large_magnitudes(self, rng):
        lin = _atom_linear(rng, 64)
        _assert_paths_agree(lin, 1e4 * rng.normal(size=(5, 64)))

    def test_flat_weight_block_layout(self, rng):
        """One (in_features, out) float32 block holding every slice's
        scale-folded weight (folded in float64, rounded once), and one
        bucket per activation signature."""
        atom = _atom_linear(rng, 68, n_outlier=4)  # 4 x 16 body groups
        atom_eq = _atom_linear(rng, 80, n_outlier=16)  # tail as wide as a group
        mixed = _sliced_linear(rng, tier_slices(64, DEFAULT_TIERS, 8))
        fp16_tail = tier_slices(64, DEFAULT_TIERS, 8) + [GroupSlice(64, 68, None)]
        mixed_fp16 = _sliced_linear(rng, fp16_tail)
        # Equal-width int groups share one bucket whatever their activation
        # bits (A4 body + A8 tail, INT3/INT4/INT8 tiers); a narrower A8 tail
        # keeps its own, and FP16 passthrough slices add one unquantized
        # bucket.
        for lin, n_buckets in (
            (atom, 2), (atom_eq, 1), (mixed, 1), (mixed_fp16, 2)
        ):
            assert lin._w.shape == (lin.in_features, lin.out_features)
            assert lin._w.dtype == np.float32
            assert len(lin._buckets) == n_buckets
            assert lin._cols is None  # every bucket is one ascending run
            np.testing.assert_array_equal(
                lin._w, lin.weight.dequantize().T.astype(np.float32)
            )
        assert mixed_fp16._buckets[-1][3] is None

    def test_mixedbit_tiers_ragged_noncontiguous(self, rng):
        """Ragged groups in every tier; the width-8 bucket spans all three
        tiers around ragged groups, so its columns are not contiguous and
        the kernel gathers them."""
        lin = _sliced_linear(rng, tier_slices(100, DEFAULT_TIERS, 8))
        assert {s.width for s in lin.weight.slices} == {8, 6, 2, 4}
        assert len(lin._buckets) == 4
        assert lin._cols is not None
        np.testing.assert_array_equal(
            lin._w, lin.weight.dequantize().T[lin._cols].astype(np.float32)
        )
        _assert_paths_agree(lin, rng.normal(size=(6, 100)))

    @seed(20240613)
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.lists(
            st.tuples(
                st.integers(1, 12),  # width
                st.one_of(st.none(), st.integers(2, 8)),  # bits; None = FP16
                st.booleans(),  # is_outlier
                st.sampled_from([None, "int", "mx", "fp"]),  # fmt override
            ),
            min_size=1,
            max_size=8,
        ),
        base_fmt=st.sampled_from(["int", "mx", "fp"]),
        a_bits=st.integers(2, 8),
        tokens=st.integers(1, 5),
        data_seed=st.integers(0, 2**16),
    )
    def test_random_slice_layouts(self, layout, base_fmt, a_bits, tokens,
                                  data_seed):
        slices, start = [], 0
        for width, bits, is_outlier, fmt in layout:
            slices.append(GroupSlice(start, start + width, bits,
                                     is_outlier=is_outlier, fmt=fmt))
            start += width
        rng = np.random.default_rng(data_seed)
        lin = _sliced_linear(rng, slices, a_bits=a_bits, fmt=base_fmt)
        assert lin._w.shape == (lin.in_features, lin.out_features)
        _assert_paths_agree(lin, rng.normal(size=(tokens, start)))


class TestAtomLinearTelemetry:
    def test_emits_iteration_samples(self, rng):
        lin = _atom_linear(rng, 64)
        rec = TraceRecorder()
        lin.telemetry = rec
        lin(rng.normal(size=(3, 64)))
        lin(rng.normal(size=(3, 64)))
        samples = rec.samples()
        assert len(samples) == 2
        for s in samples:
            assert isinstance(s, IterationSample)
            assert s.t_quant >= 0 and s.t_dense >= 0
            assert s.t_iter >= s.t_quant + s.t_dense - 1e-9

    def test_summarize_attributes_phases(self, rng):
        lin = _atom_linear(rng, 64)
        rec = TraceRecorder()
        lin.telemetry = rec
        for _ in range(4):
            lin(rng.normal(size=(2, 64)))
        s = summarize(rec.events)
        assert s.time_breakdown["quant"] > 0
        assert s.time_breakdown["dense"] > 0

    def test_no_sink_no_events(self, rng):
        lin = _atom_linear(rng, 64)
        assert lin.telemetry is None
        lin(rng.normal(size=(2, 64)))  # must not raise


class TestKVCache:
    def test_append_returns_live_views(self, rng):
        c = KVCache(2, 3, 4, capacity=8)
        k1 = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
        v1 = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
        k, v = c.append(k1, v1)
        # The live prefix, then zero padding to the key bucket of position 4.
        assert k.shape == (2, 3, key_bucket(4), 4) and c.length == 5
        np.testing.assert_array_equal(k[:, :, :5], k1)
        np.testing.assert_array_equal(v[:, :, :5], v1)
        assert not k[:, :, 5:].any() and not v[:, :, 5:].any()
        assert k.base is c.k  # zero-copy view of the buffer

    def test_geometric_growth_preserves_prefix(self, rng):
        c = KVCache(1, 2, 4, capacity=2)
        chunks = [rng.normal(size=(1, 2, 3, 4)).astype(np.float32) for _ in range(4)]
        for ch in chunks:
            k, v = c.append(ch, ch)
        assert c.length == 12 and c.capacity >= 12
        np.testing.assert_array_equal(k[:, :, :12], np.concatenate(chunks, axis=2))
        assert not k[:, :, 12:].any()

    def test_growth_is_geometric(self):
        c = KVCache(1, 1, 2, capacity=4)
        one = np.zeros((1, 1, 1, 2), dtype=np.float32)
        caps = set()
        for _ in range(40):
            c.append(one, one)
            caps.add(c.capacity)
        # 40 single-token appends: the buffer spans the key bucket of the
        # last position, so it grows 16 -> 32 -> 64 only.
        assert caps == {16, 32, 64}

    def test_max_capacity_clamps_and_raises(self):
        c = KVCache(1, 1, 2, capacity=2, max_capacity=4)
        step = np.zeros((1, 1, 2, 2), dtype=np.float32)
        c.append(step, step)
        c.append(step, step)
        assert c.length == 4
        with pytest.raises(ValueError, match="max_capacity"):
            c.append(step, step)

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            KVCache(1, 1, 2, capacity=0)


def _rand_model(cfg: ModelConfig, seed: int = 0) -> LlamaModel:
    rng = np.random.default_rng(seed)
    d, f, v = cfg.dim, cfg.ffn_dim, cfg.vocab_size

    def mat(out, inp):
        return (rng.normal(size=(out, inp)) / np.sqrt(inp)).astype(np.float32)

    w = {
        "embed": mat(v, d),
        "lm_head": mat(v, d),
        "final_norm": np.ones(d, dtype=np.float32),
    }
    for i in range(cfg.n_layers):
        pre = f"layers.{i}"
        w[f"{pre}.attn_norm"] = np.ones(d, dtype=np.float32)
        w[f"{pre}.mlp_norm"] = np.ones(d, dtype=np.float32)
        w[f"{pre}.wq"] = mat(d, d)
        w[f"{pre}.wk"] = mat(cfg.kv_dim, d)
        w[f"{pre}.wv"] = mat(cfg.kv_dim, d)
        w[f"{pre}.wo"] = mat(d, d)
        if cfg.is_moe:
            w[f"{pre}.router"] = mat(cfg.n_experts, d)
            for e in range(cfg.n_experts):
                ep = f"{pre}.experts.{e}"
                w[f"{ep}.w_gate"] = mat(f, d)
                w[f"{ep}.w_up"] = mat(f, d)
                w[f"{ep}.w_down"] = mat(d, f)
        else:
            w[f"{pre}.w_gate"] = mat(f, d)
            w[f"{pre}.w_up"] = mat(f, d)
            w[f"{pre}.w_down"] = mat(d, f)
    return LlamaModel(cfg, w)


DENSE = ModelConfig("fp-dense", dim=32, n_layers=2, n_heads=4, n_kv_heads=4,
                    ffn_dim=96)
GQA = ModelConfig("fp-gqa", dim=32, n_layers=2, n_heads=4, n_kv_heads=2,
                  ffn_dim=96)
MOE = ModelConfig("fp-moe", dim=32, n_layers=2, n_heads=4, n_kv_heads=4,
                  ffn_dim=64, n_experts=4, top_k=2)


class TestReferenceAttention:
    @pytest.mark.parametrize("cfg", [DENSE, GQA], ids=lambda c: c.name)
    @pytest.mark.parametrize(
        "t, pos_offset",
        [(1, 0), (1, 9), (6, 0), (4, 5), (1, 20), (8, 32), (16, 16)],
    )
    def test_matches_attention_rows(self, cfg, t, pos_offset, rng):
        model = _rand_model(cfg)
        hd = cfg.head_dim
        q = rng.normal(size=(2, cfg.n_heads, t, hd)).astype(np.float32)
        k = rng.normal(size=(2, cfg.n_kv_heads, pos_offset + t, hd)).astype(
            np.float32
        )
        v = rng.normal(size=k.shape).astype(np.float32)
        # Query rows over keys zero-padded to the rows' key bucket (one
        # bucket per case: 16, 32 or 64).
        pad = ((0, 0), (0, 0), (0, key_bucket(pos_offset + t - 1) - k.shape[2]),
               (0, 0))
        got = model._attention_rows(
            q.transpose(0, 2, 1, 3), np.pad(k, pad), np.pad(v, pad),
            np.arange(pos_offset, pos_offset + t),
        ).reshape(-1, cfg.dim)
        exact = repeat_gqa_attention(
            q.astype(np.float64), k.astype(np.float64), v.astype(np.float64),
            pos_offset=pos_offset,
        )
        bound = float32_attention_bound(
            q, k, v, pos_offset=pos_offset, lp=key_bucket(pos_offset + t - 1)
        )
        assert np.all(np.abs(got - exact) <= bound)


def _check_forward_matches_legacy(cfg, t, rng) -> None:
    model = _rand_model(cfg)
    ref = reference_model(model)
    tokens = rng.integers(0, cfg.vocab_size, size=(2, t))
    np.testing.assert_allclose(
        model.forward(tokens), ref.forward(tokens), rtol=1e-5, atol=1e-6
    )
    # A cacheless pass runs one attention call per key bucket per layer.
    n_buckets = len({key_bucket(p) for p in range(t)})
    assert ref.attention_calls == cfg.n_layers * n_buckets


class TestModelEquivalence:
    @pytest.mark.parametrize("cfg", [DENSE, GQA, MOE], ids=lambda c: c.name)
    def test_forward_matches_legacy(self, cfg, rng):
        _check_forward_matches_legacy(cfg, 12, rng)

    @pytest.mark.parametrize("cfg", [DENSE, GQA, MOE], ids=lambda c: c.name)
    def test_forward_over_key_buckets_matches_legacy(self, cfg, rng):
        # T = 40 spans the key buckets 16, 32 and 64.
        _check_forward_matches_legacy(cfg, 40, rng)

    @pytest.mark.parametrize("rowwise", [False, True])
    def test_cacheless_forward_starts_at_zero(self, rowwise, rng):
        model = _rand_model(GQA)
        tokens = rng.integers(0, GQA.vocab_size, size=(1, 4))
        with pytest.raises(ValueError, match="without a cache starts at 0"):
            model.forward(tokens, pos_offset=3, rowwise=rowwise)

    @pytest.mark.parametrize("cfg", [DENSE, GQA], ids=lambda c: c.name)
    def test_incremental_decode_matches_legacy(self, cfg, rng):
        model = _rand_model(cfg)
        ref = reference_model(model)
        prompt = rng.integers(0, cfg.vocab_size, size=(1, 6))
        fast_cache: dict = {}
        ref_cache: dict = {}
        y_fast = model.forward(prompt, cache=fast_cache)
        y_ref = ref.forward(prompt, cache=ref_cache)
        np.testing.assert_allclose(y_fast, y_ref, rtol=1e-5, atol=1e-6)
        for step in range(5):
            tok = rng.integers(0, cfg.vocab_size, size=(1, 1))
            y_fast = model.forward(tok, pos_offset=6 + step, cache=fast_cache)
            y_ref = ref.forward(tok, pos_offset=6 + step, cache=ref_cache)
            np.testing.assert_allclose(y_fast, y_ref, rtol=1e-5, atol=1e-6)
        # The engine used preallocated caches, the reference concatenating
        # ones and its own attention.
        assert all(isinstance(v, KVCache) for v in fast_cache.values())
        assert all(isinstance(v, ConcatKVCache) for v in ref_cache.values())
        assert len(ref_cache) == cfg.n_layers
        assert ref.attention_calls == 6 * cfg.n_layers

    @pytest.mark.parametrize("cfg", [GQA, MOE], ids=lambda c: c.name)
    def test_generate_matches_legacy(self, cfg, rng):
        model = _rand_model(cfg)
        ref = reference_model(model)
        prompt = rng.integers(0, cfg.vocab_size, size=(1, 4))
        out_fast = model.generate(prompt, 8)
        out_ref = ref.generate(prompt, 8)
        np.testing.assert_array_equal(out_fast, out_ref)
        # One prompt pass and 8 decode steps per layer.
        assert ref.attention_calls == 9 * cfg.n_layers

    def test_quantized_model_decode_matches_legacy(self, rng):
        # Token-id equality would be too strict here: the flat float32 GEMM
        # reassociates the slice loop's sums, which can flip a greedy argmax
        # on a near-tie.  Logits must still agree to float32 resolution.
        model = _rand_model(GQA)
        calib = rng.integers(0, GQA.vocab_size, size=(2, 16))
        quant = AtomQuantizer(AtomConfig.paper_default()).quantize(
            model, calib_tokens=calib
        )
        ref = reference_model(quant)
        assert all(isinstance(lin, SliceLoopLinear) for lin in ref.linears.values())
        prompt = rng.integers(0, GQA.vocab_size, size=(1, 5))
        steps = [rng.integers(0, GQA.vocab_size, size=(1, 1)) for _ in range(5)]

        def run(m: LlamaModel) -> list[np.ndarray]:
            cache: dict = {}
            outs = [m.forward(prompt, cache=cache)]
            for i, tok in enumerate(steps):
                outs.append(m.forward(tok, pos_offset=5 + i, cache=cache))
            return outs

        for y_fast, y_ref in zip(run(quant), run(ref)):
            np.testing.assert_allclose(y_fast, y_ref, rtol=1e-4, atol=1e-5)
        assert all(lin.calls == 6 for lin in ref.linears.values())
        assert ref.attention_calls == 6 * GQA.n_layers


class TestRouterTopK:
    def _reference_threshold(self, logits, k):
        # The pre-optimization implementation: full sort per token.
        return np.sort(logits, axis=-1)[:, -k][:, None]

    def test_matches_sort_reference(self, rng):
        logits = rng.normal(size=(64, 8))
        for k in (1, 2, 3, 8):
            got = LlamaModel._topk_threshold(logits, k)
            np.testing.assert_array_equal(got, self._reference_threshold(logits, k))

    def test_ties_select_same_experts(self, rng):
        # Duplicate the kth value so ties straddle the threshold.
        logits = np.repeat(rng.normal(size=(16, 4)), 2, axis=1)
        for k in (1, 2, 3):
            kth = LlamaModel._topk_threshold(logits, k)
            ref = self._reference_threshold(logits, k)
            np.testing.assert_array_equal(logits >= kth, logits >= ref)

    def test_k_covers_all_experts(self, rng):
        logits = rng.normal(size=(8, 4))
        kth = LlamaModel._topk_threshold(logits, 4)
        assert np.all(logits >= kth)

    def test_moe_forward_unchanged_by_argpartition(self, rng):
        # End to end: the selected expert mix must equal the sort-based one,
        # which test_forward_matches_legacy already pins against the
        # reference model; here we pin the threshold values themselves.
        model = _rand_model(MOE)
        x = rng.normal(size=(10, MOE.dim)).astype(np.float32)
        h = x @ model.weights["layers.0.router"].T
        kth = LlamaModel._topk_threshold(h, MOE.top_k)
        assert ((h >= kth).sum(axis=-1) >= MOE.top_k).all()


class TestSequentialResume:
    def test_resume_codes_bit_identical(self, rng):
        model = _rand_model(GQA, seed=3)
        calib = rng.integers(0, GQA.vocab_size, size=(2, 16))
        cfg = AtomConfig.paper_default().with_(sequential=True)
        q_fast = AtomQuantizer(cfg).quantize(model, calib_tokens=calib)
        q_ref = quantize_sequential_full(AtomQuantizer(cfg), model, calib)
        for name in model.linear_names():
            a, b = q_fast.parts[name], q_ref.parts[name]
            assert len(a.weight.codes) == len(b.weight.codes)
            for ca, cb in zip(a.weight.codes, b.weight.codes):
                np.testing.assert_array_equal(ca, cb)
            for sa, sb in zip(a.weight.scales, b.weight.scales):
                if sa is None or sb is None:
                    assert sa is None and sb is None
                else:
                    np.testing.assert_array_equal(sa, sb)
            if a.perm is None:
                assert b.perm is None
            else:
                np.testing.assert_array_equal(a.perm, b.perm)

    def test_resume_outputs_identical(self, rng):
        model = _rand_model(DENSE, seed=5)
        calib = rng.integers(0, DENSE.vocab_size, size=(2, 12))
        cfg = AtomConfig.paper_default().with_(sequential=True)
        q_fast = AtomQuantizer(cfg).quantize(model, calib_tokens=calib)
        q_ref = quantize_sequential_full(AtomQuantizer(cfg), model, calib)
        tokens = rng.integers(0, DENSE.vocab_size, size=(1, 10))
        np.testing.assert_array_equal(
            q_fast.forward(tokens), q_ref.forward(tokens)
        )
