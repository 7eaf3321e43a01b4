"""One executor per input site: fused parts == their separate calls.

``LlamaModel`` runs every linear that reads one activation (``wq``/``wk``/
``wv``; ``w_gate``/``w_up``) as ONE executor whose output is the column
concatenation of the parts' outputs.  This suite pins that contract for
every :class:`~repro.models.llama.LinearImpl` class (for the float32
quantized linears: bit-equal activation codes, and outputs within the
float32 GEMM bound of ``tests/core/reference.py``; byte-equal on the
serving-bench models), the typed error for parts that read their input
differently, re-fusion on replacement, and checkpoint round-trips through
the fused model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.qllm_lite import DisassembledLinear, disassembly_plan
from repro.baselines.weight_only import DequantizedLinear
from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import SERVING_BENCH_CONFIG
from repro.core import AtomConfig, AtomQuantizer
from repro.core.gptq import rtn_weight_quantize
from repro.core.groups import make_group_slices
from repro.core.linear import AtomLinear
from repro.models.config import ModelConfig
from repro.models.llama import FloatLinear, SiteFusionError, fuse_site
from repro.serving import SCHEMES
from core.reference import (  # tests/core/reference.py (pytest puts tests/ on sys.path)
    float32_gemm_bound,
    slice_loop_forward,
    slice_loop_operand,
)

K = 48
OUTS = (24, 8, 8)  # q/k/v-like: parts of unequal width
TINY = ModelConfig(
    "fusion-test", dim=32, n_layers=2, n_heads=4, n_kv_heads=2, ffn_dim=64,
    max_seq_len=64, group_size=8,
)


def _atom_parts(rng, *, perm=None, act_clip=0.9):
    perm = rng.permutation(K) if perm is None else perm
    slices = make_group_slices(
        K, n_outlier=8, group_size=8, body_bits=4, outlier_bits=8
    )
    return [
        AtomLinear(
            rtn_weight_quantize(rng.normal(size=(out, K))[:, perm], slices),
            perm=perm, a_bits=4, act_clip=act_clip,
        )
        for out in OUTS
    ]


def _unpermuted_atom_linear(rng, out, k):
    """No reorder, no outlier tail: uniform INT4 groups."""
    slices = make_group_slices(
        k, n_outlier=0, group_size=8, body_bits=4, outlier_bits=None
    )
    return AtomLinear(
        rtn_weight_quantize(rng.normal(size=(out, k)), slices),
        perm=None, a_bits=4, act_clip=1.0,
    )


def _disassembled_parts(rng):
    col_map, inv_mult = disassembly_plan(
        rng.normal(size=(64, K)) * np.r_[np.ones(K - 2), 40.0, 60.0]
    )
    slices = make_group_slices(
        len(col_map), n_outlier=0, group_size=None, body_bits=4,
        outlier_bits=None,
    )
    return [
        DisassembledLinear(
            rtn_weight_quantize(rng.normal(size=(out, K))[:, col_map], slices),
            col_map=col_map, inv_mult=inv_mult, orig_in=K, a_bits=4,
        )
        for out in OUTS
    ]


PART_BUILDERS = {
    "FloatLinear": lambda rng: [
        FloatLinear(rng.normal(size=(out, K)).astype(np.float32)) for out in OUTS
    ],
    "DequantizedLinear": lambda rng: [
        DequantizedLinear(rng.normal(size=(out, K)), w_bits=4) for out in OUTS
    ],
    "AtomLinear": _atom_parts,
    "UnpermutedAtomLinear": lambda rng: [
        _unpermuted_atom_linear(rng, out, K) for out in OUTS
    ],
    "DisassembledLinear": _disassembled_parts,
}


def _site_of(parts):
    return fuse_site("layers.0.attn_in", dict(zip(("wq", "wk", "wv"), parts)))


class TestFusedEqualsParts:
    @pytest.mark.parametrize("kind", sorted(PART_BUILDERS))
    @pytest.mark.parametrize("rows", [1, 5])
    def test_call_and_rowwise_concatenate_parts(self, kind, rows):
        rng = np.random.default_rng(7)
        parts = PART_BUILDERS[kind](rng)
        fused = _site_of(parts)
        assert type(fused) is type(parts[0])
        assert fused.out_features == sum(OUTS)
        assert fused.in_features == K
        x = rng.normal(size=(rows, K)).astype(np.float32)
        quantized = isinstance(fused, AtomLinear)
        if quantized:
            # One activation quantization serves every part: the fused
            # codes are each part's, bit for bit.
            xr = fused._prepare(x)
            qx = fused._quantize(xr)
            for p in parts:
                np.testing.assert_array_equal(p._quantize(p._prepare(x)), qx)
            # Float32 GEMMs of different widths may round differently, so
            # the fused output and the parts' both sit within the derived
            # bound of the fused slice loop.
            ref = slice_loop_forward(fused, xr)
            bound = float32_gemm_bound(
                slice_loop_operand(fused, xr), fused.weight.dequantize().T
            )
        for method in ("__call__", "forward_rowwise"):
            want = np.concatenate([getattr(p, method)(x) for p in parts], axis=1)
            got = getattr(fused, method)(x)
            if quantized:
                for y in (got, want):
                    assert np.all(np.abs(y - ref) <= bound)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_single_part_is_its_own_executor(self):
        part = FloatLinear(np.ones((4, 4), dtype=np.float32))
        assert fuse_site("layers.0.attn_out", {"wo": part}) is part

    @pytest.mark.parametrize("scheme", ["Atom-W4A4", "MixedBit"])
    def test_serving_bench_executors_byte_equal(self, scheme):
        base = build_bench_model(SERVING_BENCH_CONFIG, seed=0)
        calib = np.random.default_rng(1).integers(
            0, SERVING_BENCH_CONFIG.vocab_size, size=(4, 32)
        )
        model = SCHEMES[scheme].quantize(base, calib_tokens=calib)
        rng = np.random.default_rng(2)
        for site, lin in model.linears.items():
            parts = [model.parts[n] for n in model._members[site]]
            for rows in (1, 6):
                x = rng.normal(size=(rows, lin.in_features)).astype(np.float32)
                np.testing.assert_array_equal(
                    lin(x), np.concatenate([p(x) for p in parts], axis=1)
                )
                np.testing.assert_array_equal(
                    lin.forward_rowwise(x),
                    np.concatenate([p.forward_rowwise(x) for p in parts], axis=1),
                )


class TestMismatchRaises:
    def test_different_perm(self):
        rng = np.random.default_rng(3)
        parts = _atom_parts(rng)
        parts[1] = _atom_parts(rng)[1]  # another random permutation
        with pytest.raises(SiteFusionError, match="layers.0.attn_in.*wk"):
            _site_of(parts)

    def test_different_act_clip(self):
        rng = np.random.default_rng(4)
        perm = rng.permutation(K)
        parts = _atom_parts(rng, perm=perm)
        parts[2] = _atom_parts(rng, perm=perm, act_clip=1.0)[2]
        with pytest.raises(SiteFusionError, match="layers.0.attn_in.*wv"):
            _site_of(parts)

    def test_different_class_leaves_model_unchanged(self):
        model = build_bench_model(TINY, seed=0)
        quant = _unpermuted_atom_linear(np.random.default_rng(5), TINY.dim, TINY.dim)
        before = dict(model.parts), dict(model.linears)
        with pytest.raises(SiteFusionError, match="layers.1.attn_in"):
            model.replace_linears({"layers.1.wq": quant})
        assert (model.parts, model.linears) == before
        assert isinstance(SiteFusionError("x"), ValueError)


class TestReplacement:
    def test_replacing_one_member_rebuilds_its_site(self):
        model = build_bench_model(TINY, seed=0)
        tokens = np.random.default_rng(6).integers(0, TINY.vocab_size, size=(2, 9))
        zeros = np.zeros_like(model.weights["layers.0.wk"])
        old = model.linears["layers.0.attn_in"]
        model.replace_linears({"layers.0.wk": FloatLinear(zeros)})
        assert model.linears["layers.0.attn_in"] is not old
        expect = type(model)(TINY, {**model.weights, "layers.0.wk": zeros})
        np.testing.assert_array_equal(model.forward(tokens), expect.forward(tokens))
        assert not np.array_equal(
            model.forward(tokens), build_bench_model(TINY, seed=0).forward(tokens)
        )


class TestCheckpointRoundTrip:
    def test_reinstalled_checkpoint_gives_byte_equal_logits(self, tmp_path):
        model = build_bench_model(TINY, seed=1)
        calib = np.random.default_rng(7).integers(0, TINY.vocab_size, size=(4, 16))
        tokens = np.random.default_rng(8).integers(0, TINY.vocab_size, size=(2, 12))
        cfg = AtomConfig.paper_default()
        first = AtomQuantizer(cfg).quantize(
            model, calib_tokens=calib, checkpoint_dir=tmp_path
        )
        # Every layer is on disk now: the second run installs them all.
        resumed = AtomQuantizer(cfg).quantize(
            model, calib_tokens=calib, checkpoint_dir=tmp_path
        )
        np.testing.assert_array_equal(
            first.forward(tokens), resumed.forward(tokens)
        )
        np.testing.assert_array_equal(
            first.forward(tokens, rowwise=True),
            resumed.forward(tokens, rowwise=True),
        )
