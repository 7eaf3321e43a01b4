"""Properties of the unified scheme registry.

Every registered scheme is a full-stack descriptor: roofline cost params,
an executable quantization recipe, and a KV codec.  This suite pins the
invariants that make the registry safe to extend:

- **validation** — malformed descriptors (unknown recipe, kv_bits/recipe
  disagreement, bad bit splits) are rejected at construction;
- **roofline** — quantizing never makes the modeled GEMM or attention
  slower than the same pipeline at FP16 precisions, and the derived
  byte/dtype properties agree with the declared bits;
- **executability** — every numeric-executable scheme builds a model that
  serves end-to-end on the numeric backend bit-identical to ``generate``,
  with the KV codec it declared.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.outliers import sample_calibration_tokens
from repro.data.sharegpt import Request
from repro.serving import NumericBackend
from repro.serving.hardware import RTX_4090
from repro.serving.kernels import attention_decode_time, dense_layer_time
from repro.serving.models import LLAMA_7B
from repro.serving.schemes import (
    ATOM_W4A4,
    MIXED_BIT,
    SCHEMES,
    QuantScheme,
    numeric_scheme_names,
    register_scheme,
)

ALL_NAMES = sorted(SCHEMES)
NUMERIC_NAMES = sorted(numeric_scheme_names())


class TestRegistryValidation:
    def test_all_builtin_schemes_numeric_executable(self):
        assert NUMERIC_NAMES == ALL_NAMES

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            QuantScheme("bad", w_bits=4, a_bits=4, kv_bits=4, recipe="nope")

    def test_kv_bits_must_agree_with_recipe(self):
        with pytest.raises(ValueError, match="kv_bits"):
            QuantScheme(
                "bad", w_bits=4, a_bits=4, kv_bits=8, recipe="atom-w4a4"
            )

    def test_bit_split_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            QuantScheme(
                "bad", w_bits=3, a_bits=4, kv_bits=4,
                bit_split=((3, 0.5), (8, 0.25)),
            )

    def test_bit_split_rejects_invalid_bits(self):
        with pytest.raises(ValueError, match="bit_split bits"):
            QuantScheme(
                "bad", w_bits=3, a_bits=4, kv_bits=4,
                bit_split=((3, 0.5), (5, 0.5)),
            )

    def test_w_bits_must_be_lowest_bit_split_tier(self):
        with pytest.raises(ValueError, match="lowest"):
            QuantScheme(
                "bad", w_bits=4, a_bits=4, kv_bits=4,
                bit_split=((3, 0.5), (8, 0.5)),
            )

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(SCHEMES["FP16"])

    def test_register_replace_and_temporary_schemes(self):
        extra = QuantScheme("TempScheme", w_bits=8, a_bits=8, kv_bits=8)
        try:
            register_scheme(extra)
            assert SCHEMES["TempScheme"] is extra
            # Roofline-only: listed in the registry, not numerically runnable.
            assert "TempScheme" not in numeric_scheme_names()
            replaced = dataclasses.replace(extra, gemm_efficiency=0.5)
            register_scheme(replaced, replace=True)
            assert SCHEMES["TempScheme"].gemm_efficiency == 0.5
        finally:
            SCHEMES.pop("TempScheme", None)

    def test_roofline_only_scheme_cannot_quantize(self):
        scheme = QuantScheme("roofline", w_bits=4, a_bits=4, kv_bits=4)
        assert not scheme.numeric_executable
        with pytest.raises(ValueError, match="roofline-only"):
            scheme.quantize(object())

    def test_mixedbit_split_matches_quantizer_default_tiers(self):
        from repro.baselines.mixedbit import DEFAULT_TIERS

        assert MIXED_BIT.bit_split == DEFAULT_TIERS
        assert MIXED_BIT.weight_bytes_per_param * 8 == pytest.approx(4.125)


class TestRooflineInvariants:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_declared_bytes_consistent(self, name):
        s = SCHEMES[name]
        if s.bit_split is None:
            assert s.weight_bytes_per_param == s.w_bits / 8.0
        else:
            avg = sum(b * f for b, f in s.bit_split) / 8.0
            assert s.weight_bytes_per_param == pytest.approx(avg)
            # A mixed split always averages above its lowest tier.
            assert s.weight_bytes_per_param > s.w_bits / 8.0
        assert s.kv_bytes_per_element == s.kv_bits / 8.0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_compute_dtype_consistent(self, name):
        s = SCHEMES[name]
        if s.weight_only or max(s.w_bits, s.a_bits) == 16:
            assert s.compute_dtype == "fp16"
        elif max(s.w_bits, s.a_bits) > 4:
            assert s.compute_dtype == "int8"
        else:
            assert s.compute_dtype == "int4"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fewer_bits_never_slower_on_roofline(self, name):
        """Widening a scheme to FP16 operands must not make the modeled
        dense layer or decode attention *faster* — quantization only helps
        (or is neutral) at equal kernel efficiency."""
        s = SCHEMES[name]
        wide = dataclasses.replace(
            s, w_bits=16, a_bits=16, kv_bits=16, recipe=None, bit_split=None
        )
        for batch in (1, 32, 512):
            assert dense_layer_time(batch, LLAMA_7B, s, RTX_4090) <= (
                dense_layer_time(batch, LLAMA_7B, wide, RTX_4090)
            )
        ctx = [1024] * 8
        assert attention_decode_time(ctx, LLAMA_7B, s.kv_bits, RTX_4090) <= (
            attention_decode_time(ctx, LLAMA_7B, 16, RTX_4090)
        )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_kv_codec_matches_declaration(self, name):
        s = SCHEMES[name]
        codec = s.build_kv_codec()
        assert float(codec.bits) == float(s.kv_bits)


@pytest.fixture(scope="module")
def served_models(model7b):
    """Every numeric scheme's executable, built from one shared calib set."""
    calib = sample_calibration_tokens(8, 32, seed=7)
    return {
        name: SCHEMES[name].quantize(model7b, calib_tokens=calib)
        for name in NUMERIC_NAMES
    }


class TestNumericExecutability:
    @pytest.mark.parametrize("name", NUMERIC_NAMES)
    def test_quantize_installs_declared_codec(self, served_models, name):
        served = served_models[name]
        assert float(served.kv_codec.bits) == float(SCHEMES[name].kv_bits)

    @pytest.mark.parametrize("name", NUMERIC_NAMES)
    def test_serves_bit_identical_to_generate(self, served_models, name):
        scheme = SCHEMES[name]
        engine = NumericBackend.engine_for(
            served_models[name], scheme, max_batch=2, seed=0
        )
        reqs = [Request(i, 8, 4) for i in range(3)]
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        backend = engine.backend
        for r in reqs:
            got = backend.generated_tokens(r.request_id)
            want = backend.runner.oracle_generate(
                r.request_id, r.prefill_len, r.decode_len
            )
            assert np.array_equal(got, want), f"{name}: req {r.request_id}"

    def test_engine_for_rejects_mismatched_codec(self, model7b):
        # An FP16 model (identity codec) under the Atom scheme is a
        # mispaired run; the guard catches it at construction.
        with pytest.raises(ValueError, match="KV codec"):
            NumericBackend.engine_for(model7b, ATOM_W4A4, max_batch=2)
