"""Numerical guardrails: health reporting, degenerate scales, adversarial GPTQ.

The adversarial suite feeds rank-deficient, negative-definite, and
non-finite Hessians/weights into :func:`gptq_quantize` and asserts the
no-NaN guarantee: every emitted code and scale is finite, and every recovery
path taken (damping escalation, RTN fallback, input sanitization) is visible
in the :class:`QuantHealthReport`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gptq import DAMP_ESCALATION, gptq_quantize, hessian, rtn_weight_quantize
from repro.core.groups import make_group_slices
from repro.core.kv_quant import AtomKVCodec
from repro.core.linear import AtomLinear
from repro.quant.guards import (
    DEGENERATE_SCALE_EPS,
    FALLBACK_KINDS,
    FATAL_KINDS,
    GuardEvent,
    NumericalError,
    QuantHealthReport,
    check_finite,
    count_degenerate_scales,
    strict_mode_default,
)

N_IN = 16


def slices16():
    return make_group_slices(
        N_IN, n_outlier=0, group_size=8, body_bits=4, outlier_bits=8
    )


def assert_finite(sliced):
    for codes, scale in zip(sliced.codes, sliced.scales):
        assert np.isfinite(codes.astype(np.float64)).all()
        if scale is not None:
            assert np.isfinite(scale).all()


# --------------------------------------------------------------------------- #
# Report mechanics
# --------------------------------------------------------------------------- #
class TestHealthReport:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown guard kind"):
            GuardEvent(kind="mystery", where="x")

    def test_record_and_counts(self):
        rep = QuantHealthReport()
        rep.record("degenerate_scale", "wq", count=3)
        rep.record("degenerate_scale", "wk", count=2)
        rep.record("rtn_fallback", "wv")
        assert rep.counts() == {"degenerate_scale": 5, "rtn_fallback": 1}
        assert len(rep.by_kind("degenerate_scale")) == 2
        assert [e.kind for e in rep.fallbacks] == ["rtn_fallback"]
        assert rep.ok  # no fatal events

    @pytest.mark.parametrize("kind", sorted(FATAL_KINDS))
    def test_strict_raises_on_fatal(self, kind):
        rep = QuantHealthReport(strict=True)
        with pytest.raises(NumericalError):
            rep.record(kind, "wq")
        # The event is still on record (raise happens after append).
        assert not rep.ok

    @pytest.mark.parametrize("kind", sorted(FALLBACK_KINDS))
    def test_strict_tolerates_fallbacks(self, kind):
        rep = QuantHealthReport(strict=True)
        rep.record(kind, "wq")
        assert rep.ok

    def test_summary_mentions_every_kind(self):
        rep = QuantHealthReport()
        assert "clean" in rep.summary()
        rep.record("hessian_damping", "wq", "escalated", value=0.1)
        assert "hessian_damping" in rep.summary()

    def test_strict_default_reads_env(self, monkeypatch):
        monkeypatch.delenv("ATOM_REPRO_STRICT_GUARDS", raising=False)
        assert strict_mode_default() is False
        monkeypatch.setenv("ATOM_REPRO_STRICT_GUARDS", "1")
        assert strict_mode_default() is True
        assert QuantHealthReport(strict=strict_mode_default()).strict


class TestChecks:
    def test_check_finite_clean(self):
        rep = QuantHealthReport()
        assert check_finite(np.ones(4), where="x", health=rep)
        assert rep.events == []

    def test_check_finite_records_count(self):
        rep = QuantHealthReport()
        arr = np.array([1.0, np.nan, np.inf, -np.inf])
        assert not check_finite(arr, where="x", health=rep)
        assert rep.counts() == {"nonfinite_input": 3}

    def test_check_finite_ignores_integer_arrays(self):
        assert check_finite(np.arange(5), where="x", health=QuantHealthReport())

    def test_check_finite_without_report_never_raises(self):
        assert not check_finite(np.array([np.nan]), where="x")

    def test_count_degenerate_scales(self):
        rep = QuantHealthReport()
        scale = np.array([1.0, 0.0, DEGENERATE_SCALE_EPS, np.nan])
        assert count_degenerate_scales(scale, where="s", health=rep) == 3
        assert rep.counts() == {"degenerate_scale": 3}


# --------------------------------------------------------------------------- #
# Degenerate inputs to the executed quantizers
# --------------------------------------------------------------------------- #
def _zero_group_weight(rng):
    """A 4-row weight whose first 8-channel group is all zero."""
    w = rng.normal(size=(4, N_IN))
    w[:, :8] = 0.0
    return w


def _weight_quantizers(rng):
    """``(name, quantize(w, **kw))`` for RTN and GPTQ on ``slices16()``."""
    h = hessian(rng.normal(size=(32, N_IN)))
    return [
        ("rtn", lambda w, **kw: rtn_weight_quantize(w, slices16(), **kw)),
        ("gptq", lambda w, **kw: gptq_quantize(w, h, slices16(), **kw)),
    ]


class TestDegenerateScales:
    def test_all_zero_group_roundtrips_exactly(self, rng):
        w = _zero_group_weight(rng)
        for name, quantize in _weight_quantizers(rng):
            rep = QuantHealthReport()
            sliced = quantize(w, health=rep, where=name)
            assert_finite(sliced)
            np.testing.assert_array_equal(sliced.dequantize()[:, :8], 0.0)
            # One clamped scale per output row of the zero group.
            assert rep.counts() == {"degenerate_scale": 4}, name

    def test_constant_channel_asymmetric_roundtrips(self):
        """The asymmetric KV codec on zero-range head vectors (the scale
        clamp fires): each decodes to exactly its constant."""
        kv = np.full((2, 3, 5, 16), 3.25, dtype=np.float32)
        kv[0, 1] = 0.0
        kv[1, 2] = -7.5e-3
        for bits in (2, 4, 8):
            out = AtomKVCodec(bits).encode_decode(kv, "kv")
            np.testing.assert_array_equal(out, kv)

    def test_mixed_zero_and_live_rows(self, rng):
        """All-zero activations through AtomLinear (the per-token scale
        clamp fires): finite, and exactly zero output rows."""
        slices = make_group_slices(
            N_IN, n_outlier=4, group_size=4, body_bits=4, outlier_bits=8
        )
        lin = AtomLinear(
            rtn_weight_quantize(rng.normal(size=(6, N_IN)), slices),
            perm=None,
            a_bits=4,
            act_clip=0.9,
        )
        x = rng.normal(size=(4, N_IN))
        x[1] = 0.0
        y = lin(x)
        assert np.isfinite(y).all()
        np.testing.assert_array_equal(y[1], 0.0)
        np.testing.assert_array_equal(lin(np.zeros((3, N_IN))), 0.0)

    def test_health_none_is_bit_identical(self, rng):
        w = _zero_group_weight(rng)
        for name, quantize in _weight_quantizers(rng):
            a = quantize(w)
            b = quantize(w, health=QuantHealthReport(), where=name)
            for ca, cb in zip(a.codes, b.codes):
                np.testing.assert_array_equal(ca, cb)
            for sa, sb in zip(a.scales, b.scales):
                np.testing.assert_array_equal(sa, sb)


# --------------------------------------------------------------------------- #
# Adversarial GPTQ
# --------------------------------------------------------------------------- #
class TestAdversarialGPTQ:
    @pytest.fixture()
    def w(self, rng):
        return rng.normal(size=(8, N_IN))

    @pytest.mark.parametrize("act_order", [False, True])
    def test_singular_hessian_escalates_damping(self, w, rng, act_order):
        # Rank-1 Hessian with percdamp=0: the first Cholesky attempt cannot
        # succeed, the escalation ladder must kick in.
        x = np.outer(np.ones(4), rng.normal(size=N_IN))
        rep = QuantHealthReport()
        sliced = gptq_quantize(
            w,
            hessian(x),
            slices16(),
            percdamp=0.0,
            act_order=act_order,
            health=rep,
            where="wq",
        )
        assert_finite(sliced)
        events = rep.by_kind("hessian_damping")
        assert events and events[0].value in DAMP_ESCALATION

    @pytest.mark.parametrize("act_order", [False, True])
    def test_negative_definite_hessian_falls_back_to_rtn(self, w, act_order):
        # Damping a negative-definite Hessian never makes it SPD, so every
        # ladder level fails and the layer must fall back to RTN.
        rep = QuantHealthReport()
        sliced = gptq_quantize(
            w,
            -np.eye(N_IN),
            slices16(),
            act_order=act_order,
            health=rep,
            where="wq",
        )
        assert_finite(sliced)
        assert rep.by_kind("rtn_fallback")
        # ... and RTN on the same weights (gptq's clip) is exactly what came out.
        ref = rtn_weight_quantize(w, slices16(), clip=0.85)
        for a, b in zip(sliced.codes, ref.codes):
            np.testing.assert_array_equal(a, b)

    def test_nonfinite_hessian_recorded_and_survived(self, w):
        h = np.eye(N_IN)
        h[0, 0] = np.inf
        rep = QuantHealthReport()
        sliced = gptq_quantize(w, h, slices16(), health=rep, where="wq")
        assert_finite(sliced)
        assert "nonfinite_input" in rep.counts()

    def test_nan_weight_sanitized_and_recorded(self, w, rng):
        w = w.copy()
        w[0, :3] = np.nan
        x = rng.normal(size=(32, N_IN))
        rep = QuantHealthReport()
        sliced = gptq_quantize(w, hessian(x), slices16(), health=rep, where="wq")
        assert_finite(sliced)
        assert rep.counts()["nonfinite_input"] == 3

    def test_dead_channels_recorded(self, w, rng):
        # Channels that never activate -> zero Hessian row/col.
        x = rng.normal(size=(32, N_IN))
        x[:, :4] = 0.0
        rep = QuantHealthReport()
        sliced = gptq_quantize(w, hessian(x), slices16(), health=rep, where="wq")
        assert_finite(sliced)
        dead = rep.by_kind("dead_channels")
        assert dead and dead[0].count == 4
        # No escalation needed: unit curvature repairs the factorization.
        assert not rep.by_kind("rtn_fallback")

    def test_strict_mode_raises_on_nan_weight(self, w, rng):
        w = w.copy()
        w[0, 0] = np.nan
        rep = QuantHealthReport(strict=True)
        with pytest.raises(NumericalError, match="nonfinite_input"):
            gptq_quantize(
                w,
                hessian(rng.normal(size=(32, N_IN))),
                slices16(),
                health=rep,
                where="wq",
            )

    def test_strict_mode_tolerates_escalation(self, w, rng):
        # Fallbacks are not fatal even in strict mode: CI keeps running on
        # ill-conditioned layers, it only refuses non-finite data.
        x = np.outer(np.ones(4), rng.normal(size=N_IN))
        rep = QuantHealthReport(strict=True)
        sliced = gptq_quantize(
            w, hessian(x), slices16(), percdamp=0.0, health=rep, where="wq"
        )
        assert_finite(sliced)
        assert rep.ok

    def test_healthy_hessian_stays_clean_and_bit_identical(self, w, rng):
        x = rng.normal(size=(64, N_IN))
        rep = QuantHealthReport()
        a = gptq_quantize(w, hessian(x), slices16(), health=rep, where="wq")
        b = gptq_quantize(w, hessian(x), slices16())
        assert rep.events == []
        for ca, cb in zip(a.codes, b.codes):
            np.testing.assert_array_equal(ca, cb)
        for sa, sb in zip(a.scales, b.scales):
            np.testing.assert_array_equal(sa, sb)

    def test_rtn_sanitizes_nonfinite_weight(self):
        w = np.full((4, N_IN), np.inf)
        rep = QuantHealthReport()
        sliced = rtn_weight_quantize(w, slices16(), health=rep, where="wq")
        assert_finite(sliced)
        assert "nonfinite_input" in rep.counts()
