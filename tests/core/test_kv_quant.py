"""KV-cache quantization (§4.4)."""

import numpy as np
import pytest

from repro.core.kv_quant import AtomKVCodec, _kv_codes, quantize_kv_headwise
from repro.quant.dtypes import IntFormat

U32 = 2.0**-24  # unit roundoff of float32


@pytest.fixture()
def rng():
    return np.random.default_rng(61)


class TestQuantizeKVHeadwise:
    def test_roundtrip_error_bounded(self, rng):
        kv = rng.normal(size=(2, 4, 16, 32))
        out = quantize_kv_headwise(kv, 8)
        span = kv.max(axis=-1, keepdims=True) - kv.min(axis=-1, keepdims=True)
        assert np.all(np.abs(out - kv) <= span / 255 + 1e-9)

    def test_per_vector_independence(self, rng):
        """Each (token, head) vector quantizes independently: scaling one
        vector must not change another's reconstruction."""
        kv = rng.normal(size=(1, 1, 4, 8))
        out1 = quantize_kv_headwise(kv, 4)
        kv2 = kv.copy()
        kv2[0, 0, 0] *= 100.0
        out2 = quantize_kv_headwise(kv2, 4)
        np.testing.assert_allclose(out1[0, 0, 1:], out2[0, 0, 1:])

    def test_asymmetric_beats_symmetric_on_one_sided(self, rng):
        kv = np.abs(rng.normal(size=(2, 2, 8, 16))) + 1.0
        asym = quantize_kv_headwise(kv, 4, asymmetric=True)
        sym = quantize_kv_headwise(kv, 4, asymmetric=False)
        assert np.mean((asym - kv) ** 2) < np.mean((sym - kv) ** 2)

    def test_more_bits_less_error(self, rng):
        kv = rng.normal(size=(2, 2, 8, 16))
        errs = [
            np.mean((quantize_kv_headwise(kv, b) - kv) ** 2) for b in (2, 4, 8)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_constant_vector_exact(self):
        kv = np.full((1, 1, 2, 8), 3.14)
        np.testing.assert_allclose(quantize_kv_headwise(kv, 4), kv, atol=1e-6)


def _kv_float64(x: np.ndarray, bits: int, asymmetric: bool):
    """The codec in float64: ``(dequantized, x / scale, -xmin / scale,
    scale)``, the last three the values it rounds and its step."""
    f = IntFormat(bits)
    if asymmetric:
        xmin = x.min(axis=-1, keepdims=True)
        scale = np.maximum((x.max(axis=-1, keepdims=True) - xmin)
                           / (f.n_levels - 1), 1e-12)
        zero = np.round(-xmin / scale)
        q = np.clip(np.round(x / scale) + zero, f.umin, f.umax)
        return (q - zero) * scale, x / scale, -xmin / scale, scale
    amax = np.maximum(np.abs(x).max(axis=-1, keepdims=True), 1e-12)
    scale = 2.0 * amax / (f.n_levels - 1)
    q = np.clip(np.round(x / scale), f.qmin, f.qmax)
    return q * scale, x / scale, np.zeros_like(scale), scale


def _kv_inputs(rng) -> np.ndarray:
    """Float32 (2, 4, 24, 32) KV: centred, offset (zero points far from 0),
    constant, and vectors of exact half-steps of a 1/15 grid (ties)."""
    kv = rng.normal(size=(2, 4, 24, 32))
    kv[:, :, 6:12] += 40.0
    kv[:, :, 12:14] = 3.14
    kv[:, :, 14:] = (rng.integers(0, 15, size=(2, 4, 10, 32)) + 0.5) / 15
    kv[:, :, 14:, 0], kv[:, :, 14:, 1] = 0.0, 1.0
    return kv.astype(np.float32)


class TestFloat32Codec:
    """The float32 codec against its contract and a float64 reference."""

    CODECS = [(b, a) for b in (2, 4, 8) for a in (True, False)]

    @pytest.mark.parametrize("bits, asymmetric", CODECS)
    def test_float32_in_float32_out(self, rng, bits, asymmetric):
        kv = _kv_inputs(rng)
        out = AtomKVCodec(bits, asymmetric=asymmetric).encode_decode(kv, "k")
        assert out.dtype == np.float32 and out.shape == kv.shape
        q, scale, zero = _kv_codes(kv, bits, asymmetric)
        assert q.dtype == scale.dtype == zero.dtype == np.float32

    @pytest.mark.parametrize("bits, asymmetric", CODECS)
    def test_roundtrip_within_half_step(self, rng, bits, asymmetric):
        kv = _kv_inputs(rng)
        out = quantize_kv_headwise(kv, bits, asymmetric=asymmetric)
        _, scale, _ = _kv_codes(kv, bits, asymmetric)
        x = kv.astype(np.float64)
        # Half a code step, plus the float32 roundings of x / scale and of
        # the dequantization (a few ulps of the values involved).
        slack = 4 * U32 * (np.abs(x) + np.abs(out) + scale)
        assert np.all(np.abs(out - x) <= scale / 2 + slack)

    @pytest.mark.parametrize("bits, asymmetric", CODECS)
    def test_codes_in_range(self, rng, bits, asymmetric):
        f = IntFormat(bits)
        q, _, zero = _kv_codes(_kv_inputs(rng), bits, asymmetric)
        np.testing.assert_array_equal(q, np.rint(q))
        lo, hi = (f.umin, f.umax) if asymmetric else (f.qmin, f.qmax)
        assert q.min() >= lo and q.max() <= hi
        if not asymmetric:
            assert not zero.any()

    @pytest.mark.parametrize("bits, asymmetric", CODECS)
    def test_differs_from_float64_only_at_ties(self, rng, bits, asymmetric):
        kv = _kv_inputs(rng)
        out = quantize_kv_headwise(kv, bits, asymmetric=asymmetric)
        ref, v, z, scale = _kv_float64(kv.astype(np.float64), bits, asymmetric)
        steps = (out - ref) / scale
        whole = np.rint(steps)
        # Whole code steps, up to float32 rounding of the dequantization.
        tol = 8 * U32 * (np.abs(v) + np.abs(z) + 2**bits)
        assert np.all(np.abs(steps - whole) <= tol)
        assert np.all(np.abs(whole) <= 1)

        def at_tie(u):  # within float32 rounding of a half-integer
            return np.abs(np.abs(u - np.floor(u)) - 0.5) <= tol

        # A code moves only where x / scale or the zero point -xmin / scale
        # is a tie; elsewhere the float32 codec gives the float64 codes.
        moved = whole != 0
        tie = at_tie(v) | at_tie(z)
        assert np.all(tie[moved])


class TestAtomKVCodec:
    def test_bits_property(self):
        assert AtomKVCodec(4).bits == 4.0

    def test_encode_decode_shape(self, rng):
        codec = AtomKVCodec(4)
        kv = rng.normal(size=(2, 4, 8, 16))
        assert codec.encode_decode(kv, "k").shape == kv.shape

    def test_invalid_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="kind"):
            AtomKVCodec(4).encode_decode(rng.normal(size=(1, 1, 1, 8)), "q")

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            AtomKVCodec(1)
        with pytest.raises(ValueError):
            AtomKVCodec(9)

    def test_codec_in_model_changes_little(self, model7b, rng):
        """INT4 KV on the real model barely moves logits (Table 3's +0.12)."""
        from repro.core.kv_quant import AtomKVCodec

        toks = rng.integers(0, model7b.config.vocab_size, size=(1, 32))
        base = model7b.forward(toks)
        q = model7b.clone()
        q.kv_codec = AtomKVCodec(4)
        quant = q.forward(toks)
        # Logits shift but stay highly correlated.
        corr = np.corrcoef(base.ravel(), quant.ravel())[0, 1]
        assert corr > 0.99

    def test_int2_kv_visibly_degrades(self, model7b, rng):
        toks = rng.integers(0, model7b.config.vocab_size, size=(1, 32))
        base = model7b.forward(toks)
        q2 = model7b.clone()
        q2.kv_codec = AtomKVCodec(2)
        q4 = model7b.clone()
        q4.kv_codec = AtomKVCodec(4)
        err2 = np.linalg.norm(q2.forward(toks) - base)
        err4 = np.linalg.norm(q4.forward(toks) - base)
        assert err2 > err4
