"""Property suite for the fused cross-request batched decode path.

The tentpole claim: stacking B requests' decode tokens into single
per-layer batched GEMMs (:meth:`LlamaModel.forward_batch`) never changes
any request's numerics.  The enabling primitive is
:func:`~repro.models.llama.rowwise_matmul` — an N-D stacked matmul whose
per-row accumulation order matches a single-row 2-D GEMM bit-for-bit —
plus row-invariant batched variants of every other op on the decode path.

Layers under test, bottom-up: ``rowwise_matmul`` itself, the
``forward_rowwise`` linear contract (float + quantized), the paged-KV
batched append/gather, ``forward_batch`` vs per-request ``forward``,
``ModelRunner.decode_batch`` vs ``decode_one`` (including mid-batch
preemption/resume), the zoo model, and the batched-decode telemetry.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import build_serving_bench_model
from repro.data.sharegpt import Request
from repro.models.config import ModelConfig
from repro.models.llama import FloatLinear, key_bucket, rowwise_matmul
from repro.serving import (
    SCHEMES,
    BatchedDecodeSample,
    ModelRunner,
    NumericBackend,
    PagedKVCache,
    PagedKVStore,
    TraceRecorder,
    read_jsonl,
    write_jsonl,
)
from core.reference import decode_one  # tests/core/reference.py (pytest puts tests/ on sys.path)

CONFIG = ModelConfig(
    "numeric-test",
    dim=64,
    n_layers=2,
    n_heads=8,
    n_kv_heads=2,
    ffn_dim=128,
    max_seq_len=256,
)


@pytest.fixture(scope="module")
def fp_model():
    return build_bench_model(CONFIG, seed=0)


@pytest.fixture(scope="module")
def atom_model():
    """Atom-quantized GQA model (AtomLinear layers + 4-bit KV codec)."""
    return build_serving_bench_model(seed=0)


# --------------------------------------------------------------------- #
# The primitive: rowwise_matmul
# --------------------------------------------------------------------- #
class TestRowwiseMatmul:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape", [(1, 16, 8), (5, 64, 32), (16, 96, 40), (33, 7, 3)]
    )
    def test_rows_bit_identical_to_single_row_gemm(self, dtype, shape):
        b, k, n = shape
        rng = np.random.default_rng(hash(shape) % (2**32))
        a = rng.standard_normal((b, k)).astype(dtype)
        w = rng.standard_normal((k, n)).astype(dtype)
        out = rowwise_matmul(a, w)
        assert out.shape == (b, n)
        assert out.dtype == dtype
        for i in range(b):
            np.testing.assert_array_equal(
                out[i],
                (a[i : i + 1] @ w)[0],
                err_msg=f"row {i} of {shape} diverged from its own GEMM",
            )

    def test_batch_composition_is_irrelevant(self):
        """Any sub-batch of rows produces the identical per-row results —
        the property the serving engine relies on when batch membership
        changes every iteration (admission, completion, preemption)."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 48)).astype(np.float32)
        w = rng.standard_normal((48, 24)).astype(np.float32)
        full = rowwise_matmul(a, w)
        for rows in ([0], [3, 7], [11, 0, 5], list(range(12))):
            np.testing.assert_array_equal(rowwise_matmul(a[rows], w), full[rows])


# --------------------------------------------------------------------- #
# The linear contract: forward_rowwise row i == __call__(x[i:i+1])[0]
# --------------------------------------------------------------------- #
class TestForwardRowwise:
    def _check(self, linear, x):
        got = linear.forward_rowwise(x)
        want = np.concatenate([linear(x[i : i + 1]) for i in range(x.shape[0])])
        np.testing.assert_array_equal(got, want)

    def test_float_linear(self):
        rng = np.random.default_rng(0)
        lin = FloatLinear(rng.standard_normal((24, 48)).astype(np.float32))
        self._check(lin, rng.standard_normal((9, 48)).astype(np.float32))

    def test_atom_linear_fast(self, atom_model):
        """Every quantized projection of the serving bench model obeys the
        contract on its fast (fused-dequant) path."""
        rng = np.random.default_rng(1)
        for name, lin in list(atom_model.linears.items())[:4]:
            x = rng.standard_normal((6, lin.in_features)).astype(np.float32)
            self._check(lin, x)


# --------------------------------------------------------------------- #
# Paged KV batched ops == sequential ops
# --------------------------------------------------------------------- #
class TestPagedBatchOps:
    @staticmethod
    def _per_cache(buckets, caches):
        """Per-cache ``(1, kv, Lp, hd)`` pairs out of the key buckets; every
        row of a bucket shares its cache's ``key_bucket(length - 1)``."""
        out = [None] * len(caches)
        for rows, k, v in buckets:
            for i, j in enumerate(rows):
                assert k.shape[2] == key_bucket(caches[j].length - 1)
                assert out[j] is None
                out[j] = (k[i : i + 1], v[i : i + 1])
        assert all(pair is not None for pair in out)
        return out

    def _ragged_caches(self, store, lengths, *, seed=0):
        """Caches pre-filled to ragged lengths via sequential appends."""
        rng = np.random.default_rng(seed)
        caches = []
        for n in lengths:
            c = PagedKVCache(store)
            for _ in range(n):
                k = rng.standard_normal(
                    (1, store.n_kv_heads, 1, store.head_dim)
                ).astype(np.float32)
                c.append(k, -k)
            caches.append(c)
        return caches

    def test_append_batch_matches_sequential_append(self):
        lengths = [0, 1, 3, 4, 7, 15, 16, 17]
        store_a = PagedKVStore(2, 8, page_size=4)
        store_b = PagedKVStore(2, 8, page_size=4)
        batched = self._ragged_caches(store_a, lengths)
        sequential = self._ragged_caches(store_b, lengths)
        rng = np.random.default_rng(9)
        for step in range(6):
            k = rng.standard_normal((len(lengths), 2, 1, 8)).astype(np.float32)
            v = rng.standard_normal((len(lengths), 2, 1, 8)).astype(np.float32)
            got = self._per_cache(PagedKVCache.append_batch(batched, k, v), batched)
            want = [
                c.append(k[j : j + 1], v[j : j + 1])
                for j, c in enumerate(sequential)
            ]
            # Live prefixes match; padding is whatever finite values the
            # pad pages held when each gather ran.
            for j, ((gk, gv), (wk, wv)) in enumerate(zip(got, want)):
                n = batched[j].length
                assert gk.shape == wk.shape
                np.testing.assert_array_equal(
                    gk[:, :, :n], wk[:, :, :n], err_msg=f"K cache {j}"
                )
                np.testing.assert_array_equal(
                    gv[:, :, :n], wv[:, :, :n], err_msg=f"V cache {j}"
                )
        assert [c.length for c in batched] == [c.length for c in sequential]
        assert [len(c.pages) for c in batched] == [
            len(c.pages) for c in sequential
        ]
        assert store_a.used_pages == store_b.used_pages

    def test_append_batch_grows_pool(self):
        """Allocation happens before the fancy-indexed write, so a write
        that triggers pool growth (reallocating the arrays) stays correct."""
        store = PagedKVStore(2, 8, page_size=4, initial_pages=1)
        caches = [PagedKVCache(store) for _ in range(6)]
        rng = np.random.default_rng(3)
        k = rng.standard_normal((6, 2, 1, 8)).astype(np.float32)
        got = self._per_cache(PagedKVCache.append_batch(caches, k, -k), caches)
        for j, (gk, gv) in enumerate(got):
            np.testing.assert_array_equal(gk[0, :, 0], k[j, :, 0])
            np.testing.assert_array_equal(gv, -gk)
        assert store.used_pages == 6

    def test_gather_batch_matches_gather(self):
        store = PagedKVStore(2, 8, page_size=4)
        caches = self._ragged_caches(store, [1, 4, 5, 9, 16], seed=4)
        got = self._per_cache(PagedKVCache.gather_batch(caches), caches)
        for j, c in enumerate(caches):
            wk, wv = c.gather()
            np.testing.assert_array_equal(got[j][0], wk)
            np.testing.assert_array_equal(got[j][1], wv)

    def test_mixed_stores_take_per_cache_fallback(self):
        store_a = PagedKVStore(2, 8, page_size=4)
        store_b = PagedKVStore(2, 8, page_size=4)
        mixed = [PagedKVCache(store_a), PagedKVCache(store_b)]
        rng = np.random.default_rng(8)
        k = rng.standard_normal((2, 2, 1, 8)).astype(np.float32)
        got = self._per_cache(PagedKVCache.append_batch(mixed, k, -k), mixed)
        assert store_a.used_pages == 1 and store_b.used_pages == 1
        for j, (gk, gv) in enumerate(got):
            np.testing.assert_array_equal(gk[0, :, 0], k[j, :, 0])
        pairs = self._per_cache(PagedKVCache.gather_batch(mixed), mixed)
        for j, (gk, gv) in enumerate(pairs):
            np.testing.assert_array_equal(gk[0, :, 0], k[j, :, 0])

    def test_append_batch_rejects_multi_token_rows(self):
        store = PagedKVStore(2, 8, page_size=4)
        caches = [PagedKVCache(store)]
        bad = np.zeros((1, 2, 2, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="one \\(B, kv, 1, hd\\) token"):
            PagedKVCache.append_batch(caches, bad, bad)


# --------------------------------------------------------------------- #
# forward_batch == per-request forward
# --------------------------------------------------------------------- #
class TestForwardBatch:
    @pytest.mark.parametrize("prefills", [[5], [3, 9, 17, 4], [8] * 6])
    def test_logits_bit_identical_to_per_request_forward(
        self, fp_model, prefills
    ):
        """Greedy continuation over dense caches: each step's batched
        logits row == the single-request forward on the same cache."""
        rng = np.random.default_rng(0)
        batch_caches = [{} for _ in prefills]
        solo_caches = [{} for _ in prefills]
        last, positions = [], []
        for j, n in enumerate(prefills):
            prompt = rng.integers(0, CONFIG.vocab_size, size=n)
            for cache in (batch_caches[j], solo_caches[j]):
                logits = fp_model.forward(prompt[None, :], cache=cache)[0, -1]
            last.append(int(np.argmax(logits)))
            positions.append(n)
        for _ in range(4):
            got = fp_model.forward_batch(
                np.asarray(last), np.asarray(positions), batch_caches
            )
            assert got.shape == (len(prefills), CONFIG.vocab_size)
            for j in range(len(prefills)):
                want = fp_model.forward(
                    np.asarray([[last[j]]]),
                    pos_offset=positions[j],
                    cache=solo_caches[j],
                )[0, -1]
                np.testing.assert_array_equal(got[j], want)
                last[j] = int(np.argmax(got[j]))
                positions[j] += 1

    def test_guards(self, fp_model, moe_model):
        with pytest.raises(ValueError, match="batch mismatch"):
            fp_model.forward_batch(np.asarray([1, 2]), np.asarray([0]), [{}, {}])
        with pytest.raises(ValueError, match="batch mismatch"):
            fp_model.forward_batch(np.asarray([], dtype=np.int64), np.asarray([]), [])
        with pytest.raises(ValueError, match="max_seq_len"):
            fp_model.forward_batch(
                np.asarray([1]), np.asarray([CONFIG.max_seq_len]), [{}]
            )
        with pytest.raises(ValueError, match="dense"):
            moe_model.forward_batch(np.asarray([1]), np.asarray([0]), [{}])


# --------------------------------------------------------------------- #
# decode_batch == decode_one (runner level)
# --------------------------------------------------------------------- #
class TestDecodeBatchProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("model_name", ["fp", "atom"])
    def test_ragged_batch_matches_sequential(
        self, fp_model, atom_model, model_name, seed
    ):
        model = fp_model if model_name == "fp" else atom_model
        lengths = [4 + 5 * seed, 9, 17, 6 + seed, 31, 12]

        def run(batched):
            runner = ModelRunner(model, temperature=0.6, seed=seed, page_size=4)
            ids = list(range(len(lengths)))
            for i, n in zip(ids, lengths):
                runner.start(i, n)
                runner.prefill_chunk(i, 0, n)
            for _ in range(7):
                if batched:
                    runner.decode_batch(ids)
                else:
                    for i in ids:
                        decode_one(runner, i)
            return {i: runner.tokens(i).tolist() for i in ids}

        assert run(True) == run(False)

    def test_preempt_and_resume_mid_batch(self, fp_model):
        """Release one request mid-decode, restart it from scratch while
        the rest of the batch keeps going — the victim's replayed tokens
        and every survivor's tokens match the sequential oracle."""
        runner = ModelRunner(fp_model, temperature=0.4, seed=1, page_size=4)
        ids = [0, 1, 2, 3]
        lengths = {0: 6, 1: 11, 2: 8, 3: 15}
        for i in ids:
            runner.start(i, lengths[i])
            runner.prefill_chunk(i, 0, lengths[i])
        for _ in range(3):
            runner.decode_batch(ids)
        # Preempt request 2: drop all its state (pages freed), then
        # recompute from scratch — prefill + replayed decode steps.
        runner.release(2)
        assert 2 not in runner.live_requests()
        for _ in range(2):
            runner.decode_batch([0, 1, 3])
        runner.start(2, lengths[2])
        runner.prefill_chunk(2, 0, lengths[2])
        for _ in range(3):
            runner.decode_batch([2])  # replay what preemption destroyed
        for _ in range(2):
            runner.decode_batch(ids)
        oracle = ModelRunner(fp_model, temperature=0.4, seed=1, page_size=4)
        for i in ids:
            oracle.start(i, lengths[i])
            oracle.prefill_chunk(i, 0, lengths[i])
        steps = {0: 7, 1: 7, 2: 5, 3: 7}
        for i in ids:
            for _ in range(steps[i]):
                decode_one(oracle, i)
        for i in ids:
            np.testing.assert_array_equal(
                runner.tokens(i),
                oracle.tokens(i),
                err_msg=f"request {i} diverged across preempt/resume",
            )

    def test_zoo_model_batched_matches_sequential(self, model7b):
        """The pinned zoo model (trained weights) through the fused path."""

        def run(batched):
            runner = ModelRunner(model7b, seed=0, page_size=8)
            ids = [0, 1, 2]
            for i in ids:
                runner.start(i, 6 + 2 * i)
                runner.prefill_chunk(i, 0, 6 + 2 * i)
            for _ in range(5):
                if batched:
                    runner.decode_batch(ids)
                else:
                    for i in ids:
                        decode_one(runner, i)
            return {i: runner.tokens(i).tolist() for i in ids}

        assert run(True) == run(False)


# --------------------------------------------------------------------- #
# Telemetry: per-step batch size + kernel phase timings
# --------------------------------------------------------------------- #
class TestBatchedDecodeTelemetry:
    def _run(self, model, *, scheme="Atom-W4A4"):
        rec = TraceRecorder()
        engine = NumericBackend.engine_for(
            model,
            SCHEMES[scheme],
            max_batch=4,
            admission="reserve",
            telemetry=rec,
        )
        reqs = [Request(i, 8 + 2 * i, 5 + i) for i in range(4)]
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        return rec, result

    def test_batched_decode_samples_recorded(self, atom_model):
        rec, result = self._run(atom_model)
        samples = [e for e in rec.events if isinstance(e, BatchedDecodeSample)]
        assert samples, "no BatchedDecodeSample events recorded"
        assert all(s.event == "batched_decode" for s in samples)
        assert all(s.decode_batch >= 1 for s in samples)
        assert max(s.decode_batch for s in samples) > 1
        assert all(s.t_wall_s > 0 for s in samples)
        # AtomLinear emits kernel-phase samples; the collector must have
        # aggregated real quant + dense time for at least one step.
        assert any(s.t_quant_s > 0 for s in samples)
        assert any(s.t_dense_s > 0 for s in samples)

    def test_samples_round_trip_jsonl(self, atom_model):
        rec, _ = self._run(atom_model)
        buf = io.StringIO()
        write_jsonl(rec.events, buf)
        buf.seek(0)
        restored = read_jsonl(buf)
        got = [e for e in restored if isinstance(e, BatchedDecodeSample)]
        want = [e for e in rec.events if isinstance(e, BatchedDecodeSample)]
        assert got == want

    def test_result_batch_occupancy_histogram(self, atom_model):
        rec, result = self._run(atom_model)
        hist = result.decode_batch_hist
        assert hist, "decode_batch_hist is empty"
        assert all(b >= 1 for b in hist)
        assert list(hist) == sorted(hist)  # sorted by batch size
        # Histogram mass == decode iterations; weighted sum == decode
        # tokens minus each request's first token (sampled by the
        # prompt-completing prefill pass, not by a decode slot).
        samples = [e for e in rec.events if isinstance(e, BatchedDecodeSample)]
        assert sum(hist.values()) == len(samples)
        weighted = sum(b * n for b, n in hist.items())
        assert weighted == result.decode_tokens - result.completed_requests
        assert result.achieved_batch == pytest.approx(
            sum(b * n for b, n in hist.items()) / sum(hist.values())
        )
