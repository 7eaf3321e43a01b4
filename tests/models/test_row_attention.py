"""Byte-level pins for the rowwise (position-invariant) attention path.

``forward(rowwise=True)`` promises that the hidden state and cached K/V at
position ``i`` depend only on tokens ``<= i``: prefill split into chunks of
any size writes the same bytes as one pass.  That is what lets the runner
prefill in chunks and the prefix cache hand a request someone else's KV
pages while staying byte-identical to ``generate``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import SERVING_BENCH_CONFIG
from repro.models.config import ModelConfig
from repro.serving import SCHEMES, PagedKVCache, PagedKVStore

CFG = SERVING_BENCH_CONFIG


def assert_bytes_equal(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """Same dtype, shape and bytes (``-0.0`` differs from ``0.0`` here)."""
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), (
        f"{what}: max |diff| {np.abs(got.astype(np.float64) - want).max():.3g}"
    )


@pytest.fixture(scope="module", params=["FP16", "Atom-W4A4"])
def bench_model(request):
    """The serving-bench model under one scheme (servebench's recipe)."""
    fp16 = build_bench_model(CFG, seed=0)
    if request.param == "FP16":
        return fp16
    calib = np.random.default_rng(99).integers(0, CFG.vocab_size, size=(8, 64))
    return SCHEMES[request.param].quantize(fp16, calib_tokens=calib)


def _prefill(model, prompt: np.ndarray, chunk: int):
    """Rowwise prefill of ``prompt`` in ``chunk``-token pieces; returns the
    per-position logits and every layer's cached K/V (live prefix)."""
    cache: dict = {}
    logits = [
        model.forward(
            prompt[None, lo : lo + chunk], pos_offset=lo, cache=cache, rowwise=True
        )[0]
        for lo in range(0, len(prompt), chunk)
    ]
    kv = []
    for i in range(model.config.n_layers):
        c = cache[f"layers.{i}.kv"]
        kv.append((c.k[:, :, : c.length].copy(), c.v[:, :, : c.length].copy()))
    return np.concatenate(logits), kv


class TestChunkedPrefillBytes:
    @pytest.mark.parametrize("n", [9, 17, 34, 130])
    @pytest.mark.parametrize("chunk", [1, 3, 7, 16])
    def test_chunked_prefill_equals_one_pass(self, bench_model, n, chunk):
        prompt = np.random.default_rng(n).integers(0, CFG.vocab_size, size=n)
        want_logits, want_kv = _prefill(bench_model, prompt, n)
        got_logits, got_kv = _prefill(bench_model, prompt, chunk)
        assert_bytes_equal(got_logits, want_logits, "logits")
        for i, ((gk, gv), (wk, wv)) in enumerate(zip(got_kv, want_kv)):
            assert_bytes_equal(gk, wk, f"layer {i} K")
            assert_bytes_equal(gv, wv, f"layer {i} V")


# --------------------------------------------------------------------- #
# The kernel: forward_batch rows == solo forward(t=1), byte for byte
# --------------------------------------------------------------------- #
#: GQA (4 query heads per KV head) and MHA (g = 1: the score and context
#: contractions are gemv calls); neither max_seq_len is a power of two, so
#: the last key bucket reaches past it.
GQA = ModelConfig(
    "rows-gqa", dim=64, n_layers=2, n_heads=8, n_kv_heads=2, ffn_dim=96,
    max_seq_len=300,
)
MHA = ModelConfig(
    "rows-mha", dim=64, n_layers=2, n_heads=4, n_kv_heads=4, ffn_dim=96,
    max_seq_len=272,
)
#: Context lengths on both sides of the bucket edges 16, 32 and 256.
EDGE_LENGTHS = [15, 16, 17, 31, 32, 33, 255, 256, 257]
PAGE_SIZE = 8


class _Request:
    """One sequence decoded two ways: paged caches (batched decode) and a
    dense cache dict (its solo ``forward``)."""

    def __init__(self, model, store, prompt, *, donor=None, shared=0):
        self.model, self.pos = model, len(prompt)
        self.dense: dict = {}
        model.forward(prompt[None], cache=self.dense, rowwise=True)
        n_layers = model.config.n_layers
        if donor is None:
            self.paged = {f"layers.{i}.kv": PagedKVCache(store) for i in range(n_layers)}
            model.forward(prompt[None], cache=self.paged, rowwise=True)
            return
        # Borrow the donor's first `shared` tokens of pages (pinned like the
        # radix tree pins them), then prefill the rest over them.
        self.paged = {}
        for i in range(n_layers):
            pages = donor.paged[f"layers.{i}.kv"].pages[: -(-shared // PAGE_SIZE)]
            for p in pages:
                store.ref_page(p)
            self.paged[f"layers.{i}.kv"] = PagedKVCache(
                store, borrowed_pages=pages, length=shared
            )
        model.forward(
            prompt[None, shared:], pos_offset=shared, cache=self.paged, rowwise=True
        )

    def solo(self, token: int) -> np.ndarray:
        return self.model.forward(
            np.asarray([[token]]), pos_offset=self.pos, cache=self.dense
        )[0, 0]


class TestBatchedDecodeRowsEqualSolo:
    @pytest.mark.parametrize("cfg", [GQA, MHA], ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_batches(self, cfg, seed):
        model = build_bench_model(cfg, seed=seed)
        rng = np.random.default_rng([seed, cfg.n_kv_heads])
        store = PagedKVStore(cfg.n_kv_heads, cfg.head_dim, page_size=PAGE_SIZE)
        # Stale-but-finite pool: pages recycled from a released cache hold
        # large junk values, which pad page tables and tail slots then read.
        junk = PagedKVCache(store)
        noise = 1e4 * rng.standard_normal((1, cfg.n_kv_heads, 600, cfg.head_dim))
        junk.append(noise.astype(np.float32), -noise.astype(np.float32))
        junk.release()

        lengths = EDGE_LENGTHS + [1, 7, 64, 100, cfg.max_seq_len - 3]
        prompts = [rng.integers(0, cfg.vocab_size, size=n) for n in lengths]
        requests = [_Request(model, store, p) for p in prompts]
        # Borrowers of a donor's prefix: page-aligned and mid-page.
        for donor, shared, extra in ((requests[7], 24, 9), (requests[8], 250, 7)):
            prompt = np.concatenate(
                [prompts[requests.index(donor)][:shared],
                 rng.integers(0, cfg.vocab_size, size=extra)]
            )
            requests.append(_Request(model, store, prompt, donor=donor, shared=shared))

        rows_checked = 0
        for _ in range(24):
            live = [r for r in requests if r.pos < cfg.max_seq_len]
            n = int(rng.integers(1, min(16, len(live)) + 1))
            batch = [live[i] for i in rng.permutation(len(live))[:n]]
            tokens = rng.integers(0, cfg.vocab_size, size=n)
            positions = [r.pos for r in batch]
            got = model.forward_batch(tokens, positions, [r.paged for r in batch])
            for j, (r, tok) in enumerate(zip(batch, tokens)):
                assert_bytes_equal(got[j], r.solo(int(tok)), f"row at position {r.pos}")
                r.pos += 1
            rows_checked += n
        for r in requests:  # the paged KV holds the solo cache's bytes
            for key, dense in r.dense.items():
                gk, gv = r.paged[key].gather()
                assert_bytes_equal(gk[:, :, : r.pos], dense.k[:, :, : r.pos], key)
                assert_bytes_equal(gv[:, :, : r.pos], dense.v[:, :, : r.pos], key)
        assert rows_checked > 100
        assert any(r.pos == cfg.max_seq_len for r in requests)
