"""Paged KV-cache allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.paged_kv import KVAccountingError, PagedKVAllocator
from repro.serving.telemetry import PagePoolDelta, TraceRecorder


def _alloc(budget_pages=64, page_size=16, bytes_per_token=1.0):
    return PagedKVAllocator(
        budget_pages * page_size * bytes_per_token,
        bytes_per_token,
        page_size=page_size,
    )


class TestAllocation:
    def test_total_pages(self):
        a = _alloc(budget_pages=64)
        assert a.total_pages == 64

    def test_pages_for_rounds_up(self):
        a = _alloc(page_size=16)
        assert a.pages_for(1) == 1
        assert a.pages_for(16) == 1
        assert a.pages_for(17) == 2

    def test_allocate_and_free(self):
        a = _alloc()
        assert a.allocate(1, 100)
        assert a.used_pages == 7  # ceil(100/16)
        a.free(1)
        assert a.used_pages == 0

    def test_allocation_fails_when_full(self):
        a = _alloc(budget_pages=4, page_size=16)
        assert a.allocate(1, 64)  # exactly 4 pages
        assert not a.allocate(2, 1)

    def test_failed_allocation_leaves_state_clean(self):
        a = _alloc(budget_pages=4, page_size=16)
        a.allocate(1, 60)
        assert not a.allocate(2, 17)
        assert a.used_pages == 4
        a.free(1)
        assert a.allocate(2, 17)

    def test_double_allocate_rejected(self):
        a = _alloc()
        a.allocate(1, 10)
        with pytest.raises(KeyError):
            a.allocate(1, 10)

    def test_append_token_grows_page_on_boundary(self):
        a = _alloc(page_size=4)
        a.allocate(1, 4)
        assert a.used_pages == 1
        assert a.append_token(1)  # token 5 -> second page
        assert a.used_pages == 2

    def test_append_within_page_no_growth(self):
        a = _alloc(page_size=4)
        a.allocate(1, 2)
        assert a.append_token(1)
        assert a.used_pages == 1

    def test_append_fails_when_exhausted(self):
        a = _alloc(budget_pages=1, page_size=4)
        a.allocate(1, 4)
        assert not a.append_token(1)

    def test_append_unknown_request_rejected(self):
        with pytest.raises(KeyError):
            _alloc().append_token(99)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PagedKVAllocator(0, 1.0)
        with pytest.raises(ValueError):
            PagedKVAllocator(100, 0)
        with pytest.raises(ValueError):
            PagedKVAllocator(100, 1.0, page_size=0)


class TestAccountingErrors:
    """Double free / unknown ids raise typed KVAccountingError — a silent
    no-op here would corrupt the pool's page accounting invisibly."""

    def test_double_free_raises_typed(self):
        a = _alloc()
        a.allocate(1, 10)
        a.free(1)
        with pytest.raises(KVAccountingError) as exc:
            a.free(1)
        assert exc.value.operation == "free"
        assert exc.value.request_id == 1
        assert a.used_pages == 0  # the failed free changed nothing

    def test_free_unknown_request_raises_typed(self):
        with pytest.raises(KVAccountingError, match="holds no allocation"):
            _alloc().free(99)

    def test_accounting_error_is_a_key_error(self):
        """Pre-typed callers guarded on KeyError; the subclass keeps them."""
        a = _alloc()
        with pytest.raises(KeyError):
            a.free(42)
        a.allocate(7, 4)
        with pytest.raises(KeyError):
            a.allocate(7, 4)

    def test_double_allocate_error_carries_context(self):
        a = _alloc()
        a.allocate(3, 8)
        with pytest.raises(KVAccountingError) as exc:
            a.allocate(3, 8)
        assert exc.value.operation == "allocate"
        assert "already allocated" in str(exc.value)

    def test_free_after_failed_allocate_still_raises(self):
        a = _alloc(budget_pages=1, page_size=4)
        assert not a.allocate(1, 100)  # rejected: never held pages
        with pytest.raises(KVAccountingError):
            a.free(1)


class TestResize:
    """Pool resizing (fault injection: a co-tenant stealing memory)."""

    def test_shrink_and_restore(self):
        a = _alloc(budget_pages=64)
        assert a.resize(-16) == -16
        assert a.total_pages == 48
        assert a.resize(16) == 16
        assert a.total_pages == 64

    def test_shrink_clamps_at_zero(self):
        a = _alloc(budget_pages=8)
        assert a.resize(-100) == -8
        assert a.total_pages == 0

    def test_shrink_below_live_usage_goes_negative_free(self):
        a = _alloc(budget_pages=8, page_size=16)
        a.allocate(1, 16 * 6)  # 6 pages live
        a.resize(-4)
        assert a.free_pages == -2  # engine must evict to reconcile
        assert a.used_pages == 6
        a.free(1)
        assert a.free_pages == 4


class TestFragmentation:
    def test_utilization(self):
        a = _alloc(budget_pages=10, page_size=16)
        a.allocate(1, 32)
        assert a.utilization() == pytest.approx(0.2)

    def test_internal_fragmentation(self):
        a = _alloc(page_size=16)
        a.allocate(1, 17)  # 2 pages for 17 tokens => 15 wasted slots
        assert a.internal_fragmentation() == pytest.approx(15 / 32)

    def test_paging_bounds_fragmentation(self):
        """The PagedAttention claim: waste is bounded by one page per
        request regardless of sequence lengths."""
        a = _alloc(budget_pages=1000, page_size=16)
        rng = np.random.default_rng(0)
        for rid in range(50):
            a.allocate(rid, int(rng.integers(1, 200)))
        waste_pages = a.internal_fragmentation() * a.used_pages
        assert waste_pages <= 50  # <= one page per request

    def test_empty_fragmentation_zero(self):
        assert _alloc().internal_fragmentation() == 0.0
        assert _alloc().utilization() == 0.0


class TestInvariants:
    """Account-level invariants, fuzzed with a seeded generator and audited
    both directly and through the telemetry event log."""

    def test_free_returns_exactly_the_pages_held(self):
        a = _alloc(page_size=4)
        a.allocate(1, 10)  # 3 pages
        for _ in range(6):  # grow to 16 tokens -> 4 pages
            assert a.append_token(1)
        assert a.free(1) == 4
        assert a.used_pages == 0

    def test_random_workload_accounting_never_negative(self):
        rng = np.random.default_rng(11)
        a = _alloc(budget_pages=64, page_size=8)
        live: dict[int, int] = {}
        rid = 0
        for _ in range(2000):
            op = rng.integers(3)
            assert 0 <= a.used_pages <= a.total_pages
            assert a.free_pages == a.total_pages - a.used_pages
            if op == 0:
                n = int(rng.integers(1, 40))
                if a.allocate(rid, n):
                    live[rid] = n
                rid += 1
            elif op == 1 and live:
                victim = int(rng.choice(list(live)))
                expect = a.pages_for(live[victim])
                assert a.free(victim) == expect
                del live[victim]
            elif op == 2 and live:
                grow = int(rng.choice(list(live)))
                if a.append_token(grow):
                    live[grow] += 1
        for r in list(live):
            a.free(r)
        assert a.used_pages == 0

    def test_telemetry_log_replays_pool_state(self):
        rec = TraceRecorder()
        a = PagedKVAllocator(32 * 8, 1.0, page_size=8, telemetry=rec)
        a.allocate(0, 12)
        for _ in range(8):
            a.append_token(0)
        a.allocate(1, 8)
        a.free(0)
        a.free(1)
        used = 0
        for e in rec.events:
            assert isinstance(e, PagePoolDelta)
            used += e.delta
            assert used >= 0
            assert e.free_pages == a.total_pages - used
        assert used == 0

    def test_failed_operations_emit_no_events(self):
        rec = TraceRecorder()
        a = PagedKVAllocator(4 * 8, 1.0, page_size=8, telemetry=rec)
        assert a.allocate(0, 32)
        n_events = len(rec.events)
        assert not a.allocate(1, 1)
        assert not a.append_token(0)
        assert len(rec.events) == n_events


class TestPropertyBased:
    @given(
        st.lists(st.integers(1, 100), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_alloc_free_conserves_pages(self, sizes):
        a = _alloc(budget_pages=10_000)
        for rid, n in enumerate(sizes):
            assert a.allocate(rid, n)
        assert a.used_pages == sum(a.pages_for(n) for n in sizes)
        for rid in range(len(sizes)):
            a.free(rid)
        assert a.used_pages == 0

    @given(st.integers(1, 64), st.integers(1, 300))
    @settings(max_examples=40, deadline=None)
    def test_append_sequence_matches_direct_allocation(self, page_size, total):
        """Appending tokens one by one ends at exactly ceil(total/page)."""
        a = PagedKVAllocator(1e9, 1.0, page_size=page_size)
        a.allocate(0, 1)
        for _ in range(total - 1):
            assert a.append_token(0)
        assert a.used_pages == a.pages_for(total)


# --------------------------------------------------------------------------- #
# Physical page store + per-request paged caches (numeric serving backend)
# --------------------------------------------------------------------------- #
from repro.models.llama import KVCache, key_bucket  # noqa: E402
from repro.serving.paged_kv import PagedKVCache, PagedKVStore  # noqa: E402


def _kv_chunk(rng, kv_heads, t, head_dim):
    k = rng.standard_normal((1, kv_heads, t, head_dim)).astype(np.float32)
    v = rng.standard_normal((1, kv_heads, t, head_dim)).astype(np.float32)
    return k, v


class TestPagedKVStore:
    def test_alloc_free_round_trip(self):
        store = PagedKVStore(2, 8, page_size=4, initial_pages=4)
        pages = [store.alloc_page() for _ in range(4)]
        assert store.used_pages == 4
        for p in pages:
            store.free_page(p)
        assert store.used_pages == 0

    def test_grows_geometrically_when_exhausted(self):
        store = PagedKVStore(2, 8, page_size=4, initial_pages=2)
        for _ in range(5):
            store.alloc_page()
        assert store.used_pages == 5
        assert store.capacity_pages >= 5

    def test_page_views_have_page_shape(self):
        store = PagedKVStore(3, 8, page_size=4)
        p = store.alloc_page()
        assert store.page_k(p).shape == (3, 4, 8)
        assert store.page_v(p).shape == (3, 4, 8)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            PagedKVStore(0, 8)
        with pytest.raises(ValueError):
            PagedKVStore(2, 8, page_size=0)
        with pytest.raises(ValueError):
            PagedKVStore(2, 8, initial_pages=0)


class TestPagedKVCache:
    def test_rejects_batched_appends(self):
        store = PagedKVStore(2, 8, page_size=4)
        cache = PagedKVCache(store)
        k = np.zeros((2, 2, 1, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="batch"):
            cache.append(k, k)

    def test_release_returns_every_page_to_the_store(self):
        store = PagedKVStore(2, 8, page_size=4)
        cache = PagedKVCache(store)
        rng = np.random.default_rng(0)
        cache.append(*_kv_chunk(rng, 2, 11, 8))  # 3 pages: 4+4+3
        assert len(cache.pages) == 3
        assert store.used_pages == 3
        assert cache.release() == 3
        assert store.used_pages == 0
        assert cache.length == 0

    def test_many_caches_share_one_store(self):
        """One store backs every (request, layer) — pages interleave freely."""
        store = PagedKVStore(2, 8, page_size=4, initial_pages=2)
        rng = np.random.default_rng(1)
        caches = [PagedKVCache(store) for _ in range(6)]
        chunks = [_kv_chunk(rng, 2, 7, 8) for _ in caches]
        for cache, (k, v) in zip(caches, chunks):
            cache.append(k, v)
        # Each cache still gathers its own values despite interleaved pages.
        for cache, (k, v) in zip(caches, chunks):
            gk, gv = cache.gather()
            np.testing.assert_array_equal(gk[:, :, :7], k)
            np.testing.assert_array_equal(gv[:, :, :7], v)
        assert store.used_pages == 6 * 2  # ceil(7/4) pages each

    @given(
        page_size=st.integers(1, 8),
        kv_heads=st.integers(1, 4),
        chunk_sizes=st.lists(st.integers(1, 13), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_gather_matches_dense_cache_bitwise(
        self, page_size, kv_heads, chunk_sizes
    ):
        """Paged == dense (satellite property): any append pattern — GQA
        head counts, ragged last pages — gathers bit-identical K/V to the
        dense ``KVCache`` fed the same chunks, padded alike to the key
        bucket (the padding only has to be finite)."""
        head_dim = 4
        store = PagedKVStore(kv_heads, head_dim, page_size=page_size)
        paged = PagedKVCache(store)
        dense = KVCache(1, kv_heads, head_dim, capacity=1)
        rng = np.random.default_rng(sum(chunk_sizes) + page_size)
        for t in chunk_sizes:
            k, v = _kv_chunk(rng, kv_heads, t, head_dim)
            pk, pv = paged.append(k, v)
            dk, dv = dense.append(k, v)
            n = dense.length
            assert pk.shape == dk.shape == (1, kv_heads, key_bucket(n - 1), head_dim)
            np.testing.assert_array_equal(pk[:, :, :n], dk[:, :, :n])
            np.testing.assert_array_equal(pv[:, :, :n], dv[:, :, :n])
            assert np.isfinite(pk).all() and np.isfinite(pv).all()
        total = sum(chunk_sizes)
        assert paged.length == dense.length == total
        assert len(paged.pages) == -(-total // page_size)  # ceil division


class TestKVCacheFactoryHook:
    def test_paged_factory_matches_dense_logits(self):
        """A model whose ``_new_kv_cache`` returns paged caches computes
        bit-identical logits to the default dense path — GQA model,
        incremental decode crossing page boundaries."""
        from repro.bench.perf import build_bench_model
        from repro.models.config import ModelConfig

        cfg = ModelConfig(
            "paged-hook-test",
            dim=64,
            n_layers=2,
            n_heads=8,
            n_kv_heads=2,
            ffn_dim=128,
            max_seq_len=64,
        )
        dense_model = build_bench_model(cfg, seed=3)
        store = PagedKVStore(cfg.n_kv_heads, cfg.head_dim, page_size=4)
        paged_model = build_bench_model(cfg, seed=3)
        paged_model._new_kv_cache = lambda batch, capacity: PagedKVCache(store)

        rng = np.random.default_rng(5)
        prompt = rng.integers(0, cfg.vocab_size, size=(1, 9))
        cache_d, cache_p = {}, {}
        out_d = dense_model.forward(prompt, cache=cache_d)
        out_p = paged_model.forward(prompt, cache=cache_p)
        np.testing.assert_array_equal(out_d, out_p)
        for step in range(7):  # crosses the 4-token page boundary
            tok = np.asarray([[int(step) % cfg.vocab_size]])
            out_d = dense_model.forward(tok, pos_offset=9 + step, cache=cache_d)
            out_p = paged_model.forward(tok, pos_offset=9 + step, cache=cache_p)
            np.testing.assert_array_equal(out_d, out_p)
        assert store.used_pages > 0
        for kv_cache in cache_p.values():
            kv_cache.release()
        assert store.used_pages == 0


class TestSharedPageAccountingErrors:
    """Typed double-free detection on every shared-page path.

    The prefix cache makes pages multi-owner (request tables + radix
    nodes); each refcounting primitive must raise a KVAccountingError on
    misuse instead of silently corrupting the pool.
    """

    def test_store_free_of_unknown_page_raises(self):
        store = PagedKVStore(2, 8, page_size=4)
        with pytest.raises(KVAccountingError, match="not live"):
            store.free_page(7)

    def test_store_double_free_raises(self):
        store = PagedKVStore(2, 8, page_size=4)
        p = store.alloc_page()
        store.free_page(p)
        with pytest.raises(KVAccountingError, match="not live"):
            store.free_page(p)

    def test_store_ref_of_dead_page_raises(self):
        store = PagedKVStore(2, 8, page_size=4)
        p = store.alloc_page()
        store.free_page(p)
        with pytest.raises(KVAccountingError, match="ref_page"):
            store.ref_page(p)

    def test_refcounted_page_survives_first_free(self):
        store = PagedKVStore(2, 8, page_size=4)
        p = store.alloc_page()
        store.ref_page(p)
        assert store.page_refs(p) == 2
        store.free_page(p)  # one reader gone, page still live
        assert store.page_refs(p) == 1
        store.free_page(p)  # last reader: recycled
        assert store.page_refs(p) == 0
        with pytest.raises(KVAccountingError):
            store.free_page(p)

    def test_cache_release_twice_raises(self):
        store = PagedKVStore(2, 8, page_size=4)
        cache = PagedKVCache(store)
        rng = np.random.default_rng(0)
        cache.append(*_kv_chunk(rng, 2, 5, 8))
        assert cache.release() == 2
        with pytest.raises(KVAccountingError, match="freed twice"):
            cache.release()

    def test_release_keeps_borrowed_pages_live(self):
        store = PagedKVStore(2, 8, page_size=4)
        donor = PagedKVCache(store)
        rng = np.random.default_rng(1)
        donor.append(*_kv_chunk(rng, 2, 8, 8))
        shared = list(donor.pages)
        for p in shared:
            store.ref_page(p)  # the radix tree's reference
        borrower = PagedKVCache(store, borrowed_pages=shared, length=8)
        borrower.append(*_kv_chunk(rng, 2, 3, 8))  # owns one new page
        assert borrower.release() == 1
        for p in shared:
            assert store.page_refs(p) == 2  # donor + tree, untouched

    def test_allocator_transfer_exceeding_held_raises(self):
        a = PagedKVAllocator(1e9, 1.0, page_size=4)
        a.allocate(0, 10)  # 3 pages
        with pytest.raises(KVAccountingError, match="exceeds the pages"):
            a.transfer_to_cache(0, 4)

    def test_allocator_transfer_of_unknown_request_raises(self):
        a = PagedKVAllocator(1e9, 1.0, page_size=4)
        with pytest.raises(KVAccountingError):
            a.transfer_to_cache(5, 1)

    def test_allocator_cache_release_below_zero_raises(self):
        a = PagedKVAllocator(1e9, 1.0, page_size=4)
        a.allocate(0, 8)
        a.transfer_to_cache(0, 2)
        a.cache_release(1)
        with pytest.raises(KVAccountingError, match="more pages than"):
            a.cache_release(2)

    def test_transfer_moves_charge_not_total(self):
        """transfer_to_cache is net-zero: used_pages is unchanged, the
        charge just moves from the request to the cache account."""
        a = PagedKVAllocator(1e9, 1.0, page_size=4)
        a.allocate(0, 16)  # 4 pages
        used = a.used_pages
        a.transfer_to_cache(0, 3)
        assert a.used_pages == used
        assert a.cache_pages == 3
        assert a.free(0) == 1  # request's own residual charge only
        assert a.used_pages == 3  # tree still holds its account
        a.cache_release(3)
        assert a.used_pages == 0

    def test_shared_tokens_discount_admission(self):
        """A leased prefix's full pages are not charged to the request."""
        a = PagedKVAllocator(1e9, 1.0, page_size=4)
        assert a.pages_needed(18, shared_tokens=9) == 3  # 5 total - 2 shared
        a.allocate(0, 18, shared_tokens=9)
        assert a.used_pages == 3
        # Growth counts from the total token length, not the charged pages.
        for _ in range(2):
            assert a.append_token(0)
        assert a.used_pages == 3  # tokens 19, 20 fit the fifth page
        assert a.append_token(0)  # token 21 opens a sixth page
        assert a.used_pages == 4
        assert a.free(0) == 4
        assert a.used_pages == 0
