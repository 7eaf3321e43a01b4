"""Property/oracle test tower for the radix-tree prefix cache.

Four layers, mirroring the design's trust chain:

1. **Radix properties** — seeded random insert/lookup/pin/evict walks over
   the tree alone (no engine), audited by ``PrefixCache.check_invariants``
   after every operation and checked against a brute-force
   longest-common-prefix oracle.
2. **Copy-on-write at the byte level** — a borrower diverging mid-page must
   never mutate the shared physical page other readers gather from.
3. **Bit-identity oracles** — warm (cache-hit) numeric serving produces
   exactly the tokens of cold runs and of per-request
   ``LlamaModel.generate``: FP16 and Atom-quantized (KV codec on), and
   under page-pool faults that force mid-decode eviction and preempt-resume
   over leased pages.
4. **Workload regression** — pinned-seed ShareGPT conversations through the
   open-loop front-end must keep hitting at the recorded rate, and the new
   telemetry events must round-trip through JSONL.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import build_serving_bench_model
from repro.data.sharegpt import Request, ShareGPTWorkload
from repro.models.config import ModelConfig
from repro.serving import (
    FP16,
    LLAMA_7B,
    SCHEMES,
    CountingPageSource,
    FaultPlan,
    NumericBackend,
    OpenLoopFrontend,
    PagePoolFault,
    PagedKVAllocator,
    PrefixCache,
    PrefixCacheSample,
    PrefixEviction,
    ServingEngine,
    TraceRecorder,
    conversation_prompt,
    read_jsonl,
    sharegpt_interactions,
    write_jsonl,
)
from repro.serving.paged_kv import KVAccountingError, PagedKVCache, PagedKVStore

VOCAB = 512

#: Pinned seeds for the property walks (the ISSUE's 30-seed conservation
#: sweep).  A failing seed is a permanent regression test.
PROPERTY_SEEDS = list(range(30))


# --------------------------------------------------------------------------- #
# 1. Radix-tree properties (tree alone, LCP brute-force oracle)
# --------------------------------------------------------------------------- #
def _sequence(seed: int, cid: int, length: int) -> np.ndarray:
    """A conversation-stream sequence: shared prefixes across same-cid calls."""
    return conversation_prompt(cid * 64, length, VOCAB, seed=seed)


def _lcp(a, b) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and int(a[i]) == int(b[i]):
        i += 1
    return i


class TestRadixProperties:
    def test_match_equals_brute_force_lcp(self):
        """Without eviction, the tree's longest-prefix match must equal the
        max LCP against every interned sequence.

        Request ids address conversation streams (``cid = rid // 64``), so
        interns and lookups for the same stream must share a cid.
        """
        rng = np.random.default_rng(7)
        cache = PrefixCache(seed=7)
        interned: list[np.ndarray] = []
        turn = {cid: 0 for cid in range(4)}
        for _ in range(60):
            cid = int(rng.integers(0, 4))
            length = int(rng.integers(1, 180))
            seq = _sequence(7, cid, length)
            if rng.random() < 0.6 and turn[cid] < 63:
                rid = cid * 64 + turn[cid]
                turn[cid] += 1
                cache.intern_finished(rid, length, length)
                cache.release(rid)  # end donorship; tree keeps the pages
                interned.append(seq)
            else:
                want = max((_lcp(seq, s) for s in interned), default=0)
                assert cache.lookup(cid * 64 + 63, length) == want
            cache.check_invariants()

    def test_lookup_oracle_exact(self):
        """Same as above but with the query drawn from the interned stream,
        where the expected match is exact."""
        cache = PrefixCache(seed=3)
        cache.intern_finished(0, 100, 100)
        cache.release(0)
        cache.intern_finished(64, 150, 150)  # cid 1: unrelated stream
        cache.release(64)
        # A longer prompt on cid 0 extends the interned 100 tokens.
        assert cache.lookup(1, 140) == 100
        # A shorter prompt is fully covered.
        assert cache.lookup(2, 60) == 60
        # cid 1 matches its own stream, not cid 0's.
        assert cache.lookup(65, 200) == 150
        # An unseen conversation misses entirely (vanishing probability of
        # a shared first token across seeded streams).
        assert cache.lookup(10 * 64, 50) in (0, 1)

    def test_interning_extension_splits_nothing(self):
        """Interning a longer sequence of the same stream adds a child edge
        under the existing node — no split, no page re-accounting."""
        cache = PrefixCache(seed=1)
        cache.intern_finished(0, 96, 96)  # 6 pages exactly
        cache.release(0)
        nodes_before = cache.node_count()
        pages_before = cache.shared_pages()
        cache.intern_finished(1, 160, 160)
        cache.release(1)
        assert cache.node_count() == nodes_before + 1
        assert cache.shared_pages() == pages_before + 4
        cache.check_invariants()

    def test_mid_page_divergence_shares_boundary_page(self):
        """Two finished turns share the 90-token prompt, then diverge at
        their sampled tails — a split inside page 5 (90 % 16 != 0).  The
        prefix node and the first branch keep sharing the boundary
        physical page; the diverging branch gets its own copy."""
        cache = PrefixCache(seed=2)
        cache.intern_finished(0, 90, 100)  # 90 prompt + 10 sampled tokens
        cache.release(0)
        assert cache.node_count() == 1
        assert cache.shared_pages() == 7  # 100 tokens / 16 per page

        # Matching never splits: a lease over the common 90-token prompt.
        lease = cache.acquire(1, 90)
        assert lease is not None
        assert lease.matched_tokens == 90
        assert lease.kv_tokens == 89
        assert cache.node_count() == 1
        cache.release(1)

        # rid 1's sampled tail differs from rid 0's -> split at token 90.
        cache.intern_finished(1, 90, 100)
        cache.release(1)
        assert cache.node_count() == 3
        # +2 fresh pages for the new [90, 100) branch, +1 for the shared
        # boundary page now counted by both sides of the split.
        assert cache.shared_pages() == 10
        cache.check_invariants()

        prefix, = cache.root.children.values()
        assert (prefix.start, prefix.end) == (0, 90)
        branches = list(prefix.children.values())
        assert [(b.start, b.end) for b in branches] == [(90, 100)] * 2
        for layer in range(len(prefix.pages)):
            boundary = prefix.pages[layer][-1]
            # One branch extends in-place over the boundary page...
            assert branches[0].pages[layer][0] == boundary
            assert cache.source.page_refs(boundary) == 2
            # ...the diverging branch copied it before writing.
            assert branches[1].pages[layer][0] != boundary

        # Fresh prompts still match the common prefix only: the sampled
        # tails belong to finished turns, not to the conversation stream.
        assert cache.lookup(2, 90) == 90
        assert cache.lookup(3, 120) == 90

    def test_eviction_only_frees_unpinned_leaves(self):
        cache = PrefixCache(seed=4)
        cache.intern_finished(0, 64, 64)
        cache.release(0)
        cache.intern_finished(1, 128, 128)  # child edge of the first
        cache.release(1)
        lease = cache.acquire(50, 128)
        assert lease is not None and len(lease.nodes) == 2
        # Both nodes pinned: nothing evictable.
        assert cache.evict_pages(100) == 0
        cache.release(50)
        # Unpinned: the LRU leaf goes first, then its exposed parent.
        freed = cache.evict_pages(1)
        assert freed == 4  # the [64, 128) edge: 4 pages
        assert cache.node_count() == 1
        assert cache.evict_pages(100) == 4
        assert cache.node_count() == 0
        cache.check_invariants()

    def test_donor_pinned_nodes_are_not_evictable(self):
        """While the donating request lives, its interned nodes must not be
        evicted — the donor's table still holds the physical pages, so
        eviction would free no memory and corrupt the budget account."""
        cache = PrefixCache(seed=5)
        cache.intern_finished(0, 64, 64)
        assert cache.evict_pages(100) == 0  # donor 0 still live
        cache.release(0)  # terminal: donorship ends
        assert cache.evict_pages(100) == 4

    def test_double_acquire_raises(self):
        cache = PrefixCache(seed=6)
        cache.intern_finished(0, 64, 64)
        cache.release(0)
        assert cache.acquire(1, 64) is not None
        with pytest.raises(KVAccountingError):
            cache.acquire(1, 64)
        cache.release(1)
        cache.release(1)  # idempotent

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_random_walk_conserves_pages(self, seed):
        """Seeded insert/pin/release/evict walk: the structural audit holds
        after every operation, and teardown returns the page source to
        exactly zero live pages."""
        rng = np.random.default_rng([seed, 0xCAFE])
        cache = PrefixCache(seed=seed)
        assert isinstance(cache.source, CountingPageSource)
        leases: set[int] = set()
        donors: set[int] = set()
        # Disjoint per-conversation rid lanes: turns 0-29 acquire leases,
        # turns 30-39 intern finished sequences (cid = rid // 64).
        acq_turn = {cid: 0 for cid in range(3)}
        int_turn = {cid: 0 for cid in range(3)}
        for _ in range(80):
            op = rng.random()
            cid = int(rng.integers(0, 3))
            length = int(rng.integers(1, 200))
            if op < 0.35:  # intern a finished sequence
                rid = cid * 64 + 30 + int_turn[cid] % 10
                int_turn[cid] += 1
                if rid in donors:  # rid reuse: previous turn must end first
                    cache.release(rid)
                cache.intern_finished(rid, length, length)
                donors.add(rid)
            elif op < 0.55:  # acquire a lease
                rid = cid * 64 + acq_turn[cid] % 30
                acq_turn[cid] += 1
                if rid not in leases and cache.acquire(rid, length):
                    leases.add(rid)
            elif op < 0.75 and leases:  # release a random lease
                victim = sorted(leases)[int(rng.integers(0, len(leases)))]
                cache.release(victim)
                leases.discard(victim)
            elif op < 0.9:  # end a donorship
                for d in sorted(donors):
                    cache.release(d)
                donors.clear()
            else:  # evict under pressure
                cache.evict_pages(int(rng.integers(1, 6)))
            cache.check_invariants()
        for r in sorted(leases | donors):
            cache.release(r)
        cache.check_invariants()
        cache.clear()
        assert cache.node_count() == 0
        assert cache.shared_pages() == 0
        assert cache.source.live_pages == 0


# --------------------------------------------------------------------------- #
# 2. Copy-on-write byte safety (physical store)
# --------------------------------------------------------------------------- #
class TestCopyOnWrite:
    def _donor(self, store, rng, tokens):
        donor = PagedKVCache(store)
        k = rng.standard_normal((1, 2, tokens, 8)).astype(np.float32)
        v = rng.standard_normal((1, 2, tokens, 8)).astype(np.float32)
        donor.append(k, v)
        return donor, k, v

    def test_borrower_divergence_never_mutates_shared_page(self):
        store = PagedKVStore(2, 8, page_size=16)
        rng = np.random.default_rng(0)
        donor, k, v = self._donor(store, rng, 40)  # pages 0..2, tail at 8
        shared = list(donor.pages)
        for p in shared:
            store.ref_page(p)  # radix-tree pins
        frozen_k = [store.page_k(p).copy() for p in shared]
        frozen_v = [store.page_v(p).copy() for p in shared]

        # Borrower resumes at token 36 — mid-way into shared page 2.
        borrower = PagedKVCache(store, borrowed_pages=shared, length=36)
        bk = rng.standard_normal((1, 2, 10, 8)).astype(np.float32)
        bv = rng.standard_normal((1, 2, 10, 8)).astype(np.float32)
        gk, gv = borrower.append(bk, bv)

        for p, fk, fv in zip(shared, frozen_k, frozen_v):
            np.testing.assert_array_equal(store.page_k(p), fk)
            np.testing.assert_array_equal(store.page_v(p), fv)
        # The borrower's view: donor's first 36 tokens, then its own.
        np.testing.assert_array_equal(gk[0, :, :36], k[0, :, :36])
        np.testing.assert_array_equal(gk[0, :, 36:46], bk[0])
        np.testing.assert_array_equal(gv[0, :, 36:46], bv[0])
        # COW replaced the boundary page only.
        assert borrower.pages[:2] == shared[:2]
        assert borrower.pages[2] != shared[2]
        assert borrower.n_borrowed == 2

    def test_page_aligned_resume_copies_nothing(self):
        store = PagedKVStore(2, 8, page_size=16)
        rng = np.random.default_rng(1)
        donor, k, _ = self._donor(store, rng, 32)  # exactly 2 pages
        shared = list(donor.pages)
        for p in shared:
            store.ref_page(p)
        used_before = store.used_pages
        borrower = PagedKVCache(store, borrowed_pages=shared, length=32)
        bk = rng.standard_normal((1, 2, 1, 8)).astype(np.float32)
        borrower.append(bk, bk)
        # The append opened a fresh page; no COW copy of a shared one.
        assert store.used_pages == used_before + 1
        assert borrower.pages[:2] == shared
        gk, _ = borrower.gather()
        np.testing.assert_array_equal(gk[0, :, :32], k[0])

    def test_two_borrowers_diverge_independently(self):
        store = PagedKVStore(2, 8, page_size=16)
        rng = np.random.default_rng(2)
        donor, k, _ = self._donor(store, rng, 20)
        shared = list(donor.pages)
        for p in shared:
            store.ref_page(p)
            store.ref_page(p)  # two leases
        a = PagedKVCache(store, borrowed_pages=shared, length=17)
        b = PagedKVCache(store, borrowed_pages=shared, length=17)
        ka = rng.standard_normal((1, 2, 4, 8)).astype(np.float32)
        kb = rng.standard_normal((1, 2, 4, 8)).astype(np.float32)
        ga, _ = a.append(ka, ka)
        gb, _ = b.append(kb, kb)
        np.testing.assert_array_equal(ga[0, :, :17], k[0, :, :17])
        np.testing.assert_array_equal(gb[0, :, :17], k[0, :, :17])
        np.testing.assert_array_equal(ga[0, :, 17:21], ka[0])
        np.testing.assert_array_equal(gb[0, :, 17:21], kb[0])
        assert a.pages[1] != b.pages[1] != shared[1]


# --------------------------------------------------------------------------- #
# 3. Bit-identity oracles (numeric backend)
# --------------------------------------------------------------------------- #
NUMERIC_TEST_CONFIG = ModelConfig(
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
    return build_bench_model(NUMERIC_TEST_CONFIG, seed=0)


@pytest.fixture(scope="module")
def atom_model():
    """Atom-quantized model: quantized linears AND the 4-bit KV codec, so
    shared pages hold post-codec values."""
    return build_serving_bench_model(seed=0)


def _conversations(n_conv=3, turns=2, prompt=20, decode=8):
    """Turn-ordered multi-round requests (cid * 64 + turn addressing)."""
    reqs = []
    for cid in range(n_conv):
        history = 0
        for turn in range(turns):
            prefill = history + prompt
            reqs.append(Request(cid * 64 + turn, prefill, decode))
            history = prefill + decode
    reqs.sort(key=lambda r: (r.request_id % 64, r.request_id // 64))
    return reqs


def _warm_engine(model, scheme_name, seed=0, telemetry=None, **kw):
    kw.setdefault("max_batch", 3)
    kw.setdefault("admission", "reserve")
    if telemetry is not None:
        kw["telemetry"] = telemetry
    return NumericBackend.engine_for(
        model,
        SCHEMES[scheme_name],
        seed=seed,
        prompts="conversation",
        prefix_cache=PrefixCache(seed=seed),
        **kw,
    )


def _assert_oracle_identical(engine, result, reqs):
    backend = engine.backend
    for r in reqs:
        if result.terminal_states.get(r.request_id) != "finished":
            continue
        got = backend.generated_tokens(r.request_id)
        want = backend.runner.oracle_generate(
            r.request_id, r.prefill_len, r.decode_len
        )
        np.testing.assert_array_equal(
            got,
            want,
            err_msg=f"request {r.request_id} diverged from generate oracle",
        )


def _assert_clean_teardown(engine):
    """After drain + cache clear, runner store and allocator hold nothing."""
    cache = engine.prefix_cache
    cache.check_invariants()
    assert not cache.live_leases()
    cache.clear()
    assert engine._allocator.used_pages == 0
    assert engine.backend.runner.store.used_pages == 0


class TestNumericBitIdentity:
    @pytest.mark.parametrize("model_name", ["fp", "atom"])
    def test_warm_tokens_match_generate_oracle(self, request, model_name):
        """Warm (cache-hit) serving is bit-identical to the dense-cache
        generate oracle — with and without the KV codec."""
        model = request.getfixturevalue(f"{model_name}_model")
        scheme = "Atom-W4A4" if model_name == "atom" else "FP16"
        reqs = _conversations()
        engine = _warm_engine(model, scheme)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        pc = result.prefix_cache
        assert pc["hits"] == 3, "every second turn must hit"
        assert pc["kv_tokens"] > 0
        _assert_oracle_identical(engine, result, reqs)
        _assert_clean_teardown(engine)

    def test_warm_equals_cold_token_for_token(self, fp_model):
        reqs = _conversations()
        warm_engine = _warm_engine(fp_model, "FP16")
        warm = warm_engine.run(reqs)
        cold_engine = NumericBackend.engine_for(
            fp_model, SCHEMES["FP16"], max_batch=3, admission="reserve",
            seed=0, prompts="conversation",
        )
        cold = cold_engine.run(reqs)
        assert warm.prefix_cache["hits"] > 0
        assert cold.prefix_cache is None
        for r in reqs:
            np.testing.assert_array_equal(
                warm_engine.backend.generated_tokens(r.request_id),
                cold_engine.backend.generated_tokens(r.request_id),
                err_msg=f"request {r.request_id}: warm != cold",
            )

    def test_mid_decode_eviction_and_preempt_resume(self, fp_model):
        """Pool shrinkage while leased pages are live: the engine must
        evict cache pages first, preempt with leases outstanding, resume
        over re-acquired prefixes — and still match the oracle."""
        reqs = _conversations(n_conv=4, turns=2, prompt=24, decode=10)
        rec = TraceRecorder()
        engine = _warm_engine(
            fp_model, "FP16", telemetry=rec, max_batch=4,
            admission="dynamic", shed_policy="drop",
        )
        shrink = engine._allocator.total_pages - 8
        plan = FaultPlan(
            page_faults=(
                PagePoolFault(iteration=6, delta_pages=-shrink),
                PagePoolFault(iteration=14, delta_pages=shrink),
            ),
        )
        result = engine.run(reqs, faults=plan)
        pc = result.prefix_cache
        assert result.preemptions > 0, "shrink must force preemption"
        assert pc["evicted_pages"] > 0, "shrink must evict cache pages"
        assert pc["hits"] > 0
        assert result.completed_requests + result.shed == len(reqs)
        _assert_oracle_identical(engine, result, reqs)
        _assert_clean_teardown(engine)
        evict_events = [e for e in rec.events if isinstance(e, PrefixEviction)]
        assert sum(e.pages_freed for e in evict_events) == pc["evicted_pages"]

    def test_codec_pages_hold_postcodec_values(self, atom_model):
        """With the Atom KV codec, a warm request's borrowed pages hold the
        same post-codec floats the cold run wrote — hits must not re-apply
        or skip the codec round-trip."""
        reqs = _conversations(n_conv=1, turns=2, prompt=24, decode=8)
        engine = _warm_engine(atom_model, "Atom-W4A4", max_batch=1)
        result = engine.run(reqs)
        assert result.prefix_cache["hits"] == 1
        assert result.completed_requests == 2
        _assert_oracle_identical(engine, result, reqs)
        _assert_clean_teardown(engine)


# --------------------------------------------------------------------------- #
# 4. Workload regression + telemetry round-trip
# --------------------------------------------------------------------------- #
class TestShareGPTHitRate:
    #: Pinned expectation for the seeded conversation workload below.  The
    #: derivation is deterministic, so drift beyond the tolerance means the
    #: matching/interning pipeline changed behaviour, not noise.
    PINNED_SEED = 1234
    EXPECTED_HIT_RATE = 0.50
    TOLERANCE = 0.15

    def _run(self):
        workload = ShareGPTWorkload(seed=self.PINNED_SEED, max_len=2048)
        inters = sharegpt_interactions(
            workload, 12, rate=2.0, seed=self.PINNED_SEED,
            tenants=("a", "b"),
        )
        engine = ServingEngine(
            LLAMA_7B, FP16, max_batch=8, shed_policy="drop",
            prefix_cache=PrefixCache(seed=self.PINNED_SEED),
        )
        res = OpenLoopFrontend(engine, "fcfs").run(inters)
        return engine, res

    def test_multi_round_hit_rate_is_pinned(self):
        engine, res = self._run()
        pc = res.serving.prefix_cache
        assert res.submitted > res.interactions, "workload must be multi-round"
        assert pc["lookups"] >= res.submitted
        assert (
            abs(pc["hit_rate"] - self.EXPECTED_HIT_RATE) <= self.TOLERANCE
        ), f"hit rate drifted: {pc['hit_rate']:.2f}"
        assert pc["kv_tokens"] > 0
        # Every follow-up turn extends finished history: turn > 0
        # submissions are the hit floor.
        followups = sum(1 for s in res.submissions if s.turn > 0)
        assert pc["hits"] >= followups > 0

    def test_run_is_deterministic(self):
        _, a = self._run()
        _, b = self._run()
        assert a.serving.prefix_cache == b.serving.prefix_cache


class TestTelemetryRoundTrip:
    def _trace(self):
        reqs = _conversations(n_conv=2, turns=2, prompt=20, decode=6)
        rec = TraceRecorder()
        engine = ServingEngine(
            LLAMA_7B, FP16, max_batch=2, telemetry=rec,
            prefix_cache=PrefixCache(seed=0),
        )
        result = engine.run(reqs)
        engine.prefix_cache.clear()
        return rec, result

    def test_samples_reconcile_with_stats(self):
        rec, result = self._trace()
        pc = result.prefix_cache
        samples = [e for e in rec.events if isinstance(e, PrefixCacheSample)]
        assert len(samples) == pc["lookups"]
        assert sum(1 for s in samples if s.kv_tokens > 0) == pc["hits"]
        assert sum(s.kv_tokens for s in samples) == pc["kv_tokens"]
        assert sum(s.matched_tokens for s in samples) == pc["matched_tokens"]
        evictions = [e for e in rec.events if isinstance(e, PrefixEviction)]
        # clear() frees without the eviction event (teardown, not pressure);
        # this fault-free run evicted nothing.
        assert sum(e.pages_freed for e in evictions) == pc["evicted_pages"] == 0

    def test_jsonl_round_trip(self, tmp_path):
        rec, _ = self._trace()
        dest = tmp_path / "trace.jsonl"
        write_jsonl(rec.events, dest)
        back = read_jsonl(dest)
        assert back == rec.events
        kinds = {type(e).__name__ for e in back}
        assert "PrefixCacheSample" in kinds

    def test_cache_off_traces_have_no_prefix_events(self):
        reqs = _conversations(n_conv=2, turns=2, prompt=20, decode=6)
        rec = TraceRecorder()
        ServingEngine(LLAMA_7B, FP16, max_batch=2, telemetry=rec).run(reqs)
        assert not any(
            isinstance(e, (PrefixCacheSample, PrefixEviction))
            for e in rec.events
        )


# --------------------------------------------------------------------------- #
# 4. Cache-aware preemption victim selection
# --------------------------------------------------------------------------- #
class TestCacheAwarePreemption:
    """``cache_aware_preempt=True`` prefers evicting requests whose prefix
    is already interned (their recompute is cheap: the resume re-acquires
    the cached prefix), and must stay bit-identical on the numeric path."""

    @staticmethod
    def _intern_conversation(engine, cache):
        """Intern conversation 0's opening prefill so lookups hit.

        Interning transfers pages from a live request to the cache
        account, so request 0 must hold an allocation first.
        """
        engine._allocator.allocate(0, 64)
        cache.intern_prefill(0, 64)
        engine._allocator.free(0)

    def test_victim_preference_prefers_cached_prefixes(self):
        from types import SimpleNamespace

        cache = PrefixCache(seed=0)
        engine = ServingEngine(
            LLAMA_7B, FP16, max_batch=8,
            prefix_cache=cache, cache_aware_preempt=True,
        )
        run = engine.start_run([])
        self._intern_conversation(engine, cache)
        cached = SimpleNamespace(request=Request(1, 80, 8))  # turn 1, conv 0
        fresh = SimpleNamespace(request=Request(99 * 64, 80, 8))
        assert cache.lookup(1, 80) > 0
        assert cache.lookup(99 * 64, 80) == 0
        # Default order would pick the first candidate; cache-aware picks
        # the cached one wherever it sits.
        assert run._pick_victim([fresh, cached]) is cached
        assert run._pick_victim([cached, fresh]) is cached
        # No cached candidate -> falls back to the first (stock order).
        assert run._pick_victim([fresh]) is fresh
        assert run._pick_victim([]) is None

    def test_flag_off_is_stock_order(self):
        from types import SimpleNamespace

        cache = PrefixCache(seed=0)
        engine = ServingEngine(
            LLAMA_7B, FP16, max_batch=8, prefix_cache=cache,
        )
        run = engine.start_run([])
        self._intern_conversation(engine, cache)
        cached = SimpleNamespace(request=Request(1, 80, 8))
        fresh = SimpleNamespace(request=Request(99 * 64, 80, 8))
        assert run._pick_victim([fresh, cached]) is fresh

    @pytest.mark.parametrize("model_name", ["fp", "atom"])
    def test_numeric_bit_identity_under_cache_aware_preemption(
        self, model_name, fp_model, atom_model
    ):
        """Preemption forced by a mid-run pool shrink, victims chosen
        cache-aware: every finished request still matches the generate
        oracle token for token, and teardown is clean."""
        model = fp_model if model_name == "fp" else atom_model
        scheme = "FP16" if model_name == "fp" else "Atom-W4A4"
        reqs = _conversations(n_conv=4, turns=2, prompt=24, decode=10)
        engine = _warm_engine(
            model, scheme, admission="dynamic", max_batch=4,
            shed_policy="drop", cache_aware_preempt=True,
        )
        shrink = engine._allocator.total_pages - 8
        plan = FaultPlan(
            page_faults=(
                PagePoolFault(iteration=6, delta_pages=-shrink),
                PagePoolFault(iteration=14, delta_pages=shrink),
            )
        )
        result = engine.run(reqs, faults=plan)
        assert result.preemptions > 0, "the shrink must force preemption"
        assert result.completed_requests + result.shed == len(reqs)
        _assert_oracle_identical(engine, result, reqs)
        _assert_clean_teardown(engine)

    def test_cache_aware_equals_stock_when_nothing_is_cached(self, fp_model):
        """Without a single interned prefix the flag must be a strict
        no-op: identical result, identical tokens."""
        reqs = [Request(i * 64, 20, 8) for i in range(6)]  # all distinct
        runs = []
        for flag in (False, True):
            engine = _warm_engine(
                fp_model, "FP16", admission="dynamic", max_batch=3,
                cache_aware_preempt=flag,
            )
            shrink = engine._allocator.total_pages - 6
            plan = FaultPlan(
                page_faults=(PagePoolFault(iteration=3, delta_pages=-shrink),
                             PagePoolFault(iteration=9, delta_pages=shrink)),
            )
            result = engine.run(reqs, faults=plan)
            runs.append((engine, result))
        (e0, r0), (e1, r1) = runs
        assert r0.terminal_states == r1.terminal_states
        assert r0.preemptions == r1.preemptions
        assert r0.total_time_s == r1.total_time_s
        for r in reqs:
            if r0.terminal_states[r.request_id] != "finished":
                continue
            np.testing.assert_array_equal(
                e0.backend.generated_tokens(r.request_id),
                e1.backend.generated_tokens(r.request_id),
            )
