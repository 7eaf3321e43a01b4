"""vLLM-style paged KV-cache: allocator, physical page pool, per-request cache.

Atom integrates PagedAttention for efficient memory usage (§4.5): KV-cache
is allocated in fixed-size pages of ``page_size`` tokens, eliminating the
external fragmentation of contiguous per-request reservations and letting
the engine pack far larger batches — which is precisely what turns Atom's
4x KV compression into 4x more concurrent requests in Fig. 10(c).

Three layers share the page machinery:

- :class:`PagedKVAllocator` — *accounting only*: page counts against a byte
  budget.  The engine's admission/preemption decisions run on this.
- :class:`PagedKVStore` — *physical storage*: a pool of fixed-size K/V page
  arrays with a free list, shared by every request and layer of one model.
- :class:`PagedKVCache` — one (request, layer)'s logical KV sequence as a
  page table into a store.  It implements the same ``append -> live views``
  protocol as the dense :class:`repro.models.llama.KVCache`, so a
  :class:`~repro.models.llama.LlamaModel` runs over paged KV unchanged when
  the ``cache`` dict its forward is given holds these.

Paged == dense equivalence: ``append`` writes the exact float32 values the
dense cache would hold (the model applies its KV codec before appending),
and ``gather`` reads them back in token order, padded like the dense
cache's views to :func:`~repro.models.llama.key_bucket` of the last
position.  The padding is whatever finite values the pad pages hold; the
attention kernel masks it, so attention over the gathered array computes
bit-identical results to attention over the dense cache's views, which is
what makes the numeric serving backend's tokens bit-identical to
single-request ``LlamaModel.generate``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.models.llama import key_bucket
from repro.serving.telemetry import NULL_TELEMETRY, PagePoolDelta, Telemetry

__all__ = [
    "CACHE_ACCOUNT_ID",
    "KVAccountingError",
    "PagedKVAllocator",
    "PagedKVCache",
    "PagedKVStore",
]

#: Synthetic "request id" under which prefix-cache-held pages appear in
#: page-delta telemetry.  Only emitted when a prefix cache is attached, so
#: traces of cache-less runs are byte-identical to pre-cache versions.
CACHE_ACCOUNT_ID = -1


class KVAccountingError(KeyError):
    """Page-accounting violation: double allocate, double free, or an
    operation on a request the allocator has never seen.

    Subclasses :class:`KeyError` so pre-existing callers that guarded on
    ``KeyError`` keep working, but carries the request id and operation for
    precise diagnostics — a silent no-op here would let a leak or a
    double-free corrupt the pool invisibly.
    """

    def __init__(self, operation: str, request_id: int) -> None:
        self.operation = operation
        self.request_id = request_id
        if operation in ("free", "append_token"):
            msg = (
                f"KV page accounting violation: {operation} for request "
                f"{request_id} which holds no allocation"
            )
        elif operation in ("free_page", "ref_page"):
            msg = (
                f"KV page accounting violation: {operation} for page "
                f"{request_id} which is not live (double free or never "
                f"allocated)"
            )
        elif operation == "release":
            msg = (
                "KV page accounting violation: release of an already-"
                "released page table (request/layer cache freed twice)"
            )
        elif operation == "transfer_to_cache":
            msg = (
                f"KV page accounting violation: transfer_to_cache for "
                f"request {request_id} exceeds the pages it holds"
            )
        elif operation == "cache_release":
            msg = (
                "KV page accounting violation: cache_release of more pages "
                "than the prefix cache holds"
            )
        else:
            msg = (
                f"KV page accounting violation: {operation} for request "
                f"{request_id} which is already allocated"
            )
        super().__init__(msg)


class PagedKVAllocator:
    """Page-granular token allocator over a byte budget.

    When given a recording ``telemetry`` sink, every page-count change is
    emitted as a ``pages`` event (positive delta on allocate/grow, negative
    on free), so page accounting is auditable from the trace alone.
    """

    def __init__(
        self,
        budget_bytes: float,
        kv_bytes_per_token: float,
        *,
        page_size: int = 16,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        if kv_bytes_per_token <= 0:
            raise ValueError("kv_bytes_per_token must be positive")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.page_bytes = kv_bytes_per_token * page_size
        self.total_pages = int(budget_bytes // self.page_bytes)
        self.telemetry = telemetry
        self._pages: dict[int, int] = {}  # request_id -> pages held
        self._tokens: dict[int, int] = {}  # request_id -> tokens stored
        # Prefix-cache accounting: pages held by the shared radix tree (not
        # by any live request), and per-request counts of *shared* pages —
        # full pages a request reads through the cache (or transferred to
        # it) that its own charge therefore must not cover.
        self.cache_pages = 0
        self._shared: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    @property
    def used_pages(self) -> int:
        return sum(self._pages.values()) + self.cache_pages

    @property
    def free_pages(self) -> int:
        return self.total_pages - self.used_pages

    def pages_for(self, n_tokens: int) -> int:
        return math.ceil(n_tokens / self.page_size)

    def _page_delta(self, request_id: int, delta: int) -> None:
        self.telemetry.emit(
            PagePoolDelta,
            request_id=request_id,
            delta=delta,
            free_pages=self.free_pages,
        )

    # ------------------------------------------------------------------ #
    def allocate(
        self, request_id: int, n_tokens: int, *, shared_tokens: int = 0
    ) -> bool:
        """Reserve pages for a new request's first ``n_tokens``.

        ``shared_tokens`` is the prefix served out of the shared prefix
        cache: the full pages it spans are charged to the cache's own
        account, so the request only reserves what it will actually write
        (the partial boundary page, if any, stays on the request — it will
        be copy-on-write duplicated the moment the request appends).
        """
        if request_id in self._pages:
            raise KVAccountingError("allocate", request_id)
        if not 0 <= shared_tokens <= n_tokens:
            raise ValueError(
                f"shared_tokens {shared_tokens} outside [0, {n_tokens}]"
            )
        shared_pages = shared_tokens // self.page_size
        need = self.pages_for(max(n_tokens, 1)) - shared_pages
        if need > self.free_pages:
            return False
        self._pages[request_id] = need
        self._tokens[request_id] = n_tokens
        if shared_pages:
            self._shared[request_id] = shared_pages
        if self.telemetry.enabled:
            self._page_delta(request_id, need)
        return True

    def pages_needed(self, n_tokens: int, *, shared_tokens: int = 0) -> int:
        """Pages :meth:`allocate` would charge for this reservation."""
        return self.pages_for(max(n_tokens, 1)) - shared_tokens // self.page_size

    def append_token(self, request_id: int) -> bool:
        """Grow a request's cache by one decoded token (new page if full)."""
        if request_id not in self._pages:
            raise KVAccountingError("append_token", request_id)
        tokens = self._tokens[request_id] + 1
        need = self.pages_for(tokens) - self._shared.get(request_id, 0)
        extra = need - self._pages[request_id]
        if extra > self.free_pages:
            return False
        self._pages[request_id] += extra
        self._tokens[request_id] = tokens
        if extra and self.telemetry.enabled:
            self._page_delta(request_id, extra)
        return True

    def free(self, request_id: int) -> int:
        """Release a request's pages; returns how many were freed.

        Freeing an unknown or already-freed request raises
        :class:`KVAccountingError` — a double free is a pool-corruption bug,
        never a condition to paper over.  Pages previously transferred to
        the prefix cache are *not* freed here: the cache's account keeps
        them until eviction.
        """
        if request_id not in self._pages:
            raise KVAccountingError("free", request_id)
        freed = self._pages.pop(request_id)
        self._tokens.pop(request_id)
        self._shared.pop(request_id, None)
        if self.telemetry.enabled:
            self._page_delta(request_id, -freed)
        return freed

    # -- prefix-cache account ------------------------------------------- #
    def transfer_to_cache(self, request_id: int, n_pages: int) -> None:
        """Move ``n_pages`` of a live request's charge to the cache account.

        Interning a prefix hands the pages holding it to the shared radix
        tree: the request keeps reading them, but they now outlive it, so
        the budget charge moves accounts (net zero — both deltas are
        emitted so trace-level conservation audits still balance).
        """
        if n_pages == 0:
            return
        held = self._pages.get(request_id)
        if held is None:
            raise KVAccountingError("free", request_id)
        if n_pages < 0 or n_pages > held:
            raise KVAccountingError("transfer_to_cache", request_id)
        self._pages[request_id] = held - n_pages
        self._shared[request_id] = self._shared.get(request_id, 0) + n_pages
        self.cache_pages += n_pages
        if self.telemetry.enabled:
            self._page_delta(request_id, -n_pages)
            self._page_delta(CACHE_ACCOUNT_ID, n_pages)

    def cache_acquire(self, n_pages: int) -> None:
        """Charge ``n_pages`` fresh pages to the prefix-cache account."""
        if n_pages == 0:
            return
        self.cache_pages += n_pages
        if self.telemetry.enabled:
            self._page_delta(CACHE_ACCOUNT_ID, n_pages)

    def cache_release(self, n_pages: int) -> None:
        """Return ``n_pages`` from the prefix-cache account (eviction)."""
        if n_pages == 0:
            return
        if n_pages < 0 or n_pages > self.cache_pages:
            raise KVAccountingError("cache_release", CACHE_ACCOUNT_ID)
        self.cache_pages -= n_pages
        if self.telemetry.enabled:
            self._page_delta(CACHE_ACCOUNT_ID, -n_pages)

    def resize(self, delta_pages: int) -> int:
        """Grow (``delta`` > 0) or shrink (``delta`` < 0) the page pool.

        Models a changing byte budget — e.g. a fault plan stealing memory or
        a co-tenant releasing it.  Returns the delta actually applied (the
        pool never shrinks below zero pages).  Shrinking below the live page
        count is allowed and leaves :attr:`free_pages` negative; the engine
        must react by evicting requests until accounting is consistent.
        """
        new_total = max(0, self.total_pages + delta_pages)
        applied = new_total - self.total_pages
        self.total_pages = new_total
        return applied

    def utilization(self) -> float:
        """Fraction of the budget currently holding live pages."""
        if self.total_pages == 0:
            return 0.0
        return self.used_pages / self.total_pages

    def internal_fragmentation(self) -> float:
        """Fraction of allocated page capacity that is unused token slots."""
        alloc_tokens = self.used_pages * self.page_size
        if alloc_tokens == 0:
            return 0.0
        live = sum(self._tokens.values())
        return 1.0 - live / alloc_tokens


# --------------------------------------------------------------------------- #
# Physical paged storage (numeric backend)
# --------------------------------------------------------------------------- #
class PagedKVStore:
    """Shared physical page pool: fixed-size K/V pages plus a free list.

    One store backs every request and layer of one served model.  Pages are
    ``(n_kv_heads, page_size, head_dim)`` float32 blocks; the pool grows
    geometrically on exhaustion (admission control lives in the engine's
    :class:`PagedKVAllocator`, so physical capacity is an implementation
    detail, not a policy boundary).
    """

    def __init__(
        self,
        n_kv_heads: int,
        head_dim: int,
        *,
        page_size: int = 16,
        initial_pages: int = 64,
    ) -> None:
        if n_kv_heads <= 0 or head_dim <= 0:
            raise ValueError("n_kv_heads and head_dim must be positive")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if initial_pages <= 0:
            raise ValueError("initial_pages must be positive")
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.page_size = page_size
        shape = (initial_pages, n_kv_heads, page_size, head_dim)
        self._k = np.zeros(shape, dtype=np.float32)
        self._v = np.zeros(shape, dtype=np.float32)
        self._free: list[int] = list(range(initial_pages - 1, -1, -1))
        # page_id -> reference count.  A page leaves the free list with one
        # reference; sharing (the prefix cache pinning a request's page, or
        # two radix nodes spanning one physical page) adds references, and
        # the page returns to the free list only at zero.  Releasing a page
        # that is not live raises a typed error — double frees corrupt the
        # pool silently otherwise.
        self._refs: dict[int, int] = {}

    @property
    def capacity_pages(self) -> int:
        return self._k.shape[0]

    @property
    def used_pages(self) -> int:
        return self.capacity_pages - len(self._free)

    def _grow(self) -> None:
        old = self.capacity_pages
        new = max(1, old) * 2
        k = np.zeros((new, *self._k.shape[1:]), dtype=np.float32)
        v = np.zeros_like(k)
        k[:old] = self._k
        v[:old] = self._v
        self._k, self._v = k, v
        self._free.extend(range(new - 1, old - 1, -1))

    def alloc_page(self) -> int:
        """Take one page from the free list (growing the pool if empty).

        The new page starts with one reference (the allocator of the page —
        a request's page table, or a radix node for cache-fabricated
        pages).
        """
        if not self._free:
            self._grow()
        page_id = self._free.pop()
        self._refs[page_id] = 1
        return page_id

    def ref_page(self, page_id: int) -> None:
        """Add a reference to a live page (prefix-cache sharing)."""
        if page_id not in self._refs:
            raise KVAccountingError("ref_page", page_id)
        self._refs[page_id] += 1

    def free_page(self, page_id: int) -> None:
        """Drop one reference; the page is recycled at zero references.

        Raises :class:`KVAccountingError` for a page that is not live —
        releasing a shared page twice is a refcounting bug, never a no-op.
        """
        refs = self._refs.get(page_id)
        if refs is None:
            raise KVAccountingError("free_page", page_id)
        if refs > 1:
            self._refs[page_id] = refs - 1
            return
        del self._refs[page_id]
        self._free.append(page_id)

    def page_refs(self, page_id: int) -> int:
        """Current reference count of one page (0 = not live)."""
        return self._refs.get(page_id, 0)

    def page_k(self, page_id: int) -> np.ndarray:
        """Writable ``(n_kv_heads, page_size, head_dim)`` view of one K page."""
        return self._k[page_id]

    def page_v(self, page_id: int) -> np.ndarray:
        return self._v[page_id]


class PagedKVCache:
    """One (request, layer)'s KV sequence as a page table into a store.

    Implements the dense :class:`repro.models.llama.KVCache` protocol
    (``append(k_new, v_new) -> (k, v)``: the live prefix, then finite
    padding to :func:`~repro.models.llama.key_bucket` of the last position), so
    a model forward whose ``cache`` dict holds these runs its attention over
    paged storage with no other change.

    Values are stored as given: :class:`~repro.models.llama.LlamaModel`
    round-trips K/V through its codec before appending.

    Batch dimension must be 1: the serving engine schedules per-request
    caches (that is the point of paging).

    Prefix-cache integration: constructed with ``borrowed_pages`` the cache
    starts over *shared* pages it does not own — the leading
    ``n_borrowed`` entries of the page table, pinned by the radix tree's
    refcounts rather than this request.  Borrowed pages are never written:
    the first append that would land inside one copies the live slots into
    a freshly allocated page first (copy-on-write), and :meth:`release`
    returns only owned pages to the store.
    """

    __slots__ = ("store", "pages", "length", "n_borrowed", "_released")

    def __init__(
        self,
        store: PagedKVStore,
        *,
        borrowed_pages: "list[int] | None" = None,
        length: int = 0,
    ) -> None:
        self.store = store
        self.pages: list[int] = list(borrowed_pages or ())
        self.n_borrowed = len(self.pages)
        self.length = length
        self._released = False
        if self.n_borrowed:
            ps = store.page_size
            if not (self.n_borrowed - 1) * ps < length <= self.n_borrowed * ps:
                raise ValueError(
                    f"{self.n_borrowed} borrowed pages cannot hold a length-"
                    f"{length} prefix at page_size {ps}"
                )
        elif length:
            raise ValueError("non-zero length requires borrowed pages")

    # -- KVCache protocol ------------------------------------------------- #
    def append(
        self, k_new: np.ndarray, v_new: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write ``(1, kv_heads, t, head_dim)`` steps; return :meth:`gather`."""
        if k_new.shape[0] != 1:
            raise ValueError(
                f"paged KV caches are per-request (batch 1), got batch "
                f"{k_new.shape[0]}"
            )
        self._cow_tail()
        ps = self.store.page_size
        t = k_new.shape[2]
        written = 0
        while written < t:
            slot = self.length % ps
            if slot == 0:
                self.pages.append(self.store.alloc_page())
            take = min(ps - slot, t - written)
            page_id = self.pages[-1]
            # Page layout (kv_heads, page_size, head_dim) <- (1, kv, t, hd).
            self.store.page_k(page_id)[:, slot : slot + take] = k_new[
                0, :, written : written + take
            ]
            self.store.page_v(page_id)[:, slot : slot + take] = v_new[
                0, :, written : written + take
            ]
            self.length += take
            written += take
        return self.gather()

    def _cow_tail(self) -> None:
        """Copy-on-write the partial borrowed tail page before an append.

        Appends write at position :attr:`length`; if that lands mid-way
        into a *borrowed* page (only ever the last borrowed one), the live
        slots are copied into a freshly allocated owned page which replaces
        the borrowed id in this request's table.  The shared page itself is
        never touched — other readers and the radix tree keep using it.
        """
        slot = self.length % self.store.page_size
        pi = self.length // self.store.page_size
        if slot == 0 or pi >= self.n_borrowed:
            self.n_borrowed = min(self.n_borrowed, pi)
            return
        old = self.pages[pi]
        new = self.store.alloc_page()
        self.store.page_k(new)[:, :slot] = self.store.page_k(old)[:, :slot]
        self.store.page_v(new)[:, :slot] = self.store.page_v(old)[:, :slot]
        self.pages[pi] = new
        self.n_borrowed = pi

    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """``(1, kv_heads, Lp, head_dim)`` K/V: the live prefix, then finite
        padding to ``Lp = key_bucket(length - 1)`` positions."""
        ((_, k, v),) = self.gather_batch([self])
        return k, v

    # -- batched store-level operations (fused cross-request decode) ------ #
    @classmethod
    def append_batch(
        cls, caches: "list[PagedKVCache]", k_new: np.ndarray, v_new: np.ndarray
    ) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray]]":
        """Append ONE token to each of B caches with one vectorized write.

        ``k_new``/``v_new`` are ``(B, kv_heads, 1, head_dim)``; row ``j``
        goes to ``caches[j]``.  Page allocation stays a (cheap) per-cache
        loop, then every row lands in its (page, slot) through a single
        fancy-indexed store write (caches on different stores append one by
        one).  The values written are exactly those of per-cache ``append``
        calls; returns :meth:`gather_batch`.
        """
        if k_new.shape[0] != len(caches) or k_new.shape[2] != 1:
            raise ValueError(
                f"append_batch needs one (B, kv, 1, hd) token per cache, got "
                f"{k_new.shape} for {len(caches)} caches"
            )
        store = caches[0].store
        if any(c.store is not store for c in caches):
            for j, c in enumerate(caches):
                c.append(k_new[j : j + 1], v_new[j : j + 1])
            return cls.gather_batch(caches)
        ps = store.page_size
        page_ids = np.empty(len(caches), dtype=np.intp)
        slots = np.empty(len(caches), dtype=np.intp)
        # Allocate first (alloc_page may grow, i.e. reallocate, the pool
        # arrays), index the store only once allocation is settled.
        for j, cache in enumerate(caches):
            cache._cow_tail()
            slot = cache.length % ps
            if slot == 0:
                cache.pages.append(store.alloc_page())
            page_ids[j] = cache.pages[-1]
            slots[j] = slot
            cache.length += 1
        store._k[page_ids, :, slots] = k_new[:, :, 0, :]
        store._v[page_ids, :, slots] = v_new[:, :, 0, :]
        return cls.gather_batch(caches)

    @classmethod
    def gather_batch(
        cls, caches: "list[PagedKVCache]"
    ) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray]]":
        """Gather B caches grouped by key bucket, straight from the pool.

        Returns one ``(rows, k, v)`` per (store, ``Lp``) group in
        first-occurrence order: ``rows`` indexes ``caches``, and ``k``/``v``
        are ``(len(rows), kv_heads, Lp, head_dim)`` with ``Lp =
        key_bucket(length - 1)``.  Each group is one fancy-indexed read over
        its page tables padded to ``ceil(Lp / page_size)`` pages with page
        0, whose (finite) contents only ever land in masked positions.
        """
        groups: dict = {}
        for j, cache in enumerate(caches):
            key = (cache.store, key_bucket(cache.length - 1))
            groups.setdefault(key, []).append(j)
        out = []
        for (store, lp), rows in groups.items():
            table = np.zeros((len(rows), 1, -(-lp // store.page_size)), dtype=np.intp)
            for i, j in enumerate(rows):
                table[i, 0, : len(caches[j].pages)] = caches[j].pages
            # Indexing pages and heads together lays each head's tokens out
            # contiguously: (rows, kv_heads, pages * page_size, head_dim).
            idx = (table, np.arange(store.n_kv_heads)[:, None])
            shape = (len(rows), store.n_kv_heads, -1, store.head_dim)
            k, v = store._k[idx].reshape(shape), store._v[idx].reshape(shape)
            out.append((np.asarray(rows), k[:, :, :lp], v[:, :, :lp]))
        return out

    def release(self) -> int:
        """Return every *owned* page to the store; returns how many.

        Borrowed (prefix-cache) pages are left alone — the radix tree's
        references keep them live.  Releasing twice raises
        :class:`KVAccountingError`: the first call already handed the pages
        back, so a second is a double free of shared storage.
        """
        if self._released:
            raise KVAccountingError("release", CACHE_ACCOUNT_ID)
        n = len(self.pages) - self.n_borrowed
        for page_id in self.pages[self.n_borrowed :]:
            self.store.free_page(page_id)
        self.pages.clear()
        self.length = 0
        self.n_borrowed = 0
        self._released = True
        return n
