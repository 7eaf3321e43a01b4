"""Radix-tree prefix cache over the paged KV store.

Multi-round conversations and shared system prompts re-prefill identical
token prefixes.  This module caches the *pages* holding those prefixes in a
content-addressed radix tree so a new request whose prompt extends a cached
prefix starts decoding from the matched token instead of position zero —
saving prefill FLOPs in the analytic roofline and real wall-clock (plus
dequant work: shared pages hold the post-codec, Atom-quantized KV) in the
numeric backend.

Structure
---------

- Each :class:`_Node` owns an *edge* of token ids (``key``) plus, per model
  layer, the physical page ids whose slots hold the KV for that span.  No
  two siblings start with the same token (the radix invariant), so lookup
  is a single root-to-leaf walk.
- Nodes hold *references* on their pages (``PagedKVStore`` refcounts — or a
  :class:`CountingPageSource` for the analytic backend, which has no
  physical storage).  A span may start mid-page; the physical page holding
  the boundary is then shared with the parent's span (one extra reference),
  and match assembly walks the path root-first so deeper nodes override the
  boundary index with the page that actually contains their tokens.
- ``refcount`` counts *live readers*: requests currently holding a
  :class:`PrefixLease` over a path through the node.  Eviction (LRU over
  leaves) only ever frees nodes with zero readers and no children, so a
  leased page can never be reclaimed mid-decode.

Copy-on-write is the borrower's job: a request's
:class:`~repro.serving.paged_kv.PagedKVCache` seeded with leased pages
duplicates the partial boundary page before its first append (see
``PagedKVCache._cow_tail``), so shared pages are never written after
interning.

Bit-identity: the model's rowwise (position-invariant) prefill kernels make
the hidden state — and therefore the cached KV — at position ``i`` a
function of tokens ``<= i`` only.  Two requests sharing a token prefix
hence compute byte-identical KV for it, so handing the borrower the
donor's pages *is* re-running its own cold prefill, bit for bit.  The test
tower in ``tests/serving/test_prefix_cache.py`` pins this end to end.

Accounting: pages interned from a live request move their budget charge
from the request to the cache account
(:meth:`PagedKVAllocator.transfer_to_cache`); split-shared boundary pages
and fabricated analytic pages are charged via ``cache_acquire``; eviction
returns pages via ``cache_release``.  Every delta is emitted under
:data:`~repro.serving.paged_kv.CACHE_ACCOUNT_ID`, so trace-level page
conservation still audits to zero.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from repro.serving.paged_kv import KVAccountingError, PagedKVAllocator
from repro.serving.telemetry import (
    NULL_TELEMETRY,
    PrefixCacheSample,
    PrefixEviction,
    Telemetry,
)

__all__ = [
    "CountingPageSource",
    "PrefixCache",
    "PrefixCacheStats",
    "PrefixLease",
]


class CountingPageSource:
    """Refcounted page-id fountain for backends with no physical storage.

    Mirrors the slice of the :class:`~repro.serving.paged_kv.PagedKVStore`
    interface the cache needs (``alloc_page``/``ref_page``/``free_page``)
    so the analytic backend's radix tree runs the identical lifecycle —
    including typed double-free detection — over synthetic ids.
    """

    def __init__(self) -> None:
        self._next = 0
        self._refs: dict[int, int] = {}

    @property
    def live_pages(self) -> int:
        return len(self._refs)

    def alloc_page(self) -> int:
        page_id = self._next
        self._next += 1
        self._refs[page_id] = 1
        return page_id

    def ref_page(self, page_id: int) -> None:
        if page_id not in self._refs:
            raise KVAccountingError("ref_page", page_id)
        self._refs[page_id] += 1

    def free_page(self, page_id: int) -> None:
        refs = self._refs.get(page_id)
        if refs is None:
            raise KVAccountingError("free_page", page_id)
        if refs > 1:
            self._refs[page_id] = refs - 1
        else:
            del self._refs[page_id]

    def page_refs(self, page_id: int) -> int:
        return self._refs.get(page_id, 0)


class _Node:
    """One radix-tree edge: a token span plus the pages holding its KV."""

    __slots__ = (
        "key",
        "start",
        "parent",
        "children",
        "pages",
        "refcount",
        "last_used",
        "donor",
    )

    def __init__(
        self,
        key: tuple,
        start: int,
        parent: "_Node | None",
        pages: "list[list[int]]",
    ) -> None:
        self.key = key
        self.start = start  # absolute token offset where `key` begins
        self.parent = parent
        self.children: dict[int, _Node] = {}
        self.pages = pages  # per layer: page ids, first covers page(start)
        self.refcount = 0  # live readers (leases pinning this path)
        self.last_used = 0
        # The live request whose pages were zero-copy transferred into this
        # node, or None once that request reached a terminal state.  While
        # the donor lives its page table still references these pages, so
        # evicting the node would free no real memory — it would only drop
        # the budget charge and under-count the pool.
        self.donor: int | None = None

    @property
    def end(self) -> int:
        return self.start + len(self.key)

    def n_pages(self) -> int:
        """Logical pages this node accounts for (uniform across layers)."""
        return len(self.pages[0]) if self.pages else 0


@dataclass
class PrefixLease:
    """A request's pinned view of a matched prefix.

    ``pages[layer]`` lists the physical page ids covering tokens
    ``[0, kv_tokens)`` in logical order — ready to seed a
    :class:`~repro.serving.paged_kv.PagedKVCache` as borrowed pages.
    ``kv_tokens`` is capped at ``prefill_len - 1``: at least one prompt
    token must still run through the model to produce first-token logits.
    """

    request_id: int
    matched_tokens: int
    kv_tokens: int
    pages: "list[list[int]]"
    nodes: "list[_Node]" = field(default_factory=list, repr=False)


@dataclass
class PrefixCacheStats:
    """Aggregate counters surfaced on ``ServingResult.prefix``."""

    lookups: int = 0
    hits: int = 0
    matched_tokens: int = 0
    kv_tokens: int = 0
    interned_pages: int = 0
    evicted_nodes: int = 0
    evicted_pages: int = 0
    shared_pages: int = 0  # held by the tree at snapshot time
    nodes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @classmethod
    def total(cls, stats: "list[PrefixCacheStats]") -> "PrefixCacheStats":
        """Field-wise sum (one cache per cluster replica)."""
        return cls(*map(sum, zip(*map(astuple, stats))))

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["hit_rate"] = self.hit_rate
        return d


class PrefixCache:
    """Content-addressed radix tree of token prefixes over shared KV pages.

    Construct once per engine run and pass to
    ``ServingEngine(..., prefix_cache=...)``; the engine binds it to its
    allocator and asks the backend for an adapter (the numeric backend
    wires the runner's prompt derivations, page tables and physical store;
    the analytic backend falls back to the built-in derivations over a
    :class:`CountingPageSource`).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        vocab_size: int = 32768,
        prompts: str = "conversation",
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if prompts not in ("synthetic", "conversation"):
            raise ValueError(f"unknown prompt mode {prompts!r}")
        self.seed = seed
        self.vocab_size = vocab_size
        self.prompts = prompts
        self.telemetry = telemetry
        self.page_size = 16
        self.n_layers = 1
        self.allocator: PagedKVAllocator | None = None
        self.source = CountingPageSource()
        self._prompt_fn = None  # (rid, prefill_len) -> np.ndarray
        self._tokens_fn = None  # (rid, prefill_len, total_kv) -> np.ndarray
        self._tables_fn = None  # (rid) -> per-layer page tables | None
        self.root = _Node((), 0, None, [[] for _ in range(1)])
        self._leases: dict[int, PrefixLease] = {}
        self._donors: dict[int, list[_Node]] = {}
        self._tick = 0
        self.stats = PrefixCacheStats()

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(self, allocator: PagedKVAllocator, backend=None) -> None:
        """Attach to an engine's allocator (and backend, if it adapts).

        Called by ``ServingEngine.__init__``.  A backend may expose
        ``prefix_adapter(cache)`` to replace the analytic defaults with its
        own token/table/page plumbing (see ``NumericBackend``).
        """
        self.allocator = allocator
        self.page_size = allocator.page_size
        if self.telemetry is NULL_TELEMETRY:
            self.telemetry = allocator.telemetry
        adapter = getattr(backend, "prefix_adapter", None)
        if adapter is not None:
            adapter(self)

    def configure(
        self,
        *,
        n_layers: int,
        source,
        prompt_fn,
        tokens_fn,
        tables_fn,
    ) -> None:
        """Backend adapter hook: replace derivations and the page source."""
        if self.root.children:
            raise ValueError("cannot reconfigure a non-empty prefix cache")
        self.n_layers = n_layers
        self.source = source
        self._prompt_fn = prompt_fn
        self._tokens_fn = tokens_fn
        self._tables_fn = tables_fn
        self.root = _Node((), 0, None, [[] for _ in range(n_layers)])

    # ------------------------------------------------------------------ #
    # Token derivations (analytic defaults; numeric overrides via adapter)
    # ------------------------------------------------------------------ #
    def _prompt(self, request_id: int, prefill_len: int) -> np.ndarray:
        if self._prompt_fn is not None:
            return self._prompt_fn(request_id, prefill_len)
        from repro.serving.model_runner import conversation_prompt, synthetic_prompt

        derive = (
            conversation_prompt if self.prompts == "conversation" else synthetic_prompt
        )
        return derive(request_id, prefill_len, self.vocab_size, seed=self.seed)

    def _full_tokens(
        self, request_id: int, prefill_len: int, total_kv: int
    ) -> np.ndarray:
        if self._tokens_fn is not None:
            return np.asarray(self._tokens_fn(request_id, prefill_len, total_kv))[
                :total_kv
            ]
        prompt = self._prompt(request_id, prefill_len)
        extra = total_kv - len(prompt)
        if extra <= 0:
            return prompt[:total_kv]
        # Pseudo "generated" tokens: the analytic backend never samples, so
        # model the divergence-after-the-prompt structure with a seeded
        # per-request stream (key disjoint from prompt/sampling keys).
        gen = np.random.default_rng([self.seed, 3, request_id]).integers(
            0, self.vocab_size, size=extra, dtype=np.int64
        )
        return np.concatenate([prompt, gen])

    # ------------------------------------------------------------------ #
    # Lookup / lease
    # ------------------------------------------------------------------ #
    def _touch(self, node: _Node) -> None:
        self._tick += 1
        node.last_used = self._tick

    def _match(self, tokens) -> "tuple[list[_Node], int]":
        """Longest-prefix walk: path of entered nodes + tokens matched."""
        node = self.root
        i = 0
        n = len(tokens)
        path: list[_Node] = []
        while i < n:
            child = node.children.get(int(tokens[i]))
            if child is None:
                break
            key = child.key
            m = 0
            limit = min(len(key), n - i)
            while m < limit and key[m] == int(tokens[i + m]):
                m += 1
            path.append(child)
            i += m
            if m < len(key):
                break
            node = child
        return path, i

    def lookup(self, request_id: int, prefill_len: int) -> int:
        """Tokens of this request's prompt the tree covers (no pinning)."""
        tokens = self._prompt(request_id, prefill_len)
        _, matched = self._match(tokens)
        return matched

    def acquire(self, request_id: int, prefill_len: int) -> PrefixLease | None:
        """Match the request's prompt; pin and lease the covered pages.

        Returns ``None`` on a miss (nothing usable cached).  On a hit the
        lease pins every node on the matched path (refcount = live
        readers) until :meth:`release`.
        """
        if request_id in self._leases:
            raise KVAccountingError("allocate", request_id)
        tokens = self._prompt(request_id, prefill_len)
        path, matched = self._match(tokens)
        kv = min(matched, prefill_len - 1)
        self.stats.lookups += 1
        self.stats.matched_tokens += matched
        pages_borrowed = 0
        lease = None
        if kv > 0:
            n_pages = -(-kv // self.page_size)
            tables: list[list[int]] = [
                [-1] * n_pages for _ in range(self.n_layers)
            ]
            for node in path:
                first = node.start // self.page_size
                for layer in range(self.n_layers):
                    for j, pid in enumerate(node.pages[layer]):
                        idx = first + j
                        if idx < n_pages:
                            tables[layer][idx] = pid
                node.refcount += 1
                self._touch(node)
            lease = PrefixLease(request_id, matched, kv, tables, list(path))
            self._leases[request_id] = lease
            self.stats.hits += 1
            self.stats.kv_tokens += kv
            pages_borrowed = n_pages
        if self.telemetry.enabled:
            self.telemetry.emit(
                PrefixCacheSample,
                request_id=request_id,
                prefill_len=prefill_len,
                matched_tokens=matched,
                kv_tokens=kv,
                pages_borrowed=pages_borrowed,
            )
        return lease

    def release(self, request_id: int) -> None:
        """Unpin a request's lease and end its donorships (idempotent).

        ``EngineRun.release`` calls this before the allocator free for
        every request leaving the batch, and admission calls it to drop the
        lease of a request it could not admit; most requests it releases
        never held a lease or donated pages.  Ending donorship makes the request's interned nodes
        eligible for eviction: its page table no longer holds the pages, so
        evicting them now genuinely frees memory.
        """
        for node in self._donors.pop(request_id, ()):
            node.donor = None
        lease = self._leases.pop(request_id, None)
        if lease is None:
            return
        for node in lease.nodes:
            if node.refcount <= 0:
                raise KVAccountingError("free_page", request_id)
            node.refcount -= 1

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def intern_prefill(self, request_id: int, prefill_len: int) -> int:
        """Intern a prefill-complete request's *full* prompt pages.

        The partial tail page stays request-owned (the request keeps
        appending into it); it joins the tree only at
        :meth:`intern_finished`, when the request stops writing.  Returns
        logical pages newly taken over by the tree.
        """
        covered = (prefill_len // self.page_size) * self.page_size
        if covered <= 0:
            return 0
        tokens = self._prompt(request_id, prefill_len)[:covered]
        return self._intern(request_id, tokens)

    def intern_finished(
        self, request_id: int, prefill_len: int, total_kv: int
    ) -> int:
        """Intern a finished request's whole KV-covered sequence.

        ``total_kv`` is prompt + generated tokens *whose KV was written*
        (the last sampled token never ran through the model).  Includes the
        partial tail page — the request is done writing, so borrowers
        diverging mid-page will copy-on-write around it.
        """
        if total_kv <= 0:
            return 0
        tokens = self._full_tokens(request_id, prefill_len, total_kv)
        return self._intern(request_id, tokens)

    def _intern(self, request_id: int, tokens) -> int:
        path, matched = self._match(tokens)
        n = len(tokens)
        if matched >= n:
            for node in path:
                self._touch(node)
            return 0
        ps = self.page_size
        attach = self.root if not path else path[-1]
        if path and matched < path[-1].end:
            # Diverged inside the last node's edge: split it at the match.
            attach = self._split(path[-1], matched)
        # Pages covering the new span [matched, n).
        first = matched // ps
        last = (n - 1) // ps
        count = last - first + 1
        tables = self._tables_fn(request_id) if self._tables_fn else None
        if tables is not None:
            pages = [list(tables[layer][first : last + 1]) for layer in range(self.n_layers)]
            if any(len(p) != count for p in pages):
                raise ValueError(
                    f"request {request_id} tables cover pages "
                    f"{[len(p) for p in pages]}, span needs {count}"
                )
            for layer_pages in pages:
                for pid in layer_pages:
                    self.source.ref_page(pid)
        else:
            pages = [
                [self.source.alloc_page() for _ in range(count)]
                for _ in range(self.n_layers)
            ]
        if self.allocator is not None:
            self.allocator.transfer_to_cache(request_id, count)
        node = _Node(tuple(int(t) for t in tokens[matched:]), matched, attach, pages)
        node.donor = request_id
        self._donors.setdefault(request_id, []).append(node)
        attach.children[int(tokens[matched])] = node
        self._touch(node)
        for p in path:
            self._touch(p)
        self.stats.interned_pages += count
        self.stats.nodes += 1
        return count

    def _split(self, node: _Node, at: int) -> _Node:
        """Split ``node``'s edge at absolute token offset ``at``.

        Creates a parent holding ``key[: at - start]``; ``node`` keeps the
        rest (and its children/refcount).  A mid-page split leaves the
        boundary physical page shared between the two — one extra
        reference per layer, one extra page on the cache account.
        """
        ps = self.page_size
        k = at - node.start
        if not 0 < k < len(node.key):
            raise ValueError(f"split point {at} outside node span")
        first = node.start // ps
        parent_last = (at - 1) // ps
        child_first = at // ps
        parent_pages = [
            layer[: parent_last - first + 1] for layer in node.pages
        ]
        child_pages = [layer[child_first - first :] for layer in node.pages]
        if parent_last == child_first:
            # Mid-page split: both halves reference the boundary page.
            for layer in node.pages:
                self.source.ref_page(layer[child_first - first])
            if self.allocator is not None:
                self.allocator.cache_acquire(1)
            self.stats.interned_pages += 1
        parent = _Node(node.key[:k], node.start, node.parent, parent_pages)
        parent.refcount = node.refcount
        parent.last_used = node.last_used
        if node.donor is not None:
            # Both halves came from the donor's page table.
            parent.donor = node.donor
            self._donors[node.donor].append(parent)
        parent.children[int(node.key[k])] = node
        node.parent.children[int(node.key[0])] = parent
        node.key = node.key[k:]
        node.start = at
        node.parent = parent
        node.pages = child_pages
        # Live leases pinning `node` conceptually pin the whole old span;
        # extend them to the new parent so neither half can be evicted.
        for lease in self._leases.values():
            if node in lease.nodes:
                lease.nodes.append(parent)
        self.stats.nodes += 1
        return parent

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def _evictable(self) -> "list[_Node]":
        out = []
        stack = list(self.root.children.values())
        while stack:
            n = stack.pop()
            if n.children:
                stack.extend(n.children.values())
            elif n.refcount == 0 and n.donor is None:
                out.append(n)
        return out

    def _evict_node(self, node: _Node) -> int:
        for layer_pages in node.pages:
            for pid in layer_pages:
                self.source.free_page(pid)
        freed = node.n_pages()
        if self.allocator is not None:
            self.allocator.cache_release(freed)
        del node.parent.children[int(node.key[0])]
        self.stats.evicted_nodes += 1
        self.stats.evicted_pages += freed
        self.stats.nodes -= 1
        return freed

    def evict_pages(self, n_target: int) -> int:
        """Free at least ``n_target`` logical pages if possible (LRU leaves).

        Only refcount-zero leaves are eligible; evicting a leaf can expose
        its parent for the next round.  Returns pages actually freed
        (possibly 0 — everything pinned — or more than asked, since nodes
        free whole spans).
        """
        freed = 0
        while freed < n_target:
            candidates = self._evictable()
            if not candidates:
                break
            victim = min(candidates, key=lambda n: n.last_used)
            freed += self._evict_node(victim)
        if freed and self.telemetry.enabled:
            self.telemetry.emit(PrefixEviction, pages_freed=freed)
        return freed

    def clear(self) -> int:
        """Evict every unpinned node (end-of-run teardown/audits)."""
        freed = 0
        while True:
            candidates = self._evictable()
            if not candidates:
                return freed
            for node in candidates:
                freed += self._evict_node(node)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def shared_pages(self) -> int:
        """Logical pages currently on the cache account (all nodes)."""
        total = 0
        stack = list(self.root.children.values())
        while stack:
            n = stack.pop()
            total += n.n_pages()
            stack.extend(n.children.values())
        return total

    def node_count(self) -> int:
        count = 0
        stack = list(self.root.children.values())
        while stack:
            n = stack.pop()
            count += 1
            stack.extend(n.children.values())
        return count

    def live_leases(self) -> "set[int]":
        return set(self._leases)

    def snapshot_stats(self) -> PrefixCacheStats:
        """Stats with current tree occupancy folded in."""
        self.stats.shared_pages = self.shared_pages()
        self.stats.nodes = self.node_count()
        return self.stats

    def check_invariants(self) -> None:
        """Structural audit used by the property/chaos tests.

        - radix: no two siblings share a first token (by construction of
          the children dict — checked here as key consistency), edges are
          non-empty, child spans start where the parent ends;
        - pages: every node covers exactly its span's logical pages, page
          tables are layer-uniform;
        - refcounts: node refcount equals the number of live leases whose
          path includes it;
        - accounting: the allocator's cache account equals the sum of node
          page counts.
        """
        pins: dict[int, int] = {}
        for lease in self._leases.values():
            for node in lease.nodes:
                pins[id(node)] = pins.get(id(node), 0) + 1
        total_pages = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root:
                if not node.key:
                    raise AssertionError("empty edge")
                if node.parent.children.get(int(node.key[0])) is not node:
                    raise AssertionError("child index broken")
                if node.start != node.parent.end:
                    raise AssertionError(
                        f"span gap: node starts {node.start}, parent ends "
                        f"{node.parent.end}"
                    )
                ps = self.page_size
                expect = (node.end - 1) // ps - node.start // ps + 1
                for layer_pages in node.pages:
                    if len(layer_pages) != expect:
                        raise AssertionError(
                            f"node covers {len(layer_pages)} pages, span "
                            f"needs {expect}"
                        )
                if node.refcount != pins.get(id(node), 0):
                    raise AssertionError(
                        f"refcount {node.refcount} != live readers "
                        f"{pins.get(id(node), 0)}"
                    )
                if node.donor is not None and node not in self._donors.get(
                    node.donor, ()
                ):
                    raise AssertionError(
                        f"donor {node.donor} not tracked for node"
                    )
                total_pages += node.n_pages()
            for tok, child in node.children.items():
                if int(child.key[0]) != tok:
                    raise AssertionError("children dict keyed off-token")
                stack.append(child)
        if self.allocator is not None and self.allocator.cache_pages != total_pages:
            raise AssertionError(
                f"allocator cache account {self.allocator.cache_pages} != "
                f"tree pages {total_pages}"
            )
