"""Per-step model executor for the numeric serving backend.

One :class:`ModelRunner` owns the real-model side of a serving run: it
holds per-request decode state (prompt, emitted tokens, incremental KV) and
executes the engine's scheduled work — prefill chunks and single-token
decode steps — against one :class:`~repro.models.llama.LlamaModel` whose KV
lives in a shared :class:`~repro.serving.paged_kv.PagedKVStore`.

Each step is the full pipeline: embed -> decoder layer steps over gathered
pages -> final norm -> logits -> sample.  That is exactly the per-iteration
body of :meth:`LlamaModel.generate`, issued with identical shapes and
positions:

- a request's prompt is a deterministic pure function of its id
  (:func:`synthetic_prompt`), so the oracle ``generate(prompt, ...)`` can be
  reconstructed independently of any engine run;
- prefill runs ``model.forward(prompt)`` (one pass when unchunked — the
  bit-identity configuration) and the prompt-completing pass samples the
  first output token, matching the engine's token accounting;
- every decode step runs :meth:`~repro.models.llama.LlamaModel.forward_batch`,
  whose row for a request is byte-identical to
  ``model.forward([[last]], pos_offset=len-1)``;
- sampling goes through :func:`repro.models.llama.sample_token` with a
  per-request generator seeded from ``(seed, request_id)``, the same
  construction the oracle uses — so recompute-after-preemption replays the
  identical token sequence.

Paged == dense: each request's cache dict is pre-populated with per-layer
:class:`~repro.serving.paged_kv.PagedKVCache` instances (the model uses
whatever the cache dict holds, so the model object is never mutated);
appends write the same post-codec float32 values a dense
:class:`~repro.models.llama.KVCache` would hold and gathers return them
contiguous and in token order, so the attention GEMMs consume bit-identical
operands.

Scheme-agnostic: the runner executes whatever executable the scheme's
recipe built — FP16 linears, Atom's fused low-bit linears, dequantized
GPTQ weights, mixed-bit tier stacks — and the paged caches apply the
model's installed ``kv_codec`` on append, so every scheme registered in
:mod:`repro.serving.schemes` runs through this one step pipeline with no
per-scheme branches.
"""

from __future__ import annotations

import numpy as np

from repro.data.sharegpt import TURN_STRIDE
from repro.models.llama import LlamaModel, sample_token
from repro.serving.paged_kv import PagedKVCache, PagedKVStore

__all__ = [
    "ModelRunner",
    "conversation_prompt",
    "synthetic_prompt",
    "PROMPT_BLOCK",
]


def synthetic_prompt(
    request_id: int, prefill_len: int, vocab_size: int, *, seed: int = 0
) -> np.ndarray:
    """Deterministic prompt for one request: pure function of ``(seed, id)``.

    The serving workload (:mod:`repro.data.sharegpt`) specifies lengths, not
    token content; this supplies content reproducibly so an engine run and
    its per-request ``generate`` oracle agree on the input.
    """
    rng = np.random.default_rng([seed, request_id])
    return rng.integers(0, vocab_size, size=prefill_len, dtype=np.int64)


#: Tokens per conversation-stream block (see :func:`conversation_prompt`).
PROMPT_BLOCK = 64


def conversation_prompt(
    request_id: int, prefill_len: int, vocab_size: int, *, seed: int = 0
) -> np.ndarray:
    """Prompt drawn from a per-*conversation* token stream.

    Requests whose ids share a conversation (``request_id // TURN_STRIDE``,
    the ShareGPT multi-round addressing) read the same underlying infinite
    stream, so a later turn's longer prompt literally extends an earlier
    turn's prompt token-for-token — the structural property multi-round
    chat has in reality, and the hit generator the prefix cache feeds on.
    Still a pure function of ``(seed, request_id, prefill_len)``: the
    ``generate`` oracle reconstructs it with no engine state.

    The stream is materialised in :data:`PROMPT_BLOCK`-token blocks, each
    seeded ``[seed, 2, cid, block]`` (disjoint from the ``[seed, rid]``
    synthetic-prompt and ``[seed, 1, rid]`` sampling keys).
    """
    cid = request_id // TURN_STRIDE
    n_blocks = -(-max(prefill_len, 1) // PROMPT_BLOCK)
    blocks = [
        np.random.default_rng([seed, 2, cid, block]).integers(
            0, vocab_size, size=PROMPT_BLOCK, dtype=np.int64
        )
        for block in range(n_blocks)
    ]
    return np.concatenate(blocks)[:prefill_len]


class _RequestState:
    """Decode state of one in-flight request."""

    __slots__ = ("prompt", "tokens", "cache", "rng")

    def __init__(self, prompt: np.ndarray, rng: np.random.Generator) -> None:
        self.prompt = prompt
        self.tokens: list[int] = list(prompt)
        self.cache: dict = {}
        self.rng = rng


class ModelRunner:
    """Executes scheduled prefill/decode work for many concurrent requests."""

    def __init__(
        self,
        model: LlamaModel,
        *,
        page_size: int = 16,
        temperature: float = 0.0,
        seed: int = 0,
        store: PagedKVStore | None = None,
        prompts: str = "synthetic",
    ) -> None:
        if model.config.is_moe:
            raise ValueError("numeric serving covers dense models only")
        if prompts not in ("synthetic", "conversation"):
            raise ValueError(f"unknown prompt mode {prompts!r}")
        self.model = model
        self.temperature = temperature
        self.seed = seed
        self.prompts = prompts
        cfg = model.config
        self.store = store or PagedKVStore(
            cfg.n_kv_heads, cfg.head_dim, page_size=page_size
        )
        self._states: dict[int, _RequestState] = {}
        #: Final token sequences of finished requests (prompt + generated).
        self.finished_tokens: dict[int, np.ndarray] = {}
        # Derivation caches: prompts and sampling seed keys are pure
        # functions of (request_id, ...), so re-deriving them on every
        # recompute/oracle call is waste.  The cached prompt is shared (the
        # runner copies into per-request token lists and never mutates it).
        self._prompt_cache: dict[tuple[int, int], np.ndarray] = {}
        self._seed_cache: dict[int, list[int]] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def prompt_for(self, request_id: int, prefill_len: int) -> np.ndarray:
        key = (request_id, prefill_len)
        prompt = self._prompt_cache.get(key)
        if prompt is None:
            derive = (
                conversation_prompt
                if self.prompts == "conversation"
                else synthetic_prompt
            )
            prompt = derive(
                request_id,
                prefill_len,
                self.model.config.vocab_size,
                seed=self.seed,
            )
            self._prompt_cache[key] = prompt
        return prompt

    def seed_for(self, request_id: int) -> list[int]:
        """Per-request sampling seed (pass to ``generate(..., seed=...)``)."""
        key = self._seed_cache.get(request_id)
        if key is None:
            key = [self.seed, 1, request_id]
            self._seed_cache[request_id] = key
        return key

    def rng_for(self, request_id: int) -> np.random.Generator:
        """The sampling generator for one request — the identical
        ``default_rng(seed)`` construction ``generate`` performs with
        :meth:`seed_for`'s key, so oracle and engine sampling streams match."""
        return np.random.default_rng(self.seed_for(request_id))

    def start(self, request_id: int, prefill_len: int, *, lease=None) -> None:
        """(Re)initialise a request from scratch — admission or recompute.

        With a prefix-cache ``lease`` (see
        :class:`~repro.serving.prefix_cache.PrefixLease`) the per-layer KV
        caches start *borrowed*: page table seeded with the lease's shared
        page ids and length set to ``lease.kv_tokens``, so prefill resumes
        at the matched token.  Borrowed pages are read-only to this request
        — :class:`PagedKVCache` copies-on-write before any append would
        touch one — and are pinned by the lease's node refcounts, not owned
        by the request.
        """
        if request_id in self._states:
            raise KeyError(f"request {request_id} is already running")
        state = _RequestState(
            self.prompt_for(request_id, prefill_len), self.rng_for(request_id)
        )
        # Pre-populate the per-layer KV caches with paged caches over the
        # shared store; the model uses whatever the cache dict holds, so the
        # model object itself is never mutated.
        n_layers = self.model.config.n_layers
        if lease is not None and lease.kv_tokens > 0:
            if len(lease.pages) != n_layers:
                raise ValueError(
                    f"lease covers {len(lease.pages)} layers, model has {n_layers}"
                )
            state.cache = {
                f"layers.{i}.kv": PagedKVCache(
                    self.store,
                    borrowed_pages=lease.pages[i],
                    length=lease.kv_tokens,
                )
                for i in range(n_layers)
            }
        else:
            state.cache = {
                f"layers.{i}.kv": PagedKVCache(self.store)
                for i in range(n_layers)
            }
        self._states[request_id] = state

    def release(self, request_id: int, *, keep_tokens: bool = False) -> None:
        """Drop a request's state, freeing its KV pages.

        ``keep_tokens=True`` (the ``finished`` terminal state) retains the
        final token sequence in :attr:`finished_tokens`.  Unknown ids are a
        no-op: the engine also releases requests that never reached the
        backend (cancelled/timed out while still queued).
        """
        state = self._states.pop(request_id, None)
        if state is None:
            return
        if keep_tokens:
            self.finished_tokens[request_id] = np.asarray(
                state.tokens, dtype=np.int64
            )
        for kv_cache in state.cache.values():
            kv_cache.release()

    # ------------------------------------------------------------------ #
    # Execution (one engine-scheduled unit each)
    # ------------------------------------------------------------------ #
    def prefill_chunk(
        self, request_id: int, prefix_len: int, chunk: int
    ) -> int | None:
        """Run ``chunk`` prompt tokens; sample the first output token when
        the prompt completes (returns it), else ``None``."""
        state = self._states[request_id]
        prompt_len = len(state.prompt)
        if prefix_len + chunk > prompt_len:
            raise ValueError(
                f"request {request_id}: chunk [{prefix_len}, "
                f"{prefix_len + chunk}) exceeds prompt length {prompt_len}"
            )
        piece = state.prompt[prefix_len : prefix_len + chunk]
        # rowwise: position-invariant kernels, so a chunked or prefix-cache-
        # resumed prefill writes byte-identical KV/logits to a one-shot pass
        # (and to the generate oracle's own rowwise prompt pass).
        logits = self.model.forward(
            piece[None, :], pos_offset=prefix_len, cache=state.cache, rowwise=True
        )[0, -1]
        if prefix_len + chunk < prompt_len:
            return None
        nxt = sample_token(logits, self.temperature, state.rng)
        state.tokens.append(nxt)
        return nxt

    def decode_batch(self, request_ids: "list[int]") -> list[int]:
        """One fused decode step for many requests (single batched forward).

        Stacks every request's last token into one
        :meth:`~repro.models.llama.LlamaModel.forward_batch` call — one
        batched linear per projection per layer instead of a full forward
        per request — then samples each request from its own rng stream.
        Tokens and rng states are bit-identical to one ``forward`` decode
        step per request in any order (the batched path is
        batch-size-invariant and sampling is per-request).
        """
        if not request_ids:
            return []
        if len(set(request_ids)) != len(request_ids):
            raise ValueError(f"duplicate request ids in decode batch: {request_ids}")
        states = [self._states[rid] for rid in request_ids]
        last = np.asarray([s.tokens[-1] for s in states], dtype=np.int64)
        positions = np.asarray(
            [len(s.tokens) - 1 for s in states], dtype=np.int64
        )
        logits = self.model.forward_batch(
            last, positions, [s.cache for s in states]
        )
        out: list[int] = []
        for j, state in enumerate(states):
            nxt = sample_token(logits[j], self.temperature, state.rng)
            state.tokens.append(nxt)
            out.append(nxt)
        return out

    # ------------------------------------------------------------------ #
    # Introspection (tests and accounting audits)
    # ------------------------------------------------------------------ #
    def tokens(self, request_id: int) -> np.ndarray | None:
        """Token sequence (prompt + generated) of a live or finished request."""
        state = self._states.get(request_id)
        if state is not None:
            return np.asarray(state.tokens, dtype=np.int64)
        return self.finished_tokens.get(request_id)

    def context_len(self, request_id: int) -> int:
        """KV tokens written so far for one live request (layer 0's view)."""
        state = self._states[request_id]
        caches = list(state.cache.values())
        return caches[0].length if caches else 0

    def pages_held(self, request_id: int) -> int:
        """Physical pages *owned* by one live request, all layers.

        Borrowed (prefix-cache) pages are excluded: they are pinned by the
        radix tree's refcounts and outlive the request, so counting them
        here would double-book them in leak audits.
        """
        state = self._states[request_id]
        return sum(len(c.pages) - c.n_borrowed for c in state.cache.values())

    def kv_state(self, request_id: int) -> "tuple[list[list[int]], int, int]":
        """``(per-layer page tables, kv length, borrowed prefix pages)``.

        The prefix cache interns from this: the page ids a finished or
        prefill-complete request's KV lives in, in token order.  The
        borrowed count is uniform across layers (COW tracks per layer but
        divergence is token-driven, so every layer COWs the same indices).
        """
        state = self._states[request_id]
        caches = list(state.cache.values())
        tables = [list(c.pages) for c in caches]
        length = caches[0].length if caches else 0
        borrowed = caches[0].n_borrowed if caches else 0
        return tables, length, borrowed

    def live_pages(self) -> int:
        """Physical pages held across every live request (leak audits)."""
        return sum(self.pages_held(rid) for rid in self._states)

    def live_requests(self) -> set[int]:
        return set(self._states)

    def oracle_generate(
        self, request_id: int, prefill_len: int, decode_len: int
    ) -> np.ndarray:
        """Single-request reference: dense-cache ``LlamaModel.generate``.

        ``generate`` runs the ordinary dense-KV path on the same
        weights/linears/codec — this is the bit-identity oracle for
        engine-produced tokens.
        """
        return self.model.generate(
            self.prompt_for(request_id, prefill_len),
            decode_len,
            temperature=self.temperature,
            seed=self.seed_for(request_id),
        )
