"""Continuous-batching serving engine over simulated time (§5.3.2).

Mechanics mirror the paper's serving setup:

- requests are served **FCFS**; when one finishes, the next pending request
  refills the on-the-fly batch (Orca-style continuous batching);
- prefill and decode tokens of one iteration are **batched together** into
  the dense-layer GEMMs (§3, Patel et al. 2023);
- decode self-attention streams each request's own KV-cache (no batching
  benefit, §3);
- KV memory is managed by a paged allocator; weights + KV must fit the
  GPU's capacity, which caps the achievable batch per scheme — the
  mechanism behind Fig. 10(c).

Two admission policies are provided:

``"reserve"`` (default)
    A request is admitted only if pages for its FULL lifetime
    (prompt + generation) are available.  Conservative, preemption-free.
``"dynamic"``
    vLLM-style: admit with pages for the prompt only, grow the cache one
    token at a time, and on out-of-memory *preempt* the most recently
    admitted request (free its pages and recompute it later).  Packs larger
    batches early at the cost of occasional recomputation.

Each iteration's duration comes from the analytic kernels of
:mod:`repro.serving.kernels`; the engine advances a simulated clock and
collects throughput, per-token decode latency, and time-to-first-token.

Failure model & graceful degradation
------------------------------------

Every request ends in exactly one **terminal state** (recorded in
``ServingResult.terminal_states``):

``finished``
    All decode tokens delivered.  Only these count toward throughput.
``timed_out``
    Missed its deadline, queued or in-flight; its pages are released
    immediately.  A request's deadline is its entry in the run's
    :attr:`RunLedger.deadlines`, else the engine's ``deadline_s``.
``cancelled``
    Abandoned by the client (injected via a
    :class:`~repro.serving.faults.FaultPlan`), queued or in-flight.
``shed``
    Load-shed: its KV reservation can never fit the page pool.  With the
    default ``shed_policy="raise"`` this raises a typed :class:`ShedError`
    (pre-existing behaviour, now typed); with ``shed_policy="drop"`` the
    request is dropped and serving continues.

Fault injection threads through ``run(requests, faults=...)``: a
:class:`~repro.serving.faults.FaultPlan` (or prebuilt ``FaultInjector``)
shrinks/restores the page pool, cancels requests, stretches iteration
times (stragglers), and makes allocator calls fail transiently.  Transient
allocator failures are retried with exponential backoff
(``max_alloc_retries`` / ``backoff_base_s``); if the failure persists the
engine falls back to victim-selection preemption and recomputes the victim
on resume — the PagedAttention recovery story.  With ``faults=None`` every
fault hook is skipped and the run is bit-identical to an engine without
this machinery.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.data.sharegpt import Request
from repro.serving.backend import (
    AnalyticBackend,
    DecodeSlot,
    ExecutionBackend,
    PrefillChunk,
)
from repro.serving.faults import FaultInjector, FaultPlan
from repro.serving.hardware import GPUSpec, RTX_4090
from repro.serving.models import ServingModelSpec
from repro.serving.paged_kv import PagedKVAllocator
from repro.serving.parallel import TPConfig, validate_shardable
from repro.serving.prefix_cache import PrefixCacheStats
from repro.serving.schemes import QuantScheme
from repro.serving.telemetry import (
    NULL_TELEMETRY,
    TIME_BREAKDOWN_KEYS,
    FaultInjected,
    IterationSample,
    RequestAdmitted,
    RequestCancelled,
    RequestFinished,
    RequestPreempted,
    RequestShed,
    RequestTimedOut,
    SLOSummary,
    Telemetry,
    weighted_mean,
    weighted_percentile,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.serving.prefix_cache import PrefixCache

__all__ = [
    "EngineRun",
    "RunLedger",
    "ServingEngine",
    "ServingResult",
    "ShedError",
    "TERMINAL_STATES",
]

# Workspace reserved for activations / scratch beyond weights and KV.
_WORKSPACE_BYTES = 1.0e9

#: The terminal-state lattice: every request ends in exactly one of these.
#: ``failed`` is cluster-only (re-route retry budget exhausted after replica
#: failures); a single-engine run never produces it.
TERMINAL_STATES = ("finished", "timed_out", "cancelled", "shed", "failed")

#: The event each release reason reports.  A shed reports
#: :class:`RequestShed` itself, with the pages it needed, not those it freed.
_RELEASE_EVENTS = {
    "preempted": RequestPreempted,
    "cancelled": RequestCancelled,
    "timed_out": RequestTimedOut,
    "finished": RequestFinished,
}


class ShedError(RuntimeError):
    """A request can never be admitted: its KV reservation exceeds the pool.

    Subclasses :class:`RuntimeError` (the pre-typed behaviour) so existing
    ``except RuntimeError`` callers keep working, and carries the request id
    plus required/available pages so callers can size budgets or reroute.
    """

    def __init__(
        self, request_id: int, pages_required: int, pages_total: int
    ) -> None:
        self.request_id = request_id
        self.pages_required = pages_required
        self.pages_total = pages_total
        super().__init__(
            f"cannot admit request {request_id}: needs {pages_required} KV "
            f"pages but the pool has {pages_total} in total "
            f"(KV budget too small for its tokens)"
        )


@dataclass
class ServingResult:
    """Aggregate metrics of one serving run, built by :func:`aggregate_runs`.

    The per-state counts (``completed_requests``, ``timed_out``,
    ``cancelled``, ``shed``, ``failed``) and ``terminal_states`` come from
    the run's terminal ledger (:class:`RunLedger`).
    """

    scheme: str
    requested_batch: int
    achieved_batch: float  # mean decode batch occupancy
    max_batch: int  # peak concurrent requests actually reached
    throughput_tokens_per_s: float
    mean_decode_latency_s: float
    p99_decode_latency_s: float
    mean_ttft_s: float  # time to first token (queueing + prefill)
    total_time_s: float
    decode_tokens: int
    completed_requests: int
    preemptions: int
    memory_limited: bool  # True if the memory cap bound the batch
    weights_gb: float
    kv_budget_gb: float
    time_breakdown: dict[str, float] = field(default_factory=dict)
    # -- degradation / fault accounting (all zero on a fault-free run) --- #
    iterations: int = 0
    timed_out: int = 0
    cancelled: int = 0
    shed: int = 0
    alloc_retries: int = 0  # backoff retries spent on transient alloc faults
    faults_injected: int = 0  # page-shrink/straggler/alloc-fail events fired
    #: request_id -> terminal state (one entry per request, always).
    terminal_states: dict[int, str] = field(default_factory=dict)
    #: Which execution backend produced the run ("analytic" or "numeric").
    backend: str = "analytic"
    #: Decode batch-occupancy histogram: ``{batch_size: iterations}`` over
    #: every iteration that decoded at least one token.  Summarizes how
    #: much cross-request fusion the schedule actually achieved.
    decode_batch_hist: dict[int, int] = field(default_factory=dict)
    #: TTFT/TBT/goodput-under-SLO aggregation; filled by the open-loop
    #: front-end (:mod:`repro.serving.frontend`), ``None`` for closed-loop.
    slo: "SLOSummary | None" = None
    #: Prefix-cache counters (hit rate, shared pages, evictions — see
    #: :class:`~repro.serving.prefix_cache.PrefixCacheStats`); ``None``
    #: when the run had no prefix cache attached.
    prefix_cache: "dict | None" = None
    # -- cluster accounting (zero / None outside ClusterEngine runs) ----- #
    #: Requests whose re-route retry budget was exhausted (terminal state
    #: ``failed``).
    failed: int = 0
    #: Re-route events: requests returned to the cluster queue by fencing.
    rerouted: int = 0
    #: Cluster-aggregate payload (per-replica states, routed/lost counts,
    #: fired replica faults); ``None`` for single-engine runs.
    cluster: "dict | None" = None

    def summary(self) -> str:
        return (
            f"{self.scheme:10s} [{self.backend}] "
            f"batch={self.requested_batch:4d} "
            f"(ach {self.achieved_batch:6.1f}) "
            f"tput={self.throughput_tokens_per_s:9.1f} tok/s  "
            f"lat={self.mean_decode_latency_s * 1e3:7.2f} ms"
            f"{'  [mem-limited]' if self.memory_limited else ''}"
        )


class _Active:
    """Book-keeping for one in-flight request."""

    __slots__ = ("request", "context_len", "generated", "prefilled")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.context_len = request.prefill_len
        self.generated = 0
        self.prefilled = 0  # prompt tokens processed so far

    @property
    def prefill_done(self) -> bool:
        return self.prefilled >= self.request.prefill_len

    @property
    def done(self) -> bool:
        return self.prefill_done and self.generated >= self.request.decode_len


class ServingEngine:
    """FCFS continuous-batching simulator for one (model, scheme, GPU).

    ``deadline_s`` is the default absolute deadline (simulated seconds) of
    every request the run's :attr:`RunLedger.deadlines` has no entry for;
    ``None`` leaves such requests without one.
    """

    def __init__(
        self,
        spec: ServingModelSpec,
        scheme: QuantScheme,
        *,
        gpu: GPUSpec = RTX_4090,
        max_batch: int = 64,
        page_size: int = 16,
        enforce_memory: bool = True,
        admission: str = "reserve",
        tp: TPConfig | None = None,
        prefill_chunk: int | None = None,
        telemetry: Telemetry | None = None,
        deadline_s: "float | None" = None,
        shed_policy: str = "raise",
        max_alloc_retries: int = 3,
        backoff_base_s: float = 1e-3,
        stall_limit: int = 1000,
        backend: "ExecutionBackend | None" = None,
        prefix_cache: "PrefixCache | None" = None,
        cache_aware_preempt: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if admission not in ("reserve", "dynamic"):
            raise ValueError(f"unknown admission policy: {admission!r}")
        if prefill_chunk is not None and prefill_chunk < 1:
            raise ValueError("prefill_chunk must be >= 1 (or None)")
        if shed_policy not in ("raise", "drop"):
            raise ValueError(f"unknown shed policy: {shed_policy!r}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if max_alloc_retries < 0:
            raise ValueError("max_alloc_retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if stall_limit < 1:
            raise ValueError("stall_limit must be >= 1")
        self.spec = spec
        self.scheme = scheme
        self.gpu = gpu
        self.max_batch = max_batch
        self.enforce_memory = enforce_memory
        self.admission = admission
        self.tp = tp
        self.prefill_chunk = prefill_chunk
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.deadline_s = deadline_s
        self.shed_policy = shed_policy
        self.max_alloc_retries = max_alloc_retries
        self.backoff_base_s = backoff_base_s
        self.stall_limit = stall_limit
        degree = tp.degree if tp else 1
        if tp:
            validate_shardable(spec, degree)
        # Per-GPU memory accounting: weights and KV shard across the group.
        self.weights_bytes = (
            spec.n_params() * scheme.weight_bytes_per_param / degree
        )
        kv_budget = gpu.capacity_bytes - self.weights_bytes - _WORKSPACE_BYTES
        if enforce_memory and kv_budget <= 0:
            raise ValueError(
                f"{spec.name} weights at {scheme.name} exceed {gpu.name} memory"
            )
        if not enforce_memory:
            # Fig. 10's dashed lines: estimated performance beyond capacity.
            kv_budget = max(kv_budget, 1e12)
        self.kv_budget = kv_budget
        self._allocator = PagedKVAllocator(
            kv_budget,
            spec.kv_bytes_per_token(scheme.kv_bits) / degree,
            page_size=page_size,
            telemetry=self.telemetry,
        )
        # Execution strategy: the engine schedules, the backend executes.
        self.backend = backend if backend is not None else AnalyticBackend()
        self.backend.bind(spec, scheme, gpu, tp)
        # Share the engine's sink so backends can emit execution-side events
        # (e.g. the numeric backend's per-step BatchedDecodeSample).
        self.backend.telemetry = self.telemetry
        # Optional radix-tree prefix cache: binds to this engine's allocator
        # (page accounting) and lets the backend adapt it to its own token /
        # page-table plumbing.  None leaves every step() hook untouched, so
        # cache-less runs are bit-identical to pre-cache engines.
        self.prefix_cache = prefix_cache
        if prefix_cache is not None:
            prefix_cache.bind(self._allocator, self.backend)
        # Cache-aware victim selection: prefer preempting requests whose
        # prompt prefix is interned in the cache (their recompute resumes
        # from shared KV, so eviction throws away the least work).  Off by
        # default — the flag must not perturb existing victim order.
        self.cache_aware_preempt = cache_aware_preempt

    # ------------------------------------------------------------------ #
    def reserve_tokens(self, request: Request) -> int:
        """KV tokens an admission reserves: the request's full lifetime
        under ``reserve`` admission, its prompt plus one decode token under
        ``dynamic``."""
        if self.admission == "reserve":
            return request.total_len
        return request.prefill_len + 1

    def max_reserve_pages(self) -> int:
        """Largest admissible reservation in pages.  Under dynamic
        admission one page of decode slack must remain after it."""
        return self._allocator.total_pages - (
            1 if self.admission == "dynamic" else 0
        )

    def start_run(
        self,
        requests: list[Request],
        *,
        faults: "FaultPlan | FaultInjector | None" = None,
    ) -> "EngineRun":
        """Begin an incremental run; the caller drives it with ``step()``.

        This is the open-loop entry point: the front-end injects arrivals
        into :attr:`EngineRun.pending` between steps and idles the virtual
        clock across arrival gaps.  ``ServingEngine.run`` is exactly
        ``start_run`` driven to completion.
        """
        if faults is None:
            injector = None
        elif isinstance(faults, FaultPlan):
            injector = FaultInjector(faults)
        else:
            injector = faults
        return EngineRun(self, requests, injector)

    def run(
        self,
        requests: list[Request],
        *,
        faults: "FaultPlan | FaultInjector | None" = None,
    ) -> ServingResult:
        """Serve ``requests`` to completion; returns aggregate metrics.

        ``faults`` optionally injects a deterministic fault timeline (see
        :mod:`repro.serving.faults`).  A :class:`FaultPlan` is wrapped in a
        fresh :class:`FaultInjector` so the run is replayable; ``None``
        (the default) skips every fault hook entirely.
        """
        state = self.start_run(requests, faults=faults)
        while state.active:
            state.step()
        return state.result()


class RunLedger:
    """The per-request record of one run: deadlines, admissions, first
    tokens and the one terminal state each request reaches.

    A cluster run shares its ledger with every replica run it starts, so
    each record is written once, by the run that saw it happen, and a
    deadline registered on the run holds on every replica.  The engine
    reads back only :attr:`deadlines`; the open-loop front-end observes
    per-step deltas through the append-only logs, and
    :func:`aggregate_runs` counts terminal states from it.
    """

    def __init__(self) -> None:
        #: request_id -> absolute deadline (simulated seconds), overriding
        #: the engine's ``deadline_s`` default for that request.
        self.deadlines: dict[int, float] = {}
        self.admission_log: list[tuple[int, float]] = []
        self.terminal_log: list[tuple[int, str]] = []
        self.terminal: dict[int, str] = {}
        self.first_token_s: dict[int, float] = {}
        self.finish_s: dict[int, float] = {}

    def terminate(self, request_id: int, state: str, t: float) -> None:
        """Record ``state`` as the request's terminal state, at time ``t``."""
        # Run-wide invariant: exactly one terminal state per request.
        if request_id in self.terminal:  # pragma: no cover - internal bug trap
            raise AssertionError(
                f"request {request_id} reached a second terminal state "
                f"{state!r} after {self.terminal[request_id]!r}"
            )
        self.terminal[request_id] = state
        self.terminal_log.append((request_id, state))
        self.finish_s[request_id] = t


class EngineRun:
    """Mutable state of one serving run, advanced one iteration per ``step``.

    A closed-loop drive (``while active: step()``) is ``ServingEngine.run``.
    The open-loop front-end (:mod:`repro.serving.frontend`) interleaves
    ``step()`` with arrival injection into :attr:`pending`, and
    :meth:`advance_clock` idles across arrival gaps.  Per-request records
    go to :attr:`ledger`.
    """

    def __init__(
        self,
        engine: ServingEngine,
        requests: list[Request],
        injector: "FaultInjector | None",
    ) -> None:
        self.engine = engine
        self.telemetry = engine.telemetry
        self.injector = injector
        self.ledger = RunLedger()
        self.pending: deque[Request] = deque(requests)
        self.running: list[_Active] = []
        self.iteration = 0
        self.clock = 0.0
        self.decode_tokens = 0
        self.delivered_tokens = 0
        self.preemptions = 0
        self.latencies: list[tuple[float, int]] = []  # (iter time, decode n)
        self.ttfts: list[float] = []
        self.occupancy: list[int] = []
        self.peak_batch = 0
        self.memory_limited = False
        self.breakdown = dict.fromkeys(TIME_BREAKDOWN_KEYS, 0.0)
        self.alloc_retries = 0
        self.faults_injected = 0
        self.stall = 0  # consecutive zero-progress iterations (liveness)

    # The ledger's logs, read off the run by wall-clock drivers.
    admission_log = property(lambda self: self.ledger.admission_log)
    terminal_log = property(lambda self: self.ledger.terminal_log)
    first_token_s = property(lambda self: self.ledger.first_token_s)

    @property
    def active(self) -> bool:
        """True while there is queued or in-flight work."""
        return bool(self.pending or self.running)

    def advance_clock(self, t: float) -> None:
        """Idle-advance the virtual clock (open-loop arrival gaps).

        Only legal forward in time; the engine never calls this itself, so
        closed-loop runs are unaffected.
        """
        if t < self.clock:
            raise ValueError(
                f"clock may not move backwards ({t} < {self.clock})"
            )
        self.clock = t
        self.telemetry.set_clock(t)

    # ------------------------------------------------------------------ #
    def _end(
        self,
        request_id: int,
        state: str,
        *,
        in_flight: bool = False,
        pages_required: int = 0,
    ) -> None:
        """End a request in terminal ``state``; the only terminal path.

        In flight, :meth:`release` frees its pages (and reports the reason)
        before the terminal is recorded; queued, the terminal is recorded
        and then the reason's event reports ``pages_freed=0``.  A shed
        reports :class:`RequestShed` with the pages it needed instead.
        Taking the request out of the batch or the queue stays with the
        caller.
        """
        if in_flight:
            self.release(request_id, state)
        self.ledger.terminate(request_id, state, self.clock)
        if state == "shed":
            self.telemetry.emit(
                RequestShed,
                request_id=request_id,
                pages_required=pages_required,
                pages_total=self.engine._allocator.total_pages,
            )
        elif not in_flight:
            self.telemetry.emit(
                _RELEASE_EVENTS[state], request_id=request_id, pages_freed=0
            )

    def _end_where(self, state: str, doomed) -> None:
        """End every in-flight, then every queued, request whose id
        satisfies ``doomed``."""
        for a in [a for a in self.running if doomed(a.request.request_id)]:
            self.running.remove(a)
            self._end(a.request.request_id, state, in_flight=True)
        for r in [r for r in self.pending if doomed(r.request_id)]:
            self.pending.remove(r)
            self._end(r.request_id, state)

    def release(self, request_id: int, reason: str) -> int:
        """Return a live request's KV pages; the only release path.

        Unpins its prefix-cache lease, frees its allocator pages, tells the
        backend why (``preempted`` / ``cancelled`` / ``timed_out`` /
        ``shed`` / ``finished``), then emits the reason's event.  Taking the
        request out of the batch, and its terminal or requeue bookkeeping,
        stay with the caller.  Returns the pages freed.
        """
        engine = self.engine
        if engine.prefix_cache is not None:
            engine.prefix_cache.release(request_id)
        freed = engine._allocator.free(request_id)
        engine.backend.on_release(request_id, reason)
        event = _RELEASE_EVENTS.get(reason)
        if event is not None:
            self.telemetry.emit(
                event, request_id=request_id, pages_freed=freed
            )
        return freed

    def _preempt(self, victim: "_Active") -> None:
        """Release ``victim`` for recompute: it rejoins the queue head."""
        self.release(victim.request.request_id, "preempted")
        self.pending.appendleft(victim.request)
        self.preemptions += 1

    def _pick_victim(self, candidates) -> "_Active | None":
        """Choose a preemption victim from newest-first ``candidates``.

        Default: the first candidate — the most recently admitted request
        (vLLM recompute preemption).  With ``cache_aware_preempt`` and a
        prefix cache attached, prefer the newest candidate whose prompt
        prefix is interned in the cache: its recompute resumes from shared
        KV, so evicting it throws away the least unrecoverable work.  The
        probe uses the cache's side-effect-free ``lookup`` so victim
        selection never perturbs cache stats or LRU order.
        """
        cands = list(candidates)
        if not cands:
            return None
        engine = self.engine
        cache = engine.prefix_cache
        if engine.cache_aware_preempt and cache is not None:
            for c in cands:
                req = c.request
                if cache.lookup(req.request_id, req.prefill_len) > 0:
                    return c
        return cands[0]

    def _alloc_blocked(self) -> bool:
        """Consult the injector before an allocator call.

        Returns True if an injected transient failure persisted through
        ``max_alloc_retries`` exponential-backoff retries (each retry
        adds simulated wait to the clock); False if the call may
        proceed (no fault, or a retry succeeded).
        """
        engine, injector = self.engine, self.injector
        if injector is None or not injector.alloc_attempt_fails():
            return False
        self.faults_injected += 1
        blocked = True
        retries = 0
        while retries < engine.max_alloc_retries:
            self.clock += engine.backoff_base_s * (2.0**retries)
            retries += 1
            self.alloc_retries += 1
            if not injector.alloc_attempt_fails():
                blocked = False
                break
        self.telemetry.set_clock(self.clock)
        self.telemetry.emit(
            FaultInjected, kind="alloc_fail", value=float(retries)
        )
        return blocked

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Run exactly one engine iteration (one pass of the serve loop)."""
        engine = self.engine
        alloc = engine._allocator
        cache = engine.prefix_cache
        tel = self.telemetry
        injector = self.injector
        pending = self.pending
        running = self.running
        tel.begin_iteration(self.iteration, self.clock)

        # --- Fault hooks: page-pool resize and cancellations.
        if injector is not None:
            delta = injector.page_pool_delta(self.iteration)
            if delta:
                applied = alloc.resize(delta)
                if applied:
                    self.faults_injected += 1
                    tel.emit(
                        FaultInjected, kind="page_shrink", value=float(applied)
                    )
                # A shrink below live usage evicts the newest requests
                # until accounting is consistent (recompute-on-resume) —
                # after reclaiming unpinned prefix-cache pages first:
                # cached prefixes are recomputable for free, live requests
                # are not.
                if cache is not None and alloc.free_pages < 0:
                    cache.evict_pages(-alloc.free_pages)
                while alloc.free_pages < 0 and running:
                    victim = self._pick_victim(reversed(running))
                    running.remove(victim)
                    self._preempt(victim)
                    self.memory_limited = True
            for rid in injector.cancellations(self.iteration):
                self._end_where("cancelled", lambda x, rid=rid: x == rid)

        # --- Deadline sweep: queued or in-flight requests past their
        # deadline reach the timed_out terminal state.
        deadlines, default = self.ledger.deadlines, engine.deadline_s
        if deadlines or default is not None:
            default = float("inf") if default is None else default
            self._end_where(
                "timed_out",
                lambda rid: self.clock > deadlines.get(rid, default),
            )

        if not pending and not running:
            return  # cancellations/deadlines drained everything

        # --- Admission: refill the batch FCFS.
        while pending and len(running) < engine.max_batch:
            nxt = pending[0]
            reserve = engine.reserve_tokens(nxt)
            # Prefix-cache lookup: a hit pins the matched pages (lease) and
            # shrinks the reservation — full pages served out of the tree
            # are charged to the cache account, not this request.  The
            # lease must be released on every non-admission path below.
            lease = (
                cache.acquire(nxt.request_id, nxt.prefill_len)
                if cache is not None
                else None
            )
            shared = lease.kv_tokens if lease is not None else 0
            if engine.admission == "dynamic":
                # Watermark: keep enough free pages for one decode round
                # of every in-flight request, or admission starves decode
                # into a preempt/recompute livelock.
                slack_after = alloc.free_pages - alloc.pages_needed(
                    reserve, shared_tokens=shared
                )
                if slack_after < len(running) + 1:
                    if lease is not None:
                        cache.release(nxt.request_id)
                    self.memory_limited = bool(running)
                    break
            if self._alloc_blocked():
                if lease is not None:
                    cache.release(nxt.request_id)
                break
            if not alloc.allocate(
                nxt.request_id, reserve, shared_tokens=shared
            ):
                # Reclaim unpinned cached prefixes before giving up: the
                # tree's pages are recomputable, queued work is not.
                short = (
                    alloc.pages_needed(reserve, shared_tokens=shared)
                    - alloc.free_pages
                )
                if (
                    cache is None
                    or cache.evict_pages(short) < short
                    or not alloc.allocate(
                        nxt.request_id, reserve, shared_tokens=shared
                    )
                ):
                    if lease is not None:
                        cache.release(nxt.request_id)
                    self.memory_limited = True
                    break
            if tel.enabled:
                tel.emit(
                    RequestAdmitted,
                    request_id=nxt.request_id,
                    prefill_len=nxt.prefill_len,
                    decode_len=nxt.decode_len,
                    pages=alloc.pages_needed(reserve, shared_tokens=shared),
                )
            pending.popleft()
            act = _Active(nxt)
            if lease is not None:
                # Prefill resumes at the matched token: the lease's pages
                # already hold KV for [0, kv_tokens), so only the remainder
                # of the prompt runs through the model.
                act.prefilled = lease.kv_tokens
            running.append(act)
            if lease is not None:
                engine.backend.on_admit(nxt, lease=lease)
            else:
                engine.backend.on_admit(nxt)
            self.ledger.admission_log.append((nxt.request_id, self.clock))
        if not running:
            # Nothing in flight and the queue head could not be
            # admitted.  Decide between permanent (shed) and transient
            # (back off and retry) failure.
            nxt = pending[0]
            need = alloc.pages_for(engine.reserve_tokens(nxt))
            if need > engine.max_reserve_pages():
                if engine.shed_policy == "drop":
                    pending.popleft()
                    self._end(nxt.request_id, "shed", pages_required=need)
                    self.iteration += 1
                    return
                raise ShedError(nxt.request_id, need, alloc.total_pages)
            # Transient blockage (injected allocator failure, or a
            # shrunken pool that a later fault may restore): back off
            # and retry, shedding the head request if the stall
            # persists so the queue is guaranteed to drain.
            self.stall += 1
            if self.stall > engine.stall_limit:
                pending.popleft()
                self._end(nxt.request_id, "shed", pages_required=need)
                self.stall = 0
            else:
                self.clock += engine.backoff_base_s * min(
                    2.0**self.stall, 1024.0
                )
                tel.set_clock(self.clock)
            self.iteration += 1
            return

        # --- Split the batch into prefilling and decoding requests.
        prefilling = [a for a in running if not a.prefill_done]
        decoding = [a for a in running if a.prefill_done]

        # --- Grow caches for this iteration's decode (dynamic mode).
        if engine.admission == "dynamic" and decoding:
            order = [a for a in running if a.prefill_done]  # oldest first
            preempted: set[int] = set()
            appended: set[int] = set()
            survivors: list[_Active] = []
            for a in order:
                rid = a.request.request_id
                if rid in preempted:
                    continue
                while True:
                    blocked = self._alloc_blocked()
                    if not blocked and alloc.append_token(rid):
                        break
                    # Genuinely out of pages: evict unpinned prefix-cache
                    # entries (LRU) before resorting to preemption — a
                    # cached prefix is recomputable, a victim's decode
                    # progress is real work thrown away.
                    if (
                        not blocked
                        and cache is not None
                        and cache.evict_pages(1)
                    ):
                        continue
                    # Out of pages (or a persistent transient fault):
                    # preempt the most recently admitted request whose
                    # cache has not grown this iteration (vLLM recompute
                    # preemption), else preempt `a`.
                    picked = self._pick_victim(
                        c
                        for c in reversed(order)
                        if c is not a
                        and c.request.request_id not in preempted
                        and c.request.request_id not in appended
                    )
                    victim = picked if picked is not None else a
                    if (
                        victim is a
                        and len(order) == 1
                        and not prefilling
                        and not blocked
                    ):
                        # Recomputing a lone request cannot make progress:
                        # its full lifetime exceeds the KV budget.
                        need = alloc.pages_for(a.request.total_len)
                        if engine.shed_policy == "drop":
                            self._end(
                                rid, "shed", in_flight=True, pages_required=need
                            )
                            preempted.add(rid)  # excluded from survivors
                            break
                        raise ShedError(rid, need, alloc.total_pages)
                    self._preempt(victim)
                    preempted.add(victim.request.request_id)
                    if not blocked:
                        self.memory_limited = True
                    if victim is a:
                        break
                if rid not in preempted:
                    appended.add(rid)
                    survivors.append(a)
            decoding = survivors
            running = prefilling + survivors
            self.running = running

        # --- One batched iteration (Sarathi-style: prefill chunks and
        # decode tokens share the dense GEMMs).
        decode_batch = len(decoding)
        chunks: list[tuple[_Active, int]] = []
        for a in prefilling:
            remaining = a.request.prefill_len - a.prefilled
            chunk = (
                remaining
                if engine.prefill_chunk is None
                else min(engine.prefill_chunk, remaining)
            )
            chunks.append((a, chunk))
        prefill_tokens = sum(c for _, c in chunks)
        m = prefill_tokens + decode_batch
        if m == 0:
            # Everything preempted; re-admit next round.  Under fault
            # injection this can repeat, so the same liveness guard as
            # admission applies: a persistent stall sheds the queue head.
            self.stall += 1
            if self.stall > engine.stall_limit and pending:
                nxt = pending.popleft()
                self._end(
                    nxt.request_id,
                    "shed",
                    pages_required=alloc.pages_for(nxt.total_len),
                )
                self.stall = 0
            self.iteration += 1
            return
        self.stall = 0
        prefill_work = [
            PrefillChunk(
                a.request.request_id,
                a.prefilled,
                chunk,
                a.request.prefill_len,
            )
            for a, chunk in chunks
        ]
        decode_work = [
            DecodeSlot(a.request.request_id, a.context_len)
            for a in decoding
        ]
        timing = engine.backend.execute_step(prefill_work, decode_work)
        if injector is not None:
            # Straggler: one slow kernel stretches the whole iteration
            # (scaled per phase so the breakdown still sums to total).
            factor = injector.straggler_factor(self.iteration)
            if factor != 1.0:
                timing.scale(factor)
                self.faults_injected += 1
                tel.emit(FaultInjected, kind="straggler", value=factor)
        t_iter = timing.total
        for k in TIME_BREAKDOWN_KEYS:
            self.breakdown[k] += getattr(timing, "t_" + k)
        self.clock += t_iter
        tel.set_clock(self.clock)

        # --- Token accounting.
        if decode_batch:
            self.decode_tokens += decode_batch
            self.latencies.append((t_iter, decode_batch))
            self.occupancy.append(decode_batch)
        for a in decoding:
            a.generated += 1
            a.context_len += 1
        # Advance prefill progress; a request whose prompt completes in
        # THIS iteration emits its first token (the prefill pass
        # produces one logit), then joins decode next iteration.
        for a, chunk in chunks:
            a.prefilled += chunk
            if a.prefill_done:
                if cache is not None:
                    # The full prompt pages now hold final KV: hand them to
                    # the radix tree so later requests sharing the prefix
                    # skip this work.  The partial tail page stays
                    # request-owned until the request finishes.
                    cache.intern_prefill(
                        a.request.request_id, a.request.prefill_len
                    )
                a.generated += 1
                a.context_len += 1
                self.decode_tokens += 1
                self.ttfts.append(self.clock)
                self.ledger.first_token_s.setdefault(
                    a.request.request_id, self.clock
                )
        batch_now = len(running)
        self.peak_batch = max(self.peak_batch, batch_now)

        # --- Retire finished requests (continuous batching refill).
        still: list[_Active] = []
        for a in running:
            if a.done:
                rid = a.request.request_id
                if cache is not None:
                    # Intern the whole KV-covered sequence (the last
                    # sampled token never ran through the model, hence the
                    # -1) while the backend still holds the page tables;
                    # release() then unpins this request's lease.
                    cache.intern_finished(
                        rid,
                        a.request.prefill_len,
                        a.request.prefill_len + a.request.decode_len - 1,
                    )
                self._end(rid, "finished", in_flight=True)
                self.delivered_tokens += a.request.decode_len
            else:
                still.append(a)
        self.running = still

        if tel.enabled:
            tel.emit(
                IterationSample,
                prefill_tokens=prefill_tokens,
                decode_batch=decode_batch,
                running=batch_now,
                pending=len(pending),
                t_dense=timing.t_dense,
                t_attention=timing.t_attention,
                t_quant=timing.t_quant,
                t_other=timing.t_other,
                t_comm=engine.backend.comm_time(m),
                t_iter=t_iter,
                kv_utilization=alloc.utilization(),
                free_pages=alloc.free_pages,
                backend=engine.backend.name,
            )
        self.iteration += 1

    # ------------------------------------------------------------------ #
    def result(self) -> ServingResult:
        """Aggregate metrics of the (drained) run."""
        return aggregate_runs([self.engine], [self], self.ledger)


def aggregate_runs(
    engines: "list[ServingEngine]",
    runs: "list[EngineRun]",
    ledger: RunLedger,
    *,
    clock: float = 0.0,
    peak: int = 0,
    preemptions: int = 0,
    faults: int = 0,
    **extra,
) -> ServingResult:
    """The one :class:`ServingResult` aggregation, over ``runs`` of
    ``engines`` that recorded into ``ledger``.

    Scalars sum over the runs; distributions (decode occupancy, per-step
    latency, TTFT) concatenate in run order before the weighted
    aggregation; terminal counts come from the ledger; prefix-cache stats
    sum over the engines' caches.  A single engine is the one-run case.  A
    cluster adds its own clock (``clock``), peak concurrency (``peak``),
    fence preemptions (``preemptions``) and replica faults (``faults``),
    and passes ``rerouted`` and ``cluster`` through ``extra``.
    """
    occupancy = [n for run in runs for n in run.occupancy]
    latencies = [x for run in runs for x in run.latencies]
    ttfts = [t for run in runs for t in run.ttfts]
    lat_samples = [t for t, _ in latencies] or [0.0]
    lat_weights = [n for _, n in latencies] or [1]
    total_time = max([clock] + [run.clock for run in runs])
    delivered = sum(run.delivered_tokens for run in runs)
    counts = Counter(ledger.terminal.values())
    caches = [e.prefix_cache for e in engines if e.prefix_cache is not None]
    engine0 = engines[0]
    return ServingResult(
        scheme=engine0.scheme.name,
        requested_batch=sum(e.max_batch for e in engines),
        achieved_batch=float(np.mean(occupancy)) if occupancy else 0.0,
        max_batch=max([peak] + [run.peak_batch for run in runs]),
        throughput_tokens_per_s=(
            delivered / total_time if total_time else 0.0
        ),
        mean_decode_latency_s=weighted_mean(lat_samples, lat_weights),
        p99_decode_latency_s=(
            weighted_percentile(lat_samples, lat_weights, 0.99)
            if latencies
            else 0.0
        ),
        mean_ttft_s=float(np.mean(ttfts)) if ttfts else 0.0,
        total_time_s=total_time,
        decode_tokens=sum(run.decode_tokens for run in runs),
        completed_requests=counts["finished"],
        preemptions=preemptions + sum(run.preemptions for run in runs),
        memory_limited=any(run.memory_limited for run in runs),
        weights_gb=engine0.weights_bytes / 1e9,
        kv_budget_gb=sum(e.kv_budget for e in engines) / 1e9,
        time_breakdown={
            k: sum(run.breakdown[k] for run in runs)
            for k in TIME_BREAKDOWN_KEYS
        },
        iterations=sum(run.iteration for run in runs),
        timed_out=counts["timed_out"],
        cancelled=counts["cancelled"],
        shed=counts["shed"],
        failed=counts["failed"],
        alloc_retries=sum(run.alloc_retries for run in runs),
        faults_injected=faults + sum(run.faults_injected for run in runs),
        terminal_states=dict(ledger.terminal),
        backend=engine0.backend.name,
        decode_batch_hist=dict(sorted(Counter(occupancy).items())),
        prefix_cache=(
            PrefixCacheStats.total([c.snapshot_stats() for c in caches]).to_dict()
            if caches
            else None
        ),
        **extra,
    )
