"""Structured event-trace + metrics telemetry for the serving engine.

The paper's serving evaluation is all about *where time and memory go*
inside the serving loop — the per-operator runtime breakdown of Fig. 3, the
end-to-end throughput/latency of Fig. 10, and the kernel ablations of §5.4.
The :class:`ServingEngine` aggregates one :class:`ServingResult` per run;
this module records the underlying per-iteration signal so scheduling and
memory decisions (batch occupancy, preemption storms, page-pool pressure)
can be observed, exported, and regression-tested.

Design:

- Each event type is one frozen :class:`TraceEvent` dataclass; its
  docstring is the schema.  ``event`` is the JSON-lines dispatch tag, and
  every event carries ``t`` (simulated clock, seconds) and ``iteration``
  (the engine iteration, or cluster round, during which it occurred).
- Producers report an event with ``telemetry.emit(EventClass, **fields)``.
  :class:`Telemetry` is the **null sink**: ``emit`` is a no-op, and it is
  the default everywhere, so runs without telemetry are bit-identical to a
  build without this module.  :class:`TraceRecorder` stamps ``t`` and
  ``iteration`` onto each emitted event and keeps it in memory.
- :func:`summarize` re-aggregates a flat event list into
  :class:`TraceSummary` — per-phase totals that reconcile exactly with
  ``ServingResult.time_breakdown``, and weighted decode-latency percentiles
  computed with the same machinery the engine uses.
- Events round-trip through JSON lines (:func:`write_jsonl` /
  :func:`read_jsonl`); iteration samples also export to CSV
  (:func:`write_csv`) for spreadsheet/pandas analysis.

The same sink doubles as the kernel-phase profiler of the NumPy execution
engine: an :class:`~repro.core.linear.AtomLinear` with a recorder attached
(``lin.telemetry = TraceRecorder()``) reports one :class:`IterationSample`
per call through ``iteration_sample`` with measured ``t_quant`` (dynamic
activation quantization) and ``t_dense`` (GEMM + dequant epilogue)
wall-times — ``repro bench --trace`` uses this, and :func:`summarize` /
:func:`write_jsonl` work on such traces unchanged, so quantize-vs-GEMM cost
is attributable without separate instrumentation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable

import numpy as np

__all__ = [
    "Telemetry",
    "TraceRecorder",
    "NULL_TELEMETRY",
    "TIME_BREAKDOWN_KEYS",
    "TraceEvent",
    "RequestAdmitted",
    "RequestPreempted",
    "RequestFinished",
    "RequestCancelled",
    "RequestTimedOut",
    "RequestShed",
    "FaultInjected",
    "PagePoolDelta",
    "PipelineStage",
    "IterationSample",
    "BatchedDecodeSample",
    "ReplicaStateChange",
    "RequestRouted",
    "RequestRerouted",
    "RequestFailed",
    "ClusterSample",
    "TraceSummary",
    "summarize",
    "RequestSLORecord",
    "TenantSLO",
    "SLOSummary",
    "slo_summary",
    "weighted_mean",
    "weighted_percentile",
    "write_jsonl",
    "read_jsonl",
    "write_csv",
]


# --------------------------------------------------------------------------- #
# Typed events
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceEvent:
    """Base event: simulated clock + engine iteration index."""

    t: float
    iteration: int

    #: JSONL dispatch tag; subclasses override.
    event: str = field(init=False, default="event", repr=False)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["event"] = self.event
        return d


@dataclass(frozen=True)
class RequestAdmitted(TraceEvent):
    """A request entered the running batch with ``pages`` KV pages reserved
    for its ``prefill_len`` prompt and ``decode_len`` generation tokens."""

    request_id: int = 0
    prefill_len: int = 0
    decode_len: int = 0
    pages: int = 0

    event: str = field(init=False, default="admitted", repr=False)


@dataclass(frozen=True)
class RequestPreempted(TraceEvent):
    """A request was evicted from the batch to be recomputed later (page
    pressure, or its replica was fenced).  Recompute preemption frees its
    whole cache: ``pages_freed``."""

    request_id: int = 0
    pages_freed: int = 0

    event: str = field(init=False, default="preempted", repr=False)


@dataclass(frozen=True)
class RequestFinished(TraceEvent):
    """A request delivered all its decode tokens and freed ``pages_freed``."""

    request_id: int = 0
    pages_freed: int = 0

    event: str = field(init=False, default="finished", repr=False)


@dataclass(frozen=True)
class RequestCancelled(TraceEvent):
    """Request cancelled mid-flight (``pages_freed`` 0 if still queued)."""

    request_id: int = 0
    pages_freed: int = 0

    event: str = field(init=False, default="cancelled", repr=False)


@dataclass(frozen=True)
class RequestTimedOut(TraceEvent):
    """Request missed its deadline (``pages_freed`` 0 if still queued)."""

    request_id: int = 0
    pages_freed: int = 0

    event: str = field(init=False, default="timed_out", repr=False)


@dataclass(frozen=True)
class RequestShed(TraceEvent):
    """Request dropped by load shedding: its reservation of
    ``pages_required`` pages can never fit the ``pages_total`` the pool (or
    the cluster's largest replica) can offer."""

    request_id: int = 0
    pages_required: int = 0
    pages_total: int = 0

    event: str = field(init=False, default="shed", repr=False)


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """One injected fault fired.

    ``kind`` is ``page_shrink`` / ``straggler`` / ``alloc_fail`` on an
    engine, ``replica_slow`` / ``replica_crash`` / ``replica_flap`` on a
    cluster.  ``value`` is the pool delta in pages / the slowdown factor /
    the retries consumed / the replica index.
    """

    kind: str = ""
    value: float = 0.0

    event: str = field(init=False, default="fault", repr=False)


@dataclass(frozen=True)
class PipelineStage(TraceEvent):
    """One offline quantization pipeline stage.

    ``stage`` is ``layer_start`` / ``layer_quantized`` / ``checkpoint_saved``
    / ``checkpoint_resume`` / ``pipeline_done``; ``layer`` is the decoder
    layer it refers to; ``detail`` / ``value`` carry an optional payload
    (the layer's linear count for start/quantized/resume).
    """

    stage: str = ""
    layer: int = -1
    detail: str = ""
    value: float = 0.0

    event: str = field(init=False, default="stage", repr=False)


@dataclass(frozen=True)
class PagePoolDelta(TraceEvent):
    """Allocator-level page accounting for one account.

    ``request_id`` is the request charged (or
    :data:`~repro.serving.paged_kv.CACHE_ACCOUNT_ID` for the prefix cache);
    ``delta`` > 0 allocates, < 0 frees; ``free_pages`` is the pool's free
    count afterwards.
    """

    request_id: int = 0
    delta: int = 0
    free_pages: int = 0

    event: str = field(init=False, default="pages", repr=False)


@dataclass(frozen=True)
class IterationSample(TraceEvent):
    """One engine iteration (or one quantized-linear call).

    ``prefill_tokens`` and ``decode_batch`` are the iteration's token mix,
    ``running`` / ``pending`` the batch and queue sizes.  The per-phase
    seconds ``t_dense``, ``t_attention``, ``t_quant`` and ``t_other`` sum to
    ``t_iter``.  ``kv_utilization`` and ``free_pages`` describe the page
    pool at iteration end.
    """

    prefill_tokens: int = 0
    decode_batch: int = 0
    running: int = 0
    pending: int = 0
    t_dense: float = 0.0  # includes t_comm under tensor parallelism
    t_attention: float = 0.0
    t_quant: float = 0.0
    t_other: float = 0.0
    t_comm: float = 0.0  # all-reduce share of t_dense (0 when TP degree 1)
    t_iter: float = 0.0
    kv_utilization: float = 0.0
    free_pages: int = 0
    #: Which :class:`~repro.serving.backend.ExecutionBackend` produced the
    #: iteration.  The default is omitted from the JSONL form so analytic
    #: traces remain byte-identical to those written before backends existed.
    backend: str = "analytic"

    event: str = field(init=False, default="iteration", repr=False)

    def to_dict(self) -> dict:
        d = super().to_dict()
        if self.backend == "analytic":
            del d["backend"]
        return d


@dataclass(frozen=True)
class BatchedDecodeSample(TraceEvent):
    """Measured wall-time of one numeric-backend decode step.

    Unlike :class:`IterationSample` (simulated per-phase cost from the
    analytic model), this records *real* kernel wall-clock: ``decode_batch``
    requests decoded in one fused pass, with ``t_quant_s``/``t_dense_s``
    aggregated from the quantized linears' own kernel-phase samples and
    ``t_wall_s`` the whole step.
    """

    decode_batch: int = 0
    t_quant_s: float = 0.0
    t_dense_s: float = 0.0
    t_wall_s: float = 0.0

    event: str = field(init=False, default="batched_decode", repr=False)


@dataclass(frozen=True)
class PrefixCacheSample(TraceEvent):
    """One prefix-cache lookup at admission (hit or miss).

    ``matched_tokens`` is the radix-tree longest-prefix match over the
    request's prompt; ``kv_tokens`` the cached tokens actually leased
    (capped at ``prefill_len - 1`` so one prompt token still produces
    first-token logits); ``pages_borrowed`` the shared pages seeding the
    request's page table.  Emitted only when a prefix cache is attached,
    so cache-less traces stay byte-identical.
    """

    request_id: int = -1
    prefill_len: int = 0
    matched_tokens: int = 0
    kv_tokens: int = 0
    pages_borrowed: int = 0

    event: str = field(init=False, default="prefix_cache", repr=False)


@dataclass(frozen=True)
class PrefixEviction(TraceEvent):
    """LRU eviction of unreferenced radix-tree nodes, returning
    ``pages_freed`` pages to the pool."""

    pages_freed: int = 0

    event: str = field(init=False, default="prefix_evict", repr=False)


@dataclass(frozen=True)
class ReplicaStateChange(TraceEvent):
    """Health-checker transition of ``replica`` from state ``old`` to
    ``new``, with a human-readable ``reason`` (cluster-level event;
    ``iteration`` is the cluster round)."""

    replica: int = 0
    old: str = ""
    new: str = ""
    reason: str = ""

    event: str = field(init=False, default="replica_state", repr=False)


@dataclass(frozen=True)
class RequestRouted(TraceEvent):
    """The router dispatched ``request_id`` to ``replica`` (cluster round
    indexed)."""

    request_id: int = 0
    replica: int = 0

    event: str = field(init=False, default="routed", repr=False)


@dataclass(frozen=True)
class RequestRerouted(TraceEvent):
    """A fenced replica's request went back to the cluster queue from
    ``from_replica``.

    ``retries`` counts how many times the request has been lost *while
    in-flight* (queued-only losses re-route for free).
    """

    request_id: int = 0
    from_replica: int = 0
    retries: int = 0

    event: str = field(init=False, default="rerouted", repr=False)


@dataclass(frozen=True)
class RequestFailed(TraceEvent):
    """Re-route retry budget exhausted after ``retries`` in-flight losses:
    the request is terminally failed."""

    request_id: int = 0
    retries: int = 0

    event: str = field(init=False, default="failed", repr=False)


@dataclass(frozen=True)
class ClusterSample(TraceEvent):
    """Per-round cluster aggregate (``iteration`` is the cluster round).

    ``pending`` is the cluster queue length; ``states``, ``running`` and
    ``used_pages`` give each replica's health state, batch size and KV
    pages in use.  Per-replica tuples are index-aligned with the cluster's replica list;
    JSONL round-trips them as lists, so ``__post_init__`` re-coerces to
    tuples to keep event equality well-defined.
    """

    pending: int = 0
    states: tuple = ()
    running: tuple = ()
    used_pages: tuple = ()

    event: str = field(init=False, default="cluster", repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "running", tuple(self.running))
        object.__setattr__(self, "used_pages", tuple(self.used_pages))


_EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.event: cls  # type: ignore[misc]
    for cls in (
        RequestAdmitted,
        RequestPreempted,
        RequestFinished,
        RequestCancelled,
        RequestTimedOut,
        RequestShed,
        FaultInjected,
        PagePoolDelta,
        PipelineStage,
        IterationSample,
        BatchedDecodeSample,
        PrefixCacheSample,
        PrefixEviction,
        ReplicaStateChange,
        RequestRouted,
        RequestRerouted,
        RequestFailed,
        ClusterSample,
    )
}


def event_from_dict(d: dict) -> TraceEvent:
    """Rebuild a typed event from its JSONL dict form.

    Raises :class:`ValueError` for anything :func:`write_jsonl` cannot have
    written: a non-object, an unknown ``event`` tag, a field the event type
    does not have, or a missing field that has no default.
    """
    if not isinstance(d, dict):
        raise ValueError(
            f"expected a JSON object with an 'event' field, got "
            f"{type(d).__name__}"
        )
    kind = d.get("event")
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event type: {kind!r}")
    init = [f for f in fields(cls) if f.init]
    names = {f.name for f in init}
    for key in d:
        if key != "event" and key not in names:
            raise ValueError(f"unknown field {key!r} for {kind!r} event")
    for f in init:
        if f.name not in d and f.default is MISSING:
            raise ValueError(f"missing field {f.name!r} for {kind!r} event")
    return cls(**{k: v for k, v in d.items() if k != "event"})


# --------------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------------- #
class Telemetry:
    """Null telemetry sink: :meth:`emit` is a no-op.

    This is the engine-wide default; a run with the null sink performs no
    event construction and produces results bit-identical to a run without
    any telemetry wiring at all.
    """

    enabled = False

    def begin_iteration(self, iteration: int, clock: float) -> None:
        pass

    def set_clock(self, clock: float) -> None:
        pass

    def emit(self, event_cls: "type[TraceEvent]", **payload) -> None:
        """Report one ``event_cls(**payload)`` event (``t`` and
        ``iteration`` come from the sink's clock context)."""

    def iteration_sample(self, **metrics) -> None:
        """The kernel-phase protocol ``AtomLinear`` calls on any sink."""
        self.emit(IterationSample, **metrics)


#: Shared process-wide null sink (stateless, safe to share).
NULL_TELEMETRY = Telemetry()


class TraceRecorder(Telemetry):
    """Telemetry sink that records every event in memory."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._iteration = 0
        self._clock = 0.0

    # -- clock / iteration context (driven by the engine) -------------- #
    def begin_iteration(self, iteration: int, clock: float) -> None:
        self._iteration = iteration
        self._clock = clock

    def set_clock(self, clock: float) -> None:
        self._clock = clock

    def emit(self, event_cls: "type[TraceEvent]", **payload) -> None:
        self.events.append(
            event_cls(t=self._clock, iteration=self._iteration, **payload)
        )

    # -- convenience ----------------------------------------------------- #
    def samples(self) -> list[IterationSample]:
        return [e for e in self.events if isinstance(e, IterationSample)]

    def summary(self) -> "TraceSummary":
        return summarize(self.events)


# --------------------------------------------------------------------------- #
# Percentile machinery (shared with ServingEngine)
# --------------------------------------------------------------------------- #
def weighted_mean(values, weights) -> float:
    """Weighted arithmetic mean (``np.average`` semantics)."""
    return float(np.average(np.asarray(values), weights=np.asarray(weights)))


def weighted_percentile(values, weights, q: float) -> float:
    """Weighted percentile by CDF inversion.

    The sample whose cumulative weight share first reaches ``q`` is returned
    — exactly the engine's historical p99 computation, factored out so
    trace re-aggregation matches :class:`ServingResult` bit-for-bit.
    """
    values = np.asarray(values)
    weights = np.asarray(weights)
    if values.size == 0:
        return 0.0
    order = np.argsort(values)
    cdf = np.cumsum(weights[order]) / weights.sum()
    idx = min(int(np.searchsorted(cdf, q)), values.size - 1)
    return float(values[order][idx])


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceSummary:
    """Re-aggregated view of one trace (reconciles with ServingResult)."""

    iterations: int
    total_time_s: float
    admitted: int
    finished: int
    preemptions: int
    decode_tokens: int  # decode-iteration work, excludes prefill first tokens
    mean_occupancy: float
    peak_running: int
    time_breakdown: dict[str, float]
    comm_time_s: float
    mean_decode_latency_s: float
    p50_decode_latency_s: float
    p90_decode_latency_s: float
    p99_decode_latency_s: float
    mean_kv_utilization: float
    peak_kv_utilization: float
    min_free_pages: int
    cancelled: int = 0
    timed_out: int = 0
    shed: int = 0
    faults_injected: int = 0

    def percentiles(self) -> dict[str, float]:
        return {
            "mean": self.mean_decode_latency_s,
            "p50": self.p50_decode_latency_s,
            "p90": self.p90_decode_latency_s,
            "p99": self.p99_decode_latency_s,
        }


#: The phases of ``ServingResult.time_breakdown``; each key ``k`` sums an
#: iteration's ``t_<k>`` (a backend ``StepTiming`` or an ``IterationSample``).
TIME_BREAKDOWN_KEYS = ("dense", "attention", "quant", "other")


def summarize(events: Iterable[TraceEvent]) -> TraceSummary:
    """Aggregate a flat event list into a :class:`TraceSummary`.

    Phase totals are accumulated in event order, so they equal the engine's
    own running sums exactly; latency percentiles use the engine's weighted
    CDF-inversion machinery on decode iterations only.
    """
    events = list(events)
    samples = [e for e in events if isinstance(e, IterationSample)]
    breakdown = dict.fromkeys(TIME_BREAKDOWN_KEYS, 0.0)
    comm = 0.0
    for s in samples:
        for k in TIME_BREAKDOWN_KEYS:
            breakdown[k] += getattr(s, "t_" + k)
        comm += s.t_comm
    decode = [s for s in samples if s.decode_batch > 0]
    lat = [s.t_iter for s in decode]
    wts = [s.decode_batch for s in decode]
    return TraceSummary(
        iterations=len(samples),
        total_time_s=samples[-1].t if samples else 0.0,
        admitted=sum(1 for e in events if isinstance(e, RequestAdmitted)),
        finished=sum(1 for e in events if isinstance(e, RequestFinished)),
        preemptions=sum(1 for e in events if isinstance(e, RequestPreempted)),
        decode_tokens=sum(wts),
        mean_occupancy=float(np.mean(wts)) if wts else 0.0,
        peak_running=max((s.running for s in samples), default=0),
        time_breakdown=breakdown,
        comm_time_s=comm,
        mean_decode_latency_s=weighted_mean(lat, wts) if lat else 0.0,
        p50_decode_latency_s=weighted_percentile(lat, wts, 0.50),
        p90_decode_latency_s=weighted_percentile(lat, wts, 0.90),
        p99_decode_latency_s=weighted_percentile(lat, wts, 0.99),
        mean_kv_utilization=(
            float(np.mean([s.kv_utilization for s in samples])) if samples else 0.0
        ),
        peak_kv_utilization=max((s.kv_utilization for s in samples), default=0.0),
        min_free_pages=min((s.free_pages for s in samples), default=0),
        cancelled=sum(1 for e in events if isinstance(e, RequestCancelled)),
        timed_out=sum(1 for e in events if isinstance(e, RequestTimedOut)),
        shed=sum(1 for e in events if isinstance(e, RequestShed)),
        faults_injected=sum(1 for e in events if isinstance(e, FaultInjected)),
    )


# --------------------------------------------------------------------------- #
# SLO aggregation (open-loop serving)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RequestSLORecord:
    """Per-request lifecycle timestamps as the open-loop front-end saw them.

    All times are absolute simulated seconds.  ``first_token_s`` /
    ``finish_s`` are ``None`` for requests that never emitted a token /
    never finished; ``admitted_s`` is the FIRST admission (a preempted and
    re-admitted request keeps its original queueing delay).
    """

    request_id: int
    tenant: str
    arrival_s: float
    admitted_s: "float | None"
    first_token_s: "float | None"
    finish_s: "float | None"
    prefill_len: int
    decode_len: int
    state: str  # one of the engine's terminal states

    @property
    def ttft_s(self) -> "float | None":
        """Time to first token: queueing delay + prefill."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tbt_s(self) -> "float | None":
        """Mean time between tokens over the decode phase.

        Defined only for finished requests with at least two decode tokens
        (one inter-token gap); single-token requests have no TBT sample.
        """
        if self.state != "finished" or self.decode_len < 2:
            return None
        if self.first_token_s is None or self.finish_s is None:
            return None
        return (self.finish_s - self.first_token_s) / (self.decode_len - 1)


@dataclass(frozen=True)
class TenantSLO:
    """SLO attainment for one tenant (or ``"*"`` for the whole run)."""

    tenant: str
    submitted: int
    finished: int
    timed_out: int
    cancelled: int
    shed: int
    #: Cluster re-route retry budget exhausted (0 outside cluster runs).
    failed: int
    ttft_mean_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tbt_mean_s: float
    tbt_p99_s: float
    #: Finished requests that also met every configured SLO threshold.
    goodput_requests: int
    #: ``goodput_requests`` per simulated second over the run horizon.
    goodput_rps: float
    #: ``goodput_requests / submitted`` (0.0 when nothing was submitted).
    attainment: float


@dataclass(frozen=True)
class SLOSummary:
    """TTFT/TBT percentiles and goodput-under-SLO, overall and per tenant."""

    ttft_slo_s: "float | None"
    tbt_slo_s: "float | None"
    horizon_s: float
    overall: TenantSLO
    per_tenant: dict[str, TenantSLO]

    def table(self) -> str:
        """Fixed-width per-tenant table (CLI / README rendering)."""
        header = (
            f"{'tenant':>10s} {'subm':>5s} {'fin':>5s} {'goodput':>8s} "
            f"{'attain':>7s} {'ttft_p50':>9s} {'ttft_p99':>9s} {'tbt_p99':>9s}"
        )
        rows = [header]
        ordered = sorted(self.per_tenant) + ["*"]
        for name in ordered:
            t = self.overall if name == "*" else self.per_tenant[name]
            rows.append(
                f"{t.tenant:>10s} {t.submitted:5d} {t.finished:5d} "
                f"{t.goodput_rps:8.3f} {t.attainment:6.1%} "
                f"{t.ttft_p50_s * 1e3:8.2f}m {t.ttft_p99_s * 1e3:8.2f}m "
                f"{t.tbt_p99_s * 1e3:8.2f}m"
            )
        return "\n".join(rows)


def _meets_slo(
    rec: RequestSLORecord,
    ttft_slo_s: "float | None",
    tbt_slo_s: "float | None",
) -> bool:
    if rec.state != "finished":
        return False
    if ttft_slo_s is not None:
        ttft = rec.ttft_s
        if ttft is None or ttft > ttft_slo_s:
            return False
    if tbt_slo_s is not None:
        tbt = rec.tbt_s
        if tbt is not None and tbt > tbt_slo_s:
            return False
    return True


def _tenant_slo(
    name: str,
    records: "list[RequestSLORecord]",
    ttft_slo_s: "float | None",
    tbt_slo_s: "float | None",
    horizon_s: float,
) -> TenantSLO:
    by_state = {
        s: 0 for s in ("finished", "timed_out", "cancelled", "shed", "failed")
    }
    for r in records:
        by_state[r.state] = by_state.get(r.state, 0) + 1
    # TTFT over finished requests, one sample each; TBT weighted by the
    # number of inter-token gaps (so long generations dominate, matching
    # the engine's decode-latency weighting).
    ttfts = [r.ttft_s for r in records if r.state == "finished" and r.ttft_s is not None]
    tbt_pairs = [
        (r.tbt_s, r.decode_len - 1)
        for r in records
        if r.tbt_s is not None
    ]
    tbt_vals = [v for v, _ in tbt_pairs]
    tbt_wts = [w for _, w in tbt_pairs]
    ones = [1] * len(ttfts)
    good = sum(1 for r in records if _meets_slo(r, ttft_slo_s, tbt_slo_s))
    return TenantSLO(
        tenant=name,
        submitted=len(records),
        finished=by_state["finished"],
        timed_out=by_state["timed_out"],
        cancelled=by_state["cancelled"],
        shed=by_state["shed"],
        failed=by_state["failed"],
        ttft_mean_s=weighted_mean(ttfts, ones) if ttfts else 0.0,
        ttft_p50_s=weighted_percentile(ttfts, ones, 0.50),
        ttft_p99_s=weighted_percentile(ttfts, ones, 0.99),
        tbt_mean_s=weighted_mean(tbt_vals, tbt_wts) if tbt_vals else 0.0,
        tbt_p99_s=weighted_percentile(tbt_vals, tbt_wts, 0.99),
        goodput_requests=good,
        goodput_rps=good / horizon_s if horizon_s > 0 else 0.0,
        attainment=good / len(records) if records else 0.0,
    )


def slo_summary(
    records: "Iterable[RequestSLORecord]",
    *,
    ttft_slo_s: "float | None" = None,
    tbt_slo_s: "float | None" = None,
    horizon_s: float,
) -> SLOSummary:
    """Aggregate per-request records into TTFT/TBT/goodput SLO metrics.

    A request counts toward **goodput** iff it finished AND met every
    configured threshold (``None`` thresholds are not enforced, so with
    both ``None`` goodput degenerates to plain finished-request
    throughput).  Percentiles use the engine's weighted CDF inversion.
    """
    records = list(records)
    tenants: dict[str, list[RequestSLORecord]] = {}
    for r in records:
        tenants.setdefault(r.tenant, []).append(r)
    return SLOSummary(
        ttft_slo_s=ttft_slo_s,
        tbt_slo_s=tbt_slo_s,
        horizon_s=horizon_s,
        overall=_tenant_slo("*", records, ttft_slo_s, tbt_slo_s, horizon_s),
        per_tenant={
            name: _tenant_slo(name, recs, ttft_slo_s, tbt_slo_s, horizon_s)
            for name, recs in tenants.items()
        },
    )


# --------------------------------------------------------------------------- #
# Export / import
# --------------------------------------------------------------------------- #
def write_jsonl(events: Iterable[TraceEvent], dest: "str | Path | IO[str]") -> None:
    """Write events as JSON lines (one event object per line)."""

    def _dump(fh: "IO[str]") -> None:
        for e in events:
            fh.write(json.dumps(e.to_dict(), sort_keys=True) + "\n")

    if hasattr(dest, "write"):
        _dump(dest)  # type: ignore[arg-type]
    else:
        with open(dest, "w") as fh:
            _dump(fh)


def read_jsonl(src: "str | Path | IO[str]") -> list[TraceEvent]:
    """Parse a JSONL trace back into typed events (inverse of write_jsonl).

    A malformed line raises :class:`ValueError` naming its line number.
    """

    def _load(fh: "IO[str]") -> list[TraceEvent]:
        out = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(event_from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return out

    if hasattr(src, "read"):
        return _load(src)  # type: ignore[arg-type]
    with open(src) as fh:
        return _load(fh)


#: One CSV column per :class:`IterationSample` field, ``iteration`` first.
_CSV_COLUMNS = ("iteration", "t") + tuple(
    f.name
    for f in fields(IterationSample)
    if f.init and f.name not in ("t", "iteration", "backend")
)


def write_csv(events: Iterable[TraceEvent], dest: "str | Path | IO[str]") -> None:
    """Write the per-iteration metric samples as CSV (one row per iteration)."""
    samples = [e for e in events if isinstance(e, IterationSample)]

    def _dump(fh: "IO[str]") -> None:
        w = csv.writer(fh)
        w.writerow(_CSV_COLUMNS)
        for s in samples:
            d = s.to_dict()
            w.writerow([d[c] for c in _CSV_COLUMNS])

    if hasattr(dest, "write"):
        _dump(dest)  # type: ignore[arg-type]
    else:
        with open(dest, "w", newline="") as fh:
            _dump(fh)
