"""Pluggable execution backends for the serving engine.

The engine (:mod:`repro.serving.engine`) owns *scheduling*: admission,
continuous batching, paged-KV accounting, preemption, deadlines, faults.
What one scheduled iteration *costs* — and, for a real model, what tokens it
*produces* — is delegated to an :class:`ExecutionBackend`:

:class:`AnalyticBackend`
    The roofline cost models of :mod:`repro.serving.kernels`, extracted
    verbatim from the engine's historical inline implementation.  It is the
    default everywhere and is pinned bit-identical to the pre-backend
    engine by the golden-trace tests (``tests/serving/goldens``).
:class:`NumericBackend`
    Drives a real :class:`~repro.models.llama.LlamaModel` (FP16 linears or
    any registered scheme's quantized executable, any KV codec) through a
    :class:`~repro.serving.model_runner.ModelRunner` over a paged KV store,
    so one engine run executes the *actual* quantized numerics under
    continuous batching, paged KV, preemption, and chaos schedules.  Its
    iteration *timing* still comes from an internal analytic backend (the
    simulated clock stays deterministic and fault/deadline semantics are
    unchanged); its *tokens* are real, and bit-identical to per-request
    :meth:`LlamaModel.generate` — the whole-system correctness oracle.

The engine drives a backend through a narrow protocol:

- :meth:`ExecutionBackend.bind` — called once by the engine with the
  (spec, scheme, gpu, tp) tuple the run is configured for;
- :meth:`ExecutionBackend.on_admit` / :meth:`ExecutionBackend.on_release`
  — request lifecycle, mirroring every paged-KV allocate/free;
- :meth:`ExecutionBackend.execute_step` — one batched iteration (prefill
  chunks + decode slots), returning a :class:`StepTiming`.

Recompute-on-resume falls out of the lifecycle hooks: preemption releases
the backend's per-request state, re-admission rebuilds it from scratch, and
deterministic sampling makes the regenerated tokens identical.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from repro.serving.hardware import GPUSpec, RTX_4090
from repro.serving.kernels import (
    attention_decode_time,
    attention_prefill_time,
    dense_layer_time,
    other_ops_time,
    quant_fusion_overhead,
)
from repro.serving.models import ServingModelSpec, serving_spec_for
from repro.serving.parallel import (
    TPConfig,
    tp_dense_layer_breakdown,
    tp_dense_layer_time,
)
from repro.serving.schemes import QuantScheme
from repro.serving.telemetry import (
    NULL_TELEMETRY,
    BatchedDecodeSample,
    Telemetry,
)

__all__ = [
    "AnalyticBackend",
    "DecodeSlot",
    "ExecutionBackend",
    "NumericBackend",
    "PrefillChunk",
    "StepTiming",
    "oracle_mismatches",
]


@dataclass(frozen=True)
class PrefillChunk:
    """One request's prompt chunk in this iteration."""

    request_id: int
    prefix_len: int  # prompt tokens already processed before this chunk
    chunk: int  # prompt tokens processed this iteration
    prefill_len: int  # the request's full prompt length

    @property
    def completes(self) -> bool:
        return self.prefix_len + self.chunk >= self.prefill_len


@dataclass(frozen=True)
class DecodeSlot:
    """One request decoding a single token this iteration."""

    request_id: int
    context_len: int  # KV length attended over (prompt + generated so far)


@dataclass
class StepTiming:
    """Per-phase cost of one batched iteration (simulated seconds)."""

    t_dense: float = 0.0
    t_attention: float = 0.0
    t_quant: float = 0.0
    t_other: float = 0.0

    @property
    def total(self) -> float:
        return self.t_dense + self.t_attention + self.t_quant + self.t_other

    def scale(self, factor: float) -> None:
        """Stretch every phase (straggler faults), preserving the breakdown."""
        self.t_dense *= factor
        self.t_attention *= factor
        self.t_quant *= factor
        self.t_other *= factor


class ExecutionBackend(abc.ABC):
    """Execution strategy for the engine's batched iterations."""

    #: Human-readable tag, propagated into ``ServingResult.backend`` and
    #: (for non-analytic backends) each telemetry ``IterationSample``.
    name: str = "backend"

    #: Telemetry sink; the engine points this at its own sink on
    #: construction so backends can emit execution-side events (the numeric
    #: backend's per-step ``BatchedDecodeSample``).  Null by default.
    telemetry: Telemetry = NULL_TELEMETRY

    def bind(
        self,
        spec: ServingModelSpec,
        scheme: QuantScheme,
        gpu: GPUSpec,
        tp: TPConfig | None,
    ) -> None:
        """Attach the engine's run configuration (called once by the engine)."""
        self.spec = spec
        self.scheme = scheme
        self.gpu = gpu
        self.tp = tp

    # -- request lifecycle (mirrors paged-KV allocate/free) -------------- #
    def on_admit(self, request, lease=None) -> None:
        """A request entered the running batch (pages reserved).

        ``lease`` is a :class:`~repro.serving.prefix_cache.PrefixLease`
        when the engine's prefix cache matched the request's prompt: the
        backend should resume prefill from ``lease.kv_tokens`` over the
        leased pages.  Backends that ignore it recompute the full prompt
        (correct, just slower).
        """

    def on_release(self, request_id: int, reason: str) -> None:
        """A running request left the batch.

        ``reason`` is one of ``finished`` / ``preempted`` / ``cancelled`` /
        ``timed_out`` / ``shed``.  Preempted requests will be re-admitted
        later and must be recomputable from scratch.
        """

    # -- execution -------------------------------------------------------- #
    @abc.abstractmethod
    def execute_step(
        self, prefill: list[PrefillChunk], decode: list[DecodeSlot]
    ) -> StepTiming:
        """Run one batched iteration and return its per-phase cost."""

    def comm_time(self, m: int) -> float:
        """All-reduce share of the dense time for ``m`` tokens (TP only)."""
        return 0.0

    def generated_tokens(self, request_id: int):
        """Tokens produced for ``request_id`` (None for analytic backends)."""
        return None


class AnalyticBackend(ExecutionBackend):
    """Roofline cost models — the engine's historical inline implementation.

    Float operation order is identical to the pre-backend engine, so results
    and telemetry traces are bit-identical (pinned by the golden tests).
    """

    name = "analytic"

    def execute_step(
        self, prefill: list[PrefillChunk], decode: list[DecodeSlot]
    ) -> StepTiming:
        m = sum(p.chunk for p in prefill) + len(decode)
        degree = self.tp.degree if self.tp else 1
        if self.tp and degree > 1:
            t_dense = tp_dense_layer_time(m, self.spec, self.scheme, self.tp, self.gpu)
        else:
            t_dense = dense_layer_time(m, self.spec, self.scheme, self.gpu)
        t_attn = 0.0
        if decode:
            # Attention heads shard evenly across the TP group.
            t_attn += attention_decode_time(
                [d.context_len for d in decode],
                self.spec,
                self.scheme.kv_bits,
                self.gpu,
            ) / degree
        for p in prefill:
            t_attn += attention_prefill_time(
                p.chunk,
                self.spec,
                self.gpu,
                kv_bits=self.scheme.kv_bits,
                prefix_len=p.prefix_len,
            ) / degree
        t_quant = (
            quant_fusion_overhead(m, self.spec, self.gpu, fused=True)
            if self.scheme.a_bits < 16
            else 0.0
        )
        t_other = other_ops_time(m, self.spec, self.gpu)
        return StepTiming(t_dense, t_attn, t_quant, t_other)

    def comm_time(self, m: int) -> float:
        if self.tp and self.tp.degree > 1:
            return tp_dense_layer_breakdown(
                m, self.spec, self.scheme, self.tp, self.gpu
            )[1]
        return 0.0


class _KernelPhaseCollector:
    """Duck-typed telemetry sink summing AtomLinear kernel-phase times.

    Installed on the model's linears for the duration of one decode step so
    the per-call ``t_quant``/``t_dense`` wall-times aggregate into one
    per-step number (the linears only check ``enabled`` and call
    ``iteration_sample``).
    """

    enabled = True

    def __init__(self) -> None:
        self.t_quant = 0.0
        self.t_dense = 0.0

    def iteration_sample(self, **metrics) -> None:
        self.t_quant += metrics.get("t_quant", 0.0)
        self.t_dense += metrics.get("t_dense", 0.0)


class NumericBackend(ExecutionBackend):
    """Real-model execution: the engine's schedule drives actual numerics.

    Each admitted request gets a deterministic synthetic prompt (a pure
    function of ``request_id``); prefill chunks and decode slots execute
    through a :class:`~repro.serving.model_runner.ModelRunner` whose KV
    lives in a paged store.  Greedy (or seeded-sampled) tokens are retained
    for finished requests and exposed via :meth:`generated_tokens`.

    Iteration *cost* is delegated to an internal :class:`AnalyticBackend`
    over a :class:`ServingModelSpec` derived from the model config, so the
    simulated clock (deadlines, backoff, straggler scaling) behaves exactly
    as in analytic runs.

    Bit-identity contract: the tokens of every *finished* request equal
    per-request ``LlamaModel.generate(prompt, decode_len)`` on the same
    model, because the runner issues forward passes with identical
    positions and cache contents through position-invariant (rowwise)
    kernels (see :mod:`repro.serving.model_runner` for the paged == dense
    equivalence argument).
    """

    name = "numeric"

    def __init__(
        self,
        model,
        *,
        page_size: int = 16,
        temperature: float = 0.0,
        seed: int = 0,
        store=None,
        prompts: str = "synthetic",
    ) -> None:
        from repro.serving.model_runner import ModelRunner

        self.model = model
        self.runner = ModelRunner(
            model,
            page_size=page_size,
            temperature=temperature,
            seed=seed,
            store=store,
            prompts=prompts,
        )
        self._timing = AnalyticBackend()

    def bind(
        self,
        spec: ServingModelSpec,
        scheme: QuantScheme,
        gpu: GPUSpec,
        tp: TPConfig | None,
    ) -> None:
        super().bind(spec, scheme, gpu, tp)
        self._timing.bind(spec, scheme, gpu, tp)

    @classmethod
    def engine_for(
        cls,
        model,
        scheme: QuantScheme,
        *,
        gpu: GPUSpec = RTX_4090,
        page_size: int = 16,
        temperature: float = 0.0,
        seed: int = 0,
        prompts: str = "synthetic",
        **engine_kwargs,
    ):
        """Build a :class:`ServingEngine` serving ``model`` numerically.

        Accepts any scheme from the :data:`~repro.serving.schemes.SCHEMES`
        registry; ``model`` is the already-prepared executable
        (``scheme.quantize(model)`` builds one).  The model's installed KV
        codec must agree with the scheme's declared ``kv_bits`` — serving an
        FP16-KV model under a 4-bit-KV scheme would silently mis-account
        every paged-KV byte.
        Derives the :class:`ServingModelSpec` from the model config so the
        engine's page accounting matches the model's real KV shapes, and
        wires a fresh backend in.  ``engine_kwargs`` pass through to the
        engine constructor.
        """
        from repro.serving.engine import ServingEngine

        got = float(model.kv_codec.bits)
        if got != float(scheme.kv_bits):
            raise ValueError(
                f"model carries a {got:g}-bit KV codec but scheme "
                f"{scheme.name!r} declares kv_bits={scheme.kv_bits}; "
                f"build the model with scheme.quantize(...)"
            )
        backend = cls(
            model,
            page_size=page_size,
            temperature=temperature,
            seed=seed,
            prompts=prompts,
        )
        return ServingEngine(
            serving_spec_for(model.config),
            scheme,
            gpu=gpu,
            page_size=page_size,
            backend=backend,
            **engine_kwargs,
        )

    # -- lifecycle -------------------------------------------------------- #
    def on_admit(self, request, lease=None) -> None:
        if request.total_len > self.model.config.max_seq_len:
            raise ValueError(
                f"request {request.request_id} needs {request.total_len} "
                f"positions but the model's max_seq_len is "
                f"{self.model.config.max_seq_len}"
            )
        self.runner.start(request.request_id, request.prefill_len, lease=lease)

    def prefix_adapter(self, cache) -> None:
        """Wire a :class:`~repro.serving.prefix_cache.PrefixCache` to the
        runner's real token/page plumbing (called from ``cache.bind``).

        The cache then shares the runner's physical store (page refcounts),
        derives prompts exactly as the runner serves them, and interns page
        tables straight out of live requests' paged caches.
        """
        runner = self.runner
        cache.configure(
            n_layers=self.model.config.n_layers,
            source=runner.store,
            prompt_fn=runner.prompt_for,
            tokens_fn=lambda rid, prefill_len, total_kv: runner.tokens(rid),
            tables_fn=lambda rid: runner.kv_state(rid)[0],
        )

    def on_release(self, request_id: int, reason: str) -> None:
        self.runner.release(request_id, keep_tokens=(reason == "finished"))

    # -- execution -------------------------------------------------------- #
    def execute_step(
        self, prefill: list[PrefillChunk], decode: list[DecodeSlot]
    ) -> StepTiming:
        for p in prefill:
            self.runner.prefill_chunk(p.request_id, p.prefix_len, p.chunk)
        if decode:
            self._decode(decode)
        return self._timing.execute_step(prefill, decode)

    def _decode(self, decode: list[DecodeSlot]) -> None:
        """Run the step's decode slots in one fused ``decode_batch``.

        With telemetry enabled, the quantized linears' kernel-phase sinks
        are temporarily pointed at a collector so each step emits one
        ``BatchedDecodeSample`` with real measured ``t_quant``/``t_dense``
        aggregates alongside the step's wall time and batch size.
        """
        request_ids = [d.request_id for d in decode]
        tel = self.telemetry
        if not tel.enabled:
            self.runner.decode_batch(request_ids)
            return
        collector = _KernelPhaseCollector()
        patched = []
        for lin in self.runner.model.linears.values():
            if hasattr(lin, "telemetry"):
                patched.append((lin, lin.telemetry))
                lin.telemetry = collector
        t0 = time.perf_counter()
        try:
            self.runner.decode_batch(request_ids)
        finally:
            wall = time.perf_counter() - t0
            for lin, prev in patched:
                lin.telemetry = prev
        tel.emit(
            BatchedDecodeSample,
            decode_batch=len(request_ids),
            t_quant_s=collector.t_quant,
            t_dense_s=collector.t_dense,
            t_wall_s=wall,
        )

    def comm_time(self, m: int) -> float:
        return self._timing.comm_time(m)

    def generated_tokens(self, request_id: int):
        return self.runner.tokens(request_id)

    def prompt_for(self, request_id: int, prefill_len: int):
        """The synthetic prompt a request is served with (for oracle tests)."""
        return self.runner.prompt_for(request_id, prefill_len)


def oracle_mismatches(engine, result, requests) -> list[int]:
    """Ids of finished requests whose tokens differ from ``generate``.

    ``engine`` is a numeric-backend
    :class:`~repro.serving.engine.ServingEngine` or a
    :class:`~repro.serving.cluster.ClusterEngine` of them (replicas
    serve one model, so any replica's runner is the oracle); ``result`` is
    its run's :class:`~repro.serving.engine.ServingResult`, whose terminal
    states select the finished requests among ``requests``.
    """
    runner = getattr(engine, "engines", [engine])[0].backend.runner
    # A cluster asks every replica; a bare engine's runner holds the tokens.
    tokens_of = getattr(engine, "generated_tokens", runner.tokens)
    return [
        r.request_id
        for r in requests
        if result.terminal_states.get(r.request_id) == "finished"
        and not np.array_equal(
            tokens_of(r.request_id),
            runner.oracle_generate(r.request_id, r.prefill_len, r.decode_len),
        )
    ]
