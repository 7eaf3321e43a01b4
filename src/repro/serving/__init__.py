"""Serving-efficiency substrate: GPU cost model + discrete-event simulator.

The paper's efficiency results (Figs. 3, 4, 10, 11 and §5.4.2) are measured
on an RTX 4090 with custom CUDA kernels.  Without a GPU, we reproduce the
*mechanics* those numbers follow from:

- :mod:`repro.serving.hardware` — published GPU specs (peak TOPS per dtype,
  memory bandwidth/capacity) and the roofline model (Williams et al. 2009);
- :mod:`repro.serving.schemes`  — full-stack quantization scheme registry
  (FP16, W4A16, W8A8, Atom W4A4, W4A8KV4, MixedBit): each entry carries its
  roofline cost parameters (kernel-efficiency factors calibrated to the
  paper's §5.4.2 kernel ablation, 980 / 900 / 770 TOPS), its executable
  quantization recipe (``scheme.quantize(model)``), and its KV codec;
- :mod:`repro.serving.models`   — full-size Llama serving shapes (7B-70B);
- :mod:`repro.serving.kernels`  — analytic kernel cost models: fused GEMM,
  FlashInfer-style decode attention, quant/reorder fusion overheads;
- :mod:`repro.serving.paged_kv` — vLLM-style paged KV-cache allocator;
- :mod:`repro.serving.engine`   — FCFS continuous-batching serving engine
  (Orca-style iteration-level scheduling) over simulated time, with a
  graceful-degradation policy (deadlines, cancellation, load shedding,
  retry/backoff on allocator faults) and a typed terminal state per request;
- :mod:`repro.serving.faults`   — seeded, deterministic fault injection
  (page-pool shrinkage, cancellations, stragglers, transient allocator
  failures) threaded through ``ServingEngine.run(..., faults=...)``;
- :mod:`repro.serving.breakdown` — per-operator runtime breakdown (Fig. 3);
- :mod:`repro.serving.telemetry` — structured event-trace + metrics
  telemetry (typed events, per-iteration samples, JSONL/CSV export) with a
  no-op null sink as the engine-wide default, plus TTFT/TBT/goodput SLO
  aggregation for open-loop runs;
- :mod:`repro.serving.frontend` — open-loop multi-tenant front-end
  (virtual-clock event loop, Poisson/ShareGPT arrival processes,
  multi-round interactions, SLO accounting);
- :mod:`repro.serving.schedulers` — pluggable queue policies (FCFS, SJF,
  deadline-EDF, per-tenant fair share) for the open-loop front-end.
"""

from repro.serving.hardware import A100_40G, RTX_4090, GPUSpec, roofline_throughput
from repro.serving.schemes import (
    ATOM_W4A4,
    FP16,
    MIXED_BIT,
    SCHEMES,
    W4A16,
    W4A8KV4,
    W8A8,
    QuantScheme,
    numeric_scheme_names,
    register_scheme,
)
from repro.serving.models import (
    LLAMA_7B,
    LLAMA_13B,
    LLAMA_70B,
    ServingModelSpec,
    serving_spec_for,
)
from repro.serving.backend import (
    AnalyticBackend,
    DecodeSlot,
    ExecutionBackend,
    NumericBackend,
    PrefillChunk,
    StepTiming,
    oracle_mismatches,
)
from repro.serving.model_runner import (
    ModelRunner,
    conversation_prompt,
    synthetic_prompt,
)
from repro.serving.prefix_cache import (
    CountingPageSource,
    PrefixCache,
    PrefixCacheStats,
    PrefixLease,
)
from repro.serving.kernels import (
    attention_decode_time,
    reorder_ablation_latency,
    attention_prefill_time,
    dense_layer_time,
    gemm_time,
    gemm_tops,
)
from repro.serving.paged_kv import (
    CACHE_ACCOUNT_ID,
    KVAccountingError,
    PagedKVAllocator,
    PagedKVCache,
    PagedKVStore,
)
from repro.serving.parallel import NVLINK, PCIE_4, TPConfig, tp_dense_layer_time
from repro.serving.engine import (
    TERMINAL_STATES,
    EngineRun,
    ServingEngine,
    ServingResult,
    ShedError,
)
from repro.serving.schedulers import (
    SCHEDULERS,
    BaseScheduler,
    EDFScheduler,
    FairShareScheduler,
    FCFSScheduler,
    SJFScheduler,
    Submission,
    make_scheduler,
)
from repro.serving.frontend import (
    FrontendResult,
    Interaction,
    OpenLoopFrontend,
    poisson_interactions,
    sharegpt_interactions,
)
from repro.serving.faults import (
    CancelFault,
    FaultInjector,
    FaultPlan,
    PagePoolFault,
    ReplicaCrashFault,
    ReplicaDrainFault,
    ReplicaFaultSchedule,
    ReplicaFlapFault,
    ReplicaSlowFault,
    StragglerFault,
)
from repro.serving.cluster import (
    REPLICA_STATES,
    ROUTERS,
    BaseRouter,
    ClusterEngine,
    ClusterRun,
    LeastKVRouter,
    RoundRobinRouter,
    SessionAffinityRouter,
    make_router,
)
from repro.serving.breakdown import runtime_breakdown
from repro.serving.telemetry import (
    NULL_TELEMETRY,
    BatchedDecodeSample,
    PrefixCacheSample,
    PrefixEviction,
    RequestSLORecord,
    SLOSummary,
    Telemetry,
    TenantSLO,
    TraceRecorder,
    TraceSummary,
    read_jsonl,
    slo_summary,
    summarize,
    write_csv,
    write_jsonl,
)

__all__ = [
    "A100_40G",
    "ATOM_W4A4",
    "AnalyticBackend",
    "BatchedDecodeSample",
    "CACHE_ACCOUNT_ID",
    "CancelFault",
    "CountingPageSource",
    "DecodeSlot",
    "ExecutionBackend",
    "BaseScheduler",
    "EDFScheduler",
    "EngineRun",
    "FCFSScheduler",
    "FP16",
    "FairShareScheduler",
    "FaultInjector",
    "FaultPlan",
    "FrontendResult",
    "GPUSpec",
    "Interaction",
    "OpenLoopFrontend",
    "KVAccountingError",
    "LLAMA_13B",
    "LLAMA_70B",
    "LLAMA_7B",
    "MIXED_BIT",
    "ModelRunner",
    "NumericBackend",
    "PagePoolFault",
    "PagedKVAllocator",
    "PagedKVCache",
    "PagedKVStore",
    "PrefillChunk",
    "PrefixCache",
    "PrefixCacheSample",
    "PrefixCacheStats",
    "PrefixEviction",
    "PrefixLease",
    "QuantScheme",
    "REPLICA_STATES",
    "ROUTERS",
    "RTX_4090",
    "ReplicaCrashFault",
    "ReplicaDrainFault",
    "ReplicaFaultSchedule",
    "ReplicaFlapFault",
    "ReplicaSlowFault",
    "RequestSLORecord",
    "BaseRouter",
    "ClusterEngine",
    "ClusterRun",
    "LeastKVRouter",
    "RoundRobinRouter",
    "SessionAffinityRouter",
    "make_router",
    "SCHEDULERS",
    "SCHEMES",
    "SJFScheduler",
    "SLOSummary",
    "ServingEngine",
    "ServingModelSpec",
    "ShedError",
    "StepTiming",
    "StragglerFault",
    "Submission",
    "NVLINK",
    "NULL_TELEMETRY",
    "PCIE_4",
    "ServingResult",
    "TERMINAL_STATES",
    "TPConfig",
    "Telemetry",
    "TenantSLO",
    "TraceRecorder",
    "TraceSummary",
    "W4A16",
    "W4A8KV4",
    "W8A8",
    "attention_decode_time",
    "attention_prefill_time",
    "conversation_prompt",
    "dense_layer_time",
    "gemm_time",
    "gemm_tops",
    "make_scheduler",
    "numeric_scheme_names",
    "oracle_mismatches",
    "poisson_interactions",
    "read_jsonl",
    "register_scheme",
    "reorder_ablation_latency",
    "roofline_throughput",
    "runtime_breakdown",
    "serving_spec_for",
    "sharegpt_interactions",
    "slo_summary",
    "summarize",
    "synthetic_prompt",
    "tp_dense_layer_time",
    "write_csv",
    "write_jsonl",
]
