"""Microbenchmarks of quantized inference (``repro bench``).

Atom's headline claim is throughput: the fused kernels keep dequantization
off the critical path.  This harness times the NumPy engine's analog of
that claim — the vectorized :class:`~repro.core.linear.AtomLinear` pipeline,
the preallocated KV-cache, and the O(L) sequential calibration — and emits
the repo's committed perf baseline ``BENCH_inference.json``.  The four
benchmarks run interleaved through :mod:`repro.bench.timing`; each records
the median of its repeats as ``after_s`` and their IQR as ``after_s_iqr``.

Four benchmarks:

``linear_forward``       one decode-shaped AtomLinear call on the fused
                         q/k/v site (the per-token hot operator), timed
                         over ``LINEAR_CALLS`` back-to-back calls
``prefill``              full-model prompt pass, no cache
``decode``               token-by-token generation with an incremental
                         KV-cache (the serving-critical path; also reported
                         as ``after_tokens_per_s``)
``quantize_sequential``  sequential (layer-by-layer) calibration carrying
                         hidden states forward

The default model is a purpose-built dense GQA config with random weights —
timing does not need trained checkpoints, so the harness never touches the
zoo cache.

When a :class:`~repro.serving.telemetry.TraceRecorder` is passed, the
suite's quantized model decodes once more, untimed, with the recorder
attached to every AtomLinear: each call
emits an ``IterationSample`` with ``t_quant`` / ``t_dense`` wall-times, so
the existing trace tooling (``summarize`` / ``read_jsonl``) attributes
quantize-vs-GEMM cost without new instrumentation.
"""

from __future__ import annotations

import numpy as np

from repro.bench.payload import BENCH_SCHEMA, host, model_block
from repro.bench.timing import clock, interleaved, stats
from repro.core import AtomConfig, AtomQuantizer
from repro.core.linear import AtomLinear
from repro.models.config import ModelConfig
from repro.models.llama import LlamaModel

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_MODEL_CONFIG",
    "build_bench_model",
    "quantize_bench_model",
    "run_perf_suite",
    "check_regression",
    "format_rows",
]

#: Default benchmark model: dense, GQA (8 query / 2 KV heads), sized so the
#: groups-per-row counts match the paper's serving regime (Llama-7B at group
#: size 128: 4096/128 = 32 groups per attention row, 11008/128 = 86 for the
#: FFN down projection; here 384/8 = 48 and 1024/8 = 128).  The repo's tiny
#: eval models have only 4 groups per row, which under-represents the
#: per-group dispatch cost the fused path eliminates.
BENCH_MODEL_CONFIG = ModelConfig(
    "perf-bench",
    dim=384,
    n_layers=4,
    n_heads=8,
    n_kv_heads=2,
    ffn_dim=1024,
    max_seq_len=512,
    group_size=8,
    seed=1234,
)


# --------------------------------------------------------------------------- #
# Model construction
# --------------------------------------------------------------------------- #
def build_bench_model(
    config: ModelConfig = BENCH_MODEL_CONFIG, seed: int = 0
) -> LlamaModel:
    """Random-weight model matching ``config`` (no training, no zoo cache)."""
    rng = np.random.default_rng(seed)
    d, f, v = config.dim, config.ffn_dim, config.vocab_size

    def mat(out: int, inp: int) -> np.ndarray:
        return (rng.normal(size=(out, inp)) / np.sqrt(inp)).astype(np.float32)

    w: dict[str, np.ndarray] = {
        "embed": mat(v, d),
        "lm_head": mat(v, d),
        "final_norm": np.ones(d, dtype=np.float32),
    }
    for i in range(config.n_layers):
        pre = f"layers.{i}"
        w[f"{pre}.attn_norm"] = np.ones(d, dtype=np.float32)
        w[f"{pre}.mlp_norm"] = np.ones(d, dtype=np.float32)
        w[f"{pre}.wq"] = mat(d, d)
        w[f"{pre}.wk"] = mat(config.kv_dim, d)
        w[f"{pre}.wv"] = mat(config.kv_dim, d)
        w[f"{pre}.wo"] = mat(d, d)
        if config.is_moe:
            w[f"{pre}.router"] = mat(config.n_experts, d)
            for e in range(config.n_experts):
                ep = f"{pre}.experts.{e}"
                w[f"{ep}.w_gate"] = mat(f, d)
                w[f"{ep}.w_up"] = mat(f, d)
                w[f"{ep}.w_down"] = mat(d, f)
        else:
            w[f"{pre}.w_gate"] = mat(f, d)
            w[f"{pre}.w_up"] = mat(f, d)
            w[f"{pre}.w_down"] = mat(d, f)
    return LlamaModel(config, w)


def quantize_bench_model(
    model: LlamaModel, *, seed: int = 1, calib_shape: tuple[int, int] = (4, 32)
) -> LlamaModel:
    """Full Atom recipe on the bench model (small synthetic calibration)."""
    rng = np.random.default_rng(seed)
    calib = rng.integers(0, model.config.vocab_size, size=calib_shape)
    cfg = AtomConfig.paper_default()
    return AtomQuantizer(cfg).quantize(model, calib_tokens=calib)


def _attach_telemetry(model: LlamaModel, sink) -> None:
    for lin in model.linears.values():
        if isinstance(lin, AtomLinear):
            lin.telemetry = sink


# --------------------------------------------------------------------------- #
# Suite
# --------------------------------------------------------------------------- #
LINEAR_CALLS = 100  # linear_forward calls per timed repeat
PREFILL_LEN = 128
DECODE_PROMPT, DECODE_STEPS = 64, 96
CALIB_SHAPE = (4, 48)


def _decoder(model: LlamaModel, prompt: np.ndarray, steps: int, recorder=None):
    """Prefill ``prompt`` now; return the callable that greedily decodes
    ``steps`` tokens after it (the decode-only section a bench times)."""
    cache: dict = {}
    first = model.forward(prompt, cache=cache)[0, -1]

    def decode() -> None:
        logits, pos, t0 = first, prompt.shape[1], clock()
        for i in range(steps):
            if recorder is not None:
                recorder.begin_iteration(i, clock() - t0)
            nxt = int(np.argmax(logits))
            logits = model.forward(
                np.asarray([[nxt]]), pos_offset=pos, cache=cache
            )[0, -1]
            pos += 1

    return decode


def run_perf_suite(*, seed: int = 0, recorder=None) -> dict:
    """Run every microbenchmark; returns the ``BENCH_inference.json`` payload.

    With a :class:`~repro.serving.telemetry.TraceRecorder`, the suite's
    quantized model then decodes once more, untimed, with the recorder
    attached to every AtomLinear (kernel-phase telemetry).
    """
    cfg = BENCH_MODEL_CONFIG
    model = build_bench_model(cfg, seed=seed)
    qmodel = quantize_bench_model(model, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)

    # linear_forward: decode-shaped (one token) calls on the fused q/k/v site.
    lin = qmodel.linears["layers.0.attn_in"]
    x1 = rng.normal(size=(1, cfg.dim))
    prompt = rng.integers(0, cfg.vocab_size, size=(1, PREFILL_LEN))
    dec_prompt = rng.integers(0, cfg.vocab_size, size=(1, DECODE_PROMPT))
    # quantize_sequential: RTN weights, since the GPTQ solver would swamp the
    # calibration forward executions this measures (O(L) carried states).
    calib = rng.integers(0, cfg.vocab_size, size=CALIB_SHAPE)
    seq_cfg = AtomConfig.paper_default().with_(sequential=True, use_gptq=False)

    def linear_calls() -> None:
        for _ in range(LINEAR_CALLS):
            lin(x1)

    lin(x1)  # warm-up
    t = interleaved({
        "linear_forward": lambda: linear_calls,
        "prefill": lambda: lambda: qmodel.forward(prompt),
        "decode": lambda: _decoder(qmodel, dec_prompt, DECODE_STEPS),
        "quantize_sequential": lambda: lambda: AtomQuantizer(seq_cfg).quantize(
            model, calib_tokens=calib
        ),
    })
    benchmarks = {
        "linear_forward": {
            **stats("after_s",
                    (s / LINEAR_CALLS for s in t["linear_forward"].samples)),
            "tokens": 1,
            "in_features": lin.in_features,
            "out_features": lin.out_features,
        },
        "prefill": {**stats("after_s", t["prefill"].samples),
                    "tokens": PREFILL_LEN},
        "decode": {
            **stats("after_s", t["decode"].samples),
            **stats("after_tokens_per_s",
                    (DECODE_STEPS / s for s in t["decode"].samples)),
            "prompt_tokens": DECODE_PROMPT,
            "decode_steps": DECODE_STEPS,
        },
        "quantize_sequential": {
            **stats("after_s", t["quantize_sequential"].samples),
            "layers": cfg.n_layers,
            "calib_tokens": int(calib.size),
        },
    }

    if recorder is not None:
        _attach_telemetry(qmodel, recorder)
        try:
            _decoder(qmodel, dec_prompt, DECODE_STEPS, recorder)()
        finally:
            _attach_telemetry(qmodel, None)

    return {
        "schema": BENCH_SCHEMA,
        "host": host(),
        "model": model_block(cfg),
        "benchmarks": benchmarks,
    }


# --------------------------------------------------------------------------- #
# Regression gate
# --------------------------------------------------------------------------- #
def check_regression(
    current: dict, baseline: dict, *, max_slowdown: float = 2.0
) -> list[str]:
    """Compare a fresh run against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  The gate is
    decode throughput: the serving-critical metric must not regress by more
    than ``max_slowdown``x against the committed ``BENCH_inference.json``.
    """
    problems: list[str] = []
    try:
        base = float(baseline["benchmarks"]["decode"]["after_tokens_per_s"])
        cur = float(current["benchmarks"]["decode"]["after_tokens_per_s"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed bench payload: {exc!r}"]
    if cur * max_slowdown < base:
        problems.append(
            f"decode throughput regressed >{max_slowdown:g}x: "
            f"{cur:.1f} tokens/s vs baseline {base:.1f} tokens/s"
        )
    return problems


def format_rows(payload: dict) -> list[list]:
    """Table rows (bench, median wall time ± IQR) for the CLI."""
    return [
        [name, f"{b['after_s'] * 1e3:.2f} ± {b['after_s_iqr'] * 1e3:.2f} ms"]
        for name, b in payload["benchmarks"].items()
    ]
