"""Microbenchmarks of quantized inference (``repro bench``).

Atom's headline claim is throughput: the fused kernels keep dequantization
off the critical path.  This harness times the NumPy engine's analog of
that claim — the vectorized :class:`~repro.core.linear.AtomLinear` pipeline,
the preallocated KV-cache, and the O(L) sequential calibration — and emits
the repo's committed perf baseline ``BENCH_inference.json``.  Each benchmark
records its best-of-N wall time as ``after_s``.

Four benchmarks:

``linear_forward``       one decode-shaped AtomLinear call on the fused
                         q/k/v site (the per-token hot operator)
``prefill``              full-model prompt pass, no cache
``decode``               token-by-token generation with an incremental
                         KV-cache (the serving-critical path; also reported
                         as ``after_tokens_per_s``)
``quantize_sequential``  sequential (layer-by-layer) calibration carrying
                         hidden states forward

The default model is a purpose-built dense GQA config with random weights —
timing does not need trained checkpoints, so the harness never touches the
zoo cache.  ``quick=True`` shrinks reps/steps for the CI perf-smoke job.

When a :class:`~repro.serving.telemetry.TraceRecorder` is passed, the decode
benchmark re-runs with the recorder attached to every AtomLinear: each call
emits an ``IterationSample`` with ``t_quant`` / ``t_dense`` wall-times, so
the existing trace tooling (``summarize`` / ``read_jsonl``) attributes
quantize-vs-GEMM cost without new instrumentation.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

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
    "trace_decode",
    "check_regression",
    "write_bench_json",
    "read_bench_json",
    "format_rows",
]

BENCH_SCHEMA = "atom-repro/bench-inference/v1"

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
# Timed sections
# --------------------------------------------------------------------------- #
def _best(fn, reps: int) -> float:
    """Best-of-``reps`` wall time of ``fn()`` (min filters scheduler noise)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _decode_seconds(
    model: LlamaModel, prompt: np.ndarray, steps: int, recorder=None
) -> float:
    """Greedy decode ``steps`` tokens after prefilling ``prompt``; returns
    the decode-only wall time (prefill excluded)."""
    cache: dict = {}
    logits = model.forward(prompt, cache=cache)[0, -1]
    pos = prompt.shape[1]
    t0 = time.perf_counter()
    for i in range(steps):
        if recorder is not None:
            recorder.begin_iteration(i, time.perf_counter() - t0)
        nxt = int(np.argmax(logits))
        logits = model.forward(
            np.asarray([[nxt]]), pos_offset=pos, cache=cache
        )[0, -1]
        pos += 1
    return time.perf_counter() - t0


# --------------------------------------------------------------------------- #
# Suite
# --------------------------------------------------------------------------- #
def run_perf_suite(*, quick: bool = False, seed: int = 0) -> dict:
    """Run every microbenchmark; returns the ``BENCH_inference.json`` payload."""
    cfg = BENCH_MODEL_CONFIG
    model = build_bench_model(cfg, seed=seed)
    qmodel = quantize_bench_model(model, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)

    reps = 3 if quick else 5
    lin_reps = 30 if quick else 100
    prefill_len = 48 if quick else 128
    decode_prompt = 32 if quick else 64
    decode_steps = 24 if quick else 96

    benchmarks: dict[str, dict] = {}

    # -- linear forward (decode-shaped: one token; the fused q/k/v site) -- #
    lin = qmodel.linears["layers.0.attn_in"]
    x1 = rng.normal(size=(1, cfg.dim))
    lin(x1)  # warm-up
    benchmarks["linear_forward"] = {
        "after_s": _best(lambda: lin(x1), lin_reps),
        "tokens": 1,
        "in_features": lin.in_features,
        "out_features": lin.out_features,
    }

    # -- prefill --------------------------------------------------------- #
    prompt = rng.integers(0, cfg.vocab_size, size=(1, prefill_len))
    benchmarks["prefill"] = {
        "after_s": _best(lambda: qmodel.forward(prompt), reps),
        "tokens": prefill_len,
    }

    # -- decode ---------------------------------------------------------- #
    dec_prompt = rng.integers(0, cfg.vocab_size, size=(1, decode_prompt))
    after = min(
        _decode_seconds(qmodel, dec_prompt, decode_steps) for _ in range(reps)
    )
    benchmarks["decode"] = {
        "after_s": after,
        "after_tokens_per_s": decode_steps / after,
        "prompt_tokens": decode_prompt,
        "decode_steps": decode_steps,
    }

    # -- sequential calibration ------------------------------------------ #
    # RTN weights: the GPTQ solver would swamp the calibration forward
    # executions this measures (O(L) carried hidden states).
    calib = rng.integers(0, cfg.vocab_size, size=(2, 24) if quick else (4, 48))
    seq_cfg = AtomConfig.paper_default().with_(sequential=True, use_gptq=False)
    benchmarks["quantize_sequential"] = {
        "after_s": _best(
            lambda: AtomQuantizer(seq_cfg).quantize(model, calib_tokens=calib), 1
        ),
        "layers": cfg.n_layers,
        "calib_tokens": int(calib.size),
    }

    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "model": {
            "name": cfg.name,
            "dim": cfg.dim,
            "n_layers": cfg.n_layers,
            "n_heads": cfg.n_heads,
            "n_kv_heads": cfg.n_kv_heads,
            "ffn_dim": cfg.ffn_dim,
            "n_outlier": cfg.n_outlier,
            "group_size": cfg.group_size,
        },
        "benchmarks": benchmarks,
    }


def trace_decode(
    recorder, *, quick: bool = False, seed: int = 0
) -> tuple[int, float]:
    """Decode with kernel-phase telemetry attached to every AtomLinear.

    Returns ``(decode_steps, decode_seconds)``; ``recorder`` accumulates one
    ``IterationSample`` (``t_quant`` / ``t_dense``) per linear call, which
    ``repro.serving.telemetry.summarize`` re-aggregates into the
    quantize-vs-GEMM time breakdown.
    """
    cfg = BENCH_MODEL_CONFIG
    qmodel = quantize_bench_model(build_bench_model(cfg, seed=seed), seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    prompt = rng.integers(0, cfg.vocab_size, size=(1, 32 if quick else 64))
    steps = 24 if quick else 96
    _attach_telemetry(qmodel, recorder)
    try:
        seconds = _decode_seconds(qmodel, prompt, steps, recorder=recorder)
    finally:
        _attach_telemetry(qmodel, None)
    return steps, seconds


# --------------------------------------------------------------------------- #
# Regression gate + I/O
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


def write_bench_json(payload: dict, dest: "str | Path") -> None:
    from repro.bench.artifacts import atomic_write_text

    atomic_write_text(dest, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_bench_json(src: "str | Path") -> dict:
    payload = json.loads(Path(src).read_text())
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unexpected bench schema {payload.get('schema')!r} in {src}"
        )
    return payload


def format_rows(payload: dict) -> list[list]:
    """Table rows (bench, wall time) for the CLI."""
    return [
        [name, f"{b['after_s'] * 1e3:.2f} ms"]
        for name, b in payload["benchmarks"].items()
    ]
