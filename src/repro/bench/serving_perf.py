"""Batched-decode microbenchmark for the numeric serving backend.

``repro bench --serving`` drives the whole numeric serving stack — the
continuous-batching engine, paged KV store, quantized KV codec, and
:class:`~repro.core.linear.AtomLinear` layers — and measures delivered
decode throughput (tokens/s) as the batch size grows from 1 to 16.  The
point of the curve is the serving thesis itself: per-request decode work is
fixed, so tokens/s should scale with the number of concurrently decoding
requests until the scheduler (not the model) is the bottleneck.

The benchmark model is a random-weight GQA config quantized with the full
Atom recipe (no zoo cache / training involved), so the run exercises
quantized GEMMs and 4-bit KV pages exactly as a real numeric serving run
does.  The batch points are timed interleaved through
:mod:`repro.bench.timing` (median and IQR per point).  The smallest and
largest points are additionally verified bit-identical against the
per-request :meth:`~repro.models.llama.LlamaModel.generate` oracle, and the
payload records that fact — a perf baseline that silently stopped computing
the right tokens would be worthless.

``BENCH_serving_numeric.json`` (committed under ``benchmarks/perf/``) is the
regression baseline; ``check_serving_regression`` gates against the
largest-batch throughput with a generous slack factor because wall-clock on
shared CI is noisy.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bench.payload import (
    PREFIX_BENCH_SCHEMA,
    SERVING_BENCH_SCHEMA,
    host,
    model_block,
)
from repro.bench.perf import build_bench_model, quantize_bench_model
from repro.bench.timing import interleaved, stats
from repro.models.config import ModelConfig

__all__ = [
    "SERVING_BENCH_SCHEMA",
    "PREFIX_BENCH_SCHEMA",
    "SERVING_BENCH_CONFIG",
    "build_serving_bench_model",
    "run_serving_bench",
    "run_prefix_cache_bench",
    "check_serving_regression",
    "check_prefix_cache_regression",
    "format_serving_rows",
    "format_prefix_rows",
]

#: Small dense GQA model (4 query heads per KV head) — large enough that the
#: grouped attention path and multi-page KV sequences are exercised, small
#: enough that the full batch sweep stays CI-friendly.
SERVING_BENCH_CONFIG = ModelConfig(
    "serving-bench",
    dim=128,
    n_layers=2,
    n_heads=8,
    n_kv_heads=2,
    ffn_dim=256,
    max_seq_len=512,
    group_size=8,
    seed=4321,
)


def build_serving_bench_model(seed: int = 0):
    """Random-weight :data:`SERVING_BENCH_CONFIG` model, Atom-quantized."""
    return quantize_bench_model(
        build_bench_model(SERVING_BENCH_CONFIG, seed=seed), seed=seed + 1
    )


def _requests(batch: int, prefill_len: int, decode_len: int):
    from repro.data.sharegpt import Request

    return [Request(i, prefill_len, decode_len) for i in range(batch)]


def _engine_case(new_engine, reqs):
    """An :func:`~repro.bench.timing.interleaved` case: ``new_engine()``
    (untimed), then time ``engine.run(reqs)``; the run yields ``(engine,
    result)`` for the checks."""

    def prepare():
        engine = new_engine()
        return lambda: (engine, engine.run(reqs))

    return prepare


def _check_runs(label: str, timing, reqs, *, oracle: bool) -> None:
    """Every timed run finished every request; with ``oracle``, the first
    run's tokens equal the per-request ``generate`` oracle's."""
    from repro.serving import oracle_mismatches

    for _, result in timing.outputs:
        if result.completed_requests != len(reqs):
            raise RuntimeError(
                f"{label}: only {result.completed_requests}/{len(reqs)} "
                "requests finished"
            )
    if oracle:
        bad = oracle_mismatches(*timing.outputs[0], reqs)
        if bad:
            raise RuntimeError(
                f"{label}: requests {bad} tokens diverge from the generate "
                "oracle"
            )


BATCH_SIZES = (1, 4, 8, 16)
PREFILL_LEN, DECODE_LEN = 24, 32


def run_serving_bench(*, seed: int = 0) -> dict:
    """Measure numeric-backend decode throughput across batch sizes.

    Returns the ``BENCH_serving_numeric.json`` payload.  Each batch point
    runs a fresh engine + backend over ``batch`` identical-length requests
    under reserve admission, and reports delivered decode tokens per
    wall-clock second (median and IQR over the interleaved repeats); decode
    runs the fused cross-request path (one ``forward_batch`` per engine
    step).  The smallest AND largest batch points are verified
    bit-identical against the per-request ``generate`` oracle — the large
    point exercises the fused path at real batch widths.
    """
    from repro.serving import SCHEMES, NumericBackend

    model = build_serving_bench_model(seed=seed)
    scheme = SCHEMES["Atom-W4A4"]
    reqs = {b: _requests(b, PREFILL_LEN, DECODE_LEN) for b in BATCH_SIZES}
    timings = interleaved({
        b: _engine_case(partial(
            NumericBackend.engine_for, model, scheme, max_batch=b,
            admission="reserve", seed=seed,
        ), reqs[b])
        for b in BATCH_SIZES
    })
    points = []
    for batch, t in timings.items():
        _check_runs(
            f"serving bench batch={batch}", t, reqs[batch],
            oracle=batch in (BATCH_SIZES[0], BATCH_SIZES[-1]),
        )
        delivered = batch * DECODE_LEN
        points.append(
            {
                "batch": batch,
                "requests": batch,
                "prefill_len": PREFILL_LEN,
                "decode_len": DECODE_LEN,
                "decode_tokens": delivered,
                **stats("wall_s", t.samples),
                **stats("tokens_per_s", (delivered / s for s in t.samples)),
            }
        )

    return {
        "schema": SERVING_BENCH_SCHEMA,
        "scheme": scheme.name,
        "verified_bit_identical": True,
        "host": host(),
        "model": model_block(SERVING_BENCH_CONFIG),
        "batches": points,
    }


def _conversation_requests(
    n_conversations: int, turns: int, prompt_len: int, decode_len: int
):
    """Multi-round conversation workload ordered so later turns can hit.

    Request ids follow the ShareGPT ``TURN_STRIDE`` addressing
    (``cid * 64 + turn``) that groups turns of one conversation onto one
    token stream; each turn's prompt is the previous turn's full history
    plus a fresh ``prompt_len``-token message.  Requests are sorted by turn
    so every conversation's turn ``k`` retires (and interns its pages)
    before its turn ``k + 1`` is admitted.
    """
    from repro.data.sharegpt import Request

    reqs = []
    for cid in range(n_conversations):
        history = 0
        for turn in range(turns):
            prefill = history + prompt_len
            reqs.append(Request(cid * 64 + turn, prefill, decode_len))
            history = prefill + decode_len
    reqs.sort(key=lambda r: (r.request_id % 64, r.request_id // 64))
    return reqs


N_CONVERSATIONS, TURNS = 3, 3
PROMPT_LEN, CONV_DECODE_LEN = 96, 12


def run_prefix_cache_bench(*, seed: int = 0) -> dict:
    """Warm-vs-cold sweep: the same conversations with and without the cache.

    Runs one multi-round conversation workload through the numeric backend
    cold (no prefix cache: every turn re-prefills its whole history) and
    warm (radix-tree prefix cache: turn ``k + 1`` resumes from turn ``k``'s
    interned pages), interleaved repeat by repeat.  Both modes serve
    identical conversation prompts; each mode's tokens are verified
    bit-identical against the per-request ``generate`` oracle, and every
    warm run's tokens equal every cold run's, which is the whole point: the
    warm run skips prefill work without changing a single token.

    Returns the ``BENCH_prefix_cache.json`` payload.
    """
    from repro.serving import SCHEMES, NumericBackend, PrefixCache

    # Prompts are long enough that the skipped prefill FLOPs dominate the
    # cache's Python-side bookkeeping — warm must beat cold on wall-clock
    # (the CI gate), not just on positions computed.
    model = build_serving_bench_model(seed=seed)
    scheme = SCHEMES["Atom-W4A4"]
    reqs = _conversation_requests(
        N_CONVERSATIONS, TURNS, PROMPT_LEN, CONV_DECODE_LEN
    )

    def new_engine(warm: bool):  # a fresh (empty) cache for every run
        return NumericBackend.engine_for(
            model,
            scheme,
            max_batch=N_CONVERSATIONS,
            admission="reserve",
            seed=seed,
            prompts="conversation",
            prefix_cache=PrefixCache(seed=seed) if warm else None,
        )

    timings = interleaved({
        mode: _engine_case(partial(new_engine, mode == "warm"), reqs)
        for mode in ("cold", "warm")
    })
    def tokens(engine) -> list:
        return [
            np.asarray(engine.backend.generated_tokens(r.request_id)).tolist()
            for r in reqs
        ]

    cold_tokens = tokens(timings["cold"].outputs[0][0])
    runs = {}
    for mode, t in timings.items():
        _check_runs(f"prefix cache bench ({mode})", t, reqs, oracle=True)
        if any(tokens(engine) != cold_tokens for engine, _ in t.outputs):
            raise RuntimeError(
                "prefix cache bench: warm tokens differ from cold tokens"
            )
        delivered = len(reqs) * CONV_DECODE_LEN
        point = {
            "decode_tokens": delivered,
            **stats("wall_s", t.samples),
            **stats("tokens_per_s", (delivered / s for s in t.samples)),
        }
        if mode == "warm":
            pc = t.outputs[0][1].prefix_cache
            point.update(
                hits=pc["hits"],
                lookups=pc["lookups"],
                hit_rate=pc["hit_rate"],
                kv_tokens_reused=pc["kv_tokens"],
                shared_pages=pc["shared_pages"],
                evicted_pages=pc["evicted_pages"],
            )
        runs[mode] = point

    return {
        "schema": PREFIX_BENCH_SCHEMA,
        "scheme": scheme.name,
        "conversations": N_CONVERSATIONS,
        "turns": TURNS,
        "prompt_len": PROMPT_LEN,
        "decode_len": CONV_DECODE_LEN,
        "verified_bit_identical": True,
        "host": host(),
        "model": model_block(SERVING_BENCH_CONFIG),
        "runs": runs,
        "warm_speedup": runs["cold"]["wall_s"] / runs["warm"]["wall_s"],
    }


def check_serving_regression(
    current: dict,
    baseline: dict,
    *,
    max_slowdown: float = 2.0,
    min_batch_speedup: float = 2.0,
) -> list[str]:
    """Gate throughput against the committed baseline.

    Two gates, both with generous slack because wall-clock on shared CI is
    noisy:

    - the largest-batch throughput may not regress more than
      ``max_slowdown`` x against the baseline's largest-batch point;
    - fused batched decode must deliver at least ``min_batch_speedup`` x the
      *baseline's batch-1* throughput at batch 8 — the headline win of
      cross-request batching.  Skipped when either payload lacks the
      needed batch points.

    Returns human-readable failures (empty = pass).
    """
    problems: list[str] = []
    try:
        base_pt = max(baseline["batches"], key=lambda p: p["batch"])
        cur_pt = max(current["batches"], key=lambda p: p["batch"])
        base = float(base_pt["tokens_per_s"])
        cur = float(cur_pt["tokens_per_s"])
        base_by_batch = {
            int(p["batch"]): float(p["tokens_per_s"]) for p in baseline["batches"]
        }
        cur_by_batch = {
            int(p["batch"]): float(p["tokens_per_s"]) for p in current["batches"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed serving bench payload: {exc!r}"]
    if not current.get("verified_bit_identical"):
        problems.append("current run skipped oracle verification")
    if cur * max_slowdown < base:
        problems.append(
            f"batched decode throughput regressed >{max_slowdown:g}x at "
            f"batch {cur_pt['batch']}: {cur:.1f} tokens/s vs baseline "
            f"{base:.1f} tokens/s"
        )
    if 8 in cur_by_batch and 1 in base_by_batch:
        cur8, base1 = cur_by_batch[8], base_by_batch[1]
        if cur8 < min_batch_speedup * base1:
            problems.append(
                f"fused batched decode too slow: {cur8:.1f} tokens/s at "
                f"batch 8 is under {min_batch_speedup:g}x the baseline "
                f"batch-1 throughput ({base1:.1f} tokens/s)"
            )
    return problems


def check_prefix_cache_regression(
    current: dict,
    baseline: dict,
    *,
    max_slowdown: float = 2.0,
    min_warm_ratio: float = 1.0,
) -> list[str]:
    """Gate the warm-vs-cold sweep against the committed baseline.

    Four gates:

    - the warm run must be verified bit-identical to the oracle (and to the
      cold run — ``run_prefix_cache_bench`` raises otherwise);
    - warm throughput must be at least ``min_warm_ratio`` x the *current*
      run's cold throughput — the cache's entire job is to do strictly less
      prefill work, so warm < cold means it is adding overhead, not saving
      it;
    - warm throughput may not regress more than ``max_slowdown`` x against
      the baseline's warm point (generous slack: shared-CI wall-clock);
    - the hit rate must reach the workload's structural expectation —
      every turn after a conversation's first is a hit, so
      ``(turns - 1) / turns`` of lookups — against the current payload's
      own shape.

    Returns human-readable failures (empty = pass).
    """
    problems: list[str] = []
    try:
        warm = current["runs"]["warm"]
        cold = current["runs"]["cold"]
        base_warm = float(baseline["runs"]["warm"]["tokens_per_s"])
        turns = int(current["turns"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed prefix cache bench payload: {exc!r}"]
    if not current.get("verified_bit_identical"):
        problems.append("current run skipped oracle verification")
    warm_tps = float(warm["tokens_per_s"])
    cold_tps = float(cold["tokens_per_s"])
    if warm_tps < min_warm_ratio * cold_tps:
        problems.append(
            f"warm run slower than cold: {warm_tps:.1f} tokens/s with the "
            f"prefix cache vs {cold_tps:.1f} tokens/s without "
            f"(required ratio {min_warm_ratio:g})"
        )
    if warm_tps * max_slowdown < base_warm:
        problems.append(
            f"warm throughput regressed >{max_slowdown:g}x: "
            f"{warm_tps:.1f} tokens/s vs baseline {base_warm:.1f} tokens/s"
        )
    expect_rate = (turns - 1) / turns if turns > 0 else 0.0
    if float(warm.get("hit_rate", 0.0)) < expect_rate - 1e-9:
        problems.append(
            f"hit rate {float(warm.get('hit_rate', 0.0)):.1%} below the "
            f"structural expectation {expect_rate:.1%} "
            f"({turns - 1} of every {turns} turns should hit)"
        )
    return problems


def format_prefix_rows(payload: dict) -> list[list]:
    """Table rows (run, decode tokens, median wall s, tokens/s ± IQR, hit rate)."""
    rows = []
    for mode in ("cold", "warm"):
        p = payload["runs"][mode]
        rows.append(
            [
                mode,
                p["decode_tokens"],
                f"{p['wall_s']:.3f}",
                f"{p['tokens_per_s']:.1f} ± {p['tokens_per_s_iqr']:.1f}",
                f"{p['hit_rate']:.0%}" if "hit_rate" in p else "-",
            ]
        )
    return rows


def format_serving_rows(payload: dict) -> list[list]:
    """Table rows (batch, decode tokens, median wall s, tokens/s ± IQR)."""
    return [
        [
            p["batch"],
            p["decode_tokens"],
            f"{p['wall_s']:.3f}",
            f"{p['tokens_per_s']:.1f} ± {p['tokens_per_s_iqr']:.1f}",
        ]
        for p in payload["batches"]
    ]
