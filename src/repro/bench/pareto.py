"""Accuracy-vs-throughput Pareto sweep over the scheme registry.

``repro bench --pareto`` runs every numeric-executable scheme in
:data:`repro.serving.schemes.SCHEMES` through all three layers the registry
unifies:

- **accuracy** — quantize a trained zoo model with the scheme's recipe and
  measure perplexity (:mod:`repro.eval.perplexity`) on held-out synthwiki;
- **modeled throughput** — serve a ShareGPT workload on the full-size
  Llama-7B roofline simulation (deterministic virtual time);
- **measured throughput** — serve real requests through the numeric
  backend, every finished request verified bit-identical against the
  per-request ``generate`` oracle;
- **memory** — full-size weight footprint and KV bytes/token from the
  scheme's declared precisions.

The committed ``benchmarks/perf/BENCH_pareto.json`` is the regression
baseline.  ``check_pareto_regression`` gates the *structure* of the
frontier, not raw wall-clock: Atom-W4A4 must dominate W8A8 on modeled
throughput and W4A16 on memory (weights no larger, KV strictly smaller) —
the paper's design-space claim — plus FP16 must stay the accuracy anchor
and per-scheme numeric throughput may not regress beyond a generous slack.
"""

from __future__ import annotations

import math
from functools import partial

from repro.bench.payload import PARETO_BENCH_SCHEMA, host
from repro.bench.timing import interleaved, stats

__all__ = [
    "PARETO_BENCH_SCHEMA",
    "run_pareto_bench",
    "check_pareto_regression",
    "pareto_front",
    "format_pareto_rows",
]

def _roofline_tokens_per_s(scheme, spec, *, requests: int, seed: int):
    from repro.data.sharegpt import ShareGPTWorkload
    from repro.serving import ServingEngine

    reqs = ShareGPTWorkload(seed=seed, max_len=2048).sample_requests(requests)
    engine = ServingEngine(spec, scheme, max_batch=32)
    return engine.run(reqs).throughput_tokens_per_s


N_CALIB, CALIB_LEN = 32, 64
EVAL_CHARS = 4096
ROOFLINE_REQUESTS = 64
BATCH, PREFILL_LEN, DECODE_LEN = 4, 16, 12


def run_pareto_bench(
    *,
    seed: int = 0,
    model_name: str = "llama-7b-sim",
    scheme_names: "list[str] | None" = None,
) -> dict:
    """Sweep registered schemes; returns the ``BENCH_pareto.json`` payload.

    ``scheme_names=None`` sweeps every numeric-executable registered
    scheme.  One calibration batch is shared across all recipes so the
    sweep is deterministic and scheme-comparable.  The schemes' numeric
    serving runs are timed interleaved (median and IQR per scheme).
    """
    from repro.bench.serving_perf import _check_runs, _engine_case, _requests
    from repro.core.outliers import sample_calibration_tokens
    from repro.eval import perplexity
    from repro.models.zoo import load_model
    from repro.serving import NumericBackend
    from repro.serving.models import SERVING_SPECS, ZOO_ANALOGS
    from repro.serving.schemes import SCHEMES, numeric_scheme_names

    if scheme_names is None:
        scheme_names = numeric_scheme_names()
    unknown = [s for s in scheme_names if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown schemes: {', '.join(unknown)}")

    model = load_model(model_name)
    # The roofline axis simulates the full-size model the zoo analog stands
    # in for (the same pairing ``repro serve`` uses).
    spec = SERVING_SPECS[{z: n for n, z in ZOO_ANALOGS.items()}[model_name]]
    calib = sample_calibration_tokens(N_CALIB, CALIB_LEN, seed=seed + 42)
    reqs = _requests(BATCH, PREFILL_LEN, DECODE_LEN)

    served = {}
    rows = {}
    for name in scheme_names:
        scheme = SCHEMES[name]
        served[name] = scheme.quantize(model, calib_tokens=calib)
        rows[name] = {
            "scheme": name,
            "w_bits": scheme.w_bits,
            "a_bits": scheme.a_bits,
            "kv_bits": scheme.kv_bits,
            "avg_weight_bits": scheme.weight_bytes_per_param * 8.0,
            "ppl": float(
                perplexity(served[name], "synthwiki", eval_chars=EVAL_CHARS)
            ),
            "roofline_tokens_per_s": float(_roofline_tokens_per_s(
                scheme, spec, requests=ROOFLINE_REQUESTS, seed=seed
            )),
            "weight_gb": spec.n_params()
            * scheme.weight_bytes_per_param
            / 2**30,
            "kv_bytes_per_token": spec.kv_bytes_per_token(scheme.kv_bits),
            "verified_bit_identical": True,
        }

    timings = interleaved({
        name: _engine_case(partial(
            NumericBackend.engine_for, served[name], SCHEMES[name],
            max_batch=BATCH, admission="reserve", seed=seed,
        ), reqs)
        for name in scheme_names
    })
    delivered = BATCH * DECODE_LEN
    for name, t in timings.items():
        _check_runs(f"pareto bench {name}", t, reqs, oracle=True)
        rows[name].update(
            **stats("numeric_tokens_per_s", (delivered / s for s in t.samples)),
            **stats("numeric_wall_s", t.samples),
        )

    rows = list(rows.values())
    return {
        "schema": PARETO_BENCH_SCHEMA,
        "model": {"zoo": model_name, "roofline_spec": spec.name},
        "host": host(),
        "schemes": rows,
        "pareto_front": pareto_front(rows),
    }


def pareto_front(rows: list[dict]) -> list[str]:
    """Schemes not dominated on (lower ppl, higher modeled throughput)."""
    front = []
    for a in rows:
        dominated = any(
            b["ppl"] <= a["ppl"]
            and b["roofline_tokens_per_s"] >= a["roofline_tokens_per_s"]
            and (
                b["ppl"] < a["ppl"]
                or b["roofline_tokens_per_s"] > a["roofline_tokens_per_s"]
            )
            for b in rows
        )
        if not dominated:
            front.append(a["scheme"])
    return front


def check_pareto_regression(
    current: dict,
    baseline: dict,
    *,
    max_slowdown: float = 2.0,
    ppl_headroom: float = 1.02,
) -> list[str]:
    """Gate the sweep's structure against the committed baseline.

    Wall-clock enters only through the per-scheme numeric throughput gate
    (generous ``max_slowdown`` slack: shared CI is noisy); everything else
    is structural and must hold exactly:

    - every scheme verified bit-identical against the generate oracle;
    - every baseline scheme still present (schemes may be added, not lost);
    - Atom-W4A4 dominates W8A8 on modeled throughput, and W4A16 on memory
      (weights no larger, KV strictly smaller);
    - all perplexities finite, with FP16 the accuracy anchor (no quantized
      scheme beats it beyond ``ppl_headroom`` noise).

    Returns human-readable failures (empty = pass).
    """
    problems: list[str] = []
    try:
        cur = {r["scheme"]: r for r in current["schemes"]}
        base = {r["scheme"]: r for r in baseline["schemes"]}
        for r in cur.values():
            float(r["ppl"])
            float(r["roofline_tokens_per_s"])
            float(r["numeric_tokens_per_s"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed pareto bench payload: {exc!r}"]

    for name, r in cur.items():
        if not r.get("verified_bit_identical"):
            problems.append(f"{name}: run skipped oracle verification")
        if not math.isfinite(float(r["ppl"])):
            problems.append(f"{name}: non-finite perplexity {r['ppl']}")

    missing = sorted(set(base) - set(cur))
    if missing:
        problems.append(
            f"schemes dropped from the sweep: {', '.join(missing)}"
        )

    if {"Atom-W4A4", "W8A8", "W4A16"} <= set(cur):
        atom, w8a8, w4a16 = cur["Atom-W4A4"], cur["W8A8"], cur["W4A16"]
        if atom["roofline_tokens_per_s"] <= w8a8["roofline_tokens_per_s"]:
            problems.append(
                "Atom-W4A4 no longer dominates W8A8 on modeled throughput: "
                f"{atom['roofline_tokens_per_s']:.0f} vs "
                f"{w8a8['roofline_tokens_per_s']:.0f} tokens/s"
            )
        if atom["weight_gb"] > w4a16["weight_gb"] + 1e-9:
            problems.append(
                "Atom-W4A4 weight footprint exceeds W4A16: "
                f"{atom['weight_gb']:.2f} vs {w4a16['weight_gb']:.2f} GB"
            )
        if atom["kv_bytes_per_token"] >= w4a16["kv_bytes_per_token"]:
            problems.append(
                "Atom-W4A4 KV footprint no longer beats W4A16: "
                f"{atom['kv_bytes_per_token']:.0f} vs "
                f"{w4a16['kv_bytes_per_token']:.0f} bytes/token"
            )

    if "FP16" in cur:
        fp16_ppl = float(cur["FP16"]["ppl"])
        for name, r in cur.items():
            if name != "FP16" and float(r["ppl"]) * ppl_headroom < fp16_ppl:
                problems.append(
                    f"{name} perplexity {float(r['ppl']):.3f} beats the FP16 "
                    f"anchor {fp16_ppl:.3f} beyond noise — accuracy axis is "
                    "suspect"
                )

    for name in set(cur) & set(base):
        cur_tps = float(cur[name]["numeric_tokens_per_s"])
        base_tps = float(base[name]["numeric_tokens_per_s"])
        if cur_tps * max_slowdown < base_tps:
            problems.append(
                f"{name} numeric throughput regressed >{max_slowdown:g}x: "
                f"{cur_tps:.1f} tokens/s vs baseline {base_tps:.1f} tokens/s"
            )
    return problems


def format_pareto_rows(payload: dict) -> list[list]:
    """Table rows (scheme, bits, ppl, modeled/measured tok/s, memory)."""
    front = set(payload.get("pareto_front", ()))
    return [
        [
            r["scheme"] + (" *" if r["scheme"] in front else ""),
            f"{r['avg_weight_bits']:g}/{r['a_bits']}/{r['kv_bits']}",
            f"{r['ppl']:.3f}",
            f"{r['roofline_tokens_per_s']:.0f}",
            f"{r['numeric_tokens_per_s']:.1f}",
            f"{r['weight_gb']:.2f}",
            f"{r['kv_bytes_per_token']:.0f}",
        ]
        for r in payload["schemes"]
    ]
