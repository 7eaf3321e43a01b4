"""Wall-clock serving benchmark: one workload per invocation.

    python3 servebench/run.py --workload decode_atom --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (host-corrected, with the raw
value beside each); ``--trace 1`` runs the same workload with span
wrappers around each layer and prints the per-layer metrics, writing the
spans to ``.servebench/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is nonzero when any served token differs from the ``generate`` oracle.
"""

import os

# One BLAS/OpenMP thread, fixed before NumPy is first imported: threaded
# BLAS on a 2-vCPU host doubled the spread of every GEMM-bound number.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package and the program from this checkout's
# source tree, never from an installed copy.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

E2E = (
    "setup_s",
    "decode_tok_s",
    "ttft_p50_ms",
    "ttft_p90_ms",
    "tbt_p50_ms",
    "tbt_p99_ms",
    "slo_attain_frac",
    "peak_rss_mb",
    "top1_agree_fp16",
    "ok_frac",
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"servebench: cannot import the program: {exc}")
    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"servebench: no program source tree under {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from servebench import serve
    from servebench.host import REF_NOMINAL_MS, BenchClock, cpu_times, steal_frac
    from servebench.layers import UNITS, LayerTracer, per_layer, setup_metrics
    from servebench.stats import correction, percentile, trimmed_mean

    if args.workload not in serve.WORKLOADS:
        raise SystemExit(
            f"servebench: unknown workload {args.workload!r}; "
            f"choose from {sorted(serve.WORKLOADS)}"
        )
    wl = serve.WORKLOADS[args.workload]
    clock = BenchClock()
    cpu0 = cpu_times()
    for _ in range(5):
        clock.probe()

    tracer = LayerTracer(clock.now) if args.trace else None
    if tracer is not None:
        tracer.install_setup()
    setup = serve.set_up(wl, args.seed, clock)
    if tracer is not None:
        gptq_spans = [
            (s, e) for n, s, e in zip(tracer.names, tracer.starts, tracer.ends)
            if n == "setup.gptq"
        ]
        tracer.restore()

    plan = serve.make_plan(
        wl, args.seed, args.seconds / 2 if tracer is not None else args.seconds
    )
    windows, traced = serve.measure(
        wl, setup.model, plan, args.seed, clock, args.seconds, tracer=tracer
    )
    for _ in range(3):
        clock.probe()
    cpu1 = cpu_times()
    timeline = clock.timeline()
    c = correction(clock.probes_ms, REF_NOMINAL_MS)
    ref_ms = trimmed_mean(clock.probes_ms)

    oracle = serve.Oracle(setup.model, wl, args.seed)
    top1 = serve.top1_agree(setup.model, setup.fp16)
    e2e, counts = serve.end_to_end(wl, windows, oracle, timeline, setup, top1)
    correct = setup.warmup_ok and counts["failed"] == 0
    if traced:
        t_e2e, t_counts = serve.end_to_end(wl, traced, oracle, timeline, setup, top1)
        correct = correct and t_counts["failed"] == 0
        for k in ("sent", "succeeded", "failed", "mismatched"):
            counts[k] += t_counts[k]

    print(
        f"servebench {wl.name}: scheme {wl.scheme}, seed {args.seed}, "
        f"{len(windows) + len(traced)} windows, host correction c={c:.4f} "
        f"(trimmed-mean probe {ref_ms:.3f} ms over {len(clock.probes_ms)}), "
        f"steal {steal_frac(cpu0, cpu1):.4f}"
    )
    print(
        f"requests: sent {counts['sent']}, succeeded {counts['succeeded']}, "
        f"failed {counts['failed']} (token mismatches {counts['mismatched']})"
    )
    for name, (corr, raw, n, unit) in e2e.items():
        if corr is None:
            print(f"  {name:18s} unsupported: only {n} samples")
        else:
            print(f"  {name:18s} {corr:12.4f} {unit:6s} (raw {raw:.4f}, n={n})")

    if tracer is None:
        missing = [k for k in E2E if e2e[k][0] is None]
        if missing:
            print(f"servebench: too few samples for {missing}", file=sys.stderr)
            return 3
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][3]} for k in E2E}
    else:
        lag = [
            w.injected[r] - w.due[r] for w in windows + traced for r in w.injected
        ]
        base = e2e["decode_tok_s"][1]
        extra = setup_metrics(setup, timeline)
        extra.update(
            {
                "setup.gptq_s": sum(timeline.span(s, e) for s, e in gptq_spans)
                / serve.SETUP_REPEATS,
                "host.ref_ms": ref_ms,
                "host.correction": c,
                "host.steal_frac": steal_frac(cpu0, cpu1),
                "gen.lag_ms_p90": (percentile(lag, 0.9) or 0.0) * 1e3 * c,
                "trace.overhead_frac": 1.0 - t_e2e["decode_tok_s"][1] / base if base else 0.0,
            }
        )
        layer = per_layer(tracer, traced, c, extra)
        out = ROOT / ".servebench"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{wl.name}-seed{args.seed}.jsonl")
        for name, value in layer.items():
            print(f"  {name:30s} {value:14.6f}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in UNITS.items()}
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": counts["sent"],
                "failed": counts["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
