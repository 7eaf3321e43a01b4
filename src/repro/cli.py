"""Command-line interface.

Usage::

    python -m repro zoo                          # list / pre-train the zoo
    python -m repro quantize -m llama-7b-sim     # quantize + evaluate
    python -m repro ablation -m llama-7b-sim     # Table 3 on one model
    python -m repro serve --scheme Atom-W4A4     # serving simulation
    python -m repro serve --backend numeric --requests 8 --verify
                                                 # real-model serving + oracle
    python -m repro trace --scheme FP16 -o t.jsonl   # serving event trace
    python -m repro trace --chaos 7 -o t.jsonl       # fault-injection trace
    python -m repro bench -o BENCH_inference.json    # inference microbenchmarks
    python -m repro bench --serving                  # batched numeric decode
    python -m repro bench --pareto                   # scheme Pareto sweep
    python -m repro quantize --checkpoint-dir ckpt/  # crash-safe, resumable
    python -m repro doctor --checkpoint-dir ckpt/    # validate on-disk artifacts
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import format_table

__all__ = ["main"]


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.models.config import MODEL_FAMILY
    from repro.models.zoo import load_weights, zoo_cache_dir

    rows = []
    for name, cfg in MODEL_FAMILY.items():
        if args.train:
            load_weights(name, verbose=args.verbose)
            status = "cached"
        else:
            status = "moe" if cfg.is_moe else "dense"
        rows.append([name, cfg.dim, cfg.n_layers, cfg.n_params(), status])
    print(format_table(["model", "dim", "layers", "params", "kind"], rows))
    print(f"cache: {zoo_cache_dir()}")
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    from repro.core import AtomConfig, AtomQuantizer, CheckpointError
    from repro.eval import perplexity, zero_shot_suite
    from repro.models.zoo import load_model
    from repro.quant.guards import NumericalError

    model = load_model(args.model)
    cfg = AtomConfig.paper_default().with_(
        a_bits=args.bits,
        w_bits=args.bits,
        kv_bits=min(args.bits, 4) if args.kv else None,
        fmt=args.fmt,
        sequential=args.sequential,
        act_order=args.act_order,
    )
    q = AtomQuantizer(cfg, strict=True if args.strict_guards else None)
    try:
        quant = q.quantize(
            model,
            checkpoint_dir=args.checkpoint_dir,
            force_restart=args.force_restart,
        )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        print(
            "hint: rerun with --force-restart to discard the incompatible "
            "checkpoint directory, or run `python -m repro doctor "
            f"--checkpoint-dir {args.checkpoint_dir}` to inspect it",
            file=sys.stderr,
        )
        return 2
    except NumericalError as exc:
        print(f"numerical guard tripped (strict mode): {exc}", file=sys.stderr)
        return 3
    print(f"quantized {args.model} with {cfg.label()}")
    print(f"  mean weight reconstruction error: {q.report.mean_weight_error:.4f}")
    print(f"  {q.health.summary()}")
    rows = []
    for corpus in ("synthwiki", "synthptb", "synthc4"):
        rows.append(
            [
                corpus,
                perplexity(model, corpus, eval_chars=4096),
                perplexity(quant, corpus, eval_chars=4096),
            ]
        )
    print(format_table(["corpus", "FP16 ppl", "quantized ppl"], rows))
    if args.zeroshot:
        fp16 = zero_shot_suite(model, n_items=args.items)
        qs = zero_shot_suite(quant, n_items=args.items)
        rows = [[t, 100 * fp16[t], 100 * qs[t]] for t in fp16]
        print(format_table(["task", "FP16 %", "quantized %"], rows))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.eval.ablation import run_accuracy_ablation
    from repro.models.zoo import load_model

    model = load_model(args.model)
    rows = [
        [r.label, r.ppl, r.delta_from_previous]
        for r in run_accuracy_ablation(model, corpus=args.corpus)
    ]
    print(format_table(["technique (cumulative)", "ppl", "delta"], rows))
    return 0


def _resolve_schemes(
    scheme_arg: str, numeric: bool
) -> "tuple[list[str], str | None]":
    """Scheme names for a serve run, or an error message.

    ``"all"`` expands to every registered scheme (numeric backend: every
    scheme with a quantization recipe); naming a roofline-only scheme for
    the numeric backend is the error case.
    """
    from repro.serving.schemes import SCHEMES, numeric_scheme_names

    if scheme_arg == "all":
        names = numeric_scheme_names() if numeric else list(SCHEMES)
    else:
        names = [scheme_arg]
    unsupported = [s for s in names if not SCHEMES[s].numeric_executable]
    if numeric and unsupported:
        return names, (
            f"numeric backend supports {', '.join(numeric_scheme_names())}; "
            f"{', '.join(unsupported)} has no quantization recipe "
            "(roofline-only)"
        )
    return names, None


def _tp_config(args: argparse.Namespace):
    """``--tp``/``--interconnect`` as a ``TPConfig`` (None for one GPU)."""
    if args.tp <= 1:
        return None
    from repro.serving.parallel import NVLINK, PCIE_4, TPConfig

    bandwidth = NVLINK if args.interconnect == "nvlink" else PCIE_4
    return TPConfig(args.tp, bandwidth)


def _prefix_cache_for(args: argparse.Namespace):
    """A fresh ``PrefixCache`` when ``--prefix-cache`` was given, else None.

    One cache per engine: binding rewires the allocator/backend plumbing,
    so caches are never shared across scheme runs.  Prompts follow the
    multi-round conversation derivation — requests in the same
    conversation (``request_id // 64``) then share token prefixes, which
    is what makes caching them worthwhile.
    """
    if not args.prefix_cache:
        return None
    from repro.serving import PrefixCache

    return PrefixCache(seed=args.seed)


def _wrap_cluster(args: argparse.Namespace, build):
    """``build()`` once, or ``--replicas`` times behind a cluster router."""
    if args.replicas <= 1:
        return build()
    from repro.serving import ClusterEngine

    return ClusterEngine(
        [build() for _ in range(args.replicas)], router=args.router
    )


def _serve_engine(args: argparse.Namespace, scheme, spec, served):
    """One ``repro serve`` engine (or replica cluster) for ``scheme``.

    ``served`` is the quantized zoo model on the numeric backend and None
    on the analytic one, which simulates the full-size ``spec`` instead.
    Requests are shed, not raised, whenever the run must degrade
    gracefully: open-loop traffic, replicas, or enforced deadlines.
    """
    from repro.serving import NumericBackend, ServingEngine

    kwargs = dict(
        max_batch=args.batch,
        admission=args.admission,
        shed_policy=(
            "drop"
            if args.open_loop or args.replicas > 1 or args.deadline is not None
            else "raise"
        ),
        # Open-loop deadlines are per request, registered by the front-end.
        deadline_s=None if args.open_loop else args.deadline,
        cache_aware_preempt=args.cache_aware_preempt,
    )

    def build():
        if served is None:
            return ServingEngine(
                spec,
                scheme,
                enforce_memory=not args.no_memory_limit,
                tp=_tp_config(args),
                prefix_cache=_prefix_cache_for(args),
                **kwargs,
            )
        return NumericBackend.engine_for(
            served,
            scheme,
            seed=args.seed,
            prompts="conversation" if args.prefix_cache else "synthetic",
            prefix_cache=_prefix_cache_for(args),
            **kwargs,
        )

    return _wrap_cluster(args, build)


def _print_cluster_stats(cluster: "dict | None") -> None:
    if not cluster:
        return
    states = ", ".join(
        f"r{rep['replica']}:{rep['state']}" for rep in cluster["replicas"]
    )
    print(
        f"  cluster: {cluster['n_replicas']} replicas "
        f"({cluster['router']} router), {cluster['rounds']} rounds, "
        f"{cluster['reroutes']} rerouted, {cluster['failed']} failed, "
        f"{cluster['cluster_shed']} cluster-shed  [{states}]"
    )


def _print_prefix_stats(label: str, stats: "dict | None") -> None:
    if not stats:
        return
    print(
        f"  {label}: prefix cache {stats['hits']}/{stats['lookups']} hits "
        f"({stats['hit_rate']:.0%}), {stats['kv_tokens']} KV tokens reused, "
        f"{stats['shared_pages']} shared pages held, "
        f"{stats['evicted_pages']} evicted"
    )


def _build_open_loop_interactions(args: argparse.Namespace, workload):
    """Arrival schedule for ``repro serve --open-loop`` (deterministic)."""
    from repro.serving import poisson_interactions, sharegpt_interactions

    tenants = tuple(f"tenant{i}" for i in range(args.tenants))
    if args.conversations:
        return sharegpt_interactions(
            workload,
            args.requests,
            rate=args.rate,
            seed=args.seed,
            tenants=tenants,
            think_mean_s=args.think,
            deadline_s=args.deadline,
        )
    return poisson_interactions(
        workload.sample_requests(args.requests),
        rate=args.rate,
        seed=args.seed,
        tenants=tenants,
        deadline_s=args.deadline,
    )


def _print_open_loop(args, model_name: str, name: str, res, verified) -> None:
    r = res.serving
    print(
        f"{model_name}  scheme={name}  scheduler={res.scheduler}  "
        f"rate={args.rate}/s  {res.submitted} submitted "
        f"({res.interactions} interactions, "
        f"{res.interactions_completed} completed)"
    )
    limited = (
        f"  rate_limited={res.rate_limited}"
        if args.rate_limit is not None
        else ""
    )
    check = f"  tokens==generate: {verified}" if args.verify else ""
    print(
        f"  tput={r.throughput_tokens_per_s:.0f} tok/s  "
        f"finished={r.completed_requests}  timed_out={r.timed_out}  "
        f"shed={r.shed}{limited}  preempt={r.preemptions}  "
        f"goodput={res.slo.overall.goodput_rps:.3f} req/s  "
        f"attainment={res.slo.overall.attainment:.1%}{check}"
    )
    _print_cluster_stats(r.cluster)
    _print_prefix_stats(name, r.prefix_cache)
    print(res.slo.table())
    print()


def _print_closed_loop(
    args, model_name: str, numeric: bool, runs, n_requests: int
) -> None:
    if numeric:
        header = ["finished", "peak batch", "preempt", "tokens==generate"]
        rows = [
            [n, f"{r.throughput_tokens_per_s:.0f}", r.completed_requests,
             r.max_batch, r.preemptions, v]
            for n, r, v in runs
        ]
    else:
        header = ["latency ms", "TTFT s", "peak batch", "preempt"]
        rows = [
            [n, f"{r.throughput_tokens_per_s:.0f}",
             f"{r.mean_decode_latency_s * 1e3:.1f}",
             f"{r.mean_ttft_s:.2f}", r.max_batch, r.preemptions]
            for n, r, _ in runs
        ]
    print(
        format_table(
            ["scheme", "tokens/s", *header],
            rows,
            title=f"{model_name}, batch<= {args.batch}, "
            f"{n_requests} requests, {args.admission} admission",
        )
    )
    for name, r, _ in runs:
        _print_prefix_stats(name, r.prefix_cache)
    for _, r, _ in runs:
        _print_cluster_stats(r.cluster)
    if args.deadline is not None:
        for name, r, _ in runs:
            print(f"  {name}: {r.timed_out}/{n_requests} timed out past "
                  f"the {args.deadline:g} s deadline, {r.shed} shed")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a workload on either backend, closed or open loop."""
    from repro.data.sharegpt import ShareGPTWorkload
    from repro.serving import SCHEMES, OpenLoopFrontend, oracle_mismatches
    from repro.serving.models import SERVING_SPECS, ZOO_ANALOGS

    numeric = args.backend == "numeric"
    if args.verify and not numeric:
        print("--verify needs --backend numeric (the analytic backend "
              "produces no tokens to check)", file=sys.stderr)
        return 2
    if numeric and args.tp > 1:
        print("numeric backend does not support tensor parallelism",
              file=sys.stderr)
        return 2
    scheme_names, err = _resolve_schemes(args.scheme, numeric)
    if err:
        print(err, file=sys.stderr)
        return 2
    spec = SERVING_SPECS[args.model]
    model = None
    if numeric:
        from repro.models.zoo import load_model

        model = load_model(ZOO_ANALOGS[args.model])
        # Requests must fit the small model's context window.
        max_len = model.config.max_seq_len
        model_name = f"{ZOO_ANALOGS[args.model]} (numeric backend)"
    else:
        max_len = 2048
        model_name = f"{spec.name} (analytic backend)"
    workload = ShareGPTWorkload(seed=args.seed, max_len=max_len)
    if args.open_loop:
        interactions = _build_open_loop_interactions(args, workload)
    else:
        reqs = workload.sample_requests(args.requests)

    runs = []
    for name in scheme_names:
        scheme = SCHEMES[name]
        served = scheme.quantize(model) if numeric else None
        engine = _serve_engine(args, scheme, spec, served)
        if args.open_loop:
            res = OpenLoopFrontend(
                engine,
                args.scheduler,
                slo_ttft_s=args.slo_ttft,
                slo_tbt_s=args.slo_tbt,
                max_queue=args.max_queue,
                rate_limit=args.rate_limit,
                rate_limit_burst=args.rate_limit_burst,
            ).run(interactions)
            r, submitted = res.serving, [s.request for s in res.submissions]
        else:
            r, submitted = engine.run(reqs), reqs
        verified = "-"
        if args.verify:
            bad = oracle_mismatches(engine, r, submitted)
            verified = "FAIL" if bad else "ok"
        if args.open_loop:
            _print_open_loop(args, model_name, name, res, verified)
        runs.append((name, r, verified))

    if not args.open_loop:
        _print_closed_loop(args, model_name, numeric, runs, len(reqs))
    if any(v == "FAIL" for _, _, v in runs):
        print("numeric serving diverged from the generate oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.data.sharegpt import ShareGPTWorkload
    from repro.serving import SCHEMES, ServingEngine, TraceRecorder
    from repro.serving.faults import FaultPlan
    from repro.serving.models import SERVING_SPECS
    from repro.serving.telemetry import write_csv, write_jsonl

    spec = SERVING_SPECS[args.model]
    tp = _tp_config(args)
    reqs = ShareGPTWorkload(seed=args.seed, max_len=2048).sample_requests(
        args.requests
    )
    faults = None
    degrade_kwargs: dict = {}
    if args.chaos is not None:
        faults = FaultPlan.random(
            args.chaos, request_ids=[r.request_id for r in reqs]
        )
        degrade_kwargs["shed_policy"] = "drop"
        print(f"injecting {faults.describe()}")
    if args.deadline is not None:
        degrade_kwargs["deadline_s"] = args.deadline
        degrade_kwargs["shed_policy"] = "drop"
    recorder = TraceRecorder()
    engine = ServingEngine(
        spec,
        SCHEMES[args.scheme],
        max_batch=args.batch,
        admission=args.admission,
        tp=tp,
        telemetry=recorder,
        **degrade_kwargs,
    )
    result = engine.run(reqs, faults=faults)
    try:
        write_jsonl(recorder.events, args.output)
        print(f"wrote {len(recorder.events)} events to {args.output}")
        if args.csv:
            write_csv(recorder.events, args.csv)
            print(f"wrote iteration metrics to {args.csv}")
    except OSError as exc:
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return 2

    s = recorder.summary()
    print(
        format_table(
            ["metric", "value"],
            [
                ["backend", result.backend],
                ["iterations", s.iterations],
                ["admitted / finished", f"{s.admitted} / {s.finished}"],
                ["preemptions", s.preemptions],
                ["mean decode occupancy", f"{s.mean_occupancy:.1f}"],
                ["peak batch", s.peak_running],
                ["mean decode latency (ms)", f"{s.mean_decode_latency_s * 1e3:.2f}"],
                ["p50 / p90 / p99 (ms)",
                 f"{s.p50_decode_latency_s * 1e3:.2f} / "
                 f"{s.p90_decode_latency_s * 1e3:.2f} / "
                 f"{s.p99_decode_latency_s * 1e3:.2f}"],
                ["mean / peak KV utilization",
                 f"{s.mean_kv_utilization:.2f} / {s.peak_kv_utilization:.2f}"],
                ["min free pages", s.min_free_pages],
            ]
            + (
                [
                    ["terminal states",
                     f"finished {result.completed_requests} / "
                     f"timed_out {result.timed_out} / "
                     f"cancelled {result.cancelled} / shed {result.shed}"],
                    ["faults injected / alloc retries",
                     f"{result.faults_injected} / {result.alloc_retries}"],
                ]
                if (args.chaos is not None or args.deadline is not None)
                else []
            ),
            title=f"{spec.name} {args.scheme}, {args.admission} admission, "
            f"{len(reqs)} requests",
        )
    )
    total = sum(s.time_breakdown.values())
    rows = [
        [phase, f"{t:.3f}", f"{100 * t / total:.1f}%"]
        for phase, t in s.time_breakdown.items()
    ]
    if tp:
        rows.append(["  (comm, in dense)", f"{s.comm_time_s:.3f}",
                     f"{100 * s.comm_time_s / total:.1f}%"])
    print()
    print(format_table(["phase", "seconds", "share"], rows,
                       title="Per-phase time (trace-derived)"))
    drift = max(
        abs(s.time_breakdown[k] - result.time_breakdown[k])
        for k in result.time_breakdown
    )
    print(f"\nreconciliation vs ServingResult.time_breakdown: "
          f"max drift {drift:.2e} s")
    return 0


def _bench_tail(args: argparse.Namespace, payload: dict, check) -> int:
    """Write ``-o``, then gate ``payload`` against ``--check-against``.

    Exit 2 on an unreadable baseline, 1 on a regression, else 0.  Without
    ``--max-slowdown`` the gate keeps ``check``'s own bound.
    """
    from repro.bench import payload as bench_payload

    if args.output:
        bench_payload.write(payload, args.output)
        print(f"wrote {args.output}")
    if not args.check_against:
        return 0
    try:
        baseline = bench_payload.read(args.check_against, payload["schema"])
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read baseline {args.check_against}: {exc}",
              file=sys.stderr)
        return 2
    bound = {} if args.max_slowdown is None else {
        "max_slowdown": args.max_slowdown
    }
    problems = check(payload, baseline, **bound)
    for msg in problems:
        print(f"REGRESSION: {msg}", file=sys.stderr)
    if problems:
        return 1
    print(f"no regression vs {args.check_against}")
    return 0


def _cmd_bench_prefix(args: argparse.Namespace) -> int:
    """Warm-vs-cold prefix-cache sweep through the numeric serving backend."""
    from repro.bench.serving_perf import (
        check_prefix_cache_regression,
        format_prefix_rows,
        run_prefix_cache_bench,
    )

    payload = run_prefix_cache_bench()
    print(
        format_table(
            ["run", "decode tokens", "wall s", "tokens/s", "hit rate"],
            format_prefix_rows(payload),
            title="numeric serving backend, "
            f"{payload['conversations']} conversations x "
            f"{payload['turns']} turns, prefix cache warm vs cold",
        )
    )
    print(f"warm speedup over cold prefill: {payload['warm_speedup']:.2f}x")
    print("tokens verified bit-identical to generate oracle (both runs): "
          f"{payload['verified_bit_identical']}")
    return _bench_tail(args, payload, check_prefix_cache_regression)


def _cmd_bench_pareto(args: argparse.Namespace) -> int:
    """Accuracy-vs-throughput sweep over every registered scheme."""
    from repro.bench.pareto import (
        check_pareto_regression,
        format_pareto_rows,
        run_pareto_bench,
    )

    payload = run_pareto_bench()
    print(
        format_table(
            ["scheme", "w/a/kv bits", "ppl", "roofline tok/s",
             "numeric tok/s", "weights GB", "KV B/token"],
            format_pareto_rows(payload),
            title=f"scheme Pareto sweep: {payload['model']['zoo']} accuracy, "
            f"{payload['model']['roofline_spec']} roofline",
        )
    )
    print("* on the (ppl, modeled tokens/s) Pareto front: "
          + ", ".join(payload["pareto_front"]))
    print("tokens verified bit-identical to generate oracle (all schemes): "
          "True")
    return _bench_tail(args, payload, check_pareto_regression)


def _cmd_bench_serving(args: argparse.Namespace) -> int:
    """Batched-decode microbenchmark through the numeric serving backend."""
    if args.prefix_cache:
        return _cmd_bench_prefix(args)
    from repro.bench.serving_perf import (
        check_serving_regression,
        format_serving_rows,
        run_serving_bench,
    )

    payload = run_serving_bench()
    print(
        format_table(
            ["batch", "decode tokens", "wall s", "tokens/s"],
            format_serving_rows(payload),
            title="numeric serving backend, fused batched decode",
        )
    )
    print("tokens verified bit-identical to generate oracle: "
          f"{payload['verified_bit_identical']}")
    return _bench_tail(args, payload, check_serving_regression)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.perf import check_regression, format_rows, run_perf_suite

    if args.pareto:
        return _cmd_bench_pareto(args)
    if args.serving:
        return _cmd_bench_serving(args)

    recorder = None
    if args.trace:
        from repro.serving import TraceRecorder

        recorder = TraceRecorder()
    payload = run_perf_suite(recorder=recorder)
    print(
        format_table(
            ["benchmark", "wall time"],
            format_rows(payload),
            title="quantized inference (median ± IQR)",
        )
    )
    d = payload["benchmarks"]["decode"]
    print(f"decode throughput: {d['after_tokens_per_s']:.1f} tokens/s")
    if recorder is not None:
        from repro.serving.telemetry import summarize, write_jsonl

        write_jsonl(recorder.events, args.trace)
        s = summarize(recorder.events)
        t_quant = s.time_breakdown.get("quant", 0.0)
        t_dense = s.time_breakdown.get("dense", 0.0)
        total = t_quant + t_dense
        print(
            f"wrote {len(recorder.events)} kernel-phase events to {args.trace} "
            f"({d['decode_steps']} decode steps, {s.total_time_s:.3f}s)"
        )
        if total > 0:
            print(
                f"linear time split: quantize {100 * t_quant / total:.1f}% / "
                f"GEMM+epilogue {100 * t_dense / total:.1f}%"
            )
    return _bench_tail(args, payload, check_regression)


def _floats(node, where: str):
    """Every ``(path, value)`` float leaf of a JSON document."""
    if isinstance(node, float):
        yield where, node
    elif isinstance(node, dict):
        for key, val in node.items():
            yield from _floats(val, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _floats(val, f"{where}[{i}]")


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Validate on-disk pipeline artifacts; exit 1 when anything is corrupt."""
    import math

    checks: list[tuple[str, list[str]]] = []

    if args.checkpoint_dir:
        from repro.core.checkpoint import validate_checkpoint_dir

        checks.append(
            (f"checkpoint {args.checkpoint_dir}",
             validate_checkpoint_dir(args.checkpoint_dir))
        )

    if args.results_dir:
        from repro.bench.artifacts import verify_artifacts

        checks.append(
            (f"results {args.results_dir}", verify_artifacts(args.results_dir))
        )

    for bench in args.bench or ():
        from repro.bench import payload as bench_payload

        try:
            payload = bench_payload.read(bench)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable: {exc}"]
        else:
            problems = [f"{where} is {val}"
                        for where, val in _floats(payload, "")
                        if not math.isfinite(val)]
        checks.append((f"bench {bench}", problems))

    if not checks:
        print("nothing to check: pass --checkpoint-dir, --results-dir, "
              "and/or --bench", file=sys.stderr)
        return 2

    rows = []
    total = 0
    for target, problems in checks:
        rows.append([target, "FAIL" if problems else "ok", len(problems)])
        total += len(problems)
    print(format_table(["target", "status", "problems"], rows,
                       title="repro doctor"))
    for target, problems in checks:
        for msg in problems:
            print(f"  {target}: {msg}", file=sys.stderr)
    if total:
        print(f"\ndoctor: {total} problem(s) found", file=sys.stderr)
        return 1
    print("\ndoctor: all artifacts healthy")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Scheme choices come from the one registry — registering a new scheme
    # makes it servable/traceable/benchable without touching the CLI.
    from repro.serving.models import SERVING_SPECS
    from repro.serving.schemes import SCHEMES

    scheme_choices = tuple(SCHEMES)

    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    zoo = sub.add_parser("zoo", help="list or pre-train the model zoo")
    zoo.add_argument("--train", action="store_true", help="train any uncached model")
    zoo.add_argument("-v", "--verbose", action="store_true")
    zoo.set_defaults(func=_cmd_zoo)

    q = sub.add_parser("quantize", help="quantize a zoo model and evaluate it")
    q.add_argument("-m", "--model", default="llama-7b-sim")
    q.add_argument("-b", "--bits", type=int, default=4)
    q.add_argument("--fmt", choices=("int", "fp", "mx"), default="int")
    q.add_argument("--no-kv", dest="kv", action="store_false", help="keep KV FP16")
    q.add_argument("--sequential", action="store_true")
    q.add_argument("--act-order", action="store_true")
    q.add_argument("--zeroshot", action="store_true")
    q.add_argument("--items", type=int, default=40, help="items per zero-shot task")
    q.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="write per-layer checkpoints here and resume from the "
                        "last valid layer on restart")
    q.add_argument("--force-restart", action="store_true",
                   help="discard an incompatible/corrupt checkpoint directory "
                        "instead of failing")
    q.add_argument("--strict-guards", action="store_true",
                   help="raise NumericalError on non-finite values instead of "
                        "sanitize-and-record (CI mode)")
    q.set_defaults(func=_cmd_quantize)

    a = sub.add_parser("ablation", help="run the Table 3 ablation")
    a.add_argument("-m", "--model", default="llama-7b-sim")
    a.add_argument("--corpus", default="synthwiki")
    a.set_defaults(func=_cmd_ablation)

    s = sub.add_parser("serve", help="serving simulation (Fig. 10)")
    s.add_argument("-m", "--model", default="llama-7b",
                   choices=tuple(SERVING_SPECS))
    s.add_argument("--scheme", default="all",
                   choices=("all", *scheme_choices))
    s.add_argument("--batch", type=int, default=64)
    s.add_argument("--requests", type=int, default=256)
    s.add_argument("--admission", choices=("reserve", "dynamic"), default="reserve")
    s.add_argument("--no-memory-limit", action="store_true")
    s.add_argument("--tp", type=int, default=1, help="tensor-parallel degree")
    s.add_argument("--interconnect", choices=("nvlink", "pcie"), default="nvlink")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--backend", choices=("analytic", "numeric"),
                   default="analytic",
                   help="analytic: roofline cost simulation of the full-size "
                        "model; numeric: actually execute the trained zoo "
                        "analog through the engine (real tokens, small "
                        "--requests recommended)")
    s.add_argument("--open-loop", action="store_true",
                   help="open-loop traffic: requests arrive over virtual "
                        "time instead of being handed over up front")
    s.add_argument("--scheduler", choices=("fcfs", "sjf", "edf", "fair"),
                   default="fcfs",
                   help="queue policy for --open-loop (default fcfs)")
    s.add_argument("--rate", type=float, default=2.0, metavar="REQ_PER_S",
                   help="Poisson arrival rate in simulated req/s "
                        "(--open-loop; default 2.0)")
    s.add_argument("--tenants", type=int, default=1,
                   help="number of round-robin tenants (--open-loop)")
    s.add_argument("--conversations", action="store_true",
                   help="submit multi-round ShareGPT conversations as "
                        "interactions (--requests then counts conversations)")
    s.add_argument("--think", type=float, default=0.0, metavar="SECONDS",
                   help="mean think time between conversation turns")
    s.add_argument("--slo-ttft", type=float, default=None, metavar="SECONDS",
                   help="TTFT SLO threshold for goodput accounting")
    s.add_argument("--slo-tbt", type=float, default=None, metavar="SECONDS",
                   help="TBT SLO threshold for goodput accounting")
    s.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="relative per-request deadline (enforced; feeds EDF)")
    s.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="shed arrivals beyond N waiting requests "
                        "(open-loop admission control)")
    s.add_argument("--verify", action="store_true",
                   help="numeric backend only: re-check every finished "
                        "request's tokens against per-request "
                        "LlamaModel.generate (the bit-identity oracle)")
    s.add_argument("--prefix-cache", action="store_true",
                   help="enable the radix-tree prefix cache: matched prompt "
                        "prefixes resume from shared KV pages instead of "
                        "re-prefilling (prompts switch to the multi-round "
                        "conversation derivation so prefixes repeat; "
                        "pairs well with --conversations)")
    s.add_argument("--cache-aware-preempt", action="store_true",
                   help="prefer preempting requests whose prompt prefix is "
                        "interned in the prefix cache (their recompute "
                        "resumes from shared KV, so the eviction is cheap)")
    s.add_argument("--replicas", type=int, default=1, metavar="N",
                   help="serve through N independent engine replicas behind "
                        "a health-checked cluster router (default 1: bare "
                        "engine, no cluster layer)")
    s.add_argument("--router", default="round-robin",
                   choices=("round-robin", "least-kv", "affinity"),
                   help="cluster routing policy for --replicas > 1 "
                        "(affinity pins conversations to replicas)")
    s.add_argument("--rate-limit", type=float, default=None,
                   metavar="REQ_PER_S",
                   help="per-tenant token-bucket admission rate for "
                        "--open-loop; over-budget arrivals are shed on "
                        "arrival with a typed terminal")
    s.add_argument("--rate-limit-burst", type=float, default=None,
                   metavar="TOKENS",
                   help="token-bucket burst capacity "
                        "(default max(1, RATE))")
    s.set_defaults(func=_cmd_serve)

    t = sub.add_parser(
        "trace", help="run a serving workload with telemetry and dump the trace"
    )
    t.add_argument("-m", "--model", default="llama-7b",
                   choices=tuple(SERVING_SPECS))
    t.add_argument("--scheme", default="Atom-W4A4",
                   choices=scheme_choices)
    t.add_argument("--batch", type=int, default=64)
    t.add_argument("--requests", type=int, default=128)
    t.add_argument("--admission", choices=("reserve", "dynamic"), default="dynamic")
    t.add_argument("--tp", type=int, default=1, help="tensor-parallel degree")
    t.add_argument("--interconnect", choices=("nvlink", "pcie"), default="nvlink")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("-o", "--output", default="trace.jsonl",
                   help="JSONL trace output path")
    t.add_argument("--csv", default=None,
                   help="also write per-iteration metrics to this CSV path")
    t.add_argument("--chaos", type=int, default=None, metavar="SEED",
                   help="inject a seeded random FaultPlan (page-pool "
                        "shrinkage, cancellations, stragglers, transient "
                        "allocator failures) and record the failure timeline")
    t.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-request deadline; late requests reach the "
                        "timed_out terminal state instead of finishing")
    t.set_defaults(func=_cmd_trace)

    b = sub.add_parser(
        "bench",
        help="inference microbenchmarks (linear/prefill/decode/quantize)",
    )
    b.add_argument("-o", "--output", default=None,
                   help="write BENCH_inference.json payload here")
    b.add_argument("--check-against", default=None, metavar="BASELINE",
                   help="fail (exit 1) if decode throughput regresses vs this "
                        "committed BENCH_inference.json")
    b.add_argument("--max-slowdown", type=float, default=None,
                   help="regression threshold for --check-against "
                        "(default: the check's own bound, 2x)")
    b.add_argument("--trace", default=None, metavar="JSONL",
                   help="also write a kernel-phase telemetry trace "
                        "(quantize vs GEMM time per linear call)")
    b.add_argument("--serving", action="store_true",
                   help="run the batched-decode microbenchmark through the "
                        "numeric serving backend instead (tokens/s vs batch "
                        "size; -o/--check-against then use the "
                        "BENCH_serving_numeric.json schema)")
    b.add_argument("--prefix-cache", action="store_true",
                   help="with --serving: warm-vs-cold prefix-cache sweep "
                        "over multi-round conversations instead "
                        "(-o/--check-against then use the "
                        "BENCH_prefix_cache.json schema)")
    b.add_argument("--pareto", action="store_true",
                   help="accuracy-vs-throughput sweep over every registered "
                        "scheme: zoo perplexity + roofline and numeric "
                        "throughput per scheme (-o/--check-against then use "
                        "the BENCH_pareto.json schema)")
    b.set_defaults(func=_cmd_bench)

    d = sub.add_parser(
        "doctor",
        help="validate checkpoint dirs, results dirs, and bench payloads",
    )
    d.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="quantization checkpoint directory to validate")
    d.add_argument("--results-dir", default=None, metavar="DIR",
                   help="benchmark results directory (manifest-verified)")
    d.add_argument("--bench", action="append", default=None, metavar="JSON",
                   help="BENCH_*.json payload to validate (repeatable)")
    d.set_defaults(func=_cmd_doctor)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
