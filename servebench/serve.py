"""Workloads, set-up, the wall-clock load loop and the metrics.

The program is driven only through public calls: ``build_bench_model``,
``SCHEMES[...].quantize``, ``NumericBackend.engine_for``, ``PrefixCache``,
``ServingEngine.start_run`` and ``EngineRun.step`` / ``.pending`` /
``.first_token_s`` / ``.admission_log`` / ``.terminal_log``, and
``backend.runner.oracle_generate`` for the correctness check.
"""

from __future__ import annotations

import heapq
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import SERVING_BENCH_CONFIG
from repro.data.sharegpt import TURN_STRIDE, Request
from repro.serving import (
    RTX_4090,
    SCHEMES,
    GPUSpec,
    NumericBackend,
    PrefixCache,
    serving_spec_for,
)

from servebench.host import BenchClock
from servebench.stats import percentile

CFG = SERVING_BENCH_CONFIG
#: The served model is fixed; only the traffic depends on ``--seed``.
MODEL_SEED = 0
#: Calibration set, fixed across runs: 128 sequences as in the paper's
#: recipe, 64 tokens each (8192 tokens).  Longer sequences made set-up
#: time depend on page faults in the calibration attention, not on the
#: quantizer.
CALIB_SHAPE = (128, 64)
SETUP_REPEATS = 5
#: Reference probes after each set-up, so every set-up has its own
#: local host-speed reading.
SETUP_PROBES = 3
#: Bench-clock seconds of serving between two reference probes.
PROBE_EVERY_S = 0.15
WARMUP_ID = 63
MAX_BATCH = 16
#: ``engine_for``'s default page size and the engine's fixed workspace,
#: needed to size a GPU spec whose KV budget is an exact page count.
PAGE_TOKENS = 16
ENGINE_WORKSPACE_BYTES = 1.0e9
#: Enough requests per run for a p90 (see ``stats.percentile``).
MIN_REQUESTS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    open_loop: bool
    #: Latency limits on a nominal host (corrected ms).
    slo_ttft_ms: float
    slo_tbt_ms: float
    #: Allocator page budget; ``None`` leaves the KV pool unconstrained.
    kv_pages: "int | None" = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decode_atom", "Atom-W4A4", False, 400.0, 50.0),
        Workload("decode_mixedbit", "MixedBit", False, 800.0, 100.0),
        Workload("chat_open", "Atom-W4A4", True, 16.0, 40.0, kv_pages=256),
    )
}

# -- traffic ------------------------------------------------------------- #
DECODE_REQUESTS = 24
DECODE_PROMPT = (30, 34)
DECODE_OUTPUT_MIN = 128
DECODE_OUTPUT_STEP = 2

CHAT_TURNS = 6
CHAT_MESSAGE = (32, 64)
CHAT_OUTPUT = (12, 20)
CHAT_RATE_PER_S = 1.5
CHAT_THINK_S = 0.3


@dataclass
class Plan:
    """One window's traffic: first arrivals plus per-conversation turns."""

    #: (due offset in nominal seconds, request, conversation, turn)
    arrivals: list
    #: conversation -> list of (prefill, decode) per turn
    turns: dict = field(default_factory=dict)
    #: conversation -> think times (nominal seconds) before turns 1..
    think: dict = field(default_factory=dict)


def make_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """The seeded traffic of one window.

    Closed loop: :data:`DECODE_REQUESTS` requests, all due at t=0.  Open
    loop: ``CHAT_RATE_PER_S * seconds`` conversations whose starts form a
    Poisson process conditioned on its count (sorted uniform times over
    ``seconds``), so offered load is the same for every seed.
    """
    rng = np.random.default_rng([seed, 7])
    if not workload.open_loop:
        # Output lengths are a seeded permutation of an evenly spaced
        # ladder: no two requests finish in the same step, so each refill
        # stalls one step with one prefill, and the tail gaps measure that
        # stall rather than how many finishes happened to coincide.
        outputs = DECODE_OUTPUT_MIN + DECODE_OUTPUT_STEP * rng.permutation(DECODE_REQUESTS)
        reqs = [
            Request(
                i,
                int(rng.integers(DECODE_PROMPT[0], DECODE_PROMPT[1] + 1)),
                int(outputs[i]),
            )
            for i in range(DECODE_REQUESTS)
        ]
        return Plan([(0.0, r, -1, 0) for r in reqs])
    n_conv = max(1, round(CHAT_RATE_PER_S * seconds))
    starts = np.sort(rng.uniform(0.0, seconds, n_conv))
    arrivals, turns, think = [], {}, {}
    for k, t in enumerate(starts):
        cid = k + 1  # conversation 0 would share ids with the warm-up
        history, conv = 0, []
        for _ in range(CHAT_TURNS):
            prefill = history + int(
                rng.integers(CHAT_MESSAGE[0], CHAT_MESSAGE[1] + 1)
            )
            decode = int(rng.integers(CHAT_OUTPUT[0], CHAT_OUTPUT[1] + 1))
            conv.append((prefill, decode))
            history = prefill + decode
        turns[cid] = conv
        think[cid] = [
            float(x) for x in rng.exponential(CHAT_THINK_S, CHAT_TURNS - 1)
        ]
        arrivals.append((float(t), Request(cid * TURN_STRIDE, *conv[0]), cid, 0))
    return Plan(arrivals, turns, think)


# -- model and engines ---------------------------------------------------- #
def calib_tokens() -> np.ndarray:
    return np.random.default_rng(99).integers(0, CFG.vocab_size, size=CALIB_SHAPE)


def make_engine(model, workload: Workload, seed: int):
    scheme = SCHEMES[workload.scheme]
    prompts = "conversation" if workload.open_loop else "synthetic"
    gpu = RTX_4090
    if workload.kv_pages is not None:
        spec = serving_spec_for(model.config)
        page_bytes = spec.kv_bytes_per_token(scheme.kv_bits) * PAGE_TOKENS
        weights = spec.n_params() * scheme.weight_bytes_per_param
        cap = weights + ENGINE_WORKSPACE_BYTES + (workload.kv_pages + 0.5) * page_bytes
        gpu = GPUSpec(
            "bench-kv-budget",
            peak_tops=dict(RTX_4090.peak_tops),
            mem_bandwidth_gbps=RTX_4090.mem_bandwidth_gbps,
            mem_capacity_gb=cap / 1e9,
        )
    cache = PrefixCache(seed=seed, vocab_size=CFG.vocab_size, prompts=prompts)
    engine = NumericBackend.engine_for(
        model,
        scheme,
        gpu=gpu,
        max_batch=MAX_BATCH,
        admission="reserve",
        seed=seed,
        prompts=prompts,
        prefix_cache=cache,
    )
    if (
        workload.kv_pages is not None
        and cache.allocator.total_pages != workload.kv_pages
    ):
        raise RuntimeError(
            f"KV budget came out at {cache.allocator.total_pages} pages, "
            f"wanted {workload.kv_pages}"
        )
    return engine


@dataclass
class SetupResult:
    model: object
    fp16: object
    #: per repeat: bench-clock stamps at the start and after build,
    #: quantize, engine and warm-up
    stamps: list
    warmup_ok: bool


def set_up(workload: Workload, seed: int, clock: BenchClock) -> SetupResult:
    """Build, quantize, make the engine and serve one warm-up request.

    Repeated :data:`SETUP_REPEATS` times; the last model is served.
    """
    scheme = SCHEMES[workload.scheme]
    calib = calib_tokens()
    stamps, ok = [], True
    model = fp16 = None
    for _ in range(SETUP_REPEATS):
        t0 = clock.now()
        fp16 = build_bench_model(CFG, seed=MODEL_SEED)
        t1 = clock.now()
        model = scheme.quantize(fp16, calib_tokens=calib)
        t2 = clock.now()
        engine = make_engine(model, workload, seed)
        t3 = clock.now()
        warm = Request(WARMUP_ID, 32, 8)
        run = engine.start_run([warm])
        while run.active:
            run.step()
        t4 = clock.now()
        want = engine.backend.runner.oracle_generate(WARMUP_ID, 32, 8)
        ok = ok and np.array_equal(engine.backend.generated_tokens(WARMUP_ID), want)
        stamps.append((t0, t1, t2, t3, t4))
        for _ in range(SETUP_PROBES):
            clock.probe()
    return SetupResult(model, fp16, stamps, ok)


SETUP_PHASES = ("build", "quantize", "engine", "warmup")


def setup_phases(setup: SetupResult, span) -> list:
    """Per repeat: phase -> seconds, each measured with ``span(a, b)``."""
    return [
        {name: span(a, b) for name, a, b in zip(SETUP_PHASES, st, st[1:])}
        for st in setup.stamps
    ]


# -- the load loop -------------------------------------------------------- #
@dataclass
class Window:
    """Wall-clock record of one replay of a plan on a fresh engine."""

    t0: float = 0.0
    t_end: float = 0.0
    due: dict = field(default_factory=dict)
    injected: dict = field(default_factory=dict)
    admitted: dict = field(default_factory=dict)
    first: dict = field(default_factory=dict)
    tokens: dict = field(default_factory=dict)  # rid -> token times
    state: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # rid -> token ids
    requests: dict = field(default_factory=dict)  # rid -> Request
    preemptions: int = 0
    prefix: dict = field(default_factory=dict)
    kv_samples: list = field(default_factory=list)  # (reserved, physical)


def _wait_until(clock: BenchClock, t: float) -> None:
    while True:
        left = t - clock.now()
        if left <= 0:
            return
        time.sleep(left - 0.0005 if left > 0.002 else 0)


def drive(engine, plan: Plan, clock: BenchClock, *, tracer=None) -> Window:
    """Replay ``plan`` on ``engine`` against the bench clock.

    Arrival offsets and think times are nominal: they are paced on the
    clock's causal corrected time, so offered load relative to the host
    stays fixed while its speed drifts.  Every recorded time is bench time.
    """
    run = engine.start_run([])
    runner = engine.backend.runner
    decoded: list[int] = []
    decode_batch = runner.decode_batch

    def tapped(request_ids):
        decoded.extend(request_ids)
        return decode_batch(request_ids)

    runner.decode_batch = tapped
    if tracer is not None:
        tracer.attach(engine)
    w = Window()
    heap: list = []
    for seq, (due, req, cid, turn) in enumerate(plan.arrivals):
        heap.append((due, seq, req, cid, turn))
    heapq.heapify(heap)
    seq = len(heap)
    turn_of: dict = {}
    awaiting: set = set()
    n_admit = n_term = 0
    w.t0 = clock.now()
    tau0 = clock.tau(w.t0)
    next_probe = w.t0 + PROBE_EVERY_S
    store = runner.store
    alloc = engine.prefix_cache.allocator
    n_layers = engine.backend.model.config.n_layers
    while heap or run.active:
        now = clock.now()
        tau_now = clock.tau(now)
        while heap and heap[0][0] + tau0 <= tau_now:
            due, _, req, cid, turn = heapq.heappop(heap)
            rid = req.request_id
            run.pending.append(req)
            w.due[rid] = min(clock.at_tau(tau0 + due), now)
            w.injected[rid] = now
            w.requests[rid] = req
            w.tokens[rid] = []
            turn_of[rid] = (cid, turn)
        if not run.active:
            _wait_until(clock, clock.at_tau(heap[0][0] + tau0))
            continue
        decoded.clear()
        ts = clock.now()
        if tracer is None:
            run.step()
        else:
            i = tracer.open("engine.step")
            try:
                run.step()
            finally:
                tracer.close(i)
        te = clock.now()
        log = run.admission_log
        for rid, _ in log[n_admit:]:
            w.admitted[rid] = ts
            awaiting.add(rid)
        n_admit = len(log)
        got_first = [rid for rid in awaiting if rid in run.first_token_s]
        for rid in got_first:
            awaiting.discard(rid)
            w.first[rid] = te
            w.tokens[rid].append(te)
        for rid in decoded:
            w.tokens[rid].append(te)
        log = run.terminal_log
        for rid, state in log[n_term:]:
            w.state[rid] = state
            cid, turn = turn_of[rid]
            if state == "finished" and plan.turns and turn + 1 < len(plan.turns[cid]):
                p, d = plan.turns[cid][turn + 1]
                due = clock.tau(te) - tau0 + plan.think[cid][turn]
                heapq.heappush(
                    heap,
                    (due, seq, Request(cid * TURN_STRIDE + turn + 1, p, d), cid, turn + 1),
                )
                seq += 1
        n_term = len(log)
        if tracer is not None:
            w.kv_samples.append((alloc.used_pages, store.used_pages / n_layers))
        if clock.now() >= next_probe:
            clock.probe()
            next_probe = clock.now() + PROBE_EVERY_S
    w.t_end = clock.now()
    w.preemptions = run.preemptions
    stats = engine.prefix_cache.snapshot_stats()
    w.prefix = stats.to_dict()
    for rid, state in w.state.items():
        if state == "finished":
            w.outputs[rid] = engine.backend.generated_tokens(rid)
    runner.decode_batch = decode_batch
    return w


def measure(workload, model, plan, seed, clock, seconds, *, tracer=None):
    """Replay ``plan`` on fresh engines until ``seconds`` of serving.

    Returns ``(untraced, traced)`` window lists.  With a ``tracer`` every
    other window runs traced, so drift hits both halves alike and their
    throughput ratio is the tracing overhead.
    """
    untraced, traced, served = [], [], 0.0
    while (
        served < seconds
        or sum(len(w.requests) for w in untraced) < MIN_REQUESTS
        or (tracer is not None and not traced)
    ):
        if workload.open_loop and untraced and (tracer is None or traced):
            break  # the open-loop plan already spans the run
        engine = make_engine(model, workload, seed)
        if tracer is not None and len(untraced) > len(traced):
            tracer.install_model(model)
            try:
                w = drive(engine, plan, clock, tracer=tracer)
            finally:
                tracer.restore()
            traced.append(w)
        else:
            w = drive(engine, plan, clock)
            untraced.append(w)
        served += w.t_end - w.t0
    return untraced, traced


# -- correctness ---------------------------------------------------------- #
class Oracle:
    """``oracle_generate`` outputs, computed once per distinct request."""

    def __init__(self, model, workload, seed) -> None:
        self._runner = make_engine(model, workload, seed).backend.runner
        self._cache: dict = {}

    def check(self, req: Request, tokens) -> bool:
        key = (req.request_id, req.prefill_len, req.decode_len)
        want = self._cache.get(key)
        if want is None:
            want = self._runner.oracle_generate(*key)
            self._cache[key] = want
        return tokens is not None and np.array_equal(tokens, want)


def top1_agree(model, fp16) -> float:
    """Teacher-forced top-1 agreement with the FP16 model on fixed tokens."""
    toks = np.random.default_rng(2024).integers(0, CFG.vocab_size, size=(4, 128))
    a = model.forward(toks).argmax(-1)
    b = fp16.forward(toks).argmax(-1)
    return float((a == b).mean())


# -- end-to-end metrics ---------------------------------------------------- #
def end_to_end(workload, windows, oracle, timeline, setup, top1) -> "tuple[dict, dict]":
    """Returns ``(metrics, counts)``; metrics map name -> (corrected, raw, n, unit).

    Corrected durations are read off ``timeline`` (a
    :class:`~servebench.stats.HostTimeline`), so each is corrected by the
    host speed while it elapsed; raw ones are bench-clock differences.
    """
    sent = finished = bad = 0
    out_tokens = 0
    makespan = makespan_c = 0.0
    ttft, gaps, ttft_c, gaps_c = [], [], [], []
    slo_ok = 0
    for w in windows:
        makespan += w.t_end - w.t0
        makespan_c += timeline.span(w.t0, w.t_end)
        for rid, req in w.requests.items():
            sent += 1
            if w.state.get(rid) != "finished":
                continue
            finished += 1
            if not oracle.check(req, w.outputs.get(rid)):
                bad += 1
                continue
            out_tokens += req.decode_len
            times = w.tokens[rid]
            times_c = [timeline(t) for t in times]
            g = [b - a for a, b in zip(times, times[1:])]
            g_c = [b - a for a, b in zip(times_c, times_c[1:])]
            t_first_c = timeline.span(w.due[rid], w.first[rid])
            ttft.append(w.first[rid] - w.due[rid])
            ttft_c.append(t_first_c)
            gaps.extend(g)
            gaps_c.extend(g_c)
            if t_first_c * 1e3 <= workload.slo_ttft_ms and (
                not g_c or max(g_c) * 1e3 <= workload.slo_tbt_ms
            ):
                slo_ok += 1
    errors = (sent - finished) + bad

    m = {}
    setup_c = [sum(p.values()) for p in setup_phases(setup, timeline.span)]
    setup_raw = [sum(p.values()) for p in setup_phases(setup, lambda a, b: b - a)]
    m["setup_s"] = (
        statistics.median(setup_c), statistics.median(setup_raw), len(setup_c), "s"
    )
    raw_rate = out_tokens / makespan if makespan > 0 else 0.0
    rate = out_tokens / makespan_c if makespan_c > 0 else 0.0
    m["decode_tok_s"] = (rate, raw_rate, out_tokens, "tok/s")
    for name, vals, vals_c, q in (
        ("ttft_p50_ms", ttft, ttft_c, 0.5),
        ("ttft_p90_ms", ttft, ttft_c, 0.9),
        ("tbt_p50_ms", gaps, gaps_c, 0.5),
        ("tbt_p99_ms", gaps, gaps_c, 0.99),
    ):
        corr, raw = percentile(vals_c, q), percentile(vals, q)
        if corr is None or raw is None:
            m[name] = (None, None, len(vals), "ms")
        else:
            m[name] = (corr * 1e3, raw * 1e3, len(vals), "ms")
    slo = slo_ok / sent if sent else 0.0
    m["slo_attain_frac"] = (slo, slo, sent, "1")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["peak_rss_mb"] = (rss, rss, 1, "MB")
    m["top1_agree_fp16"] = (top1, top1, 1, "1")
    ok = 1.0 - errors / sent if sent else 0.0
    m["ok_frac"] = (ok, ok, sent, "1")
    m["error_frac"] = (1.0 - ok, 1.0 - ok, sent, "1")
    counts = {"sent": sent, "succeeded": finished - bad, "failed": errors, "mismatched": bad}
    return m, counts
