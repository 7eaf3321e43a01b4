"""Deterministic chaos harness for the serving engine.

Generates random workloads x random :class:`FaultPlan`s from fixed seeds,
runs them through a fully-instrumented :class:`ServingEngine`, and checks
the engine-wide invariants that must hold under ANY fault timeline:

1. **Drain**: the run terminates with every request in exactly one terminal
   state (``finished`` / ``timed_out`` / ``cancelled`` / ``shed``) and a
   bounded iteration count.
2. **Page conservation**: the allocator ends empty, and the telemetry page
   deltas sum to zero (allocated - freed = 0).
3. **No delivered-token loss**: throughput x time equals the decode tokens
   of *finished* requests exactly — faults never double-count or drop
   delivered work.
4. **Monotone clock**: event timestamps never go backwards; iteration
   indices never decrease.
5. **Telemetry reconciliation**: re-aggregating the trace reproduces
   ``ServingResult.time_breakdown`` and the terminal-state counts.

Everything is seeded: ``run_scenario(seed)`` is bit-reproducible, so a
failing seed is a permanent regression test, not a flake.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.data.sharegpt import Request, ShareGPTWorkload
from repro.serving import (
    ATOM_W4A4,
    FP16,
    LLAMA_7B,
    REPLICA_STATES,
    TERMINAL_STATES,
    ClusterEngine,
    ClusterRun,
    FaultPlan,
    FrontendResult,
    Interaction,
    OpenLoopFrontend,
    PrefixCache,
    ServingEngine,
    ServingResult,
    TraceRecorder,
    poisson_interactions,
    sharegpt_interactions,
    summarize,
)
from repro.serving.telemetry import (
    FaultInjected,
    IterationSample,
    PagePoolDelta,
    ReplicaStateChange,
    RequestAdmitted,
    RequestFailed,
    RequestRerouted,
)

#: Hard ceiling on iterations for any chaos scenario — generous (a clean
#: run of the largest scenario takes a few hundred), so hitting it means a
#: livelock, not a slow run.
MAX_ITERATIONS = 20_000


@dataclass
class ChaosRun:
    """One executed scenario plus everything needed to audit it."""

    seed: int
    requests: list[Request]
    plan: FaultPlan
    engine: ServingEngine
    recorder: TraceRecorder
    result: ServingResult


def chaos_scenario(seed: int):
    """Derive a (workload, plan, engine-kwargs) triple from one seed.

    The kwargs may carry ``"deadlines"``, absolute per-request deadlines
    that belong on the run (:func:`run_with_deadlines`), not the engine.
    """
    rng = np.random.default_rng(seed)
    n_requests = int(rng.integers(24, 56))
    requests = ShareGPTWorkload(
        seed=int(rng.integers(0, 2**31)), max_len=1024
    ).sample_requests(n_requests)
    plan = FaultPlan.random(
        int(rng.integers(0, 2**31)),
        request_ids=[r.request_id for r in requests],
        horizon=300,
    )
    kwargs = {
        # FP16 is memory-tight on the 24 GB default GPU, so page-pool
        # faults bite; Atom exercises the headroom-rich regime.
        "scheme": FP16 if rng.random() < 0.75 else ATOM_W4A4,
        "max_batch": int(rng.integers(16, 97)),
        "admission": "dynamic" if rng.random() < 0.5 else "reserve",
        "shed_policy": "drop",
        "stall_limit": 50,
    }
    if rng.random() < 0.4:  # sometimes add per-request deadlines
        deadlines = {
            r.request_id: float(5.0 + 120.0 * rng.random())
            for r in requests
            if rng.random() < 0.5
        }
        if deadlines:
            kwargs["deadlines"] = deadlines
    return requests, plan, kwargs


def run_with_deadlines(engine, requests, *, faults=None, deadlines=None):
    """``engine.run(requests, faults=faults)`` (a ``ServingEngine`` or a
    ``ClusterEngine``) with ``deadlines`` registered on the run."""
    state = engine.start_run(requests, faults=faults)
    state.ledger.deadlines.update(deadlines or {})
    while state.active:
        state.step()
    return state.result()


def run_scenario(seed: int) -> ChaosRun:
    """Execute one seeded scenario with full telemetry."""
    requests, plan, kwargs = chaos_scenario(seed)
    scheme = kwargs.pop("scheme")
    deadlines = kwargs.pop("deadlines", None)
    recorder = TraceRecorder()
    engine = ServingEngine(LLAMA_7B, scheme, telemetry=recorder, **kwargs)
    result = run_with_deadlines(
        engine, requests, faults=plan, deadlines=deadlines
    )
    return ChaosRun(seed, requests, plan, engine, recorder, result)


def injected_fault_kinds(run: ChaosRun) -> set[str]:
    """Fault kinds that actually FIRED in this run (not just planned)."""
    kinds = {
        e.kind for e in run.recorder.events if isinstance(e, FaultInjected)
    }
    if run.result.cancelled:
        kinds.add("cancel")
    return kinds


def assert_invariants(run: ChaosRun) -> None:
    """Every engine-wide invariant the chaos suite enforces."""
    result, events = run.result, run.recorder.events
    ctx = f"chaos seed {run.seed} ({run.plan.describe()})"

    # -- 1. drain: bounded, and one terminal state per request ----------- #
    assert result.iterations <= MAX_ITERATIONS, f"{ctx}: livelock"
    expected_ids = {r.request_id for r in run.requests}
    assert set(result.terminal_states) == expected_ids, (
        f"{ctx}: requests missing a terminal state: "
        f"{expected_ids ^ set(result.terminal_states)}"
    )
    for rid, state in result.terminal_states.items():
        assert state in TERMINAL_STATES, f"{ctx}: bogus state {state!r}"
    counts = {
        "finished": result.completed_requests,
        "timed_out": result.timed_out,
        "cancelled": result.cancelled,
        "shed": result.shed,
    }
    for state, n in counts.items():
        observed = sum(1 for s in result.terminal_states.values() if s == state)
        assert observed == n, f"{ctx}: {state} count {observed} != {n}"
    assert sum(counts.values()) == len(run.requests), f"{ctx}: state leak"

    # -- 2. page conservation -------------------------------------------- #
    assert run.engine._allocator.used_pages == 0, f"{ctx}: leaked pages"
    net = sum(e.delta for e in events if isinstance(e, PagePoolDelta))
    assert net == 0, f"{ctx}: trace page deltas sum to {net}, not 0"

    # -- 3. no delivered-token loss for finished requests ----------------- #
    finished_ids = {
        rid for rid, s in result.terminal_states.items() if s == "finished"
    }
    by_id = {r.request_id: r for r in run.requests}
    expected_delivered = sum(by_id[rid].decode_len for rid in finished_ids)
    delivered = result.throughput_tokens_per_s * result.total_time_s
    assert delivered == pytest.approx(expected_delivered, rel=1e-9), (
        f"{ctx}: delivered {delivered} != {expected_delivered}"
    )

    # -- 4. monotone clock ------------------------------------------------ #
    ts = [e.t for e in events]
    assert all(a <= b for a, b in zip(ts, ts[1:])), f"{ctx}: clock reversed"
    iters = [e.iteration for e in events]
    assert all(a <= b for a, b in zip(iters, iters[1:])), (
        f"{ctx}: iteration index reversed"
    )
    samples = [e for e in events if isinstance(e, IterationSample)]
    assert all(s.t_iter > 0 for s in samples), f"{ctx}: non-positive iteration"

    # -- 5. telemetry reconciles with ServingResult ------------------------ #
    summary = summarize(events)
    for phase, t in result.time_breakdown.items():
        assert abs(summary.time_breakdown[phase] - t) <= 1e-9, (
            f"{ctx}: phase {phase} drift"
        )
    assert summary.finished == result.completed_requests, f"{ctx}: finished"
    assert summary.cancelled == result.cancelled, f"{ctx}: cancelled"
    assert summary.timed_out == result.timed_out, f"{ctx}: timed_out"
    assert summary.shed == result.shed, f"{ctx}: shed"
    assert summary.preemptions == result.preemptions, f"{ctx}: preemptions"
    assert summary.faults_injected == result.faults_injected, f"{ctx}: faults"
    # Admissions >= finishes; recompute preemption re-admits, so admitted
    # can exceed the number of requests but never the finish count plus
    # live churn.
    admitted = sum(1 for e in events if isinstance(e, RequestAdmitted))
    assert admitted >= result.completed_requests, f"{ctx}: admissions"


# --------------------------------------------------------------------------- #
# Prefix-cache chaos: faults x shared pages x eviction
# --------------------------------------------------------------------------- #


@dataclass
class PrefixChaosRun(ChaosRun):
    """A chaos run with a radix prefix cache attached to the engine."""

    cache: PrefixCache = None


def run_prefix_scenario(seed: int) -> PrefixChaosRun:
    """The closed-loop scenario re-run with a prefix cache attached.

    The ShareGPT workload's sequential request ids all land in a handful of
    conversation streams (``request_id // 64``), so under the cache's
    conversation prompt derivation the prompts share prefixes heavily —
    interning, hits, mid-edge splits, donor pinning, and eviction under
    page-pool shrinkage all happen on the same fault timeline the base
    scenario runs.
    """
    requests, plan, kwargs = chaos_scenario(seed)
    scheme = kwargs.pop("scheme")
    deadlines = kwargs.pop("deadlines", None)
    recorder = TraceRecorder()
    cache = PrefixCache(seed=seed)
    engine = ServingEngine(
        LLAMA_7B, scheme, telemetry=recorder, prefix_cache=cache, **kwargs
    )
    result = run_with_deadlines(
        engine, requests, faults=plan, deadlines=deadlines
    )
    return PrefixChaosRun(
        seed, requests, plan, engine, recorder, result, cache
    )


def assert_prefix_invariants(run: PrefixChaosRun) -> None:
    """Cache-specific invariants, then the engine-wide base set.

    At end of run the tree may legitimately still hold pages (that is the
    cache working); the audit therefore checks the three-way account
    balance first, tears the tree down with ``clear()``, and only then
    requires the allocator — and the telemetry page deltas, which include
    the cache account — to drain to exactly zero.
    """
    cache, alloc = run.cache, run.engine._allocator
    ctx = f"prefix chaos seed {run.seed} ({run.plan.describe()})"

    cache.check_invariants()
    assert not cache.live_leases(), f"{ctx}: leases survived the run"
    held = cache.shared_pages()
    assert alloc.cache_pages == held, (
        f"{ctx}: cache account {alloc.cache_pages} != tree pages {held}"
    )
    assert alloc.used_pages == held, (
        f"{ctx}: {alloc.used_pages - held} pages held outside the tree "
        "after drain"
    )
    stats = cache.snapshot_stats()
    assert 0 <= stats.hits <= stats.lookups, f"{ctx}: hit/lookup accounting"
    assert run.result.prefix_cache == stats.to_dict(), (
        f"{ctx}: ServingResult.prefix_cache diverges from the cache"
    )

    # Teardown: with no leases and no live donors, clear() must evict
    # every node and return every page to the pool.
    freed = cache.clear()
    assert freed == held, f"{ctx}: clear() freed {freed} of {held} pages"
    assert cache.node_count() == 0, f"{ctx}: nodes survived clear()"
    assert alloc.cache_pages == 0, f"{ctx}: cache account non-zero"
    cache.check_invariants()

    assert_invariants(run)
_SCHEDULER_ROTATION = ("fcfs", "sjf", "edf", "fair")


@dataclass
class OpenLoopChaosRun:
    """One executed open-loop scenario plus everything needed to audit it."""

    seed: int
    scheduler: str
    interactions: list[Interaction]
    plan: FaultPlan
    engine: ServingEngine
    recorder: TraceRecorder
    result: FrontendResult


def open_loop_scenario(seed: int):
    """Derive (interactions, plan, scheduler, frontend/engine kwargs)."""
    rng = np.random.default_rng([seed, 0x01])
    n_conversations = int(rng.integers(8, 20))
    workload = ShareGPTWorkload(
        seed=int(rng.integers(0, 2**31)), max_len=1024
    )
    tenants = ("alpha", "beta", "gamma")[: int(rng.integers(1, 4))]
    interactions = sharegpt_interactions(
        workload,
        n_conversations,
        rate=float(rng.choice([0.5, 2.0, 10.0])),
        seed=seed,
        tenants=tenants,
        think_mean_s=float(rng.choice([0.0, 0.5])),
        deadline_s=(
            float(20.0 + 200.0 * rng.random())
            if rng.random() < 0.3
            else None
        ),
    )
    # Faults may target any turn, including follow-ups that an abort means
    # are never submitted — those entries must simply never fire.
    all_ids = [r.request_id for i in interactions for r in i.turns]
    plan = FaultPlan.random(
        int(rng.integers(0, 2**31)), request_ids=all_ids, horizon=300
    )
    engine_kwargs = {
        "scheme": FP16 if rng.random() < 0.75 else ATOM_W4A4,
        "max_batch": int(rng.integers(8, 49)),
        "admission": "dynamic" if rng.random() < 0.5 else "reserve",
        "shed_policy": "drop",
        "stall_limit": 50,
    }
    frontend_kwargs = {
        "slo_ttft_s": 5.0,
        "slo_tbt_s": 0.5,
    }
    if rng.random() < 0.3:
        frontend_kwargs["max_queue"] = int(rng.integers(4, 17))
    scheduler = _SCHEDULER_ROTATION[seed % len(_SCHEDULER_ROTATION)]
    return interactions, plan, scheduler, engine_kwargs, frontend_kwargs


def run_open_loop_scenario(seed: int) -> OpenLoopChaosRun:
    """Execute one seeded open-loop scenario with full telemetry."""
    inters, plan, scheduler, ekw, fkw = open_loop_scenario(seed)
    scheme = ekw.pop("scheme")
    recorder = TraceRecorder()
    engine = ServingEngine(LLAMA_7B, scheme, telemetry=recorder, **ekw)
    result = OpenLoopFrontend(engine, scheduler, **fkw).run(
        inters, faults=plan
    )
    return OpenLoopChaosRun(
        seed, scheduler, inters, plan, engine, recorder, result
    )


def assert_open_loop_invariants(run: OpenLoopChaosRun) -> None:
    """The closed-loop invariants restated over *submissions* (turns that
    actually arrived), plus the front-end's own accounting laws."""
    res, result, events = run.result, run.result.serving, run.recorder.events
    ctx = f"open-loop chaos seed {run.seed} [{run.scheduler}]"

    # -- 1. drain: every submission in exactly one terminal state --------- #
    assert result.iterations <= MAX_ITERATIONS, f"{ctx}: livelock"
    submitted_ids = {s.request_id for s in res.submissions}
    assert set(result.terminal_states) == submitted_ids, (
        f"{ctx}: terminal/submission mismatch: "
        f"{submitted_ids ^ set(result.terminal_states)}"
    )
    for state in result.terminal_states.values():
        assert state in TERMINAL_STATES, f"{ctx}: bogus state {state!r}"
    counts = {
        "finished": result.completed_requests,
        "timed_out": result.timed_out,
        "cancelled": result.cancelled,
        "shed": result.shed,
    }
    for state, n in counts.items():
        observed = sum(
            1 for s in result.terminal_states.values() if s == state
        )
        assert observed == n, f"{ctx}: {state} count {observed} != {n}"
    assert sum(counts.values()) == res.submitted, f"{ctx}: state leak"

    # -- 2. interaction accounting ---------------------------------------- #
    assert (
        res.interactions_completed + res.interactions_aborted
        == res.interactions
    ), f"{ctx}: interaction leak"
    by_iid = {i.interaction_id: i for i in run.interactions}
    sub_by_id = {s.request_id: s for s in res.submissions}
    for sub in res.submissions:
        # A turn > 0 implies its predecessor finished.
        if sub.turn > 0:
            prev = by_iid[sub.interaction_id].turns[sub.turn - 1]
            assert result.terminal_states[prev.request_id] == "finished", (
                f"{ctx}: turn {sub.turn} submitted after non-finished "
                f"predecessor"
            )

    # -- 3. page conservation --------------------------------------------- #
    assert run.engine._allocator.used_pages == 0, f"{ctx}: leaked pages"
    net = sum(e.delta for e in events if isinstance(e, PagePoolDelta))
    assert net == 0, f"{ctx}: trace page deltas sum to {net}, not 0"

    # -- 4. no delivered-token loss --------------------------------------- #
    finished_ids = {
        rid for rid, s in result.terminal_states.items() if s == "finished"
    }
    expected_delivered = sum(
        sub_by_id[rid].request.decode_len for rid in finished_ids
    )
    delivered = result.throughput_tokens_per_s * result.total_time_s
    assert delivered == pytest.approx(expected_delivered, rel=1e-9), (
        f"{ctx}: delivered {delivered} != {expected_delivered}"
    )

    # -- 5. monotone clock ------------------------------------------------ #
    ts = [e.t for e in events]
    assert all(a <= b for a, b in zip(ts, ts[1:])), f"{ctx}: clock reversed"

    # -- 6. telemetry reconciliation (frontend sheds flow through the
    #       engine's shed path, so the trace counts them too) ------------- #
    summary = summarize(events)
    assert summary.finished == result.completed_requests, f"{ctx}: finished"
    assert summary.cancelled == result.cancelled, f"{ctx}: cancelled"
    assert summary.timed_out == result.timed_out, f"{ctx}: timed_out"
    assert summary.shed == result.shed, f"{ctx}: shed"
    assert result.shed >= res.frontend_shed, f"{ctx}: frontend shed leak"

    # -- 7. SLO records reconcile with the terminal accounting ------------ #
    assert result.slo is res.slo
    assert res.slo.overall.submitted == res.submitted, f"{ctx}: slo submitted"
    assert res.slo.overall.finished == result.completed_requests
    assert res.slo.overall.shed == result.shed
    assert len(res.records) == res.submitted
    for rec in res.records:
        assert rec.state == result.terminal_states[rec.request_id]
        if rec.state == "finished":
            assert rec.finish_s is not None
            assert rec.first_token_s is not None
        else:
            assert rec.finish_s is None


# --------------------------------------------------------------------------- #
# Cluster chaos: replica faults x routing x fencing x re-route
# --------------------------------------------------------------------------- #

#: Hard ceiling on cluster rounds — a clean scenario takes a few thousand
#: (one replica-step per round), so hitting this means a livelock.
MAX_CLUSTER_ROUNDS = 100_000


@dataclass
class ClusterChaosRun:
    """One executed cluster scenario plus everything needed to audit it.

    ``recorder`` is the *cluster* sink (routing / health / re-route /
    per-round samples); each replica engine additionally carries its own
    ``TraceRecorder`` for the per-replica half of the audit.
    """

    seed: int
    requests: list[Request]
    plan: FaultPlan
    cluster: ClusterEngine
    recorder: TraceRecorder
    state: ClusterRun
    result: ServingResult


def cluster_scenario(seed: int):
    """Derive (workload, plan, n_replicas, engine/cluster kwargs) from one
    seed.  Routers rotate deterministically so the pinned sweep covers all
    three policies."""
    rng = np.random.default_rng([seed, 0xC1])
    n_replicas = int(rng.integers(2, 5))
    n_requests = int(rng.integers(24, 56))
    requests = ShareGPTWorkload(
        seed=int(rng.integers(0, 2**31)), max_len=1024
    ).sample_requests(n_requests)
    plan = FaultPlan.random(
        int(rng.integers(0, 2**31)),
        request_ids=[r.request_id for r in requests],
        horizon=300,
        n_replicas=n_replicas,
    )
    engine_kwargs = {
        "scheme": FP16 if rng.random() < 0.5 else ATOM_W4A4,
        "max_batch": int(rng.integers(8, 33)),
        "admission": "dynamic" if rng.random() < 0.5 else "reserve",
        "shed_policy": "drop",
        "stall_limit": 50,
    }
    cluster_kwargs = {
        "router": ("round-robin", "least-kv", "affinity")[seed % 3],
        "retry_budget": int(rng.integers(0, 4)),
        "down_after": int(rng.integers(2, 5)),
    }
    return requests, plan, n_replicas, engine_kwargs, cluster_kwargs


def run_cluster_scenario(seed: int) -> ClusterChaosRun:
    """Execute one seeded cluster scenario with full telemetry on both the
    cluster sink and every replica's own sink."""
    requests, plan, n_replicas, ekw, ckw = cluster_scenario(seed)
    scheme = ekw.pop("scheme")
    engines = [
        ServingEngine(LLAMA_7B, scheme, telemetry=TraceRecorder(), **ekw)
        for _ in range(n_replicas)
    ]
    recorder = TraceRecorder()
    cluster = ClusterEngine(engines, telemetry=recorder, **ckw)
    state = cluster.start_run(requests, faults=plan)
    while state.active:
        state.step()
        assert state.round <= MAX_CLUSTER_ROUNDS, (
            f"cluster chaos seed {seed}: livelock at round {state.round}"
        )
    return ClusterChaosRun(
        seed, requests, plan, cluster, recorder, state, state.result()
    )


def run_cluster_open_loop(
    seed: int, *, max_queue: int
) -> "tuple[ClusterChaosRun, FrontendResult]":
    """``cluster_scenario(seed)``'s replicas and requests, arriving as a
    Poisson burst at an open-loop front-end with admission control at
    ``max_queue`` (no faults).  The run's requests are the submissions."""
    requests, _, n_replicas, ekw, ckw = cluster_scenario(seed)
    inters = poisson_interactions(requests, rate=1000.0, seed=seed)
    scheme = ekw.pop("scheme")
    engines = [
        ServingEngine(LLAMA_7B, scheme, telemetry=TraceRecorder(), **ekw)
        for _ in range(n_replicas)
    ]
    recorder = TraceRecorder()
    cluster = ClusterEngine(engines, telemetry=recorder, **ckw)
    runs: "list[ClusterRun]" = []
    start_run = cluster.start_run

    def recording_start_run(*args, **kwargs):
        runs.append(start_run(*args, **kwargs))
        return runs[-1]

    cluster.start_run = recording_start_run
    res = OpenLoopFrontend(cluster, "fcfs", max_queue=max_queue).run(inters)
    (state,) = runs
    requests = [s.request for s in res.submissions]
    return (
        ClusterChaosRun(
            seed, requests, FaultPlan(), cluster, recorder, state, res.serving
        ),
        res,
    )


# --------------------------------------------------------------------------- #
# Shared run cache
# --------------------------------------------------------------------------- #

#: Memoized runs keyed by ``(runner name, seed)``.  Scenarios are
#: deterministic, so every test module shares one execution per seed.
_RUN_CACHE: dict = {}

#: Per-sink event counts captured right after each cached run, before audits
#: such as ``assert_prefix_invariants`` append teardown events.
_SINK_LENGTHS: dict = {}


def run_sinks(run) -> "dict[str, TraceRecorder]":
    """Every telemetry sink of a run by name: the engine's, or the
    cluster's plus one per replica."""
    if isinstance(run, ClusterChaosRun):
        sinks = {"cluster": run.recorder}
        for i, engine in enumerate(run.cluster.engines):
            sinks[f"replica{i}"] = engine.telemetry
        return sinks
    return {"engine": run.recorder}


def cached_run(runner, seed: int):
    """``runner(seed)``, executed once per process."""
    key = (runner.__name__, seed)
    if key not in _RUN_CACHE:
        run = runner(seed)
        _RUN_CACHE[key] = run
        _SINK_LENGTHS[key] = {
            name: len(rec.events) for name, rec in run_sinks(run).items()
        }
    return _RUN_CACHE[key]


def run_events(runner, seed: int) -> "dict[str, list]":
    """Each sink's events of a cached run as the run itself left them."""
    run = cached_run(runner, seed)
    lengths = _SINK_LENGTHS[(runner.__name__, seed)]
    return {
        name: rec.events[: lengths[name]]
        for name, rec in run_sinks(run).items()
    }


def cluster_fault_kinds(run: ClusterChaosRun) -> set[str]:
    """Replica-level fault kinds that actually FIRED in this run."""
    return {
        k for k, n in run.result.cluster["replica_faults"].items() if n > 0
    }


def assert_cluster_invariants(run: ClusterChaosRun) -> None:
    """The three cluster oracles plus payload/telemetry reconciliation.

    1. Exactly-once terminals cluster-wide — every request reaches exactly
       one terminal state on exactly one authority (a replica or the
       cluster), no matter how many replicas touched it.
    2. Per-replica page conservation — every replica allocator drains to
       zero and its own trace's page deltas sum to zero, *including*
       replicas that were fenced mid-run.
    3. Bounded progress — rounds are bounded (checked during the run) and
       per-replica clocks never go backwards across fencing/revival.
    """
    result, state = run.result, run.state
    payload = result.cluster
    ctx = f"cluster chaos seed {run.seed} ({run.plan.describe()})"

    # -- 1. exactly-once terminals cluster-wide --------------------------- #
    expected_ids = {r.request_id for r in run.requests}
    assert set(result.terminal_states) == expected_ids, (
        f"{ctx}: terminal set mismatch: "
        f"{expected_ids ^ set(result.terminal_states)}"
    )
    seen = [rid for rid, _ in state.ledger.terminal_log]
    assert len(seen) == len(set(seen)), f"{ctx}: duplicate terminal entries"
    counts = {
        "finished": result.completed_requests,
        "timed_out": result.timed_out,
        "cancelled": result.cancelled,
        "shed": result.shed,
        "failed": result.failed,
    }
    for terminal_state, n in counts.items():
        assert terminal_state in TERMINAL_STATES
        observed = sum(
            1 for s in result.terminal_states.values() if s == terminal_state
        )
        assert observed == n, (
            f"{ctx}: {terminal_state} count {observed} != {n}"
        )
    assert sum(counts.values()) == len(run.requests), f"{ctx}: state leak"
    # Terminal authority partition: replica-harvested terminals plus the
    # cluster's own (failed / cluster-shed) and the front-end's sheds cover
    # every request exactly.
    replica_terminals = sum(
        sum(rep["terminals"].values()) for rep in payload["replicas"]
    )
    assert (
        replica_terminals
        + payload["failed"]
        + payload["cluster_shed"]
        + payload["frontend_shed"]
        == len(run.requests)
    ), f"{ctx}: terminal authority partition leak"

    # -- 2. per-replica page conservation --------------------------------- #
    for rep, engine in zip(payload["replicas"], run.cluster.engines):
        i = rep["replica"]
        assert engine._allocator.used_pages == 0, (
            f"{ctx}: replica {i} leaked "
            f"{engine._allocator.used_pages} pages"
        )
        assert rep["used_pages_end"] == 0, f"{ctx}: payload pages r{i}"
        events = engine.telemetry.events
        net = sum(e.delta for e in events if isinstance(e, PagePoolDelta))
        assert net == 0, f"{ctx}: replica {i} page deltas sum to {net}"
        # Per-replica monotone clock (across fencing and revival).
        ts = [e.t for e in events]
        assert all(a <= b for a, b in zip(ts, ts[1:])), (
            f"{ctx}: replica {i} clock reversed"
        )

    # -- 3. delivered-token accounting ------------------------------------ #
    by_id = {r.request_id: r for r in run.requests}
    expected_delivered = sum(
        by_id[rid].decode_len
        for rid, s in result.terminal_states.items()
        if s == "finished"
    )
    delivered = result.throughput_tokens_per_s * result.total_time_s
    assert delivered == pytest.approx(expected_delivered, rel=1e-9), (
        f"{ctx}: delivered {delivered} != {expected_delivered}"
    )

    # -- 4. retry budget: failures only ever come from exhaustion --------- #
    budget = run.cluster.retry_budget
    for rid, s in result.terminal_states.items():
        if s == "failed":
            assert state.retries[rid] > budget, (
                f"{ctx}: request {rid} failed with budget left"
            )

    # -- 5. cluster payload reconciles with the cluster trace ------------- #
    events = run.recorder.events
    assert payload["reroutes"] == result.rerouted == sum(
        1 for e in events if isinstance(e, RequestRerouted)
    ), f"{ctx}: reroute accounting"
    assert payload["failed"] == result.failed == sum(
        1 for e in events if isinstance(e, RequestFailed)
    ), f"{ctx}: failure accounting"
    transitions = [e for e in events if isinstance(e, ReplicaStateChange)]
    assert payload["state_transitions"] == len(transitions), (
        f"{ctx}: transition count"
    )
    for e in transitions:
        assert e.old in REPLICA_STATES and e.new in REPLICA_STATES, (
            f"{ctx}: bogus replica state {e.old!r} -> {e.new!r}"
        )
        assert e.old != e.new, f"{ctx}: self-transition recorded"
    assert payload["state_transitions"] == sum(
        rep["transitions"] for rep in payload["replicas"]
    ), f"{ctx}: per-replica transition split"
    # Cluster trace clock is monotone too.
    ts = [e.t for e in events]
    assert all(a <= b for a, b in zip(ts, ts[1:])), (
        f"{ctx}: cluster clock reversed"
    )
    # Routed exactly covers every admission attempt: each request is routed
    # once per time it enters a replica queue.
    routed = sum(rep["routed"] for rep in payload["replicas"])
    dispatched = len(expected_ids) - payload["cluster_shed"] - sum(
        1
        for rid, s in result.terminal_states.items()
        if s in ("shed", "failed") and state.retries.get(rid, 0) == 0
        and s == "shed" and rid not in state.retries
    )
    assert routed >= len(expected_ids) - payload["cluster_shed"] - sum(
        1 for s in result.terminal_states.values() if s == "shed"
    ), f"{ctx}: routed undercount ({routed} vs {dispatched})"
