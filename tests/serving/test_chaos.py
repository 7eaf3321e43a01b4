"""Seeded chaos suite: engine invariants under injected faults.

Every scenario is derived deterministically from its seed (workload, fault
plan, engine configuration), so a red seed is a permanent regression test.
``SEEDS`` is the pinned CI list — 30 distinct (workload, FaultPlan)
scenarios, collectively covering every fault kind.
"""

import numpy as np
import pytest

from repro.bench.perf import build_bench_model
from repro.data.sharegpt import Request, ShareGPTWorkload
from repro.models.config import ModelConfig
from repro.serving import (
    FP16,
    LLAMA_7B,
    SCHEMES,
    CancelFault,
    FaultPlan,
    Interaction,
    NumericBackend,
    OpenLoopFrontend,
    PagePoolFault,
    ServingEngine,
    StragglerFault,
    TraceRecorder,
)

from chaos import (  # tests/serving/chaos.py (pytest adds this dir to sys.path)
    MAX_ITERATIONS,
    OpenLoopChaosRun,
    assert_cluster_invariants,
    assert_invariants,
    assert_open_loop_invariants,
    assert_prefix_invariants,
    cached_run,
    chaos_scenario,
    cluster_fault_kinds,
    injected_fault_kinds,
    run_cluster_open_loop,
    run_cluster_scenario,
    run_open_loop_scenario,
    run_prefix_scenario,
    run_scenario,
    run_with_deadlines,
)

#: Pinned seed list run in CI (>= 25 distinct scenarios required).
SEEDS = list(range(30))


def scenario(seed):
    # Runs are deterministic, so the coverage sweeps (and the digest pins in
    # test_chaos_digests.py) reuse the runs of the per-seed invariant tests.
    return cached_run(run_scenario, seed)


class TestChaosInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold(self, seed):
        assert_invariants(scenario(seed))

    def test_every_fault_kind_exercised(self):
        """Across the pinned seeds, each fault type actually fires."""
        fired = set()
        for seed in SEEDS:
            fired |= injected_fault_kinds(scenario(seed))
            if fired >= {"page_shrink", "cancel", "straggler", "alloc_fail"}:
                return
        missing = {"page_shrink", "cancel", "straggler", "alloc_fail"} - fired
        pytest.fail(f"fault kinds never fired across seeds: {missing}")

    def test_scenarios_are_deterministic(self):
        a = run_scenario(SEEDS[0])
        b = run_scenario(SEEDS[0])
        assert a.result == b.result
        assert a.recorder.events == b.recorder.events

    def test_scenarios_are_distinct(self):
        plans = {scenario(s).plan for s in SEEDS[:8]}
        assert len(plans) == 8


class TestTargetedFaults:
    """One hand-built plan per fault kind, with sharp expectations."""

    def _requests(self, n=24, seed=5):
        return ShareGPTWorkload(seed=seed, max_len=1024).sample_requests(n)

    def _engine(self, **kw):
        kw.setdefault("max_batch", 32)
        kw.setdefault("shed_policy", "drop")
        return ServingEngine(LLAMA_7B, FP16, **kw)

    def test_page_shrink_forces_preemption_then_recovers(self):
        reqs = self._requests()
        clean = self._engine(admission="dynamic").run(reqs)
        assert clean.preemptions == 0
        # Steal 90% of the pool mid-run — live usage exceeds the shrunken
        # pool, so the engine MUST evict (recompute-on-resume) — then give
        # the pages back so the tail still finishes.
        steal = (9 * self._engine()._allocator.total_pages) // 10
        plan = FaultPlan(
            page_faults=(
                PagePoolFault(30, -steal),
                PagePoolFault(60, steal),
            )
        )
        r = self._engine(admission="dynamic").run(reqs, faults=plan)
        assert r.faults_injected >= 2
        assert r.preemptions > 0
        # The pool recovers, so everything still finishes.
        assert r.completed_requests == len(reqs)

    def test_cancellation_reaches_terminal_state(self):
        reqs = self._requests()
        victim = reqs[3].request_id
        plan = FaultPlan(cancellations=(CancelFault(2, victim),))
        engine = self._engine()
        r = engine.run(reqs, faults=plan)
        assert r.terminal_states[victim] == "cancelled"
        assert r.cancelled == 1
        assert r.completed_requests == len(reqs) - 1
        assert engine._allocator.used_pages == 0

    def test_cancelling_queued_request_frees_nothing(self):
        reqs = self._requests()
        # With max_batch=1 every later request is still queued at iteration 0.
        victim = reqs[-1].request_id
        plan = FaultPlan(cancellations=(CancelFault(0, victim),))
        r = self._engine(max_batch=1).run(reqs, faults=plan)
        assert r.terminal_states[victim] == "cancelled"
        assert r.completed_requests == len(reqs) - 1

    def test_straggler_stretches_clock_not_tokens(self):
        reqs = self._requests()
        clean = self._engine().run(reqs)
        plan = FaultPlan(stragglers=(StragglerFault(1, 50.0),))
        slow = self._engine().run(reqs, faults=plan)
        assert slow.decode_tokens == clean.decode_tokens
        assert slow.completed_requests == clean.completed_requests
        assert slow.total_time_s > clean.total_time_s
        assert sum(slow.time_breakdown.values()) == pytest.approx(
            slow.total_time_s
        )

    def test_transient_alloc_faults_retry_and_complete(self):
        reqs = self._requests(n=12)
        plan = FaultPlan(alloc_failure_prob=0.05, seed=11)
        r = self._engine(admission="dynamic").run(reqs, faults=plan)
        assert r.alloc_retries > 0
        assert r.completed_requests + r.shed == len(reqs)
        # Fault-free delivered accounting still holds.
        finished = {
            q.request_id: q for q in reqs
        }
        expect = sum(
            finished[rid].decode_len
            for rid, s in r.terminal_states.items()
            if s == "finished"
        )
        assert r.throughput_tokens_per_s * r.total_time_s == pytest.approx(
            expect
        )

    def test_total_alloc_failure_sheds_instead_of_livelocking(self):
        """alloc_failure_prob=1.0 can never admit anything; the stall guard
        must shed the queue instead of spinning forever."""
        reqs = self._requests(n=6)
        plan = FaultPlan(alloc_failure_prob=1.0, seed=1)
        r = self._engine(stall_limit=3, max_alloc_retries=1).run(
            reqs, faults=plan
        )
        assert r.shed == len(reqs)
        assert r.completed_requests == 0
        assert r.iterations < 200


class TestDegradationPolicy:
    """Deadlines and load shedding, without any injected faults."""

    def test_uniform_deadline_times_out_tail(self):
        reqs = ShareGPTWorkload(seed=5, max_len=1024).sample_requests(32)
        clean = ServingEngine(LLAMA_7B, FP16, max_batch=32).run(reqs)
        deadline = clean.total_time_s / 3
        engine = ServingEngine(
            LLAMA_7B, FP16, max_batch=32, deadline_s=deadline,
            shed_policy="drop",
        )
        r = engine.run(reqs)
        assert r.timed_out > 0
        assert r.completed_requests + r.timed_out == len(reqs)
        assert r.total_time_s < clean.total_time_s
        assert engine._allocator.used_pages == 0

    def test_per_request_deadline_dict(self):
        """Deadlines registered on the run bind only their requests."""
        reqs = [Request(0, 64, 32), Request(1, 64, 512)]
        engine = ServingEngine(LLAMA_7B, FP16, max_batch=4, shed_policy="drop")
        r = run_with_deadlines(engine, reqs, deadlines={1: 1e-6})
        assert r.terminal_states[0] == "finished"
        assert r.terminal_states[1] == "timed_out"
        # The run's deadlines do not outlive it.
        assert engine.run(reqs).completed_requests == 2

    def test_oversized_request_is_shed_under_drop_policy(self):
        giant = [Request(0, prefill_len=2047, decode_len=2048),
                 Request(1, prefill_len=64, decode_len=32)]
        engine = ServingEngine(
            LLAMA_7B, FP16, max_batch=4, shed_policy="drop"
        )
        engine._allocator.total_pages = 10
        r = engine.run(giant)
        assert r.terminal_states[0] == "shed"
        assert r.terminal_states[1] == "finished"
        assert r.shed == 1


class TestDynamicAdmissionLivelock:
    """Regression: the dynamic watermark must keep decode progressing.

    Before the watermark, a memory-starved dynamic engine could admit so
    aggressively that every iteration preempted what the previous one
    admitted — decode starvation as a preempt/recompute livelock.  The
    seeded workload below is memory-tight enough to trigger it; it must
    terminate within a bounded iteration count, with and without injected
    allocator faults.
    """

    def _workload(self):
        return ShareGPTWorkload(seed=3, max_len=1024).sample_requests(48)

    def test_terminates_without_faults(self):
        r = ServingEngine(
            LLAMA_7B, FP16, max_batch=256, admission="dynamic"
        ).run(self._workload())
        assert r.completed_requests == 48
        assert r.iterations < 3000
        assert r.iterations <= MAX_ITERATIONS

    def test_terminates_with_alloc_faults(self):
        plan = FaultPlan(alloc_failure_prob=0.1, seed=9)
        r = ServingEngine(
            LLAMA_7B, FP16, max_batch=256, admission="dynamic",
            shed_policy="drop", stall_limit=50,
        ).run(self._workload(), faults=plan)
        assert len(r.terminal_states) == 48
        assert r.iterations < 5000


class TestOpenLoopChaos:
    """Open-loop chaos: faults x overload x multi-round interactions.

    Each pinned seed derives a ShareGPT conversation trace (Poisson
    arrivals, think times, sometimes deadlines and a bounded queue), a
    random fault plan, and a scheduler (rotating through all four), then
    checks the open-loop invariants in ``chaos.assert_open_loop_invariants``.
    """

    OL_SEEDS = list(range(12))

    def scenario(self, seed):
        return cached_run(run_open_loop_scenario, seed)

    @pytest.mark.parametrize("seed", OL_SEEDS)
    def test_invariants_hold(self, seed):
        assert_open_loop_invariants(self.scenario(seed))

    def test_scenarios_are_deterministic(self):
        a = run_open_loop_scenario(self.OL_SEEDS[0])
        b = run_open_loop_scenario(self.OL_SEEDS[0])
        assert a.result.records == b.result.records
        assert a.result.serving == b.result.serving

    def test_all_schedulers_rotated(self):
        names = {self.scenario(s).scheduler for s in self.OL_SEEDS}
        assert names == {"fcfs", "sjf", "edf", "fair"}

    def test_sweep_covers_the_hard_regimes(self):
        """The pinned seeds collectively exercise multi-round traffic,
        fired faults, and degraded (non-finished) terminal states."""
        multi_round = faults_fired = degraded = 0
        for seed in self.OL_SEEDS:
            run = self.scenario(seed)
            res = run.result
            if res.submitted > res.interactions:
                multi_round += 1
            if res.serving.faults_injected > 0:
                faults_fired += 1
            if res.submitted > res.serving.completed_requests:
                degraded += 1
        assert multi_round >= 3, "no seeds produced multi-round traffic"
        assert faults_fired >= 3, "no seeds actually injected faults"
        assert degraded >= 1, "no seed exercised a non-finished terminal"


class TestPrefixCacheChaos:
    """The closed-loop chaos scenarios re-run with a prefix cache attached.

    Every base invariant must keep holding with shared pages in play, plus
    the cache's own audit: refcounts equal live readers, the allocator's
    cache account equals the tree's page census, no lease survives the
    drain, and ``clear()`` returns the pool to exactly zero.
    """

    PC_SEEDS = list(range(10))

    def scenario(self, seed):
        return cached_run(run_prefix_scenario, seed)

    @pytest.mark.parametrize("seed", PC_SEEDS)
    def test_invariants_hold(self, seed):
        assert_prefix_invariants(self.scenario(seed))

    def test_scenarios_are_deterministic(self):
        a = run_prefix_scenario(self.PC_SEEDS[0])
        b = run_prefix_scenario(self.PC_SEEDS[0])
        assert a.result == b.result
        assert a.recorder.events == b.recorder.events

    def test_sweep_covers_the_hard_regimes(self):
        """Collectively the pinned seeds must exercise actual sharing
        (hits), memory pressure on the tree (evictions), faults, and
        preemption with the cache attached."""
        hits = evictions = faults = preempts = 0
        for seed in self.PC_SEEDS:
            run = self.scenario(seed)
            pc = run.result.prefix_cache
            hits += pc["hits"]
            evictions += pc["evicted_pages"]
            faults += run.result.faults_injected
            preempts += run.result.preemptions
        assert hits > 0, "no seed produced a prefix hit"
        assert evictions > 0, "no seed evicted under pressure"
        assert faults > 0, "no seed injected faults"
        assert preempts > 0, "no seed preempted with the cache attached"

    def test_cache_is_a_pure_optimization(self):
        """Fault-free, memory-rich run: attaching the cache changes no
        terminal state and delivers the same tokens, strictly faster on
        the simulated clock (matched prefill tokens are simply skipped)."""
        from repro.serving import PrefixCache

        reqs = ShareGPTWorkload(seed=7, max_len=1024).sample_requests(32)
        cold = ServingEngine(LLAMA_7B, FP16, max_batch=16).run(reqs)
        warm = ServingEngine(
            LLAMA_7B, FP16, max_batch=16, prefix_cache=PrefixCache(seed=7)
        ).run(reqs)
        assert warm.terminal_states == cold.terminal_states
        assert warm.decode_tokens == cold.decode_tokens
        assert warm.prefix_cache["hits"] > 0
        assert warm.total_time_s <= cold.total_time_s


class TestOpenLoopNumericChaos:
    """Numeric bit-identity survives open-loop chaos: pool shrink forcing
    preemption + a cancelled turn (aborting its conversation) must leave
    every delivered request token-identical to ``LlamaModel.generate``."""

    @pytest.fixture(scope="class")
    def model(self):
        cfg = ModelConfig(
            "numeric-test",
            dim=64,
            n_layers=2,
            n_heads=8,
            n_kv_heads=2,
            ffn_dim=128,
            max_seq_len=256,
        )
        return build_bench_model(cfg, seed=0)

    def test_faulted_open_loop_is_bit_identical(self, model):
        rec = TraceRecorder()
        engine = NumericBackend.engine_for(
            model,
            SCHEMES["FP16"],
            max_batch=4,
            admission="dynamic",
            seed=0,
            shed_policy="drop",
            telemetry=rec,
        )
        inters = [
            Interaction(
                i,
                [
                    Request(10 * i, 12 + 3 * (i % 4), 9 + 2 * (i % 3)),
                    Request(10 * i + 1, 14 + 2 * (i % 3), 8 + 3 * (i % 2)),
                ],
                tenant=("a", "b")[i % 2],
                # Simultaneous arrivals fill the batch before the pool
                # shrinks at iteration 3, so the shrink forces eviction.
                arrival_s=0.0,
                think_s=5e-4,
            )
            for i in range(6)
        ]
        shrink = engine._allocator.total_pages - 6
        plan = FaultPlan(
            page_faults=(
                PagePoolFault(iteration=3, delta_pages=-shrink),
                PagePoolFault(iteration=9, delta_pages=shrink),
            ),
            cancellations=(CancelFault(iteration=5, request_id=20),),
            stragglers=(StragglerFault(iteration=4, factor=3.0),),
        )
        res = OpenLoopFrontend(engine, "fair").run(inters, faults=plan)
        assert res.serving.preemptions > 0, "chaos must force preemption"
        assert res.serving.cancelled == 1
        assert res.interactions_aborted == 1
        assert res.interactions_completed == 5
        assert_open_loop_invariants(
            OpenLoopChaosRun(0, "fair", inters, plan, engine, rec, res)
        )
        backend = engine.backend
        for sub in res.submissions:
            if res.serving.terminal_states[sub.request_id] != "finished":
                continue
            got = backend.generated_tokens(sub.request_id)
            want = backend.runner.oracle_generate(
                sub.request_id,
                sub.request.prefill_len,
                sub.request.decode_len,
            )
            np.testing.assert_array_equal(
                got,
                want,
                err_msg=(
                    f"request {sub.request_id} diverged from the generate "
                    "oracle under open-loop chaos"
                ),
            )


class TestClusterChaos:
    """Cluster-level chaos: replica crash / flap / slow / drain on top of
    the engine fault kinds, swept across all three routers.

    Each pinned seed derives a workload, a ``FaultPlan`` with replica
    faults, a replica count, and router/budget knobs; the invariants in
    ``chaos.assert_cluster_invariants`` pin the three cluster oracles —
    exactly-once terminals cluster-wide, per-replica page conservation,
    and bounded-progress/delivered-token accounting.
    """

    CLUSTER_SEEDS = list(range(18))

    def scenario(self, seed):
        return cached_run(run_cluster_scenario, seed)

    @pytest.mark.parametrize("seed", CLUSTER_SEEDS)
    def test_invariants_hold(self, seed):
        assert_cluster_invariants(self.scenario(seed))

    def test_every_replica_fault_kind_fires(self):
        fired = set()
        for seed in self.CLUSTER_SEEDS:
            fired |= cluster_fault_kinds(self.scenario(seed))
        want = {
            "replica_crash", "replica_flap", "replica_slow", "replica_drain"
        }
        assert fired >= want, f"never fired: {want - fired}"

    def test_all_routers_rotated(self):
        routers = {
            self.scenario(s).result.cluster["router"]
            for s in self.CLUSTER_SEEDS
        }
        assert routers == {"round-robin", "least-kv", "affinity"}

    def test_scenarios_are_deterministic(self):
        a = run_cluster_scenario(self.CLUSTER_SEEDS[0])
        b = run_cluster_scenario(self.CLUSTER_SEEDS[0])
        assert a.result == b.result
        assert a.recorder.events == b.recorder.events

    def test_scenarios_are_distinct(self):
        plans = {self.scenario(s).plan for s in self.CLUSTER_SEEDS[:8]}
        assert len(plans) == 8

    def test_open_loop_frontend_sheds_stay_in_the_partition(self):
        """Front-end admission control ends queued requests through the
        cluster's ledger with no replica assignment; the payload counts
        them, so the terminal partition covers every submission."""
        run, res = run_cluster_open_loop(3, max_queue=6)
        assert res.frontend_shed > 0
        assert run.result.cluster["frontend_shed"] == res.frontend_shed
        assert_cluster_invariants(run)

    def test_sweep_covers_the_hard_regimes(self):
        """Collectively the pinned seeds must exercise re-routing, retry
        exhaustion (``failed``), cluster-wide shedding, and fencing."""
        reroutes = failed = cluster_shed = fences = 0
        for seed in self.CLUSTER_SEEDS:
            c = self.scenario(seed).result.cluster
            reroutes += c["reroutes"]
            failed += c["failed"]
            cluster_shed += c["cluster_shed"]
            fences += c["fence_preempts"]
        assert reroutes > 0, "no seed re-routed in-flight work"
        assert failed > 0, "no seed exhausted a retry budget"
        assert cluster_shed > 0, "no seed shed cluster-wide"
        assert fences > 0, "no seed fenced in-flight requests"


class TestClusterGoldenIdentity:
    """A no-fault single-replica cluster IS the bare engine: the replica's
    trace must be byte-identical to the committed golden, and the
    aggregate result must match the bare engine's field-for-field (the
    ``cluster`` payload being the only addition)."""

    def _golden_engine(self, rec=None, prefix_cache=None):
        from repro.serving import LLAMA_7B, SCHEMES, ClusterEngine

        return ServingEngine(
            LLAMA_7B,
            SCHEMES["Atom-W4A4"],
            max_batch=32,
            admission="reserve",
            telemetry=rec,
            prefix_cache=prefix_cache,
        )

    def _requests(self):
        return ShareGPTWorkload(seed=11, max_len=2048).sample_requests(48)

    def test_trace_byte_identical_to_golden(self):
        import io
        from pathlib import Path

        from repro.serving import ClusterEngine, write_jsonl

        rec = TraceRecorder()
        cluster = ClusterEngine([self._golden_engine(rec)])
        cluster.run(self._requests())
        buf = io.StringIO()
        write_jsonl(rec.events, buf)
        golden = Path(__file__).parent / "goldens" / "trace_atom_reserve.jsonl"
        assert buf.getvalue() == golden.read_text(), (
            "N=1 no-fault cluster replica trace diverged from the golden"
        )

    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(None, id="no-faults"),
            pytest.param("prefix", id="prefix-cache"),
            *SEEDS,
        ],
    )
    def test_result_matches_bare_engine(self, seed):
        """``no-faults`` serves the golden workload, ``prefix-cache`` the
        same through a radix prefix cache (whose stats the cluster sums
        over its replicas); each chaos seed serves its pinned scenario
        (engine faults, deadlines, both admission modes), whose engine
        faults replay inside the lone replica."""
        from dataclasses import asdict

        from repro.serving import ClusterEngine, PrefixCache

        def serve(wrap):
            deadlines = None
            if seed in (None, "prefix"):
                cache = PrefixCache(seed=0) if seed else None
                engine, requests, plan = (
                    self._golden_engine(prefix_cache=cache), self._requests(), None
                )
            else:
                requests, plan, kwargs = chaos_scenario(seed)
                deadlines = kwargs.pop("deadlines", None)
                engine = ServingEngine(LLAMA_7B, kwargs.pop("scheme"), **kwargs)
            return run_with_deadlines(
                wrap(engine), requests, faults=plan, deadlines=deadlines
            )

        bare = asdict(serve(lambda e: e))
        clustered = asdict(serve(lambda e: ClusterEngine([e])))
        assert clustered.pop("cluster") is not None
        assert bare.pop("cluster") is None
        assert bare == clustered
        if seed == "prefix":
            assert bare["prefix_cache"]["hits"] > 0

    def test_open_loop_fcfs_trace_matches_golden(self):
        """The front-end driving a 1-replica cluster with everything
        arriving at t=0 is still the closed loop, byte for byte."""
        import io
        from pathlib import Path

        from repro.serving import ClusterEngine, write_jsonl

        rec = TraceRecorder()
        cluster = ClusterEngine([self._golden_engine(rec)])
        OpenLoopFrontend(cluster, "fcfs", enforce_deadlines=False).run(
            self._requests()
        )
        buf = io.StringIO()
        write_jsonl(rec.events, buf)
        golden = Path(__file__).parent / "goldens" / "trace_atom_reserve.jsonl"
        assert buf.getvalue() == golden.read_text(), (
            "open-loop N=1 cluster trace diverged from the golden"
        )


class TestClusterNumericMigration:
    """The hardest oracle: a request preempted by replica *fencing* and
    re-routed mid-decode must still deliver tokens bit-identical to
    ``LlamaModel.generate`` — recompute-on-resume across machines."""

    @pytest.fixture(scope="class")
    def model(self):
        cfg = ModelConfig(
            "numeric-test",
            dim=64,
            n_layers=2,
            n_heads=8,
            n_kv_heads=2,
            ffn_dim=128,
            max_seq_len=256,
        )
        return build_bench_model(cfg, seed=0)

    def test_migrated_requests_are_bit_identical(self, model):
        from repro.serving import ClusterEngine
        from repro.serving.faults import ReplicaCrashFault

        engines = [
            NumericBackend.engine_for(
                model,
                SCHEMES["FP16"],
                max_batch=4,
                admission="reserve",
                seed=0,
                shed_policy="drop",
            )
            for _ in range(2)
        ]
        cluster = ClusterEngine(
            engines, router="round-robin", retry_budget=3
        )
        reqs = [
            Request(i, 12 + 3 * (i % 4), 9 + 2 * (i % 3)) for i in range(10)
        ]
        state = cluster.start_run(reqs, faults=FaultPlan(
            replica_faults=(ReplicaCrashFault(8, 0),)
        ))
        while state.active:
            state.step()
        r = state.result()
        assert r.completed_requests == len(reqs)
        assert r.rerouted > 0, "the crash must actually migrate requests"
        migrated = {
            rid for rid, n in state.retries.items() if n > 0
        }
        assert migrated, "no request was lost in flight"
        oracle = engines[0].backend.runner.oracle_generate
        for q in reqs:
            got = cluster.generated_tokens(q.request_id)
            want = oracle(q.request_id, q.prefill_len, q.decode_len)
            np.testing.assert_array_equal(
                got,
                want,
                err_msg=(
                    f"request {q.request_id} "
                    f"({'migrated' if q.request_id in migrated else 'local'})"
                    " diverged from the generate oracle after fencing"
                ),
            )
        for i, engine in enumerate(engines):
            assert engine._allocator.used_pages == 0, f"replica {i} leaked"
