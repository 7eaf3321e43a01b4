"""Open-loop front-end semantics: interactions, admission control, SLOs.

The scheduler-ordering invariants live in ``test_schedulers.py`` and the
closed-loop equivalence pin in ``test_backend.py``; this file covers the
front-end's own contract — multi-round interaction sequencing, overload
shedding, SLO accounting, idle-time auditing, the arrival-process helpers,
and the numeric-backend token oracle under open-loop traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.perf import build_bench_model
from repro.data.sharegpt import TURN_STRIDE, Request, ShareGPTWorkload
from repro.models.config import ModelConfig
from repro.serving import (
    ATOM_W4A4,
    LLAMA_7B,
    SCHEMES,
    BaseScheduler,
    Interaction,
    NumericBackend,
    OpenLoopFrontend,
    ServingEngine,
    poisson_interactions,
    sharegpt_interactions,
)


def _engine(**kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("admission", "reserve")
    return ServingEngine(LLAMA_7B, ATOM_W4A4, **kwargs)


def _requests(n, prefill=64, decode=48):
    return [
        Request(i, prefill + 16 * (i % 3), decode + 8 * (i % 4))
        for i in range(n)
    ]


class TestInteractions:
    def test_follow_up_turn_arrives_after_previous_finishes(self):
        reqs = _requests(6)
        inter = Interaction(
            0, reqs[:3], arrival_s=0.5, think_s=(1.0, 2.5)
        )
        res = OpenLoopFrontend(_engine()).run([inter])
        assert res.submitted == 3
        assert res.interactions_completed == 1
        subs = {s.request_id: s for s in res.submissions}
        recs = {r.request_id: r for r in res.records}
        for turn in (1, 2):
            prev = recs[reqs[turn - 1].request_id]
            cur = subs[reqs[turn].request_id]
            assert cur.turn == turn
            assert cur.arrival_s == pytest.approx(
                prev.finish_s + inter.think_after(turn - 1)
            )

    def test_bare_requests_wrap_as_arrival_zero_single_turns(self):
        res = OpenLoopFrontend(_engine()).run(_requests(4))
        assert res.interactions == 4
        assert all(s.arrival_s == 0.0 and s.turn == 0 for s in res.submissions)
        assert res.idle_advances == 0

    def test_aborted_interaction_skips_later_turns(self):
        """A timed-out turn aborts the conversation: follow-up turns are
        never submitted, and conservation holds over actual submissions."""
        inters = [
            Interaction(
                i,
                [Request(10 * i, 256, 128), Request(10 * i + 1, 256, 128)],
                arrival_s=0.0,
                deadline_s=1e-6,
            )
            for i in range(6)
        ]
        res = OpenLoopFrontend(_engine(max_batch=2)).run(inters)
        assert res.interactions_aborted > 0
        assert res.serving.timed_out > 0
        # Aborted interactions contribute exactly one submission (turn 0).
        assert res.submitted < 2 * len(inters)
        assert res.submitted == len(res.records)
        r = res.serving
        assert (
            r.completed_requests + r.timed_out + r.cancelled + r.shed
            == res.submitted
        )

    def test_relative_deadline_becomes_absolute_at_submission(self):
        inter = Interaction(
            0, _requests(2)[:2], arrival_s=3.0, deadline_s=100.0
        )
        res = OpenLoopFrontend(_engine()).run([inter])
        subs = {s.turn: s for s in res.submissions}
        assert subs[0].deadline_s == pytest.approx(103.0)
        assert subs[1].deadline_s == pytest.approx(
            subs[1].arrival_s + 100.0
        )

    def test_interaction_deadline_overrides_engine_default(self):
        """A turn's own deadline replaces the engine's ``deadline_s`` for
        that request; a request without one keeps the default."""
        inters = [
            Interaction(0, [Request(0, 64, 32)], deadline_s=100.0),
            Interaction(1, [Request(1, 64, 32)]),
        ]
        res = OpenLoopFrontend(_engine(deadline_s=1e-9)).run(inters)
        assert res.serving.terminal_states == {0: "finished", 1: "timed_out"}

    def test_interaction_validation(self):
        with pytest.raises(ValueError, match="at least one turn"):
            Interaction(0, [])
        with pytest.raises(ValueError, match="one entry per turn gap"):
            Interaction(0, _requests(3), think_s=(1.0,))
        with pytest.raises(ValueError, match="duplicate interaction id"):
            OpenLoopFrontend(_engine()).run(
                [
                    Interaction(7, [Request(0, 64, 32)]),
                    Interaction(7, [Request(1, 64, 32)]),
                ]
            )
        with pytest.raises(ValueError, match="duplicate request id"):
            OpenLoopFrontend(_engine()).run(
                [
                    Interaction(0, [Request(5, 64, 32)]),
                    Interaction(1, [Request(5, 64, 32)]),
                ]
            )


class TestAdmissionControl:
    def test_max_queue_sheds_overflow_and_conserves(self):
        inters = poisson_interactions(
            _requests(24), rate=400.0, seed=3
        )
        res = OpenLoopFrontend(
            _engine(max_batch=4), "sjf", max_queue=6
        ).run(inters)
        assert res.frontend_shed > 0
        r = res.serving
        assert r.shed >= res.frontend_shed
        assert (
            r.completed_requests + r.timed_out + r.cancelled + r.shed
            == res.submitted
        )
        assert set(r.terminal_states) == {
            s.request_id for s in res.submissions
        }
        # Shed requests show up in the SLO records as non-goodput.
        shed_recs = [rec for rec in res.records if rec.state == "shed"]
        assert len(shed_recs) == r.shed
        assert all(rec.finish_s is None for rec in shed_recs)

    def test_max_queue_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            OpenLoopFrontend(_engine(), max_queue=0)

    def test_non_permutation_scheduler_rejected(self):
        class Dropper(BaseScheduler):
            name = "dropper"

            def order(self, waiting, clock):
                return waiting[:-1]

        with pytest.raises(RuntimeError, match="permutation"):
            OpenLoopFrontend(_engine(), Dropper()).run(_requests(3))


class TestRunIsolation:
    """Nothing one run leaves behind changes the next run."""

    def test_engine_reused_without_deadlines_finishes_every_request(self):
        engine = _engine()
        doomed = [
            Interaction(i, [Request(i, 64, 32)], deadline_s=1e-4)
            for i in range(8)
        ]
        assert OpenLoopFrontend(engine).run(doomed).serving.timed_out == 8
        res = OpenLoopFrontend(engine).run(_requests(8))
        assert res.serving.completed_requests == 8
        assert engine.deadline_s is None

    def test_named_scheduler_is_fresh_every_run(self):
        """Fair share's service ledger does not carry over: a frontend run
        twice matches a fresh frontend.  Unknown names still fail at
        construction."""
        with pytest.raises(ValueError, match="unknown scheduler"):
            OpenLoopFrontend(_engine(), "lifo")
        inters = poisson_interactions(
            ShareGPTWorkload(seed=3, max_len=1024).sample_requests(40),
            rate=50.0,
            seed=1,
            tenants=("a", "b"),
        )
        frontend = OpenLoopFrontend(_engine(), "fair")
        frontend.run(inters)
        again = frontend.run(inters)
        fresh = OpenLoopFrontend(_engine(), "fair").run(inters)
        assert again.admitted_at == fresh.admitted_at
        assert again.records == fresh.records


class TestSLOAccounting:
    def _run(self, **kwargs):
        inters = poisson_interactions(
            _requests(18), rate=20.0, seed=5, tenants=("a", "b", "c")
        )
        return OpenLoopFrontend(_engine(), "fair", **kwargs).run(inters)

    def test_no_slo_means_goodput_equals_finished(self):
        res = self._run()
        assert res.slo.overall.goodput_requests == (
            res.serving.completed_requests
        )
        assert res.slo.overall.attainment == pytest.approx(1.0)

    def test_impossible_slo_zeroes_goodput(self):
        res = self._run(slo_ttft_s=1e-12)
        assert res.slo.overall.goodput_requests == 0
        assert res.slo.overall.attainment == 0.0
        # The latency percentiles themselves are SLO-independent.
        assert res.slo.overall.ttft_p99_s > 0

    def test_per_tenant_partitions_overall(self):
        res = self._run(slo_ttft_s=10.0, slo_tbt_s=1.0)
        per = res.slo.per_tenant
        assert set(per) == {"a", "b", "c"}
        for field in ("submitted", "finished", "goodput_requests"):
            assert sum(getattr(t, field) for t in per.values()) == getattr(
                res.slo.overall, field
            )

    def test_ttft_and_tbt_definitions(self):
        res = self._run()
        recs = {r.request_id: r for r in res.records}
        for sub in res.submissions:
            rec = recs[sub.request_id]
            assert rec.ttft_s == pytest.approx(
                rec.first_token_s - rec.arrival_s
            )
            assert rec.tbt_s == pytest.approx(
                (rec.finish_s - rec.first_token_s)
                / (rec.decode_len - 1)
            )

    def test_slo_table_renders(self):
        res = self._run(slo_ttft_s=10.0)
        table = res.slo.table()
        for token in ("tenant", "goodput", "a", "b", "c", "*"):
            assert token in table


class TestIdleAudit:
    def test_sparse_arrivals_account_idle_time(self):
        inters = poisson_interactions(_requests(5), rate=0.01, seed=9)
        res = OpenLoopFrontend(_engine()).run(inters)
        assert res.idle_advances > 0
        assert res.idle_time_s > 0.0
        # Idle jumps land exactly on arrivals: no request waits while the
        # engine idles.
        for sub in res.submissions:
            assert res.admitted_at[sub.request_id] >= sub.arrival_s


class TestArrivalHelpers:
    def test_poisson_is_deterministic_and_round_robin(self):
        reqs = _requests(9)
        a = poisson_interactions(reqs, rate=5.0, seed=1, tenants=("x", "y"))
        b = poisson_interactions(reqs, rate=5.0, seed=1, tenants=("x", "y"))
        assert [i.arrival_s for i in a] == [i.arrival_s for i in b]
        assert [i.tenant for i in a[:4]] == ["x", "y", "x", "y"]
        assert all(
            later.arrival_s > earlier.arrival_s
            for earlier, later in zip(a, a[1:])
        )
        c = poisson_interactions(reqs, rate=5.0, seed=2)
        assert [i.arrival_s for i in c] != [i.arrival_s for i in a]

    def test_poisson_validation(self):
        with pytest.raises(ValueError, match="rate"):
            poisson_interactions(_requests(2), rate=0.0)
        with pytest.raises(ValueError, match="tenants"):
            poisson_interactions(_requests(2), rate=1.0, tenants=())

    def test_sharegpt_interactions_use_id_addressed_sampler(self):
        workload = ShareGPTWorkload(seed=23, max_len=512)
        inters = sharegpt_interactions(
            workload, 6, rate=2.0, seed=0, think_mean_s=0.5
        )
        assert len(inters) == 6
        for inter in inters:
            cid = inter.interaction_id
            for turn, req in enumerate(inter.turns):
                assert req.request_id == cid * TURN_STRIDE + turn
            assert isinstance(inter.think_s, tuple)
            assert len(inter.think_s) == len(inter.turns) - 1
            assert all(t > 0 for t in inter.think_s)
        # Re-deriving is bit-stable, including think times.
        again = sharegpt_interactions(
            ShareGPTWorkload(seed=23, max_len=512),
            6,
            rate=2.0,
            seed=0,
            think_mean_s=0.5,
        )
        assert [i.think_s for i in again] == [i.think_s for i in inters]
        assert [i.arrival_s for i in again] == [i.arrival_s for i in inters]

    def test_sharegpt_validation(self):
        workload = ShareGPTWorkload(seed=1, max_len=256)
        with pytest.raises(ValueError, match="n_conversations"):
            sharegpt_interactions(workload, 0, rate=1.0)
        with pytest.raises(ValueError, match="rate"):
            sharegpt_interactions(workload, 2, rate=-1.0)

    def test_sharegpt_conversations_drain_end_to_end(self):
        workload = ShareGPTWorkload(seed=31, max_len=512)
        inters = sharegpt_interactions(
            workload, 8, rate=1.0, seed=4, tenants=("a", "b"),
            think_mean_s=0.2,
        )
        res = OpenLoopFrontend(_engine(), "fair").run(inters)
        assert res.interactions_completed == 8
        assert res.submitted == sum(len(i.turns) for i in inters)
        assert (
            res.serving.completed_requests == res.submitted
        )


#: Small GQA config for fast numeric runs (mirrors test_numeric_backend).
NUMERIC_TEST_CONFIG = ModelConfig(
    "numeric-test",
    dim=64,
    n_layers=2,
    n_heads=8,
    n_kv_heads=2,
    ffn_dim=128,
    max_seq_len=256,
)


@pytest.fixture(scope="module")
def numeric_model():
    return build_bench_model(NUMERIC_TEST_CONFIG, seed=0)


class TestNumericOpenLoop:
    def test_open_loop_tokens_bit_identical_to_generate(self, numeric_model):
        """The PR-5 bit-identity oracle extends to open-loop traffic: every
        token delivered under Poisson arrivals + fair-share scheduling
        equals single-request ``LlamaModel.generate``."""
        reqs = [Request(i, 12 + 3 * (i % 4), 9 + 2 * (i % 3)) for i in range(10)]
        engine = NumericBackend.engine_for(
            numeric_model,
            SCHEMES["FP16"],
            max_batch=4,
            admission="reserve",
            seed=0,
        )
        inters = poisson_interactions(
            reqs, rate=2000.0, seed=7, tenants=("a", "b")
        )
        res = OpenLoopFrontend(engine, "fair").run(inters)
        assert res.serving.completed_requests == len(reqs)
        backend = engine.backend
        for r in reqs:
            got = backend.generated_tokens(r.request_id)
            want = backend.runner.oracle_generate(
                r.request_id, r.prefill_len, r.decode_len
            )
            np.testing.assert_array_equal(
                got,
                want,
                err_msg=f"request {r.request_id} diverged under open loop",
            )


class TestRateLimiting:
    """Per-tenant token-bucket admission: over-budget arrivals are shed on
    arrival through the engine's shed path, so every rate-limited request
    still reaches a typed terminal and all conservation laws hold."""

    def _interactions(self, n=24, rate=100.0, tenants=("a", "b")):
        reqs = _requests(n)
        return poisson_interactions(
            reqs, rate=rate, seed=9, tenants=tenants
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_limit must be positive"):
            OpenLoopFrontend(_engine(), rate_limit=0.0)
        with pytest.raises(ValueError, match="requires rate_limit"):
            OpenLoopFrontend(_engine(), rate_limit_burst=4.0)
        with pytest.raises(ValueError, match="burst must be >= 1"):
            OpenLoopFrontend(_engine(), rate_limit=1.0, rate_limit_burst=0.5)
        fe = OpenLoopFrontend(_engine(), rate_limit=3.0)
        assert fe.rate_limit_burst == 3.0
        assert OpenLoopFrontend(_engine()).rate_limit_burst is None

    def test_no_limit_is_a_no_op(self):
        res = OpenLoopFrontend(
            _engine(shed_policy="drop"), "fcfs"
        ).run(self._interactions())
        assert res.rate_limited == 0

    def test_over_budget_arrivals_are_shed_and_conserved(self):
        engine = _engine(shed_policy="drop")
        res = OpenLoopFrontend(
            engine, "fcfs", rate_limit=5.0, rate_limit_burst=2.0
        ).run(self._interactions(rate=500.0))
        assert res.rate_limited > 0
        # Every submission still reaches exactly one terminal state.
        assert len(res.records) == res.submitted
        assert res.serving.shed >= res.rate_limited
        # Rate-limit sheds are disjoint from queue-overflow sheds.
        assert res.frontend_shed == 0
        assert engine._allocator.used_pages == 0

    def test_deterministic(self):
        def run():
            return OpenLoopFrontend(
                _engine(shed_policy="drop"), "fcfs",
                rate_limit=5.0, rate_limit_burst=2.0,
            ).run(self._interactions(rate=500.0))

        a, b = run(), run()
        assert a.rate_limited == b.rate_limited
        assert a.serving.terminal_states == b.serving.terminal_states

    def test_tenants_have_independent_buckets(self):
        """One flooding tenant must not consume a quiet tenant's budget:
        with per-tenant buckets the quiet tenant's sparse arrivals all
        pass while the flood is clipped."""
        flood = [
            Interaction(
                i, [Request(i * TURN_STRIDE, 64, 16)],
                tenant="flood", arrival_s=0.001 * i,
            )
            for i in range(20)
        ]
        quiet = [
            Interaction(
                100 + i, [Request((100 + i) * TURN_STRIDE, 64, 16)],
                tenant="quiet", arrival_s=2.0 * i,
            )
            for i in range(5)
        ]
        res = OpenLoopFrontend(
            _engine(shed_policy="drop"), "fcfs",
            rate_limit=1.0, rate_limit_burst=2.0,
        ).run(flood + quiet)
        states = res.serving.terminal_states
        for i in range(5):
            assert states[(100 + i) * TURN_STRIDE] == "finished", (
                "quiet tenant was clipped by the flooding tenant"
            )
        flood_shed = sum(
            1 for i in range(20) if states[i * TURN_STRIDE] == "shed"
        )
        assert flood_shed > 0
        assert res.rate_limited == flood_shed

    def test_bucket_refills_at_the_configured_rate(self):
        """Arrivals 1s apart under ``rate_limit=1`` all pass; the same
        arrivals 0.1s apart exhaust the burst and then shed."""
        def run(gap):
            inters = [
                Interaction(
                    i, [Request(i * TURN_STRIDE, 64, 8)],
                    tenant="t", arrival_s=gap * i,
                )
                for i in range(8)
            ]
            return OpenLoopFrontend(
                _engine(shed_policy="drop"), "fcfs",
                rate_limit=1.0, rate_limit_burst=1.0,
            ).run(inters)

        assert run(1.0).rate_limited == 0
        clipped = run(0.1)
        # Burst of 1 admits the first arrival; each later one finds only
        # 0.1 tokens refilled.
        assert clipped.rate_limited == 7

    def test_rate_limited_aborts_interaction_follow_ups(self):
        inter = Interaction(
            0, [Request(0, 64, 8), Request(1, 64, 8)],
            tenant="t", arrival_s=0.0,
        )
        burner = Interaction(
            1, [Request(TURN_STRIDE, 64, 8)], tenant="t", arrival_s=0.0,
        )
        res = OpenLoopFrontend(
            _engine(shed_policy="drop"), "fcfs",
            rate_limit=0.001, rate_limit_burst=1.0,
        ).run([burner, inter])
        # The single burst token admits one interaction's first turn; the
        # other is shed on arrival, aborting its follow-up turn.
        assert res.rate_limited == 1
        assert res.interactions_aborted == 1
        assert res.interactions_completed == 1
        assert res.submitted == 2  # the aborted follow-up never arrives
