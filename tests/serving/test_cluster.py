"""Cluster engine unit tests: routing, health FSM, fencing, re-route.

The chaos suite (``test_chaos.py``) sweeps randomized scenarios; these are
the sharp, hand-built counterparts — one behaviour per test, with exact
expectations about who got routed where and which state transitions fired.
"""

import pytest

from repro.data.sharegpt import TURN_STRIDE, Request, ShareGPTWorkload
from repro.serving import (
    ATOM_W4A4,
    FP16,
    LLAMA_7B,
    REPLICA_STATES,
    ROUTERS,
    ClusterEngine,
    FaultPlan,
    OpenLoopFrontend,
    ReplicaCrashFault,
    ReplicaDrainFault,
    ReplicaFlapFault,
    ReplicaSlowFault,
    ServingEngine,
    TraceRecorder,
    make_router,
)
from repro.serving.telemetry import (
    ClusterSample,
    ReplicaStateChange,
    RequestFailed,
    RequestRouted,
)


def _engine(**kw):
    kw.setdefault("max_batch", 8)
    kw.setdefault("shed_policy", "drop")
    kw.setdefault("admission", "reserve")
    return ServingEngine(LLAMA_7B, ATOM_W4A4, **kw)


def _requests(n=24, seed=5):
    return ShareGPTWorkload(seed=seed, max_len=1024).sample_requests(n)


class TestRouters:
    def test_registry_and_factory(self):
        assert set(ROUTERS) == {"round-robin", "least-kv", "affinity"}
        for name in ROUTERS:
            assert make_router(name).name == name
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")

    def test_unknown_router_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown router"):
            ClusterEngine([_engine()], router="nope")

    def test_round_robin_spreads_requests(self):
        rec = TraceRecorder()
        cluster = ClusterEngine(
            [_engine() for _ in range(3)], telemetry=rec
        )
        r = cluster.run(_requests(12))
        assert r.completed_requests == 12
        routed = [rep["routed"] for rep in r.cluster["replicas"]]
        assert routed == [4, 4, 4]

    def test_least_kv_prefers_emptiest_replica(self):
        cluster = ClusterEngine(
            [_engine() for _ in range(2)], router="least-kv"
        )
        state = cluster.start_run([])
        reps = state.replicas
        # Preload replica 0's queue so its reserved load is non-zero.
        reps[0].run.pending.append(Request(100, 64, 16))
        chosen = state.router.select(Request(0, 64, 16), reps)
        assert chosen.idx == 1

    def test_affinity_keeps_conversations_sticky(self):
        rec = TraceRecorder()
        cluster = ClusterEngine(
            [_engine() for _ in range(3)], router="affinity", telemetry=rec
        )
        # Two conversations (ids split by TURN_STRIDE), interleaved turns.
        reqs = [
            Request(0, 64, 8),
            Request(TURN_STRIDE, 64, 8),
            Request(1, 64, 8),
            Request(TURN_STRIDE + 1, 64, 8),
        ]
        r = cluster.run(reqs)
        assert r.completed_requests == 4
        routes = {
            e.request_id: e.replica
            for e in rec.events
            if isinstance(e, RequestRouted)
        }
        assert routes[0] == routes[1]
        assert routes[TURN_STRIDE] == routes[TURN_STRIDE + 1]
        assert routes[0] != routes[TURN_STRIDE]


class TestHealthStateMachine:
    def test_replica_states_lattice(self):
        assert REPLICA_STATES == ("healthy", "suspect", "down", "draining")

    def test_short_flap_only_suspects(self):
        """One missed heartbeat (< down_after) -> suspect -> healthy, and
        nothing is fenced or re-routed."""
        rec = TraceRecorder()
        cluster = ClusterEngine(
            [_engine() for _ in range(2)],
            telemetry=rec,
            down_after=5,
        )
        plan = FaultPlan(
            replica_faults=(
                ReplicaFlapFault(10, 0, down_rounds=2, up_rounds=1),
            )
        )
        r = cluster.run(_requests(16), faults=plan)
        transitions = [
            (e.old, e.new)
            for e in rec.events
            if isinstance(e, ReplicaStateChange) and e.replica == 0
        ]
        assert ("healthy", "suspect") in transitions
        assert ("suspect", "healthy") in transitions
        assert ("suspect", "down") not in transitions
        assert r.rerouted == 0
        assert r.completed_requests == 16

    def test_long_flap_fences_then_revives(self):
        rec = TraceRecorder()
        cluster = ClusterEngine(
            [_engine() for _ in range(2)],
            telemetry=rec,
            down_after=3,
        )
        plan = FaultPlan(
            replica_faults=(
                ReplicaFlapFault(5, 0, down_rounds=30, up_rounds=200),
            )
        )
        r = cluster.run(_requests(24), faults=plan)
        transitions = [
            (e.old, e.new)
            for e in rec.events
            if isinstance(e, ReplicaStateChange) and e.replica == 0
        ]
        assert ("suspect", "down") in transitions
        assert ("down", "healthy") in transitions
        assert r.completed_requests + r.failed + r.shed == 24
        for engine in cluster.engines:
            assert engine._allocator.used_pages == 0

    def test_crash_fences_and_reroutes_everything(self):
        cluster = ClusterEngine(
            [_engine() for _ in range(2)], retry_budget=5
        )
        plan = FaultPlan(replica_faults=(ReplicaCrashFault(20, 0),))
        r = cluster.run(_requests(24), faults=plan)
        assert r.completed_requests == 24
        payload = r.cluster["replicas"][0]
        assert payload["state"] == "down"
        assert r.rerouted > 0
        assert cluster.engines[0]._allocator.used_pages == 0

    def test_slow_replica_stretches_clock_not_tokens(self):
        def run(plan):
            cluster = ClusterEngine([_engine() for _ in range(2)])
            return cluster.run(_requests(16), faults=plan)

        clean = run(None)
        slow = run(
            FaultPlan(
                replica_faults=(
                    ReplicaSlowFault(0, 0, factor=50.0, duration=400),
                )
            )
        )
        assert slow.decode_tokens == clean.decode_tokens
        assert slow.completed_requests == clean.completed_requests == 16
        assert slow.total_time_s > clean.total_time_s


class TestDrain:
    def test_graceful_drain_finishes_in_flight(self):
        """Drained replica finishes what it holds, admits nothing new, and
        leaves the rotation permanently — nothing is lost or re-routed."""
        rec = TraceRecorder()
        cluster = ClusterEngine(
            [_engine() for _ in range(2)], telemetry=rec
        )
        plan = FaultPlan(replica_faults=(ReplicaDrainFault(10, 0),))
        r = cluster.run(_requests(24), faults=plan)
        assert r.completed_requests == 24
        assert r.rerouted == 0
        payload = r.cluster["replicas"][0]
        assert payload["state"] == "down"
        assert payload["lost_in_flight"] == 0
        transitions = [
            (e.old, e.new)
            for e in rec.events
            if isinstance(e, ReplicaStateChange) and e.replica == 0
        ]
        assert ("healthy", "draining") in transitions
        assert ("draining", "down") in transitions

    def test_operator_drain_api(self):
        cluster = ClusterEngine([_engine() for _ in range(2)])
        state = cluster.start_run(_requests(16))
        for _ in range(5):
            state.step()
        state.drain(1)
        assert state.replicas[1].state == "draining"
        while state.active:
            state.step()
        # Retirement is observed by the next heartbeat after the replica
        # runs dry; one settling round makes it visible.
        state.step()
        assert state.replicas[1].state == "down"
        assert state.replicas[1].permanently_down
        r = state.result()
        assert r.completed_requests == 16


class TestRetryBudgetAndOutage:
    def test_retry_exhaustion_yields_failed_terminal(self):
        """A single replica that flaps forever keeps losing the same
        in-flight requests; with budget 0 the first loss is terminal."""
        rec = TraceRecorder()
        cluster = ClusterEngine(
            [_engine()],
            telemetry=rec,
            retry_budget=0,
            down_after=2,
        )
        plan = FaultPlan(
            replica_faults=(
                ReplicaFlapFault(4, 0, down_rounds=10, up_rounds=8, cycles=40),
            )
        )
        r = cluster.run(_requests(8), faults=plan)
        assert r.failed > 0
        assert r.failed == sum(
            1 for e in rec.events if isinstance(e, RequestFailed)
        )
        assert all(
            s in ("finished", "failed", "shed")
            for s in r.terminal_states.values()
        )
        assert r.completed_requests + r.failed + r.shed == 8

    def test_total_outage_sheds_remaining_queue(self):
        cluster = ClusterEngine([_engine() for _ in range(2)])
        plan = FaultPlan(
            replica_faults=(
                ReplicaCrashFault(3, 0),
                ReplicaCrashFault(3, 1),
            )
        )
        r = cluster.run(_requests(24), faults=plan)
        assert len(r.terminal_states) == 24
        assert r.shed > 0
        assert r.cluster["rounds"] < 1000, "outage must not livelock"
        for engine in cluster.engines:
            assert engine._allocator.used_pages == 0

    def test_oversized_request_is_shed_cluster_wide(self):
        cluster = ClusterEngine([_engine() for _ in range(2)])
        for engine in cluster.engines:
            engine._allocator.total_pages = 4
        giant = [Request(0, 1024, 512), Request(1, 32, 8)]
        r = cluster.run(giant)
        assert r.terminal_states[0] == "shed"
        assert r.terminal_states[1] == "finished"
        assert r.cluster["cluster_shed"] == 1


class TestClusterProtocol:
    def test_open_loop_front_end_drives_a_cluster(self):
        cluster = ClusterEngine([_engine() for _ in range(3)])
        res = OpenLoopFrontend(cluster, "fcfs").run(_requests(30))
        assert res.submitted == 30
        assert len(res.records) == 30
        assert res.serving.cluster["n_replicas"] == 3

    def test_deadlines_propagate_to_every_replica(self):
        """A deadline registered on a cluster run is visible to every
        replica run: they all record into the cluster's one ledger."""
        cluster = ClusterEngine([_engine() for _ in range(2)])
        reqs = _requests(4)
        state = cluster.start_run(reqs)
        # Round-robin routes the first two requests to replicas 0 and 1.
        doomed = {r.request_id for r in reqs[:2]}
        state.ledger.deadlines.update(dict.fromkeys(doomed, 1e-9))
        assert all(
            rep.run.ledger.deadlines == state.ledger.deadlines
            for rep in state.replicas
        )
        while state.active:
            state.step()
        r = state.result()
        assert r.terminal_states == {
            rid: "timed_out" if rid in doomed else "finished"
            for rid in (q.request_id for q in reqs)
        }
        assert [rep["routed"] for rep in r.cluster["replicas"]] == [2, 2]

    def test_requires_at_least_one_engine(self):
        with pytest.raises(ValueError):
            ClusterEngine([])

    def test_cluster_sample_telemetry_emitted(self):
        rec = TraceRecorder()
        cluster = ClusterEngine(
            [_engine() for _ in range(2)], telemetry=rec
        )
        cluster.run(_requests(8))
        samples = [e for e in rec.events if isinstance(e, ClusterSample)]
        assert samples
        for s in samples:
            assert len(s.states) == 2
            assert len(s.running) == 2
            assert len(s.used_pages) == 2
            assert all(st in REPLICA_STATES for st in s.states)
        assert samples[-1].pending == 0
        assert samples[-1].used_pages == (0, 0)

    def test_mixed_scheme_replicas_are_rejected(self):
        with pytest.raises(ValueError, match="same scheme"):
            ClusterEngine([
                _engine(),
                ServingEngine(
                    LLAMA_7B, FP16, max_batch=8, shed_policy="drop"
                ),
            ])
