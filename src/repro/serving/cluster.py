"""Fault-tolerant multi-replica cluster serving.

One :class:`~repro.serving.engine.ServingEngine` is not the unit of scale:
serving millions of users means N replicas behind a router, and at that
scale whole-replica failures are routine, not exceptional.  This module
adds the cluster layer on top of the existing engine seam — each replica is
an *unmodified* ``ServingEngine`` stepped through ``start_run()`` /
:class:`~repro.serving.engine.EngineRun` over its own paged-KV pool — plus
the robustness machinery real clusters need:

- **Routing** with pluggable policies (:data:`ROUTERS`): ``round-robin``,
  ``least-kv`` (fewest used + queued-reserved KV pages), and ``affinity``
  (session-sticky on conversation id, so multi-turn prefix locality
  survives scale-out).
- **Health checking**: a per-round heartbeat drives a typed replica state
  machine — ``healthy`` → ``suspect`` (missed heartbeats, no new
  admissions) → ``down`` (fenced) and back, plus ``draining`` for graceful
  operator-initiated removal.
- **Fencing + re-route**: when a replica is declared down, its KV pages are
  released, its in-flight requests go back to the cluster queue (front,
  oldest first) and are recomputed from scratch on a surviving replica —
  the same recompute-on-resume story the single engine uses for
  preemption, lifted one level.  Each in-flight loss burns one unit of a
  bounded per-request retry budget; exhaustion yields the terminal state
  ``failed`` (the cluster-level extension of the PR-3 degradation
  taxonomy).
- **Cluster-wide load shedding**: a request that can never fit any replica
  that could ever serve again is shed at dispatch, and a total outage
  (every replica permanently gone) sheds the remaining queue instead of
  spinning forever.

Replica-level faults (crash / flap / slowdown / drain) come from the same
deterministic :class:`~repro.serving.faults.FaultPlan` machinery as engine
faults: the plan's ``replica_faults`` drive a pure
:class:`~repro.serving.faults.ReplicaFaultSchedule` timeline, while the
plan's single-engine faults replay inside every replica.  The same
``(workload, plan)`` pair therefore replays the same cluster timeline
bit-for-bit — the cluster chaos harness pins exactly-once terminals,
per-replica page conservation, and numeric-backend token bit-identity
*including* for requests that migrated replicas mid-decode.

Time model: the cluster steps exactly one replica per round — the
available replica with active work and the smallest local clock — so the
cluster clock is the causal frontier of the replica clocks (a discrete
event simulation over per-replica timelines).  Idle replicas are advanced
to the cluster clock on dispatch; replicas returning from an
unavailability window are advanced across the gap (downtime is wall time).
:class:`ClusterRun` implements the same duck-typed stepping protocol as
``EngineRun`` (``pending`` / ``step`` / ``advance_clock`` / ``ledger``),
so :class:`~repro.serving.frontend.OpenLoopFrontend` drives a cluster
exactly as it drives a single engine; the replica runs write into the
cluster's one :class:`~repro.serving.engine.RunLedger` and read their
requests' deadlines from it.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.data.sharegpt import TURN_STRIDE
from repro.serving.engine import (
    EngineRun,
    RunLedger,
    ServingResult,
    aggregate_runs,
)
from repro.serving.faults import (
    FaultInjector,
    FaultPlan,
    ReplicaFaultSchedule,
)
from repro.serving.telemetry import (
    NULL_TELEMETRY,
    ClusterSample,
    FaultInjected,
    ReplicaStateChange,
    RequestFailed,
    RequestRerouted,
    RequestRouted,
    RequestShed,
    Telemetry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.sharegpt import Request
    from repro.serving.engine import ServingEngine

__all__ = [
    "BaseRouter",
    "ClusterEngine",
    "ClusterRun",
    "LeastKVRouter",
    "REPLICA_STATES",
    "ROUTERS",
    "RoundRobinRouter",
    "SessionAffinityRouter",
    "make_router",
]

#: Replica health lattice (see the state machine in ``ClusterRun``).
REPLICA_STATES = ("healthy", "suspect", "down", "draining")

_EMPTY_PLAN = FaultPlan()


# --------------------------------------------------------------------------- #
# Routers
# --------------------------------------------------------------------------- #
class BaseRouter:
    """Routing policy contract: pick one admissible replica per request.

    Routers are stateful (cursor, sticky map) and are reset per run; the
    admissible list only ever contains ``healthy`` replicas, in replica-id
    order, and is never empty when ``select`` is called.
    """

    name = "base"

    def reset(self, n_replicas: int) -> None:  # pragma: no cover - trivial
        pass

    def select(self, request: "Request", admissible: list) -> "_Replica":
        raise NotImplementedError


class RoundRobinRouter(BaseRouter):
    """Cycle through replica ids, skipping unhealthy ones."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0
        self._n = 1

    def reset(self, n_replicas: int) -> None:
        self._cursor = 0
        self._n = n_replicas

    def select(self, request: "Request", admissible: list) -> "_Replica":
        rep = min(admissible, key=lambda r: (r.idx - self._cursor) % self._n)
        self._cursor = (rep.idx + 1) % self._n
        return rep


class LeastKVRouter(BaseRouter):
    """Send to the replica with the least KV load.

    Load counts pages already allocated plus a full reservation estimate
    for every request queued at the replica but not yet admitted — the
    allocator alone lags admissions by up to one round, which would make
    the router pile everything onto one replica.
    """

    name = "least-kv"

    def select(self, request: "Request", admissible: list) -> "_Replica":
        def load(rep: "_Replica") -> int:
            alloc = rep.engine._allocator
            queued = sum(
                alloc.pages_for(r.total_len) for r in rep.run.pending
            )
            return alloc.used_pages + queued

        return min(admissible, key=lambda rep: (load(rep), rep.idx))


class SessionAffinityRouter(BaseRouter):
    """Sticky conversation → replica mapping (prefix-locality routing).

    All turns of one conversation (``request_id // TURN_STRIDE``) land on
    the same replica while it stays admissible, so per-replica prefix
    caches keep their warm streams; when the pinned replica leaves the
    rotation the conversation is deterministically re-pinned.
    """

    name = "affinity"

    def __init__(self) -> None:
        self._sticky: dict[int, int] = {}

    def reset(self, n_replicas: int) -> None:
        self._sticky.clear()

    def select(self, request: "Request", admissible: list) -> "_Replica":
        key = request.request_id // TURN_STRIDE
        pinned = self._sticky.get(key)
        if pinned is not None:
            for rep in admissible:
                if rep.idx == pinned:
                    return rep
        rep = admissible[key % len(admissible)]
        self._sticky[key] = rep.idx
        return rep


ROUTERS: dict[str, type[BaseRouter]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastKVRouter.name: LeastKVRouter,
    SessionAffinityRouter.name: SessionAffinityRouter,
}


def make_router(name: str) -> BaseRouter:
    """Instantiate a registered routing policy by name."""
    try:
        return ROUTERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; choose from {sorted(ROUTERS)}"
        ) from None


# --------------------------------------------------------------------------- #
# Replica bookkeeping
# --------------------------------------------------------------------------- #
class _ReplicaInjector(FaultInjector):
    """Per-replica engine injector that folds in cluster slow windows.

    The engine multiplies ``straggler_factor`` into its iteration time
    only when it differs from 1.0, so outside slow windows (and with an
    empty engine plan) this is exactly the stock injector.
    """

    def __init__(self, plan: FaultPlan, replica: "_Replica") -> None:
        super().__init__(plan)
        self._replica = replica

    def straggler_factor(self, iteration: int) -> float:
        return (
            super().straggler_factor(iteration) * self._replica.slow_factor
        )


class _Replica:
    """One engine + its health/runtime bookkeeping inside a cluster run."""

    def __init__(self, idx: int, engine: "ServingEngine") -> None:
        self.idx = idx
        self.engine = engine
        self.run: "EngineRun | None" = None
        self.runs: list = []  # every EngineRun ever started (live one last)
        self.state = "healthy"
        self.missed = 0  # consecutive missed heartbeats
        self.draining = False
        self.permanently_down = False
        self.slow_factor = 1.0  # cluster slow-window multiplier (injector)
        # telemetry / result accounting
        self.routed = 0
        self.lost = 0  # in-flight requests lost to fencing
        self.transitions = 0


# --------------------------------------------------------------------------- #
# The cluster run (EngineRun-compatible stepping protocol)
# --------------------------------------------------------------------------- #
class ClusterRun:
    """Mutable state of one cluster serving run, advanced per ``step()``.

    Speaks the ``EngineRun`` duck-type protocol (``pending`` / ``clock`` /
    ``active`` / ``step`` / ``advance_clock`` / ``_end`` / ``ledger``), so
    both ``ClusterEngine.run`` and the open-loop front-end can drive it
    interchangeably with a single engine.  Its :class:`RunLedger` is shared
    with every replica run it starts: a replica records the admissions,
    first tokens and terminals it sees, the cluster records its own
    ``failed`` and cluster-wide ``shed`` terminals.
    """

    def __init__(
        self,
        cluster: "ClusterEngine",
        requests: "list[Request]",
        plan: "FaultPlan | None",
    ) -> None:
        self.cluster = cluster
        self.telemetry = cluster.telemetry
        self.plan = plan
        n = len(cluster.engines)
        self.schedule = (
            ReplicaFaultSchedule(plan, n)
            if plan is not None and plan.replica_faults
            else None
        )
        self._engine_plan = (
            plan.engine_faults() if plan is not None else None
        )
        self.router = (
            make_router(cluster.router)
            if isinstance(cluster.router, str)
            else cluster.router
        )
        self.router.reset(n)
        self.pending: deque = deque(requests)
        self.clock = 0.0
        self.round = 0
        self.ledger = RunLedger()
        #: rid -> the replica that holds the request, or that ended it.
        self.assignment: dict[int, int] = {}
        self.retries: dict[int, int] = {}  # rid -> in-flight losses so far
        self.replicas = [
            _Replica(i, eng) for i, eng in enumerate(cluster.engines)
        ]
        for rep in self.replicas:
            self._start_replica_run(rep, initial=True)
        # -- counters ------------------------------------------------------ #
        self.reroutes = 0
        self.cluster_sheds = 0
        self.fence_preempts = 0
        self.peak_concurrent = 0
        self.replica_fault_counts: Counter = Counter()

    # -- protocol ------------------------------------------------------- #
    @property
    def active(self) -> bool:
        """True while any request is queued cluster-wide or in a replica."""
        return bool(self.pending) or any(
            rep.run is not None and rep.run.active for rep in self.replicas
        )

    advance_clock = EngineRun.advance_clock

    def _end(
        self, request_id: int, state: str, *, pages_required: int = 0
    ) -> None:
        """End a queued request at cluster level (``failed``, or a ``shed``
        by dispatch, total outage or the front-end's admission control)."""
        self.ledger.terminate(request_id, state, self.clock)
        if state == "shed":
            self.telemetry.emit(
                RequestShed,
                request_id=request_id,
                pages_required=pages_required,
                pages_total=self._max_headroom(),
            )

    # -- internals ------------------------------------------------------- #
    def _max_headroom(self) -> int:
        """Largest admissible reservation on any not-permanently-dead
        replica (mirrors the engine's own shed headroom)."""
        best = 0
        for rep in self.replicas:
            if rep.permanently_down:
                continue
            best = max(best, rep.engine.max_reserve_pages())
        return best

    def _start_replica_run(self, rep: _Replica, *, initial: bool) -> None:
        """Give a replica a fresh (empty) EngineRun.

        The initial run replays the plan's full single-engine fault
        timeline; revived runs replay only cluster slow windows — the
        engine-level faults already fired once on that replica, and
        replaying them on every revival would double-apply pool shrinks.
        """
        plan = self._engine_plan if initial else _EMPTY_PLAN
        has_slow = self.schedule is not None and bool(
            self.schedule.slow_windows.get(rep.idx)
        )
        if (plan is None or plan.empty) and not has_slow:
            injector = None
        else:
            injector = _ReplicaInjector(
                plan if plan is not None else _EMPTY_PLAN, rep
            )
        run = rep.engine.start_run([], faults=injector)
        run.ledger = self.ledger
        if self.clock > run.clock:
            run.advance_clock(self.clock)
        rep.run = run
        rep.runs.append(run)

    def _transition(self, rep: _Replica, new: str, reason: str) -> None:
        old = rep.state
        if old == new:
            return
        rep.state = new
        rep.transitions += 1
        self.telemetry.emit(
            ReplicaStateChange, replica=rep.idx, old=old, new=new, reason=reason
        )

    def _requeue(self, req: "Request", rep: _Replica, *, burn: bool) -> None:
        """Return a lost request to the front of the cluster queue, or fail
        it terminally if its in-flight retry budget is exhausted."""
        rid = req.request_id
        self.assignment.pop(rid, None)
        n = self.retries.get(rid, 0) + (1 if burn else 0)
        self.retries[rid] = n
        if burn and n > self.cluster.retry_budget:
            self.telemetry.emit(RequestFailed, request_id=rid, retries=n)
            self._end(rid, "failed")
            return
        self.pending.appendleft(req)
        self.reroutes += 1
        self.telemetry.emit(
            RequestRerouted, request_id=rid, from_replica=rep.idx, retries=n
        )

    def _fence(self, rep: _Replica, reason: str) -> None:
        """Declare a replica down: release every KV page it holds, requeue
        its requests (in-flight first, oldest-admitted first), retire the
        run.  The replica's allocator conserves pages through fencing —
        that is the per-replica half of the cluster conservation oracle."""
        run = rep.run
        lost_running: list = []
        lost_queued: list = []
        if run is not None:
            for act in run.running:
                run.release(act.request.request_id, "preempted")
                lost_running.append(act.request)
                self.fence_preempts += 1
            lost_queued = list(run.pending)
            run.running.clear()
            run.pending.clear()
            rep.run = None
        # Front of the cluster queue, final order: in-flight (oldest
        # admitted first), then queued, then whatever was already pending.
        for req in reversed(lost_queued):
            self._requeue(req, rep, burn=False)
        for req in reversed(lost_running):
            self._requeue(req, rep, burn=True)
        rep.lost += len(lost_running)
        if self.schedule is not None and not self.schedule.ever_available_after(
            rep.idx, self.round
        ):
            rep.permanently_down = True
        if rep.draining:
            rep.permanently_down = True
        self._transition(rep, "down", reason)

    def _revive(self, rep: _Replica) -> None:
        """A fenced (but not crashed/drained) replica answered heartbeats
        again: give it a fresh run at the cluster clock."""
        self._start_replica_run(rep, initial=False)
        self._transition(rep, "healthy", "heartbeats resumed")

    def drain(self, replica: int) -> None:
        """Operator-initiated graceful drain: stop admissions to the
        replica, let its in-flight work finish, then retire it."""
        rep = self.replicas[replica]
        if rep.state == "down" or rep.draining:
            return
        rep.draining = True
        self._transition(rep, "draining", "drain requested")

    def _available(self, rep: _Replica, round_: int) -> bool:
        if rep.permanently_down:
            return False
        if self.schedule is None:
            return True
        return self.schedule.available(rep.idx, round_)

    # -- the per-round state machine ------------------------------------- #
    def _apply_scheduled_faults(self, rnd: int) -> None:
        sched = self.schedule
        if sched is None:
            return
        tel = self.telemetry
        for rep in self.replicas:
            factor = sched.slow_factor(rep.idx, rnd)
            if sched.slow_starts(rep.idx, rnd):
                self.replica_fault_counts["replica_slow"] += 1
                tel.emit(FaultInjected, kind="replica_slow", value=factor)
            rep.slow_factor = factor
            if sched.crashes(rep.idx, rnd):
                self.replica_fault_counts["replica_crash"] += 1
                tel.emit(
                    FaultInjected, kind="replica_crash", value=float(rep.idx)
                )
            if sched.flap_starts(rep.idx, rnd):
                self.replica_fault_counts["replica_flap"] += 1
                tel.emit(
                    FaultInjected, kind="replica_flap", value=float(rep.idx)
                )
            if sched.drains(rep.idx, rnd) and not rep.permanently_down:
                if not rep.draining and rep.state != "down":
                    self.replica_fault_counts["replica_drain"] += 1
                    rep.draining = True
                    self._transition(rep, "draining", "drain scheduled")

    def _heartbeat(self, rnd: int) -> None:
        cluster = self.cluster
        for rep in self.replicas:
            avail = self._available(rep, rnd)
            resumed = avail and rep.missed > 0
            rep.missed = 0 if avail else rep.missed + 1
            if resumed and rep.run is not None:
                # Unavailability is wall time: the replica lost the gap.
                if self.clock > rep.run.clock:
                    rep.run.advance_clock(self.clock)
            if rep.state == "down":
                if avail and not rep.permanently_down and rep.run is None:
                    self._revive(rep)
                continue
            if rep.missed >= cluster.down_after:
                self._fence(rep, f"missed {rep.missed} heartbeats")
                continue
            if rep.draining:
                if rep.state != "draining":
                    self._transition(rep, "draining", "drain requested")
                if rep.run is None or not rep.run.active:
                    # Drained dry: permanently out of the rotation.
                    rep.run = None
                    rep.permanently_down = True
                    self._transition(rep, "down", "drained")
                continue
            if rep.missed >= cluster.suspect_after:
                self._transition(
                    rep, "suspect", f"missed {rep.missed} heartbeats"
                )
            elif rep.state != "healthy":
                self._transition(rep, "healthy", "heartbeats resumed")

    def _fits_somewhere(self, req: "Request") -> bool:
        """Can the request's reservation ever fit a replica that could
        ever serve again?  (Engine headroom rule, maxed over replicas.)"""
        for rep in self.replicas:
            if rep.permanently_down:
                continue
            if self.schedule is not None and not (
                self._available(rep, self.round)
                or self.schedule.ever_available_after(rep.idx, self.round)
            ):
                continue
            engine = rep.engine
            need = engine._allocator.pages_for(engine.reserve_tokens(req))
            if need <= engine.max_reserve_pages():
                return True
        return False

    def _dispatch(self) -> None:
        admissible = [
            rep
            for rep in self.replicas
            if rep.state == "healthy" and rep.run is not None
        ]
        while self.pending:
            req = self.pending[0]
            if not self._fits_somewhere(req):
                # Cluster-wide shed: no surviving replica can ever admit it.
                self.pending.popleft()
                self.cluster_sheds += 1
                alloc0 = self.replicas[0].engine._allocator
                self._end(
                    req.request_id,
                    "shed",
                    pages_required=alloc0.pages_for(req.total_len),
                )
                continue
            if not admissible:
                return
            rep = self.router.select(req, admissible)
            self.pending.popleft()
            run = rep.run
            if not run.active and self.clock > run.clock:
                run.advance_clock(self.clock)
            run.pending.append(req)
            self.assignment[req.request_id] = rep.idx
            rep.routed += 1
            self.telemetry.emit(
                RequestRouted, request_id=req.request_id, replica=rep.idx
            )

    def _outage_guard(self) -> None:
        """Nothing is steppable.  If no replica can ever serve again, shed
        the queue (after fencing stranded runs) instead of spinning."""
        doomed = all(
            rep.permanently_down
            or (
                self.schedule is not None
                and not self._available(rep, self.round)
                and not self.schedule.ever_available_after(
                    rep.idx, self.round
                )
            )
            for rep in self.replicas
        )
        if not doomed:
            return
        for rep in self.replicas:
            if rep.run is not None:
                self._fence(rep, "total outage")
        while self.pending:
            req = self.pending.popleft()
            self.cluster_sheds += 1
            self._end(req.request_id, "shed")

    def step(self) -> None:
        """Run one cluster round: faults → heartbeats → dispatch → step the
        lowest-clock available replica (or idle-advance on a dead round)."""
        tel = self.telemetry
        rnd = self.round
        tel.begin_iteration(rnd, self.clock)
        self._apply_scheduled_faults(rnd)
        self._heartbeat(rnd)
        self._dispatch()
        steppable = [
            rep
            for rep in self.replicas
            if rep.run is not None
            and rep.run.active
            and self._available(rep, rnd)
        ]
        if steppable:
            rep = min(steppable, key=lambda r: (r.run.clock, r.idx))
            if rep.run.clock > self.clock:
                self.clock = rep.run.clock
            rep.run.step()
            concurrent = sum(
                len(r.run.running)
                for r in self.replicas
                if r.run is not None
            )
            if concurrent > self.peak_concurrent:
                self.peak_concurrent = concurrent
        else:
            self.clock += self.cluster.health_interval_s
            if self.active:
                self._outage_guard()
        if tel.enabled:
            tel.set_clock(self.clock)
            tel.emit(
                ClusterSample,
                pending=len(self.pending),
                states=tuple(rep.state for rep in self.replicas),
                running=tuple(
                    len(rep.run.running) if rep.run is not None else 0
                    for rep in self.replicas
                ),
                used_pages=tuple(
                    rep.engine._allocator.used_pages for rep in self.replicas
                ),
            )
        self.round += 1

    # -- aggregation ------------------------------------------------------ #
    def result(self) -> ServingResult:
        """Cluster-aggregate :class:`ServingResult`.

        :func:`~repro.serving.engine.aggregate_runs` over every replica run
        (replica order, then run order), plus the cluster's own terms and
        the ``cluster`` payload with the per-replica breakdown.  For an
        N=1 cluster every field except ``cluster`` matches the bare
        engine's result exactly.
        """
        # (replica idx, state) per terminal; None marks the cluster's own.
        ended = Counter(
            (self.assignment.get(rid), state)
            for rid, state in self.ledger.terminal.items()
        )
        replica_payload = [
            {
                "replica": rep.idx,
                "state": rep.state,
                "routed": rep.routed,
                "lost_in_flight": rep.lost,
                "runs": len(rep.runs),
                "transitions": rep.transitions,
                "iterations": sum(r.iteration for r in rep.runs),
                "preemptions": sum(r.preemptions for r in rep.runs),
                "terminals": dict(
                    sorted(
                        (s, n) for (i, s), n in ended.items() if i == rep.idx
                    )
                ),
                "used_pages_end": rep.engine._allocator.used_pages,
                "mean_occupancy": (
                    float(
                        np.mean(
                            [o for r in rep.runs for o in r.occupancy]
                        )
                    )
                    if any(r.occupancy for r in rep.runs)
                    else 0.0
                ),
            }
            for rep in self.replicas
        ]
        return aggregate_runs(
            self.cluster.engines,
            [run for rep in self.replicas for run in rep.runs],
            self.ledger,
            clock=self.clock,
            peak=self.peak_concurrent,
            preemptions=self.fence_preempts,
            faults=sum(self.replica_fault_counts.values()),
            rerouted=self.reroutes,
            cluster={
                "n_replicas": len(self.replicas),
                "router": self.router.name,
                "rounds": self.round,
                "reroutes": self.reroutes,
                "failed": ended[None, "failed"],
                "cluster_shed": self.cluster_sheds,
                # Front-end admission control ends queued requests through
                # _end too: the other unassigned sheds in the ledger.
                "frontend_shed": ended[None, "shed"] - self.cluster_sheds,
                "fence_preempts": self.fence_preempts,
                "state_transitions": sum(
                    rep.transitions for rep in self.replicas
                ),
                "replica_faults": dict(
                    sorted(self.replica_fault_counts.items())
                ),
                "replicas": replica_payload,
            },
        )


# --------------------------------------------------------------------------- #
# The cluster engine
# --------------------------------------------------------------------------- #
class ClusterEngine:
    """N independent :class:`ServingEngine` replicas behind a router.

    Each engine keeps its own allocator / backend / telemetry; the cluster
    only ever talks to replicas through the public ``start_run`` stepping
    seam, so every single-engine invariant (page conservation, exactly-once
    terminals, bit-identical tokens) holds per replica by construction —
    the cluster adds the cross-replica half.

    Replicas should normally use ``shed_policy="drop"``: a request that can
    never fit one replica's pool must degrade to a typed terminal, not tear
    the whole cluster down mid-run.

    ``telemetry`` here is the *cluster* sink (replica state transitions,
    routing, re-routes, per-round aggregates); per-replica engine events go
    to each engine's own sink, which keeps a no-fault N=1 cluster's
    replica trace byte-identical to a bare engine run.
    """

    def __init__(
        self,
        engines: "Iterable[ServingEngine]",
        *,
        router: "str | BaseRouter" = "round-robin",
        telemetry: "Telemetry | None" = None,
        suspect_after: int = 1,
        down_after: int = 3,
        retry_budget: int = 2,
        health_interval_s: float = 5e-3,
    ) -> None:
        self.engines = list(engines)
        if not self.engines:
            raise ValueError("a cluster needs at least one replica engine")
        if isinstance(router, str) and router not in ROUTERS:
            raise ValueError(
                f"unknown router {router!r}; choose from {sorted(ROUTERS)}"
            )
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if down_after < suspect_after:
            raise ValueError("down_after must be >= suspect_after")
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if health_interval_s <= 0:
            raise ValueError("health_interval_s must be positive")
        scheme0 = self.engines[0].scheme.name
        if any(e.scheme.name != scheme0 for e in self.engines[1:]):
            raise ValueError(
                "cluster replicas must share the same scheme — the "
                "aggregate ServingResult assumes a homogeneous fleet"
            )
        self.router = router
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.suspect_after = suspect_after
        self.down_after = down_after
        self.retry_budget = retry_budget
        self.health_interval_s = health_interval_s

    # -- run API ----------------------------------------------------------- #
    def start_run(
        self,
        requests: "list[Request]",
        *,
        faults: "FaultPlan | FaultInjector | None" = None,
    ) -> ClusterRun:
        """Begin an incremental cluster run (the open-loop entry point)."""
        if isinstance(faults, FaultInjector):
            plan = faults.plan
        else:
            plan = faults
        return ClusterRun(self, requests, plan)

    def run(
        self,
        requests: "list[Request]",
        *,
        faults: "FaultPlan | FaultInjector | None" = None,
    ) -> ServingResult:
        """Serve ``requests`` across the cluster to completion."""
        state = self.start_run(requests, faults=faults)
        while state.active:
            state.step()
        return state.result()

    # -- oracles ----------------------------------------------------------- #
    def generated_tokens(self, request_id: int):
        """Delivered tokens for a finished request, wherever it finished.

        Exactly one replica kept the tokens (the one that drove the request
        to ``finished``; fenced replicas released with ``keep_tokens=False``)
        — so the first non-``None`` answer is *the* answer.
        """
        for engine in self.engines:
            tokens = engine.backend.generated_tokens(request_id)
            if tokens is not None:
                return tokens
        return None
