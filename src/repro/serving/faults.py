"""Deterministic fault injection for the serving engine.

Atom's serving claim (§5, Fig. 9-10) is a *systems* claim: the W4A4
co-design only pays off if the engine around it survives the failure modes
real servers hit at heavy traffic — page-pool exhaustion, kernel
stragglers, client cancellations, flaky allocators.  This module provokes
exactly those modes, deterministically, so every degradation behaviour in
:class:`~repro.serving.engine.ServingEngine` has a seeded, replayable test.

Two halves:

- :class:`FaultPlan` — a frozen, declarative schedule of faults.  Three
  iteration-indexed event kinds (:class:`PagePoolFault`,
  :class:`CancelFault`, :class:`StragglerFault`) plus a per-attempt
  transient-allocator-failure probability driven by a fixed seed.  Plans
  are pure data: hashable, comparable, trivially serialisable.
- :class:`FaultInjector` — the stateful runtime the engine consults.  It is
  constructed fresh per run (``engine.run(reqs, faults=plan)`` does this
  automatically) so the same ``(workload, plan)`` pair always replays the
  same fault timeline bit-for-bit.

Fault kinds and what they model:

``PagePoolFault``
    Shrinks (negative ``delta_pages``) or restores (positive) the KV page
    pool at one iteration — a co-tenant stealing GPU memory, cache
    migration, or an OOM-killer clawback.  The engine reacts with
    recompute-on-resume eviction (the PagedAttention recovery story).
``CancelFault``
    Client abandons a request at one iteration, whether it is queued or
    in-flight.  The engine must release its pages and mark it terminal.
``StragglerFault``
    One iteration's kernels run ``factor`` times slower — a thermally
    throttled SM, a PCIe hiccup, a noisy neighbour.  Token accounting must
    be unaffected; only the clock stretches.
``alloc_failure_prob``
    Every allocator call (admission reserve or decode-growth append) fails
    transiently with this probability — fragmentation races, async-free
    lag.  The engine retries with exponential backoff, then falls back to
    victim preemption.

Replica-level faults (consumed by :class:`~repro.serving.cluster.ClusterEngine`
via :class:`ReplicaFaultSchedule`, ignored by a bare single engine):

``ReplicaCrashFault``
    A whole replica dies at one cluster round and never comes back — a host
    reboot, a wedged driver.  The cluster must fence it and re-route its
    in-flight work.
``ReplicaSlowFault``
    A replica's kernels run ``factor`` times slower for ``duration`` rounds
    — thermal throttling or a noisy co-tenant pinned to one box.
``ReplicaFlapFault``
    A replica alternates ``down_rounds`` unavailable / ``up_rounds``
    available for ``cycles`` cycles — a flaky NIC or GC pauses.  Short
    flaps should only stall; flaps past the down threshold must fence.
``ReplicaDrainFault``
    Operator-initiated graceful drain at one round: stop admissions, let
    in-flight requests finish, then leave the rotation permanently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "CancelFault",
    "FaultInjector",
    "FaultPlan",
    "PagePoolFault",
    "ReplicaCrashFault",
    "ReplicaDrainFault",
    "ReplicaFaultSchedule",
    "ReplicaFlapFault",
    "ReplicaSlowFault",
    "StragglerFault",
]


@dataclass(frozen=True)
class PagePoolFault:
    """Shrink (``delta_pages`` < 0) or restore (> 0) the KV page pool."""

    iteration: int
    delta_pages: int

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("fault iteration must be >= 0")
        if self.delta_pages == 0:
            raise ValueError("page-pool fault must change the pool")


@dataclass(frozen=True)
class CancelFault:
    """Cancel ``request_id`` at ``iteration`` (queued or in-flight)."""

    iteration: int
    request_id: int

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("fault iteration must be >= 0")


@dataclass(frozen=True)
class StragglerFault:
    """Stretch one iteration's kernel times by ``factor`` (>= 1)."""

    iteration: int
    factor: float

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("fault iteration must be >= 0")
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1")


@dataclass(frozen=True)
class ReplicaCrashFault:
    """Replica ``replica`` dies permanently at cluster round ``iteration``."""

    iteration: int
    replica: int

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("fault iteration must be >= 0")
        if self.replica < 0:
            raise ValueError("replica index must be >= 0")


@dataclass(frozen=True)
class ReplicaSlowFault:
    """Replica ``replica`` runs ``factor``x slower for ``duration`` rounds."""

    iteration: int
    replica: int
    factor: float
    duration: int = 1

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("fault iteration must be >= 0")
        if self.replica < 0:
            raise ValueError("replica index must be >= 0")
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if self.duration < 1:
            raise ValueError("slowdown duration must be >= 1")


@dataclass(frozen=True)
class ReplicaFlapFault:
    """Replica ``replica`` flaps: ``cycles`` x (down ``down_rounds``, up
    ``up_rounds``) starting at cluster round ``iteration``."""

    iteration: int
    replica: int
    down_rounds: int
    up_rounds: int = 1
    cycles: int = 1

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("fault iteration must be >= 0")
        if self.replica < 0:
            raise ValueError("replica index must be >= 0")
        if self.down_rounds < 1 or self.up_rounds < 1 or self.cycles < 1:
            raise ValueError("flap windows and cycles must be >= 1")


@dataclass(frozen=True)
class ReplicaDrainFault:
    """Gracefully drain replica ``replica`` starting at round ``iteration``."""

    iteration: int
    replica: int

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("fault iteration must be >= 0")
        if self.replica < 0:
            raise ValueError("replica index must be >= 0")


#: fault-kind name -> the dataclass that schedules it.  ``fault_kinds()``,
#: ``describe()`` and the serialisation round-trip all derive from this one
#: table so a new fault kind cannot be added without appearing everywhere.
_REPLICA_FAULT_TYPES: dict[str, type] = {
    "replica_crash": ReplicaCrashFault,
    "replica_slow": ReplicaSlowFault,
    "replica_flap": ReplicaFlapFault,
    "replica_drain": ReplicaDrainFault,
}


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seeded schedule of faults for one serving run."""

    page_faults: tuple[PagePoolFault, ...] = ()
    cancellations: tuple[CancelFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    #: Probability that any single allocator call fails transiently.
    alloc_failure_prob: float = 0.0
    #: Seed for the transient-failure coin flips (and nothing else — the
    #: scheduled events above are already fully deterministic).
    seed: int = 0
    #: Replica-level faults; only a cluster consumes these (a bare engine
    #: run receives the plan with this field stripped, see engine_faults()).
    replica_faults: tuple = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.alloc_failure_prob <= 1.0:
            raise ValueError("alloc_failure_prob must be in [0, 1]")
        object.__setattr__(self, "page_faults", tuple(self.page_faults))
        object.__setattr__(self, "cancellations", tuple(self.cancellations))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        replica = tuple(self.replica_faults)
        allowed = tuple(_REPLICA_FAULT_TYPES.values())
        for f in replica:
            if not isinstance(f, allowed):
                raise ValueError(f"not a replica fault: {f!r}")
        object.__setattr__(self, "replica_faults", replica)

    # ------------------------------------------------------------------ #
    @property
    def empty(self) -> bool:
        """True if this plan injects nothing at all."""
        return (
            not self.page_faults
            and not self.cancellations
            and not self.stragglers
            and not self.replica_faults
            and self.alloc_failure_prob == 0.0
        )

    def _kind_counts(self) -> dict[str, int]:
        """Scheduled-event count per fault kind (alloc_fail: 0 or 1)."""
        counts = {
            "page_shrink": len(self.page_faults),
            "cancel": len(self.cancellations),
            "straggler": len(self.stragglers),
            "alloc_fail": int(self.alloc_failure_prob > 0.0),
        }
        for kind, cls_ in _REPLICA_FAULT_TYPES.items():
            counts[kind] = sum(1 for f in self.replica_faults if isinstance(f, cls_))
        return counts

    def fault_kinds(self) -> set[str]:
        """Which fault kinds this plan can inject (for coverage checks)."""
        return {kind for kind, n in self._kind_counts().items() if n > 0}

    def describe(self) -> str:
        """Human-readable summary naming every fault kind symmetrically
        with :meth:`fault_kinds` (pinned by a round-trip test)."""
        parts = [f"seed={self.seed}"]
        for kind, n in self._kind_counts().items():
            if kind == "alloc_fail":
                parts.append(f"alloc_fail={self.alloc_failure_prob:.3f}")
            else:
                parts.append(f"{kind}={n}")
        return f"FaultPlan({', '.join(parts)})"

    def engine_faults(self) -> "FaultPlan":
        """This plan with replica-level faults stripped — the view each
        replica's own :class:`FaultInjector` consumes."""
        if not self.replica_faults:
            return self
        return replace(self, replica_faults=())

    # -- serialisation -------------------------------------------------- #
    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "alloc_failure_prob": self.alloc_failure_prob,
            "page_faults": [vars(f).copy() for f in self.page_faults],
            "cancellations": [vars(f).copy() for f in self.cancellations],
            "stragglers": [vars(f).copy() for f in self.stragglers],
            "replica_faults": [
                {"kind": kind, **vars(f)}
                for f in self.replica_faults
                for kind, cls_ in _REPLICA_FAULT_TYPES.items()
                if type(f) is cls_
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FaultPlan":
        replica = []
        for entry in d.get("replica_faults", ()):
            entry = dict(entry)
            kind = entry.pop("kind")
            if kind not in _REPLICA_FAULT_TYPES:
                raise ValueError(f"unknown replica fault kind: {kind!r}")
            replica.append(_REPLICA_FAULT_TYPES[kind](**entry))
        return cls(
            page_faults=tuple(
                PagePoolFault(**f) for f in d.get("page_faults", ())
            ),
            cancellations=tuple(
                CancelFault(**f) for f in d.get("cancellations", ())
            ),
            stragglers=tuple(
                StragglerFault(**f) for f in d.get("stragglers", ())
            ),
            alloc_failure_prob=float(d.get("alloc_failure_prob", 0.0)),
            seed=int(d.get("seed", 0)),
            replica_faults=tuple(replica),
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        request_ids: Iterable[int] = (),
        horizon: int = 400,
        max_page_faults: int = 3,
        max_shrink_pages: int = 512,
        max_cancellations: int = 4,
        max_stragglers: int = 4,
        max_straggler_factor: float = 10.0,
        max_alloc_failure_prob: float = 0.25,
        n_replicas: int = 0,
    ) -> "FaultPlan":
        """Generate a random-but-deterministic plan for chaos testing.

        The same ``seed`` (and keyword envelope) always yields the same
        plan.  Each fault kind is included with high probability so a
        modest seed sweep exercises every kind; cancellations are only
        drawn from ``request_ids``.  With ``n_replicas`` > 0 the plan also
        draws replica-level faults (crash / slow / flap / drain); those
        draws happen strictly after the single-engine draws so legacy
        seeds keep producing the exact same single-engine plans.
        """
        rng = np.random.default_rng(seed)
        page: list[PagePoolFault] = []
        if rng.random() < 0.8:
            for _ in range(int(rng.integers(1, max_page_faults + 1))):
                it = int(rng.integers(0, horizon))
                pages = int(rng.integers(1, max_shrink_pages + 1))
                page.append(PagePoolFault(it, -pages))
                if rng.random() < 0.6:  # often restore the stolen pages
                    back = it + int(rng.integers(1, max(2, horizon // 2)))
                    page.append(PagePoolFault(back, pages))
        cancels: list[CancelFault] = []
        ids = sorted(set(request_ids))
        if ids and rng.random() < 0.8:
            n = int(rng.integers(1, min(len(ids), max_cancellations) + 1))
            for rid in rng.choice(ids, size=n, replace=False):
                cancels.append(CancelFault(int(rng.integers(0, horizon)), int(rid)))
        stragglers: list[StragglerFault] = []
        if rng.random() < 0.8:
            for _ in range(int(rng.integers(1, max_stragglers + 1))):
                factor = 1.0 + (max_straggler_factor - 1.0) * float(rng.random())
                stragglers.append(StragglerFault(int(rng.integers(0, horizon)), factor))
        prob = (
            float(rng.random()) * max_alloc_failure_prob
            if rng.random() < 0.7
            else 0.0
        )
        replica: list = []
        if n_replicas > 0:
            # At most n_replicas - 1 crashes so the cluster usually survives
            # (a total outage is still reachable via crash + flap overlap).
            if n_replicas > 1 and rng.random() < 0.55:
                n_crash = int(rng.integers(1, n_replicas))
                for r in rng.choice(n_replicas, size=n_crash, replace=False):
                    replica.append(
                        ReplicaCrashFault(int(rng.integers(0, horizon)), int(r))
                    )
            if rng.random() < 0.6:
                for _ in range(int(rng.integers(1, 3))):
                    replica.append(
                        ReplicaFlapFault(
                            int(rng.integers(0, horizon)),
                            int(rng.integers(0, n_replicas)),
                            down_rounds=int(rng.integers(1, 26)),
                            up_rounds=int(rng.integers(1, 40)),
                            cycles=int(rng.integers(1, 4)),
                        )
                    )
            if rng.random() < 0.6:
                for _ in range(int(rng.integers(1, 3))):
                    replica.append(
                        ReplicaSlowFault(
                            int(rng.integers(0, horizon)),
                            int(rng.integers(0, n_replicas)),
                            factor=1.5 + 6.0 * float(rng.random()),
                            duration=int(rng.integers(1, 30)),
                        )
                    )
            if rng.random() < 0.35:
                replica.append(
                    ReplicaDrainFault(
                        int(rng.integers(0, horizon)),
                        int(rng.integers(0, n_replicas)),
                    )
                )
        return cls(
            page_faults=tuple(page),
            cancellations=tuple(cancels),
            stragglers=tuple(stragglers),
            alloc_failure_prob=prob,
            seed=int(rng.integers(0, 2**31)),
            replica_faults=tuple(replica),
        )


class FaultInjector:
    """Stateful runtime view of a :class:`FaultPlan` for one engine run.

    The engine queries it at fixed points in its iteration loop; the only
    internal state is the RNG for transient-failure coin flips, whose
    consumption order is fully determined by the engine's (deterministic)
    allocator-call sequence — so a run is replayable from ``(workload,
    plan)`` alone.  Build a **fresh** injector per run; reuse advances the
    RNG and breaks replay.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._page: dict[int, int] = {}
        for f in plan.page_faults:
            self._page[f.iteration] = self._page.get(f.iteration, 0) + f.delta_pages
        self._cancel: dict[int, list[int]] = {}
        for c in plan.cancellations:
            self._cancel.setdefault(c.iteration, []).append(c.request_id)
        self._straggle: dict[int, float] = {}
        for s in plan.stragglers:
            self._straggle[s.iteration] = self._straggle.get(s.iteration, 1.0) * s.factor
        #: Count of transient allocator failures injected so far.
        self.alloc_failures = 0

    # -- iteration-indexed events --------------------------------------- #
    def page_pool_delta(self, iteration: int) -> int:
        """Net page-pool change scheduled for this iteration (0 if none)."""
        return self._page.get(iteration, 0)

    def cancellations(self, iteration: int) -> tuple[int, ...]:
        """Request ids scheduled for cancellation at this iteration."""
        return tuple(self._cancel.get(iteration, ()))

    def straggler_factor(self, iteration: int) -> float:
        """Kernel-time multiplier for this iteration (1.0 = no straggler)."""
        return self._straggle.get(iteration, 1.0)

    # -- probabilistic events -------------------------------------------- #
    def alloc_attempt_fails(self) -> bool:
        """Coin flip: does this allocator call fail transiently?"""
        if self.plan.alloc_failure_prob <= 0.0:
            return False
        failed = bool(self._rng.random() < self.plan.alloc_failure_prob)
        if failed:
            self.alloc_failures += 1
        return failed


class ReplicaFaultSchedule:
    """Pure timeline view of a plan's replica-level faults.

    The cluster consults this once per cluster round; it is stateless
    (everything derives from the frozen plan), so the same ``(workload,
    plan)`` pair replays the same availability timeline bit-for-bit.
    Rounds are *cluster* rounds, not per-engine iterations.
    """

    def __init__(self, plan: FaultPlan, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.n_replicas = n_replicas
        self.crash_round: dict[int, int] = {}
        self.down_windows: dict[int, list[tuple[int, int]]] = {}
        self.slow_windows: dict[int, list[tuple[int, int, float]]] = {}
        self.drain_rounds: dict[int, set[int]] = {}
        for f in plan.replica_faults:
            if f.replica >= n_replicas:
                raise ValueError(
                    f"replica fault targets replica {f.replica} but the "
                    f"cluster has only {n_replicas} replicas"
                )
            if isinstance(f, ReplicaCrashFault):
                prev = self.crash_round.get(f.replica)
                self.crash_round[f.replica] = (
                    f.iteration if prev is None else min(prev, f.iteration)
                )
            elif isinstance(f, ReplicaFlapFault):
                windows = self.down_windows.setdefault(f.replica, [])
                period = f.down_rounds + f.up_rounds
                for c in range(f.cycles):
                    start = f.iteration + c * period
                    windows.append((start, start + f.down_rounds))
            elif isinstance(f, ReplicaSlowFault):
                self.slow_windows.setdefault(f.replica, []).append(
                    (f.iteration, f.iteration + f.duration, f.factor)
                )
            elif isinstance(f, ReplicaDrainFault):
                self.drain_rounds.setdefault(f.replica, set()).add(f.iteration)

    # ------------------------------------------------------------------ #
    def available(self, replica: int, round_: int) -> bool:
        """Is the replica reachable (heartbeats answered) at this round?"""
        crash = self.crash_round.get(replica)
        if crash is not None and round_ >= crash:
            return False
        return not any(
            start <= round_ < end
            for start, end in self.down_windows.get(replica, ())
        )

    def ever_available_after(self, replica: int, round_: int) -> bool:
        """Can the replica ever answer a heartbeat strictly after ``round_``?
        Crashes are permanent; flap windows always end."""
        crash = self.crash_round.get(replica)
        return crash is None or crash > round_ + 1

    def slow_factor(self, replica: int, round_: int) -> float:
        """Kernel-time multiplier in effect for this replica this round."""
        factor = 1.0
        for start, end, f in self.slow_windows.get(replica, ()):
            if start <= round_ < end:
                factor *= f
        return factor

    def drains(self, replica: int, round_: int) -> bool:
        """Is a graceful drain scheduled at exactly this round?"""
        return round_ in self.drain_rounds.get(replica, ())

    def crashes(self, replica: int, round_: int) -> bool:
        """Does the (first) crash land at exactly this round?"""
        return self.crash_round.get(replica) == round_

    def flap_starts(self, replica: int, round_: int) -> bool:
        """Does a flap down-window open at exactly this round?"""
        return any(
            start == round_
            for start, _ in self.down_windows.get(replica, ())
        )

    def slow_starts(self, replica: int, round_: int) -> bool:
        """Does a slowdown window open at exactly this round?"""
        return any(
            start == round_
            for start, _, _ in self.slow_windows.get(replica, ())
        )
