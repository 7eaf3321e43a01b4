"""Pluggable request schedulers for the open-loop serving front-end.

The closed-loop :class:`~repro.serving.engine.ServingEngine` is FCFS by
construction: it admits from the head of its pending deque.  The open-loop
front-end (:mod:`repro.serving.frontend`) keeps that admission mechanism
untouched and instead *reorders the queue between engine steps* — the
scheduler decides which waiting request sits at the head when the engine
next refills its batch.  This mirrors the FairServe/Orca split: the engine
owns memory and batching, the scheduler owns queueing policy.

Scheduler contract
------------------

- ``on_submit(sub)`` — a request arrived at the front-end.
- ``on_admit(sub)`` — the engine admitted it (fired once per admission,
  including re-admissions after preemption; called after the step in which
  the admission happened).
- ``on_terminal(sub, state)`` — the request reached a terminal state.
- ``order(waiting, clock)`` — return a permutation of ``waiting``; the
  front-end feeds the engine's queue in exactly this order.  Must be a
  *pure reordering* (same multiset in, same multiset out) and
  deterministic; ties are broken by the monotone submission sequence
  number ``Submission.seq`` so every policy is fully reproducible.

Policies
--------

``fcfs``   arrival order (reproduces the closed-loop engine exactly when
           every request arrives at t=0 — pinned by the golden tests).
``sjf``    shortest job first by total token footprint (prefill + decode).
``edf``    earliest absolute deadline first; requests without a deadline
           sort last (infinite deadline), then FCFS among themselves.
``fair``   per-tenant fair share: least attained service first, where a
           tenant's attained service is the token footprint of everything
           admitted on its behalf.  ``order`` interleaves tenants by
           simulating the service each admission would add, so one tenant's
           burst cannot monopolise the queue head.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.data.sharegpt import Request

__all__ = [
    "Submission",
    "BaseScheduler",
    "FCFSScheduler",
    "SJFScheduler",
    "EDFScheduler",
    "FairShareScheduler",
    "SCHEDULERS",
    "make_scheduler",
]


@dataclass
class Submission:
    """One request as the front-end sees it: payload + arrival metadata."""

    request: Request
    arrival_s: float
    tenant: str = "default"
    #: Absolute deadline in simulated seconds (``None`` = no deadline).
    deadline_s: "float | None" = None
    #: Interaction this turn belongs to (``None`` for standalone requests).
    interaction_id: "int | None" = None
    turn: int = 0
    #: Monotone submission counter assigned by the front-end (tie-break).
    seq: int = 0

    @property
    def request_id(self) -> int:
        return self.request.request_id


class BaseScheduler:
    """Queue-ordering policy; see the module docstring for the contract."""

    name = "base"

    def on_submit(self, sub: Submission) -> None:  # noqa: B027
        """A request arrived at the front-end."""

    def on_admit(self, sub: Submission) -> None:  # noqa: B027
        """The engine admitted ``sub`` (possibly a re-admission)."""

    def on_terminal(self, sub: Submission, state: str) -> None:  # noqa: B027
        """``sub`` reached terminal ``state``."""

    def order(
        self, waiting: "list[Submission]", clock: float
    ) -> "list[Submission]":
        raise NotImplementedError


class FCFSScheduler(BaseScheduler):
    """First come, first served: (arrival time, submission order)."""

    name = "fcfs"

    def order(self, waiting, clock):
        return sorted(waiting, key=lambda s: (s.arrival_s, s.seq))


class SJFScheduler(BaseScheduler):
    """Shortest job first by total token footprint, FCFS within a size."""

    name = "sjf"

    def order(self, waiting, clock):
        return sorted(
            waiting, key=lambda s: (s.request.total_len, s.arrival_s, s.seq)
        )


class EDFScheduler(BaseScheduler):
    """Earliest (absolute) deadline first; deadline-free requests last."""

    name = "edf"

    def order(self, waiting, clock):
        inf = float("inf")
        return sorted(
            waiting,
            key=lambda s: (
                inf if s.deadline_s is None else s.deadline_s,
                s.arrival_s,
                s.seq,
            ),
        )


@dataclass
class FairShareScheduler(BaseScheduler):
    """Least-attained-service tenant first (max-min fairness over tokens).

    Attained service is accumulated at admission time: admitting a request
    charges its tenant the request's full token footprint (the engine's
    ``reserve`` currency).  ``order`` then greedily picks, one request at a
    time, the queued request of the currently least-served tenant —
    charging a *virtual* copy of the ledger as it goes, so a tenant with
    ten queued requests is interleaved with the others rather than placed
    as a block.  Within a tenant, FCFS.
    """

    name: str = field(default="fair", init=False)
    _service: "dict[str, float]" = field(default_factory=dict)

    def attained_service(self, tenant: str) -> float:
        """Tokens admitted on behalf of ``tenant`` so far."""
        return self._service.get(tenant, 0.0)

    def on_admit(self, sub: Submission) -> None:
        self._service[sub.tenant] = (
            self._service.get(sub.tenant, 0.0) + float(sub.request.total_len)
        )

    def order(self, waiting, clock):
        queues: "dict[str, deque[Submission]]" = {}
        for sub in sorted(waiting, key=lambda s: (s.arrival_s, s.seq)):
            queues.setdefault(sub.tenant, deque()).append(sub)
        virtual = {t: self._service.get(t, 0.0) for t in queues}
        out: "list[Submission]" = []
        while queues:
            # Deterministic: ties on attained service break by tenant name.
            tenant = min(queues, key=lambda t: (virtual[t], t))
            sub = queues[tenant].popleft()
            out.append(sub)
            virtual[tenant] += float(sub.request.total_len)
            if not queues[tenant]:
                del queues[tenant]
        return out


#: Registry used by the CLI and the front-end's string shorthand.
SCHEDULERS = {
    "fcfs": FCFSScheduler,
    "sjf": SJFScheduler,
    "edf": EDFScheduler,
    "fair": FairShareScheduler,
}


def make_scheduler(name: str) -> BaseScheduler:
    """Instantiate a fresh scheduler by registry name.

    Schedulers are stateful (fair-share keeps a service ledger), so an
    :class:`~repro.serving.frontend.OpenLoopFrontend` given a name builds
    a fresh instance for every run.
    """
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return cls()
