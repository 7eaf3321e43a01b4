"""Open-loop multi-tenant serving front-end over :class:`ServingEngine`.

The closed-loop engine receives its whole workload up front and drains it.
Real serving is *open-loop*: requests arrive over time (Poisson processes,
trace replays), multi-round conversations only submit their next turn after
the previous one completes, and the interesting metric is goodput under
latency SLOs (TTFT / TBT), not raw drain throughput.

:class:`OpenLoopFrontend` is a virtual-clock event loop around the engine's
incremental :class:`~repro.serving.engine.EngineRun` API:

1. pop arrivals whose time has come into the waiting set;
2. merge back whatever the engine still has queued (including preemption
   victims), so the scheduler can re-prioritise them;
3. ask the scheduler (:mod:`repro.serving.schedulers`) to order the waiting
   set, optionally shed the overflow beyond ``max_queue`` (admission
   control under overload, reusing the engine's shed machinery), and hand
   the ordered queue to the engine;
4. if the engine is idle and arrivals remain, jump the virtual clock to the
   next arrival; otherwise run exactly one engine iteration;
5. process the engine's admission/terminal deltas — crediting schedulers,
   scheduling follow-up turns of finished interaction turns, aborting
   interactions whose turn failed.

Everything is deterministic: seeded arrival processes, a virtual clock, and
no wall-clock reads.  With every arrival at t=0 and the FCFS scheduler, the
loop reproduces the closed-loop engine *byte-for-byte* (pinned by the
golden-trace tests), because FCFS ordering is the identity on the engine's
own queue discipline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.sharegpt import Request, ShareGPTWorkload
from repro.serving.engine import EngineRun, ServingEngine, ServingResult
from repro.serving.faults import FaultInjector, FaultPlan
from repro.serving.schedulers import BaseScheduler, Submission, make_scheduler
from repro.serving.telemetry import (
    RequestSLORecord,
    SLOSummary,
    slo_summary,
)

__all__ = [
    "Interaction",
    "FrontendResult",
    "OpenLoopFrontend",
    "poisson_interactions",
    "sharegpt_interactions",
]

#: Seed-sequence tag separating think-time draws from length draws.
_THINK_TAG = 0x7417


@dataclass
class Interaction:
    """A multi-round conversation: turn *k+1* is only submitted after turn
    *k* finishes (plus an optional think-time gap).

    ``think_s`` is either one gap applied between every pair of turns or a
    sequence with one entry per gap.  ``deadline_s`` is a *relative*
    per-turn deadline (seconds from that turn's arrival); when the turn
    arrives, the front-end registers the absolute deadline in the run's
    :attr:`~repro.serving.engine.RunLedger.deadlines`, where it overrides
    the engine's ``deadline_s`` default.
    """

    interaction_id: int
    turns: "list[Request]"
    tenant: str = "default"
    arrival_s: float = 0.0
    think_s: "float | tuple[float, ...]" = 0.0
    deadline_s: "float | None" = None

    def __post_init__(self) -> None:
        if not self.turns:
            raise ValueError("an interaction needs at least one turn")
        if isinstance(self.think_s, (list, tuple)):
            self.think_s = tuple(float(t) for t in self.think_s)
            if len(self.think_s) < len(self.turns) - 1:
                raise ValueError(
                    "think_s sequence needs one entry per turn gap "
                    f"({len(self.turns) - 1}), got {len(self.think_s)}"
                )

    def think_after(self, turn: int) -> float:
        """Gap between turn ``turn`` finishing and turn ``turn+1`` arriving."""
        if isinstance(self.think_s, tuple):
            return self.think_s[turn]
        return float(self.think_s)


@dataclass
class FrontendResult:
    """Outcome of one open-loop run.

    ``serving`` is the engine's :class:`ServingResult` with frontend-level
    sheds folded into its terminal accounting and ``serving.slo`` set, so
    the conservation law ``submitted == finished + timed_out + cancelled +
    shed`` holds over everything that was actually submitted (turns of
    aborted interactions that never arrived are not submissions).
    """

    serving: ServingResult
    slo: SLOSummary
    records: "list[RequestSLORecord]"
    submissions: "list[Submission]"
    scheduler: str
    submitted: int
    frontend_shed: int
    interactions: int
    interactions_completed: int
    interactions_aborted: int
    #: Number of idle clock jumps (engine empty, waiting for an arrival)
    #: and the total simulated time they skipped — work-conservation
    #: audits check that the engine was never idled while work was queued.
    idle_advances: int = 0
    idle_time_s: float = 0.0
    #: request_id -> first admission time (queueing-delay analysis).
    admitted_at: "dict[int, float]" = field(default_factory=dict)
    #: Arrivals shed by per-tenant token-bucket rate limiting (a subset of
    #: the ``shed`` terminal count; disjoint from ``frontend_shed``).
    rate_limited: int = 0


class OpenLoopFrontend:
    """Event-driven open-loop driver for one engine + scheduler pair."""

    def __init__(
        self,
        engine: ServingEngine,
        scheduler: "str | BaseScheduler" = "fcfs",
        *,
        slo_ttft_s: "float | None" = None,
        slo_tbt_s: "float | None" = None,
        max_queue: "int | None" = None,
        enforce_deadlines: bool = True,
        rate_limit: "float | None" = None,
        rate_limit_burst: "float | None" = None,
    ) -> None:
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None)")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError("rate_limit must be positive (or None)")
        if rate_limit_burst is not None:
            if rate_limit is None:
                raise ValueError("rate_limit_burst requires rate_limit")
            if rate_limit_burst < 1:
                raise ValueError("rate_limit_burst must be >= 1")
        if isinstance(scheduler, str):
            make_scheduler(scheduler)  # reject an unknown name up front
        self.engine = engine
        #: A registry name (each run gets a fresh instance) or an instance
        #: used as given.
        self.scheduler = scheduler
        self.slo_ttft_s = slo_ttft_s
        self.slo_tbt_s = slo_tbt_s
        self.max_queue = max_queue
        self.enforce_deadlines = enforce_deadlines
        #: Per-tenant token bucket: ``rate_limit`` requests/s sustained,
        #: bursting to ``rate_limit_burst`` (default ``max(1, rate_limit)``)
        #: — an over-budget arrival is shed on arrival through the engine's
        #: shed path, before it ever reaches the scheduler queue.
        self.rate_limit = rate_limit
        self.rate_limit_burst = (
            rate_limit_burst
            if rate_limit_burst is not None
            else (max(1.0, rate_limit) if rate_limit is not None else None)
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        interactions: "list[Interaction | Request]",
        *,
        faults: "FaultPlan | FaultInjector | None" = None,
    ) -> FrontendResult:
        """Serve ``interactions`` open-loop until every submission drains.

        Bare :class:`Request` items are wrapped as single-turn interactions
        arriving at t=0 (their request id doubles as interaction id).
        """
        interactions = [
            i
            if isinstance(i, Interaction)
            else Interaction(i.request_id, [i])
            for i in interactions
        ]
        by_iid: "dict[int, Interaction]" = {}
        for inter in interactions:
            if inter.interaction_id in by_iid:
                raise ValueError(
                    f"duplicate interaction id {inter.interaction_id}"
                )
            by_iid[inter.interaction_id] = inter

        scheduler = (
            make_scheduler(self.scheduler)
            if isinstance(self.scheduler, str)
            else self.scheduler
        )

        arrivals: "list[tuple[float, int, Submission]]" = []
        subs: "dict[int, Submission]" = {}
        seq = 0

        def submit(inter: Interaction, turn: int, arrival_s: float) -> None:
            nonlocal seq
            request = inter.turns[turn]
            if request.request_id in subs:
                raise ValueError(
                    f"duplicate request id {request.request_id} across "
                    "interactions"
                )
            deadline = (
                arrival_s + inter.deadline_s
                if inter.deadline_s is not None
                else None
            )
            sub = Submission(
                request=request,
                arrival_s=arrival_s,
                tenant=inter.tenant,
                deadline_s=deadline,
                interaction_id=inter.interaction_id,
                turn=turn,
                seq=seq,
            )
            seq += 1
            subs[request.request_id] = sub
            heapq.heappush(arrivals, (arrival_s, sub.seq, sub))

        for inter in interactions:
            submit(inter, 0, inter.arrival_s)

        state: EngineRun = self.engine.start_run([], faults=faults)
        aborted: "set[int]" = set()
        completed_inters: "set[int]" = set()
        admitted_at: "dict[int, float]" = {}
        frontend_shed = 0
        rate_limited = 0
        #: tenant -> (tokens, last_refill_s) for token-bucket rate limiting.
        buckets: "dict[str, tuple[float, float]]" = {}
        idle_advances = 0
        idle_time = 0.0
        ledger = state.ledger
        admits_seen = ends_seen = 0

        def process_deltas() -> None:
            """Credit schedulers and drive interactions from the ledger's
            new admission/terminal entries (called after every point that
            can produce them: ``step()`` and frontend sheds)."""
            nonlocal admits_seen, ends_seen
            for rid, t in ledger.admission_log[admits_seen:]:
                admitted_at.setdefault(rid, t)
                scheduler.on_admit(subs[rid])
            admits_seen = len(ledger.admission_log)
            for rid, terminal_state in ledger.terminal_log[ends_seen:]:
                sub = subs[rid]
                scheduler.on_terminal(sub, terminal_state)
                iid = sub.interaction_id
                if iid is None:
                    continue
                inter = by_iid[iid]
                if terminal_state != "finished":
                    aborted.add(iid)
                elif sub.turn + 1 < len(inter.turns):
                    submit(
                        inter,
                        sub.turn + 1,
                        ledger.finish_s[rid] + inter.think_after(sub.turn),
                    )
                else:
                    completed_inters.add(iid)
            ends_seen = len(ledger.terminal_log)

        while True:
            # -- 1. arrivals whose time has come ------------------------- #
            waiting: "list[Submission]" = []
            shed_on_arrival = False
            while arrivals and arrivals[0][0] <= state.clock:
                _, _, sub = heapq.heappop(arrivals)
                scheduler.on_submit(sub)
                if self.rate_limit is not None:
                    # Token bucket per tenant, refilled in *arrival* time
                    # (arrivals pop in nondecreasing arrival_s order, so the
                    # refill below never goes backwards).
                    tokens, last = buckets.get(
                        sub.tenant, (self.rate_limit_burst, sub.arrival_s)
                    )
                    tokens = min(
                        self.rate_limit_burst,
                        tokens + (sub.arrival_s - last) * self.rate_limit,
                    )
                    if tokens < 1.0:
                        buckets[sub.tenant] = (tokens, sub.arrival_s)
                        state._end(sub.request_id, "shed")
                        rate_limited += 1
                        shed_on_arrival = True
                        continue
                    buckets[sub.tenant] = (tokens - 1.0, sub.arrival_s)
                waiting.append(sub)
                if self.enforce_deadlines and sub.deadline_s is not None:
                    ledger.deadlines[sub.request_id] = sub.deadline_s
            if shed_on_arrival:
                process_deltas()

            # -- 2. reclaim the engine's queue (incl. preemption victims) - #
            while state.pending:
                waiting.append(subs[state.pending.popleft().request_id])

            # -- 3. order, shed overflow, hand the queue back ------------- #
            if waiting:
                ordered = scheduler.order(waiting, state.clock)
                if sorted(s.request_id for s in ordered) != sorted(
                    s.request_id for s in waiting
                ):
                    raise RuntimeError(
                        f"scheduler {scheduler.name!r} did not return a "
                        "permutation of the waiting set"
                    )
                if (
                    self.max_queue is not None
                    and len(ordered) > self.max_queue
                ):
                    for sub in ordered[self.max_queue:]:
                        state._end(sub.request_id, "shed")
                        frontend_shed += 1
                    ordered = ordered[: self.max_queue]
                    process_deltas()
                state.pending.extend(s.request for s in ordered)

            # -- 4. idle jump or engine step ------------------------------ #
            if not state.active:
                if not arrivals:
                    break
                next_arrival = arrivals[0][0]
                idle_advances += 1
                idle_time += next_arrival - state.clock
                state.advance_clock(next_arrival)
                continue
            state.step()

            # -- 5. process the step's deltas ----------------------------- #
            process_deltas()

        # ------------------------------------------------------------------ #
        records = []
        for rid, sub in sorted(subs.items()):
            terminal_state = ledger.terminal.get(rid)
            if terminal_state is None:  # pragma: no cover - drain bug trap
                raise AssertionError(f"request {rid} never reached terminal")
            records.append(
                RequestSLORecord(
                    request_id=rid,
                    tenant=sub.tenant,
                    arrival_s=sub.arrival_s,
                    admitted_s=admitted_at.get(rid),
                    first_token_s=ledger.first_token_s.get(rid),
                    finish_s=(
                        ledger.finish_s[rid]
                        if terminal_state == "finished"
                        else None
                    ),
                    prefill_len=sub.request.prefill_len,
                    decode_len=sub.request.decode_len,
                    state=terminal_state,
                )
            )
        serving = state.result()
        slo = slo_summary(
            records,
            ttft_slo_s=self.slo_ttft_s,
            tbt_slo_s=self.slo_tbt_s,
            horizon_s=serving.total_time_s,
        )
        serving = replace(serving, slo=slo)
        return FrontendResult(
            serving=serving,
            slo=slo,
            records=records,
            submissions=[subs[rid] for rid in sorted(subs)],
            scheduler=scheduler.name,
            submitted=len(subs),
            frontend_shed=frontend_shed,
            interactions=len(interactions),
            interactions_completed=len(completed_inters),
            interactions_aborted=len(aborted),
            idle_advances=idle_advances,
            idle_time_s=idle_time,
            admitted_at=admitted_at,
            rate_limited=rate_limited,
        )


# --------------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------------- #
def poisson_interactions(
    requests: "list[Request]",
    *,
    rate: float,
    seed: int = 0,
    tenants: "tuple[str, ...]" = ("default",),
    deadline_s: "float | None" = None,
    start_s: float = 0.0,
) -> "list[Interaction]":
    """Wrap ``requests`` as single-turn interactions with Poisson arrivals.

    Inter-arrival gaps are exponential with mean ``1/rate`` (simulated
    seconds), drawn from ``default_rng(seed)``; tenants are assigned
    round-robin.  Deterministic for a given ``(requests, rate, seed)``.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0 requests per second")
    if not tenants:
        raise ValueError("tenants must be non-empty")
    rng = np.random.default_rng(seed)
    t = start_s
    out = []
    for i, request in enumerate(requests):
        t += float(rng.exponential(1.0 / rate))
        out.append(
            Interaction(
                interaction_id=request.request_id,
                turns=[request],
                tenant=tenants[i % len(tenants)],
                arrival_s=t,
                deadline_s=deadline_s,
            )
        )
    return out


def sharegpt_interactions(
    workload: ShareGPTWorkload,
    n_conversations: int,
    *,
    rate: float,
    seed: int = 0,
    tenants: "tuple[str, ...]" = ("default",),
    think_mean_s: float = 0.0,
    deadline_s: "float | None" = None,
) -> "list[Interaction]":
    """Multi-round ShareGPT conversations as open-loop interactions.

    Conversation *c* is ``workload.sample_conversation(c)`` — the
    id-addressed pure sampler, so interaction contents are independent of
    arrival order.  Conversation arrivals form a Poisson process at
    ``rate``; think times between turns are exponential with mean
    ``think_mean_s``, derived purely from ``(workload.seed, c, turn)``.
    """
    if n_conversations < 1:
        raise ValueError("n_conversations must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be > 0 conversations per second")
    if not tenants:
        raise ValueError("tenants must be non-empty")
    rng = np.random.default_rng(seed)
    t = 0.0
    out = []
    for cid in range(n_conversations):
        turns = workload.sample_conversation(cid)
        t += float(rng.exponential(1.0 / rate))
        think = tuple(
            float(
                np.random.default_rng(
                    [workload.seed, cid, k, _THINK_TAG]
                ).exponential(think_mean_s)
            )
            if think_mean_s > 0
            else 0.0
            for k in range(1, len(turns))
        )
        out.append(
            Interaction(
                interaction_id=cid,
                turns=turns,
                tenant=tenants[cid % len(tenants)],
                arrival_s=t,
                think_s=think,
                deadline_s=deadline_s,
            )
        )
    return out
