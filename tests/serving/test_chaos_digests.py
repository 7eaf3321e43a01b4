"""Byte-level pins of chaos-scenario traces.

The two committed golden traces cover 5 of the 18 event types and 2 of the
ways a request leaves the batch.  These pins cover the rest: for a handful
of chaos seeds (closed-loop, prefix-cached and clustered), the SHA-256 of
every telemetry sink's ``write_jsonl`` bytes plus its per-type event
counts.  The seeds are chosen so that, together, they emit every
deterministic event type and release every request in every way the engine
and the cluster can release one.

Runs are shared with ``test_chaos.py`` through ``chaos.cached_run``, so the
pins cost almost no extra time in a full run.  After an intended trace
change, rewrite the pins with::

    PYTHONPATH=src python tests/serving/test_chaos_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.serving.telemetry import _EVENT_TYPES, write_jsonl

from chaos import (  # tests/serving/chaos.py (pytest adds this dir to sys.path)
    run_cluster_scenario,
    run_events,
    run_prefix_scenario,
    run_scenario,
)

GOLDEN = Path(__file__).parent / "goldens" / "chaos_trace_digests.json"

#: Pinned seeds per scenario runner.  Engine seed 141 is the only one below
#: 400 that sheds a lone request mid-decode; the rest are CI chaos seeds.
DIGEST_SEEDS = {
    run_scenario: (0, 29, 141),
    run_prefix_scenario: (0, 8),
    run_cluster_scenario: (1, 3, 11),
}

#: Event types whose payload is not a pure function of the seed: measured
#: wall-clock decode samples and offline quantizer stages.
NONDETERMINISTIC = {"batched_decode", "stage"}

#: Every way a request leaves a batch (the release sites) or the queue.
RELEASE_REASONS = {
    "preempt:page_shrink",
    "preempt:grow",
    "preempt:fence",
    "cancel:in_flight",
    "cancel:queued",
    "timeout:in_flight",
    "timeout:queued",
    "shed:lone",
    "finished",
}


def _key(runner, seed: int) -> str:
    return f"{runner.__name__}/{seed}"


def fingerprint(events) -> dict:
    buf = io.StringIO()
    write_jsonl(events, buf)
    return {
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "events": dict(sorted(Counter(e.event for e in events).items())),
    }


def all_fingerprints() -> dict:
    return {
        _key(runner, seed): {
            name: fingerprint(events)
            for name, events in run_events(runner, seed).items()
        }
        for runner, seeds in DIGEST_SEEDS.items()
        for seed in seeds
    }


def release_reasons(events) -> set[str]:
    """Classify each release in one engine sink by its place in the trace.

    Page-pool deltas and prefix evictions are ignored when looking at the
    previous event: they accompany releases rather than cause them.  A
    preemption that follows a ``page_shrink`` fault (or another such
    preemption) came from the shrink sweep; one that follows the iteration
    sample of its own iteration was made outside ``step``, by a cluster
    fence; every other preemption is a dynamic-admission grow.  A shed
    directly preceded by the same request's page free is a lone request
    shed mid-decode; queued releases free no pages.
    """
    found: set[str] = set()
    prev = None  # last event other than pages / prefix_evict
    shrinking = False
    last = None  # last event of any kind
    for e in events:
        kind = e.event
        if kind == "preempted":
            if shrinking:
                found.add("preempt:page_shrink")
            elif (
                prev is not None
                and prev.event == "iteration"
                and prev.iteration == e.iteration
            ):
                found.add("preempt:fence")
            else:
                found.add("preempt:grow")
        elif kind == "cancelled":
            found.add("cancel:in_flight" if e.pages_freed else "cancel:queued")
        elif kind == "timed_out":
            found.add(
                "timeout:in_flight" if e.pages_freed else "timeout:queued"
            )
        elif kind == "shed":
            if (
                last is not None
                and last.event == "pages"
                and last.request_id == e.request_id
                and last.delta < 0
            ):
                found.add("shed:lone")
        elif kind == "finished":
            found.add("finished")
        if kind not in ("pages", "prefix_evict"):
            if kind == "fault":
                shrinking = e.kind == "page_shrink"
            elif kind != "preempted":
                shrinking = False
            prev = e
        last = e
    return found


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "runner,seed",
    [(r, s) for r, seeds in DIGEST_SEEDS.items() for s in seeds],
    ids=lambda v: v.__name__ if callable(v) else str(v),
)
def test_trace_digest_matches_golden(golden, runner, seed):
    got = {
        name: fingerprint(events)
        for name, events in run_events(runner, seed).items()
    }
    want = golden[_key(runner, seed)]
    assert set(got) == set(want)
    for name in want:
        assert got[name]["events"] == want[name]["events"], name
        assert got[name]["sha256"] == want[name]["sha256"], name


def test_golden_pins_exactly_the_digest_seeds(golden):
    assert set(golden) == {
        _key(r, s) for r, seeds in DIGEST_SEEDS.items() for s in seeds
    }


def test_pinned_seeds_cover_every_event_type_and_release(golden):
    types = set()
    reasons = set()
    for runner, seeds in DIGEST_SEEDS.items():
        for seed in seeds:
            for name, events in run_events(runner, seed).items():
                types |= set(golden[_key(runner, seed)][name]["events"])
                if name != "cluster":
                    reasons |= release_reasons(events)
    assert types == set(_EVENT_TYPES) - NONDETERMINISTIC
    assert reasons == RELEASE_REASONS


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_fingerprints(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
