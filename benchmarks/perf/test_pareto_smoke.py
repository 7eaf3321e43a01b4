"""Pareto-sweep smoke: harness mechanics + the committed BENCH_pareto.json.

Companion to ``test_perf_smoke.py`` for ``repro bench --pareto`` (the
accuracy-vs-throughput sweep over the scheme registry).  The regression
gate is structural — dominance facts and the FP16 accuracy anchor — so a
run checks cleanly against the committed baseline; only the per-scheme
numeric-throughput clause touches wall-clock, with generous slack.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import pytest

from repro.bench import payload as bench_io
from repro.bench.pareto import (
    PARETO_BENCH_SCHEMA,
    check_pareto_regression,
    format_pareto_rows,
    pareto_front,
    run_pareto_bench,
)

BASELINE = Path(__file__).parent / "BENCH_pareto.json"


@pytest.fixture(scope="module")
def payload() -> dict:
    return run_pareto_bench()


class TestPayloadSchema:
    def test_schema_and_rows(self, payload):
        assert payload["schema"] == PARETO_BENCH_SCHEMA
        names = [r["scheme"] for r in payload["schemes"]]
        assert {"FP16", "W4A16", "W8A8", "Atom-W4A4", "W4A8KV4",
                "MixedBit"} <= set(names)
        for r in payload["schemes"]:
            assert r["verified_bit_identical"] is True
            assert math.isfinite(r["ppl"]) and r["ppl"] > 1.0
            assert r["roofline_tokens_per_s"] > 0
            assert r["numeric_tokens_per_s"] > 0
            assert r["numeric_tokens_per_s_iqr"] >= 0

    def test_front_members_are_not_dominated(self, payload):
        rows = {r["scheme"]: r for r in payload["schemes"]}
        front = payload["pareto_front"]
        assert front == pareto_front(payload["schemes"])
        for name in front:
            a = rows[name]
            for b in rows.values():
                strictly_better = (
                    b["ppl"] < a["ppl"]
                    and b["roofline_tokens_per_s"]
                    > a["roofline_tokens_per_s"]
                )
                assert not strictly_better

    def test_format_rows_star_the_front(self, payload):
        rows = format_pareto_rows(payload)
        starred = {r[0].rstrip(" *") for r in rows if r[0].endswith("*")}
        assert starred == set(payload["pareto_front"])


class TestRegressionGate:
    def test_self_comparison_clean(self, payload):
        assert check_pareto_regression(payload, payload) == []

    def test_lost_dominance_detected(self, payload):
        broken = copy.deepcopy(payload)
        for r in broken["schemes"]:
            if r["scheme"] == "Atom-W4A4":
                r["roofline_tokens_per_s"] = 1.0
        problems = check_pareto_regression(broken, payload)
        assert any("dominate" in p for p in problems)

    def test_dropped_scheme_detected(self, payload):
        shrunk = copy.deepcopy(payload)
        shrunk["schemes"] = [
            r for r in shrunk["schemes"] if r["scheme"] != "MixedBit"
        ]
        problems = check_pareto_regression(shrunk, payload)
        assert any("dropped" in p for p in problems)

    def test_unverified_run_detected(self, payload):
        tainted = copy.deepcopy(payload)
        tainted["schemes"][0]["verified_bit_identical"] = False
        problems = check_pareto_regression(tainted, payload)
        assert any("oracle" in p for p in problems)

    def test_accuracy_anchor_detected(self, payload):
        suspect = copy.deepcopy(payload)
        for r in suspect["schemes"]:
            if r["scheme"] == "Atom-W4A4":
                r["ppl"] = 1.01  # "beats" FP16 — the axis is broken
        problems = check_pareto_regression(suspect, payload)
        assert any("anchor" in p for p in problems)

    def test_numeric_slowdown_detected(self, payload):
        slow = copy.deepcopy(payload)
        for r in slow["schemes"]:
            r["numeric_tokens_per_s"] /= 100.0
        problems = check_pareto_regression(slow, payload)
        assert any("regressed" in p for p in problems)

    def test_malformed_payload_reported(self, payload):
        problems = check_pareto_regression({"schemes": [{}]}, payload)
        assert problems and "malformed" in problems[0]


class TestCommittedBaseline:
    def test_baseline_verified(self):
        base = bench_io.read(BASELINE, PARETO_BENCH_SCHEMA)
        assert all(r["verified_bit_identical"] for r in base["schemes"])
        assert {"FP16", "W4A16", "W8A8", "Atom-W4A4", "W4A8KV4",
                "MixedBit"} <= {r["scheme"] for r in base["schemes"]}

    def test_baseline_encodes_the_paper_dominance(self):
        """Atom beats W8A8 on modeled throughput and W4A16 on memory —
        the design-space claim the committed artifact pins."""
        base = bench_io.read(BASELINE, PARETO_BENCH_SCHEMA)
        rows = {r["scheme"]: r for r in base["schemes"]}
        atom, w8a8, w4a16 = rows["Atom-W4A4"], rows["W8A8"], rows["W4A16"]
        assert atom["roofline_tokens_per_s"] > w8a8["roofline_tokens_per_s"]
        assert atom["weight_gb"] <= w4a16["weight_gb"] + 1e-9
        assert atom["kv_bytes_per_token"] < w4a16["kv_bytes_per_token"]
        assert "Atom-W4A4" in base["pareto_front"]

    def test_run_gates_cleanly_against_baseline(self, payload):
        """The exact CI invocation: the sweep vs the committed baseline
        (wide wall-clock slack — shared runners are noisy)."""
        base = bench_io.read(BASELINE, PARETO_BENCH_SCHEMA)
        assert check_pareto_regression(payload, base, max_slowdown=10.0) == []
