"""Serving-bench smoke: harness mechanics + the committed numeric baseline.

Companion to ``test_perf_smoke.py`` for ``repro bench --serving`` (the
batched-decode microbenchmark through the numeric serving backend).  No
absolute wall-time assertions — those are machine-dependent; the committed
``BENCH_serving_numeric.json`` carries the recorded curve.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import payload as bench_io
from repro.bench.serving_perf import (
    BATCH_SIZES,
    DECODE_LEN,
    PREFILL_LEN,
    PREFIX_BENCH_SCHEMA,
    SERVING_BENCH_SCHEMA,
    check_serving_regression,
    format_serving_rows,
    run_serving_bench,
)

BASELINE = Path(__file__).parent / "BENCH_serving_numeric.json"


@pytest.fixture(scope="module")
def payload() -> dict:
    return run_serving_bench()


class TestPayloadSchema:
    def test_schema_and_points(self, payload):
        assert payload["schema"] == SERVING_BENCH_SCHEMA
        assert payload["verified_bit_identical"] is True
        batches = [p["batch"] for p in payload["batches"]]
        assert batches == [1, 4, 8, 16]
        for p in payload["batches"]:
            assert p["decode_tokens"] == p["batch"] * p["decode_len"]
            assert p["tokens_per_s"] > 0 and p["tokens_per_s_iqr"] >= 0
            assert p["wall_s"] > 0 and p["wall_s_iqr"] >= 0

    def test_format_rows(self, payload):
        rows = format_serving_rows(payload)
        assert [r[0] for r in rows] == [p["batch"] for p in payload["batches"]]
        assert all(len(r) == 4 for r in rows)


class TestRegressionGate:
    def test_self_comparison_passes(self, payload):
        assert check_serving_regression(payload, payload) == []

    def test_trips_on_real_regression(self, payload):
        # Inflating the whole baseline 10x trips both gates: the largest
        # batch regressed >2x AND batch 8 lost its 2x edge over batch 1.
        inflated = json.loads(json.dumps(payload))
        for p in inflated["batches"]:
            p["tokens_per_s"] *= 10.0
        problems = check_serving_regression(payload, inflated)
        assert len(problems) == 2
        assert any("regressed" in p for p in problems)
        assert any("batched decode too slow" in p for p in problems)

    def test_trips_when_batching_speedup_lost(self, payload):
        """The headline gate: fused decode at batch 8 must beat 2x the
        baseline's batch-1 throughput, even if absolute speed is fine."""
        slow8 = json.loads(json.dumps(payload))
        by_batch = {p["batch"]: p for p in slow8["batches"]}
        by_batch[8]["tokens_per_s"] = 1.5 * by_batch[1]["tokens_per_s"]
        problems = check_serving_regression(slow8, payload)
        assert problems
        assert any("batched decode too slow" in p for p in problems)

    def test_trips_on_unverified_run(self, payload):
        unverified = json.loads(json.dumps(payload))
        unverified["verified_bit_identical"] = False
        problems = check_serving_regression(unverified, payload)
        assert problems and "verification" in problems[0]

    def test_ignores_improvements(self, payload):
        slower_baseline = json.loads(json.dumps(payload))
        for p in slower_baseline["batches"]:
            p["tokens_per_s"] *= 0.1
        assert check_serving_regression(payload, slower_baseline) == []

    def test_malformed_baseline_reported(self, payload):
        problems = check_serving_regression(payload, {"batches": []})
        assert problems and "malformed" in problems[0]


class TestCommittedBaseline:
    def test_baseline_verified_on_the_same_workload(self):
        base = bench_io.read(BASELINE, SERVING_BENCH_SCHEMA)
        assert base["verified_bit_identical"] is True
        assert [
            (p["batch"], p["prefill_len"], p["decode_len"])
            for p in base["batches"]
        ] == [(b, PREFILL_LEN, DECODE_LEN) for b in BATCH_SIZES]

    def test_baseline_shows_batching_speedup(self):
        """The serving thesis: batched decode beats batch-1 throughput —
        and the committed fused-path baseline clears its own 2x gate."""
        base = bench_io.read(BASELINE, SERVING_BENCH_SCHEMA)
        by_batch = {p["batch"]: p["tokens_per_s"] for p in base["batches"]}
        assert max(by_batch.values()) > by_batch[1]
        assert by_batch[8] >= 2.0 * by_batch[1]


class TestPrefixCacheBench:
    """Warm-vs-cold sweep mechanics + the committed BENCH_prefix_cache.json."""

    PREFIX_BASELINE = Path(__file__).parent / "BENCH_prefix_cache.json"

    @pytest.fixture(scope="class")
    def prefix_payload(self) -> dict:
        from repro.bench.serving_perf import run_prefix_cache_bench

        return run_prefix_cache_bench()

    def test_schema_and_runs(self, prefix_payload):
        p = prefix_payload
        assert p["schema"] == PREFIX_BENCH_SCHEMA
        assert p["verified_bit_identical"] is True
        assert set(p["runs"]) == {"cold", "warm"}
        assert p["runs"]["warm"]["decode_tokens"] == p["runs"]["cold"]["decode_tokens"]
        # Every turn after a conversation's first must hit.
        warm = p["runs"]["warm"]
        assert warm["hits"] == p["conversations"] * (p["turns"] - 1)
        assert warm["lookups"] == p["conversations"] * p["turns"]
        assert warm["kv_tokens_reused"] > 0

    def test_self_comparison_passes(self, prefix_payload):
        from repro.bench.serving_perf import check_prefix_cache_regression

        assert check_prefix_cache_regression(prefix_payload, prefix_payload) == []

    def test_trips_when_warm_loses_to_cold(self, prefix_payload):
        from repro.bench.serving_perf import check_prefix_cache_regression

        slow = json.loads(json.dumps(prefix_payload))
        slow["runs"]["warm"]["tokens_per_s"] = (
            0.5 * slow["runs"]["cold"]["tokens_per_s"]
        )
        problems = check_prefix_cache_regression(slow, prefix_payload)
        assert any("slower than cold" in p for p in problems)

    def test_trips_on_hit_rate_collapse(self, prefix_payload):
        from repro.bench.serving_perf import check_prefix_cache_regression

        cachemiss = json.loads(json.dumps(prefix_payload))
        cachemiss["runs"]["warm"]["hit_rate"] = 0.0
        problems = check_prefix_cache_regression(cachemiss, prefix_payload)
        assert any("hit rate" in p for p in problems)

    def test_trips_on_unverified_run(self, prefix_payload):
        from repro.bench.serving_perf import check_prefix_cache_regression

        unverified = json.loads(json.dumps(prefix_payload))
        unverified["verified_bit_identical"] = False
        problems = check_prefix_cache_regression(unverified, prefix_payload)
        assert any("verification" in p for p in problems)

    def test_committed_baseline_warm_beats_cold(self, prefix_payload):
        base = bench_io.read(self.PREFIX_BASELINE, PREFIX_BENCH_SCHEMA)
        shape = ("conversations", "turns", "prompt_len", "decode_len")
        assert [base[k] for k in shape] == [prefix_payload[k] for k in shape]
        assert base["verified_bit_identical"] is True
        warm, cold = base["runs"]["warm"], base["runs"]["cold"]
        assert warm["tokens_per_s"] >= cold["tokens_per_s"]
        assert warm["hit_rate"] >= (base["turns"] - 1) / base["turns"] - 1e-9
