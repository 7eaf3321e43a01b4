"""Perf-smoke: run the microbenchmark suite and sanity-check it.

This is the benchmark the CI ``perf-smoke`` job runs (via ``repro bench
--check-against benchmarks/perf/BENCH_inference.json``).  The test
here checks the harness mechanics and the claims encoded in the committed
baseline, without asserting absolute wall times (machine-dependent):

- the payload matches the ``atom-repro/bench-inference/v1`` schema, one
  median wall time (``after_s``) and its IQR per benchmark;
- the regression gate trips in the right direction and only that direction;
- the committed baseline measures the same workload and carries exactly
  the keys a fresh payload has, so the gate compares a median with a
  median.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import payload as bench_io
from repro.bench.perf import (
    BENCH_SCHEMA,
    DECODE_PROMPT,
    DECODE_STEPS,
    check_regression,
    format_rows,
    run_perf_suite,
)

BASELINE = Path(__file__).parent / "BENCH_inference.json"
BENCHES = ("linear_forward", "prefill", "decode", "quantize_sequential")


@pytest.fixture(scope="module")
def payload() -> dict:
    return run_perf_suite()


class TestPayloadSchema:
    def test_schema_and_sections(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        assert set(BENCHES) <= set(payload["benchmarks"])
        for name in BENCHES:
            b = payload["benchmarks"][name]
            assert b["after_s"] > 0 and b["after_s_iqr"] >= 0
            assert not {"before_s", "speedup"} & set(b)

    def test_decode_throughput_fields(self, payload):
        d = payload["benchmarks"]["decode"]
        assert d["after_tokens_per_s"] == pytest.approx(
            d["decode_steps"] / d["after_s"]
        )

    def test_format_rows(self, payload):
        rows = format_rows(payload)
        assert [r[0] for r in rows] == list(payload["benchmarks"])
        assert all(len(r) == 2 for r in rows)


class TestRegressionGate:
    def test_self_comparison_passes(self, payload):
        assert check_regression(payload, payload) == []

    def test_trips_on_real_regression(self, payload):
        inflated = json.loads(json.dumps(payload))
        d = inflated["benchmarks"]["decode"]
        d["after_tokens_per_s"] = 10.0 * payload["benchmarks"]["decode"][
            "after_tokens_per_s"
        ]
        problems = check_regression(payload, inflated)
        assert len(problems) == 1 and "decode throughput" in problems[0]

    def test_ignores_improvements(self, payload):
        slower_baseline = json.loads(json.dumps(payload))
        d = slower_baseline["benchmarks"]["decode"]
        d["after_tokens_per_s"] = 0.1 * payload["benchmarks"]["decode"][
            "after_tokens_per_s"
        ]
        assert check_regression(payload, slower_baseline) == []

    def test_malformed_baseline_reported(self, payload):
        problems = check_regression(payload, {"benchmarks": {}})
        assert problems and "malformed" in problems[0]


class TestCommittedBaseline:
    def test_baseline_measures_the_same_workload(self):
        base = bench_io.read(BASELINE, BENCH_SCHEMA)
        assert set(BENCHES) <= set(base["benchmarks"])
        decode = base["benchmarks"]["decode"]
        assert (decode["prompt_tokens"], decode["decode_steps"]) == (
            DECODE_PROMPT, DECODE_STEPS
        )

    def test_baseline_has_the_fresh_payload_keys(self, payload):
        """The committed baseline is what ``repro bench -o`` writes today:
        the same top-level blocks and, per benchmark, the same keys."""
        base = bench_io.read(BASELINE, BENCH_SCHEMA)
        assert set(base) == set(payload)
        assert {
            name: set(b) for name, b in base["benchmarks"].items()
        } == {name: set(b) for name, b in payload["benchmarks"].items()}
