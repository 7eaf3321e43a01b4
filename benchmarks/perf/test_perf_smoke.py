"""Perf-smoke: run the quick microbenchmark suite and sanity-check it.

This is the benchmark the CI ``perf-smoke`` job runs (via ``repro bench
--quick --check-against benchmarks/perf/BENCH_inference.json``).  The test
here checks the harness mechanics and the claims encoded in the committed
baseline, without asserting absolute wall times (machine-dependent):

- the payload matches the ``atom-repro/bench-inference/v1`` schema, one
  wall time (``after_s``) per benchmark;
- the regression gate trips in the right direction and only that direction;
- the committed baseline records the >=5x decode-throughput improvement the
  vectorized engine made over the reference implementations that now live
  in ``tests/core/reference.py`` (checked there by
  ``tests/core/test_fast_path.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.perf import (
    BENCH_SCHEMA,
    check_regression,
    format_rows,
    read_bench_json,
    run_perf_suite,
    write_bench_json,
)

BASELINE = Path(__file__).parent / "BENCH_inference.json"
BENCHES = ("linear_forward", "prefill", "decode", "quantize_sequential")


@pytest.fixture(scope="module")
def payload() -> dict:
    return run_perf_suite(quick=True)


class TestPayloadSchema:
    def test_schema_and_sections(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["quick"] is True
        assert set(BENCHES) <= set(payload["benchmarks"])
        for name in BENCHES:
            b = payload["benchmarks"][name]
            assert b["after_s"] > 0
            assert not {"before_s", "speedup"} & set(b)

    def test_decode_throughput_fields(self, payload):
        d = payload["benchmarks"]["decode"]
        assert d["after_tokens_per_s"] == pytest.approx(
            d["decode_steps"] / d["after_s"]
        )

    def test_json_round_trip(self, payload, tmp_path):
        dest = tmp_path / "bench.json"
        write_bench_json(payload, dest)
        assert read_bench_json(dest) == payload

    def test_read_rejects_wrong_schema(self, tmp_path):
        dest = tmp_path / "bad.json"
        dest.write_text(json.dumps({"schema": "other/v0", "benchmarks": {}}))
        with pytest.raises(ValueError, match="schema"):
            read_bench_json(dest)

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
    def test_baseline_valid_and_full_mode(self):
        base = read_bench_json(BASELINE)
        assert base["quick"] is False
        assert set(BENCHES) <= set(base["benchmarks"])

    def test_baseline_records_5x_decode_claim(self):
        base = read_bench_json(BASELINE)
        assert base["benchmarks"]["decode"]["speedup"] >= 5.0
