"""The one payload reader/writer, over every committed ``BENCH_*.json``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import payload as bench_io

HERE = Path(__file__).parent
COMMITTED = {
    bench_io.BENCH_SCHEMA: "BENCH_inference.json",
    bench_io.SERVING_BENCH_SCHEMA: "BENCH_serving_numeric.json",
    bench_io.PREFIX_BENCH_SCHEMA: "BENCH_prefix_cache.json",
    bench_io.PARETO_BENCH_SCHEMA: "BENCH_pareto.json",
}


def test_every_schema_has_a_committed_baseline():
    assert set(COMMITTED) == set(bench_io.SCHEMAS)


@pytest.mark.parametrize("schema", sorted(bench_io.SCHEMAS))
class TestPayloadIO:
    def test_json_round_trip(self, schema, tmp_path):
        base = bench_io.read(HERE / COMMITTED[schema], schema)
        assert base["schema"] == schema
        dest = tmp_path / "bench.json"
        bench_io.write(base, dest)
        assert bench_io.read(dest, schema) == base

    def test_read_rejects_wrong_schema(self, schema, tmp_path):
        section = bench_io.SCHEMAS[schema]
        dest = tmp_path / "bad.json"
        dest.write_text(json.dumps({"schema": "other/v0", section: []}))
        with pytest.raises(ValueError, match="schema"):
            bench_io.read(dest)
        # A known schema is still rejected where another one is expected.
        other = next(s for s in bench_io.SCHEMAS if s != schema)
        with pytest.raises(ValueError, match="schema"):
            bench_io.read(HERE / COMMITTED[schema], other)

    def test_read_rejects_missing_section(self, schema, tmp_path):
        dest = tmp_path / "empty.json"
        dest.write_text(json.dumps({"schema": schema}))
        with pytest.raises(ValueError, match=bench_io.SCHEMAS[schema]):
            bench_io.read(dest, schema)
