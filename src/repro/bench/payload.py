"""Reading and writing the ``BENCH_*.json`` payloads of ``repro bench``.

Every payload names its ``schema``; :data:`SCHEMAS` maps each known schema
to the section that holds its measurements.  :func:`read` rejects a file
whose schema is unknown, is not the one the caller expects, or lacks that
section — the CLI's ``--check-against`` and ``repro doctor --bench`` both
read through it.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

__all__ = [
    "BENCH_SCHEMA",
    "SERVING_BENCH_SCHEMA",
    "PREFIX_BENCH_SCHEMA",
    "PARETO_BENCH_SCHEMA",
    "SCHEMAS",
    "host",
    "model_block",
    "read",
    "write",
]

BENCH_SCHEMA = "atom-repro/bench-inference/v1"
SERVING_BENCH_SCHEMA = "atom-repro/bench-serving-numeric/v1"
PREFIX_BENCH_SCHEMA = "atom-repro/bench-prefix-cache/v1"
PARETO_BENCH_SCHEMA = "atom-repro/bench-pareto/v1"

#: schema -> the section holding that bench's measurements.
SCHEMAS = {
    BENCH_SCHEMA: "benchmarks",
    SERVING_BENCH_SCHEMA: "batches",
    PREFIX_BENCH_SCHEMA: "runs",
    PARETO_BENCH_SCHEMA: "schemes",
}


def host() -> dict:
    """The software/hardware a payload was measured on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def model_block(cfg) -> dict:
    """The bench model's shape, from its :class:`ModelConfig`."""
    return {
        "name": cfg.name,
        "dim": cfg.dim,
        "n_layers": cfg.n_layers,
        "n_heads": cfg.n_heads,
        "n_kv_heads": cfg.n_kv_heads,
        "ffn_dim": cfg.ffn_dim,
        "n_outlier": cfg.n_outlier,
        "group_size": cfg.group_size,
    }


def write(payload: dict, dest: "str | Path") -> None:
    from repro.bench.artifacts import atomic_write_text

    atomic_write_text(dest, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read(src: "str | Path", schema: "str | None" = None) -> dict:
    """Load a payload; ``schema`` pins which of :data:`SCHEMAS` it must be."""
    payload = json.loads(Path(src).read_text())
    found = payload.get("schema")
    if found not in SCHEMAS or (schema is not None and found != schema):
        want = schema or "one of " + ", ".join(SCHEMAS)
        raise ValueError(f"unexpected bench schema {found!r} in {src} "
                         f"(expected {want})")
    if SCHEMAS[found] not in payload:
        raise ValueError(f"{src}: {found} payload has no "
                         f"{SCHEMAS[found]!r} section")
    return payload
