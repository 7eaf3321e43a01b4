"""Byte-level pins of ``repro serve`` / ``repro trace`` output.

Every number these commands print comes from the simulated clock or from
seeded workloads, so stdout, stderr and the exit code are a pure function
of the arguments.  The matrix covers each way ``repro serve`` builds and
drives an engine: analytic and numeric backend, closed and open loop, one
engine and a replica cluster, the prefix cache, tensor parallelism,
oracle verification, and the exit-2 argument errors.  After an intended
output change, rewrite the pins with::

    PYTHONPATH=src python tests/test_cli_serve_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "cli_serve_stdout.json"

_SMALL = ["--requests", "32", "--batch", "16"]
_NUMERIC = ["--backend", "numeric", "--scheme", "FP16",
            "--requests", "6", "--batch", "4"]

#: name -> argv.  MixedBit quantization and numeric ``--conversations
#: --prefix-cache`` runs are left out: each costs seconds.
CASES = {
    "analytic_all": ["serve", "--scheme", "all", *_SMALL],
    "analytic_replicas_prefix": [
        "serve", "--scheme", "Atom-W4A4", *_SMALL,
        "--replicas", "2", "--prefix-cache",
    ],
    "analytic_tp_pcie": [
        "serve", "-m", "llama-13b", "--scheme", "W4A8KV4", *_SMALL,
        "--tp", "2", "--interconnect", "pcie", "--admission", "dynamic",
    ],
    "analytic_open_loop_fair": [
        "serve", "--open-loop", "--scheme", "Atom-W4A4", "--requests", "24",
        "--batch", "8", "--tenants", "2", "--scheduler", "fair", "--rate", "4",
    ],
    "analytic_open_loop_edf_deadline": [
        "serve", "--open-loop", "--scheme", "W4A16", "--requests", "6",
        "--batch", "8", "--conversations", "--scheduler", "edf",
        "--deadline", "5", "--rate", "1", "--replicas", "2",
    ],
    "analytic_open_loop_timeouts": [
        "serve", "--open-loop", "--scheme", "Atom-W4A4", "--requests", "16",
        "--batch", "4", "--rate", "8", "--deadline", "3",
    ],
    "numeric_verify": ["serve", *_NUMERIC, "--verify"],
    "numeric_replicas_verify": [
        "serve", *_NUMERIC, "--replicas", "2", "--verify",
    ],
    "numeric_open_loop_ci": [
        "serve", "--open-loop", "--backend", "numeric", "--scheme", "FP16",
        "--scheduler", "fair", "--rate", "200", "--tenants", "2",
        "--requests", "6", "--batch", "4", "--verify",
    ],
    "numeric_rejects_tp": ["serve", "--backend", "numeric", "--tp", "2"],
    "numeric_open_loop_rejects_tp": [
        "serve", "--open-loop", "--backend", "numeric", "--tp", "2",
    ],
    "trace": ["trace", "--requests", "8", "--batch", "8", "-o", "t.jsonl"],
}


def run_case(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_pins_exactly_the_case_matrix():
    assert list(json.loads(GOLDEN.read_text())) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, model7b, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # ``repro trace`` writes t.jsonl here
    want = json.loads(GOLDEN.read_text())[name]
    assert run_case(CASES[name]) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            pins = {name: run_case(argv) for name, argv in CASES.items()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
