"""CLI smoke tests (invoked in-process for speed)."""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: The committed ``BENCH_*.json`` baselines.
_COMMITTED = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quantize_defaults(self):
        args = build_parser().parse_args(["quantize"])
        assert args.model == "llama-7b-sim"
        assert args.bits == 4
        assert args.kv is True

    def test_serve_scheme_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scheme", "W2A2"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scheme == "Atom-W4A4"
        assert args.admission == "dynamic"
        assert args.output == "trace.jsonl"
        assert args.chaos is None and args.deadline is None

    def test_trace_chaos_and_deadline_parse(self):
        args = build_parser().parse_args(
            ["trace", "--chaos", "7", "--deadline", "2.5"]
        )
        assert args.chaos == 7
        assert args.deadline == 2.5

    def test_trace_rejects_all_scheme(self):
        # "all" is a serve-only pseudo-scheme; trace needs exactly one.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--scheme", "all"])

    def test_trace_chaos_requires_int_seed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--chaos", "lucky"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not hasattr(args, "quick")  # one workload per bench
        assert args.output is None
        assert args.check_against is None
        # No CLI default: each check function's own bound applies.
        assert args.max_slowdown is None


class TestCommands:
    def test_zoo_lists_models(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "llama-7b-sim" in out and "mixtral-sim" in out

    def test_serve_runs(self, capsys):
        assert main(["serve", "--scheme", "Atom-W4A4", "--requests", "32",
                     "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "Atom-W4A4" in out and "tokens/s" in out

    def test_serve_deadline_times_requests_out(self, capsys):
        argv = ["serve", "--scheme", "Atom-W4A4", "--requests", "32",
                "--batch", "16"]
        assert main(argv) == 0
        unbounded = capsys.readouterr().out
        assert main(argv + ["--deadline", "0.01"]) == 0
        out = capsys.readouterr().out
        assert out != unbounded
        assert "Atom-W4A4: 32/32 timed out past the 0.01 s deadline" in out

    def test_serve_verify_needs_numeric_backend(self, capsys):
        assert main(["serve", "--scheme", "FP16", "--verify"]) == 2
        captured = capsys.readouterr()
        assert "--verify needs --backend numeric" in captured.err
        assert captured.out == ""

    def test_quantize_runs(self, capsys, model7b):
        # model7b fixture guarantees the zoo checkpoint exists already.
        assert main(["quantize", "-m", "llama-7b-sim"]) == 0
        out = capsys.readouterr().out
        assert "synthwiki" in out and "quantized ppl" in out

    def test_ablation_runs(self, capsys, model7b):
        assert main(["ablation", "-m", "llama-7b-sim"]) == 0
        out = capsys.readouterr().out
        assert "W4A4 RTN" in out and "GPTQ" in out


_TRACE_ARGS = ["trace", "--requests", "8", "--batch", "8"]


class TestTraceCommand:
    def test_writes_jsonl_trace(self, capsys, tmp_path):
        out_path = tmp_path / "t.jsonl"
        assert main(_TRACE_ARGS + ["-o", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert "event" in record and "t" in record and "iteration" in record
        # The trace round-trips through the typed-event reader.
        from repro.serving import read_jsonl

        events = read_jsonl(out_path)
        assert len(events) == len(lines)
        out = capsys.readouterr().out
        assert f"wrote {len(lines)} events" in out
        assert "reconciliation" in out

    def test_writes_csv_metrics(self, capsys, tmp_path):
        out_path, csv_path = tmp_path / "t.jsonl", tmp_path / "t.csv"
        assert main(
            _TRACE_ARGS + ["-o", str(out_path), "--csv", str(csv_path)]
        ) == 0
        header, *rows = csv_path.read_text().splitlines()
        assert "iteration" in header and rows

    def test_bad_output_path_exits_2(self, capsys, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        assert main(_TRACE_ARGS + ["-o", str(missing_dir)]) == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_chaos_seed_runs_and_reports(self, capsys, tmp_path):
        out_path = tmp_path / "chaos.jsonl"
        assert main(
            _TRACE_ARGS + ["--chaos", "7", "-o", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "injecting" in out
        assert "terminal states" in out
        assert "faults injected / alloc retries" in out
        assert out_path.exists()

    def test_deadline_reports_timeouts(self, capsys, tmp_path):
        out_path = tmp_path / "deadline.jsonl"
        assert main(
            _TRACE_ARGS + ["--deadline", "1e-6", "-o", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "timed_out 8" in out  # every request misses a 1 us deadline


@pytest.fixture(scope="module")
def bench_payload(tmp_path_factory):
    """One real traced perf-suite run, shared by every bench CLI test:
    ``(payload, path of its JSON, the kernel-phase events it traced)``."""
    from repro.bench import payload as bench_io
    from repro.bench.perf import run_perf_suite
    from repro.serving import TraceRecorder

    recorder = TraceRecorder()
    payload = run_perf_suite(recorder=recorder)
    path = tmp_path_factory.mktemp("bench") / "BENCH_inference.json"
    bench_io.write(payload, path)
    return payload, path, recorder.events


@pytest.fixture(scope="module")
def serving_bench_payload(tmp_path_factory):
    """One real serving-bench run, shared by every --serving test."""
    from repro.bench import payload as bench_io
    from repro.bench.serving_perf import run_serving_bench

    payload = run_serving_bench()
    path = tmp_path_factory.mktemp("sbench") / "BENCH_serving_numeric.json"
    bench_io.write(payload, path)
    return payload, path


class TestBenchCommand:
    """Exercise `repro bench` without re-running the 10s+ suite per test:
    the module fixture runs it once and the suite is patched to reuse it
    (replaying the traced events into the recorder the CLI passes)."""

    @pytest.fixture(autouse=True)
    def _reuse_payload(self, bench_payload, monkeypatch):
        payload, path, events = bench_payload

        def suite(*, seed=0, recorder=None):
            if recorder is not None:
                recorder.events.extend(events)
            return copy.deepcopy(payload)

        monkeypatch.setattr("repro.bench.perf.run_perf_suite", suite)
        self.payload, self.baseline_path = payload, path

    def test_writes_json_payload(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "-o", str(out_path)]) == 0
        written = json.loads(out_path.read_text())
        assert set(written) >= {"schema", "benchmarks"}
        assert set(written["benchmarks"]) >= {
            "linear_forward", "prefill", "decode", "quantize_sequential",
        }
        decode = written["benchmarks"]["decode"]
        assert decode["after_tokens_per_s"] > 0
        out = capsys.readouterr().out
        assert "decode throughput" in out and str(out_path) in out

    def test_check_against_clean_baseline_passes(self, capsys):
        assert main(
            ["bench", "--check-against", str(self.baseline_path)]
        ) == 0
        assert "no regression" in capsys.readouterr().out

    def test_check_against_missing_baseline_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(
            ["bench", "--check-against", str(missing)]
        ) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_check_against_regression_exits_1(
        self, capsys, monkeypatch, tmp_path
    ):
        slow = copy.deepcopy(self.payload)
        slow["benchmarks"]["decode"]["after_tokens_per_s"] /= 100.0
        monkeypatch.setattr(
            "repro.bench.perf.run_perf_suite",
            lambda *, seed=0, recorder=None: slow,
        )
        assert main(
            ["bench", "--check-against", str(self.baseline_path)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_trace_option_writes_kernel_phases(self, capsys, tmp_path):
        trace_path = tmp_path / "kernel.jsonl"
        assert main(["bench", "--trace", str(trace_path)]) == 0
        assert trace_path.read_text().strip()
        out = capsys.readouterr().out
        assert "kernel-phase events" in out and "linear time split" in out


@pytest.fixture(scope="module")
def healthy_ckpt(tmp_path_factory):
    """A small, fully written quantization checkpoint directory."""
    import dataclasses

    import numpy as np

    from repro.bench.perf import BENCH_MODEL_CONFIG, build_bench_model
    from repro.core import AtomConfig, AtomQuantizer

    tiny = dataclasses.replace(
        BENCH_MODEL_CONFIG, name="cli-doctor", dim=96, ffn_dim=160,
        n_layers=2, vocab_size=60, n_heads=4, n_kv_heads=2, n_outlier=8,
        max_seq_len=64,
    )
    model = build_bench_model(tiny)
    calib = np.random.default_rng(3).integers(0, tiny.vocab_size, size=(2, 12))
    ckpt = tmp_path_factory.mktemp("doctor") / "ckpt"
    AtomQuantizer(AtomConfig.paper_default()).quantize(
        model, calib_tokens=calib, checkpoint_dir=ckpt
    )
    return ckpt


class TestDoctorCommand:
    def test_no_targets_exits_2(self, capsys):
        assert main(["doctor"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_healthy_checkpoint_dir_passes(self, capsys, healthy_ckpt):
        assert main(["doctor", "--checkpoint-dir", str(healthy_ckpt)]) == 0
        out = capsys.readouterr().out
        assert "all artifacts healthy" in out and "ok" in out

    def test_corrupt_checkpoint_exits_1(self, capsys, healthy_ckpt, tmp_path):
        import shutil

        bad = tmp_path / "ckpt"
        shutil.copytree(healthy_ckpt, bad)
        victim = bad / "layer_00000.npz"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert main(["doctor", "--checkpoint-dir", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "problem(s) found" in err

    def test_missing_checkpoint_dir_exits_1(self, capsys, tmp_path):
        assert main(["doctor", "--checkpoint-dir", str(tmp_path / "no")]) == 1
        assert "not a directory" in capsys.readouterr().err

    def test_bench_payload_validated(self, capsys, bench_payload, tmp_path):
        _, path, _ = bench_payload
        assert main(["doctor", "--bench", str(path)]) == 0
        assert main(["doctor", "--bench", str(tmp_path / "missing.json")]) == 1

    def test_nonfinite_bench_metric_exits_1(self, capsys, bench_payload, tmp_path):
        payload, _, _ = bench_payload
        bad = copy.deepcopy(payload)
        bad["benchmarks"]["decode"]["after_tokens_per_s"] = float("inf")
        bad_path = tmp_path / "BENCH_bad.json"
        from repro.bench import payload as bench_io

        bench_io.write(bad, bad_path)
        assert main(["doctor", "--bench", str(bad_path)]) == 1
        assert "after_tokens_per_s" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [
        "BENCH_inference.json", "BENCH_serving_numeric.json",
        "BENCH_prefix_cache.json", "BENCH_pareto.json",
    ])
    def test_committed_baselines_healthy(self, capsys, name):
        path = _COMMITTED / name
        assert main(["doctor", "--bench", str(path)]) == 0
        assert "all artifacts healthy" in capsys.readouterr().out

    def test_nan_in_serving_batches_exits_1(self, capsys, tmp_path):
        from repro.bench import payload as bench_io

        bad = bench_io.read(_COMMITTED / "BENCH_serving_numeric.json")
        bad["batches"][2]["tokens_per_s"] = float("nan")
        bad_path = tmp_path / "BENCH_bad_serving.json"
        bench_io.write(bad, bad_path)
        assert main(["doctor", "--bench", str(bad_path)]) == 1
        assert "batches[2].tokens_per_s is nan" in capsys.readouterr().err

    def test_results_dir_manifest_roundtrip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ATOM_REPRO_RESULTS", str(tmp_path / "results"))
        from repro.bench.artifacts import save_artifact

        save_artifact("table.txt", "hello", manifest=True, schema="test/v1")
        assert main(["doctor", "--results-dir", str(tmp_path / "results")]) == 0
        (tmp_path / "results" / "table.txt").write_text("tampered\n")
        assert main(["doctor", "--results-dir", str(tmp_path / "results")]) == 1


class TestQuantizeCheckpointFlags:
    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["quantize", "--checkpoint-dir", "ck", "--force-restart",
             "--strict-guards"]
        )
        assert args.checkpoint_dir == "ck"
        assert args.force_restart is True
        assert args.strict_guards is True

    def test_defaults_off(self):
        args = build_parser().parse_args(["quantize"])
        assert args.checkpoint_dir is None
        assert args.force_restart is False
        assert args.strict_guards is False


class TestNumericServeCommand:
    def test_backend_flag_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.backend == "analytic"
        assert args.verify is False

    def test_numeric_serve_verifies_against_oracle(self, capsys, model7b):
        assert main(
            ["serve", "--backend", "numeric", "--scheme", "FP16",
             "--requests", "4", "--batch", "2", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "numeric backend" in out
        assert "tokens==generate" in out
        assert "ok" in out and "FAIL" not in out

    def test_numeric_serve_rejects_tp(self, capsys):
        assert main(["serve", "--backend", "numeric", "--tp", "2"]) == 2
        assert "tensor parallelism" in capsys.readouterr().err

    def test_numeric_serve_rejects_roofline_only_scheme(self, capsys):
        # Every built-in scheme now carries a recipe, so exercise the guard
        # with a temporarily registered roofline-only descriptor.
        from repro.serving.schemes import SCHEMES, QuantScheme, register_scheme

        register_scheme(
            QuantScheme("RooflineOnly", w_bits=4, a_bits=4, kv_bits=4)
        )
        try:
            assert main(
                ["serve", "--backend", "numeric", "--scheme", "RooflineOnly"]
            ) == 2
            assert "numeric backend supports" in capsys.readouterr().err
        finally:
            SCHEMES.pop("RooflineOnly", None)


class TestServingBenchCommand:
    @pytest.fixture(autouse=True)
    def _reuse_payload(self, serving_bench_payload, monkeypatch):
        payload, path = serving_bench_payload
        monkeypatch.setattr(
            "repro.bench.serving_perf.run_serving_bench",
            lambda *, seed=0: copy.deepcopy(payload),
        )
        self.payload, self.baseline_path = payload, path

    def test_serving_flag_parses(self):
        args = build_parser().parse_args(["bench", "--serving"])
        assert args.serving is True
        # Decode is always fused; there is no sequential-decode baseline.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--serving", "--sequential"])

    def test_reports_curve_and_verification(self, capsys):
        assert main(["bench", "--serving"]) == 0
        out = capsys.readouterr().out
        assert "batched decode" in out
        assert "bit-identical" in out

    def test_writes_payload(self, capsys, tmp_path):
        out_path = tmp_path / "serving.json"
        assert main(
            ["bench", "--serving", "-o", str(out_path)]
        ) == 0
        written = json.loads(out_path.read_text())
        assert written["schema"].endswith("bench-serving-numeric/v1")
        assert written["verified_bit_identical"] is True

    def test_check_against_clean_baseline_passes(self, capsys):
        assert main(
            ["bench", "--serving", "--check-against", str(self.baseline_path)]
        ) == 0
        assert "no regression" in capsys.readouterr().out

    def test_check_against_regression_exits_1(self, capsys, monkeypatch):
        slow = copy.deepcopy(self.payload)
        for p in slow["batches"]:
            p["tokens_per_s"] /= 100.0
        monkeypatch.setattr(
            "repro.bench.serving_perf.run_serving_bench",
            lambda *, seed=0: slow,
        )
        assert main(
            ["bench", "--serving", "--check-against", str(self.baseline_path)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_cli_keeps_the_2x_bound(self, capsys, tmp_path):
        """Without --max-slowdown the check's own 2x bound applies: a
        baseline whose largest batch is 2.5x faster trips it, and an
        explicit --max-slowdown 3 lets the same run pass."""
        from repro.bench import payload as bench_io

        fast = copy.deepcopy(self.payload)
        max(fast["batches"], key=lambda p: p["batch"])["tokens_per_s"] *= 2.5
        fast_path = tmp_path / "BENCH_fast.json"
        bench_io.write(fast, fast_path)
        argv = ["bench", "--serving", "--check-against", str(fast_path)]
        assert main(argv) == 1
        assert "regressed >2x" in capsys.readouterr().err
        assert main(argv + ["--max-slowdown", "3"]) == 0


def _pareto_row(name, *, w=4, a=4, kv=4, ppl=5.0, roofline=1000.0,
                numeric=50.0, weight_gb=3.14, kv_bytes=131072.0):
    return {
        "scheme": name, "w_bits": w, "a_bits": a, "kv_bits": kv,
        "avg_weight_bits": float(w), "ppl": ppl,
        "roofline_tokens_per_s": roofline, "numeric_tokens_per_s": numeric,
        "numeric_wall_s": 0.1, "weight_gb": weight_gb,
        "kv_bytes_per_token": kv_bytes, "verified_bit_identical": True,
    }


@pytest.fixture()
def pareto_payload():
    from repro.bench.pareto import PARETO_BENCH_SCHEMA, pareto_front

    rows = [
        _pareto_row("FP16", w=16, a=16, kv=16, ppl=4.0, roofline=330.0,
                    weight_gb=12.55, kv_bytes=524288.0),
        _pareto_row("W4A16", w=4, a=16, kv=16, ppl=4.3, roofline=750.0,
                    weight_gb=3.14, kv_bytes=524288.0),
        _pareto_row("W8A8", w=8, a=8, kv=8, ppl=4.1, roofline=620.0,
                    weight_gb=6.28, kv_bytes=262144.0),
        _pareto_row("Atom-W4A4", ppl=5.0, roofline=1080.0),
    ]
    payload = {
        "schema": PARETO_BENCH_SCHEMA,
        "model": {"zoo": "llama-7b-sim", "roofline_spec": "Llama-7B"},
        "host": {},
        "schemes": rows,
        "pareto_front": pareto_front(rows),
    }
    return payload


class TestParetoBenchCommand:
    """CLI plumbing for `bench --pareto` on a synthetic payload; the real
    sweep runs in benchmarks/perf/test_pareto_smoke.py."""

    @pytest.fixture(autouse=True)
    def _reuse_payload(self, pareto_payload, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "repro.bench.pareto.run_pareto_bench",
            lambda *, seed=0, model_name="llama-7b-sim",
            scheme_names=None: copy.deepcopy(pareto_payload),
        )
        self.payload = pareto_payload
        from repro.bench import payload as bench_io

        self.baseline_path = tmp_path / "BENCH_pareto.json"
        bench_io.write(pareto_payload, self.baseline_path)

    def test_pareto_flag_parses(self):
        args = build_parser().parse_args(["bench", "--pareto"])
        assert args.pareto is True

    def test_prints_table_and_front(self, capsys):
        assert main(["bench", "--pareto"]) == 0
        out = capsys.readouterr().out
        assert "Pareto sweep" in out
        assert "Pareto front" in out
        assert "bit-identical" in out
        # Front members are starred in the table.
        assert "FP16 *" in out

    def test_writes_payload(self, capsys, tmp_path):
        out_path = tmp_path / "pareto.json"
        assert main(
            ["bench", "--pareto", "-o", str(out_path)]
        ) == 0
        written = json.loads(out_path.read_text())
        assert written["schema"].endswith("bench-pareto/v1")
        assert {r["scheme"] for r in written["schemes"]} >= {
            "FP16", "Atom-W4A4",
        }

    def test_check_against_clean_baseline_passes(self, capsys):
        assert main(
            ["bench", "--pareto",
             "--check-against", str(self.baseline_path)]
        ) == 0
        assert "no regression" in capsys.readouterr().out

    def test_check_against_missing_baseline_exits_2(self, capsys, tmp_path):
        assert main(
            ["bench", "--pareto",
             "--check-against", str(tmp_path / "nope.json")]
        ) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_check_against_broken_dominance_exits_1(
        self, capsys, monkeypatch
    ):
        broken = copy.deepcopy(self.payload)
        for r in broken["schemes"]:
            if r["scheme"] == "Atom-W4A4":
                r["roofline_tokens_per_s"] = 100.0  # below W8A8
        monkeypatch.setattr(
            "repro.bench.pareto.run_pareto_bench",
            lambda *, seed=0, model_name="llama-7b-sim",
            scheme_names=None: broken,
        )
        assert main(
            ["bench", "--pareto",
             "--check-against", str(self.baseline_path)]
        ) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "dominate" in err


class TestTraceReportsBackend:
    def test_trace_table_has_backend_row(self, capsys, tmp_path):
        out_path = tmp_path / "t.jsonl"
        assert main(
            ["trace", "--requests", "4", "--batch", "4", "-o", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "analytic" in out


class TestOpenLoopServeCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.open_loop is False
        assert args.scheduler == "fcfs"
        assert args.rate == 2.0
        assert args.tenants == 1
        assert args.conversations is False
        assert args.think == 0.0
        assert args.slo_ttft is None and args.slo_tbt is None
        assert args.deadline is None and args.max_queue is None

    def test_full_flag_set_parses(self):
        args = build_parser().parse_args(
            ["serve", "--open-loop", "--scheduler", "fair", "--rate", "8.5",
             "--tenants", "3", "--conversations", "--think", "0.5",
             "--slo-ttft", "2.0", "--slo-tbt", "0.1", "--deadline", "30",
             "--max-queue", "16"]
        )
        assert args.open_loop is True
        assert args.scheduler == "fair"
        assert args.rate == 8.5
        assert args.tenants == 3
        assert args.conversations is True
        assert args.think == 0.5
        assert args.slo_ttft == 2.0 and args.slo_tbt == 0.1
        assert args.deadline == 30.0 and args.max_queue == 16

    def test_scheduler_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scheduler", "lifo"])

    def test_analytic_open_loop_multi_tenant(self, capsys):
        assert main(
            ["serve", "--open-loop", "--scheme", "Atom-W4A4",
             "--requests", "12", "--batch", "8", "--scheduler", "fair",
             "--tenants", "2", "--rate", "5", "--slo-ttft", "2.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "scheduler=fair" in out
        assert "12 submitted" in out
        assert "goodput" in out and "attainment" in out
        # Per-tenant SLO table with both round-robin tenants + overall row.
        assert "tenant0" in out and "tenant1" in out and "*" in out

    def test_conversations_with_deadline_edf(self, capsys):
        assert main(
            ["serve", "--open-loop", "--conversations", "--scheme",
             "Atom-W4A4", "--requests", "4", "--batch", "8", "--think",
             "0.5", "--scheduler", "edf", "--deadline", "30", "--rate", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "scheduler=edf" in out
        assert "(4 interactions" in out

    def test_max_queue_sheds_under_overload(self, capsys):
        assert main(
            ["serve", "--open-loop", "--scheme", "Atom-W4A4",
             "--requests", "24", "--batch", "4", "--rate", "400",
             "--scheduler", "sjf", "--max-queue", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "scheduler=sjf" in out and "shed=" in out

    def test_numeric_open_loop_verifies_oracle(self, capsys, model7b):
        assert main(
            ["serve", "--open-loop", "--backend", "numeric", "--scheme",
             "FP16", "--requests", "4", "--batch", "2", "--scheduler",
             "fair", "--tenants", "2", "--rate", "200", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "numeric backend" in out
        assert "tokens==generate: ok" in out
        assert "FAIL" not in out

    def test_numeric_open_loop_rejects_tp(self, capsys):
        assert main(
            ["serve", "--open-loop", "--backend", "numeric", "--tp", "2"]
        ) == 2
        assert "tensor parallelism" in capsys.readouterr().err
