"""Serving telemetry: null-sink transparency, trace/result reconciliation,
JSONL/CSV round-trips, and page-accounting invariants."""

from __future__ import annotations

import dataclasses
import io
import json
from dataclasses import fields

import pytest

from repro.data.sharegpt import ShareGPTWorkload
from repro.serving import LLAMA_7B, ServingEngine
from repro.serving.parallel import NVLINK, TPConfig
from repro.serving.schemes import ATOM_W4A4, FP16
from repro.serving.telemetry import (
    NULL_TELEMETRY,
    IterationSample,
    PagePoolDelta,
    RequestAdmitted,
    RequestFinished,
    RequestPreempted,
    Telemetry,
    TraceRecorder,
    _EVENT_TYPES,
    event_from_dict,
    read_jsonl,
    summarize,
    weighted_mean,
    weighted_percentile,
    write_csv,
    write_jsonl,
)


@pytest.fixture(scope="module")
def requests():
    return ShareGPTWorkload(seed=3, max_len=2048).sample_requests(96)


def _run(scheme=FP16, *, admission="dynamic", reqs, telemetry=None, tp=None,
         max_batch=96):
    return ServingEngine(
        LLAMA_7B,
        scheme,
        max_batch=max_batch,
        admission=admission,
        tp=tp,
        telemetry=telemetry,
    ).run(reqs)


@pytest.fixture(scope="module")
def traced(requests):
    """One dynamic-admission run under memory pressure, with its trace."""
    recorder = TraceRecorder()
    result = _run(reqs=requests, telemetry=recorder)
    return result, recorder


class TestNullSink:
    @pytest.mark.parametrize("admission", ["reserve", "dynamic"])
    def test_disabled_telemetry_is_bit_identical(self, requests, admission):
        """The null sink (default) must not perturb any result field."""
        base = _run(reqs=requests, admission=admission)
        traced = _run(
            reqs=requests, admission=admission, telemetry=TraceRecorder()
        )
        nulled = _run(
            reqs=requests, admission=admission, telemetry=NULL_TELEMETRY
        )
        assert dataclasses.asdict(base) == dataclasses.asdict(nulled)
        assert dataclasses.asdict(base) == dataclasses.asdict(traced)

    def test_null_sink_records_nothing(self):
        tel = Telemetry()
        tel.begin_iteration(0, 0.0)
        tel.emit(
            RequestAdmitted, request_id=1, prefill_len=2, decode_len=3, pages=4
        )
        tel.iteration_sample(decode_batch=1)
        assert not tel.enabled
        assert not hasattr(tel, "events")


class TestReconciliation:
    @pytest.mark.parametrize("admission", ["reserve", "dynamic"])
    def test_phase_times_match_result_breakdown(self, requests, admission):
        recorder = TraceRecorder()
        result = _run(reqs=requests, admission=admission, telemetry=recorder)
        summary = recorder.summary()
        for phase, t in result.time_breakdown.items():
            assert abs(summary.time_breakdown[phase] - t) <= 1e-6
        assert abs(summary.total_time_s - result.total_time_s) <= 1e-6

    def test_percentiles_match_result(self, traced):
        result, recorder = traced
        summary = recorder.summary()
        assert summary.p99_decode_latency_s == result.p99_decode_latency_s
        assert summary.mean_decode_latency_s == result.mean_decode_latency_s

    def test_counters_match_result(self, traced):
        result, recorder = traced
        summary = recorder.summary()
        assert summary.finished == result.completed_requests
        assert summary.preemptions == result.preemptions
        assert summary.mean_occupancy == result.achieved_batch
        assert summary.peak_running == result.max_batch
        assert summary.admitted == result.completed_requests + result.preemptions

    def test_tp_run_records_comm_share(self, requests):
        recorder = TraceRecorder()
        result = _run(
            ATOM_W4A4,
            reqs=requests,
            admission="reserve",
            tp=TPConfig(2, NVLINK),
            telemetry=recorder,
        )
        summary = recorder.summary()
        assert 0.0 < summary.comm_time_s < summary.time_breakdown["dense"]
        for phase, t in result.time_breakdown.items():
            assert abs(summary.time_breakdown[phase] - t) <= 1e-6

    def test_single_gpu_comm_is_zero(self, traced):
        _, recorder = traced
        assert recorder.summary().comm_time_s == 0.0


class TestEventStream:
    def test_events_are_time_and_iteration_ordered(self, traced):
        _, recorder = traced
        its = [e.iteration for e in recorder.events]
        ts = [e.t for e in recorder.events]
        assert its == sorted(its)
        assert ts == sorted(ts)

    def test_every_admission_has_page_allocation(self, traced):
        _, recorder = traced
        admitted = [e for e in recorder.events if isinstance(e, RequestAdmitted)]
        assert admitted
        deltas = {
            (e.iteration, e.request_id): e.delta
            for e in recorder.events
            if isinstance(e, PagePoolDelta) and e.delta > 0
        }
        for a in admitted:
            assert deltas.get((a.iteration, a.request_id), 0) >= a.pages

    def test_preempted_requests_are_readmitted_and_finish(self, traced):
        _, recorder = traced
        preempted = {
            e.request_id
            for e in recorder.events
            if isinstance(e, RequestPreempted)
        }
        assert preempted  # memory-tight FP16 run must preempt
        finished = {
            e.request_id
            for e in recorder.events
            if isinstance(e, RequestFinished)
        }
        assert preempted <= finished

    def test_iteration_samples_token_mix(self, traced):
        _, recorder = traced
        samples = recorder.samples()
        assert samples
        for s in samples:
            assert s.prefill_tokens >= 0 and s.decode_batch >= 0
            assert s.prefill_tokens + s.decode_batch > 0
            assert s.decode_batch <= s.running
            assert s.t_iter == s.t_dense + s.t_attention + s.t_quant + s.t_other


class TestPageAccounting:
    """Satellite: paged-KV invariants asserted from the event log alone."""

    def test_free_pages_never_negative_and_consistent(self, traced):
        _, recorder = traced
        deltas = [e for e in recorder.events if isinstance(e, PagePoolDelta)]
        total = None
        used = 0
        for e in deltas:
            used += e.delta
            assert used >= 0
            if total is None:
                total = e.free_pages + used
            # Replayed pool state must match the state the event recorded.
            assert e.free_pages == total - used
            assert e.free_pages >= 0
        assert used == 0  # every page returned by the end of the run

    def test_free_returns_exactly_the_pages_held(self, traced):
        _, recorder = traced
        held: dict[int, int] = {}
        for e in recorder.events:
            if isinstance(e, PagePoolDelta):
                held[e.request_id] = held.get(e.request_id, 0) + e.delta
                assert held[e.request_id] >= 0
        assert all(v == 0 for v in held.values())

    def test_preemption_releases_all_pages(self, traced):
        """A dynamic-policy preemption frees the victim's entire cache."""
        _, recorder = traced
        preemptions = [
            e for e in recorder.events if isinstance(e, RequestPreempted)
        ]
        assert preemptions
        for p in preemptions:
            # Pages held by the victim at the moment of preemption: sum of
            # its deltas up to (and including) the preemption's free event.
            balance = 0
            for e in recorder.events:
                if (
                    isinstance(e, PagePoolDelta)
                    and e.request_id == p.request_id
                ):
                    balance += e.delta
                if e is p:
                    break
            assert balance == 0  # the free delta cancelled everything held
            assert p.pages_freed > 0


class TestRoundTrip:
    def test_jsonl_round_trip_identity(self, traced):
        _, recorder = traced
        buf = io.StringIO()
        write_jsonl(recorder.events, buf)
        buf.seek(0)
        assert read_jsonl(buf) == recorder.events

    def test_jsonl_reaggregation_same_percentiles(self, traced, tmp_path):
        _, recorder = traced
        path = tmp_path / "trace.jsonl"
        write_jsonl(recorder.events, path)
        summary = summarize(read_jsonl(path))
        assert summary == recorder.summary()

    def test_jsonl_lines_are_valid_json(self, traced, tmp_path):
        _, recorder = traced
        path = tmp_path / "trace.jsonl"
        write_jsonl(recorder.events, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(recorder.events)
        for line in lines:
            d = json.loads(line)
            assert "event" in d and "t" in d and "iteration" in d

    def test_csv_export(self, traced, tmp_path):
        _, recorder = traced
        path = tmp_path / "trace.csv"
        write_csv(recorder.events, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("iteration,t,prefill_tokens")
        assert len(lines) == 1 + len(recorder.samples())

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event"):
            event_from_dict({"event": "martian", "t": 0.0, "iteration": 0})


def _payload(cls) -> dict:
    """Non-default values for every payload field of an event type.

    Tuple fields are given as lists so :class:`ClusterSample`'s coercion
    back to tuples is exercised.
    """
    out = {}
    for i, f in enumerate(fields(cls)):
        if not f.init or f.name in ("t", "iteration"):
            continue
        d = f.default
        if isinstance(d, bool):
            out[f.name] = not d
        elif isinstance(d, int):
            out[f.name] = d + 7 + i
        elif isinstance(d, float):
            out[f.name] = d + 0.5 + i
        elif isinstance(d, str):
            out[f.name] = f"{f.name}-x"
        else:
            assert isinstance(d, tuple), (cls, f.name)
            out[f.name] = [i, i + 1]
    return out


class TestEmit:
    def test_every_event_type_is_covered(self):
        assert len(_EVENT_TYPES) == 18

    @pytest.mark.parametrize(
        "cls", list(_EVENT_TYPES.values()), ids=lambda c: c.event
    )
    def test_emit_round_trips_every_event_type(self, cls):
        payload = _payload(cls)
        rec = TraceRecorder()
        rec.begin_iteration(4, 1.5)
        rec.set_clock(2.25)
        rec.emit(cls, **payload)
        (event,) = rec.events
        assert type(event) is cls
        assert (event.t, event.iteration) == (2.25, 4)
        for name, value in payload.items():
            want = tuple(value) if isinstance(value, list) else value
            assert getattr(event, name) == want, name
        buf = io.StringIO()
        write_jsonl(rec.events, buf)
        buf.seek(0)
        assert read_jsonl(buf) == rec.events
        # The null sink accepts the same call and records nothing.
        assert NULL_TELEMETRY.emit(cls, **payload) is None
        assert not hasattr(NULL_TELEMETRY, "events")

    def test_iteration_sample_omits_analytic_backend(self):
        rec = TraceRecorder()
        rec.iteration_sample(decode_batch=3, t_iter=0.5)
        rec.emit(IterationSample, decode_batch=2, backend="numeric")
        analytic, numeric = rec.events
        assert "backend" not in analytic.to_dict()
        assert numeric.to_dict()["backend"] == "numeric"
        buf = io.StringIO()
        write_jsonl(rec.events, buf)
        buf.seek(0)
        assert read_jsonl(buf) == rec.events


class TestMalformedJsonl:
    GOOD = (
        '{"event": "finished", "iteration": 1, "pages_freed": 2, '
        '"request_id": 5, "t": 0.25}'
    )

    def _read(self, bad: str):
        return read_jsonl(io.StringIO(f"{self.GOOD}\n\n{bad}\n"))

    def test_good_line_loads(self):
        (event,) = read_jsonl(io.StringIO(self.GOOD + "\n"))
        assert event == RequestFinished(
            t=0.25, iteration=1, request_id=5, pages_freed=2
        )

    def test_unknown_field_names_line_and_field(self):
        bad = (
            '{"event":"finished","t":0.5,"iteration":2,'
            '"request_idd":3,"pages_freed":4}'
        )
        with pytest.raises(
            ValueError, match=r"line 3: unknown field 'request_idd'"
        ):
            self._read(bad)

    def test_missing_field_names_line_and_field(self):
        bad = '{"event":"finished","iteration":2,"pages_freed":4}'
        with pytest.raises(ValueError, match=r"line 3: missing field 't'"):
            self._read(bad)

    def test_non_object_line_names_line_and_field(self):
        with pytest.raises(
            ValueError, match=r"line 3: expected a JSON object with an 'event'"
        ):
            self._read("[1, 2]")


class TestPercentileMachinery:
    def test_weighted_percentile_unweighted_median(self):
        assert weighted_percentile([3.0, 1.0, 2.0], [1, 1, 1], 0.5) == 2.0

    def test_weighted_percentile_respects_weights(self):
        # 99% of the mass sits on the small sample.
        assert weighted_percentile([1.0, 10.0], [99, 1], 0.5) == 1.0
        assert weighted_percentile([1.0, 10.0], [99, 1], 0.999) == 10.0

    def test_weighted_percentile_empty(self):
        assert weighted_percentile([], [], 0.99) == 0.0

    def test_weighted_mean(self):
        assert weighted_mean([1.0, 3.0], [3, 1]) == 1.5

    def test_summary_of_empty_trace(self):
        s = summarize([])
        assert s.iterations == 0
        assert s.p99_decode_latency_s == 0.0
        assert s.time_breakdown == {
            "dense": 0.0, "attention": 0.0, "quant": 0.0, "other": 0.0,
        }


class TestCLITrace:
    def test_trace_cli_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        csv_out = tmp_path / "t.csv"
        assert main([
            "trace", "--scheme", "FP16", "--requests", "32", "--batch", "24",
            "-o", str(out), "--csv", str(csv_out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "reconciliation" in printed
        events = read_jsonl(out)
        assert events
        # Parse -> re-aggregate -> identical percentiles to a second pass.
        first = summarize(events)
        again = summarize(read_jsonl(out))
        assert first.percentiles() == again.percentiles()
        assert first.p99_decode_latency_s > 0.0
        assert csv_out.exists()

    def test_trace_cli_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["trace"])
        assert args.admission == "dynamic"
        assert args.output == "trace.jsonl"
        assert args.csv is None
