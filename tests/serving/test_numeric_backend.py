"""End-to-end oracle for the numeric serving backend.

The payoff test of the backend refactor: continuous batching + paged
quantized KV + preemption through :class:`~repro.serving.backend.NumericBackend`
must produce **bit-identical tokens** to single-request
``LlamaModel.generate`` — including under chaos schedules that force
recompute-on-resume mid-decode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.perf import build_bench_model
from repro.bench.serving_perf import build_serving_bench_model
from repro.data.sharegpt import Request
from repro.models.config import ModelConfig
from repro.serving import (
    SCHEMES,
    CancelFault,
    ClusterEngine,
    FaultPlan,
    ModelRunner,
    NumericBackend,
    PagePoolFault,
    ServingEngine,
    StragglerFault,
    TraceRecorder,
    oracle_mismatches,
    synthetic_prompt,
)
from repro.serving.models import serving_spec_for
from core.reference import decode_one  # tests/core/reference.py (pytest puts tests/ on sys.path)

#: Small GQA config for fast numeric runs (4 query heads per KV head).
NUMERIC_TEST_CONFIG = ModelConfig(
    "numeric-test",
    dim=64,
    n_layers=2,
    n_heads=8,
    n_kv_heads=2,
    ffn_dim=128,
    max_seq_len=256,
)


@pytest.fixture(scope="module")
def fp_model():
    return build_bench_model(NUMERIC_TEST_CONFIG, seed=0)


@pytest.fixture(scope="module")
def atom_model():
    """Atom-quantized GQA model (AtomLinear layers + 4-bit KV codec)."""
    return build_serving_bench_model(seed=0)


def _requests(n, prefill=12, decode=9):
    """Varied-length requests (different page counts and finish times)."""
    return [
        Request(i, prefill + 3 * (i % 4), decode + 2 * (i % 3))
        for i in range(n)
    ]


def _assert_oracle_identical(backend, requests, *, expect=None):
    """Every (expected-finished) request's tokens == per-request generate."""
    for r in requests:
        if expect is not None and r.request_id not in expect:
            continue
        got = backend.generated_tokens(r.request_id)
        want = backend.runner.oracle_generate(
            r.request_id, r.prefill_len, r.decode_len
        )
        assert got is not None, f"request {r.request_id} has no tokens"
        np.testing.assert_array_equal(
            got,
            want,
            err_msg=f"request {r.request_id} diverged from generate oracle",
        )


def _assert_clean_accounting(engine):
    backend = engine.backend
    assert backend.runner.live_requests() == set()
    assert backend.runner.live_pages() == 0
    assert backend.runner.store.used_pages == 0
    assert engine._allocator.used_pages == 0


class TestBitIdentity:
    def test_fp16_batched_tokens_match_generate(self, fp_model):
        engine = NumericBackend.engine_for(
            fp_model, SCHEMES["FP16"], max_batch=4, admission="reserve"
        )
        reqs = _requests(6)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        assert result.backend == "numeric"
        _assert_oracle_identical(engine.backend, reqs)
        _assert_clean_accounting(engine)

    def test_atom_quantized_tokens_match_generate(self, atom_model):
        """Quantized linears + 4-bit KV codec through paged storage still
        reproduce the dense-cache generate oracle exactly."""
        assert atom_model.kv_codec.__class__.__name__ == "AtomKVCodec"
        engine = NumericBackend.engine_for(
            atom_model, SCHEMES["Atom-W4A4"], max_batch=4, admission="reserve"
        )
        reqs = _requests(5, prefill=10, decode=7)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        _assert_oracle_identical(engine.backend, reqs)
        _assert_clean_accounting(engine)

    def test_zoo_model_tokens_match_generate(self, model7b):
        """The pinned zoo model (trained weights) through the full stack."""
        engine = NumericBackend.engine_for(
            model7b, SCHEMES["FP16"], max_batch=3, admission="reserve"
        )
        reqs = _requests(4, prefill=8, decode=6)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        _assert_oracle_identical(engine.backend, reqs)

    def test_dynamic_admission_matches_generate(self, fp_model):
        engine = NumericBackend.engine_for(
            fp_model, SCHEMES["FP16"], max_batch=8, admission="dynamic"
        )
        reqs = _requests(8)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        _assert_oracle_identical(engine.backend, reqs)
        _assert_clean_accounting(engine)

    def test_sampled_decoding_matches_generate(self, fp_model):
        """Temperature > 0: the per-request rng streams line up too."""
        backend = NumericBackend(fp_model, temperature=0.8, seed=42)
        engine = ServingEngine(
            serving_spec_for(fp_model.config),
            SCHEMES["FP16"],
            max_batch=3,
            backend=backend,
        )
        reqs = _requests(3)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        _assert_oracle_identical(backend, reqs)


class TestOracleMismatches:
    """``oracle_mismatches``: the one finished-tokens == generate check."""

    def _engine(self, model, **kwargs):
        return NumericBackend.engine_for(
            model, SCHEMES["FP16"], max_batch=4, admission="reserve",
            **kwargs,
        )

    def test_clean_run_has_no_mismatches(self, fp_model):
        engine = self._engine(fp_model)
        reqs = _requests(5)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        assert oracle_mismatches(engine, result, reqs) == []

    def test_corrupted_tokens_are_reported(self, fp_model):
        engine = self._engine(fp_model)
        reqs = _requests(5)
        result = engine.run(reqs)
        tokens = engine.backend.runner.finished_tokens
        tokens[3] = tokens[3].copy()
        tokens[3][-1] += 1
        assert oracle_mismatches(engine, result, reqs) == [3]

    def test_only_finished_requests_are_checked(self, fp_model):
        engine = self._engine(fp_model)
        reqs = _requests(5)
        plan = FaultPlan(
            cancellations=(CancelFault(iteration=2, request_id=1),)
        )
        result = engine.run(reqs, faults=plan)
        assert result.terminal_states[1] == "cancelled"
        assert engine.backend.generated_tokens(1) is None
        assert oracle_mismatches(engine, result, reqs) == []

    def test_cluster_engine(self, fp_model):
        cluster = ClusterEngine(
            [self._engine(fp_model, shed_policy="drop") for _ in range(2)]
        )
        reqs = _requests(6)
        result = cluster.run(reqs)
        assert result.completed_requests == len(reqs)
        assert oracle_mismatches(cluster, result, reqs) == []
        # Tokens live on whichever replica finished the request.
        owner = next(
            e
            for e in cluster.engines
            if e.backend.generated_tokens(4) is not None
        )
        owner.backend.runner.finished_tokens[4] = np.zeros(3, dtype=np.int64)
        assert oracle_mismatches(cluster, result, reqs) == [4]


class TestPreemptionRecompute:
    """Satellite: kill a request mid-decode, resume it, identical tokens."""

    def _chaos_run(self, model, scheme_name, *, seed=0):
        rec = TraceRecorder()
        engine = NumericBackend.engine_for(
            model,
            SCHEMES[scheme_name],
            max_batch=8,
            admission="dynamic",
            seed=seed,
            telemetry=rec,
        )
        # Shrink the pool mid-run to well below live usage (forces eviction
        # + later recompute), cancel one in-flight request, stretch one
        # iteration — the chaos schedule the refactor must survive.
        shrink = engine._allocator.total_pages - 6
        plan = FaultPlan(
            page_faults=(
                PagePoolFault(iteration=3, delta_pages=-shrink),
                PagePoolFault(iteration=9, delta_pages=shrink),
            ),
            cancellations=(CancelFault(iteration=5, request_id=7),),
            stragglers=(StragglerFault(iteration=4, factor=3.0),),
        )
        reqs = _requests(8)
        result = engine.run(reqs, faults=plan)
        return engine, reqs, result, rec

    def test_chaos_schedule_preserves_bit_identity(self, fp_model):
        engine, reqs, result, rec = self._chaos_run(fp_model, "FP16")
        assert result.preemptions > 0, "chaos schedule must force preemption"
        assert result.cancelled == 1
        finished = {
            rid
            for rid, state in result.terminal_states.items()
            if state == "finished"
        }
        assert finished == {r.request_id for r in reqs} - {7}
        _assert_oracle_identical(engine.backend, reqs, expect=finished)
        _assert_clean_accounting(engine)

    def test_chaos_schedule_atom_quantized(self, atom_model):
        """The acceptance scenario: quantized numerics + chaos + preemption."""
        engine, reqs, result, _ = self._chaos_run(atom_model, "Atom-W4A4")
        assert result.preemptions > 0
        finished = {
            rid
            for rid, state in result.terminal_states.items()
            if state == "finished"
        }
        assert len(finished) == len(reqs) - 1
        _assert_oracle_identical(engine.backend, reqs, expect=finished)
        _assert_clean_accounting(engine)

    def test_preempted_request_was_mid_decode(self, fp_model):
        """The recompute path actually re-derives *generated* tokens: at
        least one victim had sampled tokens beyond its prompt when killed."""
        rec = TraceRecorder()
        engine = NumericBackend.engine_for(
            fp_model,
            SCHEMES["FP16"],
            max_batch=8,
            admission="dynamic",
            telemetry=rec,
        )
        backend = engine.backend
        victims = []  # (request_id, tokens held at preemption)
        orig_release = backend.on_release

        def spy(rid, reason):
            if reason == "preempted":
                victims.append((rid, len(backend.runner.tokens(rid))))
            orig_release(rid, reason)

        backend.on_release = spy
        shrink = engine._allocator.total_pages - 6
        plan = FaultPlan(
            page_faults=(
                PagePoolFault(iteration=3, delta_pages=-shrink),
                PagePoolFault(iteration=9, delta_pages=shrink),
            ),
        )
        reqs = _requests(8)
        result = engine.run(reqs, faults=plan)
        assert result.preemptions > 0
        by_id = {r.request_id: r for r in reqs}
        assert any(
            held > by_id[rid].prefill_len for rid, held in victims
        ), "no victim was past prefill — schedule no longer hits mid-decode"
        assert result.completed_requests == len(reqs)
        _assert_oracle_identical(backend, reqs)

    def test_recompute_restarts_from_scratch(self, fp_model):
        """Unit-level recompute-on-resume: release mid-decode, start again,
        replay — the token stream is identical both times."""
        runner = ModelRunner(fp_model, page_size=4)
        prefill, decode = 10, 6

        def run_once():
            runner.start(0, prefill)
            runner.prefill_chunk(0, 0, prefill)
            toks = [decode_one(runner, 0) for _ in range(decode - 1)]
            out = np.asarray(runner.tokens(0))
            runner.release(0)
            return toks, out

        first_toks, first = run_once()
        # Simulate preemption after 2 decode steps, then full recompute.
        runner.start(0, prefill)
        runner.prefill_chunk(0, 0, prefill)
        decode_one(runner, 0)
        decode_one(runner, 0)
        runner.release(0)  # killed mid-decode; pages freed
        assert runner.store.used_pages == 0
        second_toks, second = run_once()
        assert first_toks == second_toks
        np.testing.assert_array_equal(first, second)


class TestChunkedPrefill:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 16])
    @pytest.mark.parametrize(
        "scheme, fixture", [("FP16", "fp_model"), ("Atom-W4A4", "atom_model")]
    )
    def test_chunked_prefill_completes_with_clean_accounting(
        self, request, scheme, fixture, chunk
    ):
        """Chunked prefill runs the rowwise kernels at 1- to 16-row shapes;
        tokens still equal ``generate`` and every page is freed."""
        engine = NumericBackend.engine_for(
            request.getfixturevalue(fixture),
            SCHEMES[scheme],
            max_batch=4,
            admission="reserve",
            prefill_chunk=chunk,
        )
        reqs = _requests(4, prefill=17, decode=6)
        result = engine.run(reqs)
        assert result.completed_requests == len(reqs)
        for r in reqs:
            toks = engine.backend.generated_tokens(r.request_id)
            assert len(toks) == r.prefill_len + r.decode_len
        assert oracle_mismatches(engine, result, reqs) == []
        _assert_clean_accounting(engine)


class TestTelemetryTagging:
    def test_numeric_samples_and_result_are_tagged(self, fp_model):
        rec = TraceRecorder()
        engine = NumericBackend.engine_for(
            fp_model, SCHEMES["FP16"], max_batch=2, telemetry=rec
        )
        result = engine.run(_requests(2))
        assert result.backend == "numeric"
        assert "[numeric]" in result.summary()
        samples = [e for e in rec.events if e.event == "iteration"]
        assert samples
        assert all(s.backend == "numeric" for s in samples)
        assert all(s.to_dict()["backend"] == "numeric" for s in samples)


class TestGuards:
    def test_on_admit_rejects_requests_beyond_max_seq_len(self, fp_model):
        backend = NumericBackend(fp_model)
        too_long = Request(0, NUMERIC_TEST_CONFIG.max_seq_len, 8)
        with pytest.raises(ValueError, match="max_seq_len"):
            backend.on_admit(too_long)

    def test_runner_rejects_moe_models(self, moe_model):
        with pytest.raises(ValueError, match="dense"):
            ModelRunner(moe_model)

    def test_double_start_raises(self, fp_model):
        runner = ModelRunner(fp_model)
        runner.start(0, 8)
        with pytest.raises(KeyError):
            runner.start(0, 8)
        runner.release(0)

    def test_release_unknown_request_is_noop(self, fp_model):
        ModelRunner(fp_model).release(12345)

    def test_prefill_chunk_beyond_prompt_raises(self, fp_model):
        runner = ModelRunner(fp_model)
        runner.start(0, 8)
        with pytest.raises(ValueError, match="exceeds prompt"):
            runner.prefill_chunk(0, 0, 9)
        runner.release(0)


class TestBatchedVsSequential:
    """The fused cross-request decode path (``decode_batch``) must be
    bit-identical to the runner-level per-request reference
    (``decode_one``) and to the ``generate`` oracle — tokens, terminal
    states, and per-request rng streams — including under pinned chaos
    schedules with mid-decode preemption."""

    def _chaos_run(self, model, *, seed, numeric=True):
        scheme = (
            SCHEMES["FP16"] if model.config.name == "numeric-test"
            else SCHEMES["Atom-W4A4"]
        )
        kwargs = dict(max_batch=8, admission="dynamic")
        if numeric:
            engine = NumericBackend.engine_for(
                model, scheme, seed=seed, **kwargs
            )
        else:
            # The same schedule on the analytic backend: no tokens, same
            # simulated clock and page accounting.
            engine = ServingEngine(
                serving_spec_for(model.config), scheme, **kwargs
            )
        # Same chaos family as TestPreemptionRecompute, with the fault
        # schedule and victim varied by the pinned seed.
        shrink = engine._allocator.total_pages - 6
        plan = FaultPlan(
            page_faults=(
                PagePoolFault(iteration=3 + seed % 3, delta_pages=-shrink),
                PagePoolFault(iteration=9 + seed % 3, delta_pages=shrink),
            ),
            cancellations=(CancelFault(iteration=5, request_id=seed % 8),),
            stragglers=(StragglerFault(iteration=4, factor=3.0),),
        )
        reqs = _requests(8)
        result = engine.run(reqs, faults=plan)
        return engine, reqs, result

    def _assert_schedule_matches_analytic(self, model, seed, result):
        """Executing real numerics never perturbs the schedule."""
        _, _, ref = self._chaos_run(model, seed=seed, numeric=False)
        assert result.terminal_states == ref.terminal_states
        assert result.preemptions == ref.preemptions
        assert result.total_time_s == ref.total_time_s

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_chaos_tokens_identical_across_paths(self, fp_model, seed):
        """Fused paged decode == dense-cache generate, token for token."""
        engine, reqs, result = self._chaos_run(fp_model, seed=seed)
        assert result.preemptions > 0, "chaos schedule must force preemption"
        self._assert_schedule_matches_analytic(fp_model, seed, result)
        finished = {
            rid
            for rid, state in result.terminal_states.items()
            if state == "finished"
        }
        assert finished
        _assert_oracle_identical(engine.backend, reqs, expect=finished)
        _assert_clean_accounting(engine)

    def test_chaos_atom_quantized_identical_across_paths(self, atom_model):
        engine, reqs, result = self._chaos_run(atom_model, seed=0)
        assert result.preemptions > 0
        self._assert_schedule_matches_analytic(atom_model, 0, result)
        finished = {
            rid
            for rid, state in result.terminal_states.items()
            if state == "finished"
        }
        assert finished
        _assert_oracle_identical(engine.backend, reqs, expect=finished)
        _assert_clean_accounting(engine)

    def test_rng_streams_advance_identically(self, fp_model):
        """Satellite: sampled decoding (temperature > 0) consumes each
        request's rng stream identically on both paths — same tokens AND
        same post-run ``bit_generator.state``."""

        def run(batched):
            runner = ModelRunner(fp_model, temperature=0.7, seed=9)
            ids = list(range(5))
            for i in ids:
                runner.start(i, 8 + 3 * i)
                runner.prefill_chunk(i, 0, 8 + 3 * i)
            for _ in range(6):
                if batched:
                    runner.decode_batch(ids)
                else:
                    for i in ids:
                        decode_one(runner, i)
            states = {
                i: runner._states[i].rng.bit_generator.state for i in ids
            }
            tokens = {i: runner.tokens(i).tolist() for i in ids}
            return states, tokens

        states_b, tokens_b = run(batched=True)
        states_s, tokens_s = run(batched=False)
        assert tokens_b == tokens_s
        assert states_b == states_s

    def test_batch_order_does_not_matter(self, fp_model):
        """Cross-request sampling order is irrelevant: each request has its
        own rng stream, so reversing the batch changes nothing."""

        def run(order):
            runner = ModelRunner(fp_model, temperature=0.5, seed=2)
            ids = [0, 1, 2, 3]
            for i in ids:
                runner.start(i, 10 + i)
                runner.prefill_chunk(i, 0, 10 + i)
            for _ in range(5):
                runner.decode_batch(order(ids))
            return {i: runner.tokens(i).tolist() for i in ids}

        assert run(lambda ids: ids) == run(lambda ids: list(reversed(ids)))

    def test_decode_batch_guards(self, fp_model):
        runner = ModelRunner(fp_model)
        assert runner.decode_batch([]) == []
        runner.start(0, 8)
        runner.prefill_chunk(0, 0, 8)
        with pytest.raises(ValueError, match="duplicate"):
            runner.decode_batch([0, 0])
        runner.release(0)

    def test_prompt_and_seed_derivations_are_cached(self, fp_model):
        """Satellite: repeated derivations return the cached objects and
        still equal the pure-function originals."""
        runner = ModelRunner(fp_model, seed=3)
        p1 = runner.prompt_for(4, 12)
        assert runner.prompt_for(4, 12) is p1
        np.testing.assert_array_equal(
            p1,
            synthetic_prompt(4, 12, fp_model.config.vocab_size, seed=3),
        )
        k1 = runner.seed_for(4)
        assert runner.seed_for(4) is k1
        assert k1 == [3, 1, 4]
        # rng_for must NOT be cached: recompute needs a fresh stream.
        assert runner.rng_for(4) is not runner.rng_for(4)


class TestSyntheticPrompts:
    def test_pure_function_of_seed_and_id(self):
        a = synthetic_prompt(3, 16, 80, seed=1)
        b = synthetic_prompt(3, 16, 80, seed=1)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, synthetic_prompt(4, 16, 80, seed=1))
        assert not np.array_equal(a, synthetic_prompt(3, 16, 80, seed=2))

    def test_tokens_in_vocab_range(self):
        p = synthetic_prompt(0, 64, 80, seed=0)
        assert p.shape == (64,)
        assert p.dtype == np.int64
        assert p.min() >= 0 and p.max() < 80

    def test_prompt_independent_of_sampling_stream(self, fp_model):
        """Prompt rng and sampling rng use distinct keys — a request's
        prompt never depends on how many tokens were sampled."""
        runner = ModelRunner(fp_model, seed=5)
        before = runner.prompt_for(2, 12)
        runner.rng_for(2).integers(0, 100, size=50)  # drain a sampler
        np.testing.assert_array_equal(before, runner.prompt_for(2, 12))
