"""Traced run: span wrappers around each layer and the per-layer metrics.

Layer boundaries (module names as in ``src/repro``):

- ``serving.engine``: ``EngineRun.step`` (opened by the load loop) and the
  backend's ``execute_step``;
- ``serving.model_runner``: ``prefill_chunk``, ``decode_batch``,
  ``sample_token``;
- ``models.llama``: ``LlamaModel.forward`` / ``forward_batch``;
- ``core.linear``: every linear's ``__call__`` / ``forward_rowwise``;
- ``core.kv_quant``: the model's KV codec ``encode_decode``;
- ``serving.paged_kv``: ``PagedKVCache.append`` / ``gather`` /
  ``append_batch`` / ``gather_batch``;
- ``serving.prefix_cache``: ``acquire`` / ``release`` / ``intern_*`` /
  ``evict_pages``;
- set-up: ``gptq_quantize`` as the quantizers call it.
"""

from __future__ import annotations

import statistics

import repro.baselines.mixedbit as mixedbit_mod
import repro.core.atom as atom_mod
import repro.serving.model_runner as runner_mod
from repro.serving.paged_kv import PagedKVCache

from servebench.serve import setup_phases
from servebench.stats import percentile
from servebench.tracing import Tracer

_LINEAR = "linear"

#: Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "engine.step_ms_p50": "ms",
    "engine.self_ms_per_step": "ms",
    "engine.batch_mean": "count",
    "engine.queue_wait_ms_p50": "ms",
    "engine.preemptions": "count",
    "runner.prefill_ms_per_tok": "ms",
    "runner.decode_ms_per_tok": "ms",
    "runner.sample_us_per_tok": "us",
    "model.decode_self_ms_per_step": "ms",
    "model.prefill_self_ms_per_tok": "ms",
    "linear.decode_ms_per_step": "ms",
    "linear.decode_share": "1",
    "linear.prefill_ms_per_tok": "ms",
    "linear.calls_per_step": "count",
    "linear.quant_share": "1",
    "kvcodec.us_per_tok": "us",
    "kv.append_us_per_tok": "us",
    "kv.gather_ms_per_step": "ms",
    "kv.pages_peak": "pages",
    "kv.reserved_over_used": "1",
    "prefix.hit_rate": "1",
    "prefix.reuse_frac": "1",
    "prefix.self_ms_per_req": "ms",
    "prefix.evicted_pages": "pages",
    "setup.build_s": "s",
    "setup.quantize_s": "s",
    "setup.gptq_s": "s",
    "setup.engine_s": "s",
    "setup.warmup_s": "s",
    "host.ref_ms": "ms",
    "host.correction": "1",
    "host.steal_frac": "1",
    "gen.lag_ms_p90": "ms",
    "trace.overhead_frac": "1",
}
_PREFIX_METHODS = ("acquire", "release", "intern_prefill", "intern_finished", "evict_pages")


class _PhaseSink:
    """Stands in for a linear's telemetry sink; sums kernel phases."""

    enabled = True

    def __init__(self) -> None:
        self.t_quant = 0.0
        self.t_dense = 0.0

    def iteration_sample(self, **m) -> None:
        self.t_quant += m.get("t_quant", 0.0)
        self.t_dense += m.get("t_dense", 0.0)


class LayerTracer(Tracer):
    """A :class:`Tracer` that knows where the program's layers are."""

    def __init__(self, clock) -> None:
        super().__init__(clock)
        self.phases = _PhaseSink()

    def install_setup(self) -> None:
        for mod in (atom_mod, mixedbit_mod):
            self.patch(mod, "gptq_quantize", "setup.gptq")

    def install_model(self, model) -> None:
        rows = lambda self_, x: x.shape[0]  # noqa: E731
        for cls in {type(lin) for lin in model.linears.values()}:
            self.patch(cls, "__call__", _LINEAR, count=rows)
            self.patch(cls, "forward_rowwise", _LINEAR, count=rows)
        for lin in model.linears.values():
            if hasattr(lin, "telemetry"):
                self.set(lin, "telemetry", self.phases)
        self.patch(model, "forward", "model.forward", count=lambda tokens, **_: tokens.size)
        self.patch(model, "forward_batch", "model.forward_batch", count=lambda tokens, *a: len(tokens))
        self.patch(
            model.kv_codec,
            "encode_decode",
            "kvcodec",
            count=lambda kv, kind: kv.shape[0] * kv.shape[2],
        )
        self.patch(PagedKVCache, "append", "kv.append", count=lambda self_, k, v: k.shape[2])
        self.patch(PagedKVCache, "gather", "kv.gather")
        self.patch(
            PagedKVCache, "append_batch", "kv.append", count=lambda cls, caches, k, v: len(caches)
        )
        self.patch(PagedKVCache, "gather_batch", "kv.gather_batch", count=lambda cls, caches: len(caches))
        self.patch(runner_mod, "sample_token", "runner.sample")

    def attach(self, engine) -> None:
        """Wrap one fresh engine's backend, runner and prefix cache."""
        backend = engine.backend
        runner = backend.runner
        self.patch(backend, "execute_step", "engine.execute_step")
        self.patch(
            runner,
            "prefill_chunk",
            "runner.prefill",
            count=lambda rid, prefix_len, chunk: chunk,
            rid=lambda rid, *a: rid,
        )
        self.patch(runner, "decode_batch", "runner.decode", count=lambda ids: len(ids))
        for meth in _PREFIX_METHODS:
            self.patch(engine.prefix_cache, meth, "prefix." + meth)


def _ancestor_is(names, parents, i, target) -> bool:
    p = parents[i]
    return p >= 0 and names[p] == target


def per_layer(tr: LayerTracer, windows, c: float, extra: dict) -> dict:
    """Per-layer metrics from the traced windows; times corrected by ``c``."""
    names, starts, ends, parents, counts = tr.names, tr.starts, tr.ends, tr.parents, tr.counts
    selfs = tr.self_times()
    dur = [e - s for s, e in zip(starts, ends)]
    idx: dict = {}
    for i, n in enumerate(names):
        idx.setdefault(n, []).append(i)

    def tot(name, values=dur, where=None):
        return sum(values[i] for i in idx.get(name, []) if where is None or where(i))

    def cnt(name, where=None):
        return sum(counts[i] for i in idx.get(name, []) if where is None or where(i))

    def ratio(a, b):
        return a / b if b else 0.0

    ms, us = 1e3 * c, 1e6 * c
    steps = idx.get("engine.step", [])
    n_steps = len(steps)
    n_decode = len(idx.get("model.forward_batch", []))
    decode_toks = cnt("runner.decode")
    prefill_toks = cnt("runner.prefill")
    under_fb = lambda i: _ancestor_is(names, parents, i, "model.forward_batch")  # noqa: E731
    under_fw = lambda i: _ancestor_is(names, parents, i, "model.forward")  # noqa: E731
    lin_decode = tot(_LINEAR, where=under_fb)
    exec_of_step = {parents[i]: dur[i] for i in idx.get("engine.execute_step", [])}
    engine_self = [dur[i] - exec_of_step.get(i, 0.0) for i in steps]
    step_p50 = percentile([dur[i] for i in steps], 0.5)
    queue = [
        w.admitted[r] - w.due[r] for w in windows for r in w.admitted
    ]
    q50 = percentile(queue, 0.5)
    kv_res = sum(s[0] for w in windows for s in w.kv_samples)
    kv_phys = sum(s[1] for w in windows for s in w.kv_samples)
    sent = sum(len(w.requests) for w in windows)
    prompt_toks = sum(r.prefill_len for w in windows for r in w.requests.values())
    phases = tr.phases
    m = {
        "engine.step_ms_p50": (step_p50 or 0.0) * ms,
        "engine.self_ms_per_step": ratio(sum(engine_self), n_steps) * ms,
        "engine.batch_mean": ratio(decode_toks, len(idx.get("runner.decode", []))),
        "engine.queue_wait_ms_p50": (q50 or 0.0) * ms,
        "engine.preemptions": sum(w.preemptions for w in windows),
        "runner.prefill_ms_per_tok": ratio(tot("runner.prefill"), prefill_toks) * ms,
        "runner.decode_ms_per_tok": ratio(tot("runner.decode"), decode_toks) * ms,
        "runner.sample_us_per_tok": ratio(tot("runner.sample"), len(idx.get("runner.sample", []))) * us,
        "model.decode_self_ms_per_step": ratio(tot("model.forward_batch", selfs), n_decode) * ms,
        "model.prefill_self_ms_per_tok": ratio(tot("model.forward", selfs), prefill_toks) * ms,
        "linear.decode_ms_per_step": ratio(lin_decode, n_decode) * ms,
        "linear.decode_share": ratio(lin_decode, tot("engine.step")),
        "linear.prefill_ms_per_tok": ratio(tot(_LINEAR, where=under_fw), prefill_toks) * ms,
        "linear.calls_per_step": ratio(len([i for i in idx.get(_LINEAR, []) if under_fb(i)]), n_decode),
        "linear.quant_share": ratio(phases.t_quant, phases.t_quant + phases.t_dense),
        "kvcodec.us_per_tok": ratio(tot("kvcodec"), cnt("kvcodec")) * us,
        "kv.append_us_per_tok": ratio(tot("kv.append", selfs), cnt("kv.append")) * us,
        "kv.gather_ms_per_step": ratio(tot("kv.gather_batch"), n_decode) * ms,
        "kv.pages_peak": max((s[1] for w in windows for s in w.kv_samples), default=0.0),
        "kv.reserved_over_used": ratio(kv_res, kv_phys),
        "prefix.hit_rate": ratio(
            sum(w.prefix["hits"] for w in windows), sum(w.prefix["lookups"] for w in windows)
        ),
        "prefix.reuse_frac": ratio(sum(w.prefix["kv_tokens"] for w in windows), prompt_toks),
        "prefix.self_ms_per_req": ratio(
            sum(tot("prefix." + m_, selfs) for m_ in _PREFIX_METHODS), sent
        ) * ms,
        "prefix.evicted_pages": sum(w.prefix["evicted_pages"] for w in windows),
    }
    m.update(extra)
    return m


def setup_metrics(setup, timeline) -> dict:
    """Median set-up phase times, each corrected over its own interval."""
    phases = setup_phases(setup, timeline.span)
    med = lambda k: statistics.median(p[k] for p in phases)  # noqa: E731
    return {
        "setup.build_s": med("build"),
        "setup.quantize_s": med("quantize"),
        "setup.engine_s": med("engine"),
        "setup.warmup_s": med("warmup"),
    }
