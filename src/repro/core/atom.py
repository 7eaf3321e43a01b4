"""The Atom model-level quantization pipeline (§4.5, Fig. 6).

``AtomQuantizer(config).quantize(model)`` performs the full offline process
of §5.1 on an inference :class:`~repro.models.llama.LlamaModel`:

1. sample calibration tokens (the analog of 128 WikiText2 sentences);
2. capture per-site calibration activations in one forward pass;
3. per activation site: identify outlier channels by square sum and build
   the reorder permutation (shared by all consumers of the site — including
   all experts of an MoE FFN, the paper's footnote 4);
4. per linear: statically reorder the weight columns, quantize the body with
   GPTQ (or RTN) using grouped scales and the weight clip factor, keep the
   outlier tail in INT8 (or FP16 / FP8, configurable);
5. install :class:`~repro.core.linear.AtomLinear` executors that perform the
   dynamic activation quantization + integer GEMM at run time;
6. install the asymmetric KV-cache codec.

With ``config.sequential=True``, calibration proceeds layer by layer: layer
``i``'s outliers and Hessians are measured on activations produced by the
ALREADY-QUANTIZED layers ``0..i-1`` (the GPTQ-paper protocol), which lets
later layers compensate accumulated quantization drift.  It is O(L) in total
layer executions: the calibration hidden states are carried forward through
each freshly quantized layer
(:meth:`~repro.models.llama.LlamaModel.forward_layer`) instead of re-running
the whole model per layer (the O(L^2) full-forward reference, bit-identical, is
the test oracle in ``tests/core/reference.py``).

The returned model is a fresh clone; the input model is untouched.

Robustness (this is the long offline stage, so it is crash-safe and
numerically guarded):

- ``quantize(..., checkpoint_dir=...)`` persists one atomic, checksummed
  checkpoint per quantized layer (:mod:`repro.core.checkpoint`) — emitted
  codes/scales/permutations plus, in sequential-resume mode, the carried
  float32 hidden state — and resumes from the last valid layer.  A resumed
  run is bit-identical to an uninterrupted one.  Corrupt / mismatched
  checkpoints raise :class:`~repro.core.checkpoint.CheckpointError`;
  ``force_restart=True`` discards the directory instead.
- Every run accumulates a :class:`~repro.quant.guards.QuantHealthReport`
  (``quantizer.health``): non-finite calibration activations, degenerate
  scales, Hessian damping escalations and RTN fallbacks are recorded rather
  than silently propagated.  ``strict=True`` (or
  ``ATOM_REPRO_STRICT_GUARDS=1``) raises typed
  :class:`~repro.quant.guards.NumericalError` on non-finite data instead.
- A telemetry sink (e.g. :class:`~repro.serving.telemetry.TraceRecorder`,
  or any object with an ``emit(event_cls, **fields)`` method) receives
  typed :class:`~repro.serving.telemetry.PipelineStage` events
  (``layer_start`` / ``layer_quantized`` / ``checkpoint_saved`` /
  ``checkpoint_resume`` / ``pipeline_done``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.checkpoint import CheckpointError, CheckpointStore, pipeline_fingerprint
from repro.core.config import AtomConfig
from repro.core.gptq import SlicedWeight, gptq_quantize, hessian, rtn_weight_quantize
from repro.core.groups import GroupSlice, make_group_slices
from repro.core.kv_quant import AtomKVCodec
from repro.core.linear import AtomLinear
from repro.core.outliers import (
    identify_outliers,
    reorder_permutation,
    sample_calibration_tokens,
)
from repro.models.llama import LlamaModel, input_site
from repro.quant.error import relative_error
from repro.quant.guards import QuantHealthReport, check_finite, strict_mode_default
from repro.serving.telemetry import PipelineStage

__all__ = ["AtomQuantizer", "QuantizationReport"]


def _stage(telemetry, stage: str, layer: int, *, value: float = 0.0, detail: str = "") -> None:
    """Emit one pipeline-stage event to a telemetry sink (if any)."""
    if telemetry is not None:
        telemetry.emit(PipelineStage, stage=stage, layer=layer, detail=detail, value=value)


@dataclass
class QuantizationReport:
    """Diagnostics of one quantization run."""

    weight_errors: dict[str, float] = field(default_factory=dict)
    outlier_channels: dict[str, np.ndarray] = field(default_factory=dict)
    effective_weight_bits: dict[str, float] = field(default_factory=dict)

    @property
    def mean_weight_error(self) -> float:
        if not self.weight_errors:
            return 0.0
        return float(np.mean(list(self.weight_errors.values())))


class AtomQuantizer:
    """Applies the Atom recipe to a model.

    ``strict=None`` defaults to the ``ATOM_REPRO_STRICT_GUARDS`` environment
    switch; ``True`` makes non-finite data raise
    :class:`~repro.quant.guards.NumericalError` mid-pipeline (CI mode)
    instead of being recorded-and-sanitized in ``self.health``.
    """

    def __init__(
        self, config: AtomConfig | None = None, *, strict: bool | None = None
    ) -> None:
        self.config = config or AtomConfig()
        self.report = QuantizationReport()
        self.strict = strict_mode_default() if strict is None else strict
        self.health = QuantHealthReport(strict=self.strict)

    # ------------------------------------------------------------------ #
    def _resolve_n_outlier(self, model: LlamaModel) -> int:
        if self.config.n_outlier is not None:
            return self.config.n_outlier
        return model.config.n_outlier

    def _resolve_group(self, model: LlamaModel) -> int | None:
        if self.config.group_size is None:
            return None
        # The paper's 128-wide groups on 4096 channels scale down to the
        # model config's structural group size on our analog models; any
        # explicitly smaller value is honoured as-is (ablation sweeps).
        if self.config.group_size >= 128:
            return model.config.group_size
        return self.config.group_size

    # ------------------------------------------------------------------ #
    def _layer_linears(self, model: LlamaModel) -> dict[int, list[str]]:
        """Quantizable linears grouped by decoder layer, execution order."""
        by_layer: dict[int, list[str]] = {}
        for name in model.linear_names():
            layer = int(name.split(".")[1])
            by_layer.setdefault(layer, []).append(name)
        return by_layer

    def _quantize_layer(
        self,
        source: LlamaModel,
        qmodel: LlamaModel,
        linears: list[str],
        site_acts: dict[str, np.ndarray],
        n_outlier: int,
        group_size: int | None,
    ) -> None:
        """Quantize one layer's linears given its calibration activations."""
        cfg = self.config
        perms: dict[str, np.ndarray | None] = {}
        hessians: dict[str, np.ndarray] = {}
        for site, acts in site_acts.items():
            if not check_finite(acts, where=site, health=self.health):
                # Non-strict: sanitize so downstream Hessians/scales stay
                # finite (the event is on record either way).
                acts = np.nan_to_num(acts, nan=0.0, posinf=0.0, neginf=0.0)
                site_acts[site] = acts
            if n_outlier > 0:
                idx = identify_outliers(acts, min(n_outlier, acts.shape[1] - 1))
                perm = reorder_permutation(acts.shape[1], idx)
                self.report.outlier_channels[site] = idx
            else:
                perm = None
            perms[site] = perm
            if cfg.use_gptq:
                x = acts if perm is None else acts[:, perm]
                hessians[site] = hessian(x)

        mapping: dict[str, AtomLinear] = {}
        for name in linears:
            site = input_site(name)
            perm = perms[site]
            w = source.weights[name].astype(np.float64)
            w_r = w if perm is None else w[:, perm]
            slices = make_group_slices(
                w.shape[1],
                n_outlier=min(n_outlier, w.shape[1] - 1) if n_outlier else 0,
                group_size=group_size,
                body_bits=cfg.w_bits,
                outlier_bits=cfg.outlier_bits,
                outlier_fmt=cfg.outlier_fmt,
            )
            if cfg.use_gptq:
                sliced = gptq_quantize(
                    w_r,
                    hessians[site],
                    slices,
                    clip=cfg.weight_clip,
                    fmt=cfg.fmt,
                    act_order=cfg.act_order,
                    health=self.health,
                    where=name,
                )
            else:
                sliced = rtn_weight_quantize(
                    w_r,
                    slices,
                    clip=cfg.weight_clip,
                    fmt=cfg.fmt,
                    health=self.health,
                    where=name,
                )
            impl = AtomLinear(
                sliced,
                perm=perm,
                a_bits=cfg.a_bits,
                act_clip=cfg.act_clip,
                fmt=cfg.fmt,
            )
            mapping[name] = impl
            self.report.weight_errors[name] = relative_error(
                w, impl.dequantized_weight()
            )
            self.report.effective_weight_bits[name] = impl.effective_weight_bits()
        qmodel.replace_linears(mapping)

    @staticmethod
    def _of_layer(
        site_acts: dict[str, np.ndarray], layer: int
    ) -> dict[str, np.ndarray]:
        """The sites of decoder layer ``layer``."""
        prefix = f"layers.{layer}."
        return {s: a for s, a in site_acts.items() if s.startswith(prefix)}

    # ------------------------------------------------------------------ #
    # Checkpoint payloads
    # ------------------------------------------------------------------ #
    def _layer_payload(
        self,
        qmodel: LlamaModel,
        linears: list[str],
        sites: list[str],
        hidden: np.ndarray | None,
    ) -> tuple[dict[str, np.ndarray], dict]:
        """Arrays + metadata capturing one quantized layer exactly."""
        arrays: dict[str, np.ndarray] = {}
        meta_linears: dict[str, dict] = {}
        for name in linears:
            lin = qmodel.parts[name]
            sw = lin.weight
            if lin.perm is not None:
                arrays[f"{name}|perm"] = lin.perm
            scale_none: list[bool] = []
            for i, (codes, scale) in enumerate(zip(sw.codes, sw.scales)):
                arrays[f"{name}|code{i}"] = codes
                scale_none.append(scale is None)
                if scale is not None:
                    arrays[f"{name}|scale{i}"] = scale
            meta_linears[name] = {
                "fmt": sw.fmt,
                "has_perm": lin.perm is not None,
                "scale_none": scale_none,
                "slices": [
                    [s.start, s.stop, s.bits, s.is_outlier, s.fmt]
                    for s in sw.slices
                ],
                "weight_error": self.report.weight_errors[name],
                "effective_bits": self.report.effective_weight_bits[name],
            }
        site_list: list[str] = []
        for site in sites:
            if site in self.report.outlier_channels:
                arrays[f"site|{site}"] = self.report.outlier_channels[site]
                site_list.append(site)
        if hidden is not None:
            arrays["hidden"] = hidden
        meta = {
            "linear_order": list(linears),
            "linears": meta_linears,
            "sites": site_list,
            "has_hidden": hidden is not None,
        }
        return arrays, meta

    def _install_layer(
        self, qmodel: LlamaModel, arrays: dict[str, np.ndarray], meta: dict
    ) -> None:
        """Reinstall a checkpointed layer bit-identically."""
        cfg = self.config
        mapping: dict[str, AtomLinear] = {}
        try:
            for name in meta["linear_order"]:
                lm = meta["linears"][name]
                slices = [
                    GroupSlice(
                        int(start),
                        int(stop),
                        None if bits is None else int(bits),
                        bool(outlier),
                        fmt,
                    )
                    for start, stop, bits, outlier, fmt in lm["slices"]
                ]
                codes: list[np.ndarray] = []
                scales: list[np.ndarray | None] = []
                for i, none in enumerate(lm["scale_none"]):
                    codes.append(arrays[f"{name}|code{i}"])
                    scales.append(None if none else arrays[f"{name}|scale{i}"])
                sliced = SlicedWeight(slices, codes, scales, lm["fmt"])
                perm = arrays[f"{name}|perm"] if lm["has_perm"] else None
                mapping[name] = AtomLinear(
                    sliced,
                    perm=perm,
                    a_bits=cfg.a_bits,
                    act_clip=cfg.act_clip,
                    fmt=cfg.fmt,
                )
                self.report.weight_errors[name] = float(lm["weight_error"])
                self.report.effective_weight_bits[name] = float(
                    lm["effective_bits"]
                )
            for site in meta["sites"]:
                self.report.outlier_channels[site] = arrays[f"site|{site}"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc
        qmodel.replace_linears(mapping)

    def _fingerprint(
        self,
        model: LlamaModel,
        calib_tokens: np.ndarray,
        n_outlier: int,
        group_size: int | None,
        mode: str,
    ) -> str:
        return pipeline_fingerprint(
            asdict(self.config),
            asdict(model.config),
            n_outlier,
            group_size,
            mode,
            np.asarray(calib_tokens),
        )

    # ------------------------------------------------------------------ #
    def quantize(
        self,
        model: LlamaModel,
        *,
        calib_tokens: np.ndarray | None = None,
        checkpoint_dir: "str | None" = None,
        force_restart: bool = False,
        telemetry=None,
    ) -> LlamaModel:
        """Return a quantized clone of ``model``.

        ``checkpoint_dir`` enables crash-safe per-layer checkpointing: each
        quantized layer is persisted atomically, and a rerun with the same
        (config, model, calibration) triple resumes from the last valid
        layer with bit-identical results.  Mismatched or corrupt checkpoint
        directories raise :class:`CheckpointError` unless
        ``force_restart=True`` discards them first.  ``telemetry`` (any sink
        with an ``emit`` method) receives per-layer stage events.
        """
        cfg = self.config
        self.health = QuantHealthReport(strict=self.strict)
        if calib_tokens is None:
            calib_tokens = sample_calibration_tokens(
                cfg.calib_sequences, cfg.calib_seq_len
            )
        n_outlier = self._resolve_n_outlier(model)
        group_size = self._resolve_group(model)
        qmodel = model.clone()
        by_layer = self._layer_linears(model)
        layers = sorted(by_layer)

        store = None
        done = -1
        if checkpoint_dir is not None:
            # The mode string is part of the fingerprint: keep it byte for
            # byte so existing checkpoint directories still resume.
            mode = "sequential-resume" if cfg.sequential else "one-shot"
            fp = self._fingerprint(model, calib_tokens, n_outlier, group_size, mode)
            store = CheckpointStore(checkpoint_dir, fingerprint=fp)
            if force_restart:
                store.reset()
            else:
                store.verify_compatible()
                done = min(store.last_contiguous_layer(), len(layers) - 1)

        # One-shot mode calibrates every site from the SOURCE model in a
        # single forward pass; skip the capture entirely when every layer is
        # already checkpointed.
        oneshot_acts: dict[str, np.ndarray] | None = None
        if not cfg.sequential and done < len(layers) - 1:
            oneshot_acts = model.capture_site_inputs(calib_tokens)

        # Sequential mode carries calibration hidden states forward; resumed
        # layers restore them from the checkpoint instead.
        x = qmodel.embed(calib_tokens) if cfg.sequential else None

        for layer in layers:
            linears = by_layer[layer]
            if store is not None and layer <= done:
                arrays, meta = store.load_layer(layer)
                self._install_layer(qmodel, arrays, meta)
                if cfg.sequential:
                    if "hidden" not in arrays:
                        raise CheckpointError(
                            f"{store.layer_path(layer)}: no carried hidden "
                            "state (checkpoint from a different mode?)"
                        )
                    x = arrays["hidden"]
                _stage(telemetry, "checkpoint_resume", layer, value=len(linears))
                continue
            _stage(telemetry, "layer_start", layer, value=len(linears))
            if cfg.sequential:
                # Layer-by-layer with activation-checkpoint resume: calibrate
                # layer i on hidden states already advanced through quantized
                # layers 0..i-1, then push the states through the freshly
                # quantized layer i.  Two layer executions per layer => O(L).
                site_acts = qmodel.capture_layer_site_inputs(x, layer)
            else:
                site_acts = self._of_layer(oneshot_acts, layer)
            self._quantize_layer(
                model, qmodel, linears, site_acts, n_outlier, group_size
            )
            if cfg.sequential:
                x = qmodel.forward_layer(x, layer)
            _stage(telemetry, "layer_quantized", layer, value=len(linears))
            if store is not None:
                arrays, meta = self._layer_payload(
                    qmodel, linears, list(site_acts), x
                )
                store.save_layer(layer, arrays, meta)
                _stage(telemetry, "checkpoint_saved", layer)

        if cfg.kv_bits is not None:
            qmodel.kv_codec = AtomKVCodec(cfg.kv_bits)
        _stage(telemetry, "pipeline_done", layers[-1] if layers else -1)
        return qmodel
