"""Crash-safe checkpoint/resume: bit-identity, corruption detection, doctor.

The kill-and-resume tests simulate a mid-pipeline crash by injecting a
telemetry sink that raises right after layer ``k``'s checkpoint is persisted,
then rerun ``quantize`` against the same directory and assert the resumed
model is bit-identical to an uninterrupted run (codes, scales, permutations,
report entries, and end-to-end logits).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.bench.perf import BENCH_MODEL_CONFIG, build_bench_model
from repro.core import AtomConfig, AtomQuantizer, CheckpointError, CheckpointStore
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA,
    atomic_write_bytes,
    pipeline_fingerprint,
    validate_checkpoint_dir,
)
from repro.serving.telemetry import PipelineStage

TINY_CONFIG = dataclasses.replace(
    BENCH_MODEL_CONFIG,
    name="ckpt-test",
    dim=96,
    ffn_dim=160,
    n_layers=3,
    vocab_size=60,
    n_heads=4,
    n_kv_heads=2,
    n_outlier=8,
    max_seq_len=64,
)

#: Checkpoint fingerprints of TINY_CONFIG quantized on ``calib`` with
#: ``AtomConfig.paper_default()`` in each pipeline mode.
PINNED_FINGERPRINTS = {
    "one-shot": (
        "b4ee879695cf3ced7a2969d0f20feebe1e3d9e515a25adde63346c6f3d330e96"
    ),
    "sequential-resume": (
        "634930692682124e381d1e5c5437e873a4eab319a023e0f9daf2903cbd45c6cb"
    ),
}


@pytest.fixture(scope="module")
def tiny_model():
    return build_bench_model(TINY_CONFIG)


@pytest.fixture(scope="module")
def calib():
    rng = np.random.default_rng(7)
    return rng.integers(0, TINY_CONFIG.vocab_size, size=(2, 16))


class CrashAfterSave:
    """Telemetry sink that raises right after layer ``k`` is checkpointed."""

    def __init__(self, layer: int) -> None:
        self.layer = layer

    def emit(self, event_cls, *, stage, layer, **_):
        assert event_cls is PipelineStage
        if stage == "checkpoint_saved" and layer == self.layer:
            raise RuntimeError("injected crash")


class StageLog:
    def __init__(self) -> None:
        self.stages: list[tuple[str, int]] = []

    def emit(self, event_cls, *, stage, layer, **_):
        assert event_cls is PipelineStage
        self.stages.append((stage, layer))


def assert_models_bit_identical(a, b):
    assert set(a.parts) == set(b.parts)
    for name in a.parts:
        la, lb = a.parts[name], b.parts[name]
        if la.perm is None:
            assert lb.perm is None, name
        else:
            assert np.array_equal(la.perm, lb.perm), name
        assert [dataclasses.astuple(s) for s in la.weight.slices] == [
            dataclasses.astuple(s) for s in lb.weight.slices
        ], name
        for ca, cb in zip(la.weight.codes, lb.weight.codes):
            assert ca.dtype == cb.dtype and np.array_equal(ca, cb), name
        for sa, sb in zip(la.weight.scales, lb.weight.scales):
            if sa is None:
                assert sb is None, name
            else:
                assert np.array_equal(sa, sb), name


# --------------------------------------------------------------------------- #
# CheckpointStore unit behavior
# --------------------------------------------------------------------------- #
class TestCheckpointStore:
    def _store(self, tmp_path, fp="fp-a"):
        return CheckpointStore(tmp_path / "ckpt", fingerprint=fp)

    def test_save_load_roundtrip(self, tmp_path, rng):
        store = self._store(tmp_path)
        arrays = {
            "codes": rng.integers(-8, 8, size=(4, 6)).astype(np.int8),
            "scale": rng.normal(size=(4, 1)),
        }
        meta = {"linear_order": ["wq"], "note": "x"}
        store.save_layer(0, arrays, meta)
        out, meta2 = store.load_layer(0)
        assert np.array_equal(out["codes"], arrays["codes"])
        assert np.array_equal(out["scale"], arrays["scale"])
        assert meta2["linear_order"] == ["wq"]
        assert meta2["schema"] == CHECKPOINT_SCHEMA
        assert meta2["layer"] == 0

    def test_no_tmp_litter(self, tmp_path, rng):
        store = self._store(tmp_path)
        store.save_layer(0, {"a": rng.normal(size=3)}, {})
        assert not list(store.dir.glob("*.tmp"))

    def test_last_contiguous_layer(self, tmp_path, rng):
        store = self._store(tmp_path)
        assert store.last_contiguous_layer() == -1
        for k in (0, 1, 3):
            store.save_layer(k, {"a": rng.normal(size=2)}, {})
        assert store.last_contiguous_layer() == 1

    def test_flipped_byte_detected(self, tmp_path, rng):
        store = self._store(tmp_path)
        store.save_layer(0, {"a": rng.normal(size=64)}, {})
        path = store.layer_path(0)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            store.load_layer(0)

    def test_fingerprint_mismatch(self, tmp_path, rng):
        store = self._store(tmp_path, fp="fp-a")
        store.save_layer(0, {"a": rng.normal(size=2)}, {})
        other = CheckpointStore(store.dir, fingerprint="fp-b")
        with pytest.raises(CheckpointError, match="fingerprint"):
            other.verify_compatible()
        with pytest.raises(CheckpointError, match="fingerprint"):
            other.load_layer(0)

    def test_layers_without_manifest_rejected(self, tmp_path, rng):
        store = self._store(tmp_path)
        store.save_layer(0, {"a": rng.normal(size=2)}, {})
        store.manifest_path.unlink()
        with pytest.raises(CheckpointError, match="no manifest"):
            store.verify_compatible()

    def test_schema_mismatch_rejected(self, tmp_path):
        store = self._store(tmp_path)
        atomic_write_bytes(
            store.manifest_path,
            json.dumps({"schema": "atom-repro/other/v9", "fingerprint": "fp-a"}).encode(),
        )
        with pytest.raises(CheckpointError, match="schema"):
            store.verify_compatible()

    def test_wrong_layer_index_rejected(self, tmp_path, rng):
        store = self._store(tmp_path)
        store.save_layer(0, {"a": rng.normal(size=2)}, {})
        store.layer_path(0).rename(store.layer_path(2))
        with pytest.raises(CheckpointError, match="layer"):
            store.load_layer(2)

    def test_reset_clears_everything(self, tmp_path, rng):
        store = self._store(tmp_path)
        store.save_layer(0, {"a": rng.normal(size=2)}, {})
        store.reset()
        assert store.last_contiguous_layer() == -1
        assert not store.manifest_path.exists()

    def test_validate_reports_problems(self, tmp_path, rng):
        store = self._store(tmp_path)
        for k in range(2):
            store.save_layer(k, {"a": rng.normal(size=16)}, {})
        assert store.validate() == []
        raw = bytearray(store.layer_path(1).read_bytes())
        raw[-20] ^= 0xFF
        store.layer_path(1).write_bytes(bytes(raw))
        problems = store.validate()
        assert problems and any("layer_00001" in p for p in problems)

    def test_validate_checkpoint_dir_on_missing(self, tmp_path):
        assert validate_checkpoint_dir(tmp_path / "nope") == [
            f"{tmp_path / 'nope'}: not a directory"
        ]

    def test_fingerprint_sensitivity(self):
        a = pipeline_fingerprint({"x": 1}, np.arange(4))
        assert a == pipeline_fingerprint({"x": 1}, np.arange(4))
        assert a != pipeline_fingerprint({"x": 2}, np.arange(4))
        assert a != pipeline_fingerprint({"x": 1}, np.arange(5))
        assert a != pipeline_fingerprint({"x": 1}, np.arange(4).astype(np.int32))


# --------------------------------------------------------------------------- #
# Pipeline kill-and-resume
# --------------------------------------------------------------------------- #
class TestKillAndResume:
    @pytest.mark.parametrize("sequential", [False, True],
                             ids=["one-shot", "sequential-resume"])
    def test_resume_is_bit_identical(self, tiny_model, calib, tmp_path, sequential):
        cfg = AtomConfig.paper_default().with_(sequential=sequential)
        ref_q = AtomQuantizer(cfg)
        ref = ref_q.quantize(tiny_model, calib_tokens=calib)

        ckpt = tmp_path / "ckpt"
        crashed = AtomQuantizer(cfg)
        with pytest.raises(RuntimeError, match="injected crash"):
            crashed.quantize(
                tiny_model,
                calib_tokens=calib,
                checkpoint_dir=ckpt,
                telemetry=CrashAfterSave(1),
            )
        # Layers 0..1 persisted, 2 lost.
        assert sorted(p.name for p in ckpt.glob("layer_*.npz")) == [
            "layer_00000.npz",
            "layer_00001.npz",
        ]

        log = StageLog()
        resumed_q = AtomQuantizer(cfg)
        resumed = resumed_q.quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt, telemetry=log
        )
        # Layers 0..1 came from disk, only layer 2 was recomputed.
        assert [s for s in log.stages if s[0] == "checkpoint_resume"] == [
            ("checkpoint_resume", 0),
            ("checkpoint_resume", 1),
        ]
        assert [s for s in log.stages if s[0] == "layer_quantized"] == [
            ("layer_quantized", 2)
        ]

        assert_models_bit_identical(ref, resumed)
        assert resumed_q.report.weight_errors == ref_q.report.weight_errors
        assert (
            resumed_q.report.effective_weight_bits
            == ref_q.report.effective_weight_bits
        )
        for site, idx in ref_q.report.outlier_channels.items():
            assert np.array_equal(resumed_q.report.outlier_channels[site], idx)

        # End-to-end: identical logits (hence identical perplexity).
        tokens = np.arange(12) % TINY_CONFIG.vocab_size
        np.testing.assert_array_equal(
            ref.forward(tokens[None, :]), resumed.forward(tokens[None, :])
        )

    def test_checkpointing_off_matches_golden(self, tiny_model, calib, tmp_path):
        cfg = AtomConfig.paper_default()
        plain = AtomQuantizer(cfg).quantize(tiny_model, calib_tokens=calib)
        ckpt = AtomQuantizer(cfg).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=tmp_path / "c"
        )
        assert_models_bit_identical(plain, ckpt)

    def test_full_checkpoint_resume_recomputes_nothing(
        self, tiny_model, calib, tmp_path
    ):
        cfg = AtomConfig.paper_default()
        ckpt = tmp_path / "ckpt"
        AtomQuantizer(cfg).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
        )
        log = StageLog()
        AtomQuantizer(cfg).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt, telemetry=log
        )
        assert all(s[0] in ("checkpoint_resume", "pipeline_done") for s in log.stages)

    def test_corrupted_checkpoint_raises_typed_error(
        self, tiny_model, calib, tmp_path
    ):
        cfg = AtomConfig.paper_default()
        ckpt = tmp_path / "ckpt"
        AtomQuantizer(cfg).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
        )
        path = ckpt / "layer_00000.npz"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            AtomQuantizer(cfg).quantize(
                tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
            )
        # force_restart discards the damaged directory and succeeds.
        out = AtomQuantizer(cfg).quantize(
            tiny_model,
            calib_tokens=calib,
            checkpoint_dir=ckpt,
            force_restart=True,
        )
        ref = AtomQuantizer(cfg).quantize(tiny_model, calib_tokens=calib)
        assert_models_bit_identical(ref, out)

    def test_config_change_rejected(self, tiny_model, calib, tmp_path):
        ckpt = tmp_path / "ckpt"
        AtomQuantizer(AtomConfig.paper_default()).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
        )
        other = AtomConfig.paper_default().with_(w_bits=8)
        with pytest.raises(CheckpointError, match="fingerprint"):
            AtomQuantizer(other).quantize(
                tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
            )

    def test_calibration_change_rejected(self, tiny_model, calib, tmp_path):
        ckpt = tmp_path / "ckpt"
        cfg = AtomConfig.paper_default()
        AtomQuantizer(cfg).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            AtomQuantizer(cfg).quantize(
                tiny_model, calib_tokens=calib + 1, checkpoint_dir=ckpt
            )

    def test_mode_change_rejected(self, tiny_model, calib, tmp_path):
        """A one-shot checkpoint directory is rejected by a sequential run."""
        ckpt = tmp_path / "ckpt"
        cfg = AtomConfig.paper_default()
        assert not cfg.sequential
        AtomQuantizer(cfg).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            AtomQuantizer(cfg.with_(sequential=True)).quantize(
                tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
            )

    @pytest.mark.parametrize(
        "sequential, mode", [(False, "one-shot"), (True, "sequential-resume")]
    )
    def test_fingerprint_pinned(
        self, tiny_model, calib, tmp_path, sequential, mode
    ):
        """The fingerprint of each pipeline mode is pinned: changing it
        orphans every checkpoint directory already on disk."""
        q = AtomQuantizer(AtomConfig.paper_default().with_(sequential=sequential))
        want = PINNED_FINGERPRINTS[mode]
        assert q._fingerprint(
            tiny_model,
            calib,
            q._resolve_n_outlier(tiny_model),
            q._resolve_group(tiny_model),
            mode,
        ) == want
        ckpt = tmp_path / "ckpt"
        q.quantize(tiny_model, calib_tokens=calib, checkpoint_dir=ckpt)
        assert CheckpointStore(ckpt).read_manifest()["fingerprint"] == want

    def test_doctor_validates_fresh_checkpoint_dir(
        self, tiny_model, calib, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        AtomQuantizer(AtomConfig.paper_default()).quantize(
            tiny_model, calib_tokens=calib, checkpoint_dir=ckpt
        )
        assert validate_checkpoint_dir(ckpt) == []
