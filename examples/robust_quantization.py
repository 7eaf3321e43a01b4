"""Crash-safe quantization: checkpoint, crash, resume, verify.

The offline Atom pipeline is the longest stage of deployment; this example
shows the robustness machinery end to end on the small random-weight bench
model (no zoo training needed):

1. quantize with ``checkpoint_dir`` set, crashing (simulated) after layer 1;
2. rerun the same call — it resumes from the on-disk checkpoints and only
   recomputes the missing layers;
3. assert the resumed model is bit-identical to an uninterrupted run;
4. validate the checkpoint directory the way ``repro doctor`` does;
5. print the run's :class:`QuantHealthReport` (numerical guard events).

Run:  python examples/robust_quantization.py [--quick] [--checkpoint-dir DIR]

CI uses ``--quick --checkpoint-dir <dir>`` to produce a fresh checkpoint
directory for the ``repro doctor`` smoke job.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.bench.perf import BENCH_MODEL_CONFIG, build_bench_model
from repro.core import AtomConfig, AtomQuantizer
from repro.core.checkpoint import validate_checkpoint_dir

QUICK_CONFIG = dataclasses.replace(
    BENCH_MODEL_CONFIG,
    name="robust-demo",
    dim=96,
    ffn_dim=160,
    n_layers=3,
    vocab_size=60,
    n_heads=4,
    n_kv_heads=2,
    n_outlier=8,
    max_seq_len=64,
)


class CrashAfterLayer:
    """Telemetry sink simulating a crash right after layer ``k`` is saved."""

    def __init__(self, layer: int) -> None:
        self.layer = layer

    def emit(self, event_cls, *, stage, layer, **_):
        print(f"  [stage] {stage:>18} layer={layer}")
        if stage == "checkpoint_saved" and layer == self.layer:
            raise KeyboardInterrupt(f"simulated crash after layer {layer}")


class Narrator:
    def emit(self, event_cls, *, stage, layer, **_):
        print(f"  [stage] {stage:>18} layer={layer}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smallest model (CI smoke mode)")
    ap.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="use this directory (kept) instead of a temp dir")
    args = ap.parse_args(argv)

    model_cfg = QUICK_CONFIG if args.quick else BENCH_MODEL_CONFIG
    model = build_bench_model(model_cfg)
    rng = np.random.default_rng(7)
    calib = rng.integers(0, model_cfg.vocab_size, size=(2, 16))
    cfg = AtomConfig.paper_default().with_(sequential=True)
    crash_layer = model_cfg.n_layers // 2

    tmp = None
    if args.checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory()
        ckpt = Path(tmp.name) / "ckpt"
    else:
        ckpt = Path(args.checkpoint_dir)

    print(f"model: {model_cfg.name} ({model_cfg.n_layers} layers), "
          f"checkpoints in {ckpt}")

    print(f"\n[1] quantizing, simulated crash after layer {crash_layer}:")
    try:
        AtomQuantizer(cfg).quantize(
            model,
            calib_tokens=calib,
            checkpoint_dir=ckpt,
            telemetry=CrashAfterLayer(crash_layer),
        )
        print("  crash did not fire?!")
        return 1
    except KeyboardInterrupt as exc:
        print(f"  crashed: {exc}")
    on_disk = sorted(p.name for p in ckpt.glob("layer_*.npz"))
    print(f"  survived on disk: {on_disk}")

    print("\n[2] rerunning the same call — resumes from disk:")
    q = AtomQuantizer(cfg)
    resumed = q.quantize(
        model, calib_tokens=calib, checkpoint_dir=ckpt, telemetry=Narrator()
    )

    print("\n[3] comparing against an uninterrupted run:")
    ref = AtomQuantizer(cfg).quantize(model, calib_tokens=calib)
    for name in ref.parts:
        a, b = ref.parts[name], resumed.parts[name]
        for ca, cb in zip(a.weight.codes, b.weight.codes):
            assert np.array_equal(ca, cb), name
        for sa, sb in zip(a.weight.scales, b.weight.scales):
            assert (sa is None and sb is None) or np.array_equal(sa, sb), name
    tokens = np.arange(12) % model_cfg.vocab_size
    np.testing.assert_array_equal(
        ref.forward(tokens[None, :]), resumed.forward(tokens[None, :])
    )
    print("  codes, scales and logits are bit-identical")

    print("\n[4] validating the checkpoint directory (repro doctor):")
    problems = validate_checkpoint_dir(ckpt)
    print(f"  {len(problems)} problem(s)" + "".join(f"\n  - {p}" for p in problems))

    print(f"\n[5] {q.health.summary()}")

    if tmp is not None:
        tmp.cleanup()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
