"""Figure 9: the V cache has a much smaller dynamic range than activations.

Paper claim (§4.4): V-cache values exhibit the outlier phenomenon far less
than dense-layer input activations, which is why direct asymmetric low-bit
quantization of the KV-cache preserves accuracy.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import paper_note
from repro.bench import format_table, save_artifact
from repro.core.kv_quant import quantize_kv_headwise
from repro.core.outliers import sample_calibration_tokens


def _channel_ratio(x: np.ndarray) -> float:
    mags = np.abs(x).mean(axis=0)
    return float(mags.max() / np.median(mags))


def _measure(model):
    calib = sample_calibration_tokens(64, 64)
    acts = model.capture_site_inputs(calib)["layers.0.attn_in"]
    v_cache = acts @ model.weights["layers.0.wv"].T
    k_cache = acts @ model.weights["layers.0.wk"].T
    # Reshape to per-head vectors for the quantization error comparison.
    c = model.config
    v_heads = v_cache.reshape(-1, c.n_kv_heads, c.head_dim)
    q_err = float(
        np.linalg.norm(quantize_kv_headwise(v_heads, 4) - v_heads)
        / np.linalg.norm(v_heads)
    )
    a_err = float(
        np.linalg.norm(quantize_kv_headwise(acts[:, None, :], 4) - acts[:, None, :])
        / np.linalg.norm(acts)
    )
    return {
        "act_ratio": _channel_ratio(acts),
        "v_ratio": _channel_ratio(v_cache),
        "k_ratio": _channel_ratio(k_cache),
        "v_int4_rel_err": q_err,
        "act_int4_rel_err": a_err,
    }


def test_fig9_vcache_distribution(benchmark, models):
    model = models["llama-7b-sim"]
    r = benchmark.pedantic(_measure, args=(model,), rounds=1, iterations=1)
    rows = [
        ["activation (attn_in) max/median channel", r["act_ratio"]],
        ["V cache max/median channel", r["v_ratio"]],
        ["K cache max/median channel", r["k_ratio"]],
        ["V cache INT4 relative error", r["v_int4_rel_err"]],
        ["activation INT4 relative error", r["act_int4_rel_err"]],
    ]
    report = "\n\n".join(
        [
            paper_note(),
            format_table(["quantity", "value"], rows,
                         title="Fig. 9: V-cache vs activation dynamic range (layer 0)"),
        ]
    )
    save_artifact("fig9_vcache_distribution.txt", report)

    # V cache shows far fewer outliers than activations (the figure's claim).
    assert r["v_ratio"] < r["act_ratio"] / 2
    # Consequently INT4 quantizes V more accurately than raw activations.
    assert r["v_int4_rel_err"] < r["act_int4_rel_err"]
    # And the K cache is likewise tame.
    assert r["k_ratio"] < r["act_ratio"] / 2
