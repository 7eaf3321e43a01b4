"""Figure 5: activation outlier channels before/after Atom's reordering.

(a) A few channels have mean magnitudes orders above the rest.
(b) After reordering, outliers sit contiguously at the end of the matrix and
the remaining body is uniform enough for low-bit quantization.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import paper_note
from repro.bench import ascii_bars, format_table, save_artifact
from repro.core.outliers import (
    identify_outliers,
    reorder_permutation,
    sample_calibration_tokens,
)


def _measure(model):
    calib = sample_calibration_tokens(64, 64)
    acts = model.capture_site_inputs(calib)["layers.0.attn_in"]
    mean_mag = np.abs(acts).mean(axis=0)
    n_out = model.config.n_outlier
    idx = identify_outliers(acts, n_out)
    perm = reorder_permutation(acts.shape[1], idx)
    reordered = mean_mag[perm]
    return mean_mag, reordered, idx


def test_fig5_outlier_channels(benchmark, models):
    model = models["llama-7b-sim"]
    mean_mag, reordered, idx = benchmark.pedantic(
        _measure, args=(model,), rounds=1, iterations=1
    )
    n_out = len(idx)
    stats = [
        ["max / median channel magnitude", float(mean_mag.max() / np.median(mean_mag))],
        ["body max / median after removing outliers",
         float(reordered[:-n_out].max() / np.median(reordered[:-n_out]))],
        ["outlier channel indices", str(sorted(idx.tolist()))],
    ]
    report = "\n\n".join(
        [
            paper_note(),
            format_table(["quantity", "value"], stats,
                         title="Fig. 5: attn_in activation channel magnitudes (layer 0)"),
            ascii_bars(
                [str(i) for i in range(0, len(mean_mag), 4)],
                [float(mean_mag[i]) for i in range(0, len(mean_mag), 4)],
                title="(a) original channel order (every 4th channel)",
            ),
            ascii_bars(
                [str(i) for i in range(0, len(reordered), 4)],
                [float(reordered[i]) for i in range(0, len(reordered), 4)],
                title="(b) after reordering (outliers moved to the end)",
            ),
        ]
    )
    save_artifact("fig5_outlier_channels.txt", report)

    # (a) outliers exist: top channel >> median.
    assert mean_mag.max() / np.median(mean_mag) > 10
    # (b) after removing the identified outliers the body is much tamer.
    body = reordered[:-n_out]
    assert body.max() / np.median(body) < mean_mag.max() / np.median(mean_mag) / 2
    # The reordered tail holds exactly the largest channels.
    assert set(np.argsort(mean_mag)[-n_out:].tolist()) >= set(idx.tolist()) or (
        reordered[-n_out:].min() >= np.percentile(mean_mag, 80)
    )
