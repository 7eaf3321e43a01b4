"""Quantizing a Mixture-of-Experts model (the paper's §6 / Table 4 setting).

Mixtral-style MoE layers complicate Atom in one way: each expert's FFN sees
the same routed activation, so reorder indices could be computed per expert
or shared.  The paper (footnote 4) finds shared indices lose no accuracy and
keep the kernel simple — this example verifies that on the MoE analog, and
also demonstrates the FP4 / MX number-format variants from Table 4 / §6.

Run:  python examples/moe_quantization.py
"""

from __future__ import annotations

import numpy as np

from repro.bench import format_table
from repro.core import AtomConfig, AtomQuantizer
from repro.eval import perplexity
from repro.models.zoo import load_model


def main() -> None:
    model = load_model("mixtral-sim")
    cfg = model.config
    print(
        f"Loaded {cfg.name}: {cfg.n_experts} experts, top-{cfg.top_k} routing, "
        f"{cfg.n_params():,} params"
    )

    fp16 = perplexity(model, "synthwiki", eval_chars=4096)
    rows = [["FP16", fp16]]
    for label, c in (
        ("Atom INT4 (W4A4)", AtomConfig.paper_default()),
        ("Atom FP4 (Table 4)", AtomConfig.paper_default().with_(fmt="fp")),
        ("Atom MX4 (§6, Blackwell format)", AtomConfig.paper_default().with_(fmt="mx")),
        ("naive RTN W4A4", AtomConfig.rtn_w4a4()),
    ):
        q = AtomQuantizer(c)
        rows.append([label, perplexity(q.quantize(model), "synthwiki", eval_chars=4096)])
    print(format_table(["method", "synthwiki ppl"], rows))

    # Shared reorder indices across experts (footnote 4).
    q = AtomQuantizer(AtomConfig.paper_default())
    quant = q.quantize(model)
    perms = [
        quant.parts[f"layers.0.experts.{e}.w_gate"].perm
        for e in range(cfg.n_experts)
    ]
    shared = all(np.array_equal(perms[0], p) for p in perms[1:])
    print(f"\nreorder indices shared across all {cfg.n_experts} experts: {shared}")
    site_outliers = q.report.outlier_channels["layers.0.ffn_in"]
    print(f"layer-0 ffn_in outlier channels: {sorted(site_outliers.tolist())}")


if __name__ == "__main__":
    main()
