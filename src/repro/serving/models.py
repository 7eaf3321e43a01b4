"""Full-size Llama shapes for the serving simulator.

The efficiency experiments use the *real* model dimensions (the simulator is
analytic, so nothing needs to fit in this machine's memory).  Shapes follow
Touvron et al. 2023.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (models -> serving)
    from repro.models.config import ModelConfig

__all__ = [
    "ServingModelSpec",
    "serving_spec_for",
    "LLAMA_7B",
    "LLAMA_13B",
    "LLAMA_70B",
    "SERVING_SPECS",
    "ZOO_ANALOGS",
]


@dataclass(frozen=True)
class ServingModelSpec:
    """Dense-layer and attention shapes of a served model."""

    name: str
    dim: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    ffn_dim: int
    vocab_size: int = 32000
    max_seq_len: int = 4096

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    def n_params(self) -> int:
        """Approximate parameter count of the decoder stack + embeddings."""
        attn = self.dim * self.dim * 2 + self.dim * self.kv_dim * 2
        ffn = 3 * self.dim * self.ffn_dim
        return self.n_layers * (attn + ffn) + 2 * self.vocab_size * self.dim

    def kv_bytes_per_token(self, kv_bits: int) -> float:
        """KV-cache bytes stored per token across all layers."""
        return 2.0 * self.n_layers * self.kv_dim * kv_bits / 8.0

    def dense_gemm_shapes(self) -> list[tuple[int, int]]:
        """Per-layer (out_features, in_features) of each dense GEMM."""
        return [
            (self.dim, self.dim),  # wq
            (self.kv_dim, self.dim),  # wk
            (self.kv_dim, self.dim),  # wv
            (self.dim, self.dim),  # wo
            (self.ffn_dim, self.dim),  # w_gate
            (self.ffn_dim, self.dim),  # w_up
            (self.dim, self.ffn_dim),  # w_down
        ]


def serving_spec_for(config: "ModelConfig") -> ServingModelSpec:
    """Derive the serving shapes of a real (zoo / bench) model.

    The numeric backend serves small NumPy models; the engine's memory and
    timing accounting must use *their* dimensions, not the full-size Llama
    shapes, so paged-KV page math lines up with the KV the model actually
    writes.  MoE models are rejected: the serving cost model is dense-only.
    """
    if config.is_moe:
        raise ValueError(
            f"{config.name} is MoE; the serving cost model covers dense "
            "FFNs only"
        )
    return ServingModelSpec(
        name=config.name,
        dim=config.dim,
        n_layers=config.n_layers,
        n_heads=config.n_heads,
        n_kv_heads=config.n_kv_heads,
        ffn_dim=config.ffn_dim,
        vocab_size=config.vocab_size,
        max_seq_len=config.max_seq_len,
    )


LLAMA_7B = ServingModelSpec(
    "Llama-7B", dim=4096, n_layers=32, n_heads=32, n_kv_heads=32, ffn_dim=11008
)
LLAMA_13B = ServingModelSpec(
    "Llama-13B", dim=5120, n_layers=40, n_heads=40, n_kv_heads=40, ffn_dim=13824
)
LLAMA_70B = ServingModelSpec(
    "Llama-70B", dim=8192, n_layers=80, n_heads=64, n_kv_heads=8, ffn_dim=28672
)

#: CLI model names (``repro serve``/``trace -m``) -> full-size shapes.
SERVING_SPECS = {
    "llama-7b": LLAMA_7B,
    "llama-13b": LLAMA_13B,
    "llama-70b": LLAMA_70B,
}

#: CLI model names -> the trained zoo analog the numeric backend executes.
ZOO_ANALOGS = {
    "llama-7b": "llama-7b-sim",
    "llama-13b": "llama-13b-sim",
    "llama-70b": "llama2-70b-sim",
}
