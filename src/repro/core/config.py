"""Atom quantization configuration.

Every row of the paper's Table 3 ablation is expressible as an
:class:`AtomConfig`:

===============================  ==============================================
Table 3 row                      config
===============================  ==============================================
W4A4 RTN                         ``AtomConfig.rtn_w4a4()``
+ keep outliers in FP16          ``n_outlier=default, outlier_bits=None``
+ quantize outliers to INT8      ``outlier_bits=8``
+ group size 128                 ``group_size=<model group size>``
+ clipping                       ``act_clip=0.9, weight_clip=0.85``
+ GPTQ                           ``use_gptq=True``
+ quantize KV-cache to INT4      ``kv_bits=4``
===============================  ==============================================

``AtomConfig.paper_default()`` is the full recipe of §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["AtomConfig"]


@dataclass(frozen=True)
class AtomConfig:
    """Knobs of the Atom quantization pipeline.

    Attributes
    ----------
    a_bits, w_bits:
        Bit-width of normal-value activations / weights (4 for W4A4).
    fmt:
        ``"int"`` for integer grids, ``"fp"`` for minifloat grids (Table 4's
        FP4 evaluation uses ``fmt="fp"`` with 4 bits).
    n_outlier:
        Number of mixed-precision outlier channels per activation site;
        ``None`` uses the model config's scaled default, ``0`` disables
        mixed precision entirely.
    outlier_bits:
        Precision of the outlier tail: ``8`` for INT8 (Atom's choice),
        ``None`` keeps outliers in FP16 (the intermediate ablation row).
    group_size:
        Fine-grained group size along channels; ``None`` disables group
        quantization (per-token activations / per-output-channel weights).
    act_clip, weight_clip:
        Symmetric clipping factors: the paper's grid search (§5.1) found
        0.9 / 0.85, the defaults here.
    use_gptq:
        Apply GPTQ (Hessian-compensated rounding) to weight bodies.
    kv_bits:
        Asymmetric KV-cache quantization bit-width; ``None`` keeps FP16.
    calib_tokens, calib_seq_len:
        Calibration sampling (paper: 128 random sentences from WikiText2).
    """

    a_bits: int = 4
    w_bits: int = 4
    fmt: str = "int"
    n_outlier: int | None = None
    outlier_bits: int | None = 8
    group_size: int | None = 128
    act_clip: float = 0.9
    weight_clip: float = 0.85
    use_gptq: bool = True
    kv_bits: int | None = 4
    calib_sequences: int = 128
    calib_seq_len: int = 64
    # Extensions beyond the paper's default recipe (see §6 / §4.1):
    outlier_fmt: str | None = None  # None inherits fmt; "fp" => FP8 outliers
    sequential: bool = False  # layer-by-layer calibration on quantized prefix
    act_order: bool = False  # GPTQ activation-order heuristic

    def __post_init__(self) -> None:
        if self.fmt not in ("int", "fp", "mx"):
            raise ValueError(f"fmt must be 'int', 'fp' or 'mx', got {self.fmt!r}")
        if self.outlier_fmt is not None and self.outlier_fmt not in ("int", "fp", "mx"):
            raise ValueError(f"invalid outlier_fmt: {self.outlier_fmt!r}")
        if self.fmt == "fp" and self.a_bits not in (4, 8):
            raise ValueError("fp format supports 4 or 8 bits")
        if self.outlier_fmt == "fp" and self.outlier_bits not in (None, 4, 8):
            raise ValueError("fp outliers support 4 or 8 bits")
        for bits, label in ((self.a_bits, "a_bits"), (self.w_bits, "w_bits")):
            if not 2 <= bits <= 8:
                raise ValueError(f"{label} must be in [2, 8], got {bits}")
        if not 0.0 < self.act_clip <= 1.0 or not 0.0 < self.weight_clip <= 1.0:
            raise ValueError("clip factors must be in (0, 1]")

    # ------------------------------------------------------------------ #
    # Named recipes
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_default(cls, *, bits: int = 4, group_size: int = 128) -> "AtomConfig":
        """The full §5.1 recipe at W{bits}A{bits}."""
        return cls(a_bits=bits, w_bits=bits, group_size=group_size)

    @classmethod
    def rtn_w4a4(cls) -> "AtomConfig":
        """Table 3's first row: naive RTN W4A4, no Atom techniques."""
        return cls(
            a_bits=4,
            w_bits=4,
            n_outlier=0,
            outlier_bits=None,
            group_size=None,
            act_clip=1.0,
            weight_clip=1.0,
            use_gptq=False,
            kv_bits=None,
        )

    def with_(self, **kwargs) -> "AtomConfig":
        """Functional update (``dataclasses.replace`` sugar for ablations)."""
        return replace(self, **kwargs)

    def label(self) -> str:
        """Human-readable scheme label, e.g. ``atom-w4a4-g128``."""
        parts = [f"atom-w{self.w_bits}a{self.a_bits}"]
        if self.fmt != "int":
            parts.append(self.fmt)
        if self.group_size:
            parts.append(f"g{self.group_size}")
        return "-".join(parts)
