"""Channel-wise mixed-bit quantization driven by outlier statistics.

The channel-wise mixed-precision line of work (see PAPERS.md) observes that
a model's channels are not equally sensitive: the handful of
large-magnitude channels that Atom promotes to INT8 outliers sit at one end
of a *continuum*.  Instead of a binary body/outlier split, this quantizer
allocates a per-channel bit budget from the same square-sum calibration
statistic Atom's outlier selection uses (§4.1): channels are ordered by
square sum, then carved into contiguous precision tiers — the
lowest-magnitude tier drops below 4 bits, the mid tier keeps INT4, and the
highest-magnitude tail gets INT8 with 8-bit activations (exactly like
Atom's fused outlier handling).

Execution reuses the Atom substrate unchanged: heterogeneous-bit
:class:`~repro.core.groups.GroupSlice` lists, GPTQ with per-group scales,
:class:`~repro.core.linear.AtomLinear` (which already runs per-slice
activation precisions), and the asymmetric INT4 KV codec.  The default
tiers — 3/8 of channels at INT3, 1/2 at INT4, 1/8 at INT8 — average 4.125
bits per weight and match the registered ``MixedBit`` serving scheme's
``bit_split`` declaration.
"""

from __future__ import annotations

import numpy as np

from repro.core.gptq import gptq_quantize, hessian
from repro.core.groups import GroupSlice
from repro.core.kv_quant import AtomKVCodec
from repro.core.linear import AtomLinear
from repro.core.outliers import sample_calibration_tokens
from repro.models.llama import LlamaModel, input_site

__all__ = ["MixedBitQuantizer", "DEFAULT_TIERS", "tier_slices"]

#: ``(bits, fraction)`` per tier, lowest-magnitude channels first.  Must
#: stay in sync with the ``MixedBit`` scheme's ``bit_split`` declaration in
#: :mod:`repro.serving.schemes` (the registry property suite pins this).
DEFAULT_TIERS: tuple[tuple[int, float], ...] = ((3, 0.375), (4, 0.5), (8, 0.125))


def tier_slices(
    n_channels: int,
    tiers: tuple[tuple[int, float], ...],
    group_size: int | None,
) -> list[GroupSlice]:
    """Carve ``n_channels`` (ordered by ascending square sum) into tiers.

    Each tier is subdivided into ``group_size``-wide slices so scales stay
    fine-grained; the highest-bits tier is marked ``is_outlier`` so
    :class:`~repro.core.linear.AtomLinear` runs its activations at the
    tier's precision instead of the scheme's low ``a_bits``.
    """
    if n_channels < len(tiers):
        raise ValueError(
            f"{n_channels} channels cannot host {len(tiers)} tiers"
        )
    widths = [max(1, round(frac * n_channels)) for _, frac in tiers[:-1]]
    last = n_channels - sum(widths)
    if last < 1:
        raise ValueError(
            f"tier fractions leave no channels for the final tier "
            f"(n_channels={n_channels})"
        )
    widths.append(last)
    hi_bits = max(bits for bits, _ in tiers)
    slices: list[GroupSlice] = []
    start = 0
    for (bits, _), width in zip(tiers, widths):
        stop = start + width
        step = group_size if group_size else width
        for s in range(start, stop, step):
            slices.append(
                GroupSlice(
                    s, min(s + step, stop), bits, is_outlier=bits == hi_bits
                )
            )
        start = stop
    return slices


class MixedBitQuantizer:
    """Per-channel bit allocation over the Atom execution substrate."""

    def __init__(
        self,
        *,
        tiers: tuple[tuple[int, float], ...] = DEFAULT_TIERS,
        a_bits: int = 4,
        act_clip: float = 0.9,
        weight_clip: float = 0.85,
        kv_bits: int = 4,
        group_size: int | None = None,
    ) -> None:
        if len(tiers) < 2:
            raise ValueError("mixed-bit needs at least two tiers")
        if any(b1 >= b2 for (b1, _), (b2, _) in zip(tiers, tiers[1:])):
            raise ValueError("tiers must be in strictly ascending bit order")
        total = sum(frac for _, frac in tiers)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"tier fractions must sum to 1, got {total:g}")
        self.tiers = tiers
        self.a_bits = a_bits
        self.act_clip = act_clip
        self.weight_clip = weight_clip
        self.kv_bits = kv_bits
        self.group_size = group_size
        split = "+".join(f"{bits}b" for bits, _ in tiers)
        self.name = f"mixedbit-{split}-a{a_bits}"

    def _channel_order(self, acts: np.ndarray) -> np.ndarray:
        """Channels sorted by ascending square sum (Atom's outlier stat)."""
        sq = (acts.astype(np.float64) ** 2).sum(axis=0)
        return np.argsort(sq, kind="stable")

    def quantize(
        self, model: LlamaModel, *, calib_tokens: np.ndarray | None = None
    ) -> LlamaModel:
        if calib_tokens is None:
            calib_tokens = sample_calibration_tokens(128, 64)
        site_acts = model.capture_site_inputs(calib_tokens)
        group = (
            self.group_size
            if self.group_size is not None
            else model.config.group_size
        )
        perms = {
            site: self._channel_order(acts) for site, acts in site_acts.items()
        }
        hessians = {
            site: hessian(acts[:, perms[site]])
            for site, acts in site_acts.items()
        }
        qmodel = model.clone()
        mapping: dict[str, AtomLinear] = {}
        for name in model.linear_names():
            site = input_site(name)
            perm = perms[site]
            w = model.weights[name].astype(np.float64)[:, perm]
            slices = tier_slices(w.shape[1], self.tiers, group)
            sliced = gptq_quantize(
                w, hessians[site], slices, clip=self.weight_clip, fmt="int"
            )
            mapping[name] = AtomLinear(
                sliced,
                perm=perm,
                a_bits=self.a_bits,
                act_clip=self.act_clip,
            )
        qmodel.replace_linears(mapping)
        qmodel.kv_codec = AtomKVCodec(self.kv_bits)
        return qmodel
