"""Outlier-channel identification and channel reordering (§4.1, Fig. 7).

Outlier channels are identified **offline** from calibration activations:
the ``n_outlier`` channels with the largest square-sum (§5.1).  The reorder
permutation moves them to the end of the channel axis, keeping the remaining
channels in their original relative order — activations stay contiguous for
the low-bit body and the high-bit tail, which is what lets the kernel keep
regular memory access.

Weight matrices are reordered statically with the same indices (a one-time
cost); activation reordering happens at runtime inside the fused operator
(modelled in :class:`repro.core.linear.AtomLinear`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "identify_outliers",
    "reorder_permutation",
    "sample_calibration_tokens",
]


def identify_outliers(x: np.ndarray, n_outlier: int) -> np.ndarray:
    """Indices of the ``n_outlier`` channels with the largest square sum.

    ``x`` is a calibration activation matrix ``(tokens, channels)``.
    Returned indices are sorted ascending by magnitude (largest last) so the
    most extreme channels sit at the very end after reordering.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected 2-D activations, got shape {x.shape}")
    if not 0 <= n_outlier <= x.shape[1]:
        raise ValueError(f"n_outlier ({n_outlier}) out of range")
    if n_outlier == 0:
        return np.empty(0, dtype=np.int64)
    sq = (x.astype(np.float64) ** 2).sum(axis=0)
    top = np.argpartition(sq, -n_outlier)[-n_outlier:]
    return top[np.argsort(sq[top])]


def reorder_permutation(n_channels: int, outlier_idx: np.ndarray) -> np.ndarray:
    """Permutation placing non-outlier channels first (original order),
    outlier channels last (in the order given)."""
    outlier_idx = np.asarray(outlier_idx, dtype=np.int64)
    if len(np.unique(outlier_idx)) != len(outlier_idx):
        raise ValueError("duplicate outlier indices")
    if len(outlier_idx) and (outlier_idx.min() < 0 or outlier_idx.max() >= n_channels):
        raise ValueError("outlier index out of range")
    mask = np.zeros(n_channels, dtype=bool)
    mask[outlier_idx] = True
    normal = np.flatnonzero(~mask)
    return np.concatenate([normal, outlier_idx])


def sample_calibration_tokens(
    n_sequences: int, seq_len: int, *, seed: int = 42
) -> np.ndarray:
    """Calibration batch: random windows of the synthwiki train split.

    Mirrors §5.1: "128 randomly sampled sentences from WikiText2".
    """
    from repro.data.corpus import corpus_splits
    from repro.data.tokenizer import CharTokenizer

    text, _ = corpus_splits("synthwiki")
    stream = CharTokenizer().encode(text)
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(stream) - seq_len, size=n_sequences)
    return np.stack([stream[s : s + seq_len] for s in starts])
