"""Perplexity evaluation (Table 2, Fig. 2, Table 3, Table 4).

Standard held-out language-model perplexity: the evaluation split is cut
into non-overlapping windows, the model scores each window teacher-forced,
and perplexity is ``exp(mean NLL per predicted token)``.  Character-level
models yield per-character perplexities (lower absolute numbers than the
paper's BPE-token perplexities; the *relative* degradation between
quantization schemes is the reproduced quantity).
"""

from __future__ import annotations

import numpy as np

from repro.data.corpus import corpus_splits
from repro.data.tokenizer import CharTokenizer
from repro.models.llama import LlamaModel

__all__ = ["perplexity", "nll_per_token"]


def _eval_windows(
    corpus_name: str, seq_len: int, eval_chars: int, stride: int | None
) -> tuple[np.ndarray, int]:
    """Evaluation windows plus the per-window count of *scored* tokens.

    ``stride=None`` (default) uses non-overlapping windows scoring every
    token.  With ``stride < seq_len`` windows overlap and only the final
    ``stride`` tokens of each window are scored against the full preceding
    context — the standard sliding-window protocol that removes the
    short-context penalty at window boundaries.
    """
    step = stride if stride is not None else seq_len
    if not 1 <= step <= seq_len:
        raise ValueError(f"stride must be in [1, seq_len], got {step}")
    _, eval_text = corpus_splits(corpus_name)
    tokens = CharTokenizer().encode(eval_text[:eval_chars])
    starts = range(0, len(tokens) - seq_len - 1, step)
    windows = [tokens[s : s + seq_len + 1] for s in starts]
    if not windows:
        raise ValueError("evaluation text shorter than one window")
    return np.stack(windows), step


def nll_per_token(
    model: LlamaModel,
    corpus_name: str,
    *,
    seq_len: int = 128,
    eval_chars: int = 8192,
    batch_size: int = 16,
    stride: int | None = None,
) -> float:
    """Mean next-token NLL over the eval split of ``corpus_name``."""
    windows, step = _eval_windows(corpus_name, seq_len, eval_chars, stride)
    total, count = 0.0, 0
    for i in range(0, len(windows), batch_size):
        batch = windows[i : i + batch_size]
        if step == seq_len:
            n_pred = batch.shape[0] * (batch.shape[1] - 1)
            total += model.nll(batch) * n_pred
            count += n_pred
            continue
        # Sliding window: score only the last `step` targets per window.
        token_lp = model.token_logprobs(batch)[:, -step:]
        total -= float(token_lp.sum())
        count += token_lp.size
    return total / count


def perplexity(
    model: LlamaModel,
    corpus_name: str,
    *,
    seq_len: int = 128,
    eval_chars: int = 8192,
    batch_size: int = 16,
    stride: int | None = None,
) -> float:
    """Held-out perplexity of ``model`` on one synthetic corpus."""
    return float(
        np.exp(
            nll_per_token(
                model,
                corpus_name,
                seq_len=seq_len,
                eval_chars=eval_chars,
                batch_size=batch_size,
                stride=stride,
            )
        )
    )
