"""Zero-shot multiple-choice accuracy (Table 1).

Scores items exactly the way lm-eval does: for each choice, compute the sum
of log-probabilities of the continuation tokens given the context, normalise
by continuation length, and pick the argmax.  Accuracy is the fraction of
items where the argmax is the labelled answer.

Sequences are scored in padded batches: padding sits at the *end* of each
sequence, so causal attention never lets a valid position see a pad token,
and pad-position logits are simply ignored.
"""

from __future__ import annotations

import numpy as np

from repro.data.tasks import TASK_NAMES, build_task
from repro.data.tokenizer import CharTokenizer
from repro.models.llama import LlamaModel

__all__ = ["zero_shot_accuracy", "zero_shot_suite", "score_sequences"]


def score_sequences(
    model: LlamaModel,
    sequences: list[np.ndarray],
    starts: list[int],
    *,
    batch_size: int = 32,
) -> np.ndarray:
    """Continuation log-probabilities for many sequences, batched.

    ``starts[i]`` is the index of the first continuation token in
    ``sequences[i]``; the returned score is
    ``sum_j log P(seq[j] | seq[:j])`` for ``j in [starts[i], len(seq))``.
    """
    if len(sequences) != len(starts):
        raise ValueError("sequences/starts length mismatch")
    scores = np.empty(len(sequences), dtype=np.float64)
    order = np.argsort([len(s) for s in sequences])  # batch similar lengths
    for chunk_start in range(0, len(order), batch_size):
        idx = order[chunk_start : chunk_start + batch_size]
        seqs = [np.asarray(sequences[i]) for i in idx]
        t_max = max(len(s) for s in seqs)
        batch = np.zeros((len(seqs), t_max), dtype=np.int64)
        for r, s in enumerate(seqs):
            batch[r, : len(s)] = s
        token_lp = model.token_logprobs(batch)
        for r, i in enumerate(idx):
            begin = max(starts[i] - 1, 0)  # logit at j predicts token j+1
            end = len(sequences[i]) - 1
            scores[i] = token_lp[r, begin:end].sum()
    return scores


def zero_shot_accuracy(
    model: LlamaModel, task_name: str, *, n_items: int = 100
) -> float:
    """Accuracy of ``model`` on one synthetic task."""
    tok = CharTokenizer()
    items = build_task(task_name, n_items=n_items)
    sequences: list[np.ndarray] = []
    starts: list[int] = []
    lengths: list[int] = []
    layout: list[tuple[int, int]] = []  # (item index, n choices) per item
    for item in items:
        ctx = tok.encode(item.context, add_bos=True)
        layout.append((len(sequences), len(item.choices)))
        for choice in item.choices:
            cont = tok.encode(choice)
            sequences.append(np.concatenate([ctx, cont]))
            starts.append(len(ctx))
            lengths.append(max(len(cont), 1))
    scores = score_sequences(model, sequences, starts) / np.asarray(lengths)
    correct = 0
    for item, (offset, n_choices) in zip(items, layout):
        pred = int(np.argmax(scores[offset : offset + n_choices]))
        correct += pred == item.answer
    return correct / len(items)


def zero_shot_suite(
    model: LlamaModel,
    *,
    tasks: tuple[str, ...] = TASK_NAMES,
    n_items: int = 100,
) -> dict[str, float]:
    """Accuracy on every task plus the macro average (Table 1's columns)."""
    out = {t: zero_shot_accuracy(model, t, n_items=n_items) for t in tasks}
    out["avg"] = float(np.mean([out[t] for t in tasks]))
    return out
