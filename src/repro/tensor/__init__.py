"""Minimal reverse-mode autograd engine on NumPy arrays.

This is the training substrate for the model zoo (`repro.models`): since the
reproduction runs without PyTorch or GPUs, the Llama-family models used in
the accuracy experiments are trained with this engine.  It implements exactly
the ops a Llama-style decoder needs — broadcast arithmetic, matmul, reshape /
transpose, embedding gather, SiLU, softmax, RMSNorm, rotary position
embeddings and a fused softmax-cross-entropy — each with a hand-written
backward pass, plus AdamW.  The finite-difference gradient check these
backward passes are tested against is ``tests/tensor/gradcheck.py``.
"""

from repro.tensor.tensor import (
    Tensor,
    add,
    cat,
    cross_entropy,
    embedding,
    matmul,
    mul,
    rms_norm,
    rope,
    silu,
    softmax,
)
from repro.tensor.optim import AdamW, clip_grad_norm
from repro.tensor.init import normal_init

__all__ = [
    "AdamW",
    "Tensor",
    "add",
    "cat",
    "clip_grad_norm",
    "cross_entropy",
    "embedding",
    "matmul",
    "mul",
    "normal_init",
    "rms_norm",
    "rope",
    "silu",
    "softmax",
]
