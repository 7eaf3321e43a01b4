"""Parameter initialization helpers."""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["normal_init", "ones_init"]


def normal_init(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    *,
    std: float = 0.02,
    name: str = "",
) -> Tensor:
    """Gaussian parameter, GPT-style default std."""
    data = rng.normal(0.0, std, size=shape).astype(np.float32)
    return Tensor(data, requires_grad=True, name=name)


def ones_init(shape: tuple[int, ...], *, name: str = "") -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True, name=name)
