"""Quantization error metric."""

from __future__ import annotations

import numpy as np

__all__ = ["relative_error"]


def relative_error(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Frobenius-norm relative error ``||x - x_hat|| / ||x||``."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    denom = np.linalg.norm(x)
    if denom == 0.0:
        return 0.0 if np.linalg.norm(x_hat) == 0.0 else float("inf")
    return float(np.linalg.norm(x - x_hat) / denom)
