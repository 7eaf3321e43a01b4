"""Model zoo: deterministic, disk-cached trained models.

``load_model(name)`` returns a ready-to-quantize :class:`LlamaModel`.  The
first call trains the model (minutes of NumPy on CPU) and caches the raw
weights under the zoo cache directory; later calls load from disk.  Outlier
injection (see :mod:`repro.models.outliers`) is applied deterministically at
load time, so the cached artifact stays the pristine trained checkpoint.

Cache location: ``$ATOM_REPRO_CACHE`` if set, else ``~/.cache/atom-repro``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.models.config import ModelConfig, get_config
from repro.models.llama import LlamaModel
from repro.models.outliers import inject_outlier_channels
from repro.models.trainer import TrainSpec, train_model

__all__ = ["zoo_cache_dir", "load_weights", "load_model"]


def zoo_cache_dir() -> Path:
    env = os.environ.get("ATOM_REPRO_CACHE")
    base = Path(env) if env else Path.home() / ".cache" / "atom-repro"
    base.mkdir(parents=True, exist_ok=True)
    return base


def _cache_path(config: ModelConfig, spec: TrainSpec) -> Path:
    return zoo_cache_dir() / f"{config.name}-{config.cache_key()}-{spec.cache_key()}.npz"


def load_weights(
    name: str, *, spec: TrainSpec | None = None, verbose: bool = False
) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Load (or train and cache) the pristine weights for model ``name``."""
    config = get_config(name)
    spec = spec or TrainSpec()
    path = _cache_path(config, spec)
    if path.exists():
        with np.load(path) as data:
            return config, {k: data[k] for k in data.files}
    result = train_model(config, spec, verbose=verbose)
    tmp = path.with_suffix(".tmp.npz")
    np.savez_compressed(tmp, **result.weights)
    os.replace(tmp, path)  # atomic publish so concurrent runs never see partial files
    return config, result.weights


def load_model(
    name: str,
    *,
    with_outliers: bool = True,
    spec: TrainSpec | None = None,
    verbose: bool = False,
) -> LlamaModel:
    """Return an inference :class:`LlamaModel` for zoo model ``name``.

    ``with_outliers=True`` (default) applies the function-preserving outlier
    injection, recreating the activation-outlier phenomenon the paper's
    quantization design targets.
    """
    config, weights = load_weights(name, spec=spec, verbose=verbose)
    if with_outliers:
        weights = inject_outlier_channels(config, weights)
    return LlamaModel(config, weights)
