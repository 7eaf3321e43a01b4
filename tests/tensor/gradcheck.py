"""Finite-difference gradient checking for the autograd ops.

The oracle the hand-written backward passes of :mod:`repro.tensor` are
checked against.  Import it as ``tensor.gradcheck``: pytest puts ``tests/``
on ``sys.path``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    *,
    eps: float = 1e-3,
    rtol: float = 1e-2,
    atol: float = 1e-3,
    seed: int = 0,
) -> bool:
    """Compare analytic gradients of a scalar-producing ``fn`` to central
    finite differences.

    All ``inputs`` must have ``requires_grad=True``.  Raises ``AssertionError``
    with a diagnostic message on mismatch; returns ``True`` on success.

    Float32 forward passes limit achievable precision, hence the loose default
    tolerances; tests that need tighter bounds can temporarily cast inputs.
    """
    rng = np.random.default_rng(seed)
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("gradcheck requires a scalar output")
    out.backward()

    for i, t in enumerate(inputs):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        # Probe a bounded random subset of coordinates for large tensors.
        n_probe = min(t.data.size, 32)
        flat_idx = rng.choice(t.data.size, size=n_probe, replace=False)
        for j in flat_idx:
            idx = np.unravel_index(j, t.data.shape)
            orig = t.data[idx]
            t.data[idx] = orig + eps
            hi = float(fn(*inputs).data)
            t.data[idx] = orig - eps
            lo = float(fn(*inputs).data)
            t.data[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            got = float(analytic[idx])
            if not np.isclose(got, numeric, rtol=rtol, atol=atol):
                raise AssertionError(
                    f"grad mismatch on input {i} at {idx}: "
                    f"analytic={got:.6g} numeric={numeric:.6g}"
                )
    return True
