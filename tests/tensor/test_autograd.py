"""Autograd engine: gradient checks and graph semantics."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    cat,
    cross_entropy,
    embedding,
    rms_norm,
    rope,
    silu,
    softmax,
)
from tensor.gradcheck import gradcheck  # tests/tensor/gradcheck.py (pytest puts tests/ on sys.path)


@pytest.fixture()
def rng():
    return np.random.default_rng(17)


class TestGradChecks:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_mul_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_matmul(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_batched_matmul(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_broadcast_rhs(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_pow(self, rng):
        a = Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5, requires_grad=True)
        gradcheck(lambda a: a.pow(3.0).sum(), [a])

    def test_exp(self, rng):
        a = Tensor(rng.normal(size=(3, 4)) * 0.3, requires_grad=True)
        gradcheck(lambda a: a.exp().sum(), [a])

    def test_sum_axis(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        m = Tensor(rng.normal(size=(3,)))
        gradcheck(lambda a: (a.sum(axis=1) * m).sum(), [a])

    def test_mean(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda a: a.mean(), [a])

    def test_reshape_transpose(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        m = Tensor(rng.normal(size=(4, 6)))
        gradcheck(lambda a: (a.transpose(2, 0, 1).reshape(4, 6) * m).sum(), [a])

    def test_getitem(self, rng):
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        gradcheck(lambda a: a[1:3].sum(), [a])

    def test_silu(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gradcheck(lambda a: silu(a).sum(), [a])

    def test_softmax(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        m = Tensor(rng.normal(size=(3, 4)))
        gradcheck(lambda a: (softmax(a) * m).sum(), [a])

    def test_rms_norm(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4,)) + 1.0, requires_grad=True)
        gradcheck(lambda x, w: rms_norm(x, w).sum(), [x, w])

    def test_rope(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        cos = np.cos(rng.normal(size=(3, 2))).astype(np.float32)
        sin = np.sin(rng.normal(size=(3, 2))).astype(np.float32)
        m = Tensor(rng.normal(size=(2, 3, 4)))
        gradcheck(lambda x: (rope(x, cos, sin) * m).sum(), [x])

    def test_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(6, 10)), requires_grad=True)
        targets = rng.integers(0, 10, size=6)
        gradcheck(lambda l: cross_entropy(l, targets), [logits])

    def test_cross_entropy_ignores_padding(self, rng):
        logits = Tensor(rng.normal(size=(6, 10)), requires_grad=True)
        targets = rng.integers(0, 10, size=6)
        targets[:2] = -1
        loss = cross_entropy(logits, targets)
        loss.backward()
        # Ignored rows receive zero gradient.
        assert np.abs(logits.grad[:2]).max() == 0.0
        assert np.abs(logits.grad[2:]).max() > 0.0

    def test_embedding(self, rng):
        w = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        idx = rng.integers(0, 10, size=(2, 3))
        gradcheck(lambda w: embedding(w, idx).sum(), [w])

    def test_embedding_repeated_indices_accumulate(self, rng):
        w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        idx = np.array([1, 1, 1])
        embedding(w, idx).sum().backward()
        np.testing.assert_allclose(w.grad[1], [3.0, 3.0])

    def test_cat(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        m = Tensor(rng.normal(size=(2, 8)))
        gradcheck(lambda a, b: (cat([a, b], axis=1) * m).sum(), [a, b])

    def test_div(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(np.abs(rng.normal(size=(3,))) + 1.0, requires_grad=True)
        gradcheck(lambda a, b: (a / b).sum(), [a, b])


class TestGraphSemantics:
    def test_diamond_graph_accumulates(self, rng):
        # y = a*a + a*a: gradient must be 4a, requiring accumulation through
        # two paths to the same node.
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        b = a * a
        y = (b + b).sum()
        y.backward()
        np.testing.assert_allclose(a.grad, 4 * a.data)

    def test_shared_subexpression(self, rng):
        a = Tensor(np.array([1.5]), requires_grad=True)
        s = silu(a)
        y = (s * s).sum()
        y.backward()
        sig = 1 / (1 + np.exp(-1.5))
        expected = 2 * (1.5 * sig) * (sig * (1 + 1.5 * (1 - sig)))
        np.testing.assert_allclose(a.grad, [expected], rtol=1e-5)

    def test_backward_requires_scalar(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * 2).backward()

    def test_backward_with_seed(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = a * 2.0
        y.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])

    def test_zero_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * a).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_detach_breaks_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        d = a.detach()
        (d * 2.0).sum().backward()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        # Iterative DFS must handle graphs deeper than Python's recursion cap.
        a = Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 0.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_float32_storage(self, rng):
        t = Tensor(rng.normal(size=(3,)).astype(np.float64))
        assert t.data.dtype == np.float32

    def test_softmax_rows_sum_to_one(self, rng):
        s = softmax(Tensor(rng.normal(size=(4, 7)) * 10))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_softmax_stable_at_large_logits(self):
        s = softmax(Tensor(np.array([[1e4, 0.0, -1e4]])))
        assert np.isfinite(s.data).all()
        np.testing.assert_allclose(s.data[0, 0], 1.0)

    def test_rms_norm_unit_gain_normalizes(self, rng):
        x = Tensor(rng.normal(size=(8, 16)) * 5)
        w = Tensor(np.ones(16))
        y = rms_norm(x, w)
        rms = np.sqrt((y.data**2).mean(axis=-1))
        np.testing.assert_allclose(rms, np.ones(8), rtol=1e-3)

    def test_rope_preserves_norm(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 8)))
        half = 4
        angles = rng.normal(size=(5, half))
        y = rope(x, np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32))
        np.testing.assert_allclose(
            np.linalg.norm(y.data, axis=-1),
            np.linalg.norm(x.data, axis=-1),
            rtol=1e-5,
        )

    def test_rope_odd_dim_rejected(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5)))
        with pytest.raises(ValueError, match="even"):
            rope(x, np.zeros((3, 2), np.float32), np.zeros((3, 2), np.float32))

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = np.array([0, 3, 5, 2])
        loss = cross_entropy(Tensor(logits), targets)
        p = np.exp(logits) / np.exp(logits).sum(-1, keepdims=True)
        manual = -np.log(p[np.arange(4), targets]).mean()
        assert float(loss.data) == pytest.approx(manual, rel=1e-5)
