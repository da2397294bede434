import numpy as np
import pytest

from avex import autodiff as ad
from avex.autodiff import Tensor


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def check(f, params, tolerance=1e-6):
    report = ad.grad_check(f, params, tolerance=tolerance)
    assert report.passed, (
        f"max rel error {report.max_rel_error:.3e} at "
        f"{report.worst_param}[{report.worst_index}]")


# -- per-op gradient checks --------------------------------------------------


def test_add_broadcast_grad():
    rng = np.random.default_rng(0)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(4,)))
    check(lambda: (a + b).sum(), {"a": a, "b": b})


def test_mul_broadcast_grad():
    rng = np.random.default_rng(1)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(3, 1)))
    check(lambda: ad.mul(a, b).sum(), {"a": a, "b": b})


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(4, 2)))
    v = leaf(rng.normal(size=(4,)))
    check(lambda: (a @ b).sum(), {"a": a, "b": b})
    check(lambda: (a @ v).sum(), {"a": a, "v": v})


def test_concat_reshape_transpose_grads():
    rng = np.random.default_rng(3)
    a = leaf(rng.normal(size=(2, 3)))
    b = leaf(rng.normal(size=(1, 3)))
    check(lambda: ad.concat([a, b], axis=0).sum(), {"a": a, "b": b})
    check(lambda: a.reshape((3, 2)).sum(), {"a": a})
    check(lambda: ad.mul(a.transpose(), a.transpose()).sum(), {"a": a})


def test_row_grads():
    rng = np.random.default_rng(4)
    m = leaf(rng.normal(size=(3, 5)))
    v = leaf(rng.normal(size=(4,)))
    w = rng.normal(size=(4, 5))
    check(lambda: ad.row(m, 1).sum(), {"m": m})
    check(lambda: ad.mul(ad.row(v, 2), 3.0), {"v": v})
    # A repeated row: its gradient must accumulate, not overwrite.
    check(lambda: ad.mul(ad.row(m, [2, 0, 2, 1]), w).sum(), {"m": m})
    m.grad = None
    ad.row(m, [2, 0, 2]).sum().backward()
    assert m.grad[:, 0].tolist() == [1.0, 0.0, 2.0]
    with pytest.raises(ad.ShapeError):
        ad.row(m, [0, 3])


def test_fused_routes_vjp_gradients():
    a = leaf([1.0, 2.0])
    b = leaf([[3.0]])
    c = Tensor([5.0])  # no gradient wanted: its slot is skipped

    def vjp(g):
        return g * 2 * b.data[0, 0] * a.data, g * np.full((1, 1), a.data @ a.data), None

    out = ad.fused(np.asarray(a.data @ a.data * b.data[0, 0]), (a, b, c), vjp)
    assert out._parents == (a, b, c)
    ad.mul(out, 2.0).backward()
    assert a.grad.tolist() == [12.0, 24.0]
    assert b.grad.tolist() == [[10.0]]
    assert c.grad is None
    with ad.no_grad():
        assert ad.fused(np.zeros(()), (a,), None)._parents == ()


def test_pick_grad_with_duplicate_indices():
    rng = np.random.default_rng(5)
    m = leaf(rng.normal(size=(4, 4)))
    # Same cell picked twice: its gradient must accumulate, not overwrite.
    rows = [1, 1, 2]
    cols = [2, 2, 0]
    check(lambda: ad.pick(m, rows, cols).sum(), {"m": m})
    m.grad = None
    ad.pick(m, rows, cols).sum().backward()
    assert m.grad[1, 2] == 2.0
    assert m.grad[2, 0] == 1.0


def test_nonlinearity_grads():
    rng = np.random.default_rng(6)
    a = leaf(rng.normal(size=(7,)))
    check(lambda: ad.sigmoid(a).sum(), {"a": a})
    check(lambda: ad.tanh(a).sum(), {"a": a})
    check(lambda: ad.mul(ad.softmax(a), a).sum(), {"a": a})


def test_logsumexp_grads():
    rng = np.random.default_rng(7)
    a = leaf(rng.normal(size=(3, 4)))
    v = leaf(rng.normal(size=(5,)))
    check(lambda: ad.logsumexp(v), {"v": v})
    check(lambda: ad.logsumexp(a, axis=0).sum(), {"a": a})
    check(lambda: ad.logsumexp(a, axis=1).sum(), {"a": a})


def test_mean_and_sum_grads():
    rng = np.random.default_rng(8)
    a = leaf(rng.normal(size=(6,)))
    check(lambda: a.mean(), {"a": a})
    check(lambda: a.sum(), {"a": a})


def test_composite_expression_grad():
    rng = np.random.default_rng(9)
    w = leaf(rng.normal(size=(3, 5)))
    x = leaf(rng.normal(size=(5,)))
    b = leaf(rng.normal(size=(3,)))

    def f():
        return ad.logsumexp(ad.tanh(w @ x) + b)

    check(f, {"w": w, "x": x, "b": b})


# -- numerical stability -----------------------------------------------------


def test_logsumexp_large_magnitudes():
    t = Tensor(np.array([1e4, 1e4 - 1.0]))
    out = ad.logsumexp(t)
    expected = 1e4 + np.log(1.0 + np.exp(-1.0))
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(expected, abs=1e-9)


def test_sigmoid_extreme_inputs():
    t = Tensor(np.array([-1e4, 0.0, 1e4]))
    out = ad.sigmoid(t).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == 0.5
    assert out[2] == pytest.approx(1.0)


def test_softmax_shift_invariance():
    t = Tensor(np.array([1e4, 1e4 + 1.0, 1e4 - 2.0]))
    out = ad.softmax(t).data
    assert np.all(np.isfinite(out))
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


# -- graph mechanics ---------------------------------------------------------


def test_backward_requires_scalar():
    t = leaf(np.ones((2, 2)))
    with pytest.raises(ad.ShapeError):
        (t + t).backward()


def test_no_grad_skips_graph():
    a = leaf(np.ones(3))
    with ad.no_grad():
        out = (a + a).sum()
    assert not out.requires_grad
    assert out._parents == ()


def test_requires_grad_propagates():
    a = leaf(np.ones(3))
    b = Tensor(np.ones(3))
    assert (a + b).requires_grad
    assert not (b + b).requires_grad


def test_grad_accumulates_across_uses():
    a = leaf(np.array([2.0]))
    out = (a + a).sum()
    out.backward()
    assert a.grad[0] == 2.0


def test_deep_chain_does_not_hit_recursion_limit():
    t = leaf(np.array([0.5]))
    out = t
    for _ in range(5000):
        out = out + t
    out.sum().backward()
    assert t.grad[0] == 5001.0


def test_diamond_graph_gradient():
    a = leaf(np.array([3.0]))
    b = a + a
    out = ad.mul(b, a).sum()  # 2a^2, d/da = 4a
    out.backward()
    assert a.grad[0] == pytest.approx(12.0)


# -- grad_check itself -------------------------------------------------------


def test_grad_check_catches_wrong_backward():
    # An op whose backward is deliberately off by a factor of two; the
    # checker must flag it, otherwise it could not be trusted elsewhere.
    a = leaf(np.array([1.5, -0.5, 2.0]))

    def bad_square():
        out = ad._node(a.data * a.data, a)
        if out.requires_grad:
            def backward(g):
                ad._accum(a, g * a.data)  # missing the factor of 2
            out._backward = backward
        return out.sum()

    report = ad.grad_check(bad_square, {"a": a})
    assert not report.passed
    assert report.max_rel_error > 0.3


def test_grad_check_reports_per_param():
    a = leaf(np.array([1.0, 2.0]))
    b = leaf(np.array([3.0]))
    report = ad.grad_check(lambda: ad.mul(a, a).sum() + b.sum(),
                           {"a": a, "b": b})
    assert report.passed
    assert set(report.per_param) == {"a", "b"}
