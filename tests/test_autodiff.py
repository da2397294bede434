import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avex import autodiff as ad
from avex.autodiff import Tensor
from oracles import logsumexp, matmul, mean, sigmoid, tanh, transpose


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
    check(lambda: matmul(a, b).sum(), {"a": a, "b": b})
    check(lambda: matmul(a, v).sum(), {"a": a, "v": v})


def test_concat_reshape_transpose_grads():
    rng = np.random.default_rng(3)
    a = leaf(rng.normal(size=(2, 3)))
    b = leaf(rng.normal(size=(1, 3)))
    check(lambda: ad.concat([a, b], axis=0).sum(), {"a": a, "b": b})
    # Along axis 1, where encode_batch joins its two directions: each of
    # three pieces must get back exactly its own columns.
    c = leaf(rng.normal(size=(2, 1)))
    w = rng.normal(size=(2, 7))
    check(lambda: ad.mul(ad.concat([a, c, a], axis=1), w).sum(), {"a": a, "c": c})
    check(lambda: a.reshape((3, 2)).sum(), {"a": a})
    check(lambda: ad.mul(transpose(a), transpose(a)).sum(), {"a": a})


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


def test_nonlinearity_grads():
    rng = np.random.default_rng(6)
    a = leaf(rng.normal(size=(7,)))
    check(lambda: sigmoid(a).sum(), {"a": a})
    check(lambda: tanh(a).sum(), {"a": a})
    check(lambda: ad.mul(ad.softmax(a), a).sum(), {"a": a})
    u, v = leaf(rng.normal(size=(3,))), leaf(rng.normal(size=(3,)))
    w = rng.normal(size=(2, 3))
    check(lambda: ad.mul(ad.softmax(ad.stack([u, v])), w).sum(), {"u": u, "v": v})


def test_logsumexp_grads():
    rng = np.random.default_rng(7)
    a = leaf(rng.normal(size=(3, 4)))
    v = leaf(rng.normal(size=(5,)))
    check(lambda: logsumexp(v), {"v": v})
    check(lambda: logsumexp(a, axis=0).sum(), {"a": a})
    check(lambda: logsumexp(a, axis=1).sum(), {"a": a})


def test_mean_and_sum_grads():
    rng = np.random.default_rng(8)
    a = leaf(rng.normal(size=(6,)))
    check(lambda: mean(a), {"a": a})
    check(lambda: a.sum(), {"a": a})


def test_composite_expression_grad():
    rng = np.random.default_rng(9)
    w = leaf(rng.normal(size=(3, 5)))
    x = leaf(rng.normal(size=(5,)))
    b = leaf(rng.normal(size=(3,)))

    def f():
        return logsumexp(tanh(matmul(w, x)) + b)

    check(f, {"w": w, "x": x, "b": b})


# -- numerical stability -----------------------------------------------------


def test_logsumexp_large_magnitudes():
    t = Tensor(np.array([1e4, 1e4 - 1.0]))
    out = logsumexp(t)
    expected = 1e4 + np.log(1.0 + np.exp(-1.0))
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(expected, abs=1e-9)


def test_sigmoid_extreme_inputs():
    t = Tensor(np.array([-1e4, 0.0, 1e4]))
    out = sigmoid(t).data
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


def test_shared_gradient_arrays_are_never_written_in_place():
    # add's backward hands one array to both operands, so a.grad and b.grad
    # start out as the same array.  A later gradient of one operand, added
    # by _accum or scattered by row, must not leak into the other.  Dyadic
    # values keep every sum exact, so the gradients must equal the
    # hand-derived ones bitwise.
    w = np.array([1.5, -2.0, 0.25])
    for later, extra in ((lambda a: ad.mul(a, w).sum(), w),
                         (lambda a: ad.row(a, [0, 0, 2]).sum(), [2.0, 0.0, 1.0])):
        a = leaf(np.array([0.5, 1.0, -1.0]))
        b = leaf(np.array([2.0, -0.5, 0.75]))
        (ad.mul((a + b) * 1.0, w).sum() + later(a)).backward()
        np.testing.assert_array_equal(a.grad, w + extra)
        np.testing.assert_array_equal(b.grad, w)


def test_data_assignment_bumps_version():
    t = Tensor(np.zeros(3))
    start = t.version
    t.data = t.data + 1.0
    t.data -= 0.5  # augmented assignment goes through the setter too
    assert t.version == start + 2
    t.data[0] = 7.0  # a write into the array is not an assignment
    assert t.version == start + 2


def test_every_exported_name_is_defined():
    missing = [name for name in ad.__all__ if not hasattr(ad, name)]
    assert missing == []


# -- the step plan of packed sequences ----------------------------------------


@given(st.lists(st.integers(1, 8), min_size=1, max_size=7), st.booleans())
def test_step_plan_walks_every_packed_row_once(lengths, reverse):
    pack = ad.packed_steps(lengths, reverse)
    n = sum(lengths)
    packed = np.arange(n)
    source = packed[pack.rows]  # each packed row's input row
    owner = np.repeat(np.arange(len(lengths)), lengths)  # each input row's sequence
    seen = []
    last = np.full(len(lengths), -1)  # per rank, the packed row of its latest step
    for t, (now, before, running) in enumerate(pack.plan):
        rows = np.atleast_1d(packed[now])
        width = int(pack.starts[t + 1] - pack.starts[t])
        assert rows.tolist() == list(range(pack.starts[t], pack.starts[t + 1]))
        # an index is a plain int exactly when one sequence runs
        for index in (now, running) if before is None else (now, before, running):
            assert isinstance(index, int) == (width == 1)
        # the running ranks are a prefix, and they own the step's rows
        ranks = np.atleast_1d(np.arange(len(lengths))[running])
        assert ranks.tolist() == list(range(width))
        assert owner[source[rows]].tolist() == pack.rank[ranks].tolist()
        if t == 0:
            assert before is None
        else:
            carried = np.atleast_1d(packed[before])
            assert owner[source[carried]].tolist() == owner[source[rows]].tolist()
            step_back = 1 if reverse else -1
            assert (source[carried] == source[rows] + step_back).all()
        seen.extend(rows.tolist())
        last[ranks] = rows
    assert seen == list(range(n))  # each packed row belongs to exactly one step
    assert pack.ends.tolist() == last.tolist()
    # a sequence's last step reads its last input row, or with reverse its first
    final = np.cumsum(lengths) - 1
    first = final - np.asarray(lengths) + 1
    assert source[pack.ends].tolist() == (first if reverse else final)[pack.rank].tolist()


# -- grad_check itself -------------------------------------------------------


def test_grad_check_catches_wrong_backward():
    # An op whose backward is deliberately off by a factor of two; the
    # checker must flag it, otherwise it could not be trusted elsewhere.
    a = leaf(np.array([1.5, -0.5, 2.0]))

    def bad_square():
        # The vjp is missing the factor of 2.
        return ad.fused(a.data * a.data, (a,), lambda g: (g * a.data,)).sum()

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
