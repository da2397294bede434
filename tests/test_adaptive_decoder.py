import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avex import autodiff as ad
from avex.autodiff import Tensor
from avex.adaptive_decoder import (
    HyperNetwork,
    TransitionMoe,
    best_paths,
    build_decoder,
    chain_nll,
    emissions,
    gate,
    generate_linear,
    log_partition,
    mix_transition,
    path_score,
    viterbi,
)
from avex.errors import NumericError
from avex.tagging import NUM_TAGS
from oracles import (
    all_path_scores,
    all_paths,
    brute_log_partition,
    brute_marginals,
    brute_path_score,
    brute_viterbi,
    path_counts,
    recursive_log_partition,
)


def make_hyper(rng, d_h, d_r, requires_grad=False):
    def t(shape):
        return Tensor(rng.normal(scale=0.3, size=shape),
                      requires_grad=requires_grad)
    return HyperNetwork(w_w=t((NUM_TAGS * d_h, d_r)), b_w=t((NUM_TAGS * d_h,)),
                        w_b=t((NUM_TAGS, d_r)), b_b=t((NUM_TAGS,)))


def make_moe(rng, k, d_r, requires_grad=False):
    def t(shape):
        return Tensor(rng.normal(scale=0.3, size=shape),
                      requires_grad=requires_grad)
    return TransitionMoe(w_gate=t((k, d_r)), b_gate=t((k,)),
                         experts=t((k, NUM_TAGS, NUM_TAGS)))


def random_chain(rng, n):
    P = rng.normal(size=(NUM_TAGS, n))
    T = rng.normal(size=(NUM_TAGS, NUM_TAGS))
    return P, T


# -- parameter generation ----------------------------------------------------


def test_generate_linear_shapes_and_reshape_order():
    rng = np.random.default_rng(0)
    hyper = make_hyper(rng, d_h=5, d_r=3)
    r = rng.normal(size=3)
    W, b = generate_linear(hyper, r)
    assert W.data.shape == (NUM_TAGS, 5)
    assert b.data.shape == (NUM_TAGS,)
    flat = hyper.w_w.data @ r + hyper.b_w.data
    np.testing.assert_array_equal(W.data, flat.reshape(NUM_TAGS, 5))


def test_generate_linear_zero_embedding_gives_bias():
    rng = np.random.default_rng(1)
    hyper = make_hyper(rng, d_h=4, d_r=6)
    W, b = generate_linear(hyper, np.zeros(6))
    # With r = 0 the affine map passes its bias through bit for bit.
    np.testing.assert_array_equal(
        W.data, hyper.b_w.data.reshape(NUM_TAGS, 4))
    np.testing.assert_array_equal(b.data, hyper.b_b.data)


def test_generate_linear_rejects_wrong_dim():
    rng = np.random.default_rng(2)
    hyper = make_hyper(rng, d_h=4, d_r=6)
    with pytest.raises(ValueError):
        generate_linear(hyper, np.zeros(5))


def test_gate_is_a_distribution():
    rng = np.random.default_rng(3)
    moe = make_moe(rng, k=3, d_r=5)
    for _ in range(20):
        lam = gate(moe, rng.normal(size=5))
        assert np.all(lam.data > 0)
        assert lam.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_gate_hand_value():
    # Logits [ln 3, 0] -> softmax [0.75, 0.25].
    moe = TransitionMoe(
        w_gate=Tensor(np.zeros((2, 1))),
        b_gate=Tensor(np.array([math.log(3.0), 0.0])),
        experts=Tensor(np.stack([np.zeros((NUM_TAGS, NUM_TAGS)),
                                 np.ones((NUM_TAGS, NUM_TAGS))])))
    lam = gate(moe, np.zeros(1))
    np.testing.assert_allclose(lam.data, [0.75, 0.25], atol=1e-12)
    mixed = mix_transition(moe, lam)
    np.testing.assert_allclose(mixed.data, 0.25, atol=1e-12)


def test_single_expert_mixture_is_identity():
    rng = np.random.default_rng(4)
    moe = make_moe(rng, k=1, d_r=5)
    for _ in range(10):
        dec_T = mix_transition(moe, gate(moe, rng.normal(size=5)))
        np.testing.assert_array_equal(dec_T.data, moe.experts.data[0])


def test_equal_gate_mixes_halves():
    moe = TransitionMoe(
        w_gate=Tensor(np.zeros((2, 1))), b_gate=Tensor(np.zeros(2)),
        experts=Tensor(np.stack([np.zeros((NUM_TAGS, NUM_TAGS)),
                                 np.ones((NUM_TAGS, NUM_TAGS))])))
    T = mix_transition(moe, gate(moe, np.zeros(1)))
    np.testing.assert_allclose(T.data, 0.5, atol=1e-15)


def test_build_decoder_bundles_all_parts():
    rng = np.random.default_rng(5)
    hyper = make_hyper(rng, d_h=4, d_r=6)
    moe = make_moe(rng, k=2, d_r=6)
    dec = build_decoder(hyper, moe, rng.normal(size=6))
    assert dec.W.data.shape == (NUM_TAGS, 4)
    assert dec.b.data.shape == (NUM_TAGS,)
    assert dec.T.data.shape == (NUM_TAGS, NUM_TAGS)


def test_emissions_layout():
    rng = np.random.default_rng(6)
    H = rng.normal(size=(3, 5))
    W = rng.normal(size=(NUM_TAGS, 5))
    b = rng.normal(size=NUM_TAGS)
    P = emissions(H, W, b)
    assert P.data.shape == (NUM_TAGS, 3)
    np.testing.assert_allclose(P.data, W @ H.T + b[:, None], atol=1e-12)


# -- chain scoring against exhaustive enumeration ----------------------------


def test_log_partition_uniform_hand_value():
    # All scores zero, two positions: every one of the 16 paths scores 0,
    # so the partition is ln 16.
    P = np.zeros((NUM_TAGS, 2))
    T = np.zeros((NUM_TAGS, NUM_TAGS))
    assert log_partition(P, T).item() == pytest.approx(math.log(16.0),
                                                       abs=1e-12)


def test_log_partition_single_position():
    P = np.array([[1.0], [2.0], [3.0], [4.0]])
    T = np.zeros((NUM_TAGS, NUM_TAGS))
    expected = np.log(np.exp([1.0, 2.0, 3.0, 4.0]).sum())
    assert log_partition(P, T).item() == pytest.approx(expected, abs=1e-12)


def test_log_partition_matches_brute_force():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(20):
            P, T = random_chain(rng, n)
            got = log_partition(P, T).item()
            want = brute_log_partition(P, T)
            assert got == pytest.approx(want, abs=1e-9)


@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.01, 3.0))
def test_log_partition_bounds_viterbi_score(n, seed, scale):
    # log Z sums the best path's exp-score with every other path's.  The
    # slack covers rounding only: viterbi re-adds its path in another order.
    P, T = random_chain(np.random.default_rng(seed), n)
    _path, best = viterbi(P * scale, T * scale)
    assert log_partition(P * scale, T * scale).item() >= best - 1e-12 * (1 + abs(best))


def test_chain_score_matches_brute_force_bitwise():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        P, T = random_chain(rng, n)
        for z in all_paths(NUM_TAGS, n):
            assert path_score(P, T, z) == brute_path_score(P, T, z)


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        for _ in range(20):
            P, T = random_chain(rng, n)
            path, score = viterbi(P, T)
            brute_path, brute_score = brute_viterbi(P, T)
            assert score == brute_score  # bitwise: same summation order
            assert path == brute_path


def test_vectorized_oracle_matches_per_path_definition():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        P, T = random_chain(rng, n)
        Z, scores = all_path_scores(P, T)
        assert Z.tolist() == [list(z) for z in all_paths(NUM_TAGS, n)]
        for z, s in zip(Z, scores):
            assert s == brute_path_score(P, T, z)  # bitwise

        zero_path, zero_score = brute_viterbi(np.zeros((NUM_TAGS, n)),
                                              np.zeros((NUM_TAGS, NUM_TAGS)))
        assert zero_path == [0] * n
        assert zero_score == 0.0

        # Integer-valued chains tie often; a strict-> scan in lexicographic
        # order defines which maximizer wins.
        for _ in range(5):
            P = rng.integers(-1, 2, size=(NUM_TAGS, n)).astype(float)
            T = rng.integers(-1, 2, size=(NUM_TAGS, NUM_TAGS)).astype(float)
            best_z, best_s = None, -np.inf
            for z in all_paths(NUM_TAGS, n):
                s = brute_path_score(P, T, z)
                if s > best_s:
                    best_z, best_s = list(z), s
            assert brute_viterbi(P, T) == (best_z, best_s)


def test_viterbi_tie_breaks_to_smallest_index():
    P = np.zeros((NUM_TAGS, 3))
    T = np.zeros((NUM_TAGS, NUM_TAGS))
    path, score = viterbi(P, T)
    assert path == [0, 0, 0]
    assert score == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_viterbi_refuses_non_finite_scores(bad):
    with pytest.raises(NumericError):
        viterbi(np.full((NUM_TAGS, 3), bad), np.zeros((NUM_TAGS, NUM_TAGS)))
    T = np.zeros((NUM_TAGS, NUM_TAGS))
    T[1, 2] = bad
    with pytest.raises(NumericError):
        viterbi(np.zeros((NUM_TAGS, 3)), T)


def batch_of_three(rng):
    """Chains of 2, 3 and 1 positions over three tables."""
    return (rng.normal(size=(NUM_TAGS, 6)), rng.normal(size=(3, NUM_TAGS, NUM_TAGS)),
            [2, 3, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_best_paths_refuses_the_chain_with_non_finite_scores(bad):
    P, T, lengths = batch_of_three(np.random.default_rng(14))
    P_bad = P.copy()
    P_bad[1, 3] = bad  # the second position of chain 1
    with pytest.raises(NumericError, match="chain 1"):
        best_paths(P_bad, T, lengths, [0, 2, 1])
    T_bad = T.copy()
    T_bad[2, 0, 3] = bad  # the table of chain 1 only
    with pytest.raises(NumericError, match="chain 1"):
        best_paths(P, T_bad, lengths, [0, 2, 1])
    P_bad[1, 0] = bad  # chain 0 too, ranked after the longer chain 1: the first is named
    with pytest.raises(NumericError, match="chain 0"):
        best_paths(P_bad, T_bad, lengths, [0, 2, 1])


def test_best_paths_ignores_non_finite_tables_no_chain_uses():
    P, T, lengths = batch_of_three(np.random.default_rng(15))
    T_bad = T.copy()
    T_bad[1] = np.nan  # decoder 1: no chain below uses it
    got = best_paths(P, T_bad, lengths, [0, 2, 0])
    assert got == best_paths(P, T, lengths, [0, 2, 0])
    assert got == [viterbi(P[:, :2], T[0])[0], viterbi(P[:, 2:5], T[2])[0],
                   viterbi(P[:, 5:], T[0])[0]]


def test_score_order_viterbi_partition():
    rng = np.random.default_rng(10)
    for _ in range(25):
        P, T = random_chain(rng, 4)
        z = rng.integers(0, NUM_TAGS, size=4)
        s = path_score(P, T, z)
        _, v = viterbi(P, T)
        logz = log_partition(P, T).item()
        assert s <= v + 1e-12
        assert v <= logz + 1e-12


def test_nll_is_nonnegative_and_normalized():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        P, T = random_chain(rng, n)
        total = 0.0
        for z in all_paths(NUM_TAGS, n):
            nll = chain_nll(P, T, list(z)).item()
            assert nll >= -1e-12
            total += math.exp(-nll)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_chain_score_rejects_bad_paths():
    P = np.zeros((NUM_TAGS, 3))
    T = np.zeros((NUM_TAGS, NUM_TAGS))
    with pytest.raises(ValueError):
        chain_nll(P, T, [0, 1])  # wrong length
    with pytest.raises(ValueError):
        chain_nll(P, T, [0, 1, 7])  # out of range


def test_check_chain_rejects_mismatched_transition():
    with pytest.raises(ValueError):
        log_partition(np.zeros((4, 2)), np.zeros((3, 3)))


# -- the fused NLL and log-partition nodes -----------------------------------


def _chain_grads(f, P, T):
    P, T = Tensor(P, requires_grad=True), Tensor(T, requires_grad=True)
    out = f(P, T)
    out.backward()
    return out, *(np.zeros_like(t.data) if t.grad is None else t.grad for t in (P, T))


def test_chain_nll_is_one_graph_node():
    rng = np.random.default_rng(13)
    P, T = random_chain(rng, 5)
    out, _, _ = _chain_grads(lambda P, T: chain_nll(P, T, [0, 1, 2, 3, 0]), P, T)
    assert all(p._parents == () for p in out._parents)


@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_chain_nll_gradient_is_marginals_minus_counts(n, seed, scale):
    rng = np.random.default_rng(seed)
    P, T = random_chain(rng, n)
    P, T = P * scale, T * scale
    z = rng.integers(0, NUM_TAGS, size=n)
    _, dP, dT = _chain_grads(lambda P, T: chain_nll(P, T, z), P, T)
    unary, pair = brute_marginals(P, T)
    onehot, counts = path_counts(z, NUM_TAGS)
    np.testing.assert_allclose(dP, unary - onehot, rtol=0, atol=1e-9)
    np.testing.assert_allclose(dT, pair - counts, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_log_partition_gradient_is_marginals(n):
    rng = np.random.default_rng(14 + n)
    P, T = random_chain(rng, n)
    _, dP, dT = _chain_grads(log_partition, P, T)
    unary, pair = brute_marginals(P, T)
    np.testing.assert_allclose(dP, unary, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dT, pair, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 30])
def test_log_partition_gradient_matches_recursion_reference(n):
    rng = np.random.default_rng(16 + n)
    P, T = random_chain(rng, n)
    P, T = P * 3.0, T * 3.0
    out, dP, dT = _chain_grads(log_partition, P, T)
    ref, ref_dP, ref_dT = _chain_grads(recursive_log_partition, P, T)
    assert out.item() == ref.item()
    np.testing.assert_allclose(dP, ref_dP, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(dT, ref_dT, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_chain_nll_gradcheck(n):
    rng = np.random.default_rng(20 + n)
    P = Tensor(rng.normal(size=(NUM_TAGS, n)), requires_grad=True)
    T = Tensor(rng.normal(size=(NUM_TAGS, NUM_TAGS)), requires_grad=True)
    z = rng.integers(0, NUM_TAGS, size=n)
    # A non-unit upstream gradient, so the op must scale by it.
    report = ad.grad_check(lambda: chain_nll(P, T, z) * 1.7, {"P": P, "T": T},
                           tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_chain_nll_value_is_log_partition_minus_score():
    # chain_nll sums every chain's path terms in one pass, in an order
    # that need not be path_score's, so the two agree up to rounding.
    rng = np.random.default_rng(15)
    for n in (1, 3, 7):
        P, T = random_chain(rng, n)
        z = rng.integers(0, NUM_TAGS, size=n)
        assert chain_nll(P, T, z).item() == pytest.approx(
            log_partition(P, T).item() - path_score(P, T, z), rel=1e-12, abs=0)


# -- gradients through the whole generated decoder ---------------------------


def test_nll_gradcheck_through_generation():
    rng = np.random.default_rng(12)
    hyper = make_hyper(rng, d_h=3, d_r=4, requires_grad=True)
    moe = make_moe(rng, k=2, d_r=4, requires_grad=True)
    r = rng.normal(size=4)
    H = rng.normal(size=(3, 3))
    z = [0, 1, 3]

    def f():
        dec = build_decoder(hyper, moe, r)
        P = emissions(H, dec.W, dec.b)
        return chain_nll(P, dec.T, z)

    params = {f"h{i}": t for i, t in enumerate(hyper.tensors())}
    params.update({f"m{i}": t for i, t in enumerate(moe.tensors())})
    report = ad.grad_check(f, params, tolerance=1e-6)
    assert report.passed, report.max_rel_error
