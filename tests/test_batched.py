"""The batched graph nodes against their per-sequence references.

Training and evaluation score a whole batch with one packed LSTM node per
direction, one emissions node and one CRF node.  Each must give what the
per-sequence nodes they replaced give (``tests/oracles.py``), in value
and in every gradient, up to summation order: within 1e-12 of the
largest magnitude of the compared array.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avex import autodiff as ad
from avex.adaptive_decoder import (
    HyperNetwork,
    TransitionMoe,
    _one_path,
    best_paths,
    build_decoder,
    chain_nll,
    emissions,
    gate,
    generate_linear,
    log_partition,
    mix_transition,
    path_score,
)
from avex.autodiff import Tensor
from avex.encoder import LstmCell, lstm_layer
from avex.errors import NumericError
from avex.tagging import NUM_TAGS, expand_tagset
from oracles import brute_viterbi, brute_viterbi_last_first
from oracles import mean as oracle_mean
from oracles import per_chain_emissions, per_chain_nll, per_sequence_lstm_layer

RTOL = 1e-12


def assert_close(got, want, what=""):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale, err_msg=what)


def leaf(rng, shape, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


def make_cell(rng, d, h):
    return LstmCell(leaf(rng, (4 * h, d + h), 0.4), leaf(rng, (4 * h,), 0.4))


def gradients(loss, leaves):
    for t in leaves:
        t.grad = None
    loss.backward()
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in leaves]


def chain_lengths(draw_lengths, long):
    """Mixed short chains, optionally with one 30 long among them."""
    return draw_lengths[:5] + [30] if long else draw_lengths


lengths_strategy = st.lists(st.integers(1, 8), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(lengths=lengths_strategy, long=st.booleans(), reverse=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_packed_lstm_matches_per_sequence_reference(lengths, long, reverse, seed):
    lengths = chain_lengths(lengths, long)
    rng = np.random.default_rng(seed)
    cell = make_cell(rng, 3, 4)
    n = sum(lengths)
    X = leaf(rng, (n, 3))
    weight = rng.normal(size=(n, 4))
    leaves = [X, *cell.tensors()]

    packed = lstm_layer(X, cell, lengths, reverse=reverse)
    got = gradients((packed * weight).sum(), leaves)

    ends = np.cumsum(lengths)
    pieces = [per_sequence_lstm_layer(ad.row(X, range(e - size, e)), cell, reverse)
              for e, size in zip(ends, lengths)]
    total = pieces[0] * weight[:ends[0]]
    for piece, e, size in zip(pieces[1:], ends[1:], lengths[1:]):
        total = ad.concat([total, piece * weight[e - size:e]])
    want = gradients(total.sum(), leaves)

    assert_close(packed.data, np.vstack([p.data for p in pieces]), "states")
    for name, g, w in zip(["X", *"abcdefgh"], got, want):
        assert_close(g, w, name)


@settings(max_examples=60, deadline=None)
@given(lengths=lengths_strategy, long=st.booleans(), decoders=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_batched_emissions_and_nll_match_per_chain_references(lengths, long, decoders,
                                                               seed):
    lengths = chain_lengths(lengths, long)
    rng = np.random.default_rng(seed)
    n, d_h = sum(lengths), 5
    H = leaf(rng, (n, d_h))
    W = leaf(rng, (decoders, NUM_TAGS, d_h))
    b = leaf(rng, (decoders, NUM_TAGS))
    T = leaf(rng, (decoders, NUM_TAGS, NUM_TAGS))
    chain_decoder = rng.integers(0, decoders, size=len(lengths))
    z = rng.integers(0, NUM_TAGS, size=n)
    leaves = [H, W, b, T]

    P = emissions(H, W, b, decoders=np.repeat(chain_decoder, lengths))
    loss = chain_nll(P, T, z, lengths, chain_decoder)
    got = gradients(loss, leaves)

    ends = np.cumsum(lengths)
    columns, losses = [], []
    for a, e, size in zip(chain_decoder, ends, lengths):
        span = range(e - size, e)
        Pc = per_chain_emissions(ad.row(H, span), ad.row(W, int(a)), ad.row(b, int(a)))
        columns.append(Pc.data)
        losses.append(ad.reshape(per_chain_nll(Pc, ad.row(T, int(a)), z[span]), (1,)))
    mean = oracle_mean(ad.concat(losses))
    want = gradients(mean, leaves)

    assert_close(P.data, np.hstack(columns), "emissions")
    assert_close(loss.data, mean.data, "mean NLL")
    for name, g, w in zip("HWbT", got, want):
        assert_close(g, w, name)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       longest=st.integers(8, 40), alone=st.booleans(), decoders=st.integers(1, 3),
       scale=st.sampled_from([0.1, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
def test_batched_nll_is_mean_of_log_partition_minus_path_score(lengths, longest, alone,
                                                               decoders, scale, seed):
    # One chain of 1 to 12 columns, or a batch with a 1-column chain and
    # one of 8 or more.  chain_nll sums each chain's path terms in its own
    # order, so it agrees with path_score up to rounding: within 1e-12 of
    # the magnitudes summed (log Z and the absolute path terms).
    lengths = lengths[:1] if alone else lengths + [1, longest]
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    P = rng.normal(scale=scale, size=(NUM_TAGS, n))
    T = rng.normal(scale=scale, size=(decoders, NUM_TAGS, NUM_TAGS))
    z = rng.integers(0, NUM_TAGS, size=n)
    chain_decoder = rng.integers(0, decoders, size=len(lengths))

    want, magnitude = [], []
    for a, e, size in zip(chain_decoder, np.cumsum(lengths), lengths):
        Pc, Tc, zc = P[:, e - size:e], T[a], z[e - size:e]
        log_z = log_partition(Pc, Tc).item()
        want.append(log_z - path_score(Pc, Tc, zc))
        magnitude.append(abs(log_z) + path_score(abs(Pc), abs(Tc), zc))
    got = chain_nll(P, T, z, lengths, chain_decoder).item()
    assert abs(got - np.mean(want)) <= 1e-12 * np.mean(magnitude)


JOINT_TAGS = len(expand_tagset(["Scent", "Color"]))  # n_tag_sets' m for two attributes


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 4), min_size=1, max_size=5), long=st.booleans(),
       decoders=st.integers(1, 3), joint=st.booleans(), integer=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_best_paths_match_brute_force_per_chain(lengths, long, decoders, joint, integer,
                                                seed):
    # Enumeration bounds the sizes: m**n paths per chain.
    m = JOINT_TAGS if joint else NUM_TAGS
    if long:  # one chain longer than all the others
        lengths = lengths + [max(lengths) + 1]
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    if integer:  # few distinct values, so best paths tie
        P = rng.integers(-1, 2, size=(m, n)).astype(float)
        T = rng.integers(-1, 2, size=(decoders, m, m)).astype(float)
    else:
        P, T = rng.normal(size=(m, n)), rng.normal(size=(decoders, m, m))
    chain_decoder = rng.integers(0, decoders, size=len(lengths))

    paths = best_paths(P, T, lengths, chain_decoder)

    assert len(paths) == len(lengths)
    for path, a, e, size in zip(paths, chain_decoder, np.cumsum(lengths), lengths):
        Pc = P[:, e - size:e]
        assert path == brute_viterbi_last_first(Pc, T[a])[0]
        if not integer:
            assert path == brute_viterbi(Pc, T[a])[0]


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, NUM_TAGS), n=st.integers(1, 8), other=st.integers(1, 8),
       first=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_one_chain_paths_equal_the_batched_recursion(m, n, other, first, seed):
    # Integer scores and signed zeros, so that paths tie and ±0.0 meet.
    rng = np.random.default_rng(seed)
    def scores(shape):
        values = rng.integers(-1, 2, size=shape).astype(float)
        return np.where(rng.random(shape) < 0.5, -values, values)  # -0.0 too
    P, T = scores((m, n)), scores((m, m))
    alone = _one_path(P, T)
    # The numpy recursion, on the chain alone and beside a second chain.
    assert best_paths(P, T) == [alone]
    P2, T2 = scores((m, other)), scores((m, m))
    if first:
        paths = best_paths(np.hstack([P, P2]), np.stack([T, T2]), [n, other], [0, 1])
    else:
        paths = best_paths(np.hstack([P2, P]), np.stack([T2, T]), [other, n], [0, 1])[::-1]
    assert alone == paths[0]
    bad = P.copy()
    bad[rng.integers(m), rng.integers(n)] = np.nan
    with pytest.raises(NumericError, match="chain 0"):
        best_paths(bad, T)


def test_only_one_chain_over_bioe_tags_takes_the_float_recursion(monkeypatch):
    # The caller picks the path: a served chain over the BIOE tags is
    # decoded by _one_path with no packing; a served chain over the joint
    # tags of n_tag_sets, and a batch, even of one chain, take best_paths.
    from avex import adaptive_decoder, models
    from test_models import build
    calls = {}
    for module, name in ((models, "_one_path"), (models, "best_paths"),
                         (adaptive_decoder, "packed_steps")):
        real = getattr(module, name)
        calls[name] = []
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, seen=calls[name]: seen.append(a) or real(*a))
    counts = lambda: [len(calls[name]) for name in ("_one_path", "best_paths", "packed_steps")]
    text = ["white", "cotton", "towel"]
    model, _, _ = build("bilstm_multicrf")
    served = model.predict_tags(text, "Color")
    assert counts() == [1, 0, 0]
    assert model.predict_batch([(text, "Color")]) == [served]
    assert counts() == [1, 1, 1]
    joint, _, _ = build("n_tag_sets")
    joint.predict_tags(text, "Color")
    assert counts() == [1, 2, 2]


def test_emissions_rows_gather_repeated_encoder_rows():
    # Three chains read the same encoder rows (one text): two attributes,
    # and the first again (two products with the same title).
    rng = np.random.default_rng(3)
    H = leaf(rng, (3, 4))
    W = leaf(rng, (2, NUM_TAGS, 4))
    b = leaf(rng, (2, NUM_TAGS))
    rows, dec = [0, 1, 2] * 3, [0, 0, 0, 1, 1, 1, 0, 0, 0]
    P = emissions(H, W, b, rows, dec)
    for chain, a in enumerate((0, 1, 0)):
        np.testing.assert_allclose(P.data[:, 3 * chain:3 * chain + 3],
                                   W.data[a] @ H.data.T + b.data[a][:, None],
                                   rtol=1e-14)
    report = ad.grad_check(lambda: (emissions(H, W, b, rows, dec) * P.data).sum(),
                           {"H": H, "W": W, "b": b}, tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("rows, decoders", [
    (None, None), ([0, 1, 2, 3, 4], [1, 1, 0, 2, 1]), ([4, 4, 0], [2, 0, 2])])
def test_emissions_is_one_node(rows, decoders, monkeypatch):
    rng = np.random.default_rng(4)
    H, W, b = leaf(rng, (5, 3)), leaf(rng, (3, NUM_TAGS, 3)), leaf(rng, (3, NUM_TAGS))
    made = []
    real = ad._node
    monkeypatch.setattr(ad, "_node", lambda *a: made.append(a) or real(*a))
    for recording in (True, False):
        with nullcontext() if recording else ad.no_grad():
            out = emissions(H, W, b, rows, decoders)
        assert len(made) == 1
        assert out._parents == ((H, W, b) if recording else ())
        made.clear()


@pytest.mark.parametrize("reverse", [False, True])
def test_packed_lstm_gradcheck(reverse):
    rng = np.random.default_rng(8)
    cell = make_cell(rng, 3, 2)
    X = leaf(rng, (6, 3))
    weight = rng.normal(size=(6, 2))
    params = {"X": X, **{f"w{i}": t for i, t in enumerate(cell.tensors())}}
    report = ad.grad_check(
        lambda: (lstm_layer(X, cell, [2, 3, 1], reverse=reverse) * weight).sum(),
        params, tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_batched_nll_gradcheck():
    rng = np.random.default_rng(9)
    P, T = leaf(rng, (NUM_TAGS, 7)), leaf(rng, (2, NUM_TAGS, NUM_TAGS))
    z = rng.integers(0, NUM_TAGS, size=7)
    report = ad.grad_check(lambda: chain_nll(P, T, z, [3, 1, 3], [1, 0, 1]) * 1.7,
                           {"P": P, "T": T}, tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_chain_nll_rejects_bad_layouts():
    P, T = np.zeros((NUM_TAGS, 4)), np.zeros((2, NUM_TAGS, NUM_TAGS))
    for lengths, decoders in (([3], [0]), ([2, 2], [0]), ([2, 2], [0, 2]),
                              ([4, 0], [0, 0])):
        with pytest.raises(ValueError):
            chain_nll(P, T, [0] * 4, lengths, decoders)


def small_generators(rng, d_h=3, d_r=4, k=3):
    hyper = HyperNetwork(leaf(rng, (NUM_TAGS * d_h, d_r)), leaf(rng, (NUM_TAGS * d_h,)),
                         leaf(rng, (NUM_TAGS, d_r)), leaf(rng, (NUM_TAGS,)))
    moe = TransitionMoe(leaf(rng, (k, d_r)), leaf(rng, (k,)),
                        leaf(rng, (k, NUM_TAGS, NUM_TAGS)))
    return hyper, moe


def test_stacked_generation_matches_one_attribute_at_a_time():
    rng = np.random.default_rng(10)
    hyper, moe = small_generators(rng)
    R = rng.normal(size=(3, 4))
    stacked = build_decoder(hyper, moe, R)
    for a in range(3):
        one = build_decoder(hyper, moe, R[a])
        for part in ("W", "b", "T"):
            np.testing.assert_allclose(getattr(stacked, part).data[a],
                                       getattr(one, part).data, rtol=1e-14, atol=1e-15)


def test_stacked_generation_gradcheck():
    rng = np.random.default_rng(11)
    hyper, moe = small_generators(rng)
    R = leaf(rng, (2, 4))
    weights = [rng.normal(size=s) for s in ((2, NUM_TAGS, 3), (2, NUM_TAGS),
                                            (2, NUM_TAGS, NUM_TAGS))]

    def f():
        dec = build_decoder(hyper, moe, R)
        return ((dec.W * weights[0]).sum() + (dec.b * weights[1]).sum()
                + (dec.T * weights[2]).sum())

    params = {"R": R, **{f"h{i}": t for i, t in enumerate(hyper.tensors())},
              **{f"m{i}": t for i, t in enumerate(moe.tensors())}}
    report = ad.grad_check(f, params, tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_stacked_gate_rows_are_distributions():
    rng = np.random.default_rng(12)
    _, moe = small_generators(rng)
    lam = gate(moe, rng.normal(size=(5, 4)))
    np.testing.assert_allclose(lam.data.sum(axis=1), 1.0, atol=1e-12)
    assert mix_transition(moe, lam).data.shape == (5, NUM_TAGS, NUM_TAGS)
    W, b = generate_linear(*small_generators(rng)[:1], rng.normal(size=(5, 4)))
    assert (W.data.shape, b.data.shape) == ((5, NUM_TAGS, 3), (5, NUM_TAGS))


def test_stack_and_linear_gradcheck():
    rng = np.random.default_rng(13)
    a, b = leaf(rng, (2, 3)), leaf(rng, (2, 3))
    x, w, c = leaf(rng, (3,)), leaf(rng, (4, 3)), leaf(rng, (4,))
    X = leaf(rng, (5, 3))
    weight, upstream = rng.normal(size=(2, 2, 3)), rng.normal(size=(5, 4))
    for f, params in (
            (lambda: (ad.stack([a, b]) * weight).sum(), {"a": a, "b": b}),
            (lambda: (ad.linear(x, w, c) * np.arange(4.0)).sum(), {"x": x, "w": w, "c": c}),
            (lambda: (ad.linear(X, w, c) * upstream).sum(), {"X": X, "w": w, "c": c})):
        report = ad.grad_check(f, params, tolerance=1e-6)
        assert report.passed, report.max_rel_error
