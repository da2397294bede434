"""Brute-force reference implementations used to pin expected values.

Everything here enumerates all m**n tag sequences directly, so it is only
usable for short chains, which is exactly the point: the production code
must agree with an implementation too simple to be wrong.

``brute_path_score`` is the definition of one path's score.  The
``brute_log_partition`` and ``brute_viterbi`` oracles score every path at
once: ``all_path_scores`` stacks all paths into one ``(m**n, n)`` index
array and sums gathered rows, which gives each path exactly the value
``brute_path_score`` would.  Acceptance criterion 1 times these oracles
inside its 10 s wall-clock bound, so they must not go back to a per-path
Python loop.
"""

import itertools

import numpy as np

from avex.autodiff import Tensor, as_tensor, concat, logsumexp, matmul, reshape, \
    row, sigmoid, tanh, transpose


def all_paths(m: int, n: int):
    return itertools.product(range(m), repeat=n)


def brute_path_score(P: np.ndarray, T: np.ndarray, z) -> float:
    z = list(z)
    # Transition total first, emission total second, matching the
    # production scoring order so short sums agree bitwise.
    trans = np.sum(T[z[:-1], z[1:]]) if len(z) > 1 else 0.0
    emit = np.sum(P[z, np.arange(len(z))])
    return float(trans + emit)


def all_path_scores(P: np.ndarray, T: np.ndarray):
    """Every path as a row of ``Z`` and its score, in lexicographic order."""
    m, n = P.shape
    Z = np.array(list(all_paths(m, n)), dtype=int)
    # Same order as brute_path_score: each row sums left to right, and the
    # transition total is added before the emission total.
    trans = T[Z[:, :-1], Z[:, 1:]].sum(axis=1)
    emit = P[Z, np.arange(n)].sum(axis=1)
    return Z, trans + emit


def brute_log_partition(P: np.ndarray, T: np.ndarray) -> float:
    _, scores = all_path_scores(P, T)
    mx = scores.max()
    return float(mx + np.log(np.exp(scores - mx).sum()))


def brute_viterbi(P: np.ndarray, T: np.ndarray):
    Z, scores = all_path_scores(P, T)
    # argmax returns the first maximizer; rows are in lexicographic order,
    # matching the smallest-index tie-break of the production decoder.
    best = int(np.argmax(scores))
    return Z[best].tolist(), float(scores[best])


def brute_marginals(P: np.ndarray, T: np.ndarray):
    """Tag marginals (m, n) and expected transition counts (m, m) by
    weighting every enumerated path with its probability."""
    m, n = P.shape
    Z, scores = all_path_scores(P, T)
    prob = np.exp(scores - brute_log_partition(P, T))
    unary = np.zeros((m, n))
    pair = np.zeros((m, m))
    for z, p in zip(Z, prob):
        unary[z, np.arange(n)] += p
        np.add.at(pair, (z[:-1], z[1:]), p)
    return unary, pair


def path_counts(z, m: int):
    """One-hot tags (m, n) and transition counts (m, m) of one path."""
    z = np.asarray(z)
    onehot = np.zeros((m, z.size))
    onehot[z, np.arange(z.size)] = 1.0
    counts = np.zeros((m, m))
    np.add.at(counts, (z[:-1], z[1:]), 1.0)
    return onehot, counts


def recursive_log_partition(P, T):
    """Log Z by the forward recursion in per-step autodiff ops: the
    reference for the fused node's gradient on chains too long to enumerate."""
    P, T = as_tensor(P), as_tensor(T)
    m, n = P.data.shape
    columns = transpose(P)
    alpha = row(columns, 0)
    for i in range(1, n):
        alpha = logsumexp(reshape(alpha, (m, 1)) + T, axis=0) + row(columns, i)
    return logsumexp(alpha)


def lstm_step(x, h, c, cell):
    """One LSTM step as per-gate autodiff ops: the reference recurrence."""
    xh = concat([x, h])
    i = sigmoid(matmul(cell.w_i, xh) + cell.b_i)
    f = sigmoid(matmul(cell.w_f, xh) + cell.b_f)
    o = sigmoid(matmul(cell.w_o, xh) + cell.b_o)
    g = tanh(matmul(cell.w_g, xh) + cell.b_g)
    c_next = f * c + i * g
    h_next = o * tanh(c_next)
    return h_next, c_next


def run_lstm(xs, cell, reverse=False):
    """Reference hidden state per position, one ``lstm_step`` at a time."""
    hidden = cell.hidden_size
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    states = []
    for x in (reversed(xs) if reverse else xs):
        h, c = lstm_step(x, h, c, cell)
        states.append(h)
    if reverse:
        states.reverse()
    return states


def numeric_lstm_step(x, h, c, w_i, b_i, w_f, b_f, w_o, b_o, w_g, b_g):
    """One LSTM step written with plain numpy, no autodiff involved."""
    xh = np.concatenate([x, h])
    i = 1.0 / (1.0 + np.exp(-(w_i @ xh + b_i)))
    f = 1.0 / (1.0 + np.exp(-(w_f @ xh + b_f)))
    o = 1.0 / (1.0 + np.exp(-(w_o @ xh + b_o)))
    g = np.tanh(w_g @ xh + b_g)
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new
