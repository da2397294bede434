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
import re
import string

import numpy as np

from avex.autodiff import Tensor, as_tensor, concat, fused, reshape, row


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
    # argmax returns the first maximizer; rows are in lexicographic order.
    # The production decoder breaks ties from the last position back (see
    # brute_viterbi_last_first); the two agree when one path is best.
    best = int(np.argmax(scores))
    return Z[best].tolist(), float(scores[best])


def brute_viterbi_last_first(P: np.ndarray, T: np.ndarray):
    """``brute_viterbi`` with the decoder's tie-break: of the best paths,
    the one with the smallest last tag, then the smallest tag before it,
    and so on back to the first."""
    Z, scores = all_path_scores(P, T)
    order = np.lexsort(Z.T)  # the last position is the primary key
    best = order[int(np.argmax(scores[order]))]
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


def matmul(a, b) -> Tensor:
    """Matrix product (m, k) @ (k, n) or (m, k) @ (k,)."""
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim == 1:
        return fused(a.data @ b.data, (a, b),
                     lambda g: (np.outer(g, b.data), a.data.T @ g))
    return fused(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def transpose(t) -> Tensor:
    t = as_tensor(t)
    return fused(t.data.T, (t,), lambda g: (g.T,))


def mean(t) -> Tensor:
    t = as_tensor(t)
    size = t.data.size
    return fused(np.asarray(t.data.mean()), (t,),
                 lambda g: (np.broadcast_to(g / size, t.data.shape).copy(),))


def sigmoid(t) -> Tensor:
    """Elementwise logistic function, stable for large |t|."""
    t = as_tensor(t)
    x = t.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)
    return fused(data, (t,), lambda g: (g * data * (1.0 - data),))


def tanh(t) -> Tensor:
    t = as_tensor(t)
    data = np.tanh(t.data)
    return fused(data, (t,), lambda g: (g * (1.0 - data * data),))


def logsumexp(t, axis: int | None = None) -> Tensor:
    """log(sum(exp(t))) with the max-shift trick, over one axis or all."""
    t = as_tensor(t)
    x = t.data
    if axis is None:
        m = np.max(x)
        data = np.asarray(m + np.log(np.sum(np.exp(x - m))))
        return fused(data, (t,), lambda g: (g * np.exp(x - data),))
    m = np.max(x, axis=axis, keepdims=True)
    kept = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return fused(np.squeeze(kept, axis=axis), (t,),
                 lambda g: (np.expand_dims(g, axis) * np.exp(x - kept),))


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
    """One LSTM step as per-gate autodiff ops: the reference recurrence.

    Each gate reads its rows of the cell's W and b through ``row``, so
    gradients reach both through the gate that used them."""
    k = cell.hidden_size
    xh = concat([x, h])
    i, f, o, g = (matmul(row(cell.W, range(j * k, (j + 1) * k)), xh)
                  + row(cell.b, range(j * k, (j + 1) * k)) for j in range(4))
    i, f, o, g = sigmoid(i), sigmoid(f), sigmoid(o), tanh(g)
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


def numeric_lstm_step(x, h, c, W, b):
    """One LSTM step written with plain numpy, no autodiff involved; W
    and b hold the i, f, o and g rows in that order."""
    xh = np.concatenate([x, h])
    i, f, o, g = np.split(W @ xh + b, 4)
    i, f, o = (1.0 / (1.0 + np.exp(-a)) for a in (i, f, o))
    g = np.tanh(g)
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def per_sequence_lstm_layer(X, cell, reverse=False):
    """One LSTM direction over the rows of X as a single sequence: the
    fused per-sequence node that the packed ``lstm_layer`` replaced, kept
    as its reference."""
    X = as_tensor(X)
    n, d = X.data.shape
    k = cell.hidden_size
    xs = X.data[::-1] if reverse else X.data
    scale = np.ones((4 * k, 1))
    scale[:3 * k] = 0.5
    W = cell.W.data
    W_h = W[:, d:] * scale
    gates = (xs @ W[:, :d].T + cell.b.data) * scale.T
    C, TC, H = np.empty((n, k)), np.empty((n, k)), np.empty((n, k))
    h, c = np.zeros(k), np.zeros(k)
    for t in range(n):
        a = gates[t]
        a += W_h @ h
        np.tanh(a, out=a)
        a[:3 * k] *= 0.5
        a[:3 * k] += 0.5
        c = np.multiply(a[k:2 * k], c, out=C[t])
        c += a[:k] * a[3 * k:]
        np.tanh(c, out=TC[t])
        h = np.multiply(a[2 * k:3 * k], TC[t], out=H[t])

    def vjp(g):
        I, F, O, G = (gates[:, j * k:(j + 1) * k] for j in range(4))
        C_prev = np.vstack([np.zeros((1, k)), C[:-1]])
        H_prev = np.vstack([np.zeros((1, k)), H[:-1]])
        local = np.hstack([G * I * (1 - I), C_prev * F * (1 - F),
                           TC * O * (1 - O), I * (1 - G * G)])
        dc_dh = O * (1 - TC * TC)
        F_next = np.vstack([F[1:], np.zeros((1, k))])
        gs = g[::-1] if reverse else g
        dA = np.empty((n, 4 * k))
        dh_next, dc = np.zeros(k), np.zeros(k)
        for t in range(n - 1, -1, -1):
            dh = gs[t] + dh_next
            dc = dc * F_next[t] + dh * dc_dh[t]
            np.multiply(local[t], np.concatenate((dc, dc, dh, dc)), out=dA[t])
            dh_next = dA[t] @ W[:, d:]
        dW = dA.T @ np.hstack([xs, H_prev])
        dX = dA @ W[:, :d]
        return (dX[::-1] if reverse else dX), dW, dA.sum(axis=0)

    return fused(H[::-1] if reverse else H, (X, cell.W, cell.b), vjp)


def _np_logsumexp(x, axis=None):
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return out.reshape(()) if axis is None else np.squeeze(out, axis=axis)


def per_chain_nll(P, T, z):
    """NLL of one tag path as the fused one-chain node that the batched
    ``chain_nll`` replaced, kept as its reference: alpha and beta
    recursions over (n, m) arrays, gradient marginals minus counts."""
    P, T = as_tensor(P), as_tensor(T)
    Pd, Td = P.data, T.data
    m, n = Pd.shape
    z = np.asarray(z, dtype=int)
    alpha = np.empty((n, m))
    alpha[0] = Pd[:, 0]
    for i in range(1, n):
        alpha[i] = _np_logsumexp(alpha[i - 1][:, None] + Td, axis=0) + Pd[:, i]
    log_z = _np_logsumexp(alpha[-1])

    def vjp(g):
        beta = np.zeros((n, m))
        for i in range(n - 2, -1, -1):
            beta[i] = _np_logsumexp(Td + (Pd[:, i + 1] + beta[i + 1]), axis=1)
        unary = np.exp(alpha + beta - log_z).T
        pair = np.exp(alpha[:-1, :, None] + Td + (Pd.T[1:] + beta[1:])[:, None, :]
                      - log_z).sum(axis=0)
        unary[z, np.arange(n)] -= 1.0
        np.subtract.at(pair, (z[:-1], z[1:]), 1.0)
        return g * unary, g * pair

    score = brute_path_score(Pd, Td, z)
    return fused(np.asarray(log_z - score), (P, T), vjp)


def per_chain_emissions(H, W, b):
    """One decoder's (m, n) tag scores of one chain's encoder rows, in
    per-step autodiff ops: W @ H.T + b."""
    W, b = as_tensor(W), as_tensor(b)
    return matmul(W, transpose(H)) + reshape(b, (W.data.shape[0], 1))


def reference_tokenize(text: str):
    """(text, start, end) of each token: split on whitespace, then peel
    ASCII punctuation off both ends of each chunk one mark at a time."""
    tokens = []
    for m in re.finditer(r"\S+", text):
        chunk_start, chunk = m.start(), m.group()
        s, e = 0, len(chunk)
        left = []
        while s < e and chunk[s] in string.punctuation:
            left.append((chunk[s], s))
            s += 1
        right = []
        while e > s and chunk[e - 1] in string.punctuation:
            right.append((chunk[e - 1], e - 1))
            e -= 1
        pieces = left + ([(chunk[s:e], s)] if e > s else []) + right[::-1]
        for piece, off in pieces:
            tokens.append((piece, chunk_start + off, chunk_start + off + len(piece)))
    return tokens

