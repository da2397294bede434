"""Attribute-conditioned CRF decoding.

Two generators turn a fixed attribute embedding r into the parameters
of a linear-chain CRF over the BIOE tags: a hypernetwork produces the
emission projection (W, b), and a softmax-gated mixture of expert
matrices produces the transition table T.  Given a stack of embeddings
they generate a stack of decoders with one product per parameter.
Chain scoring itself has no start/stop states: a sequence's score is
the sum of its transition and emission terms, and the partition
function comes from the standard forward recursion in log space.  The
mean NLL of a batch of chains is a single graph node that runs the
recursions of all chains side by side; its gradient comes from
forward-backward: marginals minus the path's counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    as_tensor,
    fused,
    linear,
    packed_steps,
    reshape,
    softmax,
)
from .errors import NumericError
from .tagging import NUM_TAGS


@dataclass
class HyperNetwork:
    """Parameters mapping an attribute embedding to emission (W, b)."""

    w_w: Tensor  # (NUM_TAGS * d_h, d_r)
    b_w: Tensor  # (NUM_TAGS * d_h,)
    w_b: Tensor  # (NUM_TAGS, d_r)
    b_b: Tensor  # (NUM_TAGS,)

    @property
    def d_h(self) -> int:
        return self.w_w.data.shape[0] // NUM_TAGS

    @property
    def d_r(self) -> int:
        return self.w_w.data.shape[1]

    def tensors(self):
        return [self.w_w, self.b_w, self.w_b, self.b_b]


@dataclass
class TransitionMoe:
    """Softmax-gated mixture of expert transition matrices."""

    w_gate: Tensor  # (k, d_r)
    b_gate: Tensor  # (k,)
    experts: Tensor  # (k, NUM_TAGS, NUM_TAGS)

    def tensors(self):
        return [self.w_gate, self.b_gate, self.experts]


@dataclass
class DecoderInstance:
    """Concrete CRF parameters generated for one attribute."""

    W: Tensor  # (NUM_TAGS, d_h)
    b: Tensor  # (NUM_TAGS,)
    T: Tensor  # (NUM_TAGS, NUM_TAGS)


def generate_linear(hyper: HyperNetwork, r) -> tuple[Tensor, Tensor]:
    """Emission parameters for one attribute embedding, or for each row
    of an (A, d_r) stack of them.

    The flat hypernetwork output is reshaped row-major into the
    (NUM_TAGS, d_h) projection; a stack gives (A, NUM_TAGS, d_h) and
    (A, NUM_TAGS).  Either way it is one product with the hypernetwork.
    """
    r = as_tensor(r)
    if r.data.ndim not in (1, 2) or r.data.shape[-1] != hyper.d_r:
        raise ValueError(f"attribute embedding has shape {r.data.shape}, "
                         f"expected (..., {hyper.d_r})")
    flat = linear(r, hyper.w_w, hyper.b_w)
    W = reshape(flat, r.data.shape[:-1] + (NUM_TAGS, hyper.d_h))
    return W, linear(r, hyper.w_b, hyper.b_b)


def gate(moe: TransitionMoe, r) -> Tensor:
    """Mixture weights for one attribute embedding, or for each row of a
    stack (each sums to 1)."""
    return softmax(linear(r, moe.w_gate, moe.b_gate))


def mix_transition(moe: TransitionMoe, weights) -> Tensor:
    """Convex combination of the expert transition matrices: (m, m) for
    one weight vector, (A, m, m) for an (A, k) stack.  One node."""
    weights = as_tensor(weights)
    experts = moe.experts.data

    def vjp(g):
        dw = np.einsum("...ij,kij->...k", g, experts)
        rows = weights.data.reshape(-1, len(experts))
        return dw, np.einsum("ak,aij->kij", rows, g.reshape(len(rows), *g.shape[-2:]))

    return fused(np.einsum("...k,kij->...ij", weights.data, experts),
                 (weights, moe.experts), vjp)


def build_decoder(hyper: HyperNetwork, moe: TransitionMoe, r) -> DecoderInstance:
    """The decoder of one attribute embedding, or the stacked decoders of
    the rows of an (A, d_r) matrix."""
    W, b = generate_linear(hyper, r)
    T = mix_transition(moe, gate(moe, r))
    return DecoderInstance(W, b, T)


def emission_scores(H, W, b) -> np.ndarray:
    """Scores (N, M) of the rows of the array H under the emission rows of
    W (M, d_h) and b (M,): one decoder's, or several laid end to end."""
    return H @ W.T + b


def emissions(H, W, b, rows=None, decoders=None) -> Tensor:
    """Tag scores of encoder rows: column j scores a token under every tag.

    H is (N_H, d_h); W and b are one decoder, (m, d_h) and (m,), or a
    stack of A, (A, m, d_h) and (A, m).  Column j is decoder
    ``decoders[j]`` (default 0) applied to row ``rows[j]`` of H (default
    j), so the result is (m, N) for N = len(rows).  One node: the forward
    (``emission_scores``) and each gradient are one product of H with the
    decoders from the lowest to the highest that a column uses.
    """
    H, W, b = as_tensor(H), as_tensor(W), as_tensor(b)
    n_h, d_h = H.data.shape
    m = W.data.shape[-2]
    # Only the decoders from the lowest to the highest a column uses take part.
    lo, hi = (0, 1) if decoders is None else (min(decoders), max(decoders) + 1)
    flat = W.data.reshape(-1, d_h)[lo * m:hi * m]
    full = emission_scores(H.data, flat, b.data.reshape(-1)[lo * m:hi * m]).reshape(n_h, -1, m)
    one = hi - lo == 1  # one decoder: no gather by decoder
    index = (slice(None) if rows is None and one else
             np.arange(n_h) if rows is None else np.asarray(rows, dtype=int),
             0 if one else np.asarray(decoders, dtype=int) - lo)

    def vjp(g):
        G = np.zeros_like(full)
        np.add.at(G, index, g.T)
        G = G.reshape(n_h, -1)
        dW, db = np.zeros((W.data.size // d_h, d_h)), np.zeros(b.data.size)
        dW[lo * m:hi * m], db[lo * m:hi * m] = G.T @ H.data, G.sum(axis=0)
        return G @ flat, dW.reshape(W.data.shape), db.reshape(b.data.shape)

    scores = full[index]
    return fused(scores.T, (H, W, b), vjp)


def _check_indices(z, m, n):
    z = np.asarray(z, dtype=int)
    if z.ndim != 1 or z.size != n:
        raise ValueError(f"tag index sequence has length {z.size}, expected {n}")
    if z.size and (z.min() < 0 or z.max() >= m):
        raise ValueError(f"tag index out of range 0..{m - 1}: {z.tolist()}")
    return z


def _logsumexp(x, axis):
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _chains(P, T, lengths, decoders):
    """Check the layout of chains side by side in P's columns, and pack
    them (see ``packed_steps``): emission rows (N, m) in packed order,
    a view of P for one chain, and the chains' transition tables
    (B, m, m) in rank order."""
    P, T = as_tensor(P), as_tensor(T)
    if P.data.ndim != 2 or T.data.ndim not in (2, 3) \
            or T.data.shape[-2:] != (P.data.shape[0],) * 2:
        raise ValueError(f"emission shape {P.data.shape} and transition shape "
                         f"{T.data.shape} do not fit")
    m, n_cols = P.data.shape
    lengths = np.asarray([n_cols] if lengths is None else lengths, dtype=int)
    pack = packed_steps(lengths)
    if pack.starts[-1] != n_cols:
        raise ValueError(f"chain lengths cover {pack.starts[-1]} positions, "
                         f"emissions have {n_cols}")
    tables = T.data.reshape(-1, m, m)
    dec = np.zeros(lengths.size, dtype=int) if decoders is None \
        else np.asarray(decoders, dtype=int)
    chosen = dec.tolist()  # plain ints: cheaper than numpy's for a few chains
    if dec.shape != lengths.shape or min(chosen) < 0 or max(chosen) >= len(tables):
        raise ValueError(f"need one decoder in 0..{len(tables) - 1} per chain, "
                         f"got {chosen}")
    return P, T, lengths, dec, pack, P.data.T[pack.rows], tables.take(dec[pack.rank], axis=0)


def _forward(pack, E, T3):
    """Forward variables alpha (N, m) in log space, in packed row order,
    and log Z (B,) of chains in rank order, from emission rows E (N, m)
    and tables T3 (B, m, m) laid out by ``_chains``."""
    alpha = E.copy()
    for now, before, b in pack.plan[1:]:
        alpha[now] = _logsumexp(alpha[before, :, None] + T3[b], axis=-2) + E[now]
    return alpha, _logsumexp(alpha[pack.ends], axis=1)


def _marginals(pack, E, T3, alpha, log_z):
    """Tag marginals (N, m), in packed row order, and expected transition
    counts (B, m, m) of chains in rank order.

    The backward variables complete forward-backward; then each step
    adds its pairwise marginals to the chains it advances, in step order.
    """
    beta = np.zeros_like(alpha)
    for now, before, b in pack.plan[:0:-1]:
        beta[before] = _logsumexp(T3[b] + (E[now] + beta[now])[..., None, :], axis=-1)
    unary = np.exp(alpha + beta - log_z[pack.slot, None])
    ahead = E + beta
    pair = np.zeros_like(T3)
    for now, before, b in pack.plan[1:]:
        pair[b] += np.exp(alpha[before, :, None] + T3[b] + ahead[now, None]
                          - log_z[b, None, None])
    return unary, pair


def log_partition(P, T) -> Tensor:
    """Log of the summed exponentiated scores over all tag paths.

    One graph node; its gradient is the tag and transition marginals.
    """
    P, T, _, _, pack, E, T3 = _chains(P, T, None, None)
    alpha, log_z = _forward(pack, E, T3)

    def vjp(g):
        unary, pair = _marginals(pack, E, T3, alpha, log_z)
        return g * unary.T, g * pair[0]

    return fused(np.asarray(log_z[0]), (P, T), vjp)


def chain_nll(P, T, z, lengths=None, decoders=None) -> Tensor:
    """Mean negative log-likelihood of tag paths (nonnegative up to rounding).

    P is (m, N): the emission columns of chains of ``lengths`` columns,
    laid end to end (default: one chain).  T is one (m, m) transition
    table, or a stack (A, m, m) of which chain c uses ``decoders[c]``.
    z holds the N target tags.  One graph node: the mean over chains of
    log Z minus the path's score, its terms read in packed order and
    summed per chain in step (column) order, the transitions step by step.
    Its gradient, per chain and divided by the number of chains, is the
    marginals minus the path's one-hot tags for P, and the expected
    minus the path's transition counts for the chain's table.
    """
    P, T, lengths, dec, pack, E, T3 = _chains(P, T, lengths, decoders)
    m, n_cols = P.data.shape
    z = _check_indices(z, m, n_cols)[pack.rows]
    alpha, log_z = _forward(pack, E, T3)
    count = lengths.size
    ranks = np.arange(count)
    # Per step, the paths' transitions as (rank, tag, next tag), and their
    # scores per rank (path_score's sums may differ in the last bits).
    moves = [(ranks[b], z[before], z[now]) for now, before, b in pack.plan[1:]]
    moved = np.zeros(count)
    for move in moves:
        moved[move[0]] += T3[move]
    emitted = np.bincount(pack.slot, E[np.arange(n_cols), z], minlength=count)
    nll = np.empty(count)  # in chain order, which fixes the mean's summation order
    nll[pack.rank] = log_z - (moved + emitted)

    def vjp(g):
        unary, pair = _marginals(pack, E, T3, alpha, log_z)
        unary[np.arange(n_cols), z] -= 1.0
        for move in moves:
            pair[move] -= 1.0
        dP = np.empty((m, n_cols))
        dP[:, pack.rows] = unary.T
        dT = np.zeros_like(T.data.reshape(-1, m, m))
        np.add.at(dT, dec[pack.rank], pair)
        scale = g / count
        return scale * dP, (scale * dT).reshape(T.data.shape)

    return fused(np.asarray(np.mean(nll)), (P, T), vjp)


def path_score(P, T, z) -> float:
    """Plain-float path score; summation order matches brute enumeration."""
    P = P.data if isinstance(P, Tensor) else np.asarray(P, dtype=np.float64)
    T = T.data if isinstance(T, Tensor) else np.asarray(T, dtype=np.float64)
    z = np.asarray(z, dtype=int)
    n = z.size
    total = float(T[z[:-1], z[1:]].sum()) if n > 1 else 0.0
    return total + float(P[z, np.arange(n)].sum())


def _one_path(P, T) -> list[int]:
    """Best tag path of one chain, P (m, n) under table T (m, m), by the
    max-product recursion over Python floats.

    For a handful of tags this beats numpy calls on (m, m) arrays, so a
    served chain over the BIOE tags (``Model.predict_tags``) is decoded
    with it.  The additions and their order are those of the numpy
    recursion in ``best_paths``, and the first maximum wins with strict
    ``>`` as in ``argmax``, so the path is the same, ties included.
    """
    rows, columns = P.T.tolist(), T.T.tolist()  # per position, per next tag
    others = range(1, len(columns))
    score, back = rows[0], []
    for emitted in rows[1:]:
        pointers, new = [], []
        for column, e in zip(columns, emitted):
            best_i, best = 0, score[0] + column[0]
            for i in others:
                s = score[i] + column[i]
                if s > best:
                    best_i, best = i, s
            pointers.append(best_i)
            new.append(best + e)
        back.append(pointers)
        score = new
    tag = score.index(max(score))
    path = [tag]
    for pointers in reversed(back):
        tag = pointers[tag]
        path.append(tag)
    return path[::-1]


def _not_finite(chain) -> NumericError:
    return NumericError(f"best_paths: chain {chain} has emission or transition "
                        f"scores that are not finite")


def best_paths(P, T, lengths=None, decoders=None) -> list[list[int]]:
    """Best tag path of each chain, from one max-product recursion over
    all of them.

    The layout is ``chain_nll``'s: P is (m, N), the emission columns of
    chains of ``lengths`` columns laid end to end (default: one chain),
    and T is one (m, m) transition table, or a stack (A, m, m) of which
    chain c uses ``decoders[c]``.  The recursion walks the packed rows
    of ``_chains``: step i advances the chains that reach position i, a
    prefix of the longest-first ranking, and keeps one row of
    backpointers (N, m) per packed row; the backtrack walks all chains
    at once, step by step.  Ties are broken toward the smallest tag index
    both at each backpointer and at a chain's last position.  A chain
    whose emission columns or table hold a non-finite score raises
    NumericError; tables that no chain uses are not read.
    """
    P, T, lengths, dec, pack, E, T3 = _chains(P, T, lengths, decoders)
    if not (np.isfinite(P.data).all() and np.isfinite(T3).all()):
        bad = ~np.isfinite(T3).all(axis=(1, 2))  # per rank
        bad[pack.slot[~np.isfinite(E).all(axis=1)]] = True
        raise _not_finite(pack.rank[bad].min())
    count = lengths.size
    score = E.copy()
    back = np.empty(E.shape, dtype=int)
    for now, before, b in pack.plan[1:]:
        candidates = score[before, :, None] + T3[b]
        back[now] = candidates.argmax(axis=-2)
        score[now] = candidates.max(axis=-2) + E[now]
    tag = score[pack.ends].argmax(axis=1)  # each chain's tag at the step being walked
    packed, at = np.empty(len(E), dtype=int), np.arange(len(E))
    for now, before, b in pack.plan[:0:-1]:
        packed[now] = tag[b]
        tag[b] = back[at[now], tag[b]]
    packed[:count] = tag
    path = np.empty_like(packed)
    path[pack.rows] = packed
    path, end = path.tolist(), 0
    return [path[end:(end := end + size)] for size in lengths.tolist()]


def viterbi(P, T) -> tuple[list[int], float]:
    """Best tag path of one chain and its score.

    ``best_paths`` on one chain; the score is the path's, recomputed by
    ``path_score`` so that it is directly comparable with exhaustive
    enumeration.
    """
    (path,) = best_paths(P, T)
    return path, path_score(P, T, path)
