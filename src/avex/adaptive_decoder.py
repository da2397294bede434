"""Attribute-conditioned CRF decoding.

Two generators turn a fixed attribute embedding r into the parameters
of a linear-chain CRF over the BIOE tags: a hypernetwork produces the
emission projection (W, b), and a softmax-gated mixture of expert
matrices produces the transition table T.  Chain scoring itself has no
start/stop states: a sequence's score is the sum of its transition and
emission terms, and the partition function comes from the standard
forward recursion in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    as_tensor,
    col,
    logsumexp,
    matmul,
    pick,
    reshape,
    row,
    softmax,
    transpose,
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
    experts: tuple  # k tensors of shape (NUM_TAGS, NUM_TAGS)

    @property
    def k(self) -> int:
        return len(self.experts)

    def tensors(self):
        return [self.w_gate, self.b_gate, *self.experts]


@dataclass
class DecoderInstance:
    """Concrete CRF parameters generated for one attribute."""

    W: Tensor  # (NUM_TAGS, d_h)
    b: Tensor  # (NUM_TAGS,)
    T: Tensor  # (NUM_TAGS, NUM_TAGS)


def generate_linear(hyper: HyperNetwork, r) -> tuple[Tensor, Tensor]:
    """Emission parameters for one attribute embedding.

    The flat hypernetwork output is reshaped row-major into the
    (NUM_TAGS, d_h) projection.
    """
    r = as_tensor(r)
    if r.data.shape != (hyper.d_r,):
        raise ValueError(
            f"attribute embedding has shape {r.data.shape}, expected ({hyper.d_r},)")
    flat = matmul(hyper.w_w, r) + hyper.b_w
    W = reshape(flat, (NUM_TAGS, hyper.d_h))
    b = matmul(hyper.w_b, r) + hyper.b_b
    return W, b


def gate(moe: TransitionMoe, r) -> Tensor:
    """Mixture weights for one attribute embedding (sums to 1)."""
    r = as_tensor(r)
    return softmax(matmul(moe.w_gate, r) + moe.b_gate)


def mix_transition(moe: TransitionMoe, weights: Tensor) -> Tensor:
    """Convex combination of the expert transition matrices."""
    total = None
    for i, expert in enumerate(moe.experts):
        term = row(weights, i) * expert
        total = term if total is None else total + term
    return total


def build_decoder(hyper: HyperNetwork, moe: TransitionMoe, r) -> DecoderInstance:
    W, b = generate_linear(hyper, r)
    T = mix_transition(moe, gate(moe, r))
    return DecoderInstance(W, b, T)


def emissions(H, W, b) -> Tensor:
    """Per-position tag scores: column j scores token j under every tag.

    H is the (n, d_h) encoder output; the result is (num_tags, n).
    """
    H, W, b = as_tensor(H), as_tensor(W), as_tensor(b)
    m = W.data.shape[0]
    scores = matmul(W, transpose(H))
    return scores + reshape(b, (m, 1))


def _check_chain(P, T):
    P, T = as_tensor(P), as_tensor(T)
    if P.data.ndim != 2:
        raise ValueError(f"emission matrix must be 2-d, got shape {P.data.shape}")
    m = P.data.shape[0]
    if T.data.shape != (m, m):
        raise ValueError(
            f"transition matrix shape {T.data.shape} does not match {m} tags")
    if P.data.shape[1] < 1:
        raise ValueError("chain needs at least one position")
    return P, T, m


def _check_indices(z, m, n):
    z = np.asarray(z, dtype=int)
    if z.ndim != 1 or z.size != n:
        raise ValueError(f"tag index sequence has length {z.size}, expected {n}")
    if z.size and (z.min() < 0 or z.max() >= m):
        raise ValueError(f"tag index out of range 0..{m - 1}: {z.tolist()}")
    return z


def chain_score(P, T, z) -> Tensor:
    """Unnormalized score of one tag path: transitions plus emissions."""
    P, T, m = _check_chain(P, T)
    n = P.data.shape[1]
    z = _check_indices(z, m, n)
    emit = pick(P, z, np.arange(n)).sum()
    if n == 1:
        return emit
    trans = pick(T, z[:-1], z[1:]).sum()
    return trans + emit


def log_partition(P, T) -> Tensor:
    """Log of the summed exponentiated scores over all tag paths."""
    P, T, m = _check_chain(P, T)
    n = P.data.shape[1]
    alpha = col(P, 0)
    for i in range(1, n):
        alpha = logsumexp(reshape(alpha, (m, 1)) + T, axis=0) + col(P, i)
    return logsumexp(alpha)


def chain_nll(P, T, z) -> Tensor:
    """Negative log-likelihood of a tag path (nonnegative up to rounding)."""
    return log_partition(P, T) - chain_score(P, T, z)


def path_score(P, T, z) -> float:
    """Plain-float path score; summation order matches brute enumeration."""
    P = P.data if isinstance(P, Tensor) else np.asarray(P, dtype=np.float64)
    T = T.data if isinstance(T, Tensor) else np.asarray(T, dtype=np.float64)
    z = np.asarray(z, dtype=int)
    n = z.size
    total = float(np.sum(T[z[:-1], z[1:]])) if n > 1 else 0.0
    return total + float(np.sum(P[z, np.arange(n)]))


def viterbi(P, T) -> tuple[list[int], float]:
    """Best tag path and its score.

    Ties are broken toward the smallest tag index both at each backtrack
    cell and at the final position.  The returned score is the decoded
    path's score, recomputed so it is directly comparable with exhaustive
    enumeration.  Non-finite scores raise NumericError.
    """
    Pt, Tt, m = _check_chain(P, T)
    Pd, Td = Pt.data, Tt.data
    if not (np.isfinite(Pd).all() and np.isfinite(Td).all()):
        raise NumericError("viterbi: emission or transition scores are not finite")
    n = Pd.shape[1]
    score = Pd[:, 0].copy()
    back = np.zeros((n, m), dtype=int)
    for i in range(1, n):
        candidates = score[:, None] + Td
        back[i] = np.argmax(candidates, axis=0)
        score = candidates[back[i], np.arange(m)] + Pd[:, i]
    best = int(np.argmax(score))
    path = [best]
    for i in range(n - 1, 0, -1):
        best = int(back[i][best])
        path.append(best)
    path.reverse()
    return path, path_score(Pd, Td, path)
