"""Word embeddings and the bidirectional LSTM sentence encoder.

The encoder turns a token sequence into one hidden vector per position:
a trainable embedding lookup feeds two LSTM passes (left-to-right and
right-to-left) whose states are concatenated, so the per-position size
is the combined width of both directions.  Each pass is one autodiff
node that runs the recurrence in numpy and backpropagates through time
by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import files
from .autodiff import Tensor, as_tensor, concat, fused, row
from .errors import DataError

PAD = "<pad>"
UNK = "<unk>"


def load_word_vectors(path) -> dict[str, np.ndarray]:
    """Read a text-format static vector file: token then floats, one per line."""
    vectors = {}
    dim = None
    for lineno, line in files.read_lines(path, "vector file"):
        word, *values = line.split()
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise DataError(f"{path}:{lineno}: no vector components")
        elif len(values) != dim:
            raise DataError(
                f"{path}:{lineno}: expected {dim} components, got {len(values)}")
        try:
            vectors[word] = np.array(values, dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric vector component")
    if not vectors:
        raise DataError(f"vector file {path} is empty")
    return vectors


class WordEmbeddingTable:
    """Token-to-row mapping over a trainable embedding matrix.

    Row 0 is the padding token, row 1 the unknown token.  Lookup tries
    the exact surface form, then its lowercase form, then falls back to
    the unknown row.
    """

    def __init__(self, itos: list[str], matrix: Tensor):
        if len(itos) != matrix.data.shape[0]:
            raise DataError("embedding table size does not match vocabulary")
        self.itos = list(itos)
        self.stoi = {t: i for i, t in enumerate(self.itos)}
        self.matrix = matrix

    @property
    def d_word(self) -> int:
        return self.matrix.data.shape[1]

    @classmethod
    def from_itos(cls, itos, vectors, d_word: int, rng: np.random.Generator,
                  trainable: bool = True) -> "WordEmbeddingTable":
        mat = rng.uniform(-0.1, 0.1, size=(len(itos), d_word))
        mat[0] = 0.0  # padding row
        if vectors:
            for i, word in enumerate(itos):
                if i == 0:
                    continue
                vec = vectors.get(word)
                if vec is None:
                    vec = vectors.get(word.lower())
                if vec is not None:
                    if vec.shape != (d_word,):
                        raise DataError(
                            f"vector for {word!r} has dim {vec.shape[0]}, "
                            f"expected {d_word}")
                    mat[i] = vec
        return cls(list(itos), Tensor(mat, requires_grad=trainable))

    @classmethod
    def build(cls, corpus_tokens, vectors, d_word: int, rng: np.random.Generator,
              trainable: bool = True) -> "WordEmbeddingTable":
        itos = [PAD, UNK] + sorted(set(corpus_tokens))
        return cls.from_itos(itos, vectors, d_word, rng, trainable)

    def index(self, token: str) -> int:
        i = self.stoi.get(token)
        if i is None:
            i = self.stoi.get(token.lower())
        if i is None:
            i = self.stoi[UNK]
        return i

    def embed(self, token_texts) -> Tensor:
        """The tokens' rows as one (n, d_word) matrix."""
        return row(self.matrix, [self.index(t) for t in token_texts])


@dataclass
class LstmCell:
    """Gate parameters of one LSTM direction, acting on [x; h]."""

    w_i: Tensor
    w_f: Tensor
    w_o: Tensor
    w_g: Tensor
    b_i: Tensor
    b_f: Tensor
    b_o: Tensor
    b_g: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_i.data.shape[0]

    def tensors(self):
        return [self.w_i, self.w_f, self.w_o, self.w_g,
                self.b_i, self.b_f, self.b_o, self.b_g]


def lstm_layer(X, cell: LstmCell, reverse: bool = False) -> Tensor:
    """Hidden states (n, h) of one LSTM direction over the rows of X.

    One graph node: the input projection of every position is a single
    (n, d) @ (d, 4h) product, the recurrence is a numpy loop, and the
    backward is backpropagation through time whose weight gradient is a
    single (4h, n) @ (n, d + h) product.  The state starts at zero; with
    ``reverse`` the rows are read from last to first, and the states
    still come back in input order.
    """
    X = as_tensor(X)
    n, d = X.data.shape
    if n == 0:
        raise ValueError("an LSTM layer needs a non-empty input sequence")
    k = cell.hidden_size
    weights = cell.tensors()
    xs = X.data[::-1] if reverse else X.data
    # sigmoid(a) = (tanh(a / 2) + 1) / 2: halving the i, f and o rows
    # (exact in binary) lets one tanh produce all four gates per step.
    scale = np.ones((4 * k, 1))
    scale[:3 * k] = 0.5
    W = np.concatenate([w.data for w in weights[:4]])
    W_h = W[:, d:] * scale
    gates = (xs @ W[:, :d].T + np.concatenate([b.data for b in weights[4:]])) * scale.T
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
        # d(pre-activation) per gate = (dc, dc, dh, dc) * local[t].
        local = np.hstack([G * I * (1 - I), C_prev * F * (1 - F),
                           TC * O * (1 - O), I * (1 - G * G)])
        dc_dh = O * (1 - TC * TC)
        # Rebuilt here rather than captured: a batch's graph outlives the
        # forward, and a per-call weight copy would stay alive with it.
        W = np.concatenate([w.data for w in weights[:4]])
        W_h = W[:, d:]
        F_next = np.vstack([F[1:], np.zeros((1, k))])
        gs = g[::-1] if reverse else g
        dA = np.empty((n, 4 * k))
        dh_next, dc = np.zeros(k), np.zeros(k)
        for t in range(n - 1, -1, -1):
            dh = gs[t] + dh_next
            dc = dc * F_next[t] + dh * dc_dh[t]
            np.multiply(local[t], np.concatenate((dc, dc, dh, dc)), out=dA[t])
            dh_next = dA[t] @ W_h
        dW = dA.T @ np.hstack([xs, H_prev])
        dX = dA @ W[:, :d]
        return ((dX[::-1] if reverse else dX),
                *np.split(dW, 4), *np.split(dA.sum(axis=0), 4))

    return fused(H[::-1] if reverse else H, (X, *weights), vjp)


def encode_matrix(token_texts, table: WordEmbeddingTable,
                  forward_cell: LstmCell, backward_cell: LstmCell) -> Tensor:
    """Encoder states as an (n, d_h) matrix: both directions side by side."""
    X = table.embed(token_texts)
    return concat([lstm_layer(X, forward_cell),
                   lstm_layer(X, backward_cell, reverse=True)], axis=1)
