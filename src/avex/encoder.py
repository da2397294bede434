"""Word embeddings and the bidirectional LSTM sentence encoder.

The encoder turns a token sequence into one hidden vector per position:
a trainable embedding lookup feeds two LSTM passes (left-to-right and
right-to-left) whose states are concatenated, so the per-position size
is the combined width of both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import files
from .autodiff import Tensor, concat, matmul, sigmoid, stack_rows, tanh, row
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

    def embed(self, token_texts) -> list[Tensor]:
        return [row(self.matrix, self.index(t)) for t in token_texts]


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


def lstm_step(x: Tensor, h: Tensor, c: Tensor, cell: LstmCell):
    """One recurrence step; returns the next (h, c)."""
    xh = concat([x, h])
    i = sigmoid(matmul(cell.w_i, xh) + cell.b_i)
    f = sigmoid(matmul(cell.w_f, xh) + cell.b_f)
    o = sigmoid(matmul(cell.w_o, xh) + cell.b_o)
    g = tanh(matmul(cell.w_g, xh) + cell.b_g)
    c_next = f * c + i * g
    h_next = o * tanh(c_next)
    return h_next, c_next


def run_lstm(xs, cell: LstmCell, reverse: bool = False) -> list[Tensor]:
    """Hidden state at every position, starting from zero states."""
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


def bilstm(xs, forward_cell: LstmCell, backward_cell: LstmCell) -> list[Tensor]:
    """Concatenated forward/backward states, one per input position."""
    if not xs:
        raise ValueError("bilstm requires a non-empty input sequence")
    fwd = run_lstm(xs, forward_cell)
    bwd = run_lstm(xs, backward_cell, reverse=True)
    return [concat([f, b]) for f, b in zip(fwd, bwd)]


def encode_matrix(token_texts, table: WordEmbeddingTable,
                  forward_cell: LstmCell, backward_cell: LstmCell) -> Tensor:
    """Stack the encoder states into an (n, d_h) matrix."""
    xs = table.embed(token_texts)
    return stack_rows(bilstm(xs, forward_cell, backward_cell))
