"""Word embeddings and the bidirectional LSTM sentence encoder.

The encoder turns a token sequence into one hidden vector per position:
a trainable embedding lookup feeds two LSTM passes (left-to-right and
right-to-left) whose states are concatenated, so the per-position size
is the combined width of both directions.  ``encode_batch`` encodes one
or many texts: their rows are stacked, and each pass is one autodiff
node over all of them that runs the step kernel ``lstm_steps``, the
sequences still running at a step advancing together, and
backpropagates through time by hand.  ``encode_text`` encodes the one
text of a served request: it runs the kernel once over both directions
and makes no node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import files
from .autodiff import Tensor, as_tensor, concat, fused, packed_steps, reuse, row
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
        if not np.isfinite(vectors[word]).all():
            raise DataError(f"{path}:{lineno}: non-finite vector component")
    if not vectors:
        raise DataError(f"vector file {path} is empty")
    return vectors


def save_word_vectors(path, vectors):
    """Write ``vectors`` as ``load_word_vectors`` reads them, to 6 decimals."""
    with files.write(path) as fh:
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")


def lookup_word(table: dict, word: str):
    """``table``'s entry for the exact form of ``word``, else for its
    lowercase form, else None."""
    found = table.get(word)
    return table.get(word.lower()) if found is None else found


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

    @classmethod
    def from_itos(cls, itos, vectors, d_word: int,
                  rng: np.random.Generator) -> "WordEmbeddingTable":
        mat = rng.uniform(-0.1, 0.1, size=(len(itos), d_word))
        mat[0] = 0.0  # padding row
        if vectors:
            for i, word in enumerate(itos):
                if i == 0:
                    continue
                vec = lookup_word(vectors, word)
                if vec is not None:
                    if vec.shape != (d_word,):
                        raise DataError(
                            f"vector for {word!r} has dim {vec.shape[0]}, "
                            f"expected {d_word}")
                    mat[i] = vec
        return cls(list(itos), Tensor(mat, requires_grad=True))

    def index(self, token: str) -> int:
        i = lookup_word(self.stoi, token)
        return self.stoi[UNK] if i is None else i

    def indices(self, token_texts) -> list[int]:
        """The tokens' rows of the matrix (each from ``stoi``, or UNK's)."""
        return [self.index(t) for t in token_texts]


@dataclass
class LstmCell:
    """Parameters of one LSTM direction, acting on [x; h]: the gate
    matrix W (4h, d + h) and bias b (4h,), their rows in i, f, o, g
    order."""

    W: Tensor
    b: Tensor
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def hidden_size(self) -> int:
        return self.b.data.shape[0] // 4

    def tensors(self):
        return [self.W, self.b]

    def gate_stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The input block (d, 4h), the recurrent block (h, 4h) and the
        bias (4h,) that act on [x; h], with the i, f and o columns halved.

        sigmoid(a) = (tanh(a / 2) + 1) / 2, and halving is exact in
        binary, so one tanh over a step's pre-activations gives all four
        gates.  The input block is C-contiguous: a strided operand sends
        a product of a few rows down a slow BLAS path.  The recurrent
        block is the transpose of a (4h, h) copy, the operand layout of a
        view of W, so the recurrent products keep their bits.  Under
        no_grad the copies are kept until W or b is assigned (see
        ``autodiff.reuse``).
        """
        return reuse(self._kept, "gates", self.tensors(), self._stack)

    def _stack(self):
        W, k = self.W.data, self.hidden_size
        d = W.shape[1] - k
        W_x, W_h, bias = W[:, :d].T.copy(), W[:, d:].copy(), self.b.data.copy()
        W_x[:, :3 * k] *= 0.5
        W_h[:3 * k] *= 0.5
        bias[:3 * k] *= 0.5
        return W_x, W_h.T, bias


def lstm_steps(gates, recurrent, plan):
    """The LSTM recurrence of D directions side by side, run in place over
    their pre-activations ``gates`` (N, D, 4h), the i, f and o columns
    halved (see ``LstmCell.gate_stack``).  Each step of ``plan`` (a
    ``Packing.plan``) adds one product of the step before's states with
    each direction's block of ``recurrent`` (h, 4h), then runs the gate
    math once over its rows.  Returns C, tanh(C), H and the gate blocks
    I, F, O and G (views of ``gates``), each (N, D, h).
    """
    k = gates.shape[2] // 4
    C, TC, H = np.empty((3,) + gates.shape[:2] + (k,))
    sigmoids, I, F, O, G = gates[..., :3 * k], *[gates[..., j * k:(j + 1) * k] for j in range(4)]
    # Per direction, its pre-activations, its states and its recurrent block.
    directions = [(gates[:, d], H[:, d], W_h) for d, W_h in enumerate(recurrent)]
    for now, before, _ in plan:
        a = gates[now]
        if before is not None:
            for g, h, W_h in directions:
                g[now] += h[before] @ W_h
        np.tanh(a, out=a)
        sig = sigmoids[now]
        sig *= 0.5
        sig += 0.5
        c = np.multiply(I[now], G[now], out=C[now])
        if before is not None:
            c += F[now] * C[before]
        np.multiply(O[now], np.tanh(c, out=TC[now]), out=H[now])
    return C, TC, H, I, F, O, G


def lstm_layer(X, cell: LstmCell, lengths=None, reverse: bool = False,
               distinct=None) -> Tensor:
    """Hidden states (N, h) of one LSTM direction over packed sequences.

    The rows of X are sequences of ``lengths`` rows laid end to end (by
    default one sequence); each starts from a zero state, and with
    ``reverse`` each is read from its last row to its first.  The states
    come back in the rows of X.  One graph node.  A row's input projection
    ``W_x x + b`` depends on the row alone: with ``distinct``, a pair of
    (U, d) rows and each row of X's index into them, it is one
    (U, d) @ (d, 4h) product, which a ``take`` lays out in packed order;
    else one (N, d) @ (d, 4h) product.  A row of a product has the bits
    it has in any other product of two or more rows (with numpy's
    OpenBLAS; the tests check it), so both give the same states; a
    one-row product takes numpy's vector path, whose bits differ, so a
    batch of one distinct row takes the all-rows product.
    ``lstm_steps`` then walks the plan of ``packed_steps``, step t
    advancing the b_t sequences still running with one (b_t, h) @ (h, 4h)
    product.  Backpropagation through time walks the plan in reverse, each step
    adding its carried gradients into the rows of the step before, then
    takes a single (4h, N) @ (N, d + h) weight gradient.  The forward reads
    the cell's ``gate_stack``, which under no_grad is built once per
    parameter state rather than on every call; the backward reads the cell's W.
    ``encode_batch`` calls it, for batches and for training; a served text
    takes ``encode_text``, which gives the same states.
    """
    X = as_tensor(X)
    n, d = X.data.shape
    pack = packed_steps([n] if lengths is None else lengths, reverse)
    if pack.starts[-1] != n:
        raise ValueError(f"sequence lengths cover {pack.starts[-1]} rows, input has {n}")
    k = cell.hidden_size
    W_x, W_h, bias = cell.gate_stack()
    if distinct is None or len(distinct[0]) == 1:
        gates = X.data[pack.rows] @ W_x + bias
    else:
        gates = distinct[0] @ W_x
        gates += bias
        gates = gates.take(distinct[1][pack.rows], axis=0)
    C, TC, H, I, F, O, G = (a[:, 0] for a in lstm_steps(gates[:, None], (W_h,), pack.plan))

    def vjp(g):
        # Each packed row's state one step earlier (zero at step 0).
        C_prev, H_prev = np.zeros((n, k)), np.zeros((n, k))
        for now, before, _ in pack.plan[1:]:
            C_prev[now], H_prev[now] = C[before], H[before]
        # d(pre-activation) per gate = (dc, dc, dh, dc) * local[t], with
        # local = (G I (1 - I), C_prev F (1 - F), TC O (1 - O), I (1 - G G)).
        local, tmp = np.empty((n, 4 * k)), np.empty((n, k))
        for j, (a, gate) in enumerate(((G, I), (C_prev, F), (TC, O))):
            block = np.multiply(a, gate, out=local[:, j * k:(j + 1) * k])
            block *= np.subtract(1, gate, out=tmp)
        np.multiply(G, G, out=tmp)
        np.multiply(I, np.subtract(1, tmp, out=tmp), out=local[:, 3 * k:])
        dc_dh = O * (1 - TC * TC)
        W = cell.W.data
        W_h = W[:, d:]
        # What later steps carry back into each row's state (a copy: g may be
        # shared); -0.0 adds to anything, signed zeros too, without changing it.
        dH = g[pack.rows].copy()
        dC = np.full((n, k), -0.0)
        dA = np.empty((n, 4 * k))
        for now, before, _ in pack.plan[::-1]:
            dh = dH[now]
            dc = dh * dc_dh[now] + dC[now]
            np.multiply(local[now], np.hstack((dc, dc, dh, dc)), out=dA[now])
            if before is not None:
                dH[before] += dA[now] @ W_h
                dC[before] += dc * F[now]
        dW = dA.T @ np.hstack([X.data[pack.rows], H_prev])
        dX = np.empty((n, d))
        dX[pack.rows] = dA @ W[:, :d]
        return dX, dW, dA.sum(axis=0)

    out = np.empty((n, k))
    out[pack.rows] = H
    return fused(out, (X, cell.W, cell.b), vjp)


def encode_batch(texts, table: WordEmbeddingTable,
                 forward_cell: LstmCell, backward_cell: LstmCell) -> Tensor:
    """Encoder states of one or more texts, their rows stacked in text order:
    both directions side by side, one packed ``lstm_layer`` node per
    direction.  Both project each distinct word of the batch once."""
    lengths = [len(tokens) for tokens in texts]
    ids = np.array(table.indices([token for tokens in texts for token in tokens]), dtype=int)
    X = row(table.matrix, ids)
    words, at = np.unique(ids, return_inverse=True)
    distinct = table.matrix.data[words], at
    return concat([lstm_layer(X, forward_cell, lengths, distinct=distinct),
                   lstm_layer(X, backward_cell, lengths, reverse=True, distinct=distinct)],
                  axis=1)


def encode_text(tokens, table: WordEmbeddingTable,
                forward_cell: LstmCell, backward_cell: LstmCell) -> np.ndarray:
    """Both directions' states (n, 2h) of one text, in one walk, as an array.

    One ``lstm_steps`` call over the plan of one sequence, the backward
    direction's rows laid in reverse, advances the forward pass at row t
    and the backward pass at row n - 1 - t with one (h) @ (h, 4h) product
    each.  The products and the operation order are those of
    ``lstm_layer``, so the states are the bits of ``encode_batch`` on the
    one text, without the cost of two graph nodes and their
    concatenation.  It makes no node, the word rows included: they are
    gathered from the table's matrix.  A served request calls it under
    no_grad (``Model.predict_tags``).
    """
    X = table.matrix.data[table.indices(tokens)]
    (W_f, W_hf, b_f), (W_b, W_hb, b_b) = forward_cell.gate_stack(), backward_cell.gate_stack()
    gates = np.empty((len(X), 2, b_f.size))  # step-major, forward then backward
    gates[:, 0] = X @ W_f + b_f
    gates[:, 1] = X[::-1] @ W_b + b_b
    H = lstm_steps(gates, (W_hf, W_hb), packed_steps([len(X)]).plan)[2]
    return np.concatenate((H[:, 0], H[::-1, 1]), axis=1)
