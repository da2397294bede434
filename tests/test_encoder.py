import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avex import autodiff as ad
from avex import encoder
from avex.autodiff import Tensor
from avex.encoder import (
    PAD,
    UNK,
    LstmCell,
    WordEmbeddingTable,
    encode_batch,
    encode_text,
    load_word_vectors,
    lstm_layer,
)
from avex.errors import DataError
from oracles import numeric_lstm_step, run_lstm, tanh


def make_cell(rng, d_in, d_h, requires_grad=False):
    def t(shape):
        return Tensor(rng.normal(scale=0.4, size=shape),
                      requires_grad=requires_grad)
    return LstmCell(W=t((4 * d_h, d_in + d_h)), b=t((4 * d_h,)))


# -- vector file loading -----------------------------------------------------


def test_load_word_vectors(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("the 0.1 0.2\ncat -1 2\n", encoding="utf-8")
    vecs = load_word_vectors(path)
    assert set(vecs) == {"the", "cat"}
    np.testing.assert_array_equal(vecs["cat"], [-1.0, 2.0])


def test_load_word_vectors_rejects_ragged(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("the 0.1 0.2\ncat 1\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_word_vectors(path)


def test_load_word_vectors_rejects_non_numeric(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("the 0.1 oops\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_word_vectors(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_load_word_vectors_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "vecs.txt"
    path.write_text(f"the 0.1 0.2\ncat 1 {bad}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: non-finite")):
        load_word_vectors(path)


def test_load_word_vectors_missing_and_empty(tmp_path):
    with pytest.raises(DataError):
        load_word_vectors(tmp_path / "nope.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_word_vectors(empty)


# -- embedding table ---------------------------------------------------------


def test_embedding_table_layout_and_fallbacks():
    rng = np.random.default_rng(0)
    vectors = {"cat": np.array([1.0, 2.0, 3.0])}
    table = WordEmbeddingTable.build(["cat", "Dog"], vectors, 3, rng)
    assert table.itos[:2] == [PAD, UNK]
    assert np.all(table.matrix.data[0] == 0.0)  # padding row stays zero
    np.testing.assert_array_equal(
        table.matrix.data[table.index("cat")], [1.0, 2.0, 3.0])
    # Exact form first, then lowercase, then the unknown row.
    assert table.index("Dog") == table.stoi["Dog"]
    assert table.index("CAT") == table.stoi["cat"]
    assert table.index("DOG") == table.stoi[UNK]  # "dog" itself is unseen
    assert table.index("zebra") == table.stoi[UNK]


def test_embedding_table_lowercase_fallback():
    rng = np.random.default_rng(0)
    table = WordEmbeddingTable.build(["cat"], {}, 3, rng)
    assert table.index("Cat") == table.stoi["cat"]


def test_embedding_init_independent_of_vector_hits():
    # The randomly drawn rows must be identical whether or not some other
    # word got a pretrained vector, so runs differing only in vector
    # coverage stay comparable.
    vecs = {"cat": np.array([1.0, 2.0, 3.0])}
    a = WordEmbeddingTable.build(["cat", "dog"], vecs, 3,
                                 np.random.default_rng(5))
    b = WordEmbeddingTable.build(["cat", "dog"], {}, 3,
                                 np.random.default_rng(5))
    np.testing.assert_array_equal(
        a.matrix.data[a.stoi["dog"]], b.matrix.data[b.stoi["dog"]])


def test_embedding_rejects_wrong_dim_vector():
    rng = np.random.default_rng(0)
    with pytest.raises(DataError):
        WordEmbeddingTable.build(["cat"], {"cat": np.zeros(5)}, 3, rng)


# -- LSTM recurrence ---------------------------------------------------------


def test_lstm_layer_matches_plain_numpy():
    rng = np.random.default_rng(1)
    cell = make_cell(rng, 3, 4)
    X = rng.normal(size=(5, 3))
    H = lstm_layer(Tensor(X), cell).data
    h, c = np.zeros(4), np.zeros(4)
    for t in range(5):
        h, c = numeric_lstm_step(X[t], h, c, cell.W.data, cell.b.data)
        np.testing.assert_allclose(H[t], h, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_lstm_layer_matches_per_step_reference(n, reverse):
    rng = np.random.default_rng(n)
    cell = make_cell(rng, 3, 4)
    X = rng.normal(size=(n, 3))
    H = lstm_layer(Tensor(X), cell, reverse=reverse).data
    ref = run_lstm([Tensor(x) for x in X], cell, reverse=reverse)
    np.testing.assert_allclose(H, np.stack([r.data for r in ref]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_gradients_match_per_step_reference(reverse):
    rng = np.random.default_rng(7)
    cell = make_cell(rng, 3, 4, requires_grad=True)
    X = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    weight = rng.normal(size=(6, 4))
    leaves = [X, *cell.tensors()]

    def grads(loss):
        for t in leaves:
            t.grad = None
        loss.backward()
        return [t.grad.copy() for t in leaves]

    fused = grads((lstm_layer(X, cell, reverse=reverse) * weight).sum())
    rows = [ad.row(X, i) for i in range(6)]
    states = run_lstm(rows, cell, reverse=reverse)
    ref = grads((ad.concat([ad.reshape(h, (1, 4)) for h in states]) * weight).sum())
    for got, want in zip(fused, ref):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_gradients_check_out(reverse):
    rng = np.random.default_rng(8)
    cell = make_cell(rng, 3, 2, requires_grad=True)
    X = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    weight = rng.normal(size=(4, 2))
    params = {"X": X}
    params.update({f"w{i}": t for i, t in enumerate(cell.tensors())})
    report = ad.grad_check(
        lambda: (lstm_layer(X, cell, reverse=reverse) * weight).sum(),
        params, tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_backward_leaves_its_output_gradient_alone(reverse):
    # ``add`` hands one gradient array to both operands, so the LSTM's vjp
    # must not write into the gradient it receives.
    rng = np.random.default_rng(9)
    cell = make_cell(rng, 3, 2, requires_grad=True)
    X = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    other = Tensor(np.zeros((4, 2)), requires_grad=True)
    weight = rng.normal(size=(4, 2))
    ((lstm_layer(X, cell, reverse=reverse) + other) * weight).sum().backward()
    np.testing.assert_array_equal(other.grad, weight)


def test_lstm_zero_params_zero_input():
    cell = LstmCell(Tensor(np.zeros((8, 4))), Tensor(np.zeros(8)))
    H = lstm_layer(Tensor(np.zeros((3, 2))), cell)
    np.testing.assert_array_equal(H.data, 0.0)


def test_lstm_saturated_gates_carry_cell_state():
    # Open input and forget gates, then a closed input gate: the cell
    # state written at the first step should pass through unchanged, so
    # every later hidden state equals the first.
    d = 3
    big = 50.0

    W = np.zeros((4 * d, 2 * d))
    W[:d, 0] = 2 * big  # input gate opens only while x[0] == 1
    # Gate rows in i, f, o, g order.
    b = np.concatenate([np.full(d, -big), np.full(d, big), np.zeros(d), [0.3, -0.7, 1.1]])
    cell = LstmCell(W=Tensor(W), b=Tensor(b))
    X = np.zeros((6, d))
    X[0, 0] = 1.0
    H = lstm_layer(Tensor(X), cell).data
    np.testing.assert_allclose(H[0], 0.5 * np.tanh(np.tanh([0.3, -0.7, 1.1])),
                               atol=1e-12)
    np.testing.assert_allclose(H[1:], np.broadcast_to(H[0], (5, d)), atol=1e-12)


def test_lstm_layer_reverse_processes_right_to_left():
    rng = np.random.default_rng(2)
    cell = make_cell(rng, 2, 3)
    X = rng.normal(size=(4, 2))
    bwd = lstm_layer(Tensor(X), cell, reverse=True).data
    rev = lstm_layer(Tensor(X[::-1]), cell).data
    # Reverse pass over X == forward pass over reversed X, re-reversed.
    np.testing.assert_array_equal(bwd, rev[::-1])
    assert bwd.shape == (4, 3)


def test_bilstm_concatenates_directions():
    rng = np.random.default_rng(3)
    table = WordEmbeddingTable.build(["red", "towel"], {}, 2, rng)
    f_cell = make_cell(rng, 2, 3)
    b_cell = make_cell(rng, 2, 3)
    tokens = ["red", "towel", "set", "red"]
    H = encode_batch([tokens], table, f_cell, b_cell).data
    X = table.embed(tokens)
    assert H.shape == (4, 6)
    np.testing.assert_array_equal(H[:, :3], lstm_layer(X, f_cell).data)
    np.testing.assert_array_equal(H[:, 3:], lstm_layer(X, b_cell, reverse=True).data)


def test_bilstm_rejects_empty_input():
    rng = np.random.default_rng(4)
    table = WordEmbeddingTable.build(["red"], {}, 2, rng)
    cell = make_cell(rng, 2, 3)
    with pytest.raises(ValueError):
        encode_batch([[]], table, cell, cell)
    with pytest.raises(ValueError), ad.no_grad():  # not the one-text walk
        encode_batch([[]], table, cell, cell)


def test_embed_gathers_rows_in_one_node():
    rng = np.random.default_rng(9)
    table = WordEmbeddingTable.build(["red", "towel"], {}, 3, rng)
    X = table.embed(["towel", "red", "towel", "zebra"])
    assert X.data.shape == (4, 3)
    np.testing.assert_array_equal(
        X.data, table.matrix.data[[table.stoi["towel"], table.stoi["red"],
                                   table.stoi["towel"], table.stoi[UNK]]])
    assert X._parents == (table.matrix,)
    X.sum().backward()
    assert table.matrix.grad[table.stoi["towel"]].tolist() == [2.0] * 3
    assert table.matrix.grad[table.stoi[UNK]].tolist() == [1.0] * 3


def test_embed_under_no_grad_gathers_the_same_rows_without_a_node(monkeypatch):
    rng = np.random.default_rng(10)
    table = WordEmbeddingTable.build(["red", "towel"], {}, 3, rng)
    tokens = ["towel", "Red", "zebra", "towel"]
    rows = []
    real = encoder.row
    monkeypatch.setattr(encoder, "row", lambda *a: rows.append(a) or real(*a))
    X = table.embed(tokens)
    assert len(rows) == 1
    with ad.no_grad():
        Y = table.embed(tokens)
        assert table.embed([]).data.shape == (0, 3)
    assert len(rows) == 1
    assert Y.data.tobytes() == X.data.tobytes()
    assert Y._parents == () and not Y.requires_grad


def test_encode_batch_shape():
    rng = np.random.default_rng(5)
    table = WordEmbeddingTable.build(["red", "towel"], {}, 4, rng)
    f_cell = make_cell(rng, 4, 3)
    b_cell = make_cell(rng, 4, 3)
    H = encode_batch([["red", "towel", "set"]], table, f_cell, b_cell)
    assert H.data.shape == (3, 6)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 6), h=st.integers(1, 6), seed=st.integers(0, 2**16),
       tokens=st.lists(st.sampled_from(["red", "towel", "set", "zebra"]),
                       min_size=1, max_size=8))
def test_one_text_walk_matches_the_packed_layers(d, h, seed, tokens):
    # The two packed lstm_layer nodes of encode_batch, with gradients on
    # and off, and the one walk of encode_text give the same bits.
    rng = np.random.default_rng(seed)
    table = WordEmbeddingTable.build(["red", "towel", "set"], {}, d, rng)
    f_cell, b_cell = make_cell(rng, d, h), make_cell(rng, d, h)
    packed = encode_batch([tokens], table, f_cell, b_cell)
    with ad.no_grad():
        unrecorded = encode_batch([tokens], table, f_cell, b_cell)
        walked = encode_text(tokens, table, f_cell, b_cell)
    assert packed._parents and not unrecorded._parents
    assert isinstance(walked, np.ndarray) and walked.shape == (len(tokens), 2 * h)
    np.testing.assert_array_equal(unrecorded.data, packed.data)
    np.testing.assert_array_equal(walked, packed.data)


# The last column gives D, the directions side by side, of each call to
# the one LSTM step kernel: encode_batch runs one packed node per
# direction whatever its texts and whether gradients are on, and
# encode_text walks both directions of its one text in one call.
@pytest.mark.parametrize("encode, texts, recording, layers, kernel", [
    (encode_batch, [["a", "b"]], False, 2, [1, 1]),
    (encode_batch, [["a", "b"]], True, 2, [1, 1]),
    (encode_batch, [["a"], ["b", "a"]], False, 2, [1, 1]),
    (encode_text, ["a", "b"], False, 0, [2]),
], ids=["texts0-False-0", "texts1-True-2", "texts2-False-2", "text-False-0"])
def test_only_one_text_without_gradients_skips_the_packed_layers(
        monkeypatch, encode, texts, recording, layers, kernel):
    rng = np.random.default_rng(13)
    table = WordEmbeddingTable.build(["a", "b"], {}, 3, rng)
    cell = make_cell(rng, 3, 2)
    calls, directions = [], []
    real, steps = encoder.lstm_layer, encoder.lstm_steps
    monkeypatch.setattr(encoder, "lstm_layer",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    monkeypatch.setattr(encoder, "lstm_steps",
                        lambda gates, *args: directions.append(gates.shape[1])
                        or steps(gates, *args))
    with nullcontext() if recording else ad.no_grad():
        encode(texts, table, cell, cell)
    assert len(calls) == layers
    assert directions == kernel


def test_bilstm_gradients_check_out():
    rng = np.random.default_rng(6)
    table = WordEmbeddingTable.build(["a", "b"], {}, 3, rng)
    f_cell = make_cell(rng, 3, 2, requires_grad=True)
    b_cell = make_cell(rng, 3, 2, requires_grad=True)

    def f():
        H = encode_batch([["a", "b", "a"]], table, f_cell, b_cell)
        return tanh(H).sum()

    params = {"emb": table.matrix}
    params.update({f"f{i}": t for i, t in enumerate(f_cell.tensors())})
    params.update({f"b{i}": t for i, t in enumerate(b_cell.tensors())})
    report = ad.grad_check(f, params, tolerance=1e-6)
    assert report.passed, report.max_rel_error


# -- the stacked gate matrix, kept under no_grad -----------------------------


GATES = "ifog"  # the order of the rows of W and b


@pytest.mark.parametrize("name", [f"{part}_{gate}" for part in "wb" for gate in GATES])
def test_gate_stack_follows_an_assigned_tensor(name):
    # W or b is assigned, with new values in one gate's rows only.
    part, gate = name.split("_")
    rng = np.random.default_rng(10)
    cell = make_cell(rng, 3, 4)
    X = Tensor(rng.normal(size=(5, 3)))
    with ad.no_grad():
        before = lstm_layer(X, cell).data
        t = cell.W if part == "w" else cell.b
        k, j = cell.hidden_size, GATES.index(gate)
        changed = t.data.copy()
        changed[j * k:(j + 1) * k] += rng.normal(scale=0.3, size=changed[:k].shape)
        t.data = changed
        after = lstm_layer(X, cell, [2, 3]).data
        fresh = LstmCell(*(Tensor(p.data) for p in cell.tensors()))
        np.testing.assert_array_equal(after, lstm_layer(X, fresh, [2, 3]).data)
    assert not np.array_equal(before, lstm_layer(X, fresh).data)


def test_gate_stack_built_once_per_parameter_state(monkeypatch):
    rng = np.random.default_rng(11)
    cell = make_cell(rng, 3, 2)
    X = Tensor(rng.normal(size=(4, 3)))
    built = []
    real = LstmCell._stack
    monkeypatch.setattr(LstmCell, "_stack", lambda self: built.append(1) or real(self))
    with ad.no_grad():
        first = lstm_layer(X, cell).data
        for reverse in (False, True, False):
            lstm_layer(X, cell, reverse=reverse)
        assert len(built) == 1
        np.testing.assert_array_equal(lstm_layer(X, cell).data, first)
        cell.b.data = cell.b.data * 1.0  # an assignment, same values
        lstm_layer(X, cell)
        assert len(built) == 2
    # Gradients on: rebuilt on every call (grad_check writes in place).
    lstm_layer(X, cell)
    lstm_layer(X, cell)
    assert len(built) == 4


def test_gate_stack_halves_the_sigmoid_gates():
    rng = np.random.default_rng(12)
    cell = make_cell(rng, 2, 3)
    W_x, W_h, bias = cell.gate_stack()
    scale = np.repeat([0.5, 0.5, 0.5, 1.0], 3)  # i, f, o halved; g kept
    np.testing.assert_array_equal(W_x, cell.W.data[:, :2].T * scale)
    np.testing.assert_array_equal(W_h, cell.W.data[:, 2:].T * scale)
    np.testing.assert_array_equal(bias, cell.b.data * scale)
    assert W_x.shape == (2, 12) and W_x.flags.c_contiguous
    assert not any(np.shares_memory(part, p.data)
                   for part in (W_x, W_h, bias) for p in cell.tensors())
