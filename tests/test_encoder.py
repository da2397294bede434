import numpy as np
import pytest

from avex import autodiff as ad
from avex.autodiff import Tensor
from avex.encoder import (
    PAD,
    UNK,
    LstmCell,
    WordEmbeddingTable,
    encode_matrix,
    load_word_vectors,
    lstm_layer,
)
from avex.errors import DataError
from oracles import numeric_lstm_step, run_lstm


def make_cell(rng, d_in, d_h, requires_grad=False):
    def t(shape):
        return Tensor(rng.normal(scale=0.4, size=shape),
                      requires_grad=requires_grad)
    return LstmCell(w_i=t((d_h, d_in + d_h)), w_f=t((d_h, d_in + d_h)),
                    w_o=t((d_h, d_in + d_h)), w_g=t((d_h, d_in + d_h)),
                    b_i=t((d_h,)), b_f=t((d_h,)), b_o=t((d_h,)), b_g=t((d_h,)))


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
        h, c = numeric_lstm_step(
            X[t], h, c,
            cell.w_i.data, cell.b_i.data, cell.w_f.data, cell.b_f.data,
            cell.w_o.data, cell.b_o.data, cell.w_g.data, cell.b_g.data)
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


def test_lstm_zero_params_zero_input():
    zero = Tensor(np.zeros((2, 4)))
    zb = Tensor(np.zeros(2))
    cell = LstmCell(zero, zero, zero, zero, zb, zb, zb, zb)
    H = lstm_layer(Tensor(np.zeros((3, 2))), cell)
    np.testing.assert_array_equal(H.data, 0.0)


def test_lstm_saturated_gates_carry_cell_state():
    # Open input and forget gates, then a closed input gate: the cell
    # state written at the first step should pass through unchanged, so
    # every later hidden state equals the first.
    d = 3
    big = 50.0

    def const(v, shape):
        return Tensor(np.full(shape, v))

    w_i = np.zeros((d, 2 * d))
    w_i[:, 0] = 2 * big  # input gate opens only while x[0] == 1
    cell = LstmCell(
        w_i=Tensor(w_i), w_f=const(0.0, (d, 2 * d)),
        w_o=const(0.0, (d, 2 * d)), w_g=const(0.0, (d, 2 * d)),
        b_i=const(-big, (d,)), b_f=const(big, (d,)),
        b_o=const(0.0, (d,)), b_g=Tensor(np.array([0.3, -0.7, 1.1])))
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
    H = encode_matrix(tokens, table, f_cell, b_cell).data
    X = table.embed(tokens)
    assert H.shape == (4, 6)
    np.testing.assert_array_equal(H[:, :3], lstm_layer(X, f_cell).data)
    np.testing.assert_array_equal(H[:, 3:], lstm_layer(X, b_cell, reverse=True).data)


def test_bilstm_rejects_empty_input():
    rng = np.random.default_rng(4)
    table = WordEmbeddingTable.build(["red"], {}, 2, rng)
    cell = make_cell(rng, 2, 3)
    with pytest.raises(ValueError):
        encode_matrix([], table, cell, cell)


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


def test_encode_matrix_shape():
    rng = np.random.default_rng(5)
    table = WordEmbeddingTable.build(["red", "towel"], {}, 4, rng)
    f_cell = make_cell(rng, 4, 3)
    b_cell = make_cell(rng, 4, 3)
    H = encode_matrix(["red", "towel", "set"], table, f_cell, b_cell)
    assert H.data.shape == (3, 6)


def test_bilstm_gradients_check_out():
    rng = np.random.default_rng(6)
    table = WordEmbeddingTable.build(["a", "b"], {}, 3, rng)
    f_cell = make_cell(rng, 3, 2, requires_grad=True)
    b_cell = make_cell(rng, 3, 2, requires_grad=True)

    def f():
        H = encode_matrix(["a", "b", "a"], table, f_cell, b_cell)
        return ad.tanh(H).sum()

    params = {"emb": table.matrix}
    params.update({f"f{i}": t for i, t in enumerate(f_cell.tensors())})
    params.update({f"b{i}": t for i, t in enumerate(b_cell.tensors())})
    report = ad.grad_check(f, params, tolerance=1e-6)
    assert report.passed, report.max_rel_error
