"""End-to-end checks of the command-line pipeline on a tiny generated corpus."""

import json
import os
import shutil
import sys
import warnings

import numpy as np
import pytest

from avex import cli, files, training
from avex.attribute_embeddings import AttributeEmbeddingTable
from avex.errors import DataError, NumericError

SPEC = {
    "seed": 11,
    "vector_dim": 12,
    "attributes": [
        {"id": "Scent", "values": ["orchid", "vanilla", "mango", "rose"],
         "templates": ["<value> / <value> scent"], "train": 12, "dev": 6,
         "test": 4},
        {"id": "Color", "values": ["red", "teal", "black", "white"],
         "templates": ["<value> / <value> towel"], "train": 12, "dev": 6,
         "test": 4},
    ],
}

CONFIG_TEXT = """\
# tiny run
variant = adatag
d_h = 8
d_word = 12
k = 2
batch_size = 2
max_epochs = 4
seed = 9
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> label -> embed -> train once and hand out the paths."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    data = root / "data"
    assert cli.main(["synth", "--spec", str(spec_path),
                     "--out-dir", str(data)]) == 0

    labeled = root / "labeled.jsonl"
    label_report = root / "label_report.json"
    assert cli.main(["label", "--corpus", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.json"),
                     "--out", str(labeled),
                     "--report", str(label_report)]) == 0

    table = root / "attrs.json"
    assert cli.main(["embed", "--mode", "uncontextualized",
                     "--labeled", str(labeled),
                     "--vectors", str(data / "vectors.txt"),
                     "--vocab", str(data / "vocab.json"),
                     "--out", str(table)]) == 0

    config = root / "train.cfg"
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    stem = root / "model"
    train_args = ["train", "--corpus", str(data / "corpus.jsonl"),
                  "--vocab", str(data / "vocab.json"),
                  "--splits", str(data / "splits.json"),
                  "--vectors", str(data / "vectors.txt"),
                  "--embeddings", str(table),
                  "--config", str(config),
                  "--out", str(stem)]
    assert cli.main(train_args + ["--seed", "3"]) == 0
    return {"root": root, "spec": spec_path, "data": data, "labeled": labeled,
            "label_report": label_report, "table": table, "config": config,
            "stem": stem, "train_args": train_args}


def test_synth_outputs(pipeline):
    data = pipeline["data"]
    for name in ("corpus.jsonl", "vocab.json", "splits.json", "vectors.txt"):
        assert (data / name).exists()


def test_synth_seed_override(pipeline, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--spec", str(pipeline["spec"]),
                     "--out-dir", str(a), "--seed", "99"]) == 0
    assert cli.main(["synth", "--spec", str(pipeline["spec"]),
                     "--out-dir", str(b), "--seed", "99"]) == 0
    assert (a / "corpus.jsonl").read_text() == (b / "corpus.jsonl").read_text()
    assert (a / "corpus.jsonl").read_text() != \
        (pipeline["data"] / "corpus.jsonl").read_text()


def test_label_report_written(pipeline):
    report = json.loads(pipeline["label_report"].read_text())
    assert report["examples"] == 44
    assert report["dropped_pairs"] == 0


def test_label_without_products_is_data_error(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('[7]\n{"id": "p"}\n', encoding="utf-8")
    out = tmp_path / "lab.jsonl"
    rc = cli.main(["label", "--corpus", str(bad),
                   "--vocab", str(pipeline["data"] / "vocab.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{bad}:1: product row is not a JSON object" in err
    assert f"{bad}:2: product row lacks 'title'" in err
    assert "no valid product line" in err
    assert not out.exists()


def test_embed_table_loads(pipeline):
    table = AttributeEmbeddingTable.load(pipeline["table"])
    assert set(table.ids()) == {"Scent", "Color"}
    assert table.d_r == 24


def test_embed_random_mode(pipeline, tmp_path):
    out = tmp_path / "rand.json"
    assert cli.main(["embed", "--mode", "random",
                     "--vocab", str(pipeline["data"] / "vocab.json"),
                     "--d-r", "7", "--seed", "1", "--out", str(out)]) == 0
    table = AttributeEmbeddingTable.load(out)
    assert table.d_r == 7
    assert table.provenance == "random"


def test_embed_missing_inputs_is_data_error(pipeline, tmp_path, capsys):
    rc = cli.main(["embed", "--mode", "uncontextualized",
                   "--labeled", str(pipeline["labeled"]),
                   "--out", str(tmp_path / "t.json")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_train_logs_resolved_config(pipeline, tmp_path, capsys):
    # Flags win over the config file; the resolved values go to stderr.
    stem = tmp_path / "m"
    args = [a for a in pipeline["train_args"]]
    args[args.index("--out") + 1] = str(stem)
    assert cli.main(args + ["--seed", "3", "--max-epochs", "1"]) == 0
    err = capsys.readouterr().err
    line = next(l for l in err.splitlines() if l.startswith("resolved config:"))
    resolved = json.loads(line.split(":", 1)[1])
    assert resolved["seed"] == 3
    assert resolved["max_epochs"] == 1
    assert resolved["d_h"] == 8
    assert stem.with_suffix(".bin").exists()
    # The logged config is the one the model is built with: adatag's d_r
    # comes from the 24-d attribute table, not the default.
    manifest = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    assert resolved["d_r"] == manifest["config"]["d_r"] == 24
    assert resolved == manifest["config"]


def test_extract_prints_values(pipeline, capsys):
    rc = cli.main(["extract", "--checkpoint", str(pipeline["stem"]),
                   "--attr", "Scent, Color",
                   "--text", "mango / rose scent body wash"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"Scent", "Color"}
    for values in result.values():
        assert values == sorted(values)


def test_extract_encodes_the_text_once(pipeline, capsys, monkeypatch):
    from avex import corpus, evaluation, models
    text = "mango / rose scent teal towel"
    tokens = [t.text for t in corpus.tokenize(text)]
    expected = {}
    for attr in ("Scent", "Color"):  # a fresh model each, so nothing is reused
        fresh = training.load_checkpoint(pipeline["stem"])
        expected[attr] = sorted(evaluation.extract(fresh, tokens, attr))
    # A request per attribute: one walk over the text, and no emissions
    # node, packed encoder node or best_paths recursion of the batch path.
    calls = {}
    for name in ("encode_text", "encode_batch", "emissions", "best_paths"):
        real = getattr(models, name)
        calls[name] = []
        monkeypatch.setattr(models, name,
                            lambda *args, real=real, seen=calls[name]: seen.append(args)
                            or real(*args))
    rc = cli.main(["extract", "--checkpoint", str(pipeline["stem"]),
                   "--attr", "Scent,Color", "--text", text])
    assert rc == 0
    assert {name: len(seen) for name, seen in calls.items()} == \
        {"encode_text": 1, "encode_batch": 0, "emissions": 0, "best_paths": 0}
    assert capsys.readouterr().out == \
        json.dumps(expected, ensure_ascii=False, indent=2) + "\n"


def test_eval_table_and_json(pipeline, capsys):
    base = ["eval", "--checkpoint", str(pipeline["stem"]),
            "--test", str(pipeline["labeled"])]
    assert cli.main(base) == 0
    assert "macro" in capsys.readouterr().out
    assert cli.main(base + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["macro"]["f1"] <= 1.0
    assert set(report["per_attribute"]) == {"Scent", "Color"}


def test_eval_stratified_with_dump(pipeline, tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"Scent": 2000, "Color": 12}), encoding="utf-8")
    dump = tmp_path / "preds.jsonl"
    rc = cli.main(["eval", "--checkpoint", str(pipeline["stem"]),
                   "--test", str(pipeline["labeled"]),
                   "--format", "json", "--stratify", "1000",
                   "--train-counts", str(counts), "--dump", str(dump)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strata"]["high"]["attributes"] == ["Scent"]
    assert report["strata"]["low"]["attributes"] == ["Color"]
    rows = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(rows) == 44
    assert rows == sorted(rows, key=lambda r: (r["id"], r["attribute"]))
    assert set(rows[0]) == {"id", "attribute", "predicted", "gold"}


def test_eval_stratify_needs_counts(pipeline, capsys):
    rc = cli.main(["eval", "--checkpoint", str(pipeline["stem"]),
                   "--test", str(pipeline["labeled"]), "--stratify", "10"])
    assert rc == 2
    assert "train-counts" in capsys.readouterr().err


def _copy_checkpoint(pipeline, tmp_path):
    stem = tmp_path / "model"
    for suffix in (".json", ".bin"):
        shutil.copy(pipeline["stem"].with_suffix(suffix), stem.with_suffix(suffix))
    return stem, json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))


def _run_on_checkpoint(pipeline, command, stem):
    args = {"extract": ["--attr", "Scent", "--text", "rose scent"],
            "eval": ["--test", str(pipeline["labeled"])],
            "param-count": []}[command]
    return cli.main([command, "--checkpoint", str(stem)] + args)


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _first_tensor(manifest, entry):
    return {**manifest, "tensors": [entry] + manifest["tensors"][1:]}


def _with_words(manifest, word_vocabs):
    """The manifest with other word vocabularies and hashes that match them."""
    ids = [entry["id"] for entry in manifest["attribute_vocab"]]
    return {**manifest, "word_vocabs": word_vocabs,
            "vocab_hashes": training._vocab_hashes(ids, word_vocabs)}


MANIFEST_KEYS = ("config", "attribute_vocab", "word_vocabs", "vocab_hashes",
                 "payload_file", "payload_bytes", "tensors")
TENSOR_KEYS = ("name", "shape", "byte_offset")
BAD_MANIFESTS = (
    [("empty", lambda m: {"format_version": training.CHECKPOINT_FORMAT_VERSION}),
     ("not an object", lambda m: [1])]
    + [(f"no {k}", lambda m, k=k: _without(m, k)) for k in MANIFEST_KEYS]
    + [(f"{k} mistyped", lambda m, k=k: {**m, k: "7" if k == "payload_bytes" else 7})
       for k in MANIFEST_KEYS]
    + [(f"tensor without {k}",
        lambda m, k=k: _first_tensor(m, _without(m["tensors"][0], k)))
       for k in TENSOR_KEYS]
    + [(f"tensor {k} mistyped",
        lambda m, k=k: _first_tensor(m, {**m["tensors"][0], k: None}))
       for k in TENSOR_KEYS]
    + [("negative offset",
        lambda m: _first_tensor(m, {**m["tensors"][0], "byte_offset": -4})),
       ("shape of strings",
        lambda m: _first_tensor(m, {**m["tensors"][0], "shape": ["2"]})),
       ("attribute row without id", lambda m: {**m, "attribute_vocab": [{}]}),
       ("word vocabulary not a list", lambda m: {**m, "word_vocabs": {"shared": "a"}}),
       ("word not a string", lambda m: {**m, "word_vocabs": {"shared": [["x"]]}}),
       ("word vocabulary hash not a string", lambda m: {
           **m, "vocab_hashes": {**m["vocab_hashes"], "words": {"shared": 7}}}),
       ("attribute embeddings without d_r", lambda m: {
           **m, "attribute_embeddings": _without(m["attribute_embeddings"], "d_r")}),
       ("attribute embedding id not a string", lambda m: {
           **m, "attribute_embeddings": {**m["attribute_embeddings"], "ids": [["x"]]}}),
       ("config value mistyped", lambda m: {**m, "config": {**m["config"], "d_h": [8]}}),
       ("config seed negative", lambda m: {**m, "config": {**m["config"], "seed": -1}}),
       ("no shared word vocabulary", lambda m: _with_words(m, {})),
       ("empty word vocabulary", lambda m: _with_words(m, {"shared": []})),
       # same length, so that only the missing <unk> row is wrong
       ("word vocabulary without <unk>", lambda m: _with_words(
           m, {"shared": ["<pad>"] + m["word_vocabs"]["shared"][2:] + ["zz"]}))]
    + [(f"payload_file {name!r}", lambda m, name=name: {**m, "payload_file": name})
       for name in ("../x.bin", "", "a/b", "..")])


@pytest.mark.parametrize("case", BAD_MANIFESTS, ids=[c[0] for c in BAD_MANIFESTS])
@pytest.mark.parametrize("command", ("extract", "eval", "param-count"))
def test_malformed_manifest_is_data_error(pipeline, tmp_path, capsys, case, command):
    stem, manifest = _copy_checkpoint(pipeline, tmp_path)
    stem.with_suffix(".json").write_text(json.dumps(case[1](manifest)),
                                         encoding="utf-8")
    rc = _run_on_checkpoint(pipeline, command, stem)
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ("extract", "eval", "param-count"))
def test_format_1_checkpoint_is_data_error(pipeline, tmp_path, capsys, command):
    # Format 1 kept eight tensors per LSTM direction and one per expert.
    stem, manifest = _copy_checkpoint(pipeline, tmp_path)
    stem.with_suffix(".json").write_text(json.dumps({**manifest, "format_version": 1}),
                                         encoding="utf-8")
    assert _run_on_checkpoint(pipeline, command, stem) == 2
    err = capsys.readouterr().err
    assert "checkpoint format version 1 unsupported" in err and "Traceback" not in err


def test_reordered_word_vocabulary_is_data_error(pipeline, tmp_path, capsys):
    # Same length, two words swapped: every row would map to the wrong word.
    stem, manifest = _copy_checkpoint(pipeline, tmp_path)
    words = manifest["word_vocabs"]["shared"]
    words[2], words[3] = words[3], words[2]
    stem.with_suffix(".json").write_text(json.dumps(manifest), encoding="utf-8")
    assert _run_on_checkpoint(pipeline, "extract", stem) == 2
    err = capsys.readouterr().err
    assert "do not match their hashes" in err and "Traceback" not in err


# A NaN emission bias reaches the emission scores; a NaN expert reaches only
# the transition tables; a NaN LSTM weight or bias reaches only the encoder
# states, and through them the emission scores.  An inf LSTM bias saturates
# a tanh, and a NaN in Color's row of W_att reaches only Color's decoder, so
# neither shows in the scores of `extract --attr Scent`: the load refuses
# every non-finite value, whichever command reads the checkpoint.
@pytest.mark.parametrize("tensor, value, attribute", [
    ("hyper/b_hyper_b", np.nan, None),
    ("moe/experts", np.nan, None),
    ("encoder/lstm_bwd/W", np.nan, None),
    ("encoder/lstm_fwd/b", np.nan, None),
    ("encoder/lstm_fwd/b", np.inf, None),
    ("att_emb/W_att", np.nan, "Color"),
], ids=["hyper/b_hyper_b", "moe/experts", "encoder/lstm_bwd/W", "encoder/lstm_fwd/b",
        "encoder/lstm_fwd/b-inf", "att_emb/W_att-Color"])
@pytest.mark.parametrize("command", ("extract", "eval", "param-count"))
def test_nan_weight_is_numeric_failure(pipeline, tmp_path, capsys, command, tensor, value,
                                       attribute):
    stem, manifest = _copy_checkpoint(pipeline, tmp_path)
    entry = next(e for e in manifest["tensors"] if e["name"] == tensor)
    payload = bytearray(stem.with_suffix(".bin").read_bytes())
    offset = entry["byte_offset"]
    if attribute is not None:  # the first value of that attribute's row
        ids = [row["id"] for row in manifest["attribute_vocab"]]
        offset += 4 * entry["shape"][1] * ids.index(attribute)
    payload[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
    stem.with_suffix(".bin").write_bytes(bytes(payload))
    assert _run_on_checkpoint(pipeline, command, stem) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and tensor in err


@pytest.mark.parametrize("command", ("extract", "eval"))
def test_largest_float32_weights_decode_without_a_warning(pipeline, tmp_path, capsys,
                                                         command):
    # Every payload value at ±float32 max: the float64 scores stay finite,
    # so the command succeeds and numpy prints no warning.
    stem, manifest = _copy_checkpoint(pipeline, tmp_path)
    rng = np.random.default_rng(5)
    largest = np.finfo(np.float32).max
    count = manifest["payload_bytes"] // 4
    payload = np.where(rng.random(count) < 0.5, -largest, largest).astype("<f4")
    stem.with_suffix(".bin").write_bytes(payload.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_on_checkpoint(pipeline, command, stem) == 0
    assert capsys.readouterr().err == ""


def test_param_count_from_flags(capsys):
    rc = cli.main(["param-count", "--variant", "adatag",
                   "--num-attributes", "12", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tensors"]["hyper/W_hyper_w"] == 1228800
    assert report["total"] == sum(report["tensors"].values())


def test_param_count_from_checkpoint(pipeline, capsys):
    rc = cli.main(["param-count", "--checkpoint", str(pipeline["stem"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hyper" in out and "total" in out


def test_param_count_rejects_two_sources(pipeline, capsys):
    rc = cli.main(["param-count", "--checkpoint", str(pipeline["stem"]),
                   "--variant", "adatag"])
    assert rc == 2


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["label", "--corpus", "x.jsonl"])  # missing required flags
    assert exc.value.code == 1
    for attr in ("", ",", " , "):  # no attribute id to extract
        with pytest.raises(SystemExit) as exc:
            cli.main(["extract", "--checkpoint", "m", "--attr", attr, "--text", "x"])
        assert exc.value.code == 1


def test_missing_input_file_exits_2(pipeline, tmp_path, capsys):
    rc = cli.main(["label", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--vocab", str(pipeline["data"] / "vocab.json"),
                   "--out", str(tmp_path / "out.jsonl")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_failure_removes_new_outputs_only(pipeline, tmp_path, monkeypatch, capsys):
    stem = tmp_path / "m"
    stale = stem.with_suffix(".json")
    stale.write_text("stale", encoding="utf-8")

    def doomed_train(config, vocab, train, dev, **kw):
        # Crash after both checkpoint files have been written.
        for suffix in (".bin", ".json"):
            with files.write(stem.with_suffix(suffix)) as fh:
                fh.write("junk")
        raise DataError("boom")

    monkeypatch.setattr(cli.training, "train", doomed_train)
    args = [a for a in pipeline["train_args"]]
    args[args.index("--out") + 1] = str(stem)
    assert cli.main(args) == 2
    assert not stem.with_suffix(".bin").exists()  # newly created: removed
    assert stale.exists()  # pre-existing path: left alone
    assert stale.read_text(encoding="utf-8") == "stale"  # ... with its bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_numeric_failure_exits_3(pipeline, tmp_path, monkeypatch, capsys):
    def diverged(config, vocab, train, dev, **kw):
        raise NumericError("loss became nan")

    monkeypatch.setattr(cli.training, "train", diverged)
    args = [a for a in pipeline["train_args"]]
    args[args.index("--out") + 1] = str(tmp_path / "m")
    assert cli.main(args) == 3
    assert "numerical failure" in capsys.readouterr().err


class _ClosedPipe:
    """A stdout whose reader has gone away, backed by descriptor ``fd``."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


def test_closed_stdout_keeps_outputs(pipeline, tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        out = tmp_path / "labeled.jsonl"
        rc = cli.main(["label", "--corpus", str(pipeline["data"] / "corpus.jsonl"),
                       "--vocab", str(pipeline["data"] / "vocab.json"),
                       "--out", str(out)])  # the report goes to stdout
        assert rc == 0
        assert out.read_bytes() == pipeline["labeled"].read_bytes()
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


# -- every file input and output, broken ------------------------------------

# Per command, an argv whose "{kind}" items are input files and whose
# "@name" items are output paths under the case's out/ directory.
FUZZ_COMMANDS = {
    "label": ["label", "--corpus", "{corpus}", "--vocab", "{vocab}",
              "--out", "@labeled.jsonl", "--report", "@report.json"],
    "embed-uncontextualized": [
        "embed", "--mode", "uncontextualized", "--labeled", "{labeled}",
        "--vectors", "{vectors}", "--vocab", "{vocab}", "--out", "@table.jsonl"],
    "embed-contextualized": ["embed", "--mode", "contextualized",
                             "--instances", "{instances}", "--out", "@table.jsonl"],
    "embed-random": ["embed", "--mode", "random", "--vocab", "{vocab}",
                     "--out", "@table.jsonl"],
    "train": ["train", "--corpus", "{corpus}", "--vocab", "{vocab}",
              "--splits", "{splits}", "--vectors", "{vectors}",
              "--embeddings", "{table}", "--config", "{config}",
              "--out", "@model", "--report", "@train_report.json"],
    "extract": ["extract", "--checkpoint", "{checkpoint}", "--attr", "Scent",
                "--text", "rose scent"],
    "eval": ["eval", "--checkpoint", "{checkpoint}", "--test", "{labeled}",
             "--stratify", "10", "--train-counts", "{counts}",
             "--dump", "@preds.jsonl"],
    "param-count-checkpoint": ["param-count", "--checkpoint", "{checkpoint}"],
    "param-count-config": ["param-count", "--config", "{config}"],
    "synth": ["synth", "--spec", "{spec}", "--out-dir", "@data"],
}
# Outputs that exist before every case, some of them in the way.
PRE_EXISTING = ("labeled.jsonl", "table.jsonl", "model.json", "preds.jsonl",
                "data/corpus.jsonl", "adir/keep", "afile")
WRONG_TYPE = {
    "corpus": [b"[7]\n"],
    "vocab": [b'{"id": "Scent"}', b"[7]", b'"Scent"'],
    "splits": [b"[7]", b'{"train": 7, "dev": [], "test": []}'],
    "vectors": [b"[7]\n"],
    "labeled": [b"[7]\n", b'{"id": "p", "attribute": "Scent", "tokens": 7, "tags": []}\n'],
    "table": [b"[7]\n", b'{"attribute": "Scent", "vec": "x"}\n'],
    "instances": [b"[7]\n", b'{"attribute": "Scent", "name_vec": "x", "value_vec": [1]}\n'],
    "config": [b"[7]\n", b"d_h = eight\n"],
    "manifest": [b"[7]", b'"model.bin"'],
    "payload": [],
    "counts": [b"[7]", b'{"Scent": "many"}'],
    "spec": [b"[7]", b'{"attributes": 7}',
             b'{"attributes": [{"id": "A", "values": [1], "templates": ["<value> x"]}]}',
             b'{"attributes": [{"id": "A", "values": ["v"], "templates": ["<value> x"],'
             b' "train_value_limit": "1"}]}'],
}
# Contents with a number that is not finite, which every reader refuses.
NON_FINITE = {
    "config": b"learning_rate = nan\n",
    "vectors": b"the 0.5 nan\n",
    "table": b'{"attribute": "Scent", "vec": [0.5, NaN]}\n',
    "instances": b'{"attribute": "Scent", "name_vec": [Infinity], "value_vec": [1]}\n',
}
# Contents the format accepts: an empty labeled file leaves every
# attribute's value half zero, and an empty config file keeps every default.
VALID_BY_DESIGN = {("embed-uncontextualized", "labeled", "empty")} \
    | {(cmd, "config", "empty") for cmd in FUZZ_COMMANDS}


def _corruptions(kind):
    names = ["empty", "truncated"]
    if kind != "payload":
        names.append("not UTF-8")
    if kind in NON_FINITE:
        names.append("non-finite")
    return names + [f"wrong type {i}" for i in range(len(WRONG_TYPE[kind]))]


def _kinds(argv):
    for item in argv:
        if item == "{checkpoint}":
            yield from ("manifest", "payload")
        elif item.startswith("{"):
            yield item[1:-1]


FUZZ_CASES = [(command, kind, corruption)
              for command, argv in FUZZ_COMMANDS.items()
              for kind in _kinds(argv)
              for corruption in _corruptions(kind)
              if (command, kind, corruption) not in VALID_BY_DESIGN]


def _corrupt(valid, kind, corruption):
    if corruption == "empty":
        return b""
    # Cut after the last space before the middle, so that the record cut
    # short lacks whole fields.  The corpus is cut inside its first line,
    # because label keeps every whole product line before a broken one.
    middle = len(valid.split(b"\n")[0]) // 2 if kind == "corpus" else len(valid) // 2
    cut = valid.rfind(b" ", 0, middle) + 1
    if corruption == "truncated":
        return valid[:cut]
    if corruption == "non-finite":
        return NON_FINITE[kind]
    if corruption == "not UTF-8":
        return valid[:cut] + b"\xff" + valid[cut:]
    return WRONG_TYPE[kind][int(corruption.rsplit(" ", 1)[1])]


@pytest.fixture(scope="module")
def fuzz_inputs(pipeline):
    """A valid file of every kind the commands read."""
    root, data = pipeline["root"], pipeline["data"]
    instances = root / "instances.jsonl"
    instances.write_text(
        '{"attribute": "Scent", "name_vec": [1, 0], "value_vec": [0, 1]}\n'
        '{"attribute": "Color", "name_vec": [0, 1], "value_vec": [1, 1]}\n',
        encoding="utf-8")
    counts = root / "counts.json"
    counts.write_text('{"Scent": 20, "Color": 2}', encoding="utf-8")
    return {"corpus": data / "corpus.jsonl", "vocab": data / "vocab.json",
            "splits": data / "splits.json", "vectors": data / "vectors.txt",
            "labeled": pipeline["labeled"], "table": pipeline["table"],
            "instances": instances, "config": pipeline["config"],
            "checkpoint": pipeline["stem"], "counts": counts, "spec": pipeline["spec"]}


def _snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _run(argv, inputs, out, capsys):
    """Run ``argv`` over the PRE_EXISTING outputs; return its exit code, its
    stderr, which must hold no traceback, and whether no output changed."""
    for name in PRE_EXISTING:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(b"old\n")
    before = _snapshot(out)
    argv = [str(inputs[a[1:-1]]) if a.startswith("{")
            else str(out / a[1:]) if a.startswith("@") else a for a in argv]
    rc = cli.main(argv)  # anything it raises fails the test
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err, _snapshot(out) == before


def _assert_fails_cleanly(argv, inputs, out, capsys):
    """Run ``argv``; it must fail with a documented code and touch no output."""
    rc, err, untouched = _run(argv, inputs, out, capsys)
    assert rc in (1, 2, 3), err
    assert untouched
    return rc, err


@pytest.mark.parametrize("command,kind,corruption", FUZZ_CASES,
                         ids=["-".join(c) for c in FUZZ_CASES])
def test_broken_input_fails_cleanly(fuzz_inputs, tmp_path, capsys,
                                    command, kind, corruption):
    inputs = dict(fuzz_inputs)
    if kind in ("manifest", "payload"):
        stem = tmp_path / "in" / "model"
        stem.parent.mkdir()
        for suffix in (".json", ".bin"):
            shutil.copy(inputs["checkpoint"].with_suffix(suffix), stem.with_suffix(suffix))
        inputs["checkpoint"] = stem
        broken = stem.with_suffix(".json" if kind == "manifest" else ".bin")
        valid = broken.read_bytes()
    else:
        valid = inputs[kind].read_bytes()
        broken = inputs[kind] = tmp_path / f"broken-{kind}"
    broken.write_bytes(_corrupt(valid, kind, corruption))
    rc, err = _assert_fails_cleanly(FUZZ_COMMANDS[command], inputs, tmp_path / "out",
                                    capsys)
    if corruption == "not UTF-8" or (command, kind) == ("label", "corpus"):
        assert rc == 2 and "avex: data error" in err
    if corruption == "non-finite":
        assert rc == 2 and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_fails_before_training(fuzz_inputs, tmp_path, capsys,
                                                        value):
    argv = FUZZ_COMMANDS["train"] + ["--learning-rate", value]
    rc, err = _assert_fails_cleanly(argv, fuzz_inputs, tmp_path / "out", capsys)
    assert rc == 2 and "learning_rate must be positive and finite" in err


def _spec(attribute=b"", top=b""):
    """A one-attribute synth spec with extra keys for the attribute and the spec."""
    return (b'{%s"attributes": [{"id": "A", "values": ["v", "w"], '
            b'"templates": ["<value> x"]%s}]}' % (top, attribute))


# Per case: (command, input kind, contents with one field of the wrong
# JSON type or value, what the error says, with {} for the broken file)
WRONG_FIELD = {
    "embed-uncontextualized-vocab": (
        "embed-uncontextualized", "vocab",
        b'[{"id": "Scent", "phrase": 5}, {"id": "Color"}]',
        "phrase of attribute 'Scent' is not a string"),
    "embed-contextualized-instances": (
        "embed-contextualized", "instances",
        b'{"attribute": "Scent", "name_vec": ["1", 0], "value_vec": [0, 1]}\n',
        "{}:1: a vector must be an array of JSON numbers"),
    "train-table": (
        "train", "table", b'{"attribute": "Scent", "vec": ["0.5", true]}\n',
        "{}:1: a vector must be an array of JSON numbers"),
    "synth-spec-negative-seed": (
        "synth", "spec", _spec(top=b'"seed": -1, '),
        "synth spec {} 'seed' must be non-negative int | None, got -1"),
    "synth-spec-negative-vector-dim": (
        "synth", "spec", _spec(top=b'"vector_dim": -1, '),
        "synth spec {} 'vector_dim' must be non-negative int | None, got -1"),
    "synth-spec-count-past-float-range": (
        "synth", "spec", _spec(b', "train": 1e400'),
        "synth spec {}: attributes[0] 'train' must be non-negative int | None, "
        "got Infinity"),
    "synth-spec-values-a-string": (
        "synth", "spec", _spec(b', "values": "vw"'),
        "synth spec {}: attributes[0] 'values' must be list[str], got \"vw\""),
    "synth-spec-null-id-fractional-count": (
        "synth", "spec", _spec(b', "id": null, "train": 2.9'),
        "synth spec {}: attributes[0] 'id' must be str, got null"),
    "train-table-provenance-a-list": (
        "train", "table", b'{"attribute": "Scent", "vec": [0.5], "provenance": ["x"]}\n'
                          b'{"attribute": "Color", "vec": [0.5]}\n',
        "{}:1 'provenance' must be str | None, got [\"x\"]"),
    "embed-random-vocab-ids-not-strings": (
        "embed-random", "vocab", b'[{"id": null}, {"id": 5}, {"id": ["a"]}]',
        "attribute vocabulary {}: entry 0 'id' must be str, got null"),
    "eval-labeled-unknown-tag": (
        "eval", "labeled",
        b'{"id": "p", "attribute": "Scent", "tokens": [["rose", 0, 4]], "tags": ["Q"]}\n',
        "{}:1: bad labeled example: unknown tag 'Q'"),
    "eval-labeled-no-tokens": (
        "eval", "labeled", b'{"id": "p", "attribute": "Scent", "tokens": [], "tags": []}\n',
        "{}:1: bad labeled example: no tokens"),
    "eval-counts-negative": (
        "eval", "counts", b'{"Scent": -5, "Color": 2}',
        "train counts {} must be a JSON object of non-negative integer counts"),
}


@pytest.mark.parametrize("command,kind,contents,message", WRONG_FIELD.values(),
                         ids=list(WRONG_FIELD))
def test_field_of_wrong_type_is_data_error(fuzz_inputs, tmp_path, capsys,
                                           command, kind, contents, message):
    broken = tmp_path / f"broken-{kind}"
    broken.write_bytes(contents)
    rc, err = _assert_fails_cleanly(FUZZ_COMMANDS[command], {**fuzz_inputs, kind: broken},
                                    tmp_path / "out", capsys)
    assert rc == 2 and "avex: data error" in err and message.format(broken) in err


@pytest.mark.parametrize("command", ("synth", "embed-random", "train"))
def test_negative_seed_flag_is_data_error(fuzz_inputs, tmp_path, capsys, command):
    argv = FUZZ_COMMANDS[command] + ["--seed", "-1"]
    rc, err = _assert_fails_cleanly(argv, fuzz_inputs, tmp_path / "out", capsys)
    assert rc == 2 and "seed must be >= 0, got -1" in err


# A command that reads each JSON input kind, and the values that each
# top-level key of the kind's first record takes in turn.
FIELD_READERS = {"corpus": "label", "vocab": "embed-random", "splits": "train",
                 "labeled": "embed-uncontextualized", "table": "train",
                 "instances": "embed-contextualized", "counts": "eval", "spec": "synth",
                 "manifest": "extract"}
JSON_LINES = ("corpus", "labeled", "table", "instances")
DELETED = object()
FIELD_VALUES = (None, True, 1.5, -1, "x", [], {}, DELETED)


def _first_record(text, kind):
    """The parsed document, its first record, and the lines after the first."""
    first, rest = text.split("\n", 1) if kind in JSON_LINES else (text, "")
    doc = json.loads(first)
    return doc, doc[0] if kind == "vocab" else doc, rest


@pytest.mark.parametrize("kind", FIELD_READERS)
def test_any_value_of_a_top_level_key_passes_or_fails_cleanly(pipeline, fuzz_inputs,
                                                              tmp_path, capsys, kind):
    inputs = dict(fuzz_inputs)
    if kind == "manifest":
        stem, _ = _copy_checkpoint(pipeline, tmp_path)
        inputs["checkpoint"], edited = stem, stem.with_suffix(".json")
    else:
        edited = inputs[kind] = tmp_path / f"edited-{kind}"
        shutil.copy(fuzz_inputs[kind], edited)
    text = edited.read_text(encoding="utf-8")
    argv = FUZZ_COMMANDS[FIELD_READERS[kind]]
    if "train" in argv:
        argv = argv + ["--max-epochs", "1"]
    keys = list(_first_record(text, kind)[1])
    assert keys
    for key in keys:
        for i, value in enumerate(FIELD_VALUES):
            doc, record, rest = _first_record(text, kind)
            if value is DELETED:
                del record[key]
            else:
                record[key] = value
            edited.write_text(json.dumps(doc) + "\n" + rest, encoding="utf-8")
            rc, err, untouched = _run(argv, inputs, tmp_path / f"out-{key}-{i}", capsys)
            assert rc == 0 or (rc == 2 and untouched), (key, value, rc, err)


# (command, output item, replacement that cannot be written)
UNWRITABLE = [
    ("label", "@labeled.jsonl", "@missing/labeled.jsonl"),
    ("label", "@report.json", "@adir"),
    ("embed-random", "@table.jsonl", "@missing/table.jsonl"),
    ("train", "@model", "@missing/model"),
    ("train", "@train_report.json", "@adir"),
    ("eval", "@preds.jsonl", "@adir"),
    ("synth", "@data", "@afile/data"),
]


@pytest.mark.parametrize("command,item,replacement", UNWRITABLE,
                         ids=[f"{c}-{r[1:]}" for c, _, r in UNWRITABLE])
def test_unwritable_output_fails_cleanly(fuzz_inputs, tmp_path, capsys,
                                         command, item, replacement):
    argv = [replacement if a == item else a for a in FUZZ_COMMANDS[command]]
    rc, err = _assert_fails_cleanly(argv, fuzz_inputs, tmp_path / "out", capsys)
    assert rc == 2 and "cannot" in err
