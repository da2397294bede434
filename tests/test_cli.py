"""End-to-end checks of the command-line pipeline on a tiny generated corpus."""

import json
import os
import shutil
import sys

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
    assert stem.with_suffix(".json").exists()
    assert stem.with_suffix(".bin").exists()


def test_extract_prints_values(pipeline, capsys):
    rc = cli.main(["extract", "--checkpoint", str(pipeline["stem"]),
                   "--attr", "Scent, Color",
                   "--text", "mango / rose scent body wash"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"Scent", "Color"}
    for values in result.values():
        assert values == sorted(values)


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


MANIFEST_KEYS = ("config", "attribute_vocab", "word_vocabs", "payload_file",
                 "payload_bytes", "tensors")
TENSOR_KEYS = ("name", "shape", "byte_offset")
BAD_MANIFESTS = (
    [("empty", lambda m: {"format_version": 1}), ("not an object", lambda m: [1])]
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
       ("attribute embeddings without d_r", lambda m: {
           **m, "attribute_embeddings": _without(m["attribute_embeddings"], "d_r")}),
       ("attribute embedding id not a string", lambda m: {
           **m, "attribute_embeddings": {**m["attribute_embeddings"], "ids": [["x"]]}}),
       ("config value mistyped", lambda m: {**m, "config": {**m["config"], "d_h": [8]}})])


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


@pytest.mark.parametrize("command", ("extract", "eval"))
def test_nan_weight_is_numeric_failure(pipeline, tmp_path, capsys, command):
    stem, manifest = _copy_checkpoint(pipeline, tmp_path)
    entry = next(e for e in manifest["tensors"] if e["name"] == "hyper/b_hyper_b")
    payload = bytearray(stem.with_suffix(".bin").read_bytes())
    offset = entry["byte_offset"]
    payload[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
    stem.with_suffix(".bin").write_bytes(bytes(payload))
    assert _run_on_checkpoint(pipeline, command, stem) == 3
    assert "numerical failure" in capsys.readouterr().err


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
# Contents the format accepts: an empty labeled file leaves every
# attribute's value half zero, and an empty config file keeps every default.
VALID_BY_DESIGN = {("embed-uncontextualized", "labeled", "empty")} \
    | {(cmd, "config", "empty") for cmd in FUZZ_COMMANDS}


def _corruptions(kind):
    names = ["empty", "truncated"]
    if kind != "payload":
        names.append("not UTF-8")
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


def _assert_fails_cleanly(argv, inputs, out, capsys):
    """Run ``argv``; it must fail with a documented code and touch no output."""
    for name in PRE_EXISTING:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(b"old\n")
    before = _snapshot(out)
    argv = [str(inputs[a[1:-1]]) if a.startswith("{")
            else str(out / a[1:]) if a.startswith("@") else a for a in argv]
    rc = cli.main(argv)  # anything it raises fails the test
    err = capsys.readouterr().err
    assert rc in (1, 2, 3), err
    assert "Traceback" not in err
    assert _snapshot(out) == before
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
