"""Behaviour of the six variants on a small corpus, kept as a fixture.

Each variant is trained at batch sizes 1, 2 and 3 on the corpus of
acceptance criterion 10 (seed 3).  A record holds what a change to the
program's structure must not move: the per-epoch training NLL, the best
epoch and dev F1, the predicted tags on the dev texts and on held-out
texts from the same templates, the parameter counts per group and in
total, and the checkpoint manifest without its payload file name (a
manifest holds no computed float, so unlike the payload it does not
depend on the BLAS).  ``test_behaviour.py`` compares a fresh run with
the committed fixture.

Regenerate the fixture, after a change that alters behaviour on purpose,
with

    PYTHONPATH=src python tests/behaviour_fixture.py

and say in the change's notes what moved and why.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from avex.attribute_embeddings import uncontextualized_table
from avex.corpus import build_corpus, split_examples, tokenize
from avex.models import VARIANTS
from avex.synth import SynthAttribute, SynthSpec, generate
from avex.training import TrainConfig, param_count, save_checkpoint, train

FIXTURE = Path(__file__).with_suffix(".json")
BATCH_SIZES = (1, 2, 3)
# Texts from the corpus's templates, some with value pairs or words that
# the training split lacks.
HELD_OUT = ("rose / mango scent", "vanilla / orchid scent", "lavender / rose scent",
            "white / teal towel", "red / navy towel", "teal / orchid scent")


def corpus():
    """The corpus of acceptance criterion 10: vocabulary, splits, attribute
    table and word vectors."""
    spec = SynthSpec(seed=11, vector_dim=12, attributes=[
        SynthAttribute("Scent", values=("orchid", "vanilla", "mango", "rose"),
                       templates=("<value> / <value> scent",),
                       train=12, dev=6),
        SynthAttribute("Color", values=("red", "teal", "black", "white"),
                       templates=("<value> / <value> towel",),
                       train=12, dev=6),
    ])
    generated = generate(spec)
    examples, _ = build_corpus(generated.products, generated.vocab, "title")
    by_split = split_examples(examples, generated.manifest)
    table = uncontextualized_table(generated.vocab, by_split["train"],
                                   generated.vectors)
    return generated.vocab, by_split, table, generated.vectors


def _epochs(entry):
    return {"train_nll": [e["train_nll"] for e in entry["epochs"]],
            "best_epoch": entry["best_epoch"], "best_dev_f1": entry["best_dev_f1"]}


def record(variant: str, batch_size: int, data=None) -> dict:
    """What one trained variant does, in JSON types."""
    vocab, by_split, table, vectors = data or corpus()
    config = TrainConfig(variant=variant, d_h=8, d_word=12, k=2,
                         batch_size=batch_size, max_epochs=5, seed=3)
    report, model = train(config, vocab, by_split["train"], by_split["dev"],
                          attr_table=table if variant == "adatag" else None,
                          vectors=vectors)
    out = _epochs(report.to_json())
    if report.per_attribute is not None:
        out["per_attribute"] = {a: _epochs(entry)
                                for a, entry in report.per_attribute.items()}
    dev = [(ex.token_texts(), ex.attribute) for ex in by_split["dev"]]
    held_out = [([t.text for t in tokenize(text)], a)
                for text in HELD_OUT for a in vocab.ids()]
    out["dev_tags"] = [" ".join(tags) for tags in model.predict_batch(dev)]
    out["held_out_tags"] = [" ".join(tags) for tags in model.predict_batch(held_out)]
    counts = param_count(model.params)
    out["params"] = {"groups": counts.groups, "total": counts.total,
                     "trainable_total": counts.trainable_total}
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(Path(tmp) / "model", model)
        out["manifest"] = json.loads(path.read_text(encoding="utf-8"))
    del out["manifest"]["payload_file"]
    return out


def records() -> dict:
    data = corpus()
    return {f"{variant}/batch{b}": record(variant, b, data)
            for variant in VARIANTS for b in BATCH_SIZES}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}")
