"""Command-line interface.

Subcommands cover the full pipeline: ``label`` projects catalog values
onto text, ``embed`` builds attribute embedding tables, ``train`` fits a
variant, ``extract`` decodes raw text, ``eval`` scores a labeled file,
``param-count`` reports parameter budgets, and ``synth`` generates a
templated corpus.  Exit codes: 0 ok, 1 usage, 2 data error (including
files that cannot be read or written), 3 numerical failure.  A failed
command leaves every output path as it was.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import attribute_embeddings, corpus, evaluation, files, models, synth, training
from .encoder import load_word_vectors
from .errors import DataError, NumericError


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _attribute_ids(text) -> list[str]:
    ids = training.split_names(text)
    if ids is None:
        raise argparse.ArgumentTypeError(f"no attribute id in {text!r}")
    return ids


def _config_flag(parser, name):
    """``--name`` for the config field ``name``, parsed by the field's parser
    and left out of the namespace when not given, so that it overrides
    ``--config`` exactly when given."""
    parser.add_argument("--" + name.replace("_", "-"), default=argparse.SUPPRESS,
                        type=training.CONFIG_FIELDS[name])


def _build_parser() -> _Parser:
    parser = _Parser(prog="avex", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", parents=[], help="distant-supervision labeling")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--setting", default="title", choices=corpus.SETTINGS)
    p.add_argument("--include-negatives", action="store_true")

    p = sub.add_parser("embed", help="build an attribute embedding table")
    p.add_argument("--mode", required=True, choices=attribute_embeddings.PROVENANCES)
    p.add_argument("--labeled", help="labeled examples (uncontextualized mode)")
    p.add_argument("--vectors", help="static word vectors (uncontextualized mode)")
    p.add_argument("--vocab", help="attribute vocabulary")
    p.add_argument("--instances", help="per-instance vectors (contextualized mode)")
    p.add_argument("--d-r", type=int, default=1536, help="dimension (random mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model variant")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--vectors")
    p.add_argument("--embeddings", help="attribute embedding table file")
    p.add_argument("--out", required=True, help="checkpoint stem")
    p.add_argument("--report")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--include-negatives", action="store_true")
    for name in training.CONFIG_FIELDS:
        _config_flag(p, name)

    p = sub.add_parser("extract", help="extract values from raw text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--attr", required=True, type=_attribute_ids,
                   help="attribute id(s), comma-separated")
    p.add_argument("--text", required=True)

    p = sub.add_parser("eval", help="score a labeled test file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--stratify", type=int,
                   help="train-support threshold separating high/low resource")
    p.add_argument("--train-counts",
                   help="JSON with per-attribute training example counts")
    p.add_argument("--dump", help="write per-example predictions JSONL here")

    p = sub.add_parser("param-count", help="parameter budget of a config or checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    _config_flag(p, "variant")
    p.add_argument("--num-attributes", type=int)
    p.add_argument("--word-vocab-size", type=int)
    p.add_argument("--format", default="table", choices=("table", "json"))

    p = sub.add_parser("synth", help="generate a templated synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, help="override the spec's seed")
    return parser


def _resolved_config(args) -> training.TrainConfig:
    """The ``--config`` file's values, overridden by the config flags given."""
    values = training.parse_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in training.CONFIG_FIELDS)
    return training.TrainConfig.from_values(values)


def _labeled_corpus(args, setting):
    """The vocabulary, examples and coverage report of ``--corpus``
    labeled for ``--vocab``, with a warning on stderr per malformed line."""
    vocab = corpus.AttributeVocab.load(args.vocab)
    examples, report = corpus.build_corpus_from_file(
        args.corpus, vocab, setting, args.include_negatives)
    for lineno, reason in report.malformed_lines:
        print(f"warning: {args.corpus}:{lineno}: {reason}", file=sys.stderr)
    return vocab, examples, report


def _cmd_label(args):
    _, examples, report = _labeled_corpus(args, args.setting)
    if not report.products:
        raise DataError(f"corpus {args.corpus} holds no valid product line")
    corpus.save_labeled(args.out, examples)
    payload = report.to_json()
    if args.report:
        files.write_json(args.report, payload, indent=2)
    else:
        print(json.dumps(payload, indent=2))


def _cmd_embed(args):
    if args.mode == "uncontextualized":
        if not (args.labeled and args.vectors and args.vocab):
            raise DataError(
                "uncontextualized mode needs --labeled, --vectors and --vocab")
        vocab = corpus.AttributeVocab.load(args.vocab)
        examples = corpus.load_labeled(args.labeled)
        vectors = load_word_vectors(args.vectors)
        table = attribute_embeddings.uncontextualized_table(vocab, examples, vectors)
    elif args.mode == "contextualized":
        if not args.instances:
            raise DataError("contextualized mode needs --instances")
        table = attribute_embeddings.ingest_contextualized(args.instances)
    else:
        if not args.vocab:
            raise DataError("random mode needs --vocab")
        vocab = corpus.AttributeVocab.load(args.vocab)
        table = attribute_embeddings.random_table(vocab.ids(), args.d_r, args.seed)
    table.save(args.out)
    print(f"wrote {len(table.ids())} attribute embeddings "
          f"(d_r={table.d_r}, provenance={table.provenance}) to {args.out}")


def _cmd_train(args):
    config = _resolved_config(args)
    attr_table = None
    if args.embeddings:
        attr_table = attribute_embeddings.AttributeEmbeddingTable.load(args.embeddings)
    config = models.model_config(config, attr_table)
    print(f"resolved config: {json.dumps(config.to_json(), sort_keys=True)}",
          file=sys.stderr)
    vocab, examples, coverage = _labeled_corpus(args, config.setting)
    manifest = corpus.load_split_manifest(args.splits)
    by_split = corpus.split_examples(examples, manifest)
    vectors = None
    if args.vectors:
        vectors = load_word_vectors(args.vectors)
    report, _model = training.train(
        config, vocab, by_split["train"], by_split["dev"],
        attr_table=attr_table, vectors=vectors, checkpoint_stem=args.out)
    payload = report.to_json()
    payload["label_coverage"] = coverage.to_json()
    if args.report:
        files.write_json(args.report, payload, indent=2)
    print(f"best dev macro-F1 {report.best_dev_f1:.4f} at epoch {report.best_epoch}; "
          f"stopped after epoch {report.stopped_epoch}; "
          f"checkpoint {report.checkpoint_path}")


def _cmd_extract(args):
    model = training.load_checkpoint(args.checkpoint)
    token_texts = [t.text for t in corpus.tokenize(args.text)]
    if not token_texts:
        raise DataError("no tokens in --text")
    result = {attr: sorted(evaluation.extract(model, token_texts, attr))
              for attr in args.attr}
    print(json.dumps(result, ensure_ascii=False, indent=2))


def _cmd_eval(args):
    model = training.load_checkpoint(args.checkpoint)
    examples = corpus.load_labeled(args.test)
    if not examples:
        raise DataError(f"no examples in {args.test}")
    results = evaluation.collect_results(model, examples)
    report = evaluation.aggregate(results)
    if args.stratify is not None:
        if not args.train_counts:
            raise DataError("--stratify needs --train-counts")
        counts = files.read_json(args.train_counts, "train counts")
        if isinstance(counts, dict) and "per_attribute_examples" in counts:  # label --report
            counts = counts["per_attribute_examples"]
        where = f"train counts {args.train_counts}"
        files.check(counts, where)  # an object, whose keys are the attributes
        files.check(counts, where, **dict.fromkeys(counts, int))
        evaluation.stratify(report, counts, args.stratify)
    if args.dump:
        evaluation.dump_predictions(args.dump, results)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_table())


def _cmd_param_count(args):
    if bool(args.checkpoint) == bool(args.config or vars(args).get("variant")):
        raise DataError("pass exactly one of --checkpoint or --config/--variant")
    if args.checkpoint:
        model = training.load_checkpoint(args.checkpoint)
        report = training.param_count(model.params)
    else:
        report = training.param_count_from_config(
            _resolved_config(args), args.num_attributes, args.word_vocab_size)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_table())


def _cmd_synth(args):
    spec = synth.SynthSpec.load(args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    generated = synth.generate(spec)
    synth.write_corpus(generated, args.out_dir)
    print(f"wrote {len(generated.products)} products across "
          f"{len(generated.vocab)} attributes to {args.out_dir}")


_COMMANDS = {
    "label": _cmd_label,
    "embed": _cmd_embed,
    "train": _cmd_train,
    "extract": _cmd_extract,
    "eval": _cmd_eval,
    "param-count": _cmd_param_count,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with files.transaction():
            try:
                _COMMANDS[args.command](args)
                sys.stdout.flush()
            except BrokenPipeError:
                # Whoever read stdout has stopped; every output is written.
                files.silence_stdout()
        return 0
    except DataError as e:
        print(f"avex: data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"avex: numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
