"""Metric definitions and the span wrappers for each avex layer.

Every wrapper sits where the function's callers look it up, so the
benchmark sees the calls the program really makes without any change
to ``src/``.  Which end-to-end metric each layer metric should move:

- encoder.encode_matrix (calls, s, distinct_ratio): train_tokens_per_s
  on both training workloads; extract_ms_p50 on extraction, where each
  request encodes the same text once per attribute (ratio 0.25 today).
- adaptive_decoder.build_decoder (calls, s, distinct_ratio):
  train_tokens_per_s on train-bullets-paper and extract_ms_p50; it
  should not move train-title-small.
- adaptive_decoder.{emissions,log_partition,chain_score}.s and
  autodiff.Tensor.backward.s: train_tokens_per_s, long chains more than
  short ones; zero on extraction.
- autodiff.graph_nodes_per_batch: train_tokens_per_s on
  train-title-small.
- adaptive_decoder.viterbi and evaluation.extract.s: extract_ms_* and
  eval_examples_per_s.
- training.Adam.step.s: train-bullets-paper.
- training.batch_loss.s and models.loss.s: the forward glue.
- runtime.gc (collections, s): train_tokens_per_s on train-title-small.
- corpus.build_corpus, synth.generate,
  attribute_embeddings.uncontextualized_table and
  training.{save,load}_checkpoint: setup_s.

``distinct_ratio`` is distinct inputs over calls, where inputs count as
the same only inside one scope: one optimizer step, one train() or
evaluate_model() call, or one extraction request.  A ratio below 1 is
work that could have been reused.
"""

from __future__ import annotations

import numpy as np

from tracing import GC_SPAN, Tracer, self_times

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_tokens_per_s", "1/s", "higher", 0.25),
    ("train_nll", "nats", "lower", 0.25),
    ("macro_f1", "ratio", "higher", 0.25),
    ("eval_examples_per_s", "1/s", "higher", 0.25),
    ("extract_ms_p50", "ms", "lower", 0.25),
    ("extract_ms_p90", "ms", "lower", 0.25),
    ("extract_requests_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
)

SPANS = {
    # span name: (metric suffixes it reports)
    "encoder.encode_matrix": ("calls", "s", "distinct_ratio"),
    "adaptive_decoder.build_decoder": ("calls", "s", "distinct_ratio"),
    "adaptive_decoder.emissions": ("s",),
    "adaptive_decoder.log_partition": ("s",),
    "adaptive_decoder.chain_score": ("s",),
    "adaptive_decoder.viterbi": ("calls", "s"),
    "autodiff.Tensor.backward": ("s",),
    "evaluation.extract": ("s",),
    "training.Adam.step": ("s",),
    "training.batch_loss": ("s",),
    "models.loss": ("s",),
    "corpus.build_corpus": ("s",),
    "synth.generate": ("s",),
    "attribute_embeddings.uncontextualized_table": ("s",),
    "training.save_checkpoint": ("s",),
    "training.load_checkpoint": ("s",),
}
SETUP_SPANS = ("corpus.build_corpus", "synth.generate",
               "attribute_embeddings.uncontextualized_table",
               "training.save_checkpoint", "training.load_checkpoint")

_SUFFIX = {"calls": ("count", "lower"), "s": ("s", "lower"),
           "distinct_ratio": ("ratio", "higher")}

PER_LAYER = tuple(
    (f"{span}.{suffix}",) + _SUFFIX[suffix]
    for span, suffixes in SPANS.items() for suffix in suffixes
) + (
    ("autodiff.graph_nodes_per_batch", "count", "lower"),
    ("runtime.gc.collections", "count", "lower"),
    ("runtime.gc.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

GRAPH_NODES = "autodiff.graph_nodes"


def graph_size(root) -> int:
    """Nodes reachable from ``root`` through recorded parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _array_key(value) -> bytes:
    return np.asarray(getattr(value, "data", value)).tobytes()


def instrument(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    from avex import (adaptive_decoder, attribute_embeddings, autodiff, corpus,
                      evaluation, models, synth, training)

    def count_graph(root, *_args, **_kwargs):
        tracer.counts[GRAPH_NODES] += graph_size(root)

    def scoped(*_args, **_kwargs):
        tracer.new_scope()

    # Structural spans: they parent the layer spans below.
    tracer.wrap(training, "train", "training.train", before=scoped)
    tracer.wrap(evaluation, "evaluate_model", "evaluation.evaluate_model",
                before=scoped)

    tracer.wrap(models, "encode_matrix", "encoder.encode_matrix",
                key=lambda tokens, table, fwd, bwd: (tuple(tokens), id(table),
                                                     id(fwd), id(bwd)))
    tracer.wrap(models, "build_decoder", "adaptive_decoder.build_decoder",
                key=lambda hyper, moe, r: (id(hyper), id(moe), _array_key(r)))
    tracer.wrap(models, "emissions", "adaptive_decoder.emissions")
    tracer.wrap(models, "viterbi", "adaptive_decoder.viterbi")
    tracer.wrap(adaptive_decoder, "log_partition", "adaptive_decoder.log_partition")
    tracer.wrap(adaptive_decoder, "chain_score", "adaptive_decoder.chain_score")
    tracer.wrap(autodiff.Tensor, "backward", "autodiff.Tensor.backward",
                before=count_graph)
    tracer.wrap(evaluation, "extract", "evaluation.extract")
    tracer.wrap(training.Adam, "step", "training.Adam.step",
                after=tracer.new_scope)
    tracer.wrap(training, "batch_loss", "training.batch_loss")
    for value in vars(models).copy().values():
        if isinstance(value, type) and value.__module__ == models.__name__ \
                and "loss" in value.__dict__:
            tracer.wrap(value, "loss", "models.loss")
    tracer.wrap(corpus, "build_corpus", "corpus.build_corpus")
    tracer.wrap(synth, "generate", "synth.generate")
    tracer.wrap(attribute_embeddings, "uncontextualized_table",
                "attribute_embeddings.uncontextualized_table")
    tracer.wrap(training, "save_checkpoint", "training.save_checkpoint")
    tracer.wrap(training, "load_checkpoint", "training.load_checkpoint")
    tracer.install_gc()


def layer_metrics(setup: Tracer, unit: Tracer, overhead_s: float,
                  untraced_s: float) -> dict:
    """Every PER_LAYER metric; a span that never fired reads zero.

    Set-up spans come from the traced set-up, all others from the traced
    unit of work, so a model trained during set-up does not blur the
    ratios of the unit.
    """
    setup_times, unit_times = self_times(setup.spans), self_times(unit.spans)
    values = {}
    for span, suffixes in SPANS.items():
        tracer, times = (setup, setup_times) if span in SETUP_SPANS else (unit, unit_times)
        row = times.get(span, {"calls": 0, "self": 0.0})
        for suffix in suffixes:
            if suffix == "calls":
                values[f"{span}.calls"] = row["calls"]
            elif suffix == "s":
                values[f"{span}.s"] = row["self"]
            else:
                values[f"{span}.distinct_ratio"] = (
                    tracer.distinct(span) / row["calls"] if row["calls"] else 0.0)
    times = unit_times
    backward_calls = times.get("autodiff.Tensor.backward", {"calls": 0})["calls"]
    values["autodiff.graph_nodes_per_batch"] = (
        unit.counts[GRAPH_NODES] / backward_calls if backward_calls else 0.0)
    gc_row = times.get(GC_SPAN, {"calls": 0, "self": 0.0})
    values["runtime.gc.collections"] = gc_row["calls"]
    values["runtime.gc.s"] = gc_row["self"]
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_ratio"] = overhead_s / untraced_s if untraced_s else 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in PER_LAYER}
