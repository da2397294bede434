"""Pinned digests of labeled corpora and of criterion 7's attribute table.

Each labeled digest is the sha256 of the ``save_labeled`` bytes of one
synthetic corpus labeled in the title setting: those of acceptance
criteria 6 and 7, and the CLI tests' SPEC.  A labeled file holds only
strings and ints, so the digests do not depend on the BLAS.  Any change
to what labeling or pooling writes fails here; regenerate a digest only
when that change is meant.
"""

import hashlib

import pytest

from avex.corpus import build_corpus, save_labeled
from avex.synth import SynthSpec, generate
from test_acceptance import OVERFIT_SPEC, SHARING_SPEC, _sharing_corpus
from test_cli import SPEC


@pytest.mark.parametrize("spec,digest", [
    (OVERFIT_SPEC, "2f96c39efd87e365959ead234ebf8c8a057771035229eacd4a6af06441e3559d"),
    (SHARING_SPEC, "aa83ec0025b8cbe6dfb74901494730b1be374bb43c0a0d7d57603f1602293c73"),
    (SynthSpec.from_json(SPEC), "a9a088af5a8ddcdbc5bdcbcc98086f71b0b1021210a918f6e9d55e7ac69576be"),
], ids=["criterion_6", "criterion_7", "cli_spec"])
def test_labeled_corpus_bytes_are_pinned(tmp_path, spec, digest):
    corpus = generate(spec)
    examples, _ = build_corpus(corpus.products, corpus.vocab, "title")
    save_labeled(tmp_path / "labeled.jsonl", examples)
    assert hashlib.sha256((tmp_path / "labeled.jsonl").read_bytes()).hexdigest() == digest


def test_criterion_7_table_bytes_are_pinned():
    """The sha256 of criterion 7's uncontextualized table, rows in
    vocabulary order.  Its floats are ``np.mean`` row sums of word
    vectors and of value rows, concatenated; no matmul makes them, so
    the bytes do not depend on the BLAS."""
    corpus, _, table = _sharing_corpus()
    assert hashlib.sha256(table.as_matrix(corpus.vocab.ids()).tobytes()).hexdigest() == \
        "f196c17c63e912319940395164d966293a85abd5b1f1321b36d915e1b3e330cc"
