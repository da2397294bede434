"""The six variants still train and predict as the committed fixture says.

The fixture (``behaviour_fixture.json``) and the script that regenerates
it are described in ``behaviour_fixture.py``.  Training NLLs may differ
in the last bits under another BLAS, which can sum in another order;
everything else must match exactly.
"""

import json

import pytest

from behaviour_fixture import FIXTURE, corpus, record

EXPECTED = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def data():
    return corpus()


def _check_epochs(got, want, where):
    assert got["train_nll"] == pytest.approx(want["train_nll"], rel=1e-9, abs=0), where
    assert (got["best_epoch"], got["best_dev_f1"]) \
        == (want["best_epoch"], want["best_dev_f1"]), where


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_variant_behaves_as_recorded(key, data):
    variant, batch = key.split("/batch")
    got = json.loads(json.dumps(record(variant, int(batch), data)))
    want = EXPECTED[key]
    _check_epochs(got, want, key)
    assert got.keys() == want.keys()
    for attribute, entry in want.get("per_attribute", {}).items():
        _check_epochs(got["per_attribute"][attribute], entry, f"{key} {attribute}")
    assert got["dev_tags"] == want["dev_tags"]
    assert got["held_out_tags"] == want["held_out_tags"]
    assert got["params"] == want["params"]
    assert got["manifest"] == want["manifest"]
