"""Byte identity of training and decoding against digests of known-good output.

The digests were recorded from the toy models that conftest trains and from
their annotation of a fixed synthetic document. A change to the feature,
gather or decode code that alters one bit of a model file or of the output
changes a digest.
"""

import hashlib

import pytest

from helpers import synthetic_raw_text
from sylpipe.model import dump_six_column
from sylpipe.pipeline import build_pipeline

MODEL_SHA256 = {
    "wseg.model": "8687713dd9703bca93f74b47e6314680d097596c085f4b8616e64e14f63e5e65",
    "pos.model": "95aa2595124fa078fbe85abda8b2a9da3a4d315610201327fd6d61912fa3a7f4",
    "ner.model": "829c64b6037da4a965a0b6f3a802d61682a0dfe8606013feacfd4ebde764880e",
    "parse.model": "59cdf7c243b828f5095a1e21a56d91db5a63ea3457326fc42511feb33fd00ae8",
}

# Six-column output of synthetic_raw_text(5000, seed=3) under those models.
ANNOTATED_SHA256 = "aaac54fbbbbae67cdad81c83e6255c2b492397b43187db0d25d97d575587f08c"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(MODEL_SHA256))
def test_toy_model_bytes(model_dir, name):
    assert sha256((model_dir / name).read_bytes()) == MODEL_SHA256[name]


def test_annotated_document_bytes(model_dir):
    pipe = build_pipeline(model_dir=str(model_dir))
    doc = pipe.annotate(synthetic_raw_text(5000, seed=3))
    assert sha256(dump_six_column(doc.sentences).encode("utf-8")) == ANNOTATED_SHA256
