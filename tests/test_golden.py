"""Byte identity of training and decoding against digests of known-good output.

The digests were recorded from the toy models that conftest trains, from two
more models that fill the header fields and the training order the toy models
leave at their defaults, from a segmenter whose rules use the templates the
toy segmenter's do not, and from the annotation of a fixed synthetic
document. A change to the feature, gather, decode, training or model-file code
that alters one bit of a model file or of the output changes a digest.
"""

import hashlib
import shutil

import pytest

from helpers import synthetic_raw_text
from sylpipe import depparse, ner, wseg
from sylpipe.model import dump_six_column
from sylpipe.pipeline import build_pipeline
from sylpipe.seqlabel import save_linear_model

MODEL_SHA256 = {
    "wseg.model": "8687713dd9703bca93f74b47e6314680d097596c085f4b8616e64e14f63e5e65",
    "pos.model": "95aa2595124fa078fbe85abda8b2a9da3a4d315610201327fd6d61912fa3a7f4",
    "ner.model": "829c64b6037da4a965a0b6f3a802d61682a0dfe8606013feacfd4ebde764880e",
    "parse.model": "59cdf7c243b828f5095a1e21a56d91db5a63ea3457326fc42511feb33fd00ae8",
    # NER with a gazetteer (one entry lower-cased) and three induced pairs.
    "ner-gazetteer.model": "6291c15bbf9273e09c2623b6f2a88b98b8b9d97b8e7dec8c08b0d0495c729fa8",
    # Parser with the NER features, trained in corpus order.
    "parse-ner.model": "97b38ac5b5e8c2c57141de358588c251abc4dddb2993e23ab09b92b0bb37c878",
    # Segmenter with window_radius=1: shapelex, pair and pairdec rules.
    "wseg-radius1.model": "b01119a9a8ba5cd1218e1b230b95f983146b52dc5669c9fddce97c32102b1cb3",
}

GAZETTEER = frozenset({"Hà_Nội", "Đà_Nẵng", "việt_nam", "Olympic"})

# Six-column output of synthetic_raw_text(5000, seed=3) under those models.
ANNOTATED_SHA256 = "aaac54fbbbbae67cdad81c83e6255c2b492397b43187db0d25d97d575587f08c"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory, model_dir, toy_seg_corpus, toy_ner_sentences, toy_treebank):
    path = tmp_path_factory.mktemp("golden")
    for name in ("wseg.model", "pos.model", "ner.model", "parse.model"):
        shutil.copy(model_dir / name, path / name)
    save_linear_model(ner.train_ner(ner.training_pairs(toy_ner_sentences),
                                    gazetteer=GAZETTEER, combine_top_k=3),
                      path / "ner-gazetteer.model")
    depparse.save_parser(depparse.train_parser(toy_treebank, epochs=4,
                                               shuffle_seed=None,
                                               use_ner_features=True),
                         path / "parse-ner.model")
    wseg.save_segmenter(wseg.train_segmenter(toy_seg_corpus, window_radius=1),
                        path / "wseg-radius1.model")
    return path


@pytest.mark.parametrize("name", sorted(MODEL_SHA256))
def test_toy_model_bytes(golden_dir, name):
    assert sha256((golden_dir / name).read_bytes()) == MODEL_SHA256[name]


def test_radius_one_segmenter_uses_other_templates(golden_dir, seg_model):
    radius1 = wseg.load_segmenter(golden_dir / "wseg-radius1.model")
    assert {r.template for r in seg_model.rules} == {"lexflags", "left3"}
    assert {"shapelex", "pair", "pairdec"} <= {r.template for r in radius1.rules}


def test_annotated_document_bytes(model_dir):
    pipe = build_pipeline(model_dir=str(model_dir))
    doc = pipe.annotate(synthetic_raw_text(5000, seed=3))
    assert sha256(dump_six_column(doc.sentences).encode("utf-8")) == ANNOTATED_SHA256
