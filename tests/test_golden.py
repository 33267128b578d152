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
    "wseg.model": "cb1a8be92a814e5bf8aa8777a9f353a346f629891570238b24579a05d574b17f",
    "pos.model": "1397d4ee466a5934b452e20ce9b4cd9ea146fb40e18958da574b0ee6f046516b",
    "ner.model": "c825f373641a84e85d39c27c14d1acae6edab9b3dd08b2218d2c41cad62ec154",
    "parse.model": "7e117f19ab739eb15aced49b3524cf56b76d66c20ff3ff63d7f7c48de0729753",
    # NER with a gazetteer (one entry lower-cased) and three induced pairs.
    "ner-gazetteer.model": "8fda27dd23d37d1b18b630f5e87b61124da4e3d5da63305b60618abb5b5d2430",
    # Parser with the NER features, trained in corpus order.
    "parse-ner.model": "c1f2c655d0610050f5b4c1e4c69814cb3db42fe898b6d5aa9a75aff726ac3213",
    # Segmenter with window_radius=1: shapelex, pair and pairdec rules.
    "wseg-radius1.model": "22a5c9b50d972ad1d2138a2336556dff44d0c343bdd6e8dd87850c4f9f4e5667",
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
