"""Annotator composition: build a pipeline and run it over documents."""

from __future__ import annotations

import logging
import os

from . import depparse, ner, pos, wseg
from .model import Document
from .seqlabel import DecodeError, load_linear_model

logger = logging.getLogger(__name__)

ANNOTATOR_KINDS = ("wseg", "pos", "ner", "parse")

PREREQUISITES = {
    "wseg": (),
    "pos": ("wseg",),
    "ner": ("wseg", "pos"),
    "parse": ("wseg", "pos"),
}

MODEL_FILES = {
    "wseg": "wseg.model",
    "pos": "pos.model",
    "ner": "ner.model",
    "parse": "parse.model",
}


class PipelineConfigError(ValueError):
    pass


class ModelLoadError(RuntimeError):
    pass


class AnnotationError(RuntimeError):
    """An annotator failed; names the stage and the 1-based sentence index,
    or None when the fault is not one sentence's."""

    def __init__(self, stage, sentence_index, cause):
        where = "" if sentence_index is None else f" on sentence {sentence_index}"
        super().__init__(f"{stage} failed{where}: {cause}")
        self.stage = stage
        self.sentence_index = sentence_index


def prerequisite_closure(requested):
    """Requested annotators plus their prerequisites, in pipeline order."""
    closure = set()
    pending = list(requested)
    while pending:
        kind = pending.pop()
        if kind not in PREREQUISITES:
            raise PipelineConfigError(f"unknown annotator {kind!r}; "
                                      f"expected one of {', '.join(ANNOTATOR_KINDS)}")
        if kind in closure:
            continue
        closure.add(kind)
        pending.extend(PREREQUISITES[kind])
    return [k for k in ANNOTATOR_KINDS if k in closure]


class Pipeline:
    """An immutable annotator stack; annotate() is pure and thread-safe."""

    def __init__(self, models, order):
        self.order = tuple(order)
        self.models = dict(models)
        for kind in self.order:
            if kind not in self.models:
                raise PipelineConfigError(f"no model supplied for annotator {kind!r}")

    def parser_uses_ner(self):
        model = self.models.get("parse")
        return model is not None and model.use_ner_features and "ner" in self.order

    def annotate(self, document):
        """Annotate a Document (or raw string); returns a new Document."""
        if isinstance(document, str):
            document = Document.from_text(document)
        sentences = list(document.sentences)
        for kind in self.order:
            if kind != "wseg":
                sentences = self._run_stage(kind, sentences)
            elif not sentences:
                sentences = self._run_stage(
                    kind, wseg.split_and_tokenize(document.raw_text))
        return Document(document.raw_text, sentences)

    def _run_stage(self, kind, sentences):
        """One annotator over a document: its sentences, or syllable lists for wseg.

        Failures name the stage and, where one is to blame, the 1-based
        sentence: the taggers and the parser decode the whole document at
        once, and their DecodeError, for an input fault too, names it.
        """
        model = self.models[kind]
        if kind == "wseg":
            out = []
            for k, sent in enumerate(sentences, start=1):
                try:
                    out.append(wseg.segment(model, sent))
                except Exception as exc:
                    raise AnnotationError(kind, k, exc) from exc
            return out
        if kind == "pos":
            decode = pos.tag_pos_sentences
        elif kind == "ner":
            decode = ner.tag_ner_sentences
        elif kind == "parse":
            decode = depparse.parse_sentences
        else:
            raise PipelineConfigError(f"unknown annotator {kind!r}")
        try:
            return decode(model, sentences)
        except Exception as exc:
            sentence = exc.sentence if isinstance(exc, DecodeError) else None
            raise AnnotationError(kind, sentence, exc) from exc


def load_model(kind, path):
    """Load one annotator's model; any failure raises ModelLoadError, as
    does a tagger of the other kind: an NER tagger is BIO-constrained and a
    POS tagger is not. Its message names the file once, as the prefix of a
    reader's message that names it too."""
    if not os.path.exists(path):
        raise ModelLoadError(f"{kind}: model file not found: {path}")
    try:
        if kind == "wseg":
            return wseg.load_segmenter(path)
        if kind == "parse":
            return depparse.load_parser(path)
        model = load_linear_model(path)
        if model.bio_constrained != (kind == "ner"):
            raise ValueError(f"it holds {'an NER' if model.bio_constrained else 'a POS'} tagger")
        return model
    except Exception as exc:
        message = str(exc).removeprefix(f"{path}: ")
        raise ModelLoadError(f"{kind}: failed to load {path}: {message}") from exc


def build_pipeline(annotators=ANNOTATOR_KINDS, model_dir=None, model_paths=None):
    """Load models and compose the requested annotators plus prerequisites.

    Missing prerequisites are inserted automatically (with a log note) so a
    request like {"parse"} still produces a runnable wseg+pos+parse stack.
    """
    requested = list(annotators)
    order = prerequisite_closure(requested)
    inserted = [k for k in order if k not in requested]
    if inserted:
        logger.info("auto-inserted prerequisite annotator(s): %s", ", ".join(inserted))

    paths = dict(model_paths or {})
    for kind in order:
        if kind not in paths:
            if model_dir is None:
                raise PipelineConfigError(f"no model path for {kind!r} and no "
                                          "model directory given")
            paths[kind] = os.path.join(model_dir, MODEL_FILES[kind])

    models = {kind: load_model(kind, paths[kind]) for kind in order}
    pipe = Pipeline(models, order)
    parse_model = models.get("parse")
    if parse_model is not None and parse_model.use_ner_features and not pipe.parser_uses_ner():
        logger.info("parser was trained with NER features but they are disabled "
                    "for this pipeline (no ner stage)")
    return pipe
