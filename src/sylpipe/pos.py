"""POS tagging annotator over the linear-chain engine."""

from __future__ import annotations

import unicodedata

from .model import DataError, Sentence, check_form, check_label
from .seqlabel import (TrainingError, make_templates, tag_sentences,
                       train_averaged_perceptron, viterbi_decode)

# Word-level context, affix, and shape features; every label stays legal at
# every position.
POS_TEMPLATE_DESCRIPTORS = (
    "form@0", "form@-1", "form@-2", "form@+1", "form@+2",
    "form@-1&form@0", "form@0&form@+1",
    "prefix1@0", "prefix2@0", "prefix3@0", "prefix4@0",
    "suffix1@0", "suffix2@0", "suffix3@0", "suffix4@0",
    "shape@0", "hasdigit@0", "hashyphen@0",
    "isfirst@0", "islast@0",
)


def pos_templates():
    return make_templates(POS_TEMPLATE_DESCRIPTORS)


def tag_pos(model, sentence):
    """Return the sentence with pos_tag set on every token; other fields untouched."""
    if len(sentence) == 0:
        return sentence
    labels, _ = viterbi_decode(model, sentence)
    return sentence.with_pos_tags(labels)


def tag_pos_sentences(model, sentences):
    """tag_pos of every sentence, decoded as one document (seqlabel.tag_sentences)."""
    return [sent.with_pos_tags(labels) if labels else sent
            for sent, labels in zip(sentences, tag_sentences(model, sentences))]


def train_pos(corpus, epochs=8, shuffle_seed=1, templates=None, on_epoch=None):
    """Train a tagging model from (sentence, tags) pairs or a parsed 2-column corpus."""
    if templates is None:
        templates = pos_templates()
    return train_averaged_perceptron(templates, corpus, epochs=epochs,
                                     shuffle_seed=shuffle_seed, on_epoch=on_epoch)


def parse_two_column(text):
    """Parse "form<TAB>tag" lines with blank-line sentence separation.

    A bad column raises TrainingError naming its line."""
    pairs = []
    forms = []
    tags = []

    def flush():
        nonlocal forms, tags
        if forms:
            sent = Sentence.from_columns(forms)
            pairs.append((sent, tags))
            forms = []
            tags = []

    for line_no, line in enumerate(unicodedata.normalize("NFC", text).split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise TrainingError(f"line {line_no}: expected 2 tab-separated columns, "
                                f"got {len(cols)}")
        try:
            check_form(cols[0])
            check_label(cols[1], "POS tag")
        except DataError as exc:
            raise TrainingError(f"line {line_no}: {exc}") from None
        forms.append(cols[0])
        tags.append(cols[1])
    flush()
    return pairs


def read_two_column(path):
    with open(path, encoding="utf-8") as fh:
        return parse_two_column(fh.read())


def dump_two_column(pairs):
    blocks = []
    for sent, tags in pairs:
        blocks.append("\n".join(f"{form}\t{tag}" for form, tag in zip(sent.column("form"), tags)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
