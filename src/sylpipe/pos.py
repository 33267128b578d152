"""POS tagging annotator over the linear-chain engine."""

from __future__ import annotations

import functools

from .model import (Sentence, check_form, check_label, checked_rows, read_corpus,
                    tab_blocks)
from .seqlabel import make_templates, tag_sentences, train_averaged_perceptron

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


check_tag = functools.partial(check_label, what="POS tag")


def pos_templates():
    return make_templates(POS_TEMPLATE_DESCRIPTORS)


def tag_pos(model, sentence):
    """Return the sentence with pos_tag set on every token; other fields untouched."""
    return tag_pos_sentences(model, [sentence])[0]


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
    """Parse "form<TAB>tag" lines with blank-line sentence separation, taking
    the text as given. A bad column raises FormatError naming its line."""
    pairs = []
    for rows in tab_blocks(text, 2):
        forms, tags = zip(*checked_rows(rows, check_form, check_tag))
        pairs.append((Sentence.from_columns(forms), list(tags)))
    return pairs


def read_two_column(path):
    """parse_two_column of a file read by model.read_corpus."""
    return read_corpus(path, parse_two_column)


def dump_two_column(pairs):
    blocks = []
    for sent, tags in pairs:
        blocks.append("\n".join(f"{form}\t{tag}" for form, tag in zip(sent.column("form"), tags)))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
