"""BIO named-entity annotator, span extraction, and corpus preprocessing.

Decoding masks illegal BIO transitions (I-X after O or at the sentence
start, I-Y after an X entity), so tagger output never needs repair.
repair_bio exists for third-party files.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .model import DataError, Sentence, check_form, check_label, check_ner_label
from .pos import POS_TEMPLATE_DESCRIPTORS, tag_pos_sentences
from .seqlabel import (TrainingError, make_templates, tag_sentences,
                       train_averaged_perceptron, viterbi_decode)

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")

NER_TEMPLATE_DESCRIPTORS = POS_TEMPLATE_DESCRIPTORS + (
    "pos@0", "pos@-1", "pos@-2", "pos@+1", "pos@+2",
    "pos@-1&pos@0", "pos@0&pos@+1",
)

GAZETTEER_DESCRIPTORS = ("gaz@0", "gaz@-1", "gaz@+1")


def ner_templates(with_gazetteer=False):
    descriptors = NER_TEMPLATE_DESCRIPTORS
    if with_gazetteer:
        descriptors = descriptors + GAZETTEER_DESCRIPTORS
    return make_templates(descriptors)


@dataclass(frozen=True)
class EntitySpan:
    """A typed entity over 1-based inclusive token indices."""

    type: str
    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ValueError(f"bad span boundaries [{self.start}, {self.end}]")


def check_input(sentence):
    """Raise DataError unless every token carries the POS tag NER reads."""
    if None in sentence.column("pos_tag"):
        raise DataError("NER tagging requires POS tags on every token")


def tag_ner(model, sentence):
    """Return the sentence with ner_label set; output is always valid BIO."""
    if len(sentence) == 0:
        return sentence
    check_input(sentence)
    labels, _ = viterbi_decode(model, sentence)
    return sentence.with_ner_labels(labels)


def tag_ner_sentences(model, sentences):
    """tag_ner of every sentence, decoded as one document (seqlabel.tag_sentences).

    Every sentence is checked before any is decoded.
    """
    for sentence in sentences:
        check_input(sentence)
    return [sent.with_ner_labels(labels) if labels else sent
            for sent, labels in zip(sentences, tag_sentences(model, sentences))]


def train_ner(corpus, epochs=8, shuffle_seed=1, gazetteer=None,
              combine_top_k=0, templates=None, on_epoch=None):
    """Train a BIO model from (sentence, labels) pairs; sentences carry POS tags.

    combine_top_k > 0 turns on the one-shot pairwise feature-combination
    pass: the K feature pairs most often co-firing at mistaken positions
    after a probe epoch become conjunction features, then training restarts.
    """
    if templates is None:
        templates = ner_templates(with_gazetteer=gazetteer is not None)
    for sent, labels in corpus:
        for lab in labels:
            _split_bio(lab)
    return train_averaged_perceptron(templates, corpus, epochs=epochs,
                                     shuffle_seed=shuffle_seed,
                                     bio_constrained=True, gazetteer=gazetteer,
                                     combine_top_k=combine_top_k,
                                     on_epoch=on_epoch)


def _split_bio(label):
    if label == "O":
        return "O", None
    if len(label) > 2 and label[1] == "-" and label[0] in "BI":
        return label[0], label[2:]
    raise DataError(f"bad BIO label {label!r}")


def is_valid_bio(labels):
    prev_marker, prev_type = "O", None
    for lab in labels:
        marker, etype = _split_bio(lab)
        if marker == "I" and (prev_marker == "O" or prev_type != etype):
            return False
        prev_marker, prev_type = marker, etype
    return True


def repair_bio(labels):
    """Turn each illegal I-X into B-X; valid sequences come back unchanged."""
    out = []
    prev_marker, prev_type = "O", None
    for lab in labels:
        marker, etype = _split_bio(lab)
        if marker == "I" and (prev_marker == "O" or prev_type != etype):
            marker = "B"
            lab = f"B-{etype}"
        out.append(lab)
        prev_marker, prev_type = marker, etype
    return out


def entity_spans(labels):
    """Maximal B-X (I-X)* runs as EntitySpans; labels must be valid BIO."""
    if not is_valid_bio(labels):
        raise DataError("invalid BIO sequence; repair_bio it first")
    spans = []
    start = None
    etype = None
    for i, lab in enumerate(labels, start=1):
        marker, t = _split_bio(lab)
        if marker == "B":
            if start is not None:
                spans.append(EntitySpan(etype, start, i - 1))
            start, etype = i, t
        elif marker == "O":
            if start is not None:
                spans.append(EntitySpan(etype, start, i - 1))
            start, etype = None, None
    if start is not None:
        spans.append(EntitySpan(etype, start, len(labels)))
    return spans


def extract_entities(sentence):
    labels = sentence.ner_labels
    if None in labels:
        raise DataError("sentence has unset NER labels")
    return entity_spans(labels)


def labels_of_spans(spans, length):
    """Inverse of entity_spans for non-overlapping span lists."""
    labels = ["O"] * length
    for span in spans:
        if span.end > length:
            raise ValueError(f"span {span} exceeds sentence length {length}")
        if any(labels[k] != "O" for k in range(span.start - 1, span.end)):
            raise ValueError(f"span {span} overlaps another span")
        labels[span.start - 1] = f"B-{span.type}"
        for k in range(span.start, span.end):
            labels[k] = f"I-{span.type}"
    return labels


def merge_name_syllables(sentence):
    """Merge each contiguous PER-labeled syllable run into one B-PER token.

    Mirrors the preprocessing that turns per-syllable full-name annotation
    into word-level tokens; everything outside PER runs is untouched.
    """
    forms, tags, labels = (sentence.column(name) for name in ("form", "pos_tag", "ner_label"))
    if "B-PER" not in labels and "I-PER" not in labels:
        return sentence
    # Indices shift, so any head links would dangle; merged output is
    # pre-parse data and drops them.
    out_forms, out_tags, out_labels = [], [], []
    i = 0
    while i < len(forms):
        j = i + 1
        label = labels[i]
        if label in ("B-PER", "I-PER"):
            while j < len(forms) and labels[j] == "I-PER":
                j += 1
            label = "B-PER"
        out_forms.append("_".join(forms[i:j]))
        out_tags.append(tags[i])
        out_labels.append(label)
        i = j
    return Sentence.from_columns(out_forms, out_tags, out_labels)


def replace_gold_pos_with_predicted(corpus, pos_model):
    """Overwrite every sentence's POS column with the tagger's output."""
    return tag_pos_sentences(pos_model, corpus)


def parse_three_column(text):
    """Parse "form<TAB>pos<TAB>bio" lines into POS-tagged sentences.

    A bad column raises TrainingError naming its line."""
    sentences = []
    rows = []

    def flush():
        nonlocal rows
        if rows:
            sentences.append(Sentence.from_columns(*zip(*rows)))
            rows = []

    for line_no, line in enumerate(unicodedata.normalize("NFC", text).split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise TrainingError(f"line {line_no}: expected 3 tab-separated columns, "
                                f"got {len(cols)}")
        try:
            check_form(cols[0])
            check_label(cols[1], "POS tag")
            check_ner_label(cols[2])
        except DataError as exc:
            raise TrainingError(f"line {line_no}: {exc}") from None
        rows.append(cols)
    flush()
    return sentences


def read_three_column(path):
    with open(path, encoding="utf-8") as fh:
        return parse_three_column(fh.read())


def dump_three_column(sentences):
    blocks = []
    for sent in sentences:
        blocks.append("\n".join(f"{form}\t{tag}\t{label}" for form, tag, label in zip(
            sent.column("form"), sent.column("pos_tag"), sent.column("ner_label"))))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def training_pairs(sentences):
    """3-column sentences -> (sentence stripped of NER, gold labels) pairs."""
    pairs = []
    for sent in sentences:
        labels = sent.ner_labels
        if None in labels:
            raise TrainingError("NER corpus sentence missing a label")
        stripped = sent.with_ner_labels([None] * len(sent))
        pairs.append((stripped, labels))
    return pairs


def read_gazetteer(path):
    """One entry per line; entries are word forms with "_"-joined syllables."""
    entries = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = unicodedata.normalize("NFC", line.strip())
            if entry:
                entries.add(entry)
    return frozenset(entries)
