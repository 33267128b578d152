"""BIO named-entity annotator, span extraction, and corpus preprocessing.

The BIO rule is written once, in model.py: check_ner_label is a label's
shape and bio_may_follow which label may follow which. Decoding masks what
the rule forbids (seqlabel.bio_transition_mask), so tagger output never
needs repair; is_valid_bio and repair_bio, for third-party files, walk a
sequence with the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (DataError, Sentence, bio_may_follow, check_form, check_ner_label,
                    checked_rows, read_corpus, tab_blocks)
from .pos import POS_TEMPLATE_DESCRIPTORS, check_tag, tag_pos_sentences
from .seqlabel import (DecodeError, TrainingError, make_templates, tag_sentences,
                       train_averaged_perceptron)

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


def check_input(sentence, number=None):
    """Raise DecodeError, naming the sentence by its 1-based document number,
    unless every token carries the POS tag NER reads."""
    if None in sentence.column("pos_tag"):
        raise DecodeError("NER tagging requires POS tags on every token", number)


def tag_ner(model, sentence):
    """Return the sentence with ner_label set; output is always valid BIO."""
    return tag_ner_sentences(model, [sentence])[0]


def tag_ner_sentences(model, sentences):
    """tag_ner of every sentence, decoded as one document (seqlabel.tag_sentences).

    Every sentence is checked before any is decoded; a sentence without POS
    tags raises DecodeError naming it.
    """
    for k, sentence in enumerate(sentences, start=1):
        check_input(sentence, k)
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
    return train_averaged_perceptron(templates, corpus, epochs=epochs,
                                     shuffle_seed=shuffle_seed,
                                     bio_constrained=True, gazetteer=gazetteer,
                                     combine_top_k=combine_top_k,
                                     on_epoch=on_epoch)


def _split_bio(label):
    """(marker, type) of a label that check_ner_label takes: ("O", None) for O."""
    check_ner_label(label)
    return ("O", None) if label == "O" else (label[0], label[2:])


def is_valid_bio(labels):
    """Whether each label, checked by check_ner_label, may follow the one before."""
    labels = list(labels)
    for label in labels:
        check_ner_label(label)
    return all(map(bio_may_follow, labels, [None, *labels]))


def repair_bio(labels):
    """Turn each I-X that may not follow its previous label into B-X; valid
    sequences come back unchanged."""
    out = []
    for label in labels:
        check_ner_label(label)
        out.append(label if bio_may_follow(label, out[-1] if out else None)
                   else "B" + label[1:])
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
    """Parse "form<TAB>pos<TAB>bio" lines into POS-tagged sentences, taking the
    text as given. A bad column raises FormatError naming its line."""
    return [Sentence.from_columns(*zip(*checked_rows(rows, check_form, check_tag,
                                                     check_ner_label)))
            for rows in tab_blocks(text, 3)]


def read_three_column(path):
    """parse_three_column of a file read by model.read_corpus."""
    return read_corpus(path, parse_three_column)


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
    """One entry per line of a file read by model.read_corpus, surrounding
    whitespace dropped and blank lines skipped. Entries are word forms with
    "_"-joined syllables: one that check_form refuses, such as "Hà Nội",
    could match no form and raises FormatError naming its line."""
    return read_corpus(path, _parse_gazetteer)


def _parse_gazetteer(text):
    lines = enumerate(map(str.strip, text.split("\n")), start=1)
    return frozenset(entry for (entry,) in checked_rows(
        ((k, [entry]) for k, entry in lines if entry), check_form))
