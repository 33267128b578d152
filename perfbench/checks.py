"""Output checks for the annotate workloads and the trained models.

Each check returns a list of problem strings; an empty list means the output
is correct. The annotation checks hold their own references to the sylpipe
functions they use, taken at import time, so they never run through the
tracer's wrappers and never add to a layer's time.
"""

from __future__ import annotations

from sylpipe import depparse, metrics, ner, pos, wseg
from sylpipe.model import Sentence, Token, dump_six_column, from_six_column


def annotation_problems(text, sentences, unit, order):
    """Problems with one annotate result: sentences and its six-column text."""
    problems = []
    if dump_six_column(sentences) != text:
        problems.append("six-column text differs from the annotated sentences")
    try:
        parsed = from_six_column(text)
    except ValueError as exc:
        parsed = None
        problems.append(f"six-column text does not parse: {exc}")
    # An unset NER label renders as "O" and reads back as "O" (README), so
    # sentences compare equal only once NER has run.
    if parsed is not None and (dump_six_column(parsed) != text or
                               ("ner" in order and parsed != list(sentences))):
        problems.append("six-column text does not round-trip")
    syllables = tuple(s for sent in sentences for t in sent for s in t.form.split("_"))
    if syllables != unit.syllables:
        problems.append("word forms do not rejoin into the input syllables")
    if len(sentences) != unit.sentences:
        problems.append(f"{len(sentences)} sentences, expected {unit.sentences}")
    for k, sent in enumerate(sentences, start=1):
        if "pos" in order and any(t.pos_tag is None for t in sent):
            problems.append(f"sentence {k}: token without a POS tag")
        if "ner" in order and not ner.is_valid_bio([t.ner_label for t in sent]):
            problems.append(f"sentence {k}: NER labels are not valid BIO")
        if "parse" in order and not is_tree([t.head for t in sent]):
            problems.append(f"sentence {k}: heads are not a single-rooted tree")
    return problems


def is_tree(heads):
    """True when 1-based heads (0 = root) give one root and no cycles."""
    n = len(heads)
    if any(h is None or not 0 <= h <= n for h in heads):
        return False
    if sum(1 for h in heads if h == 0) != 1:
        return False
    for start in range(1, n + 1):
        node, steps = start, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
            if steps > n:
                return False
    return True


# The acceptance levels the toy corpora reach (tests/test_acceptance.py,
# criterion 05); training on a superset of the toy sentences must reach them.
TOY_LEVELS = {"seg_f1": 1.0, "pos_accuracy": 0.99, "ner_f1": 0.95, "uas": 0.95}


def toy_scores(seg_model, pos_model, ner_model, parse_model, toy_treebank):
    """Segmentation F1, POS accuracy, NER F1 and UAS on the toy sentences."""
    gold_words = [s.forms for s in toy_treebank]
    seg_pred = [wseg.segment(seg_model, wseg.words_to_decisions(words)[0]).forms
                for words in gold_words]
    bare = [Sentence(Token(index=t.index, form=t.form) for t in s) for s in toy_treebank]
    tagged = [Sentence(Token(index=t.index, form=t.form, pos_tag=t.pos_tag) for t in s)
              for s in toy_treebank]
    return {
        "seg_f1": metrics.segmentation_f1(gold_words, seg_pred).f1,
        "pos_accuracy": metrics.tagging_accuracy(
            [s.pos_tags for s in toy_treebank],
            [pos.tag_pos(pos_model, s).pos_tags for s in bare]),
        "ner_f1": metrics.chunk_f1(
            [s.ner_labels for s in toy_treebank],
            [ner.tag_ner(ner_model, s).ner_labels for s in tagged]).overall.f1,
        "uas": metrics.attachment_scores(
            toy_treebank,
            [depparse.parse_sentence(parse_model, s) for s in tagged]).uas,
    }


def model_problems(scores):
    return [f"{name} {scores[name]:.4f} below the toy level {level}"
            for name, level in TOY_LEVELS.items() if scores[name] < level]
