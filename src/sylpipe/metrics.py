"""Evaluation metrics: segmentation F1, tagging accuracy, chunk F1, LAS/UAS."""

from __future__ import annotations

from dataclasses import dataclass

from .model import DataError, Sentence, split_form
from .ner import entity_spans, is_valid_bio


class AlignmentError(DataError):
    pass


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    correct: int = 0
    predicted: int = 0
    gold: int = 0


def prf(correct, predicted, gold):
    p = correct / predicted if predicted else 0.0
    r = correct / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return PRF(p, r, f1, correct, predicted, gold)


@dataclass(frozen=True)
class AttachmentScores:
    las: float
    uas: float
    token_count: int


@dataclass(frozen=True)
class ChunkF1:
    overall: PRF
    by_type: dict


def _word_spans(words):
    """Character-free spans: each word covers a half-open syllable interval."""
    spans = []
    pos = 0
    for w in words:
        k = len(split_form(w))
        spans.append((pos, pos + k))
        pos += k
    return spans


def _forms_of(sentence):
    if isinstance(sentence, Sentence):
        return sentence.forms
    return list(sentence)


def segmentation_f1(gold_sentences, predicted_sentences):
    """Word-level P/R/F1; words match when their syllable spans coincide."""
    if len(gold_sentences) != len(predicted_sentences):
        raise AlignmentError(f"sentence counts differ: {len(gold_sentences)} gold "
                             f"vs {len(predicted_sentences)} predicted")
    correct = predicted = gold = 0
    for k, (g, p) in enumerate(zip(gold_sentences, predicted_sentences)):
        g_words = _forms_of(g)
        p_words = _forms_of(p)
        g_syl = [s for w in g_words for s in split_form(w)]
        p_syl = [s for w in p_words for s in split_form(w)]
        if g_syl != p_syl:
            raise AlignmentError(f"sentence {k + 1}: syllable sequences differ")
        g_spans = set(_word_spans(g_words))
        p_spans = set(_word_spans(p_words))
        correct += len(g_spans & p_spans)
        predicted += len(p_spans)
        gold += len(g_spans)
    return prf(correct, predicted, gold)


def tagging_accuracy(gold_sequences, predicted_sequences):
    """Fraction of positions with matching labels."""
    if len(gold_sequences) != len(predicted_sequences):
        raise AlignmentError(f"sentence counts differ: {len(gold_sequences)} gold "
                             f"vs {len(predicted_sequences)} predicted")
    matches = total = 0
    for k, (g, p) in enumerate(zip(gold_sequences, predicted_sequences)):
        g = list(g)
        p = list(p)
        if len(g) != len(p):
            raise AlignmentError(f"sentence {k + 1}: length mismatch "
                                 f"({len(g)} gold vs {len(p)} predicted)")
        matches += sum(1 for a, b in zip(g, p) if a == b)
        total += len(g)
    return matches / total if total else 0.0


def chunk_f1(gold_corpora, predicted_corpora):
    """Exact span-and-type entity F1, micro-averaged, with per-type scores."""
    if len(gold_corpora) != len(predicted_corpora):
        raise AlignmentError(f"sentence counts differ: {len(gold_corpora)} gold "
                             f"vs {len(predicted_corpora)} predicted")
    counts = {}

    def bump(etype, field):
        entry = counts.setdefault(etype, [0, 0, 0])  # correct, predicted, gold
        entry[field] += 1

    for k, (g_labels, p_labels) in enumerate(zip(gold_corpora, predicted_corpora)):
        g_labels = list(g_labels)
        p_labels = list(p_labels)
        if len(g_labels) != len(p_labels):
            raise AlignmentError(f"sentence {k + 1}: length mismatch")
        for name, labels in (("gold", g_labels), ("predicted", p_labels)):
            if not is_valid_bio(labels):
                raise DataError(f"sentence {k + 1}: invalid BIO in {name} labels; "
                                 "repair_bio them first")
        g_spans = set((s.type, s.start, s.end) for s in entity_spans(g_labels))
        p_spans = set((s.type, s.start, s.end) for s in entity_spans(p_labels))
        for span in g_spans & p_spans:
            bump(span[0], 0)
        for span in p_spans:
            bump(span[0], 1)
        for span in g_spans:
            bump(span[0], 2)

    total = [0, 0, 0]
    by_type = {}
    for etype in sorted(counts):
        c, p, g = counts[etype]
        by_type[etype] = prf(c, p, g)
        total[0] += c
        total[1] += p
        total[2] += g
    return ChunkF1(overall=prf(*total), by_type=by_type)


def attachment_scores(gold_sentences, predicted_sentences):
    """LAS/UAS over all tokens, punctuation included."""
    if len(gold_sentences) != len(predicted_sentences):
        raise AlignmentError(f"sentence counts differ: {len(gold_sentences)} gold "
                             f"vs {len(predicted_sentences)} predicted")
    head_hits = label_hits = total = 0
    for k, (g, p) in enumerate(zip(gold_sentences, predicted_sentences)):
        if len(g) != len(p):
            raise AlignmentError(f"sentence {k + 1}: token count mismatch")
        for g_form, p_form, g_head, p_head, g_rel, p_rel in zip(
                g.column("form"), p.column("form"), g.column("head"), p.column("head"),
                g.column("dep_label"), p.column("dep_label")):
            if g_form != p_form:
                raise AlignmentError(f"sentence {k + 1}: token forms differ "
                                     f"({g_form!r} vs {p_form!r})")
            if g_head is None or p_head is None:
                raise AlignmentError(f"sentence {k + 1}: unset head")
            total += 1
            if g_head == p_head:
                head_hits += 1
                if g_rel == p_rel:
                    label_hits += 1
    if total == 0:
        raise AlignmentError("no tokens to score")
    return AttachmentScores(las=label_hits / total, uas=head_hits / total,
                            token_count=total)


def report_lines(values):
    """key=value lines for the machine-readable part of reports."""
    return [f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in values.items()]
