"""The segmenter as it was before rules and lexicon were compiled: a test oracle.

Copied verbatim from the last version of sylpipe.wseg that matched rules
slot by slot through a per-sentence context and split sentences token by
token, so the compiled matcher and the sentence splitter in sylpipe.wseg
can be checked against it. Lexicon keeps that version's lookup, an exact
try before the lowercased one, and its longest entry length;
oracle_model gives a model this Lexicon.
"""

import re
import unicodedata
from dataclasses import replace

from sylpipe import wseg
from sylpipe.model import Sentence
from sylpipe.seqlabel import TrainingError, word_shape
from sylpipe.wseg import (JOIN, SPLIT, TEMPLATES, SegmenterModel, TransformationRule,
                          templates_for_radius, words_to_decisions)


_SYL_RE = re.compile(r"\d+(?:[.,]\d+)+|[^\W_]+|\.{2,}|\S")

_TERMINALS = {".", "!", "?", "…"}

# Titles and common abbreviations that do not end a sentence when followed
# by a period.
_ABBREVIATIONS = frozenset({
    "TS", "ThS", "GS", "PGS", "KS", "BS", "CN", "TP", "Tp", "Q", "P",
    "Mr", "Mrs", "Ms", "Dr", "Prof", "St", "vs", "tr", "etc",
})


def _is_terminal(tok):
    if tok in _TERMINALS:
        return True
    return len(tok) >= 2 and tok.count(".") == len(tok)


def _is_abbreviation(tok):
    return tok in _ABBREVIATIONS or (len(tok) == 1 and tok.isupper())


def split_and_tokenize(raw_text):
    """Sentence-split and tokenize raw text into per-sentence syllable lists.

    Line breaks are hard sentence boundaries. Within a line, a sentence ends
    at terminal punctuation (. ! ? ...) followed by whitespace and an
    uppercase letter or digit, unless the preceding token is a known
    abbreviation or a single uppercase initial.
    """
    sentences = []
    for line in unicodedata.normalize("NFC", raw_text).split("\n"):
        _split_line(line, sentences)
    return sentences


def _split_line(text, sentences):
    matches = [(m.group(), m.start(), m.end()) for m in _SYL_RE.finditer(text)]
    cur = []
    for k, (tok, _, end) in enumerate(matches):
        cur.append(tok)
        if not _is_terminal(tok) or k + 1 >= len(matches):
            continue
        nxt_tok, nxt_start, _ = matches[k + 1]
        if nxt_start <= end:
            continue
        if not (nxt_tok[0].isupper() or nxt_tok[0].isdigit()):
            continue
        if tok == "." and len(cur) >= 2 and _is_abbreviation(cur[-2]):
            continue
        sentences.append(cur)
        cur = []
    if cur:
        sentences.append(cur)


class Lexicon(wseg.Lexicon):
    def __init__(self, words):
        super().__init__(words)
        self.max_len = max((len(w) for w in self.entries), default=1)

    def contains_folded(self, word):
        """Exact lookup, then a lowercased retry so sentence-case forms match."""
        w = tuple(word)
        return w in self.entries or tuple(s.lower() for s in w) in self.folded


def oracle_model(model):
    """The model with its lexicon as this module's Lexicon."""
    return replace(model, lexicon=Lexicon(model.lexicon.entries))


class _SentenceContext:
    """Per-sentence caches used while matching rule patterns.

    unjoinable holds the boundaries next to a "_" syllable, which no rule
    may join: the form "_" must stay a word of its own to read back as one
    syllable.
    """

    __slots__ = ("syllables", "n", "decisions", "lexicon", "_shapes", "_lex", "positions",
                 "unjoinable")

    def __init__(self, syllables, decisions, lexicon):
        self.syllables = list(syllables)
        self.n = len(self.syllables)
        self.decisions = decisions
        self.lexicon = lexicon
        self._shapes = [None] * self.n
        self._lex = [None] * max(self.n - 1, 0)
        positions = {}
        for p, s in enumerate(self.syllables):
            positions.setdefault(s, []).append(p)
        self.positions = positions
        self.unjoinable = {j for p in positions.get("_", ()) for j in (p - 1, p)}

    def syl(self, k):
        if k < 0:
            return "<s>"
        if k >= self.n:
            return "</s>"
        return self.syllables[k]

    def shape(self, k):
        if k < 0:
            return "<s>"
        if k >= self.n:
            return "</s>"
        v = self._shapes[k]
        if v is None:
            v = word_shape(self.syllables[k])
            self._shapes[k] = v
        return v

    def lex(self, j):
        if j < 0 or j >= self.n - 1:
            return "-"
        v = self._lex[j]
        if v is None:
            v = "1" if self.lexicon.contains_folded(
                (self.syllables[j], self.syllables[j + 1])) else "0"
            self._lex[j] = v
        return v

    def dec(self, j):
        if j < 0 or j >= self.n - 1:
            return "-"
        return "J" if self.decisions[j] else "S"

    def slot_value(self, j, kind, off):
        if kind == "syl":
            return self.syl(j + off)
        if kind == "shape":
            return self.shape(j + off)
        if kind == "lex":
            return self.lex(j + off)
        return self.dec(j + off)

    def pattern_key(self, j, template):
        return tuple(self.slot_value(j, kind, off) for kind, off in TEMPLATES[template])

    def matches(self, j, template, values):
        for (kind, off), v in zip(TEMPLATES[template], values):
            if self.slot_value(j, kind, off) != v:
                return False
        return True


def baseline_decisions(lexicon, syllables):
    """Greedy left-to-right longest match; unknown syllables stay single."""
    n = len(syllables)
    dec = [SPLIT] * max(n - 1, 0)
    sylls = tuple(syllables)
    i = 0
    while i < n:
        step = 1
        top = min(lexicon.max_len, n - i)
        for length in range(top, 1, -1):
            if lexicon.contains_folded(sylls[i:i + length]):
                for k in range(i, i + length - 1):
                    dec[k] = JOIN
                step = length
                break
        i += step
    return dec


def _apply_pattern(ctx, action, template, values):
    """Apply one rule pattern left to right; later matches see earlier flips."""
    want = action == "join"
    blocked = ctx.unjoinable if want else ()
    slots = TEMPLATES[template]
    anchor = None
    for idx, (kind, off) in enumerate(slots):
        if kind == "syl" and 0 <= off <= 1:
            anchor = (off, values[idx])
            break
    dec = ctx.decisions
    if anchor is not None:
        off, value = anchor
        for p in ctx.positions.get(value, ()):
            j = p - off
            if (0 <= j < ctx.n - 1 and dec[j] != want and j not in blocked
                    and ctx.matches(j, template, values)):
                dec[j] = want
    else:
        for j in range(ctx.n - 1):
            if dec[j] != want and j not in blocked and ctx.matches(j, template, values):
                dec[j] = want


def _apply_rule(rule, ctx):
    _apply_pattern(ctx, rule.action, rule.template, rule.values)


def _decisions_to_forms(syllables, decisions):
    forms = []
    start = 0
    for j, join in enumerate(decisions):
        if not join:
            forms.append("_".join(syllables[start:j + 1]))
            start = j + 1
    forms.append("_".join(syllables[start:]))
    return forms


def segment(model, syllables):
    """Segment one syllable sequence into a Sentence of word tokens."""
    syllables = list(syllables)
    if not syllables:
        return Sentence.from_columns(())
    decisions = baseline_decisions(model.lexicon, syllables)
    if model.rules:
        ctx = _SentenceContext(syllables, decisions, model.lexicon)
        for rule in model.rules:
            _apply_rule(rule, ctx)
        decisions = ctx.decisions
    return Sentence.from_columns(_decisions_to_forms(syllables, decisions))

def train_segmenter(corpus, window_radius=2, max_rules=200, on_rule=None):
    """Learn a SegmenterModel from gold-segmented sentences.

    corpus: list of sentences, each a list of word forms ("_"-joined
    syllables). The lexicon collects every gold word; rules are then learned
    greedily, each strictly reducing the corpus boundary-error count.
    """
    corpus = [list(sent) for sent in corpus]
    corpus = [sent for sent in corpus if sent]
    if not corpus:
        raise TrainingError("segmentation training corpus is empty")

    lexicon = Lexicon(tuple(w.split("_")) for sent in corpus for w in sent)
    templates = templates_for_radius(window_radius)

    golds = []
    ctxs = []
    for sent in corpus:
        syllables, gold = words_to_decisions(sent)
        current = baseline_decisions(lexicon, syllables)
        golds.append(gold)
        ctxs.append(_SentenceContext(syllables, current, lexicon))

    def error_count():
        total = 0
        for ctx, gold in zip(ctxs, golds):
            d = ctx.decisions
            total += sum(1 for j in range(len(gold)) if d[j] != gold[j])
        return total

    rules = []
    errors = error_count()
    while errors > 0 and len(rules) < max_rules:
        # Candidate rules come from the current error sites.
        candidates = {}
        for ctx, gold in zip(ctxs, golds):
            d = ctx.decisions
            for j in range(len(gold)):
                if d[j] == gold[j]:
                    continue
                action = "join" if gold[j] else "split"
                for tpl in templates:
                    key = (action, tpl, ctx.pattern_key(j, tpl))
                    if key not in candidates:
                        candidates[key] = [len(candidates), 0]
        # Estimated net = fixes - breakages over every boundary it would flip.
        for ctx, gold in zip(ctxs, golds):
            d = ctx.decisions
            for j in range(len(gold)):
                action = "split" if d[j] else "join"
                for tpl in templates:
                    key = (action, tpl, ctx.pattern_key(j, tpl))
                    entry = candidates.get(key)
                    if entry is not None:
                        entry[1] += 1 if d[j] != gold[j] else -1
        ranked = sorted(candidates.items(), key=lambda kv: (-kv[1][1], kv[1][0]))

        accepted = None
        for (action, tpl, values), (_, est) in ranked[:200]:
            if est <= 0:
                break
            saved = [list(ctx.decisions) for ctx in ctxs]
            for ctx in ctxs:
                _apply_pattern(ctx, action, tpl, values)
            new_errors = error_count()
            if new_errors < errors:
                accepted = TransformationRule(action, tpl, values, errors - new_errors)
                errors = new_errors
                break
            for ctx, old in zip(ctxs, saved):
                ctx.decisions[:] = old
        if accepted is None:
            break
        rules.append(accepted)
        if on_rule is not None:
            on_rule(len(rules), accepted, errors)

    return SegmenterModel(lexicon=lexicon, rules=tuple(rules),
                          window_radius=window_radius)

