"""Sentence splitting, syllable tokenization, and word segmentation.

Segmentation starts from greedy longest-match against a lexicon of known
words, then applies an ordered list of learned transformation rules that
flip individual join/split decisions in context. Rules are learned by
error-driven search: each round keeps the single rule with the largest net
reduction of training errors, as long as that reduction is positive.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

from .model import DataError, Sentence
from .seqlabel import TrainingError, word_shape

JOIN = True
SPLIT = False

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


def tokenize_syllables(text):
    """Split text into syllable tokens; punctuation becomes its own token."""
    return [m.group() for m in _SYL_RE.finditer(unicodedata.normalize("NFC", text))]


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


class Lexicon:
    """Known words as syllable tuples; lookup is exact on the sequence.

    No syllable of an entry may hold the "_" joiner, so the lexicon never
    joins the syllable "_" to a neighbour.
    """

    def __init__(self, words):
        entries = set()
        for w in words:
            w = tuple(w)
            if not w or not all(w) or any("_" in s for s in w):
                raise DataError(f"bad lexicon entry {w!r}")
            entries.add(w)
        self.entries = frozenset(entries)
        self.folded = frozenset(tuple(s.lower() for s in w) for w in entries)
        self.max_len = max((len(w) for w in entries), default=1)

    @classmethod
    def from_forms(cls, forms):
        return cls(tuple(f.split("_")) for f in forms)

    def __contains__(self, word):
        return tuple(word) in self.entries

    def __len__(self):
        return len(self.entries)

    def contains_folded(self, word):
        """Exact lookup, then a lowercased retry so sentence-case forms match."""
        w = tuple(word)
        return w in self.entries or tuple(s.lower() for s in w) in self.folded


# Rule pattern templates. A slot reads, relative to the boundary between
# syllable j and j+1: a syllable ("syl", syllable offset from j), a syllable
# shape, the lexicon-membership flag of an adjacent syllable pair ("lex",
# boundary offset), or a current join/split decision ("dec", boundary offset).
TEMPLATES = {
    "pair": (("syl", 0), ("syl", 1)),
    "left3": (("syl", -1), ("syl", 0), ("syl", 1)),
    "right3": (("syl", 0), ("syl", 1), ("syl", 2)),
    "window4": (("syl", -1), ("syl", 0), ("syl", 1), ("syl", 2)),
    "left1": (("syl", 0),),
    "right1": (("syl", 1),),
    "shapes": (("shape", 0), ("shape", 1)),
    "shapelex": (("shape", 0), ("shape", 1), ("lex", 0)),
    "lexflags": (("lex", -1), ("lex", 0), ("lex", 1)),
    "pairdec": (("syl", 0), ("syl", 1), ("dec", -1)),
}
TEMPLATE_ORDER = ("pair", "left3", "right3", "window4", "left1", "right1",
                  "shapes", "shapelex", "lexflags", "pairdec")

# Syllable offsets used by each template; radius w admits offsets -(w-1)..w.
_RADIUS_1_TEMPLATES = ("pair", "left1", "right1", "shapes", "shapelex", "pairdec")


def templates_for_radius(window_radius):
    if window_radius <= 1:
        return _RADIUS_1_TEMPLATES
    return TEMPLATE_ORDER


@dataclass(frozen=True)
class TransformationRule:
    """One learned correction: flip the boundary decision where the pattern matches."""

    action: str  # "join" or "split"
    template: str
    values: tuple
    score: int  # net training errors removed when the rule was accepted

    def __post_init__(self):
        if self.action not in ("join", "split"):
            raise ValueError(f"bad rule action {self.action!r}")
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown rule template {self.template!r}")
        if self.score < 1:
            raise ValueError("retained rules must have a positive score")


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


@dataclass(frozen=True)
class SegmenterModel:
    lexicon: Lexicon
    rules: tuple
    window_radius: int = 2


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


def words_to_decisions(words):
    """Gold words -> (syllables, gold join/split decisions)."""
    syllables = []
    decisions = []
    for w, word in enumerate(words):
        parts = word.split("_")
        if any(not p for p in parts):
            raise DataError(f"bad word form {word!r}")
        for k, p in enumerate(parts):
            syllables.append(p)
            if k < len(parts) - 1:
                decisions.append(JOIN)
        if w < len(words) - 1:
            decisions.append(SPLIT)
    return syllables, decisions


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


def read_segmented_corpus(path):
    """One sentence per line, words space-separated, syllables "_"-joined."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_segmented_corpus(text)


def parse_segmented_corpus(text):
    corpus = []
    for line in unicodedata.normalize("NFC", text).split("\n"):
        words = line.split()
        if words:
            corpus.append(words)
    return corpus


MODEL_MAGIC = "SYLPIPE-WSEG1"


def save_segmenter(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_MAGIC + "\n")
        fh.write(f"radius\t{model.window_radius}\n")
        fh.write(f"lexicon\t{len(model.lexicon)}\n")
        for word in sorted(model.lexicon.entries):
            fh.write(" ".join(word) + "\n")
        fh.write(f"rules\t{len(model.rules)}\n")
        for r in model.rules:
            fh.write("\t".join((r.action, r.template, str(r.score), *r.values)) + "\n")


def load_segmenter(path):
    """Read a model written by save_segmenter.

    Any departure from that layout, a file cut short or followed by more
    text included, raises ValueError("<path>: corrupt segmenter model
    (line N: ...)").
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a segmenter model file")
    # Line k is lines[k - 1]; every line ends with a newline, so the last
    # item, the text after the final newline, is empty in a whole file.
    line_no = 1

    def corrupt(problem):
        return ValueError(f"{path}: corrupt segmenter model (line {line_no}: {problem})")

    def next_line(what):
        nonlocal line_no
        line_no += 1
        if line_no >= len(lines):
            raise corrupt(f"the file ends before {what}")
        return lines[line_no - 1]

    def header(key):
        line = next_line(f"the {key} header")
        name, _, count = line.partition("\t")
        if name != key or not (count.isascii() and count.isdigit()):
            raise corrupt(f"expected {key!r}, a tab and a count, found {line!r}")
        return int(count)

    radius = header("radius")
    words = []
    for k in range(header("lexicon")):
        line = next_line(f"lexicon entry {k + 1}")
        word = tuple(line.split(" "))
        if "\t" in line or "_" in line or not all(word):
            raise corrupt(f"bad lexicon entry {line!r}")
        words.append(word)
    rules = []
    for k in range(header("rules")):
        fields = next_line(f"rule {k + 1}").split("\t")
        try:
            action, template, score, *values = fields
            rule = TransformationRule(action, template, tuple(values), int(score))
        except ValueError as exc:
            raise corrupt(f"bad rule: {exc}") from None
        if len(values) != len(TEMPLATES[template]):
            raise corrupt(f"a {template} rule takes {len(TEMPLATES[template])} "
                          f"values, found {len(values)}")
        rules.append(rule)
    if line_no < len(lines) - 1 or lines[-1]:
        line_no += 1
        raise corrupt("unexpected content after the declared rules")
    return SegmenterModel(lexicon=Lexicon(words), rules=tuple(rules),
                          window_radius=radius)
