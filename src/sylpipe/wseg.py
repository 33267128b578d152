"""Sentence splitting, syllable tokenization, and word segmentation.

Segmentation starts from greedy longest-match against a lexicon of known
words, then applies an ordered list of learned transformation rules that
flip individual join/split decisions in context. Rules are learned by
error-driven search: each round keeps the single rule with the largest net
reduction of training errors, as long as that reduction is positive.

Both steps run on compiled forms. The lexicon indexes each lowercased first
syllable to the lengths of the entries it starts (Lexicon.starts), so the
longest match lowercases each syllable once and tries only lengths that can
hit. One builder, _rows, lays sentences end to end as four rows, one per
slot kind: syllables, shapes, lexicon-pair flags and the live decisions.
segment lays out one sentence and train_segmenter its whole corpus, once. A
model compiles its rules once, on first use, each to an anchor syllable plus
(row, offset, value) checks, so a slot read is one list index. One matcher,
_apply, runs the rules for segment and each candidate rule of
train_segmenter over the whole corpus, which also reads its candidates'
patterns from the same rows.

train_segmenter estimates its candidates with arrays, after the array form
of the candidate counts in Ngai and Florian (NAACL 2001, "Transformation-
Based Learning in the Fast Lane"): the values of each template at every
corpus boundary are numbered once, and each round counts, with one bincount
per template, the wrong minus the right boundaries of every (number, flip
direction). The tries stay exact: each candidate is applied by one _apply
over the corpus and undone unless it lowers the error count.
"""

from __future__ import annotations

import functools
import logging
import re
import unicodedata
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

import numpy as np

from .model import DataError, Sentence
from .seqlabel import TrainingError, _tuple_codes, word_shape

logger = logging.getLogger(__name__)

JOIN = True
SPLIT = False

_SYL_RE = re.compile(r"\d+(?:[.,]\d+)+|[^\W_]+|\.{2,}|\S")

# Terminal punctuation is exactly the tokens that start with one of these:
# _SYL_RE makes "!", "?" and "…" tokens of one character, and "." a token
# alone or in a run of dots.
_TERMINAL_FIRST = frozenset(".!?…")

# Titles and common abbreviations that do not end a sentence when followed
# by a period.
_ABBREVIATIONS = frozenset({
    "TS", "ThS", "GS", "PGS", "KS", "BS", "CN", "TP", "Tp", "Q", "P",
    "Mr", "Mrs", "Ms", "Dr", "Prof", "St", "vs", "tr", "etc",
})


def _is_abbreviation(tok):
    return tok in _ABBREVIATIONS or (len(tok) == 1 and tok.isupper())


def tokenize_syllables(text):
    """Split text into syllable tokens; punctuation becomes its own token. A
    byte-order mark that starts the text is dropped, as split_and_tokenize
    drops it."""
    return [m.group() for m in _SYL_RE.finditer(
        unicodedata.normalize("NFC", text.removeprefix("\ufeff")))]


def split_and_tokenize(raw_text):
    """Sentence-split and tokenize raw text into per-sentence syllable lists.

    Line breaks are hard sentence boundaries. Within a line, a sentence ends
    at terminal punctuation (. ! ? ...) followed by whitespace and an
    uppercase letter or digit, unless the preceding token is a known
    abbreviation or a single uppercase initial. A byte-order mark that
    starts the text is dropped, as the file readers drop it.
    """
    sentences = []
    for line in unicodedata.normalize("NFC", raw_text.removeprefix("\ufeff")).split("\n"):
        _split_line(line, sentences)
    return sentences


def _split_line(text, sentences):
    matches = list(_SYL_RE.finditer(text))
    tokens = list(map(re.Match.group, matches))
    start = 0
    terminal = map(_TERMINAL_FIRST.__contains__, map(itemgetter(0), tokens))
    for k in compress(range(len(tokens) - 1), terminal):
        nxt = tokens[k + 1]
        if matches[k + 1].start() <= matches[k].end():
            continue
        if not (nxt[0].isupper() or nxt[0].isdigit()):
            continue
        if tokens[k] == "." and k > start and _is_abbreviation(tokens[k - 1]):
            continue
        sentences.append(tokens[start:k + 1])
        start = k + 1
    if start < len(tokens):
        sentences.append(tokens[start:])


# What no syllable of a lexicon entry may hold: the "_" joiner, so the
# lexicon never joins the syllable "_" to a neighbour, and whitespace, which
# save_segmenter cannot write.
_BAD_SYLLABLE = re.compile(r"[\s_]")


def _bad_entry(word):
    return not word or not all(word) or _BAD_SYLLABLE.search("".join(word)) is not None


class Lexicon:
    """Known words as syllable tuples; lookup is exact on the sequence.

    No syllable of an entry may be empty or hold the "_" joiner or
    whitespace.
    """

    def __init__(self, words):
        words = [tuple(w) for w in words]
        syllables = [s for w in words for s in w]
        # One search over all syllables at once; a fault is then looked up
        # entry by entry, to name the first bad one.
        if () in words or not all(syllables) or _BAD_SYLLABLE.search("".join(syllables)):
            raise DataError(f"bad lexicon entry {next(filter(_bad_entry, words))!r}")
        self.entries = frozenset(words)
        self.folded = frozenset(tuple(s.lower() for s in w) for w in self.entries)

    @classmethod
    def from_forms(cls, forms):
        return cls(tuple(f.split("_")) for f in forms)

    def __contains__(self, word):
        return tuple(word) in self.entries

    def __len__(self):
        return len(self.entries)

    def contains_folded(self, word):
        """Lowercased lookup, so sentence-case forms match; an exact entry
        always matches its own lowercased form."""
        return tuple(s.lower() for s in word) in self.folded

    @functools.cached_property
    def starts(self):
        """Lowercased first syllable -> the lengths, 2 or more and longest
        first, of the lowercased entries that begin with it."""
        lengths = {}
        for word in self.folded:
            if len(word) > 1:
                lengths.setdefault(word[0], set()).add(len(word))
        return {first: tuple(sorted(ls, reverse=True)) for first, ls in lengths.items()}


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

# The values a lex or dec slot can read; a rule holding any other never matches.
SLOT_VALUES = {"lex": ("0", "1", "-"), "dec": ("J", "S", "-")}

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


# Sentences are matched as four rows, one per slot kind, laid end to end: a
# sentence of n syllables takes n + 2 slots of each. The syllable and shape
# rows put "<s>" before its n values and "</s>" after them; the lexicon-pair
# flags ("1"/"0") and the live decisions ("J"/"S"), n - 1 values each, take
# "-" once before and twice after. Boundary q of a sentence whose slots
# start at p, 1..n-1, lies between its q-th and next syllable, and a slot at
# offset off, |off| <= 2, reads rows[kind][p + q + off] inside the sentence.
SYL, SHAPE, LEX, DEC = range(4)
_ROW = {"syl": SYL, "shape": SHAPE, "lex": LEX, "dec": DEC}
_FLAG = ("0", "1")
_NOWHERE = frozenset()
_FLIPS_FROM = {"J": "S", "S": "J"}


def _longest_match(lexicon, folded):
    """Greedy left-to-right longest match of the lowercased syllables, as a
    decision row with its three sentinels; unknown syllables stay single."""
    n = len(folded)
    row = ["-"] + ["S"] * (n - 1) + ["-", "-"]
    entries = lexicon.folded
    heads = list(map(lexicon.starts.get, folded))
    end = 0
    for i in compress(range(n - 1), heads):
        if i < end:
            continue
        for length in heads[i]:
            if i + length <= n and tuple(folded[i:i + length]) in entries:
                end = i + length
                row[i + 1:end] = ["J"] * (length - 1)
                break
    return row


def _rows(lexicon, sentences, kinds, anchors):
    """(rows, positions) of the sentences, each of one syllable or more,
    laid end to end; segment passes one sentence, train_segmenter its corpus.

    The decisions come from the longest match; the shape and lexicon-flag
    rows are built only when kinds reads them (else None). positions maps
    each syllable in anchors to its slots, ascending. Shapes and positions
    come from syllable slots only, never from a sentinel, which a syllable
    may be spelled like.
    """
    syl, dec = [], []
    shapes = flags = None
    if "shape" in kinds:
        shape_of = {s: word_shape(s) for s in {s for syllables in sentences for s in syllables}}
        shapes = []
    if "lex" in kinds:
        flags = []
    entries = lexicon.folded
    positions = {}
    for syllables in sentences:
        p = len(syl)
        folded = list(map(str.lower, syllables))
        syl += ["<s>", *syllables, "</s>"]
        if shapes is not None:
            shapes += ["<s>", *map(shape_of.__getitem__, syllables), "</s>"]
        if flags is not None:
            pairs = map(entries.__contains__, zip(folded, folded[1:]))
            flags += ["-", *map(_FLAG.__getitem__, pairs), "-", "-"]
        dec += _longest_match(lexicon, folded)
        for k in compress(range(p + 1, len(syl) - 1), map(anchors.__contains__, syllables)):
            positions.setdefault(syl[k], []).append(k)
    return [syl, shapes, flags, dec], positions


def _unjoinable(syl):
    """The boundaries next to a "_" syllable of the syllable row, which no
    rule may join: the form "_" must stay a word of its own to read back as
    one syllable."""
    if "_" not in syl:
        return _NOWHERE
    return {q for p, s in enumerate(syl) if s == "_" for q in (p - 1, p)}


def _compile_rule(action, template, values):
    """(want, anchor, anchor offset, checks, values) with checks as (row,
    offset, value).

    The anchor is the first syllable slot at offset 0 or 1, whose value a
    match must hold at a known position; the checks are the other slots. A
    rule without one compares all its values at every boundary at once.
    """
    want = "J" if action == "join" else "S"
    checks = [(_ROW[kind], off, v) for (kind, off), v in zip(TEMPLATES[template], values)]
    for k, (row, off, v) in enumerate(checks):
        if row == SYL and 0 <= off <= 1:
            return want, v, off, tuple(checks[:k] + checks[k + 1:]), None
    return want, None, 0, tuple(checks), tuple(values)


def _apply(rule, rows, positions, unjoinable):
    """Flip each boundary the compiled rule matches, left to right, so a
    match reads the flips made before it; returns the flipped boundaries.

    positions must hold the rule's anchor. Only a slot that holds the
    decision the rule flips from is flipped: a sentinel slot holds "-", so
    a match never leaves its sentence, for one sentence as for a corpus. A
    boundary next to a "_" syllable is never joined, so a split rule never
    finds one to flip.
    """
    want, anchor, off, checks, values = rule
    dec = rows[DEC]
    flips_from = _FLIPS_FROM[want]
    if anchor is None:
        # No template without an anchor reads a decision, so the matches
        # are known before the first flip.
        n = len(dec) - 1
        found = compress(range(1, n), map(values.__eq__, zip(
            *[rows[row][1 + o:n + o] for row, o, _ in checks])))
        checks = ()
    else:
        found = [p - off for p in positions.get(anchor, ())]
    flipped = []
    for q in found:
        if dec[q] == flips_from and q not in unjoinable:
            for row, o, v in checks:
                if rows[row][q + o] != v:
                    break
            else:
                dec[q] = want
                flipped.append(q)
    return flipped


class _CompiledRules:
    """A model's rules compiled for _apply, with the slot kinds they read and
    their anchor syllables."""

    __slots__ = ("rules", "kinds", "anchors")

    def __init__(self, rules):
        self.rules = tuple(_compile_rule(r.action, r.template, r.values) for r in rules)
        self.kinds = frozenset(kind for r in rules for kind, _ in TEMPLATES[r.template])
        self.anchors = frozenset(rule[1] for rule in self.rules if rule[1] is not None)


@dataclass(frozen=True)
class SegmenterModel:
    lexicon: Lexicon
    rules: tuple
    window_radius: int = 2

    @functools.cached_property
    def _compiled(self):
        return _CompiledRules(self.rules)


def _decisions_to_forms(syllables, dec):
    """The word forms of the syllables under a padded decision row."""
    n = len(syllables)
    bounds = [0, *compress(range(1, n), map("S".__eq__, dec[1:n])), n]
    return ["_".join(syllables[a:b]) for a, b in zip(bounds, bounds[1:])]


def segment(model, syllables):
    """Segment one syllable sequence into a Sentence of word tokens."""
    syllables = list(syllables)
    if not syllables:
        return Sentence.from_columns(())
    compiled = model._compiled
    rows, positions = _rows(model.lexicon, [syllables], compiled.kinds, compiled.anchors)
    if compiled.rules:
        unjoinable = _unjoinable(rows[SYL])
        for rule in compiled.rules:
            _apply(rule, rows, positions, unjoinable)
    return Sentence.from_columns(_decisions_to_forms(syllables, rows[DEC]))


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


# A decision row's values as the codes train_segmenter counts with.
_DECISION_CODE = {"J": 0, "S": 1, "-": 2}


def train_segmenter(corpus, window_radius=2, max_rules=200, on_rule=None):
    """Learn a SegmenterModel from gold-segmented sentences.

    corpus: list of sentences, each a list of word forms ("_"-joined
    syllables). The lexicon collects every gold word; rules are then learned
    greedily, each strictly reducing the corpus boundary-error count. The
    corpus is laid end to end once, by the row builder segment uses (_rows):
    one set of rows, a gold decision row beside it, one positions map and
    one set of unjoinable boundaries. Candidates are read from those rows,
    and each is tried by one _apply over them; a rejected one is undone in
    the live decision row.

    Each round ranks the candidates, the (action, template, values) found at
    a wrong boundary, by an estimate, and tries them best first until one
    lowers the error count. The estimate of a candidate is the number of
    wrong boundaries its pattern matches, minus the right ones, among those
    whose decision it would flip; ties go to the candidate whose first wrong
    boundary comes first in the corpus, then to template order. All of it
    is counted with arrays: each template's values at every boundary are
    numbered once (a slot that reads a decision adds the round's decision
    there as one more digit), and one bincount per template and round
    counts, for every number and flip direction, the wrong boundaries minus
    the right ones.
    """
    if window_radius < 0:
        raise ValueError(f"window radius must be >= 0, got {window_radius}")
    if max_rules < 0:
        raise ValueError(f"rule cap must be >= 0, got {max_rules}")
    gold_sentences = []
    words = []
    for k, sent in enumerate(corpus, start=1):
        sent = list(sent)
        if not sent:
            continue
        try:
            gold_sentences.append(words_to_decisions(sent))
        except DataError as exc:
            raise DataError(f"segmentation corpus sentence {k}: {exc}") from None
        words.extend(sent)
    if not gold_sentences:
        raise TrainingError("segmentation training corpus is empty")

    lexicon = Lexicon(tuple(w.split("_")) for w in words)
    templates = templates_for_radius(window_radius)
    slots = [[(_ROW[kind], off) for kind, off in TEMPLATES[tpl]] for tpl in templates]
    sentences = [syllables for syllables, _ in gold_sentences]
    rows, positions = _rows(lexicon, sentences, _ROW,
                            frozenset(s for syllables in sentences for s in syllables))
    unjoinable = _unjoinable(rows[SYL])

    # dec holds the codes of the live decision row, which follow each
    # accepted rule's flips, gold those of the gold row, and at the slot of
    # each boundary, in corpus order.
    dec = np.array(list(map(_DECISION_CODE.__getitem__, rows[DEC])))
    gold = np.array([_DECISION_CODE[g] for _, decisions in gold_sentences
                     for g in ("-", *("J" if d else "S" for d in decisions), "-", "-")])
    at = np.flatnonzero(gold < 2)
    # Each template's values at every boundary, numbered below len(at), and
    # the offsets of its slots that read a decision, whose values change.
    ids = {}
    digits = [np.array([ids.setdefault(v, len(ids)) for v in row]) for row in rows[:DEC]]
    codes = []
    for tpl_slots in slots:
        packed, _ = _tuple_codes(np.stack([digits[row][at + o] for row, o in tpl_slots
                                           if row != DEC]), len(ids))
        codes.append((np.unique(packed, return_inverse=True)[1],
                      [o for row, o in tpl_slots if row == DEC]))

    rules = []
    errors = int(np.count_nonzero(dec != gold))
    while errors > 0 and len(rules) < max_rules:
        # A join candidate meets the split boundaries (decision code 1) and
        # a split candidate the joined ones (0), so key = number * 2 + code.
        current = dec[at]
        wrong = current != gold[at]
        weight = np.where(wrong, 1.0, -1.0)
        wrong_at = np.flatnonzero(wrong)
        estimates, firsts, owners = [], [], []
        candidates = 0
        for t, (numbers, offsets) in enumerate(codes):
            for o in offsets:
                numbers = numbers * 3 + dec[at + o]
            keys = numbers * 2 + current
            keyed, first = np.unique(keys[wrong], return_index=True)
            candidates += len(keyed)
            estimate = np.bincount(keys, weights=weight)[keyed]
            positive = estimate > 0
            estimates.append(estimate[positive])
            firsts.append(first[positive])
            owners.append(np.full(np.count_nonzero(positive), t))
        estimates, firsts, owners = map(np.concatenate, (estimates, firsts, owners))
        ranked = np.lexsort((owners, firsts, -estimates))[:200]

        accepted = None
        tried = 0
        for k in ranked.tolist():
            tried += 1
            b = int(at[wrong_at[firsts[k]]])
            tpl = templates[owners[k]]
            action = "join" if dec[b] == 1 else "split"
            values = tuple(rows[row][b + o] for row, o in slots[owners[k]])
            rule = _compile_rule(action, tpl, values)
            flipped = _apply(rule, rows, positions, unjoinable)
            # Each flip rights a wrong boundary or wrongs a right one.
            right = int(np.count_nonzero(dec[flipped] == gold[flipped]))
            new_errors = errors + 2 * right - len(flipped)
            if new_errors < errors:
                accepted = TransformationRule(action, tpl, values, errors - new_errors)
                errors = new_errors
                dec[flipped] = 1 - dec[flipped]
                break
            live = rows[DEC]
            for q in flipped:
                live[q] = _FLIPS_FROM[live[q]]
        if accepted is None:
            logger.debug("rule round %d: %d candidate(s), %d estimated to help; none of "
                         "the %d tried removes an error", len(rules) + 1, candidates,
                         len(estimates), tried)
            break
        logger.debug("rule round %d: %d candidate(s), %d estimated to help; %d applied "
                     "and undone before %s %s was accepted, estimated at %d, removing %d "
                     "error(s)", len(rules) + 1, candidates, len(estimates), tried - 1,
                     accepted.action, accepted.template, estimates[k], accepted.score)
        rules.append(accepted)
        if on_rule is not None:
            on_rule(len(rules), accepted, errors)

    return SegmenterModel(lexicon=lexicon, rules=tuple(rules),
                          window_radius=window_radius)


def read_segmented_corpus(path):
    """One sentence per line, words space-separated, syllables "_"-joined."""
    with open(path, encoding="utf-8-sig") as fh:
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
        if _bad_entry(word):
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
        for (kind, _), value in zip(TEMPLATES[template], values):
            if value not in SLOT_VALUES.get(kind, (value,)):
                raise corrupt(f"a {kind} slot takes one of {', '.join(SLOT_VALUES[kind])}, "
                              f"found {value!r}")
        rules.append(rule)
    if line_no < len(lines) - 1 or lines[-1]:
        line_no += 1
        raise corrupt("unexpected content after the declared rules")
    return SegmenterModel(lexicon=Lexicon(words), rules=tuple(rules),
                          window_radius=radius)
