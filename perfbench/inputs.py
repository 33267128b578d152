"""Seeded input generators for the benchmark workloads.

Every unit of work is a pure function of (workload, seed, unit index), so a
seed always gives byte-identical inputs and any unit can be rebuilt on demand.
The generators read only the toy corpora, never the program: each text comes
with the syllables and the sentence count a correct annotator must return,
worked out independently of sylpipe's own tokenizer.
"""

from __future__ import annotations

import os
import random
import unicodedata
from dataclasses import dataclass

from sylpipe.model import Sentence, Token, read_six_column

# Pieces for syllables that look like the toy language but occur in no toy
# word, so the lexicon, the feature index and every per-type cache miss them.
_ONSETS = ("b", "c", "ch", "d", "đ", "g", "gh", "h", "k", "kh", "l", "m", "n",
           "ng", "nh", "p", "ph", "qu", "r", "s", "t", "th", "tr", "v", "x")
_NUCLEI = ("a", "à", "á", "ả", "ã", "ạ", "ă", "ằ", "ắ", "â", "ầ", "ấ", "e", "è",
           "é", "ê", "ề", "ế", "i", "ì", "í", "o", "ò", "ó", "ô", "ồ", "ố", "ơ",
           "ờ", "ớ", "u", "ù", "ú", "ư", "ừ", "ứ", "y", "ý", "ươ", "ưở", "iê", "uô")
_CODAS = ("", "", "c", "ch", "m", "n", "ng", "nh", "p", "t", "i", "o", "u")

# Abbreviations from the segmenter's guard list; a period after them is not
# a sentence end even when a capitalised word follows.
_ABBREVIATIONS = ("TS", "Tp", "GS", "ThS", "PGS")

_TERMINALS = (".", ".", ".", ".", ".", ".", "?", "!")


def _nfc(text):
    return unicodedata.normalize("NFC", text)


def _capitalise(syllable):
    return syllable[0].upper() + syllable[1:]


@dataclass(frozen=True)
class Unit:
    """One request: raw text plus what a correct annotation must reproduce."""

    text: str
    syllables: tuple
    sentences: int
    words: int  # generated words, before segmentation
    path: str | None = None  # file holding the text, for file-to-file units


class Vocabulary:
    """Known words of the toy segmentation corpus and a novel-syllable maker."""

    def __init__(self, root):
        words = set()
        with open(os.path.join(root, "tests", "data", "toy", "wseg.txt"),
                  encoding="utf-8") as fh:
            for line in fh:
                for w in _nfc(line).split():
                    if all(s.isalpha() for s in w.split("_")):
                        words.add(tuple(w.split("_")))
        self.words = sorted(words)
        self.known_syllables = frozenset(s.lower() for w in self.words for s in w)
        # Capitalised multi-syllable words serve as names after an abbreviation.
        self.names = [w for w in self.words if w[0][0].isupper()]

    def novel_syllable(self, rng):
        while True:
            syl = _nfc(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS))
            if syl not in self.known_syllables:
                return syl


class _TextWriter:
    """Accumulates tokens with their spacing, the expected syllables and counts."""

    def __init__(self):
        self.parts = []
        self.syllables = []
        self.sentences = 0
        self.words = 0

    def word(self, syllables):
        for s in syllables:
            self.parts.append(" " + s)
            self.syllables.append(s)
        self.words += 1

    def attached(self, token):
        self.parts.append(token)
        self.syllables.append(token)

    def end_sentence(self, terminal):
        self.attached(terminal)
        self.sentences += 1

    def newline(self):
        self.parts.append("\n")

    def unit(self):
        text = "".join(self.parts).replace("\n ", "\n").lstrip(" ")
        return Unit(text, tuple(self.syllables), self.sentences, self.words)


def _sentence(rng, vocab, out, n_words, novel_share=0.0, abbrev_share=0.0,
              number_share=0.0):
    """Append one sentence of n_words words, capitalised and terminated."""
    for i in range(n_words):
        r = rng.random()
        if i and r < abbrev_share and i + 1 < n_words:
            out.word((rng.choice(_ABBREVIATIONS),))
            out.attached(".")
            out.word(rng.choice(vocab.names))
            continue
        if i and r < abbrev_share + number_share:
            out.word((_number(rng),))
            continue
        if rng.random() < novel_share:
            word = [vocab.novel_syllable(rng) for _ in range(rng.choice((1, 1, 2)))]
        else:
            word = list(rng.choice(vocab.words))
        if i == 0:
            word[0] = _capitalise(word[0])
        out.word(word)
    out.end_sentence(rng.choice(_TERMINALS))


def _number(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return f"{rng.randint(1, 999)}.{rng.randint(0, 999):03d},{rng.randint(1, 9)}"
    if kind == 1:
        return f"{rng.randint(1, 99)},{rng.randint(1, 9)}"
    return str(rng.randint(1, 2030))


def _bulk_length(rng):
    r = rng.random()
    if r < 0.15:
        return rng.randint(2, 4)      # headlines
    if r < 0.50:
        return rng.randint(5, 12)
    if r < 0.85:
        return rng.randint(13, 30)
    return rng.randint(31, 60)


def _rng(workload, seed, index):
    return random.Random(f"sylpipe-perfbench:{workload}:{seed}:{index}")


def bulk_document(vocab, seed, index, n_words):
    """A document of exactly n_words known words; several sentences per line."""
    rng = _rng("bulk_doc", seed, index)
    out = _TextWriter()
    left = n_words
    while left > 0:
        for _ in range(rng.randint(1, 5)):
            n = min(_bulk_length(rng), left)
            _sentence(rng, vocab, out, n)
            left -= n
            if left == 0:
                break
        out.newline()
    return out.unit()


def short_request(vocab, seed, index):
    """One to three short sentences on one line; about a fifth of the words unseen."""
    rng = _rng("short_requests", seed, index)
    out = _TextWriter()
    for _ in range(rng.randint(1, 3)):
        _sentence(rng, vocab, out, rng.randint(4, 16), novel_share=0.2)
    return out.unit()


def segment_line(vocab, seed, index, n_words):
    """One long line of many sentences with abbreviations, numbers, unseen syllables."""
    rng = _rng("segment_only", seed, index)
    out = _TextWriter()
    while out.words < n_words:
        _sentence(rng, vocab, out, rng.randint(8, 30), novel_share=0.15,
                  abbrev_share=0.04, number_share=0.05)
    return out.unit()


@dataclass(frozen=True)
class TrainingCorpus:
    """Gold sentences resampled from the toy treebank, in each task's format."""

    segmentation: list
    pos: list
    ner: list
    treebank: list
    tokens: int
    toy: list  # each distinct toy sentence once


def training_corpus(root, seed, n_tokens):
    """Every toy sentence once, then seeded draws until n_tokens, shuffled.

    Keeping each toy sentence guarantees the toy convergence levels hold, so
    trained models can be checked against them.
    """
    toy = read_six_column(os.path.join(root, "tests", "data", "toy", "parse.conll"))
    rng = _rng("train_models", seed, 0)
    sentences = list(toy)
    tokens = sum(len(s) for s in sentences)
    while tokens < n_tokens:
        s = rng.choice(toy)
        sentences.append(s)
        tokens += len(s)
    rng.shuffle(sentences)
    return TrainingCorpus(
        segmentation=[s.forms for s in sentences],
        pos=[(Sentence(Token(index=t.index, form=t.form) for t in s), s.pos_tags)
             for s in sentences],
        ner=[Sentence(Token(index=t.index, form=t.form, pos_tag=t.pos_tag,
                            ner_label=t.ner_label) for t in s)
             for s in sentences],
        treebank=sentences,
        tokens=tokens,
        toy=toy)
