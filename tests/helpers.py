"""Shared generators for randomized tests: models, sentences, trees, text."""

import json
import os
import random
import re
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from sylpipe import depparse, seqlabel
from sylpipe.model import Sentence, Token

FORMS = ["xe", "máy", "nhà", "sông", "núi", "trời", "đất", "cây", "hoa",
         "chim", "cá", "đi", "về", "lớn", "nhỏ", "ba", "mẹ", "em", "anh",
         "chị", "Hà", "Nội", "Việt", "Nam", "."]

POS_TAGS = ["N", "V", "A", "R", "E", "CH", "Np", "P", "M"]

RELATIONS = ["root", "sub", "dob", "nmod", "adv", "loc", "pob", "punct", "det"]

TOY_SEG_CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "data", "toy", "wseg.txt")

NER_LABELS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG",
              "B-MISC", "I-MISC"]


def random_form_sentence(rng, n=None, forms=FORMS, with_pos=False):
    if n is None:
        n = rng.randint(1, 8)
    tokens = []
    for i in range(n):
        tokens.append(Token(index=i + 1, form=rng.choice(forms),
                            pos_tag=rng.choice(POS_TAGS) if with_pos else None))
    return Sentence(tokens)


def random_linear_model(rng, labels, templates=None, forms=FORMS, lo=-5, hi=5):
    """Integer-weight model over features of the given forms (exact arithmetic)."""
    if templates is None:
        templates = seqlabel.make_templates(["form@0", "form@-1", "form@+1"])
    feature_index = {}
    probe = Sentence(Token(index=i + 1, form=f) for i, f in enumerate(forms))
    for i in range(len(forms)):
        for f in seqlabel.extract_features(templates, probe.tokens, i):
            feature_index.setdefault(f, len(feature_index))
    L = len(labels)
    F = len(feature_index)
    W = np.array([[rng.randint(lo, hi) for _ in range(L)] for _ in range(F)],
                 dtype=np.float64)
    T = np.array([[rng.randint(lo, hi) for _ in range(L)] for _ in range(L + 1)],
                 dtype=np.float64)
    return seqlabel.LinearModel(labels, templates, feature_index, W, T)


def random_annotated_sentence(rng, max_len=12):
    """A fully valid random Sentence: forms, optional POS, canonical NER, maybe a tree."""
    n = rng.randint(1, max_len)
    forms = [rng.choice(FORMS) for _ in range(n)]
    pos_tags = [rng.choice(POS_TAGS) if rng.random() < 0.8 else None
                for _ in range(n)]
    labels = random_bio_labels(rng, n)
    if rng.random() < 0.7:
        heads, deps = random_projective_heads(rng, n)
    else:
        heads = [None] * n
        deps = [None] * n
    return Sentence(
        Token(index=i + 1, form=forms[i], pos_tag=pos_tags[i],
              ner_label=labels[i], head=heads[i], dep_label=deps[i])
        for i in range(n))


def random_bio_labels(rng, n):
    labels = []
    current = None
    for _ in range(n):
        if current is not None and rng.random() < 0.5:
            labels.append(f"I-{current}")
            continue
        if rng.random() < 0.3:
            current = rng.choice(["PER", "LOC", "ORG", "MISC"])
            labels.append(f"B-{current}")
        else:
            current = None
            labels.append("O")
    return labels


def random_projective_heads(rng, n, relations=RELATIONS):
    """Uniform-ish random projective single-rooted tree over n tokens."""
    heads = [0] * (n + 1)
    labels = [None] * (n + 1)

    def build(lo, hi, head):
        if lo > hi:
            return
        m = rng.randint(lo, hi)
        heads[m] = head
        labels[m] = "root" if head == 0 else rng.choice(relations[1:])
        build(lo, m - 1, m)
        build(m + 1, hi, m)

    build(1, n, 0)
    return heads[1:], labels[1:]


def random_gold_tree(rng, n):
    heads, deps = random_projective_heads(rng, n)
    return Sentence(
        Token(index=i + 1, form=rng.choice(FORMS), pos_tag=rng.choice(POS_TAGS),
              head=heads[i], dep_label=deps[i])
        for i in range(n))


def random_parser_model(rng, relations=("root", "nmod", "sub", "dep"), lo=-5, hi=5):
    """Integer-weight parser model over a fixed synthetic feature inventory."""
    feature_index = {}
    # Touch a spread of states to populate the feature alphabet.
    probe_rng = random.Random(12345)
    for _ in range(60):
        sent = random_form_sentence(probe_rng, n=probe_rng.randint(1, 10),
                                    with_pos=True)
        state = depparse.ParserState(len(sent))
        while not state.is_terminal():
            for f in depparse.state_features(state, sent.tokens):
                feature_index.setdefault(f, len(feature_index))
            kinds = depparse.legal_kinds(state)
            kind = probe_rng.choice(sorted(kinds))
            label = "nmod" if kind in (depparse.LEFT_ARC, depparse.RIGHT_ARC) else None
            if kind == depparse.RIGHT_ARC and state.stack_top() == 0:
                label = "root"
            state.apply((kind, label))
    A = 2 * len(relations) + 2
    W = np.array([[rng.randint(lo, hi) for _ in range(A)]
                  for _ in range(len(feature_index))], dtype=np.float64)
    return depparse.ParserModel(sorted(relations), feature_index, W,
                                root_labels=("root",), root_label="root")


def check_tree(heads):
    """Independent single-root and acyclicity check over 1-based heads."""
    n = len(heads)
    roots = [i + 1 for i, h in enumerate(heads) if h == 0]
    if len(roots) != 1:
        return False
    for start in range(1, n + 1):
        seen = set()
        node = start
        while node != 0:
            if node in seen:
                return False
            seen.add(node)
            node = heads[node - 1]
    return True


def synthetic_raw_text(n_words, seed=42):
    """Deterministic plain text of roughly n_words words for throughput runs."""
    rng = random.Random(seed)
    with open(TOY_SEG_CORPUS, encoding="utf-8") as fh:
        vocab = sorted({w for line in fh for w in line.split()if w != "."})
    lines = []
    words = 0
    while words < n_words:
        n = rng.randint(12, 18)
        sent = [rng.choice(vocab) for _ in range(n)]
        lines.append(" ".join(w.replace("_", " ") for w in sent) + " .")
        words += n + 1
    return "\n".join(lines) + "\n"


def split_model_file(data):
    """A SEQ2/DEP2 model file as its lines up to the alphabet's end, and its weights."""
    head, _, weights = data.partition(b"\nWEIGHTS\n")
    return head.split(b"\n"), weights


def join_model_file(lines, weights, marker=b"WEIGHTS"):
    return b"\n".join(lines) + b"\n" + marker + b"\n" + weights


def _header_case(edit, message):
    def mutate(lines, weights):
        header = json.loads(lines[1])
        edit(header)
        lines[1] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return join_model_file(lines, weights), message
    return mutate


def _line_case(k, raw, message):
    def mutate(lines, weights):
        lines[k] = raw(lines)
        return join_model_file(lines, weights), message
    return mutate


def _count_beyond_file(extra):
    # The header counts extra features more than the file, which ends after
    # its last feature line.
    def mutate(lines, weights):
        F = len(lines) - 2
        header = json.loads(lines[1])
        header["feature_count"] = F + extra
        lines[1] = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return (b"\n".join(lines) + b"\n",
                f"line {F + 3}: alphabet ends after {F} of {F + extra} features")
    return mutate


# Layout faults of a SEQ2/DEP2 model file. Each maps the file's lines (magic,
# header, one per feature) and weight bytes to the broken file's bytes and
# what the loader must say inside "corrupt model file (...)".
CORRUPT_LAYOUTS = {
    "no-feature-count": _header_case(lambda h: h.pop("feature_count"),
                                     "header lacks 'feature_count'"),
    "negative-feature-count": _header_case(lambda h: h.update(feature_count=-1),
                                           "header field 'feature_count' is not a count"),
    "unknown-field": _header_case(lambda h: h.update(extra=1),
                                  "header has unknown fields ['extra']"),
    "malformed-json": _line_case(1, lambda lines: lines[1][:-1],
                                 "line 2 is not a JSON object"),
    "json-array": _line_case(1, lambda lines: b"[]", "line 2 is not a JSON object"),
    "repeated-feature": _line_case(3, lambda lines: lines[2], "line 4 repeats line 3"),
    "not-utf8": _line_case(2, lambda lines: b"form@0=\xff", "line 3 is not UTF-8"),
    "alphabet-cut": lambda lines, weights: (
        b"\n".join(lines[:4]) + b"\n" + lines[4][:2],
        f"line 5: alphabet ends after 2 of {len(lines) - 2} features"),
    "count-one-beyond-file": _count_beyond_file(1),
    "count-far-beyond-file": _count_beyond_file(10 ** 12),
    "no-weights-marker": lambda lines, weights: (
        join_model_file(lines, weights, marker=b"WEIGHT"),
        f"line {len(lines) + 1} is not the WEIGHTS marker"),
}


# The row-per-token Token and Sentence that the columnar Sentence replaced,
# kept as the oracle of what a sentence accepts and holds. Their only change
# since is the round-trip rule for POS tags and relations (_old_check_label).

_NER_SHAPE = re.compile(r"O|[BI]-\S+")
_BAD_FORM_CHAR = re.compile(r"[ \t\n\r]")
_BAD_LABEL_CHAR = re.compile(r"[\t\n\r]")


def _old_check_label(label):
    if label is not None and (label in ("_", "") or _BAD_LABEL_CHAR.search(label)):
        raise ValueError(f"bad label {label!r}")


@dataclass(frozen=True)
class OldToken:
    index: int
    form: str
    pos_tag: str | None = None
    ner_label: str | None = None
    head: int | None = None
    dep_label: str | None = None

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if not self.form:
            raise ValueError("token form must be non-empty")
        if _BAD_FORM_CHAR.search(self.form):
            raise ValueError(f"token form may not contain whitespace: {self.form!r}")
        _old_check_label(self.pos_tag)
        _old_check_label(self.dep_label)
        if self.ner_label is not None and not _NER_SHAPE.fullmatch(self.ner_label):
            raise ValueError(f"bad NER label {self.ner_label!r}")
        if self.head is not None:
            if self.head < 0:
                raise ValueError(f"head must be >= 0, got {self.head}")
            if self.head == self.index:
                raise ValueError(f"token {self.index} cannot head itself")


@dataclass(frozen=True)
class OldSentence:
    tokens: tuple

    def __init__(self, tokens):
        object.__setattr__(self, "tokens", tuple(tokens))
        self._validate()

    def _validate(self):
        n = len(self.tokens)
        for i, tok in enumerate(self.tokens, start=1):
            if tok.index != i:
                raise ValueError(f"token indices must be 1..{n} in order, "
                                 f"found index {tok.index} at position {i}")
            if tok.head is not None and tok.head > n:
                raise ValueError(f"token {i} head {tok.head} out of range 0..{n}")
        heads = [t.head for t in self.tokens]
        if n and all(h is not None for h in heads):
            roots = [t.index for t in self.tokens if t.head == 0]
            if len(roots) != 1:
                raise ValueError(f"expected exactly one root-attached token, got {roots}")
            _old_check_acyclic(heads)

    def with_pos_tags(self, tags):
        if len(tags) != len(self.tokens):
            raise ValueError("tag count does not match token count")
        return OldSentence(replace(t, pos_tag=tag) for t, tag in zip(self.tokens, tags))

    def with_ner_labels(self, labels):
        if len(labels) != len(self.tokens):
            raise ValueError("label count does not match token count")
        return OldSentence(replace(t, ner_label=lab) for t, lab in zip(self.tokens, labels))

    def with_parse(self, heads, dep_labels):
        if len(heads) != len(self.tokens) or len(dep_labels) != len(self.tokens):
            raise ValueError("head/label count does not match token count")
        return OldSentence(replace(t, head=h, dep_label=l)
                           for t, h, l in zip(self.tokens, heads, dep_labels))


def _old_check_acyclic(heads):
    n = len(heads)
    state = [0] * (n + 1)
    state[0] = 2
    for start in range(1, n + 1):
        node = start
        path = []
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = heads[node - 1]
        if state[node] == 1:
            raise ValueError(f"head links contain a cycle through token {node}")
        for v in path:
            state[v] = 2


def saved_bytes(save, model):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model")
        save(model, path)
        with open(path, "rb") as fh:
            return fh.read()


def trained(train, *args, **kwargs):
    """(model, on_epoch calls) of one training run."""
    calls = []
    model = train(*args, on_epoch=lambda *call: calls.append(call), **kwargs)
    return model, calls


def assert_trains_as_oracle(train, oracle_train, save, *args, **options):
    """train and oracle_train report the same epochs and save the same bytes."""
    model, calls = trained(train, *args, **options)
    expected, expected_calls = trained(oracle_train, *args, **options)
    assert calls == expected_calls
    assert saved_bytes(save, model) == saved_bytes(save, expected)
