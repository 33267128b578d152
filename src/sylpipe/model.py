"""Annotation data types and the tab-separated six-column text format.

A token row carries: index, form, POS tag, NER label, head index, dependency
relation. Multi-syllable word forms join their syllables with "_". Unset
fields render as "_", except the NER column which renders "O".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

_NER_SHAPE = re.compile(r"O|[BI]-\S+")
_BAD_FORM_CHAR = re.compile(r"[ \t\n\r]")


class FormatError(ValueError):
    """Malformed six-column text; carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Token:
    """One word with its (possibly not yet assigned) annotation fields."""

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
        if self.ner_label is not None and not _NER_SHAPE.fullmatch(self.ner_label):
            raise ValueError(f"bad NER label {self.ner_label!r}")
        if self.head is not None:
            if self.head < 0:
                raise ValueError(f"head must be >= 0, got {self.head}")
            if self.head == self.index:
                raise ValueError(f"token {self.index} cannot head itself")


@dataclass(frozen=True)
class Sentence:
    """An ordered token sequence; indices are exactly 1..n.

    When every head is set the sentence must form a tree: exactly one token
    attached to the artificial root 0, and no cycles.
    """

    tokens: tuple[Token, ...]

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
            _check_acyclic(heads)

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]

    @property
    def forms(self):
        return [t.form for t in self.tokens]

    @property
    def pos_tags(self):
        return [t.pos_tag for t in self.tokens]

    @property
    def ner_labels(self):
        return [t.ner_label for t in self.tokens]

    @property
    def heads(self):
        return [t.head for t in self.tokens]

    @property
    def dep_labels(self):
        return [t.dep_label for t in self.tokens]

    def syllables(self):
        """All syllables in order (forms split on the "_" joiner)."""
        out = []
        for t in self.tokens:
            out.extend(t.form.split("_"))
        return out

    def with_pos_tags(self, tags):
        if len(tags) != len(self.tokens):
            raise ValueError("tag count does not match token count")
        return Sentence(replace(t, pos_tag=tag) for t, tag in zip(self.tokens, tags))

    def with_ner_labels(self, labels):
        if len(labels) != len(self.tokens):
            raise ValueError("label count does not match token count")
        return Sentence(replace(t, ner_label=lab) for t, lab in zip(self.tokens, labels))

    def with_parse(self, heads, dep_labels):
        if len(heads) != len(self.tokens) or len(dep_labels) != len(self.tokens):
            raise ValueError("head/label count does not match token count")
        return Sentence(replace(t, head=h, dep_label=l)
                        for t, h, l in zip(self.tokens, heads, dep_labels))

    def __str__(self):
        return to_six_column(self)


def _check_acyclic(heads):
    # heads: 1-based list, every entry set; 0 is the artificial root
    n = len(heads)
    state = [0] * (n + 1)  # 0 = unseen, 1 = on path, 2 = done
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


@dataclass(frozen=True)
class Document:
    """Raw input text plus its (possibly still empty) sentence list."""

    raw_text: str
    sentences: tuple[Sentence, ...] = field(default_factory=tuple)

    def __init__(self, raw_text, sentences=()):
        object.__setattr__(self, "raw_text", raw_text)
        object.__setattr__(self, "sentences", tuple(sentences))

    @classmethod
    def from_text(cls, raw_text):
        return cls(raw_text, ())

    def to_text(self):
        return dump_six_column(self.sentences)


def to_six_column(sentence):
    """Render one sentence as tab-separated six-column lines (no trailing newline)."""
    lines = []
    for t in sentence.tokens:
        lines.append("\t".join((
            str(t.index),
            t.form,
            t.pos_tag if t.pos_tag is not None else "_",
            t.ner_label if t.ner_label is not None else "O",
            str(t.head) if t.head is not None else "_",
            t.dep_label if t.dep_label is not None else "_",
        )))
    return "\n".join(lines)


def dump_six_column(sentences):
    """Render sentences as blank-line separated six-column blocks, trailing newline."""
    blocks = [to_six_column(s) for s in sentences if len(s)]
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def from_six_column(text):
    """Parse six-column text into sentences.

    Inverse of :func:`to_six_column`: "_" reads back as an unset POS/head/
    relation field. Raises :class:`FormatError` naming the offending line on
    wrong column counts, non-numeric index/head fields, or index gaps.
    """
    sentences = []
    rows = []
    block_start = None

    def flush(line_no):
        nonlocal rows, block_start
        if not rows:
            return
        try:
            sentences.append(Sentence(rows))
        except ValueError as exc:
            raise FormatError(str(exc), line=block_start) from exc
        rows = []
        block_start = None

    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush(line_no)
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            raise FormatError(f"expected 6 tab-separated columns, got {len(cols)}",
                              line=line_no)
        idx_s, form, pos, ner, head_s, dep = cols
        try:
            idx = int(idx_s)
        except ValueError:
            raise FormatError(f"non-numeric token index {idx_s!r}", line=line_no) from None
        if idx != len(rows) + 1:
            raise FormatError(f"token index {idx} breaks the 1..n sequence "
                              f"(expected {len(rows) + 1})", line=line_no)
        if head_s == "_":
            head = None
        else:
            try:
                head = int(head_s)
            except ValueError:
                raise FormatError(f"non-numeric head index {head_s!r}", line=line_no) from None
        try:
            token = Token(
                index=idx,
                form=form,
                pos_tag=None if pos == "_" else pos,
                ner_label=ner,
                head=head,
                dep_label=None if dep == "_" else dep,
            )
        except ValueError as exc:
            raise FormatError(str(exc), line=line_no) from exc
        if block_start is None:
            block_start = line_no
        rows.append(token)
    flush(None)
    return sentences


def read_six_column(path):
    with open(path, encoding="utf-8") as fh:
        return from_six_column(fh.read())


def write_six_column(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_six_column(sentences))
