"""Annotation data types and the tab-separated six-column text format.

A token row carries: index, form, POS tag, NER label, head index, dependency
relation. Multi-syllable word forms join their syllables with "_". Unset
fields render as "_", except the NER column which renders "O"; so a POS tag
or relation may not be "_", empty, or hold a tab or line break, which would
not read back as itself.

A Sentence stores its tokens as columns, one tuple per field. The stages
add a column each (with_pos_tags, with_ner_labels, with_parse), share the
columns they leave alone and check only the new one. A sentence built from
Tokens keeps them; any other gives a Token view of its columns on each read.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from dataclasses import dataclass, field

_NER_SHAPE = re.compile(r"O|[BI]-\S+")
_BAD_FORM_CHAR = re.compile(r"[ \t\n\r]")
_BAD_LABEL_CHAR = re.compile(r"[\t\n\r]")
# POS tags and relations that six-column text cannot hold: "_" reads back as
# unset, and an empty field as a missing one.
_UNWRITABLE_LABELS = ("_", "")

# Token fields in column order; a Sentence holds one tuple per field.
FIELDS = ("form", "pos_tag", "ner_label", "head", "dep_label")
_COLUMN = {name: k for k, name in enumerate(FIELDS)}


class DataError(ValueError):
    """Input data that breaks the data model: a token field, a sentence's
    shape or tree, a label or a word form."""


class FormatError(DataError):
    """Malformed six-column text; carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# One check per field, shared by Token and by the column checks of Sentence.

def _check_index(index):
    if index < 1:
        raise DataError(f"token index must be >= 1, got {index}")


def check_form(form):
    """A word form must be non-empty and hold no space, tab or line break."""
    if not form:
        raise DataError("token form must be non-empty")
    if _BAD_FORM_CHAR.search(form):
        raise DataError(f"token form may not contain whitespace: {form!r}")


def _check_forms(forms):
    """check_form over a column: one membership test and one search."""
    if "" in forms or _BAD_FORM_CHAR.search("".join(forms)):
        for form in forms:
            check_form(form)


def check_label(label, what):
    """A POS tag or relation must read back from six-column text as itself."""
    if label is not None and (label in _UNWRITABLE_LABELS or _BAD_LABEL_CHAR.search(label)):
        raise DataError(f"bad {what} {label!r}: six-column text cannot hold it")


def _check_labels(labels, what):
    """check_label over a column: two membership tests and one search."""
    if ("_" in labels or "" in labels
            or _BAD_LABEL_CHAR.search("".join(filter(None, labels)))):
        for label in labels:
            check_label(label, what)


def check_ner_label(label):
    """An NER label, when set, is O or a B- or I- marker and a type."""
    if label is not None and not _NER_SHAPE.fullmatch(label):
        raise DataError(f"bad NER label {label!r}")


def _check_head(index, head):
    if head is not None:
        if head < 0:
            raise DataError(f"head must be >= 0, got {head}")
        if head == index:
            raise DataError(f"token {index} cannot head itself")


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
        _check_index(self.index)
        check_form(self.form)
        check_label(self.pos_tag, "POS tag")
        check_ner_label(self.ner_label)
        _check_head(self.index, self.head)
        check_label(self.dep_label, "relation")


def _token_view(index, form, pos_tag, ner_label, head, dep_label):
    """A Token over fields that were checked when their column was."""
    token = object.__new__(Token)
    token.__dict__.update(index=index, form=form, pos_tag=pos_tag,
                          ner_label=ner_label, head=head, dep_label=dep_label)
    return token


def split_form(form):
    """The syllables of a word form: the form split on the "_" joiner, except
    that the form "_" is the one syllable "_"."""
    return [form] if form == "_" else form.split("_")


class Sentence:
    """An ordered token sequence; indices are exactly 1..n.

    When every head is set the sentence must form a tree: exactly one token
    attached to the artificial root 0, and no cycles.

    Sentence(tokens) and from_columns check every field; the with_* methods
    check the column they add. column(name) is the tuple of one field.
    sent[i], iteration and sent.tokens give the Tokens the sentence was built
    from, or else views of its columns, built on each read and not kept: a
    kept view would hold a sentence's memory several times over.
    """

    __slots__ = ("_columns", "_tokens")

    def __init__(self, tokens):
        tokens = tuple(tokens)
        n = len(tokens)
        for i, tok in enumerate(tokens, start=1):
            if tok.index != i:
                raise DataError(f"token indices must be 1..{n} in order, "
                                f"found index {tok.index} at position {i}")
        self._columns = tuple(tuple(getattr(t, name) for t in tokens) for name in FIELDS)
        self._tokens = tokens
        _check_heads(self._columns[3])

    @classmethod
    def from_columns(cls, forms, pos_tags=None, ner_labels=None, heads=None,
                     dep_labels=None):
        """A sentence from one value per token and field, checked as Token and
        Sentence(tokens) check them; a field given as None is unset throughout."""
        forms = tuple(forms)
        unset = (None,) * len(forms)
        columns = [forms]
        for values in (pos_tags, ner_labels, heads, dep_labels):
            columns.append(unset if values is None else _new_column(values, len(forms)))
        _check_forms(forms)
        if pos_tags is not None:
            _check_labels(columns[1], "POS tag")
        if ner_labels is not None:
            for label in columns[2]:
                check_ner_label(label)
        if heads is not None:
            _check_heads(columns[3])
        if dep_labels is not None:
            _check_labels(columns[4], "relation")
        return cls._of(tuple(columns))

    @classmethod
    def _of(cls, columns):
        sent = object.__new__(cls)
        sent._columns = columns
        sent._tokens = None
        return sent

    def __len__(self):
        return len(self._columns[0])

    @property
    def tokens(self):
        return self._tokens if self._tokens is not None else tuple(self)

    def __iter__(self):
        if self._tokens is not None:
            return iter(self._tokens)
        return map(_token_view, itertools.count(1), *self._columns)

    def __getitem__(self, i):
        if self._tokens is not None or isinstance(i, slice):
            return self.tokens[i]
        index = range(1, len(self) + 1)[i]
        return _token_view(index, *(column[index - 1] for column in self._columns))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self):
        return hash(self._columns)

    def __repr__(self):
        return f"Sentence(tokens={self.tokens!r})"

    def column(self, name):
        """The tuple of one field over the tokens, named as the Token field."""
        return self._columns[_COLUMN[name]]

    @property
    def forms(self):
        return list(self._columns[0])

    @property
    def pos_tags(self):
        return list(self._columns[1])

    @property
    def ner_labels(self):
        return list(self._columns[2])

    @property
    def heads(self):
        return list(self._columns[3])

    @property
    def dep_labels(self):
        return list(self._columns[4])

    def syllables(self):
        """All syllables in order (see split_form)."""
        out = []
        for form in self._columns[0]:
            out.extend(split_form(form))
        return out

    def with_pos_tags(self, tags):
        forms, _, labels, heads, deps = self._columns
        tags = _new_column(tags, len(forms), "tag")
        _check_labels(tags, "POS tag")
        return Sentence._of((forms, tags, labels, heads, deps))

    def with_ner_labels(self, labels):
        forms, tags, _, heads, deps = self._columns
        labels = _new_column(labels, len(forms), "label")
        for label in labels:
            check_ner_label(label)
        return Sentence._of((forms, tags, labels, heads, deps))

    def with_parse(self, heads, dep_labels):
        forms, tags, labels, _, _ = self._columns
        heads = _new_column(heads, len(forms), "head")
        deps = _new_column(dep_labels, len(forms), "relation")
        _check_heads(heads)
        _check_labels(deps, "relation")
        return Sentence._of((forms, tags, labels, heads, deps))

    def __str__(self):
        return to_six_column(self)


def _new_column(values, n, what="value"):
    if len(values) != n:
        raise DataError(f"{what} count does not match token count")
    return tuple(values)


def _check_heads(heads):
    """Token's check of each head, each in range 0..n, and a tree when all are set."""
    n = len(heads)
    for index, head in enumerate(heads, start=1):
        _check_head(index, head)
        if head is not None and head > n:
            raise DataError(f"token {index} head {head} out of range 0..{n}")
    if n and None not in heads:
        roots = [i for i, head in enumerate(heads, start=1) if head == 0]
        if len(roots) != 1:
            raise DataError(f"expected exactly one root-attached token, got {roots}")
        _check_acyclic(heads)


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
            raise DataError(f"head links contain a cycle through token {node}")
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
    return "\n".join(
        f"{i}\t{form}\t{'_' if tag is None else tag}\t{'O' if label is None else label}"
        f"\t{'_' if head is None else head}\t{'_' if dep is None else dep}"
        for i, form, tag, label, head, dep in zip(
            itertools.count(1), *(sentence.column(name) for name in FIELDS)))


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
    """from_six_column of a file, normalized to NFC as annotate's input is."""
    with open(path, encoding="utf-8-sig") as fh:
        return from_six_column(unicodedata.normalize("NFC", fh.read()))


def write_six_column(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_six_column(sentences))
