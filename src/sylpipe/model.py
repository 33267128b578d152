"""Annotation data types and the tab-separated six-column text format.

A token row carries: index, form, POS tag, NER label, head index, dependency
relation. Multi-syllable word forms join their syllables with "_". Unset
fields render as "_", except the NER column which renders "O"; so a POS tag
or relation may not be "_", empty, or hold a tab or line break, which would
not read back as itself.

A Sentence stores its tokens as columns, one tuple per field, and nothing
else. The stages add a column each (with_pos_tags, with_ner_labels,
with_parse), share the columns they leave alone and check only the new one.
A Token read from a sentence is a view of its columns, built on each read.

Every corpus file is read one way: read_corpus opens it (UTF-8, a leading
byte-order mark dropped, NFC) and names the file in a FormatError its
parser raises; the text parsers take their text as given. tab_blocks splits
tab-separated text into blank-line blocks and checks each line's width, and
sentence_of_rows builds a sentence from index/head rows, for six-column and
CoNLL-X alike.
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
    """Malformed corpus text: the problem, its 1-based line number and, once
    read_corpus has read it from a file, the file's path. The message is
    "line N: <problem>", then the path."""

    def __init__(self, problem, line=None, path=None):
        message = problem if line is None else f"line {line}: {problem}"
        super().__init__(message if path is None else f"{message} (in {path})")
        self.problem = problem
        self.line = line
        self.path = path


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


def _check_ner_labels(labels):
    """check_ner_label over a column: once per distinct label, in order."""
    for label in dict.fromkeys(labels):
        check_ner_label(label)


def bio_may_follow(label, previous):
    """The BIO rule: whether the NER label may come right after previous,
    None at the start of a sentence. I-X comes only right after B-X or I-X."""
    return not label.startswith("I-") or previous in ("B" + label[1:], label)


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
    check the column they add. A sentence holds only its columns, and
    column(name) is the tuple of one field. sent[i], iteration and
    sent.tokens give Token views of the columns, built on each read and not
    kept: a kept view would hold a sentence's memory several times over.
    """

    __slots__ = ("_columns",)

    def __init__(self, tokens):
        tokens = tuple(tokens)
        n = len(tokens)
        for i, tok in enumerate(tokens, start=1):
            if tok.index != i:
                raise DataError(f"token indices must be 1..{n} in order, "
                                f"found index {tok.index} at position {i}")
        self._columns = tuple(tuple(getattr(t, name) for t in tokens) for name in FIELDS)
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
            _check_ner_labels(columns[2])
        if heads is not None:
            _check_heads(columns[3])
        if dep_labels is not None:
            _check_labels(columns[4], "relation")
        return cls._of(tuple(columns))

    @classmethod
    def _of(cls, columns):
        sent = object.__new__(cls)
        sent._columns = columns
        return sent

    def __len__(self):
        return len(self._columns[0])

    @property
    def tokens(self):
        return tuple(self)

    def __iter__(self):
        return map(_token_view, itertools.count(1), *self._columns)

    def __getitem__(self, i):
        if isinstance(i, slice):
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
        _check_ner_labels(labels)
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


def read_corpus(path, parse=str):
    """parse(text) of a corpus or input file: UTF-8 with a leading byte-order
    mark dropped, normalized to NFC. A FormatError that parse raises is
    raised again naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
        text = unicodedata.normalize("NFC", fh.read())
    try:
        return parse(text)
    except FormatError as exc:
        raise FormatError(exc.problem, exc.line, path) from exc


def tab_blocks(text, width, comments=False):
    """The blank-line separated blocks of tab-separated text, each an iterator
    over its (line number, fields) rows. A line without `width` fields raises
    FormatError at its line when the iterator reaches it, so row checks meet
    faults in line order. With comments, a "#" line is skipped but counted."""
    lines = enumerate(text.split("\n"), start=1)
    if comments:
        lines = (item for item in lines if not item[1].startswith("#"))
    for blank, block in itertools.groupby(lines, lambda item: not item[1].strip()):
        if not blank:
            yield (_tab_fields(line_no, line, width) for line_no, line in block)


def _tab_fields(line_no, line, width):
    fields = line.split("\t")
    if len(fields) != width:
        raise FormatError(f"expected {width} tab-separated columns, got {len(fields)}",
                          line=line_no)
    return line_no, fields


def checked_rows(rows, *checks):
    """The fields of a tab_blocks block's rows, each row's k-th field passed
    to checks[k]; a fault raises FormatError at its line."""
    out = []
    for line_no, fields in rows:
        try:
            for check, value in zip(checks, fields):
                check(value)
        except DataError as exc:
            raise FormatError(str(exc), line=line_no) from None
        out.append(fields)
    return out


def sentence_of_rows(rows, columns, unset=None):
    """The Sentence of a tab_blocks block whose rows carry an index and a head.

    columns gives the field positions of the index, form, POS tag, NER label,
    head and relation, None for a field the format lacks; a POS tag, head or
    relation equal to `unset` is not set. Indices and heads are ASCII digits
    without a leading zero, so they write back as read, and the indices are
    1..n. A field fault raises FormatError at its line, a tree fault at the
    block's first line."""
    tokens = []
    for line_no, fields in rows:
        index, form, pos_tag, ner_label, head, dep_label = (
            None if k is None else fields[k] for k in columns)
        pos_tag, head, dep_label = (None if v == unset else v
                                    for v in (pos_tag, head, dep_label))
        index = _index_of(index, "token index", line_no)
        if index != len(tokens) + 1:
            raise FormatError(f"token index {index} breaks the 1..n sequence "
                              f"(expected {len(tokens) + 1})", line=line_no)
        if head is not None:
            head = _index_of(head, "head index", line_no)
        if not tokens:
            first = line_no
        try:
            tokens.append(Token(index, form, pos_tag, ner_label, head, dep_label))
        except DataError as exc:
            raise FormatError(str(exc), line=line_no) from exc
    try:
        return Sentence(tokens)
    except DataError as exc:
        raise FormatError(str(exc), line=first) from exc


def _index_of(field, name, line_no):
    """The int of an index or head field, which must write back as read."""
    if not (field.isascii() and field.isdigit()):
        raise FormatError(f"non-numeric {name} {field!r}", line=line_no)
    if field[0] == "0" and len(field) > 1:
        raise FormatError(f"{name} {field!r} has a leading zero", line=line_no)
    return int(field)


def from_six_column(text):
    """Sentences of six-column text, taken as given: the inverse of
    to_six_column, where "_" reads back as an unset POS tag, head or relation.
    A fault raises FormatError naming its line (see sentence_of_rows)."""
    return [sentence_of_rows(rows, range(6), unset="_") for rows in tab_blocks(text, 6)]


def read_six_column(path):
    """from_six_column of a file read by read_corpus."""
    return read_corpus(path, from_six_column)


def write_six_column(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_six_column(sentences))
