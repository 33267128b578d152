"""Greedy arc-eager transition-based dependency parser.

Transitions score through a multiclass linear model trained with the
averaged perceptron along static-oracle sequences. Decoding keeps the
output a single-rooted tree: arcs from the artificial root are restricted
to the root relation and to one dependent, and any tokens left unattached
at termination are attached afterwards (the first to the root if none was
chosen, the rest to the root token with a fallback relation).

parse_sentences decodes a document in lockstep: every unfinished sentence
takes one greedy transition per step, in groups of at most
LOCKSTEP_SENTENCES sentences, and one gather and sum (_kernels.sum_rows)
scores and masks all of them. The array a model trains with holds its
feature rows, then one mask row per value of a state's mask field, 0.0
where an action is legal and -inf where it is not (_score_tail), then the
zero row that the padding id -1 reads. A legal score equals a row_sum over
the state's feature ids, since the integer weights sum exactly in any order
(linear.check_weights), and an illegal one is exactly -inf. The masked
argmax is legal, so it is applied by ParserState.advance, apply without its
legality checks.

Decoding sums fewer rows of a second array, built at a model's first
decode (_CompiledStateFeatures): the feature rows, then the block rows,
then the zero row. A block (_BLOCKS) is a group of small-domain fields of a
state: the dense codes of slots' POS tags or NER labels, the distance
bucket, the valency buckets and the mask field. It holds one row per tuple
of their codes: the sum of the feature rows that its templates fire there,
and of the mask row where the block holds the mask field. Such a sum is
exact, and -inf plus a finite weight is exactly -inf, so a state's scores
are the same sums over 14 rows instead of 25 (15 instead of 28 with NER
features): one per template that no block holds and one per block. The
default blocks take (10 * P**2 + 256) rows of A float64 for P tag codes
(the tags, <root>, <none> and one for any other tag) and A actions, about
10.5 MB for 40 tags and 70 actions, and N**2 more for N NER codes; the
decode array copies the feature rows too. Training and the
model file do not change: blocks exist only at decode time.

The features are written once, as tables (_TEMPLATES, _ATOMS, _FIELDS,
_BLOCKS), and a state's mask row is one more of its fields. The code that
reads them at a state is generated from the tables, as
collections.namedtuple and dataclasses build methods from source text:
straight-line code for _CompiledStateFeatures.state_ids, which resolves a
state to its decode rows without strings, and _state_record, the record
that training freezes. A parser reads the Token columns that its templates
read (_columns), so one without NER features reads no NER label.
state_features, written by hand, builds the same features as strings; it is
the oracle both are tested against, and _legal_action_mask the oracle of
the mask rows.

state_ids interns every value string of the templates that no block holds
in the model's alphabet: a one-atom template reads a list by value id, and
a conjunction maps the tuple of its atoms' value ids to a feature id. A
feature "<template>=<value>" is registered under its one reading, <value>
split at the tab that joins its atoms' values (templates.alphabet_tuples),
as the string path joins them; so a lookup hits exactly when
state_features' string is in the alphabet. The blocks read the alphabet
the same way. A template's name joins its atoms with "|" (s0p|b0p), a
joiner of names, not of values.

train_parser freezes its states once (_freeze): it walks each sentence's
static oracle and records each state's fields, its mask row's among them.
Each template is then a gather over columns of interned value ids, and only
its distinct value tuples become strings (seqlabel.freeze_features),
numbered in sorted string order. It scores each state's ids, its mask
row's last, with AveragedWeights that end in the model's mask rows and
zero row: it masks as decoding does, and the model keeps the averaged
array. The weights change only at an update, so an epoch scores all states
of a sentence in one sum_rows gather, updates at the first state whose
masked argmax is not gold, at the step it takes one state at a time, and
scores again only the states after it: the model is the one that scoring
each state alone trains, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import re

import numpy as np

from . import _kernels
from ._kernels import NEG_INF
from .linear import (AveragedWeights, ModelFormat, check_epochs, check_weights,
                     train_epochs, weight_rows)
from .model import check_label, read_corpus, sentence_of_rows, tab_blocks
from .seqlabel import DecodeError, TrainingError, freeze_features
from .templates import VALUE_JOINER, alphabet_tuples

logger = logging.getLogger(__name__)

SHIFT = "SHIFT"
LEFT_ARC = "LEFT-ARC"
RIGHT_ARC = "RIGHT-ARC"
REDUCE = "REDUCE"

FALLBACK_LABEL = "dep"
DEFAULT_ROOT_LABEL = "root"

_ROOT_VALUE = "<root>"
_NONE_VALUE = "<none>"


class IllegalTransition(ValueError):
    pass


class OracleError(ValueError):
    pass


class ParserState:
    """Stack/buffer/arc configuration over tokens 1..n (0 is the root)."""

    __slots__ = ("n", "stack", "buffer_start", "heads", "labels",
                 "lchild", "rchild", "lval", "rval", "root_child")

    def __init__(self, n):
        self.n = n
        self.stack = [0]
        self.buffer_start = 1
        self.heads = [None] * (n + 1)
        self.labels = [None] * (n + 1)
        self.lchild = [0] * (n + 1)
        self.rchild = [0] * (n + 1)
        self.lval = [0] * (n + 1)
        self.rval = [0] * (n + 1)
        self.root_child = None

    def buffer_front(self):
        return self.buffer_start if self.buffer_start <= self.n else None

    def stack_top(self):
        return self.stack[-1] if self.stack else None

    def is_terminal(self):
        return self.buffer_start > self.n

    def _add_arc(self, head, dep, label):
        self.heads[dep] = head
        self.labels[dep] = label
        if dep < head:
            if self.lchild[head] == 0 or dep < self.lchild[head]:
                self.lchild[head] = dep
            self.lval[head] += 1
        else:
            if dep > self.rchild[head]:
                self.rchild[head] = dep
            self.rval[head] += 1
        if head == 0:
            self.root_child = dep

    def apply(self, transition):
        kind, label = transition
        if kind not in legal_kinds(self):
            raise IllegalTransition(f"{kind} is not legal in this state")
        if kind in (LEFT_ARC, RIGHT_ARC):
            if label is None:
                raise IllegalTransition(f"{kind} requires a relation label")
        elif label is not None:
            raise IllegalTransition(f"{kind} takes no relation label")
        return self.advance(kind, label)

    def advance(self, kind, label):
        """apply without its checks, for a transition known to be legal."""
        if kind == SHIFT:
            self.stack.append(self.buffer_start)
            self.buffer_start += 1
        elif kind == LEFT_ARC:
            s = self.stack.pop()
            self._add_arc(self.buffer_start, s, label)
        elif kind == RIGHT_ARC:
            b = self.buffer_start
            self._add_arc(self.stack[-1], b, label)
            self.stack.append(b)
            self.buffer_start += 1
        else:  # REDUCE
            self.stack.pop()
        return self


def legal_kinds(state):
    kinds = set()
    has_buffer = state.buffer_start <= state.n
    s = state.stack_top()
    if has_buffer:
        kinds.add(SHIFT)
        if s is not None:
            kinds.add(RIGHT_ARC)
        if s is not None and s != 0 and state.heads[s] is None:
            kinds.add(LEFT_ARC)
    if s is not None and s != 0 and state.heads[s] is not None:
        kinds.add(REDUCE)
    return kinds


def find_crossing_arcs(heads):
    """First pair of crossing arcs in a head list (1-based heads incl. 0), or None."""
    arcs = []
    for dep, head in enumerate(heads, start=1):
        lo, hi = (head, dep) if head < dep else (dep, head)
        arcs.append((lo, hi, head, dep))
    arcs.sort()
    for i in range(len(arcs)):
        lo1, hi1, h1, d1 = arcs[i]
        for j in range(i + 1, len(arcs)):
            lo2, hi2, h2, d2 = arcs[j]
            if lo2 >= hi1:
                break
            if lo1 < lo2 < hi1 < hi2:
                return (h1, d1), (h2, d2)
    return None


def is_projective(heads):
    return find_crossing_arcs(heads) is None


def static_oracle(sentence):
    """Canonical arc-eager transition sequence reproducing the gold tree.

    Prefers LEFT-ARC, then RIGHT-ARC, then REDUCE when the buffer front has
    business left of the stack top, else SHIFT. Raises OracleError on
    unset heads and on non-projective input, naming the crossing arc pair.
    """
    heads = sentence.column("head")
    if None in heads:
        raise OracleError("gold tree has unset heads")
    crossing = find_crossing_arcs(heads)
    if crossing is not None:
        raise OracleError(f"non-projective tree: arcs {crossing[0]} and "
                          f"{crossing[1]} cross")
    return [t for _, t in _oracle_walk(sentence)]


def _oracle_walk(sentence):
    """Yield (state, transition) along static_oracle's sequence: the one
    state, as it stands before the transition, which is then applied.

    The gold tree must be projective with every head set, as static_oracle
    and train_parser check first. The oracle builds only legal transitions,
    so they are applied with advance, without apply's checks.
    """
    n = len(sentence)
    gold_head = [-1, *sentence.column("head")]
    gold_label = [None, *sentence.column("dep_label")]
    state = ParserState(n)
    while state.buffer_start <= n:
        s = state.stack[-1]
        b = state.buffer_start
        if s != 0 and gold_head[s] == b:
            t = (LEFT_ARC, gold_label[s])
        elif gold_head[b] == s:
            t = (RIGHT_ARC, gold_label[b])
        elif state.heads[s] is not None and any(
                gold_head[b] == k or (k != 0 and gold_head[k] == b)
                for k in state.stack[:-1]):
            t = (REDUCE, None)
        else:
            t = (SHIFT, None)
        yield state, t
        state.advance(*t)


def replay(transitions, n):
    """Run a transition sequence from the initial state; returns the end state."""
    state = ParserState(n)
    for t in transitions:
        state.apply(t)
    return state


def state_features(state, tokens, use_ner_features=False):
    """Feature strings for one parser configuration.

    tokens is the 0-based token tuple of the sentence; index 0 on the stack
    is the artificial root. NER-derived features all carry the "ner:" prefix
    so the with/without feature sets differ exactly in them.
    """
    def value(attr):
        def at(i):
            if i is None:
                return _NONE_VALUE
            if i == 0:
                return _ROOT_VALUE
            v = getattr(tokens[i - 1], attr)
            return v if v is not None else _NONE_VALUE
        return at

    form, pos, ner = value("form"), value("pos_tag"), value("ner_label")

    stack = state.stack
    s0 = stack[-1] if stack else None
    s1 = stack[-2] if len(stack) > 1 else None
    s2 = stack[-3] if len(stack) > 2 else None
    b0 = state.buffer_front()
    b1 = b0 + 1 if b0 is not None and b0 + 1 <= state.n else None
    b2 = b0 + 2 if b0 is not None and b0 + 2 <= state.n else None

    def child_pos(child):
        return pos(child) if child else _NONE_VALUE

    s0w, s0p = form(s0), pos(s0)
    b0w, b0p = form(b0), pos(b0)
    b1p = pos(b1)
    if s0 is not None and b0 is not None:
        d = b0 - s0
        dist = str(d) if d <= 4 else "5+"
    else:
        dist = _NONE_VALUE

    def val(v):
        return str(v) if v <= 2 else "3+"

    feats = [
        "s0w=" + s0w,
        "s0p=" + s0p,
        "s1p=" + pos(s1),
        "s2p=" + pos(s2),
        "b0w=" + b0w,
        "b0p=" + b0p,
        "b1w=" + form(b1),
        "b1p=" + b1p,
        "b2p=" + pos(b2),
        "s0p|b0p=" + VALUE_JOINER.join((s0p, b0p)),
        "s0w|b0w=" + VALUE_JOINER.join((s0w, b0w)),
        "s0w|b0p=" + VALUE_JOINER.join((s0w, b0p)),
        "s0p|b0w=" + VALUE_JOINER.join((s0p, b0w)),
        "b0p|b1p=" + VALUE_JOINER.join((b0p, b1p)),
        "s0p|b0p|b1p=" + VALUE_JOINER.join((s0p, b0p, b1p)),
        "s1p|s0p|b0p=" + VALUE_JOINER.join((pos(s1), s0p, b0p)),
        "s0lcp=" + (child_pos(state.lchild[s0]) if s0 is not None else _NONE_VALUE),
        "s0rcp=" + (child_pos(state.rchild[s0]) if s0 is not None else _NONE_VALUE),
        "b0lcp=" + (child_pos(state.lchild[b0]) if b0 is not None else _NONE_VALUE),
        "dist=" + dist,
        "s0p|b0p|dist=" + VALUE_JOINER.join((s0p, b0p, dist)),
        "s0lv=" + (val(state.lval[s0]) if s0 is not None else _NONE_VALUE),
        "s0rv=" + (val(state.rval[s0]) if s0 is not None else _NONE_VALUE),
        "b0lv=" + (val(state.lval[b0]) if b0 is not None else _NONE_VALUE),
    ]
    if use_ner_features:
        s0n, b0n = ner(s0), ner(b0)
        feats.append("ner:s0n=" + s0n)
        feats.append("ner:b0n=" + b0n)
        feats.append("ner:s0n|b0n=" + VALUE_JOINER.join((s0n, b0n)))
    return feats


# The templates of state_features, in its order, the three NER ones last.
# A template's value is the values of its atoms (_atoms) joined by
# templates.VALUE_JOINER; its name joins the atoms' names with "|".
# A parser reads them all if it has NER features, else all but the NER ones
# (_templates).
_TEMPLATES = ("s0w", "s0p", "s1p", "s2p", "b0w", "b0p", "b1w", "b1p", "b2p",
              "s0p|b0p", "s0w|b0w", "s0w|b0p", "s0p|b0w", "b0p|b1p",
              "s0p|b0p|b1p", "s1p|s0p|b0p", "s0lcp", "s0rcp", "b0lcp", "dist",
              "s0p|b0p|dist", "s0lv", "s0rv", "b0lv",
              "ner:s0n", "ner:b0n", "ner:s0n|b0n")

# The fields of a state with a non-empty buffer (its stack holds the root),
# each an expression over _STATE and the fields before it. s0, s1, s2 are
# the stack's top three, b0, b1, b2 the buffer's front three, s0lc, s0rc and
# b0lc the leftmost and rightmost child of s0 and the leftmost of b0, each a
# slot of the value columns: 0 the root, 1..n the tokens, n + 1 none. d is
# the distance bucket min(b0 - s0, 5), never 0, and s0l, s0r, b0l the
# valency buckets min(v, 3). mask is the state's mask row of _score_tail,
# the legality of _legal_action_mask: 0 and 1 have the root on top, with no
# root dependent yet or with one, 2 and 3 a token without or with a head.
_STATE = {"stack": "state.stack", "depth": "len(stack)", "n": "state.n", "none": "n + 1"}
_FIELDS = {
    "s0": "stack[-1]", "s1": "stack[-2] if depth > 1 else none",
    "s2": "stack[-3] if depth > 2 else none", "b0": "state.buffer_start",
    "b1": "b0 + 1", "b2": "b0 + 2 if b0 + 2 <= n else none",
    "s0lc": "state.lchild[s0] or none", "s0rc": "state.rchild[s0] or none",
    "b0lc": "state.lchild[b0] or none", "d": "d if (d := b0 - s0) <= 4 else 5",
    "s0l": "v if (v := state.lval[s0]) <= 2 else 3",
    "s0r": "v if (v := state.rval[s0]) <= 2 else 3",
    "b0l": "v if (v := state.lval[b0]) <= 2 else 3",
    "mask": "(0 if state.root_child is None else 1) if s0 == 0 else "
            "2 if state.heads[s0] is None else 3"}

# The column each atom reads and the field that indexes it: a Token
# attribute's value ids by slot (sentence_values), or a bucket's by bucket.
_ATOMS = {"s0w": ("form", "s0"), "s0p": ("pos_tag", "s0"), "s1p": ("pos_tag", "s1"),
          "s2p": ("pos_tag", "s2"), "b0w": ("form", "b0"), "b0p": ("pos_tag", "b0"),
          "b1w": ("form", "b1"), "b1p": ("pos_tag", "b1"), "b2p": ("pos_tag", "b2"),
          "s0lcp": ("pos_tag", "s0lc"), "s0rcp": ("pos_tag", "s0rc"),
          "b0lcp": ("pos_tag", "b0lc"), "dist": ("distance", "d"),
          "s0lv": ("valency", "s0l"), "s0rv": ("valency", "s0r"),
          "b0lv": ("valency", "b0l"), "s0n": ("ner_label", "s0"),
          "b0n": ("ner_label", "b0")}
_BUCKETS = {"distance": (_NONE_VALUE, "1", "2", "3", "4", "5+"),
            "valency": ("0", "1", "2", "3+")}
# The values of the mask field, one per mask row of _score_tail.
_MASKS = 4

# Groups of small-domain fields, each an atom or the mask field, whose
# templates decoding sums ahead into one row per tuple of their codes
# (_CompiledStateFeatures). A Token column atom's code is its value's dense
# code, a bucket atom's its bucket and the mask field's its value. A
# template whose atoms all lie in a block is folded into the first block
# that holds them; the mask row is folded into the block of the mask field.
_BLOCKS = (("s0p", "b0p", "dist"), ("b0p", "b1p"), ("s1p", "s2p"), ("s0lcp", "s0rcp"),
           ("b0lcp", "b2p"), ("s0lv", "s0rv", "b0lv", "mask"), ("s0n", "b0n"))


def _templates(use_ner):
    """The templates of a parser with NER features (use_ner) or without."""
    return tuple(name for name in _TEMPLATES if use_ner or not name.startswith("ner:"))


def _atoms(name):
    """The atoms of a template: the parts of its name after any "ner:"."""
    return name.removeprefix("ner:").split("|")


def _columns(templates):
    """The Token columns that the templates read, in the order they first do."""
    return tuple(dict.fromkeys(column for name in templates for atom in _atoms(name)
                               if (column := _ATOMS[atom][0]) not in _BUCKETS))


@functools.lru_cache(maxsize=4)
def _layout(templates):
    """(loose, blocks) of the templates: the indices of those that no block
    of _BLOCKS holds, then each block that holds a template or the mask
    field, as (its fields, the indices of its templates)."""
    members = [[] for _ in _BLOCKS]
    loose = []
    for k, name in enumerate(templates):
        held = [b for b, fields in enumerate(_BLOCKS) if set(_atoms(name)) <= set(fields)]
        (members[held[0]] if held else loose).append(k)
    return tuple(loose), tuple((fields, tuple(ks)) for fields, ks in zip(_BLOCKS, members)
                               if ks or "mask" in fields)


def _field_code(field):
    """(code, radix) of a block field, as expressions of state_ids: a Token
    column's codes by slot and the column's radix, or a bucket or the mask
    field and its number of values."""
    if field == "mask":
        return "mask", str(_MASKS)
    column, slot = _ATOMS[field]
    if column in _BUCKETS:
        return slot, str(len(_BUCKETS[column]))
    return f"{column}_codes[{slot}]", f"{column}_radix"


def _straight_line(named, lines):
    """lines, with the names of named, each an expression over the names
    before it, set in them: a name read once is written where it is read,
    in parentheses next to an operator, and one read more than once is set
    ahead of the first line that reads it and of the names set there."""
    lines = list(lines)
    for name, expr in reversed(named.items()):
        reads = [(k, m) for k, line in enumerate(lines)
                 for m in re.finditer(r"(?<![.\w])\w+", line) if m[0] == name]
        if len(reads) == 1:
            (k, m), = reads
            before, after = lines[k][:m.start()], lines[k][m.end():]
            if " " in expr and not (before.rstrip()[-1:] in "[(," and after.lstrip()[:1] in "]),"):
                expr = f"({expr})"
            lines[k] = before + expr + after
        elif reads:
            k = first = reads[0][0]
            while k and lines[k - 1].split(" = ")[0].strip() in named:
                k -= 1
            lines.insert(k, f"{re.match(' *', lines[first])[0]}{name} = {expr}")
    return lines


# The fields of a state in _FIELDS order: the record _freeze collects.
exec(compile("\n".join(["def state_record(state):", *_straight_line(
    {**_STATE, **_FIELDS}, ["    return (" + ", ".join(_FIELDS) + ")"])]),
    f"<{__name__} state_record>", "exec"), _generated := {})
_state_record = _generated["state_record"]


def _lookup_name(name):
    """The name that state_ids reads a loose template's lookup by."""
    return re.sub(r"\W", "_", name) + "_"


def _coded_columns(blocks):
    """The Token columns whose codes the blocks read, in the order they first do."""
    return tuple(dict.fromkeys(column for fields, _ in blocks for field in fields
                               if field != "mask"
                               and (column := _ATOMS[field][0]) not in _BUCKETS))


@functools.lru_cache(maxsize=4)
def _state_ids_code(templates):
    """(names, source, code) of state_ids over the templates, run where names
    are bound as _CompiledStateFeatures.bindings binds them."""
    loose, blocks = _layout(templates)
    coded = _coded_columns(blocks)
    names = [*(_lookup_name(templates[k]) for k in loose),
             *(f"block_{b}" for b in range(len(blocks))), *(f"{c}_radix" for c in coded)]
    found = []
    for k in loose:
        atoms = _atoms(templates[k])
        lookup = _lookup_name(templates[k])
        found.append(f"{lookup}(({', '.join(atoms)}), -1)" if len(atoms) > 1
                     else f"{lookup}[{atoms[0]}]")
    for b, (fields, _) in enumerate(blocks):
        (code, _), *rest = map(_field_code, fields)
        for digit, radix in rest:
            code = f"{f'({code})' if ' + ' in code else code} * {radix} + {digit}"
        found.append(f"block_{b} + {code}")
    reads = [*_columns([templates[k] for k in loose]), *(f"{c}_codes" for c in coded)]
    body = [f"    [{', '.join(reads)}] = values",
            "\n".join(["    ids = [", *(f"        {e}," for e in found), "    ]"])]
    named = {**_STATE, **_FIELDS, **{a: "{}[{}]".format(*ca) for a, ca in _ATOMS.items()}}
    source = "\n".join([
        "def state_ids(state, values):",
        '    """The rows of a state in the decode array: the feature id of each',
        "    template that no block holds, -1 if unknown, in template order, then",
        '    the row of each block at the state\'s codes."""',
        *_straight_line(named, body), "    return ids\n"])
    return names, source, compile(source, f"<{__name__} state_ids>", "exec")


class _CompiledStateFeatures:
    """A ParserModel's state_features, resolved to rows without strings.

    A template that no block of _BLOCKS holds reads only Token columns (the
    blocks hold every template over a bucket) and is read as the model's
    feature rows are: values interns every value string of these templates
    in the model's alphabet, and a one-atom template reads a list by value
    id (its last entry, -1, is read by the value id -1 of a string outside
    the alphabet), a conjunction a dict.get by its atoms' value ids, of the
    Token columns in columns.

    A block holds one row per tuple of its fields' codes: the sum of the
    feature rows that its templates fire at those codes, and of the mask
    row at the mask field's code where the block has that field. The codes
    of a Token column (codes, by value) number the values that the folded
    templates read of it in the alphabet, in sorted order, <root> and
    <none> among them; one more code stands for every other value, which
    fires none of them. A block's row is then the exact sum of the rows
    that these templates and the mask give the state (linear.check_weights),
    so a state sums one row per loose template and one per block. blocks
    holds each block's fields, template names and first row.

    rows, the read-only decode array, holds the model's feature rows, then
    the block rows, then the zero row that the id -1 reads; it is built on
    the first decode, from the model at hand, while training and the model
    file keep the feature rows and mask rows alone. state_ids is
    straight-line code generated from the tables (source holds its text,
    bindings the values it reads by name): it gives a state's rows. The
    hand-written state_features is the oracle it is tested against.
    """

    def __init__(self, model):
        templates = _templates(model.use_ner_features)
        loose, blocks = _layout(templates)
        arities = [len(_atoms(name)) for name in templates]
        values = {}
        tables = {k: {} for k in loose}
        folded = {k: [] for _, ks in blocks for k in ks}
        for t, parts, j in alphabet_tuples(model.feature_index, templates, arities):
            if t in tables:
                key = tuple(values.setdefault(part, len(values)) for part in parts)
                tables[t][key if arities[t] > 1 else key[0]] = j
            else:
                folded[t].append((parts, j))
        self.values = values
        lookups = [tables[k].get if arities[k] > 1 else
                   [tables[k].get(v, -1) for v in range(len(values) + 1)] for k in loose]
        self.columns = _columns([templates[k] for k in loose])

        coded = {column: {_ROOT_VALUE, _NONE_VALUE} for column in _coded_columns(blocks)}
        for k, features in folded.items():
            for i, atom in enumerate(_atoms(templates[k])):
                if (column := _ATOMS[atom][0]) in coded:
                    coded[column].update(parts[i] for parts, _ in features)
        self.codes = {column: {v: c for c, v in enumerate(sorted(seen))}
                      for column, seen in coded.items()}

        def radix(field):
            if field == "mask":
                return _MASKS
            column = _ATOMS[field][0]
            return len(_BUCKETS[column]) if column in _BUCKETS else len(self.codes[column]) + 1

        def code(atom, part):
            column = _ATOMS[atom][0]
            if column not in _BUCKETS:
                return self.codes[column][part]
            return _BUCKETS[column].index(part) if part in _BUCKETS[column] else None

        def grid(fields, shape, k):
            # The feature id that template k fires at each tuple of codes,
            # -1 where it fires none, over the fields that it reads.
            atoms = _atoms(templates[k])
            dims = [fields.index(atom) for atom in atoms]
            ids = np.full([size if i in dims else 1 for i, size in enumerate(shape)], -1,
                          dtype=np.intp)
            for parts, j in folded[k]:
                at = [0] * len(fields)
                for i, atom, part in zip(dims, atoms, parts):
                    at[i] = code(atom, part)
                if None not in at:
                    ids[tuple(at)] = j
            return ids

        F, A = model.weights.shape
        shapes = [tuple(map(radix, fields)) for fields, _ in blocks]
        bases = list(itertools.accumulate(map(math.prod, shapes), initial=F))
        rows = np.empty((bases[-1] + 1, A))
        rows[:F] = model.weights
        rows[-1] = 0.0
        for (fields, ks), shape, base in zip(blocks, shapes, bases):
            grids = [grid(fields, shape, k) for k in ks]
            if "mask" in fields:
                grids.append(np.arange(F, F + _MASKS).reshape(
                    [_MASKS if field == "mask" else 1 for field in fields]))
            block = rows[base:base + math.prod(shape)].reshape(*shape, A)
            block[...] = model._rows[grids[0]]
            for ids in grids[1:]:
                block += model._rows[ids]
        rows.flags.writeable = False
        self.rows = rows
        self.blocks = tuple((fields, tuple(templates[k] for k in ks), base)
                            for (fields, ks), base in zip(blocks, bases))

        names, self.source, code = _state_ids_code(templates)
        self.bindings = dict(zip(names, [
            *lookups, *bases[:-1],
            *(len(codes) + 1 for codes in self.codes.values())]))
        exec(code, namespace := dict(self.bindings))
        self.state_ids = namespace["state_ids"]

    def sentence_values(self, sentence):
        """Value ids of a Sentence by slot (0 the root, 1..n the tokens, n + 1
        none), a list per column of columns, then its codes by slot, a list
        per column of codes. A column that some token lacks is -1 at every
        slot, which no table knows, and the other code, so none of its
        features fire; after check_input, only the NER column of a sentence
        without NER labels is such a column."""
        get = self.values.get
        root, none = get(_ROOT_VALUE, -1), get(_NONE_VALUE, -1)
        ids = [[-1] * (len(column) + 2) if None in column
               else [root, *map(get, column, itertools.repeat(-1)), none]
               for column in map(sentence.column, self.columns)]
        for column, codes in self.codes.items():
            column = sentence.column(column)
            other = len(codes)
            ids.append([other] * (len(column) + 2) if None in column else
                       [codes[_ROOT_VALUE], *map(codes.get, column, itertools.repeat(other)),
                        codes[_NONE_VALUE]])
        return tuple(ids)


@functools.lru_cache(maxsize=16)
def _score_tail(relations, root_labels):
    """The rows that a parser scores with after its F feature rows, read-only.

    Row F + c adds 0.0 to each legal and -inf to each illegal action of a
    state whose mask field (_FIELDS) is c, a state with a non-empty buffer,
    where SHIFT is legal; the last row, which the padding id -1 reads, is zero.
    Refuses root labels outside the relations. Takes tuples; loading a model
    builds the rows twice, for the reader and for the model: they are cached.
    """
    if not set(root_labels) <= set(relations):
        raise ValueError("root labels must be relations")
    R = len(relations)
    tail = np.full((_MASKS + 1, 2 * R + 2), NEG_INF)
    tail[:, 0] = 0.0
    tail[0, [1 + R + relations.index(rel) for rel in root_labels]] = 0.0
    tail[2:4, 1 + R:1 + 2 * R] = 0.0
    tail[2, 1:1 + R] = 0.0
    tail[3, -1] = 0.0
    tail[4] = 0.0
    tail.flags.writeable = False
    return tail


class ParserModel:
    """Multiclass linear model over (feature, transition) pairs."""

    def __init__(self, relations, feature_index, weights, use_ner_features=False,
                 root_labels=(DEFAULT_ROOT_LABEL,), root_label=DEFAULT_ROOT_LABEL,
                 fallback_label=FALLBACK_LABEL):
        self.relations = list(relations)
        if not self.relations or len(set(self.relations)) != len(self.relations):
            raise ValueError("relation alphabet must be non-empty and duplicate-free")
        for relation in (*self.relations, root_label, fallback_label):
            check_label(relation, "relation")
        self.actions = _actions(self.relations)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.feature_index = dict(feature_index)
        weights = np.asarray(weights, dtype=np.float64)
        F = len(self.feature_index)
        if weights.shape != (F, len(self.actions)):
            raise ValueError("weight shape mismatch")
        self.use_ner_features = bool(use_ner_features)
        self.root_labels = tuple(root_labels)
        if root_label not in self.root_labels:
            raise ValueError(f"root label {root_label!r} is not one of the root labels "
                             f"{list(self.root_labels)}")
        # The array _lockstep_scores reads: the feature rows, the mask rows
        # and the zero row.
        self._rows = weight_rows(weights, _score_tail(tuple(self.relations),
                                                      self.root_labels))
        self.weights = self._rows[:F]
        # A state sums one row per template; its mask row is 0.0 or -inf.
        check_weights(len(_templates(self.use_ner_features)), self.weights)
        self.root_label = root_label
        self.fallback_label = fallback_label

    def feature_ids(self, feats):
        index = self.feature_index
        ids = {index[f] for f in feats if f in index}
        return np.asarray(sorted(ids), dtype=np.int64)

    def action_mask(self, state):
        """Legal-action mask incl. the single-root decode constraint."""
        return _legal_action_mask(state, len(self.relations), self.root_labels,
                                  self.action_index)

    @functools.cached_property
    def _compiled(self):
        return _CompiledStateFeatures(self)


def _actions(relations):
    """Fixed tie-break order: SHIFT, LEFT-ARCs, RIGHT-ARCs, REDUCE; labels in
    alphabet order inside each arc block."""
    return ([(SHIFT, None)] + [(LEFT_ARC, rel) for rel in relations]
            + [(RIGHT_ARC, rel) for rel in relations] + [(REDUCE, None)])


def _legal_action_mask(state, n_relations, root_labels, action_index):
    # Arcs from the artificial root only carry a root relation and only
    # while the root has no dependent yet; everything else follows
    # legal_kinds. Keeps greedy output single-rooted.
    mask = np.zeros(2 * n_relations + 2, dtype=bool)
    kinds = legal_kinds(state)
    if SHIFT in kinds:
        mask[0] = True
    if LEFT_ARC in kinds:
        mask[1:1 + n_relations] = True
    if RIGHT_ARC in kinds:
        if state.stack_top() == 0:
            if state.root_child is None:
                for rel in root_labels:
                    mask[action_index[(RIGHT_ARC, rel)]] = True
        else:
            mask[1 + n_relations:1 + 2 * n_relations] = True
    if REDUCE in kinds:
        mask[-1] = True
    return mask


def check_input(sentence, use_ner, number=None):
    """Raises DecodeError, naming the sentence by its 1-based document
    number, if a token lacks a POS tag or, for a parser with NER features
    (use_ner), if only some tokens have an NER label. Such a parser reads a
    sentence's NER labels when every token has one and parses it without
    them when none has (_CompiledStateFeatures.sentence_values)."""
    if None in sentence.column("pos_tag"):
        raise DecodeError("parsing requires POS tags on every token", number)
    labels = sentence.column("ner_label")
    if use_ner and None in labels and any(labels):
        raise DecodeError("this parser reads NER labels; only some tokens have one", number)


# Sentences decoded together at most; bounds the (K, B, A) float64 gather
# of one step, K the 14 or 15 rows of a state.
LOCKSTEP_SENTENCES = 256


def parse_sentence(model, sentence):
    """Greedy parse; the result always has exactly one root and no cycles."""
    return parse_sentences(model, [sentence])[0]


def parse_sentences(model, sentences):
    """Greedy parses of the sentences, decoded in lockstep (see the module docstring).

    Empty sentences come back as given. Every other sentence is checked
    (check_input) before any is decoded: it needs POS tags, and a parser
    trained with NER features reads its NER labels when every token has
    one, parses it without them when none has, and refuses it when only
    some have, raising DecodeError naming the sentence; a parser without NER
    features reads no NER label. Tokens left without a head are attached by
    the fallback rule; their number, and that of the sentences that had
    any, is logged at DEBUG level when it is not zero.
    """
    out = list(sentences)
    todo = [k for k, sentence in enumerate(out) if len(sentence)]
    for k in todo:
        check_input(out[k], model.use_ner_features, k + 1)
    repaired = []  # the headless tokens of each sentence that had any
    for lo in range(0, len(todo), LOCKSTEP_SENTENCES):
        group = todo[lo:lo + LOCKSTEP_SENTENCES]
        states = _decode_lockstep(model, [out[k] for k in group])
        for k, state in zip(group, states):
            count = _attach_headless(model, state)
            if count:
                repaired.append(count)
            out[k] = out[k].with_parse(state.heads[1:], state.labels[1:])
    if repaired:
        logger.debug("fallback attached %d token(s) in %d sentence(s)",
                     sum(repaired), len(repaired))
    return out


def _decode_lockstep(model, sentences):
    """Greedy end states of the sentences, one transition of each per step.

    The masked argmax is legal, so it is applied without apply's checks.
    """
    states = [ParserState(len(s)) for s in sentences]
    values = list(map(model._compiled.sentence_values, sentences))
    actions = model.actions
    active = range(len(states))
    while active:
        scores = _lockstep_scores(model, [states[j] for j in active],
                                  [values[j] for j in active])
        still = []
        for j, a in zip(active, scores.argmax(axis=1).tolist()):
            state = states[j].advance(*actions[a])
            if state.buffer_start <= state.n:
                still.append(j)
        active = still
    return states


def _lockstep_scores(model, states, values):
    """(B, A) transition scores of B states, illegal ones -inf.

    Row b equals row_sum over state b's feature ids and its mask row's:
    state_ids gives the rows of the decode array that sum to it, a loose
    template's feature id, -1 reading the zero row, and each block's row
    (see the module docstring). All B states' ids are read in one pass.
    """
    compiled = model._compiled
    ids = np.fromiter(itertools.chain.from_iterable(map(compiled.state_ids, states, values)),
                      dtype=np.intp)
    return _kernels.sum_rows(compiled.rows, ids.reshape(len(states), -1).T)


def _attach_headless(model, state):
    """Attach the tokens left without a head; returns how many there were."""
    heads = state.heads
    labels = state.labels
    headless = [i for i in range(1, state.n + 1) if heads[i] is None]
    count = len(headless)
    root = state.root_child
    if root is None:
        root = headless.pop(0)
        heads[root] = 0
        labels[root] = model.root_label
    for i in headless:
        heads[i] = root
        labels[i] = model.fallback_label
    return count


def _lift_to_projective(heads):
    """Head-lifting until projective; returns new heads or None if stuck.

    A crossing arc's dependent moves to its grandparent. Lifts that would
    make the dependent a second root-child are not taken.
    """
    heads = list(heads)
    guard = len(heads) * len(heads) + 10
    while guard > 0:
        guard -= 1
        crossing = find_crossing_arcs(heads)
        if crossing is None:
            return heads
        lifted = False
        for h, d in (crossing[1], crossing[0]):
            if h == 0:
                continue  # arcs from the root cannot be lifted
            grand = heads[h - 1]
            if grand == 0 or grand == d:
                continue
            heads[d - 1] = grand
            lifted = True
            break
        if not lifted:
            return None
    return None


def projectivize(sentence):
    """Pseudo-projective copy of a gold sentence (labels kept), or None."""
    lifted = _lift_to_projective(sentence.column("head"))
    if lifted is None:
        return None
    return sentence.with_parse(lifted, sentence.column("dep_label"))


def _freeze(sentences, action_index, use_ner):
    """Walk the static oracle of each sentence and freeze its states.

    Returns (feature_index, ids, gold, bounds): the alphabet of
    state_features' strings, numbered in sorted order; the (K, S) array
    that sum_rows reads, column j the ids of state j in template order, -1
    where a template fires none, and its mask row's F + mask in the last
    row, as state_ids gives them; each state's gold action id; and bounds,
    where sentence k's states start and end.

    The walk records each state's fields (_state_record), a position as its
    slot in a column of value ids that lays the sentences end to end. Each
    template is then one gather per atom, and only its distinct value
    tuples become strings (seqlabel.freeze_features).
    """
    records = []
    gold = []
    bounds = [0]
    bases = []
    base = 0
    for sent in sentences:
        for state, transition in _oracle_walk(sent):
            records += _state_record(state)
            gold.append(action_index[transition])
        bases += [base] * (len(gold) - bounds[-1])
        bounds.append(len(gold))
        base += len(sent) + 2
    S = len(gold)
    records = np.array(records, dtype=np.intp).reshape(S, len(_FIELDS))
    bases = np.array(bases, dtype=np.intp)

    # The value columns: each Token column the templates read, of every
    # sentence by slot, and each bucket's values.
    templates = _templates(use_ner)
    slots = {column: list(itertools.chain.from_iterable(
                 part for sent in sentences
                 for part in ((_ROOT_VALUE,), sent.column(column), (_NONE_VALUE,))))
             for column in _columns(templates)}
    slots.update(_BUCKETS)
    values = {v: k for k, v in enumerate(dict.fromkeys(
        itertools.chain.from_iterable(slots.values())))}
    tables = {column: np.fromiter(map(values.__getitem__, slot), dtype=np.intp,
                                  count=len(slot))
              for column, slot in slots.items()}
    digits = {atom: tables[column][records[:, list(_FIELDS).index(field)]
                                   + (0 if column in _BUCKETS else bases)]
              for atom, (column, field) in _ATOMS.items() if column in tables}
    features, fired = freeze_features(
        templates, [[digits[atom] for atom in _atoms(name)] for name in templates],
        list(values), S)
    logger.debug("froze %d state(s) of %d template(s): %d distinct value(s) read, "
                 "%d feature(s)", S, len(templates), len(values), len(features))
    ids = np.column_stack([fired, len(features) + records[:, list(_FIELDS).index("mask")]])
    return features, ids.T, np.array(gold), bounds


def train_parser(treebank, epochs=10, shuffle_seed=1, use_ner_features=False,
                 nonprojective="skip", on_epoch=None):
    """Averaged perceptron over static-oracle transition sequences.

    Non-projective sentences are skipped (default) or pseudo-projectivized
    by head-lifting when nonprojective="lift"; the skip count is logged.
    """
    check_epochs(epochs)
    treebank = [s for s in treebank if len(s)]
    if not treebank:
        raise TrainingError("treebank is empty")
    if nonprojective not in ("skip", "lift"):
        raise ValueError(f"bad nonprojective mode {nonprojective!r}")
    if use_ner_features:
        for sent in treebank:
            if None in sent.column("ner_label"):
                raise TrainingError("use_ner_features needs NER labels on every "
                                    "training token")
    for sent in treebank:
        if None in sent.column("head") or None in sent.column("dep_label"):
            raise TrainingError("treebank sentence with unset heads or relations")
        if None in sent.column("pos_tag"):
            raise TrainingError("treebank sentence with unset POS tags")

    usable = []
    skipped = 0
    for sent in treebank:
        if is_projective(sent.column("head")):
            usable.append(sent)
            continue
        if nonprojective == "lift":
            lifted = projectivize(sent)
            if lifted is not None:
                usable.append(lifted)
                continue
        skipped += 1
    if skipped:
        logger.info("skipped %d non-projective sentence(s) out of %d",
                    skipped, len(treebank))
    if not usable:
        raise TrainingError("no projective sentences left to train on")

    relations = sorted({rel for sent in usable for rel in sent.column("dep_label")})
    root_counts = {}
    for sent in usable:
        for head, rel in zip(sent.column("head"), sent.column("dep_label")):
            if head == 0:
                root_counts[rel] = root_counts.get(rel, 0) + 1
    root_labels = tuple(sorted(root_counts))
    root_label = max(sorted(root_counts), key=lambda r: root_counts[r])

    action_index = {a: i for i, a in enumerate(_actions(relations))}
    feature_index, ids, gold, bounds = _freeze(usable, action_index, use_ner_features)
    per_sentence = [(ids[:, a:b], gold[a:b]) for a, b in zip(bounds, bounds[1:])]

    weights = AveragedWeights(len(feature_index), _score_tail(tuple(relations), root_labels))
    scored = [0, 0]  # gathers and rows of the epoch so far

    def learn(si, step):
        # The weights change only at an update, so all states after the
        # last one are scored and masked ahead in one gather. The first
        # mistaken state is updated on its feature ids, all but the last, at
        # the step it would take one state at a time; the rest are rescored.
        ids, gold = per_sentence[si]
        S = len(gold)
        mistakes = 0
        j = 0
        while j < S:
            pred = _kernels.sum_rows(weights.W, ids[:, j:]).argmax(axis=1)
            scored[0] += 1
            scored[1] += S - j
            wrong = np.flatnonzero(pred != gold[j:])
            if not len(wrong):
                break
            k = int(wrong[0])
            j += k
            row = ids[:-1, j]
            row = row[row >= 0]
            weights.update((row, gold[j]), (row, pred[k]), step + j + 1)
            mistakes += 1
            j += 1
        return mistakes, S - mistakes, S

    steps = [len(gold) for _, gold in per_sentence]
    states = sum(steps)

    def epoch_done(epoch, mistakes, accuracy):
        if scored[0]:
            logger.debug("epoch %d: %d gather(s) scored %d row(s) for %d state(s)",
                         epoch, scored[0], scored[1], states)
            scored[:] = [0, 0]
        if on_epoch is not None:
            on_epoch(epoch, mistakes, accuracy)

    step = train_epochs((weights,), steps, epochs, shuffle_seed, learn, epoch_done)

    return ParserModel(relations, feature_index, weights.averaged(step),
                       use_ner_features=use_ner_features,
                       root_labels=root_labels, root_label=root_label)


DEP3 = ModelFormat(
    b"SYLPIPE-DEP3\n",
    {"relations": "string list", "use_ner": "boolean", "root_labels": "string list",
     "root_label": "string", "fallback_label": "string"},
    lambda h: ((h["feature_count"], 2 * len(h["relations"]) + 2),),
    lambda h: (_score_tail(tuple(h["relations"]), tuple(h["root_labels"])),))


def save_parser(model, path):
    DEP3.write(path, {
        "relations": model.relations,
        "use_ner": model.use_ner_features,
        "root_labels": list(model.root_labels),
        "root_label": model.root_label,
        "fallback_label": model.fallback_label,
    }, model.feature_index, (model.weights,))


def load_parser(path):
    """Read a model written by save_parser; a refusal names the file first
    (ModelFormat.load)."""
    return DEP3.load(path, lambda header, feature_index, arrays: ParserModel(
        header["relations"], feature_index, *arrays, use_ner_features=header["use_ner"],
        root_labels=header["root_labels"], root_label=header["root_label"],
        fallback_label=header["fallback_label"]))


def parse_conllx(text):
    """Sentences of 10-column CoNLL-X-style text, taken as given: ID, FORM, _,
    POS, _, _, HEAD, DEPREL, _, _. A line starting "#" is a comment. A fault
    raises FormatError naming its line, a sentence's its first line."""
    return [sentence_of_rows(rows, (0, 1, 3, None, 6, 7))
            for rows in tab_blocks(text, 10, comments=True)]


def read_conllx(path):
    """parse_conllx of a file read by model.read_corpus."""
    return read_corpus(path, parse_conllx)
