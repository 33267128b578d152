"""Greedy arc-eager transition-based dependency parser.

Transitions score through a multiclass linear model trained with the
averaged perceptron along static-oracle sequences. Decoding keeps the
output a single-rooted tree: arcs from the artificial root are restricted
to the root relation and to one dependent, and any tokens left unattached
at termination are attached afterwards (the first to the root if none was
chosen, the rest to the root token with a fallback relation).

parse_sentences decodes a document in lockstep: every unfinished sentence
takes one greedy transition per step, all of them scored by one gather
(_kernels.sum_rows, bit-identical to a row_sum per state) and masked by one
array operation, in groups of at most LOCKSTEP_SENTENCES sentences. The
masked argmax is legal, so it is applied by ParserState.advance, the
mutation half of ParserState.apply, without apply's legality checks. The
features of a state resolve to ids without building strings
(_CompiledStateFeatures): every value string in the model's alphabet is
interned; a one-atom template reads a list by value id, and a conjunction
maps the tuple of its atoms' value ids to a feature id. A feature
"<template>=<value>" of an n-atom template is registered under every split
of <value> at "|" into n parts (templates.alphabet_tuples, the reader the
taggers' key table uses too), because the string path joins the atom
values with "|"; so a lookup hits exactly when state_features' string is
in the alphabet, whatever the values contain.
The reference path stays on state_features and apply.

train_parser freezes its states once (_freeze): it walks each sentence's
static oracle and records per state the positions and buckets that
state_features reads. Each template is then a gather over columns of
interned value ids, and only its distinct value tuples become strings
(seqlabel.freeze_features), numbered in the order state_features would
first fire them. It keeps the sorted feature ids of every state, their
illegal actions from the table that decoding reads, and the gold actions.
The weights change only at an update, so an epoch scores all states of a
sentence in one sum_rows gather, finds the first state whose masked argmax
is not gold, updates there at the step it takes one state at a time, and
scores again only the states after it: a sentence without a mistake costs
one gather, and the model is the one that scoring each state alone trains,
bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import logging

import numpy as np

from . import _kernels
from ._kernels import NEG_INF
from .linear import AveragedWeights, ModelFormat, check_epochs, train_epochs
from .model import DataError, FormatError, Sentence, Token, check_label
from .seqlabel import TrainingError, freeze_features
from .templates import alphabet_tuples

logger = logging.getLogger(__name__)

SHIFT = "SHIFT"
LEFT_ARC = "LEFT-ARC"
RIGHT_ARC = "RIGHT-ARC"
REDUCE = "REDUCE"

FALLBACK_LABEL = "dep"
DEFAULT_ROOT_LABEL = "root"

_ROOT_VALUE = "<root>"
_NONE_VALUE = "<none>"
# The values of the distance bucket min(b0 - s0, 5), whose 0 never occurs,
# and of a valency bucket min(v, 3), by bucket.
_DISTANCES = (_NONE_VALUE, "1", "2", "3", "4", "5+")
_VALENCIES = ("0", "1", "2", "3+")


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

    def copy(self):
        other = ParserState.__new__(ParserState)
        other.n = self.n
        other.stack = list(self.stack)
        other.buffer_start = self.buffer_start
        other.heads = list(self.heads)
        other.labels = list(self.labels)
        other.lchild = list(self.lchild)
        other.rchild = list(self.rchild)
        other.lval = list(self.lval)
        other.rval = list(self.rval)
        other.root_child = self.root_child
        return other

    @property
    def buffer(self):
        return range(self.buffer_start, self.n + 1)

    def buffer_front(self):
        return self.buffer_start if self.buffer_start <= self.n else None

    def stack_top(self):
        return self.stack[-1] if self.stack else None

    def is_terminal(self):
        return self.buffer_start > self.n

    @property
    def arcs(self):
        return {(self.heads[d], d, self.labels[d])
                for d in range(1, self.n + 1) if self.heads[d] is not None}

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


def legal_transitions(state, relations):
    """All legal transitions, arc kinds expanded over the relation alphabet."""
    out = set()
    kinds = legal_kinds(state)
    if SHIFT in kinds:
        out.add((SHIFT, None))
    if REDUCE in kinds:
        out.add((REDUCE, None))
    for rel in relations:
        if LEFT_ARC in kinds:
            out.add((LEFT_ARC, rel))
        if RIGHT_ARC in kinds:
            out.add((RIGHT_ARC, rel))
    return out


def apply_transition(state, transition):
    """Functional transition application; raises IllegalTransition when illegal."""
    return state.copy().apply(transition)


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
    and train_parser check first.
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
        state.apply(t)


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
    def form(i):
        if i is None:
            return _NONE_VALUE
        if i == 0:
            return _ROOT_VALUE
        return tokens[i - 1].form

    def pos(i):
        if i is None:
            return _NONE_VALUE
        if i == 0:
            return _ROOT_VALUE
        tag = tokens[i - 1].pos_tag
        return tag if tag is not None else _NONE_VALUE

    def ner(i):
        if i is None:
            return _NONE_VALUE
        if i == 0:
            return _ROOT_VALUE
        lab = tokens[i - 1].ner_label
        return lab if lab is not None else _NONE_VALUE

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
        "s0p|b0p=" + s0p + "|" + b0p,
        "s0w|b0w=" + s0w + "|" + b0w,
        "s0w|b0p=" + s0w + "|" + b0p,
        "s0p|b0w=" + s0p + "|" + b0w,
        "b0p|b1p=" + b0p + "|" + b1p,
        "s0p|b0p|b1p=" + s0p + "|" + b0p + "|" + b1p,
        "s1p|s0p|b0p=" + pos(s1) + "|" + s0p + "|" + b0p,
        "s0lcp=" + (child_pos(state.lchild[s0]) if s0 is not None else _NONE_VALUE),
        "s0rcp=" + (child_pos(state.rchild[s0]) if s0 is not None else _NONE_VALUE),
        "b0lcp=" + (child_pos(state.lchild[b0]) if b0 is not None else _NONE_VALUE),
        "dist=" + dist,
        "s0p|b0p|dist=" + s0p + "|" + b0p + "|" + dist,
        "s0lv=" + (val(state.lval[s0]) if s0 is not None else _NONE_VALUE),
        "s0rv=" + (val(state.rval[s0]) if s0 is not None else _NONE_VALUE),
        "b0lv=" + (val(state.lval[b0]) if b0 is not None else _NONE_VALUE),
    ]
    if use_ner_features:
        s0n, b0n = ner(s0), ner(b0)
        feats.append("ner:s0n=" + s0n)
        feats.append("ner:b0n=" + b0n)
        feats.append("ner:s0n|b0n=" + s0n + "|" + b0n)
    return feats


# The templates of state_features, in its order, the three NER ones last.
# A template's value is the values of its atoms, the parts of its name after
# any "ner:", joined by "|".
_TEMPLATES = ("s0w", "s0p", "s1p", "s2p", "b0w", "b0p", "b1w", "b1p", "b2p",
              "s0p|b0p", "s0w|b0w", "s0w|b0p", "s0p|b0w", "b0p|b1p",
              "s0p|b0p|b1p", "s1p|s0p|b0p", "s0lcp", "s0rcp", "b0lcp", "dist",
              "s0p|b0p|dist", "s0lv", "s0rv", "b0lv",
              "ner:s0n", "ner:b0n", "ner:s0n|b0n")


class _CompiledStateFeatures:
    """A ParserModel's state_features, resolved to feature ids without strings.

    values interns every value string of the alphabet; a string outside it
    interns to -1. A one-atom template's table is a list by value id, whose
    last entry, -1, is the one a -1 reads; dist and the valencies, which
    take a handful of values, are lists by distance min(b0 - s0, 5) and by
    valency min(v, 3). A conjunction's table maps the tuple of its atoms'
    value ids to the feature id. So the tables are bounded by the alphabet
    and the number of values, and a lookup hits exactly when the feature
    string is in the alphabet.
    """

    def __init__(self, model):
        arities = [name.count("|") + 1 for name in _TEMPLATES]
        values = {}
        tables = [{} for _ in _TEMPLATES]
        for t, parts, j in alphabet_tuples(model.feature_index, _TEMPLATES, arities):
            key = tuple(values.setdefault(part, len(values)) for part in parts)
            tables[t][key if arities[t] > 1 else key[0]] = j
        self.values = values
        get = values.get
        self.root = get(_ROOT_VALUE, -1)
        self.none = get(_NONE_VALUE, -1)
        self.dist = [get(v, -1) for v in _DISTANCES]
        valency = [get(v, -1) for v in _VALENCIES]
        # The value ids a one-atom template's list holds an entry for, in order.
        entries = {"dist": self.dist, "s0lv": valency, "s0rv": valency, "b0lv": valency}
        self._tables = tuple(
            table.get if n > 1
            else [table.get(v, -1) for v in entries.get(name, range(len(values) + 1))]
            for name, n, table in zip(_TEMPLATES, arities, tables))
        self.illegal = _illegal_actions(len(model.relations), model.root_labels,
                                        model.action_index)

    def sentence_values(self, sentence, use_ner):
        """Value ids of a Sentence: (forms, tags, child tags, NER labels or None).

        Index 0 is the root, 1..n the tokens, and n + 1 and -1 a missing
        position; in the child tags, index 0 is a missing child.
        """
        get = self.values.get
        root, none = self.root, self.none

        def column(attr):
            return [root, *[none if v is None else get(v, -1)
                            for v in sentence.column(attr)], none]

        tags = column("pos_tag")
        return (column("form"), tags, [none, *tags[1:]],
                column("ner_label") if use_ner else None)

    def state_ids(self, state, values):
        """The id of each feature of state_features(state, ...), -1 if unknown.

        In template order, one id per template. The state must have a
        non-empty buffer; its stack always holds the root, which no
        transition pops.
        """
        forms, tags, child_tags, ners = values
        (s0w_, s0p_, s1p_, s2p_, b0w_, b0p_, b1w_, b1p_, b2p_, s0p_b0p, s0w_b0w,
         s0w_b0p, s0p_b0w, b0p_b1p, s0p_b0p_b1p, s1p_s0p_b0p, s0lcp_, s0rcp_,
         b0lcp_, dist_, s0p_b0p_dist, s0lv_, s0rv_, b0lv_, s0n_, b0n_,
         s0n_b0n) = self._tables
        none = self.none
        stack = state.stack
        depth = len(stack)
        s0 = stack[-1]
        b0 = state.buffer_start
        n = state.n
        s0w, s0p = forms[s0], tags[s0]
        b0w, b0p = forms[b0], tags[b0]
        b1p = tags[b0 + 1]
        s1p = tags[stack[-2]] if depth > 1 else none
        d = b0 - s0
        d = d if d <= 4 else 5
        lv, rv, blv = state.lval[s0], state.rval[s0], state.lval[b0]
        ids = [s0w_[s0w], s0p_[s0p], s1p_[s1p],
               s2p_[tags[stack[-3]] if depth > 2 else none],
               b0w_[b0w], b0p_[b0p], b1w_[forms[b0 + 1]], b1p_[b1p],
               b2p_[tags[b0 + 2] if b0 + 2 <= n else none],
               s0p_b0p((s0p, b0p), -1), s0w_b0w((s0w, b0w), -1),
               s0w_b0p((s0w, b0p), -1), s0p_b0w((s0p, b0w), -1),
               b0p_b1p((b0p, b1p), -1), s0p_b0p_b1p((s0p, b0p, b1p), -1),
               s1p_s0p_b0p((s1p, s0p, b0p), -1),
               s0lcp_[child_tags[state.lchild[s0]]],
               s0rcp_[child_tags[state.rchild[s0]]],
               b0lcp_[child_tags[state.lchild[b0]]], dist_[d],
               s0p_b0p_dist((s0p, b0p, self.dist[d]), -1),
               s0lv_[lv if lv <= 2 else 3],
               s0rv_[rv if rv <= 2 else 3],
               b0lv_[blv if blv <= 2 else 3]]
        if ners is not None:
            s0n, b0n = ners[s0], ners[b0]
            ids += [s0n_[s0n], b0n_[b0n], s0n_b0n((s0n, b0n), -1)]
        return ids


def _illegal_actions(n_relations, root_labels, action_index):
    """(4, A) table of the illegal actions of a state, by its _mask_code.

    Only for states with a non-empty buffer, the ones decoded and trained
    on, so SHIFT is always legal.
    """
    R = n_relations
    legal = np.zeros((4, 2 * R + 2), dtype=bool)
    legal[:, 0] = True
    for rel in root_labels:
        legal[0, action_index[(RIGHT_ARC, rel)]] = True
    legal[2:, 1 + R:1 + 2 * R] = True
    legal[2, 1:1 + R] = True
    legal[3, -1] = True
    return ~legal


def _mask_code(state):
    """Row of _illegal_actions for a state with a non-empty buffer.

    The same legality as _legal_action_mask: 0 and 1 have the root on top,
    with no root dependent yet or with one; 2 and 3 a token without or with
    a head.
    """
    s0 = state.stack[-1]
    if s0 == 0:
        return 0 if state.root_child is None else 1
    return 2 if state.heads[s0] is None else 3


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
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        if self.weights.shape != (len(self.feature_index), len(self.actions)):
            raise ValueError("weight shape mismatch")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        self.use_ner_features = bool(use_ner_features)
        self.root_labels = tuple(root_labels)
        if not set(self.root_labels) <= set(self.relations):
            raise ValueError("root labels must be relations")
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


def check_input(sentence, use_ner):
    """Raise DataError unless sentence carries what the parser reads."""
    if None in sentence.column("pos_tag"):
        raise DataError("parsing requires POS tags on every token")
    if use_ner and None in sentence.column("ner_label"):
        raise DataError("this parser uses NER features; run NER first")


# Sentences decoded together at most; bounds the (K, B, A) float64 gather
# of one step.
LOCKSTEP_SENTENCES = 256


def parse_sentence(model, sentence, use_ner_features=None):
    """Greedy parse; the result always has exactly one root and no cycles."""
    return parse_sentences(model, [sentence], use_ner_features)[0]


def parse_sentences(model, sentences, use_ner_features=None):
    """Greedy parses of the sentences, decoded in lockstep (see the module docstring).

    Empty sentences come back as given. Every other sentence is checked for
    POS tags (and NER labels when the NER features are used) before any is
    decoded. Tokens left without a head are attached by the fallback rule;
    their number is logged at DEBUG level when it is not zero.
    """
    use_ner = model.use_ner_features if use_ner_features is None else use_ner_features
    out = list(sentences)
    todo = []
    for k, sentence in enumerate(out):
        if len(sentence):
            check_input(sentence, use_ner)
            todo.append(k)
    repaired = 0
    for lo in range(0, len(todo), LOCKSTEP_SENTENCES):
        group = todo[lo:lo + LOCKSTEP_SENTENCES]
        states = _decode_lockstep(model, [out[k] for k in group], use_ner)
        for k, state in zip(group, states):
            repaired += _attach_headless(model, state)
            out[k] = out[k].with_parse(state.heads[1:], state.labels[1:])
    if repaired:
        logger.debug("fallback attached %d token(s) in %d sentence(s)",
                     repaired, len(todo))
    return out


def _decode_lockstep(model, sentences, use_ner):
    """Greedy end states of the sentences, one transition of each per step.

    The masked argmax is legal, so it is applied without apply's checks.
    """
    compiled = model._compiled
    states = [ParserState(len(s)) for s in sentences]
    values = [compiled.sentence_values(s, use_ner) for s in sentences]
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

    Row b is bit-identical to row_sum over state b's sorted feature ids:
    sorting each row of ids puts them in that order, and the -1s, which
    sort first, add nothing.
    """
    compiled = model._compiled
    ids = []
    for state, v in zip(states, values):
        ids += compiled.state_ids(state, v)
    ids = np.array(ids, dtype=np.intp).reshape(len(states), -1)
    ids.sort(axis=1)
    scores = _kernels.sum_rows(model.weights, ids.T)
    scores[compiled.illegal[[_mask_code(state) for state in states]]] = NEG_INF
    return scores


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


# The atoms of the templates: the value each reads and the field of a
# state's record (_freeze) it reads it at. The record holds the positions
# s0, s1, s2, b0, b1, b2, the left and right child of s0 and the left child
# of b0, then the distance bucket min(b0 - s0, 5) and the valency buckets
# min(v, 3) of s0's left and right and b0's left dependents.
_ATOMS = {"s0w": ("form", 0), "s0p": ("tag", 0), "s1p": ("tag", 1), "s2p": ("tag", 2),
          "b0w": ("form", 3), "b0p": ("tag", 3), "b1w": ("form", 4), "b1p": ("tag", 4),
          "b2p": ("tag", 5), "s0lcp": ("tag", 6), "s0rcp": ("tag", 7),
          "b0lcp": ("tag", 8), "dist": ("dist", 9), "s0lv": ("valency", 10),
          "s0rv": ("valency", 11), "b0lv": ("valency", 12), "s0n": ("ner", 0),
          "b0n": ("ner", 3)}


def _freeze(sentences, action_index, use_ner):
    """Walk the static oracle of each sentence and freeze its states.

    Returns (feature_index, ids, codes, gold, bounds): the alphabet of
    state_features' strings, numbered as they first fire state by state;
    the (K, S) array that sum_rows reads, column j the sorted ids of state
    j; each state's _mask_code and gold action id; and bounds, where
    sentence k's states start and end.

    The walk records of each state the positions and buckets that
    state_features reads, a position as its slot in columns of value ids:
    slot 0 of a sentence is the root, 1..n its tokens and n + 1 a missing
    position or child. Each template is then one gather per atom, and only
    its distinct value tuples become strings (seqlabel.freeze_features).
    """
    records = []
    codes = []
    gold = []
    bounds = [0]
    bases = []
    base = 0
    for sent in sentences:
        n = len(sent)
        none = n + 1
        for state, transition in _oracle_walk(sent):
            stack, lchild, lval = state.stack, state.lchild, state.lval
            s0 = stack[-1]
            b0 = state.buffer_start
            depth = len(stack)
            records += (s0, stack[-2] if depth > 1 else none,
                        stack[-3] if depth > 2 else none, b0, b0 + 1,
                        b0 + 2 if b0 + 2 <= n else none, lchild[s0] or none,
                        state.rchild[s0] or none, lchild[b0] or none, b0 - s0,
                        lval[s0], state.rval[s0], lval[b0])
            codes.append(_mask_code(state))
            gold.append(action_index[transition])
        bases += [base] * (len(gold) - bounds[-1])
        bounds.append(len(gold))
        base += n + 2
    S = len(gold)
    records = np.array(records, dtype=np.intp).reshape(S, 13)
    records[:, :9] += np.array(bases, dtype=np.intp)[:, None]
    np.minimum(records[:, 9:], [5, 3, 3, 3], out=records[:, 9:])

    # Value ids of the positions of every sentence, by slot, and of the buckets.
    slots = {table: list(itertools.chain.from_iterable(
        part for sent in sentences
        for part in ((_ROOT_VALUE,), sent.column(attr), (_NONE_VALUE,))))
        for table, attr in (("form", "form"), ("tag", "pos_tag"), ("ner", "ner_label"))
        if use_ner or table != "ner"}
    slots["dist"] = _DISTANCES
    slots["valency"] = _VALENCIES
    values = {v: k for k, v in enumerate(dict.fromkeys(
        itertools.chain.from_iterable(slots.values())))}
    tables = {table: np.fromiter(map(values.__getitem__, column), dtype=np.intp,
                                 count=len(column))
              for table, column in slots.items()}
    templates = _TEMPLATES if use_ner else _TEMPLATES[:-3]
    digits = {atom: tables[table][records[:, field]]
              for atom, (table, field) in _ATOMS.items() if table in tables}
    features, _, fired = freeze_features(
        templates, [[digits[atom] for atom in name.removeprefix("ner:").split("|")]
                    for name in templates], list(values), S)
    logger.debug("froze %d state(s) of %d template(s): %d distinct value(s) read, "
                 "%d feature(s)", S, len(templates), len(values), len(features))
    return (features, _kernels.pack_ids(fired), np.array(codes, dtype=np.intp),
            np.array(gold), bounds)


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
    feature_index, ids, codes, gold, bounds = _freeze(usable, action_index,
                                                      use_ner_features)
    illegal = _illegal_actions(len(relations), root_labels, action_index)[codes]
    per_sentence = [(ids[:, a:b], illegal[a:b], gold[a:b])
                    for a, b in zip(bounds, bounds[1:])]

    weights = AveragedWeights(len(feature_index), len(action_index))
    scored = [0, 0]  # gathers and rows of the epoch so far

    def learn(si, step):
        # The weights change only at an update, so all states after the
        # last one are scored ahead in one gather; row j of it equals
        # row_sum over state j's ids bit for bit. The first mistaken state
        # is updated at the step it would take one state at a time, and
        # only the states after it are scored again.
        ids, illegal, gold = per_sentence[si]
        S = len(gold)
        mistakes = 0
        j = 0
        while j < S:
            scores = _kernels.sum_rows(weights.W, ids[:, j:])
            scores[illegal[j:]] = NEG_INF
            pred = scores.argmax(axis=1)
            scored[0] += 1
            scored[1] += S - j
            wrong = np.flatnonzero(pred != gold[j:])
            if not len(wrong):
                break
            k = int(wrong[0])
            j += k
            row = ids[:, j]
            row = row[row >= 0]
            weights.update((row, gold[j]), (row, pred[k]), step + j + 1)
            mistakes += 1
            j += 1
        return mistakes, S - mistakes, S

    steps = [len(gold) for _, _, gold in per_sentence]
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


DEP1 = ModelFormat(
    b"SYLPIPE-DEP1\n",
    {"relations": "string list", "use_ner": "boolean", "root_labels": "string list",
     "root_label": "string", "fallback_label": "string"},
    lambda h: ((h["feature_count"], 2 * len(h["relations"]) + 2),))


def save_parser(model, path):
    DEP1.write(path, {
        "relations": model.relations,
        "use_ner": model.use_ner_features,
        "root_labels": list(model.root_labels),
        "root_label": model.root_label,
        "fallback_label": model.fallback_label,
    }, model.feature_index, (model.weights,))


def load_parser(path):
    header, feature_index, (weights,) = DEP1.read(path)
    return ParserModel(header["relations"], feature_index, weights,
                       use_ner_features=header["use_ner"],
                       root_labels=header["root_labels"],
                       root_label=header["root_label"],
                       fallback_label=header["fallback_label"])


def read_conllx(path):
    """10-column CoNLL-X-style import: ID, FORM, _, POS, _, _, HEAD, DEPREL, _, _."""
    sentences = []
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                if rows:
                    sentences.append(Sentence(rows))
                    rows = []
                continue
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise FormatError(f"expected 10 tab-separated columns, got {len(cols)}",
                                  line=line_no)
            try:
                idx = int(cols[0])
                head = int(cols[6])
            except ValueError:
                raise FormatError("non-numeric index or head", line=line_no) from None
            if idx != len(rows) + 1:
                raise FormatError(f"token index {idx} breaks the 1..n sequence",
                                  line=line_no)
            rows.append(Token(index=idx, form=cols[1], pos_tag=cols[3],
                              head=head, dep_label=cols[7]))
    if rows:
        sentences.append(Sentence(rows))
    return sentences
