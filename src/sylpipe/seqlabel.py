"""Linear-chain sequence labeling engine shared by the POS and NER annotators.

Scoring is emission + adjacent-label transition weights with a virtual start
label. Decoding is Viterbi over the dense lattice, one sentence at a time
(viterbi_decode) or a whole document at once (tag_sentences); training is
the averaged structured perceptron. A brute-force decoder over all label
sequences serves as the test oracle.

Decoding resolves features to ids without building a string per position
(_CompiledFeatures): templates of a single attribute atom through per-value
tables, and all others, conjunctions and lone isfirst/islast atoms, through
one sorted int64 key table of their atoms' interned value ids, looked up for
a whole document with one np.searchsorted. Training freezes its alphabet
without a string per position either (_freeze): each atom reads each
distinct attribute value once, the interned value ids of every template's
atoms over the whole corpus pack into exact integer keys, and only each
distinct (template, value tuple) becomes a string (freeze_features), in the
order extract_features would first fire it. Both read an atom's values
through its templates.ATOMS entry and a document's places and offsets
through one _Layout, pack value ids with _tuple_codes and their ids for
sum_rows with _kernels.pack_ids. reference_emission_matrix stays on the
feature strings, the oracle of both.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import threading

import numpy as np

from . import _kernels
from ._kernels import NEG_INF
from .linear import (AveragedWeights, ModelFormat, check_epochs, check_weights,
                     train_epochs, weight_rows)
from .model import DataError, Sentence, bio_may_follow, check_label, check_ner_label
# The template names stay importable from here, where they always were.
from .templates import (ATOMS, BOUNDARY_LEFT, BOUNDARY_RIGHT,  # noqa: F401
                        FeatureTemplate, alphabet_tuples, compile_atom, extract_features,
                        make_templates, value_splits, word_shape)

logger = logging.getLogger(__name__)


class DecodeError(DataError):
    """A sentence a decoder cannot annotate: no legal label sequence, or input
    without a field the model reads. `sentence` is its 1-based number in a
    document decode (tag_sentences and the NER and parser batches), else None."""

    def __init__(self, message, sentence=None):
        super().__init__(message)
        self.sentence = sentence


class TrainingError(DataError):
    pass


def bio_transition_mask(labels):
    """The (L + 1, L) legal (previous, current) label pairs under the BIO rule
    (model.bio_may_follow); row L is the virtual start position."""
    return np.array([[bio_may_follow(label, previous) for label in labels]
                     for previous in [*labels, None]], dtype=bool)


def _check_alphabet(labels, bio_constrained):
    """Each label must read back from six-column text as itself and, in a
    BIO-constrained alphabet, be of NER label shape (model.check_ner_label)."""
    for label in labels:
        check_label(label, "label")
        if bio_constrained:
            check_ner_label(label)


def _tails(L):
    """The rows a tagger keeps after its emission and transition weights (weight_rows)."""
    return np.zeros((1, L)), np.zeros((0, L))


def _masked_transitions(transition_weights, mask):
    """(transitions, start): copies of the (L + 1, L) weights' label rows and
    start row, -inf where the mask (None for none) forbids."""
    L = transition_weights.shape[1]
    trans = transition_weights[:L].copy()
    start = transition_weights[L].copy()
    if mask is not None:
        trans[~mask[:L]] = NEG_INF
        start[~mask[L]] = NEG_INF
    return trans, start


class LinearModel:
    """Feature weights plus label alphabet for Viterbi-decoded labeling.

    The weights and alphabet never change after training. Decoding fills a
    per-word-type cache (see _CompiledFeatures) that is bounded by the
    model's feature alphabet, not by the traffic; each entry is written once
    and whole, so threads may decode with one model concurrently.
    """

    def __init__(self, labels, templates, feature_index, emission_weights,
                 transition_weights, bio_constrained=False, induced_pairs=(),
                 gazetteer=None):
        self.labels = list(labels)
        if not self.labels or len(set(self.labels)) != len(self.labels):
            raise ValueError("label alphabet must be non-empty and duplicate-free")
        _check_alphabet(self.labels, bio_constrained)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.templates = list(templates)
        self.feature_index = dict(feature_index)
        emission_weights = np.asarray(emission_weights, dtype=np.float64)
        self.transition_weights = np.ascontiguousarray(transition_weights, dtype=np.float64)
        F, L = len(self.feature_index), len(self.labels)
        if emission_weights.shape != (F, L):
            raise ValueError("emission weight shape mismatch")
        if self.transition_weights.shape != (L + 1, L):
            raise ValueError("transition weight shape mismatch")
        # The emissions sum_rows reads: the feature rows, then the zero row.
        self._rows = weight_rows(emission_weights, _tails(L)[0])
        self.emission_weights = self._rows[:F]
        check_weights(self.emission_weights, self.transition_weights)
        self.bio_constrained = bool(bio_constrained)
        self.induced_pairs = tuple(tuple(p) for p in induced_pairs)
        # Training pairs seen features; the compiled path joins pairs by id.
        if any(part not in self.feature_index for pair in self.induced_pairs
               for part in pair):
            raise ValueError("an induced pair has a part outside the feature alphabet")
        self.gazetteer = frozenset(gazetteer) if gazetteer is not None else None
        self._induced_index = _index_pairs(self.induced_pairs)
        self._resources = {"gazetteer": self.gazetteer} if self.gazetteer is not None else None
        self._masked = None

    def masked_scores(self):
        """(transitions, start) with -inf where the BIO constraint forbids."""
        if self._masked is None:
            self._masked = _masked_transitions(
                self.transition_weights,
                bio_transition_mask(self.labels) if self.bio_constrained else None)
        return self._masked

    def position_features(self, tokens, i):
        return extract_features(self.templates, tokens, i,
                                resources=self._resources,
                                induced_index=self._induced_index)

    def position_feature_ids(self, tokens, i):
        index = self.feature_index
        ids = {index[f] for f in self.position_features(tokens, i) if f in index}
        return np.asarray(sorted(ids), dtype=np.int64)

    @functools.cached_property
    def _compiled(self):
        return _CompiledFeatures(self)

    def emission_matrix(self, tokens):
        """(T, L) emission scores of a Sentence or token sequence,
        bit-identical to reference_emission_matrix."""
        return _kernels.sum_rows(self._rows,
                                 self._compiled.document_ids([_sentence_of(tokens)]))

    def reference_emission_matrix(self, tokens):
        """Emissions from feature strings, one position at a time: the oracle
        that tests the compiled path."""
        T = len(tokens)
        em = np.empty((T, len(self.labels)))
        for i in range(T):
            _kernels.row_sum(self.emission_weights,
                             self.position_feature_ids(tokens, i), out=em[i])
        return em


# The atom whose value is the attribute itself. A value is cached only if the
# model knows a single-atom feature of this atom for it, so a cache holds at
# most one entry per such feature.
_IDENTITY_ATOM = {"form": "form", "pos_tag": "pos", "ner_label": "ner"}


class _Column:
    """The templates that read one token attribute (a Sentence column),
    resolved once per value.

    A value resolves to a row of `table`: one feature id per single-atom
    template (-1 if the model does not know it), the templates of offset o
    in columns spans[o], then from column `width` on the interned value id
    of each conjunction slot (_ConjunctionKeys). Each distinct atom reads
    a value once, through its entry in templates.ATOMS, and rows 0 and 1 of
    `table` hold the entries' values left and right of a sentence. A value
    gets a row of its own only if the model knows its identity feature, so
    the table is bounded by the alphabet; other values are resolved again
    in every call. A row is written before `cache` publishes it, under a
    lock, so threads that read without the lock see only whole rows.
    """

    def __init__(self, index, resources):
        self.index = index
        self.resources = resources
        self.atoms = {}  # (name, arg) -> position among the distinct atoms
        self.singles = {}  # offset -> [(template prefix, atom, is identity atom)]
        self.slots = []  # the atom of each conjunction slot
        self.cache = {}  # value -> row of table
        self._lock = threading.Lock()

    def atom(self, name, arg):
        """Position of the atom in atoms; added on first sight."""
        return self.atoms.setdefault((name, arg), len(self.atoms))

    def slot(self, name, arg):
        """The conjunction slot of the atom; added on first sight."""
        k = self.atom(name, arg)
        if k not in self.slots:
            self.slots.append(k)
        return self.slots.index(k)

    def finish(self, keys):
        self.keys = keys
        self.offsets = sorted(self.singles)
        self.spans = {}
        width = 0
        for offset in self.offsets:
            self.spans[offset] = (width, width + len(self.singles[offset]))
            width += len(self.singles[offset])
        self.width = width
        left, _ = self.resolve([ATOMS[name].left for name, _ in self.atoms])
        right, _ = self.resolve([ATOMS[name].right for name, _ in self.atoms])
        self.table = np.array([left, right], dtype=np.intp)
        self.size = 2  # rows of table in use

    def resolve(self, values):
        """(row of the atoms' values, listed as atoms, whether the model
        knows the value of the attribute)."""
        get = self.index.get
        known = False
        row = []
        for offset in self.offsets:
            for prefix, k, identity in self.singles[offset]:
                j = -1 if values[k] is None else get(prefix + values[k], -1)
                row.append(j)
                known = known or (identity and j >= 0)
        value_id, unknown = self.keys.values.get, self.keys.unknown
        row += [unknown if values[k] is None else value_id(values[k], unknown)
                for k in self.slots]
        return row, known

    def local_rows(self, values):
        """(codes, rows): row codes[i] of rows is values[i]'s.

        values holds the attribute at each token. rows holds the table rows
        of its distinct values, after the two boundary rows.
        """
        cache = self.cache
        rows = [0, 1]
        code = {}
        fresh = []
        for value in dict.fromkeys(values):
            row = cache.get(value)
            if row is None:
                fresh.append(value)
            else:
                code[value] = len(rows)
                rows.append(row)
        # Read after the rows: every row seen in the cache is in this table.
        table = self.table[rows]
        if fresh:
            entries = []
            known = []
            resources = self.resources
            atoms = [(ATOMS[name].value, arg) for name, arg in self.atoms]
            for k, value in enumerate(fresh, len(rows)):
                entry, is_known = self.resolve([read(value, arg, resources)
                                                for read, arg in atoms])
                code[value] = k
                entries.append(entry)
                if is_known:
                    known.append((value, entry))
            table = np.concatenate([table, np.array(entries, dtype=np.intp)])
            if known:
                self._admit(known)
        codes = np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values))
        return codes, table

    def _admit(self, known):
        """Give each (value, row) its own row of table, unless another thread did."""
        with self._lock:
            known = [(value, row) for value, row in known if value not in self.cache]
            if not known:
                return
            n = self.size
            table = self.table
            if n + len(known) > len(table):
                table = np.empty((2 * (n + len(known)), table.shape[1]), dtype=np.intp)
                table[:n] = self.table[:n]
            table[n:n + len(known)] = [row for _, row in known]
            self.table = table
            self.size = n + len(known)
            for row, (value, _) in enumerate(known, n):
                self.cache[value] = row


# Conjunction keys are int64: every key of the table stays below this.
_KEY_BOUND = 1 << 63


class _ConjunctionKeys:
    """The conjunction templates of a model, with its lone isfirst/islast
    templates, as one sorted int64 key table.

    Every value in an alphabet feature of these templates is interned: the
    feature is registered under every reading of it as the template's atom
    values (templates.alphabet_tuples), because the string path joins the
    atom values with "|"; so a lookup hits exactly when the joined string is
    in the alphabet, whatever the values contain. A key packs its atoms'
    value ids with _tuple_codes in base radix, the number of values plus
    one; the top digit, `unknown`, stands for an unset value or one outside
    the alphabet and is in no key. Its lowest digit is the template's place
    among the C kept templates, key = code * C + t, so templates of
    different arity never share a key. plans holds each kept template's
    rank plan, which a lookup follows (an unregistered prefix ranks last).
    Templates of which the alphabet holds no feature are not kept: they
    never fire.
    """

    def __init__(self, templates, index):
        values = {}
        found = [[] for _ in templates]  # (value ids, feature id) per template
        for t, parts, j in alphabet_tuples(index, [tpl.name for tpl in templates],
                                           [len(tpl.specs) for tpl in templates]):
            found[t].append(([values.setdefault(v, len(values)) for v in parts], j))
        self.values = values
        self.unknown = len(values)
        self.radix = len(values) + 1
        self.kept = [t for t in range(len(templates)) if found[t]]
        C = len(self.kept)
        self.plans = []  # per kept template and atom: the prefix ranks, or None
        keys = [np.empty(0, dtype=np.int64)]
        ids = [np.empty(0, dtype=np.intp)]
        for c, t in enumerate(self.kept):
            digits = np.array([d for d, _ in found[t]], dtype=np.int64).T
            code, plan = _tuple_codes(digits, self.radix, C)
            self.plans.append(plan)
            keys.append(code * C + c)
            ids.append(np.array([j for _, j in found[t]], dtype=np.intp))
        keys = np.concatenate(keys)
        order = np.argsort(keys)
        self.keys = keys[order]
        # A key outside the table ranks last, at the -1 after its ids.
        self.ids = np.append(np.concatenate(ids)[order], -1)

    def lookup(self, atoms, digit):
        """(N, C) feature ids of N positions, -1 where none fires.

        atoms[c] lists the atoms of kept template c; digit(atom) returns the
        (N,) value ids that the atom reads.
        """
        radix, C = self.radix, len(self.kept)
        keys = []
        for c, (template_atoms, plan) in enumerate(zip(atoms, self.plans)):
            code = 0
            for atom, ranks in zip(template_atoms, plan):
                if ranks is not None:
                    code = _rank(ranks, code)
                code = code * radix + digit(atom)
            keys.append(code * C + c)
        return self.ids[_rank(self.keys, np.stack(keys, axis=1))]


def _rank(table, x):
    """Position of each x in the sorted table, len(table) where it is absent."""
    r = np.searchsorted(table, x)
    hit = table[np.minimum(r, len(table) - 1)] == x
    return np.where(hit, r, len(table))


def _tuple_codes(digits, radix, scale=1):
    """(codes, plan): one int64 per column of the (n, N) digits, equal where
    the columns are, and below the bound once multiplied by scale.

    The digits are value ids below radix; they are packed in base radix, and
    where the next digit could carry a code to the bound, the code is first
    replaced by its rank among the codes present, so codes stay exact for
    any arity and number of values. plan[a] holds those ranks before digit
    a, or None: a lookup that ranks a prefix outside them as len(ranks)
    packs the same codes.
    """
    code = np.zeros(digits.shape[1], dtype=np.int64)
    span = 1
    plan = []
    for d in digits:
        ranks = None
        if span * radix * scale >= _KEY_BOUND:
            ranks, code = np.unique(code, return_inverse=True)
            span = len(ranks) + 1
            if span * radix * scale >= _KEY_BOUND:
                raise ValueError("too many values for int64 feature keys")
        plan.append(ranks)
        code = code * radix + d
        span *= radix
    return code, plan


def freeze_features(names, digits, values, rows):
    """The features that templates fire at rows positions, numbered first-seen.

    names[t] is the name of template t, digits[t] the (rows,) value-id
    arrays of its atoms, ids into the list values, -1 where an atom is
    unset, so that the template fires nothing there. The feature of a
    template at a position is "<name>=" and its atoms' values joined by "|".
    Only one string is made per distinct (template, value tuple), and the
    strings are numbered in the order in which the string path, position by
    position and template by template, first fires them; two tuples that
    join to one string get one number.

    Returns (features, starts, fired): features maps each string to its
    number, starts lists the first position of each number (ascending), and
    fired is the (rows, T) array of the number that each template fires at
    each position, -1 where it fires none.
    """
    entries = []  # (first positions, strings, where it fires, inverse) per template
    for name, atoms in zip(names, digits):
        stack = np.array(atoms, dtype=np.int64)
        where = np.flatnonzero((stack >= 0).all(axis=0))
        codes, _ = _tuple_codes(stack[:, where], len(values))
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        first = where[first]
        prefix = name + "="
        parts = [list(map(values.__getitem__, digit.tolist())) for digit in stack[:, first]]
        entries.append((first, [prefix + "|".join(p) for p in zip(*parts)], where, inverse))
    first = np.concatenate([np.empty(0, dtype=np.intp), *[e[0] for e in entries]])
    template = np.repeat(np.arange(len(names)), [len(e[0]) for e in entries])
    order = np.lexsort((template, first))
    strings = [s for _, strings, _, _ in entries for s in strings]
    strings = [strings[e] for e in order.tolist()]
    features = {s: k for k, s in enumerate(dict.fromkeys(strings))}
    number = np.empty(len(strings), dtype=np.intp)
    number[order] = np.fromiter(map(features.__getitem__, strings), dtype=np.intp,
                                count=len(strings))
    _, seen = np.unique(number[order], return_index=True)
    starts = first[order][seen].tolist()
    fired = np.full((rows, len(names)), -1, dtype=np.intp)
    lo = 0
    for t, (entry_first, _, where, inverse) in enumerate(entries):
        fired[where, t] = number[lo:lo + len(entry_first)][inverse]
        lo += len(entry_first)
    return features, starts, fired


def _margin(templates):
    return max((abs(offset) for tpl in templates for _, _, offset in tpl.specs), default=0)


class _Layout:
    """The N positions of a document's sentences, end to end.

    at[n] is position n's place in its sentence and last[n] the place of
    that sentence's last token. pad(codes) lays a column's N codes out
    with `margin` codes around each sentence, 0 before it and 1 after it,
    so that shift(padded, o) reads each position's code at offset o.
    """

    def __init__(self, sentences, margin):
        lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
        self.N = N = int(lengths.sum())
        sentence = np.repeat(np.arange(len(lengths)), lengths)
        starts = np.cumsum(lengths) - lengths
        self.at = np.arange(N) - starts[sentence]
        self.last = lengths[sentence] - 1
        self.where = np.arange(N) + (2 * sentence + 1) * margin
        self.left = ((starts + 2 * margin * np.arange(len(lengths)))[:, None]
                     + np.arange(margin)).ravel()
        self.size = N + 2 * margin * len(lengths)

    def edge(self, is_last, offset):
        """Whether the token at offset is its sentence's last (else first)."""
        return self.at == (self.last if is_last else 0) - offset

    def pad(self, codes):
        padded = np.ones(self.size, dtype=np.intp)
        padded[self.left] = 0
        padded[self.where] = codes
        return padded

    def shift(self, padded, offset):
        return padded[self.where + offset]


class _CompiledFeatures:
    """The feature ids of a LinearModel, resolved per word type, not per position.

    Every template resolves in one of two ways. A single atom over the
    form, the POS tag or the NER label resolves once per value (_Column) and
    is read by one fancy index per offset. Any other template, a conjunction
    or a lone isfirst/islast, looks the key of its atoms' value ids up in
    one sorted table (_ConjunctionKeys), an attribute atom reading the
    cached value id of its column and an isfirst/islast atom the id of "1"
    or "0" by the position's place in its sentence. Induced pairs join ids.
    Built on first decode, so loading a model does no extra work.
    """

    def __init__(self, model):
        index = model.feature_index
        self.index = index
        self.resources = model._resources
        self.columns = {}  # token attribute -> _Column
        conjunctions = []  # (template, attribute per atom, None for isfirst/islast)
        for tpl in model.templates:
            specs = tpl.specs
            attrs = [ATOMS[name].attribute for name, _, _ in specs]
            if len(specs) == 1 and attrs[0] is not None:
                name, arg, offset = specs[0]
                column = self._column(attrs[0])
                column.singles.setdefault(offset, []).append(
                    (tpl.prefix, column.atom(name, arg), name == _IDENTITY_ATOM[attrs[0]]))
            else:
                conjunctions.append((tpl, attrs))
        self.keys = _ConjunctionKeys([tpl for tpl, _ in conjunctions], index)
        # [(attribute, slot, offset), or (None, is islast, offset)] per kept template
        self.conjunctions = []
        for t in self.keys.kept:
            tpl, attrs = conjunctions[t]
            atoms = []
            for (name, arg, offset), attr in zip(tpl.specs, attrs):
                if attr is None:
                    atoms.append((None, name == "islast", offset))
                    continue
                atoms.append((attr, self._column(attr).slot(name, arg), offset))
            self.conjunctions.append(atoms)
        for column in self.columns.values():
            column.finish(self.keys)
        self.margin = _margin(model.templates)
        self.pairs = []  # (id of one part, id of the other, id of the pair)
        for a, b in model.induced_pairs:
            name = index.get(f"{a}&&{b}")
            if name is not None:
                self.pairs.append((index[a], index[b], name))
        # Columns of document_ids before packing.
        self.width = (sum(column.width for column in self.columns.values())
                      + len(self.conjunctions) + len(self.pairs))

    def _column(self, attr):
        if attr not in self.columns:
            self.columns[attr] = _Column(self.index, self.resources)
        return self.columns[attr]

    def cache_size(self):
        return sum(len(column.cache) for column in self.columns.values())

    def document_ids(self, sentences):
        """(K, N) feature ids of the N positions of the Sentences, as sum_rows
        reads them (_kernels.pack_ids): column n holds the ids that
        position_feature_ids gives at position n.
        """
        layout = _Layout(sentences, self.margin)
        ids = np.empty((layout.N, self.width), dtype=np.intp)
        k = 0  # next column of ids
        rows = {}  # attribute -> (padded codes, rows of the column's table)
        for attr, column in self.columns.items():
            local, table = column.local_rows(list(itertools.chain.from_iterable(
                s.column(attr) for s in sentences)))
            padded = layout.pad(local)
            rows[attr] = padded, table
            for offset, (lo, hi) in column.spans.items():
                ids[:, k:k + hi - lo] = table[layout.shift(padded, offset), lo:hi]
                k += hi - lo
        if self.conjunctions:
            value_id, unknown = self.keys.values.get, self.keys.unknown
            yes, no = value_id("1", unknown), value_id("0", unknown)

            def digit(atom):
                attr, slot, offset = atom
                if attr is None:
                    return np.where(layout.edge(slot, offset), yes, no)
                padded, table = rows[attr]
                return table[layout.shift(padded, offset), self.columns[attr].width + slot]

            ids[:, k:k + len(self.conjunctions)] = self.keys.lookup(self.conjunctions, digit)
            k += len(self.conjunctions)
        base = ids[:, :k]
        present = {}
        for a, b, name in self.pairs:
            for part in (a, b):
                if part not in present:
                    present[part] = (base == part).any(axis=1)
            ids[:, k] = np.where(present[a] & present[b], name, -1)
            k += 1
        return _kernels.pack_ids(ids)


def _index_pairs(pairs):
    index = {}
    for a, b in pairs:
        name = f"{a}&&{b}"
        index.setdefault(a, []).append((b, name))
    return index


def viterbi_decode(model, sentence):
    """Best label sequence of one sentence and its score.

    Every label is legal at every position; only the BIO transitions of a
    bio_constrained model are masked. Ties between equal-scoring sequences
    resolve to the lowest label index, earliest position first.
    """
    sentence = _sentence_of(sentence)
    if len(sentence) == 0:
        return [], 0.0
    trans, start = model.masked_scores()
    path, score = _kernels.viterbi_path(model.emission_matrix(sentence), trans, start)
    if score == NEG_INF:
        raise DecodeError("no legal label sequence for this input")
    return [model.labels[p] for p in path], score


# A document decode takes its sentences by length. Feature ids are built for
# at most TAG_CHUNK_POSITIONS positions at a time, and their emissions are
# summed by exact gathers of at most TAG_GROUP_CELLS float64 cells
# (positions x feature columns x labels, 256 KB). Groups of sentences then
# each take one viterbi_paths call over at most a third as many padded cells
# (sentences x longest length x labels), and at most TAG_GROUP_SENTENCES
# sentences a group bounds its per-step (sentences, labels, labels) array:
# with its back-pointer lists and paths, a call took at most 1.7 MB for 6 to
# 24 labels (tracemalloc).
TAG_CHUNK_POSITIONS = 1 << 11
TAG_GROUP_SENTENCES = 256
TAG_GROUP_CELLS = 1 << 15


def tag_sentences(model, sentences):
    """viterbi_decode's labels for every sentence, decoded as one document.

    The labels equal viterbi_decode's, one sentence at a time. Empty
    sentences get []. A sentence with no legal label sequence raises
    DecodeError naming it.
    """
    sentences = [_sentence_of(s) for s in sentences]
    out = [[] for _ in sentences]
    todo = sorted((k for k, s in enumerate(sentences) if len(s)),
                  key=lambda k: len(sentences[k]))
    lengths = [len(sentences[k]) for k in todo]
    compiled = model._compiled
    L = len(model.labels)
    gather = max(1, TAG_GROUP_CELLS // (max(1, compiled.width) * L))
    trans, start = model.masked_scores()
    for chunk in _length_groups(lengths, len(lengths), TAG_CHUNK_POSITIONS):
        ids = compiled.document_ids([sentences[k] for k in todo[chunk]])
        em = np.concatenate([_kernels.sum_rows(model._rows, ids[:, a:a + gather])
                             for a in range(0, ids.shape[1], gather)])
        row = 0
        for group in _length_groups(lengths[chunk], TAG_GROUP_SENTENCES,
                                    TAG_GROUP_CELLS // (3 * L)):
            group_lengths = lengths[chunk][group]
            n = sum(group_lengths)
            decoded = _kernels.viterbi_paths(em[row:row + n], group_lengths, trans, start)
            row += n
            for k, (path, score) in zip(todo[chunk][group], decoded):
                if score == NEG_INF:
                    raise DecodeError(f"no legal label sequence for sentence {k + 1}",
                                      sentence=k + 1)
                out[k] = [model.labels[y] for y in path.tolist()]
    return out


def _length_groups(lengths, most_sentences, most_positions):
    """Consecutive slices of the ascending lengths, each as long as it can be
    with at most most_sentences sentences and most_positions padded positions
    (sentences times the longest length); a longer sentence gets its own."""
    lo = 0
    while lo < len(lengths):
        hi = lo + 1
        while (hi < len(lengths) and hi - lo < most_sentences
               and (hi + 1 - lo) * lengths[hi] <= most_positions):
            hi += 1
        yield slice(lo, hi)
        lo = hi


MAX_BRUTE_FORCE = 10 ** 6


def brute_force_decode(model, sentence):
    """Exhaustive argmax over legal label sequences; test oracle for Viterbi.

    Scores every sequence with the same arithmetic as the Viterbi kernel and
    keeps the lexicographically smallest maximum, so the two decoders agree
    exactly, ties included.
    """
    sentence = _sentence_of(sentence)
    T = len(sentence)
    if T == 0:
        return [], 0.0
    if len(model.labels) ** T > MAX_BRUTE_FORCE:
        raise DecodeError(f"instance too large for brute force: > {MAX_BRUTE_FORCE} sequences")
    em = model.emission_matrix(sentence)
    trans, start = model.masked_scores()
    best_score = NEG_INF
    best = None
    for ys in itertools.product(range(len(model.labels)), repeat=T):
        s = em[T - 1, ys[T - 1]]
        for i in range(T - 2, -1, -1):
            s = em[i, ys[i]] + (trans[ys[i], ys[i + 1]] + s)
        s = start[ys[0]] + s
        if s > best_score:
            best_score = s
            best = ys
    if best is None or best_score == NEG_INF:
        raise DecodeError("no legal label sequence for this input")
    return [model.labels[y] for y in best], float(best_score)


def sequence_score(model, sentence, labels):
    """Score of a given label sequence under the model (same arithmetic as decode)."""
    sentence = _sentence_of(sentence)
    T = len(sentence)
    if T == 0:
        return 0.0
    ys = [model.label_index[lab] for lab in labels]
    em = model.emission_matrix(sentence)
    trans, start = model.masked_scores()
    s = em[T - 1, ys[T - 1]]
    for i in range(T - 2, -1, -1):
        s = em[i, ys[i]] + (trans[ys[i], ys[i + 1]] + s)
    return float(start[ys[0]] + s)


def _sentence_of(sentence):
    """A Sentence as it is; a token sequence as the Sentence of its tokens."""
    return sentence if isinstance(sentence, Sentence) else Sentence(sentence)


def train_averaged_perceptron(templates, corpus, epochs=5, shuffle_seed=None,
                              bio_constrained=False, gazetteer=None,
                              combine_top_k=0, on_epoch=None):
    """Averaged structured perceptron over (sentence, gold labels) pairs.

    Deterministic given corpus order, shuffle_seed and epochs. shuffle_seed
    None keeps corpus order; otherwise each epoch reshuffles with one seeded
    generator. combine_top_k > 0 first runs one probe epoch, promotes the
    top-K feature pairs co-firing at mistaken positions to conjunction
    features, then restarts training with the augmented feature space;
    0 turns that off, and a count below 0 is refused.
    """
    check_epochs(epochs)
    if combine_top_k < 0:
        raise ValueError(f"combine_top_k must be at least 0, got {combine_top_k!r}")
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    label_set = set()
    for sent, gold in corpus:
        if len(sent) != len(gold):
            raise TrainingError("gold label count does not match sentence length")
        label_set.update(gold)
    if not label_set:
        raise TrainingError("training corpus has no labeled tokens")
    labels = sorted(label_set)
    _check_alphabet(labels, bio_constrained)

    induced = ()
    if combine_top_k > 0:
        induced = _induce_pairs(templates, corpus, labels, bio_constrained,
                                gazetteer, combine_top_k)

    return _train(templates, corpus, labels, epochs, shuffle_seed,
                  bio_constrained, gazetteer, induced, on_epoch)


def _atom_digits(templates, sentences, resources):
    """(digits, values): the value ids of each template's atoms at every
    position of the sentences, as freeze_features takes them.

    An atom over a token attribute reads each distinct value of the
    attribute once, through its entry in templates.ATOMS as _Column does,
    and takes the entry's boundary values outside a sentence; the atoms
    read offsets and places through the _Layout of document_ids. values
    lists the value strings by id.
    """
    layout = _Layout(sentences, _margin(templates))
    values = {}

    def intern(value):
        return -1 if value is None else values.setdefault(value, len(values))

    columns = {}  # attribute -> (padded code of each position, distinct values)
    tables = {}  # (name, arg) -> value id by code: left boundary, right, then values
    read = {}  # atom spec -> value id at each position

    def atom(name, arg, offset):
        spec = (name, arg, offset)
        if spec in read:
            return read[spec]
        entry = ATOMS[name]
        if entry.attribute is None:
            read[spec] = np.where(layout.edge(name == "islast", offset),
                                  intern("1"), intern("0"))
            return read[spec]
        if entry.attribute not in columns:
            column = list(itertools.chain.from_iterable(
                s.column(entry.attribute) for s in sentences))
            code = {value: k for k, value in enumerate(dict.fromkeys(column), 2)}
            columns[entry.attribute] = (layout.pad(np.fromiter(
                map(code.__getitem__, column), dtype=np.intp, count=len(column))), list(code))
        padded, distinct = columns[entry.attribute]
        if (name, arg) not in tables:
            tables[(name, arg)] = np.array(
                [intern(entry.left), intern(entry.right)]
                + [intern(entry.value(v, arg, resources)) for v in distinct], dtype=np.int64)
        read[spec] = tables[(name, arg)][layout.shift(padded, offset)]
        return read[spec]

    digits = [[atom(*spec) for spec in tpl.specs] for tpl in templates]
    return digits, list(values)


def _freeze(templates, sentences, resources, induced_pairs):
    """The feature alphabet of a tagger and the features of every position.

    Returns (feature_index, fired, ids): fired is the (N, T) array of the id
    that each template fires at each of the N positions, -1 where none;
    ids is the (K, N) array that sum_rows reads, column n the ids of
    position n, the induced pairs' included, ascending with -1 as padding.
    The ids are those that extract_features' strings take when they enter
    the alphabet position by position: the templates' in template order,
    then the induced pairs'.
    """
    digits, values = _atom_digits(templates, sentences, resources)
    N = sum(map(len, sentences))
    features, starts, fired = freeze_features([tpl.name for tpl in templates], digits,
                                              values, N)
    pairs = []  # (first position, first template firing its first part, k, pair, fires)
    for k, (a, b) in enumerate(induced_pairs):
        if a not in features or b not in features:
            continue
        has_a = fired == features[a]
        fires = has_a.any(axis=1) & (fired == features[b]).any(axis=1)
        if fires.any():
            p = int(fires.argmax())
            pairs.append((p, int(has_a[p].argmax()), k, f"{a}&&{b}", fires))
    columns = [fired]
    if pairs:
        # At each position extract_features fires the templates' strings,
        # then for each of them in order the pairs it is the first part of.
        feature_index = {}
        strings = list(features)
        new_id = np.empty(len(strings) + 1, dtype=np.intp)
        new_id[-1] = -1
        done = 0
        for p, _, _, name, fires in sorted(pairs, key=lambda pair: pair[:3]):
            stop = bisect.bisect_right(starts, p)
            for c in range(done, stop):
                new_id[c] = feature_index.setdefault(strings[c], len(feature_index))
            done = stop
            columns.append(np.where(fires, feature_index.setdefault(name, len(feature_index)),
                                    -1)[:, None])
        for c in range(done, len(strings)):
            new_id[c] = feature_index.setdefault(strings[c], len(feature_index))
        fired = new_id[fired]
        columns[0] = fired
    else:
        feature_index = features
    logger.debug("froze %d position(s) of %d template(s): %d distinct value(s) read, "
                 "%d feature(s)", N, len(templates), len(values), len(feature_index))
    return feature_index, fired, _kernels.pack_ids(np.concatenate(columns, axis=1))


def _train(templates, corpus, labels, epochs, shuffle_seed, bio_constrained,
           gazetteer, induced_pairs, on_epoch, collect_error_pairs=None):
    L = len(labels)
    label_index = {lab: i for i, lab in enumerate(labels)}
    resources = {"gazetteer": frozenset(gazetteer)} if gazetteer is not None else None

    # Freeze the feature alphabet with one pass over the corpus; sentence
    # si holds columns bounds[si]:bounds[si + 1] of ids.
    sentences = [_sentence_of(sent) for sent, _ in corpus]
    feature_index, fired, ids = _freeze(templates, sentences, resources, induced_pairs)
    bounds = np.cumsum([0, *map(len, sentences)]).tolist()
    golds = [np.asarray([label_index[g] for g in gold], dtype=np.int64) for _, gold in corpus]
    # The probe epoch, which collects the error pairs, has no induced pairs.
    names = list(feature_index) if collect_error_pairs is not None else None

    emission_tail, transition_tail = _tails(L)
    emissions = AveragedWeights(len(feature_index), emission_tail)
    transitions = AveragedWeights(L + 1, transition_tail)
    start = L
    mask = bio_transition_mask(labels) if bio_constrained else None
    masked = [None]  # the masked transitions, rebuilt after they change

    def learn(si, step):
        lo = bounds[si]
        packed = ids[:, lo:bounds[si + 1]]
        gold = golds[si]
        T = len(gold)
        if T == 0:
            return 0, 0, 0
        step += 1
        em = _kernels.sum_rows(emissions.W, packed)
        if masked[0] is None:
            masked[0] = _masked_transitions(transitions.W, mask)
        pred, _ = _kernels.viterbi_path(em, *masked[0])
        correct = int(np.sum(pred == gold))
        if correct == T:
            return 0, correct, T
        for i in range(T):
            g = gold[i]
            p = pred[i]
            if g != p:
                if collect_error_pairs is not None:
                    feats = [names[j] for j in fired[lo + i].tolist() if j >= 0]
                    for a_i in range(len(feats)):
                        for b_i in range(a_i + 1, len(feats)):
                            a, b = feats[a_i], feats[b_i]
                            pair = (a, b) if a <= b else (b, a)
                            collect_error_pairs[pair] = collect_error_pairs.get(pair, 0) + 1
                row = packed[:, i]
                row = row[row >= 0]
                emissions.update((row, g), (row, p), step)
            pg = gold[i - 1] if i else start
            pp = pred[i - 1] if i else start
            if (pg, g) != (pp, p):
                transitions.update((pg, g), (pp, p), step)
                masked[0] = None
        return 1, correct, T

    step = train_epochs((emissions, transitions), [1] * len(corpus), epochs,
                        shuffle_seed, learn, on_epoch)

    return LinearModel(labels, templates, feature_index, emissions.averaged(step),
                       transitions.averaged(step),
                       bio_constrained=bio_constrained, induced_pairs=induced_pairs,
                       gazetteer=gazetteer)


def _induce_pairs(templates, corpus, labels, bio_constrained, gazetteer, top_k):
    counts = {}
    _train(templates, corpus, labels, epochs=1, shuffle_seed=None,
           bio_constrained=bio_constrained, gazetteer=gazetteer,
           induced_pairs=(), on_epoch=None, collect_error_pairs=counts)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(pair for pair, _ in ranked[:top_k])


SEQ1 = ModelFormat(
    b"SYLPIPE-SEQ1\n",
    {"labels": "string list", "templates": "string pair list", "bio": "boolean",
     "pairs": "string pair list", "gazetteer": "string list or null"},
    lambda h: ((h["feature_count"], len(h["labels"])),
               (len(h["labels"]) + 1, len(h["labels"]))),
    lambda h: _tails(len(h["labels"])))


def save_linear_model(model, path):
    SEQ1.write(path, {
        "labels": model.labels,
        "templates": [[t.name, t.descriptor] for t in model.templates],
        "bio": model.bio_constrained,
        "pairs": [list(p) for p in model.induced_pairs],
        "gazetteer": sorted(model.gazetteer) if model.gazetteer is not None else None,
    }, model.feature_index, (model.emission_weights, model.transition_weights))


def load_linear_model(path):
    header, feature_index, (em, tr) = SEQ1.read(path)
    templates = [FeatureTemplate(name, desc) for name, desc in header["templates"]]
    return LinearModel(header["labels"], templates, feature_index, em, tr,
                       bio_constrained=header["bio"],
                       induced_pairs=[tuple(p) for p in header["pairs"]],
                       gazetteer=header["gazetteer"])
