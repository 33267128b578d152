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
a whole document with one np.searchsorted. A call costs a fixed number of
array operations per token attribute, however many templates read it: one
gather reads the attribute's codes at every offset, a row-slice gather per
offset of several single-atom templates reads their ids, and one element
gather the other ids and the conjunction slots, these into a digit matrix
that the key table folds for every conjunction at once. Values a column
has not cached are resolved atom by atom: one pass per atom over the
call's new values, one per template over its strings.
Training freezes its alphabet
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
    template (-1 if the model does not know it), the templates of one offset
    side by side, then from column `width` on the interned value id of each
    conjunction slot (_ConjunctionKeys). Rows 0 and 1 of `table` hold the
    atoms' values left and right of a sentence. A value gets a row of its
    own only if the model knows its identity feature, so the table is
    bounded by the alphabet; other values are resolved again in every call,
    all of a call's at once (resolve), and finish resolves the two boundary
    rows the same way. A row is written before `cache` publishes it, under
    a lock, so threads that read without the lock see only whole rows.

    A call reads the column's codes at every offset of the _Layout with one
    gather; then `gathers` lists a row-slice gather per offset of several
    single-atom templates, and one element gather (`picks`) reads the ids
    of the offsets of one template each, then the conjunction slots, whose
    digit matrix rows are `cells`.
    """

    def __init__(self, index, resources):
        self.index = index
        self.resources = resources
        self.atoms = {}  # (name, arg) -> position among the distinct atoms
        self.singles = {}  # offset -> [(template prefix, atom, is identity atom)]
        self.slots = []  # the atom of each conjunction slot
        self.reads = []  # (offset, slot, digit matrix row) of each conjunction atom
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

    def finish(self, keys, offsets):
        """Lay the table's columns out and resolve its boundary rows; offsets
        lists the offsets of the _Layout's reads."""
        self.keys = keys
        at = {offset: i for i, offset in enumerate(offsets)}
        self.features = []  # (template prefix, atom) per single-atom template
        self.identity = []  # the columns of the identity atom's templates
        self.gathers = []  # (reads row, lo, hi) per offset of several templates
        picks = []  # (reads row, table column) per element read
        for offset in sorted(self.singles):
            lo = len(self.features)
            for prefix, k, identity in self.singles[offset]:
                if identity:
                    self.identity.append(len(self.features))
                self.features.append((prefix, k))
            if len(self.features) - lo > 1:
                self.gathers.append((at[offset], lo, len(self.features)))
            else:
                picks.append((at[offset], lo))
        self.width = len(self.features)
        self.lone = len(picks)  # the single-atom ids among the picks, first
        picks += [(at[offset], self.width + slot) for offset, slot, _ in self.reads]
        rows, columns = zip(*picks) if picks else ((), ())
        self.picks = (np.array(rows, dtype=np.intp),
                      np.array(columns, dtype=np.intp).reshape(-1, 1))
        self.cells = np.array([cell for _, _, cell in self.reads], dtype=np.intp)
        self.readers = [(ATOMS[name].value, arg) for name, arg in self.atoms]
        rows, _ = self.resolve([value for name, _ in self.atoms
                                for value in (ATOMS[name].left, ATOMS[name].right)])
        self.table = np.ascontiguousarray(rows)
        self.size = 2  # rows of table in use

    def resolve(self, values):
        """(rows, known) of M values of the attribute, given what its atoms
        read from them atom by atom, atom k's M values at values[k * M:(k +
        1) * M]: their table rows, and whether the model knows each one's
        identity feature.

        Each template looks its strings up in one pass over its atom's values.
        """
        M = len(values) // len(self.atoms)
        by_atom = [values[k:k + M] for k in range(0, len(values), M)]
        get = self.index.get
        ids = [-1 if v is None else get(prefix + v, -1)
               for prefix, k in self.features for v in by_atom[k]]
        identity = [ids[j * M:(j + 1) * M] for j in self.identity]
        known = [max(tops) >= 0 for tops in zip(*identity)] if identity else [False] * M
        value_id, unknown = self.keys.values.get, self.keys.unknown
        ids += [value_id(v, unknown) for k in self.slots for v in by_atom[k]]
        return np.fromiter(ids, dtype=np.intp, count=len(ids)).reshape(-1, M).T, known

    def local_rows(self, values):
        """(codes, rows): row codes[n] of rows is values[n]'s, and codes ends
        in 0 and 1, the rows of the values left and right of a sentence.

        values holds the attribute at each token. rows holds the two
        boundary rows, then one row per distinct value.
        """
        code = dict(zip(dict.fromkeys(values), itertools.count(2)))
        # The row of each cached value; -1 (read, then overwritten) for the fresh.
        rows = [0, 1, *map(self.cache.get, code, itertools.repeat(-1))]
        # Read after the rows: every row seen in the cache is in this table.
        table = self.table.take(rows, axis=0)
        fresh = [k for k, row in enumerate(rows) if row < 0]
        if fresh:
            distinct = list(code)
            new = [distinct[k - 2] for k in fresh]
            resources = self.resources
            entries, known = self.resolve([read(value, arg, resources)
                                           for read, arg in self.readers for value in new])
            table[fresh] = entries
            if any(known):
                self._admit([value for value, k in zip(new, known) if k], entries[known])
        codes = np.fromiter(itertools.chain(map(code.__getitem__, values), (0, 1)),
                            dtype=np.intp, count=len(values) + 2)
        return codes, table

    def _admit(self, values, rows):
        """Give each value its row of table, unless another thread did."""
        with self._lock:
            new = [k for k, value in enumerate(values) if value not in self.cache]
            if not new:
                return
            n = self.size
            table = self.table
            if n + len(new) > len(table):
                table = np.empty((2 * (n + len(new)), table.shape[1]), dtype=np.intp)
                table[:n] = self.table[:n]
            table[n:n + len(new)] = rows[new]
            self.table = table
            self.size = n + len(new)
            for row, k in enumerate(new, n):
                self.cache[values[k]] = row


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

    A lookup reads all kept templates' atoms from one digit matrix of
    `depth` blocks of C rows, `depth` the largest arity: atom i of a
    template of arity n is in block depth - n + i (cell), so every
    template ends in the last block and its blocks before the first hold
    0, which leaves its code 0 until its first digit. One fold over the
    blocks then makes every template's code, each following its rank plan
    at its own digits (`ranked`).
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
        self.arity = [len(templates[t].specs) for t in self.kept]
        self.depth = max(self.arity, default=0)
        # The (kept template, ranks) of the plans that rank before each block;
        # a plan never ranks before its first digit.
        self.ranked = [[] for _ in range(self.depth)]
        for c, (n, plan) in enumerate(zip(self.arity, self.plans)):
            for i, ranks in enumerate(plan):
                if ranks is not None:
                    self.ranked[self.depth - n + i].append((c, ranks))
        self.lowest = np.arange(C, dtype=np.int64)[:, None]  # each key's lowest digit

    def cell(self, c, i):
        """The digit matrix row of atom i of kept template c."""
        return (self.depth - self.arity[c] + i) * len(self.kept) + c

    def lookup(self, digits):
        """(C, N) feature ids of N positions, -1 where none fires, from their
        (depth * C, N) int64 digit matrix: row cell(c, i) holds the value
        ids that atom i of kept template c reads, and the other rows 0.
        """
        C = len(self.kept)
        code = digits[:C].copy()
        for block in range(1, self.depth):
            for c, ranks in self.ranked[block]:
                code[c] = _rank(ranks, code[c])
            code *= self.radix
            code += digits[block * C:(block + 1) * C]
        code *= C
        code += self.lowest
        return self.ids[_rank(self.keys, code)]


def _rank(table, x):
    """Position of each x in the sorted table, len(table) where it is absent."""
    r = table.searchsorted(x)
    np.putmask(r, table.take(r, mode="clip") != x, len(table))
    return r


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


def _offsets(templates):
    """The offsets that the templates' atoms read, ascending."""
    return sorted({offset for tpl in templates for _, _, offset in tpl.specs})


def _offset_column(offsets):
    return np.array(offsets, dtype=np.intp).reshape(-1, 1)


class _Layout:
    """The N positions of a document's sentences, end to end.

    offsets is the (O, 1) column of the offsets that the atoms read
    (_offset_column). reads[i, n] is the position at offsets[i] from n, or N
    where that lies before n's sentence and N + 1 where it lies after, so
    that a column's N codes followed by its left and right boundary codes
    are read at every offset by one index, codes[reads]. bounds[0, n] and
    bounds[1, n] are the first and the last position of n's sentence.
    """

    def __init__(self, sentences, offsets):
        lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
        ends = lengths.cumsum()
        self.N = N = int(ends[-1]) if len(ends) else 0
        bounds = np.empty((2, len(lengths)), dtype=np.intp)
        np.subtract(ends, lengths, out=bounds[0])
        np.subtract(ends, 1, out=bounds[1])
        self.bounds = bounds = bounds.repeat(lengths, axis=1)
        self.reads = reads = offsets + np.arange(N)
        # Right first: N + 1 is never below a sentence's first position.
        np.putmask(reads, reads > bounds[1], N + 1)
        np.putmask(reads, reads < bounds[0], N)

    def edge(self, is_last, i):
        """Whether the token at offsets[i] from each position is its
        sentence's last (else first)."""
        return self.reads[i] == self.bounds[int(is_last)]


class _CompiledFeatures:
    """The feature ids of a LinearModel, resolved per word type, not per position.

    Every template resolves in one of two ways. A single atom over the
    form, the POS tag or the NER label resolves once per value (_Column) and
    is read by a gather of its column's table. Any other template, a
    conjunction or a lone isfirst/islast, looks the key of its atoms' value
    ids up in one sorted table (_ConjunctionKeys): an attribute atom reads
    the cached value id of its column and an isfirst/islast atom the id of
    "1" or "0" by the position's place in its sentence, each into its row of
    one digit matrix. Induced pairs join ids. Built on first decode, so
    loading a model does no extra work.
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
        self.keys = keys = _ConjunctionKeys([tpl for tpl, _ in conjunctions], index)
        offsets = _offsets(model.templates)
        self.offsets = _offset_column(offsets)
        places = []  # (reads row, is islast, digit row) per isfirst/islast atom
        for c, t in enumerate(keys.kept):
            tpl, attrs = conjunctions[t]
            for i, ((name, arg, offset), attr) in enumerate(zip(tpl.specs, attrs)):
                if attr is None:
                    places.append((offsets.index(offset), name == "islast",
                                   keys.cell(c, i)))
                else:
                    column = self._column(attr)
                    column.reads.append((offset, column.slot(name, arg), keys.cell(c, i)))
        self.places = tuple(np.array(part, dtype=np.intp) for part in zip(*places))
        self.edges = np.array([keys.values.get("0", keys.unknown),
                               keys.values.get("1", keys.unknown)], dtype=np.int64)
        for column in self.columns.values():
            column.finish(keys, offsets)
        self.pairs = []  # (id of one part, id of the other, id of the pair)
        for a, b in model.induced_pairs:
            name = index.get(f"{a}&&{b}")
            if name is not None:
                self.pairs.append((index[a], index[b], name))
        # Columns of document_ids before packing.
        self.width = (sum(column.width for column in self.columns.values())
                      + len(keys.kept) + len(self.pairs))

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

        Each column reads its codes at every offset with one gather, then
        its single-atom ids and conjunction slots with its gathers and one
        element gather (_Column); one compare with the sentence bounds writes
        every isfirst/islast digit, and one fold of the digit matrix looks
        every conjunction up. The array operations are a fixed number per
        column, not per template.
        """
        layout = _Layout(sentences, self.offsets)
        keys = self.keys
        C = len(keys.kept)
        ids = np.empty((layout.N, self.width), dtype=np.intp)
        digits = np.zeros((keys.depth * C, layout.N), dtype=np.int64)
        k = 0  # next column of ids
        for attr, column in self.columns.items():
            codes, table = column.local_rows(list(itertools.chain.from_iterable(
                s.column(attr) for s in sentences)))
            codes = codes[layout.reads]
            for i, lo, hi in column.gathers:
                ids[:, k:k + hi - lo] = table[codes[i], lo:hi]
                k += hi - lo
            rows, columns = column.picks
            if len(rows):
                picked = table[codes[rows], columns]
                ids[:, k:k + column.lone] = picked[:column.lone].T
                k += column.lone
                digits[column.cells] = picked[column.lone:]
        if self.places:
            at, is_last, cells = self.places
            digits[cells] = self.edges[(layout.reads[at]
                                        == layout.bounds[is_last]).view(np.int8)]
        if C:
            ids[:, k:k + C] = keys.lookup(digits).T
            k += C
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
    0 turns that off, and a count below 0 is refused. A bio_constrained
    corpus whose gold labels break the BIO rule (model.bio_may_follow), which
    the decode mask forbids, raises TrainingError naming the sentence.
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
    if bio_constrained:
        # The decode mask forbids such a gold sequence, so no update could reach it.
        for k, (_, gold) in enumerate(corpus, start=1):
            for previous, label in zip([None, *gold], gold):
                if not bio_may_follow(label, previous):
                    where = "start a sentence" if previous is None else f"follow {previous!r}"
                    raise TrainingError(f"sentence {k}: gold label {label!r} may not {where} "
                                        "(BIO rule)")

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
    offsets = _offsets(templates)
    layout = _Layout(sentences, _offset_column(offsets))
    values = {}

    def intern(value):
        return -1 if value is None else values.setdefault(value, len(values))

    columns = {}  # attribute -> (code of each position, then 0 and 1; distinct values)
    tables = {}  # (name, arg) -> value id by code: left boundary, right, then values
    read = {}  # atom spec -> value id at each position

    def atom(name, arg, offset):
        spec = (name, arg, offset)
        if spec in read:
            return read[spec]
        entry = ATOMS[name]
        if entry.attribute is None:
            read[spec] = np.where(layout.edge(name == "islast", offsets.index(offset)),
                                  intern("1"), intern("0"))
            return read[spec]
        if entry.attribute not in columns:
            column = list(itertools.chain.from_iterable(
                s.column(entry.attribute) for s in sentences))
            code = {value: k for k, value in enumerate(dict.fromkeys(column), 2)}
            columns[entry.attribute] = (np.fromiter(
                itertools.chain(map(code.__getitem__, column), (0, 1)), dtype=np.intp,
                count=len(column) + 2), list(code))
        codes, distinct = columns[entry.attribute]
        if (name, arg) not in tables:
            tables[(name, arg)] = np.array(
                [intern(entry.left), intern(entry.right)]
                + [intern(entry.value(v, arg, resources)) for v in distinct], dtype=np.int64)
        read[spec] = tables[(name, arg)][codes[layout.reads[offsets.index(offset)]]]
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
