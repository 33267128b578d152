"""Linear-chain sequence labeling engine shared by the POS and NER annotators.

Scoring is emission + adjacent-label transition weights with a virtual start
label. Decoding is Viterbi over the dense lattice; training is the averaged
structured perceptron. A brute-force decoder over all label sequences serves
as the test oracle.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import NEG_INF
from .linear import AveragedWeights, ModelFormat, epoch_orders

BOUNDARY_LEFT = "<s>"
BOUNDARY_RIGHT = "</s>"

_ATOM_RE = re.compile(r"(?P<name>[a-z]+)(?P<arg>\d+)?@(?P<offset>[+-]?\d+)")


class DecodeError(ValueError):
    pass


class TrainingError(ValueError):
    pass


def word_shape(form):
    """Squeezed character-class shape, e.g. "Hà_Nội" -> "AaxAa"."""
    out = []
    last = None
    for ch in form:
        if ch.isupper():
            c = "A"
        elif ch.islower():
            c = "a"
        elif ch.isdigit():
            c = "9"
        else:
            c = "x"
        if c != last:
            out.append(c)
            last = c
    return "".join(out)


def _compile_atom(name, arg, offset):
    if name == "form":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0:
                return BOUNDARY_LEFT
            if p >= len(tokens):
                return BOUNDARY_RIGHT
            return tokens[p].form
    elif name == "lower":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0:
                return BOUNDARY_LEFT
            if p >= len(tokens):
                return BOUNDARY_RIGHT
            return tokens[p].form.lower()
    elif name == "pos":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0:
                return BOUNDARY_LEFT
            if p >= len(tokens):
                return BOUNDARY_RIGHT
            return tokens[p].pos_tag
    elif name == "ner":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0:
                return BOUNDARY_LEFT
            if p >= len(tokens):
                return BOUNDARY_RIGHT
            return tokens[p].ner_label
    elif name == "prefix":
        k = arg
        def get(tokens, i, resources):
            p = i + offset
            if p < 0 or p >= len(tokens):
                return None
            return tokens[p].form[:k]
    elif name == "suffix":
        k = arg
        def get(tokens, i, resources):
            p = i + offset
            if p < 0 or p >= len(tokens):
                return None
            return tokens[p].form[-k:]
    elif name == "shape":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0 or p >= len(tokens):
                return None
            return word_shape(tokens[p].form)
    elif name == "hasdigit":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0 or p >= len(tokens):
                return None
            return "1" if any(c.isdigit() for c in tokens[p].form) else "0"
    elif name == "hashyphen":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0 or p >= len(tokens):
                return None
            return "1" if "-" in tokens[p].form else "0"
    elif name == "isfirst":
        def get(tokens, i, resources):
            return "1" if i + offset == 0 else "0"
    elif name == "islast":
        def get(tokens, i, resources):
            return "1" if i + offset == len(tokens) - 1 else "0"
    elif name == "gaz":
        def get(tokens, i, resources):
            p = i + offset
            if p < 0 or p >= len(tokens):
                return None
            gaz = resources.get("gazetteer") if resources else None
            if gaz is None:
                return "0"
            form = tokens[p].form
            return "1" if form in gaz or form.lower() in gaz else "0"
    else:
        raise ValueError(f"unknown feature atom {name!r}")
    return get


@dataclass(frozen=True)
class FeatureTemplate:
    """A named extractor over token attributes at relative offsets.

    The descriptor is a "&"-joined list of atoms like "form@-1&form@0" or
    "prefix3@0"; each atom reads one attribute at one offset. A template
    whose atoms hit an unset attribute emits nothing at that position.
    """

    name: str
    descriptor: str

    def __post_init__(self):
        specs = []
        for part in self.descriptor.split("&"):
            m = _ATOM_RE.fullmatch(part)
            if m is None:
                raise ValueError(f"bad atom {part!r} in template {self.descriptor!r}")
            arg = int(m.group("arg")) if m.group("arg") else None
            specs.append((m.group("name"), arg, int(m.group("offset"))))
        # (name, arg, offset) per atom, read by the compiled decode path.
        object.__setattr__(self, "specs", tuple(specs))
        object.__setattr__(self, "_atoms", tuple(_compile_atom(*s) for s in specs))

    def extract(self, tokens, i, resources=None):
        values = []
        for atom in self._atoms:
            v = atom(tokens, i, resources)
            if v is None:
                return None
            values.append(v)
        return self.name + "=" + "|".join(values)


def make_templates(descriptors):
    return [FeatureTemplate(d, d) for d in descriptors]


def extract_features(templates, tokens, i, resources=None, induced_index=None):
    """Feature strings fired at position i (base templates, then induced pairs)."""
    feats = []
    for tpl in templates:
        f = tpl.extract(tokens, i, resources)
        if f is not None:
            feats.append(f)
    if induced_index:
        fired = set(feats)
        extra = []
        for f in feats:
            for other, name in induced_index.get(f, ()):
                if other in fired:
                    extra.append(name)
        feats.extend(extra)
    return feats


def bio_transition_mask(labels):
    """Legal (previous, current) label pairs under the BIO scheme.

    Row len(labels) is the virtual start position. I-X is legal only right
    after B-X or I-X.
    """
    L = len(labels)
    mask = np.ones((L + 1, L), dtype=bool)
    for j, cur in enumerate(labels):
        if not cur.startswith("I-"):
            continue
        ent = cur[2:]
        for p in range(L + 1):
            if p == L:
                mask[p, j] = False
            else:
                mask[p, j] = labels[p] in (f"B-{ent}", f"I-{ent}")
    return mask


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
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.templates = list(templates)
        self.feature_index = dict(feature_index)
        self.emission_weights = np.ascontiguousarray(emission_weights, dtype=np.float64)
        self.transition_weights = np.ascontiguousarray(transition_weights, dtype=np.float64)
        L = len(self.labels)
        if self.emission_weights.shape != (len(self.feature_index), L):
            raise ValueError("emission weight shape mismatch")
        if self.transition_weights.shape != (L + 1, L):
            raise ValueError("transition weight shape mismatch")
        if not np.all(np.isfinite(self.emission_weights)) or \
                not np.all(np.isfinite(self.transition_weights)):
            raise ValueError("weights must be finite")
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
            L = len(self.labels)
            trans = self.transition_weights[:L].copy()
            start = self.transition_weights[L].copy()
            if self.bio_constrained:
                mask = bio_transition_mask(self.labels)
                trans[~mask[:L]] = NEG_INF
                start[~mask[L]] = NEG_INF
            self._masked = (trans, start)
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
        """(T, L) emission scores, bit-identical to reference_emission_matrix."""
        return _kernels.sum_rows(self.emission_weights,
                                 _kernels.pack_rows(self._compiled.sentence_ids(tokens)))

    def reference_emission_matrix(self, tokens):
        """Emissions from feature strings, one position at a time: the oracle
        that tests the compiled path."""
        T = len(tokens)
        em = np.empty((T, len(self.labels)))
        for i in range(T):
            _kernels.row_sum(self.emission_weights,
                             self.position_feature_ids(tokens, i), out=em[i])
        return em


# Atoms whose value depends only on one attribute of the token they read.
_ATTRIBUTE_OF_ATOM = {"form": "form", "lower": "form", "prefix": "form",
                      "suffix": "form", "shape": "form", "hasdigit": "form",
                      "hashyphen": "form", "gaz": "form",
                      "pos": "pos_tag", "ner": "ner_label"}
# The atom whose value is the attribute itself. A value is cached only if the
# model knows a single-atom feature of this atom for it, so a cache holds at
# most one entry per such feature.
_IDENTITY_ATOM = {"form": "form", "pos_tag": "pos", "ner_label": "ner"}


class _Column:
    """The templates that read one token attribute, resolved once per value.

    An entry is (ids, values): ids[s] holds the known feature ids of the
    single-atom templates at offset offsets[s] for a token with this value;
    values[a] is the value of conjunction atom a at that token, or None.
    Everything is computed by FeatureTemplate.extract, so the atoms keep one
    definition.
    """

    def __init__(self, attr, index, resources):
        self.attr = attr
        self.index = index
        self.resources = resources
        self.singles = {}  # offset -> [(template, is identity atom)]
        self.probes = []  # one single-atom template at offset 0 per conjunction atom
        self.cache = {}

    def probe_slot(self, name, arg):
        descriptor = f"{name}{'' if arg is None else arg}@0"
        for k, probe in enumerate(self.probes):
            if probe.descriptor == descriptor:
                return k
        self.probes.append(FeatureTemplate("", descriptor))
        return len(self.probes) - 1

    def finish(self):
        self.offsets = sorted(self.singles)
        # Outside the sentence an atom's value depends only on the side.
        self.left, _ = self.resolve((), -1)
        self.right, _ = self.resolve((), 0)

    def resolve(self, tokens, p):
        """(entry for tokens[p], whether the model knows its value)."""
        index, resources = self.index, self.resources
        known = False
        ids = []
        for offset in self.offsets:
            found = []
            for tpl, identity in self.singles[offset]:
                j = index.get(tpl.extract(tokens, p - offset, resources))
                if j is not None:
                    found.append(j)
                    known = known or identity
            ids.append(tuple(found))
        values = []
        for probe in self.probes:
            f = probe.extract(tokens, p, resources)
            values.append(None if f is None else f[1:])
        return (tuple(ids), tuple(values)), known

    def entries(self, tokens, margin):
        """Entries of every token, padded with `margin` boundary entries per side."""
        attr, cache = self.attr, self.cache
        out = [self.left] * margin
        for p, tok in enumerate(tokens):
            value = getattr(tok, attr)
            entry = cache.get(value)
            if entry is None:
                entry, known = self.resolve(tokens, p)
                if known:
                    cache[value] = entry
            out.append(entry)
        out.extend([self.right] * margin)
        return out


class _CompiledFeatures:
    """The feature ids of a LinearModel, resolved per word type, not per position.

    Single-atom templates over the form, the POS tag or the NER label resolve
    once per value (_Column); isfirst/islast resolve here, once per model;
    conjunctions of attribute atoms join the cached atom values into the
    feature string; induced pairs join ids. Other templates fall back to
    FeatureTemplate.extract at each position. Built on first decode, so
    loading a model does no extra work.
    """

    def __init__(self, model):
        index = model.feature_index
        self.index = index
        self.resources = model._resources
        self.columns = {}  # token attribute -> _Column
        self.positional = []  # (offset, is islast, id if true, id if false)
        self.conjunctions = []  # ("<name>=", [(attribute, value slot, offset)])
        self.fallback = []
        margin = 0
        for tpl in model.templates:
            specs = tpl.specs
            attrs = [_ATTRIBUTE_OF_ATOM.get(name) for name, _, _ in specs]
            if len(specs) == 1 and attrs[0] is not None:
                name, _, offset = specs[0]
                column = self._column(attrs[0])
                column.singles.setdefault(offset, []).append(
                    (tpl, name == _IDENTITY_ATOM[attrs[0]]))
                margin = max(margin, abs(offset))
            elif len(specs) == 1 and specs[0][0] in ("isfirst", "islast"):
                offset = specs[0][2]
                # One dummy token: position -offset is both first and last.
                hit = index.get(tpl.extract((None,), -offset))
                miss = index.get(tpl.extract((None,), 1 - offset))
                self.positional.append((offset, specs[0][0] == "islast", hit, miss))
            elif None not in attrs:
                atoms = []
                for (name, arg, offset), attr in zip(specs, attrs):
                    atoms.append((attr, self._column(attr).probe_slot(name, arg), offset))
                    margin = max(margin, abs(offset))
                self.conjunctions.append((tpl.name + "=", atoms))
            else:
                self.fallback.append(tpl)
        for column in self.columns.values():
            column.finish()
        self.singles = [(attr, s, offset) for attr, column in self.columns.items()
                        for s, offset in enumerate(column.offsets)]
        self.margin = margin
        self.pairs = {}
        for a, b in model.induced_pairs:
            name = index.get(f"{a}&&{b}")
            if name is not None:
                self.pairs.setdefault(index[a], []).append((index[b], name))

    def _column(self, attr):
        if attr not in self.columns:
            self.columns[attr] = _Column(attr, self.index, self.resources)
        return self.columns[attr]

    def cache_size(self):
        return sum(len(column.cache) for column in self.columns.values())

    def sentence_ids(self, tokens):
        """Ascending distinct feature ids at each position, as position_feature_ids."""
        T = len(tokens)
        m = self.margin
        index = self.index
        cols = {attr: column.entries(tokens, m) for attr, column in self.columns.items()}
        # One length-T list of id tuples per group of templates.
        parts = [[e[0][s] for e in cols[k][m + offset:m + offset + T]]
                 for k, s, offset in self.singles]
        for offset, last, hit, miss in self.positional:
            ids = [miss] * T
            at = (T - 1 if last else 0) - offset
            if 0 <= at < T:
                ids[at] = hit
            parts.append(_groups(ids))
        for prefix, atoms in self.conjunctions:
            values = zip(*[[e[1][a] for e in cols[k][m + offset:m + offset + T]]
                           for k, a, offset in atoms])
            parts.append(_groups(None if None in vs else index.get(prefix + "|".join(vs))
                                 for vs in values))
        for tpl in self.fallback:
            parts.append(_groups(index.get(tpl.extract(tokens, i, self.resources))
                                 for i in range(T)))
        rows = []
        pairs = self.pairs
        for groups in zip(*parts):
            fired = set(itertools.chain.from_iterable(groups))
            if pairs:
                fired.update([name for a in fired for b, name in pairs.get(a, ())
                              if b in fired])
            rows.append(sorted(fired))
        return rows


def _groups(ids):
    """Each id as a one-id group; None, an unknown feature, as an empty one."""
    return [() if j is None else (j,) for j in ids]


def _index_pairs(pairs):
    index = {}
    for a, b in pairs:
        name = f"{a}&&{b}"
        index.setdefault(a, []).append((b, name))
    return index


def _legal_index_sets(model, legal_labels, T):
    """Per-position ascending label-index lists; None means all labels legal."""
    if legal_labels is None:
        return None
    if len(legal_labels) != T:
        raise ValueError("legal label mask length does not match sentence length")
    out = []
    for i, allowed in enumerate(legal_labels):
        if allowed is None:
            out.append(None)
            continue
        idxs = []
        for lab in allowed:
            j = model.label_index.get(lab)
            if j is None:
                raise ValueError(f"unknown label {lab!r} in legal set at position {i}")
            idxs.append(j)
        idxs = sorted(set(idxs))
        if not idxs:
            raise DecodeError(f"empty legal label set at position {i}")
        out.append(idxs)
    return out


def _apply_position_mask(em, legal_sets):
    if legal_sets is None:
        return em
    L = em.shape[1]
    for i, idxs in enumerate(legal_sets):
        if idxs is None or len(idxs) == L:
            continue
        keep = np.zeros(L, dtype=bool)
        keep[idxs] = True
        em[i, ~keep] = NEG_INF
    return em


def viterbi_decode(model, sentence, legal_labels=None):
    """Best label sequence and its score.

    legal_labels restricts each position to a subset of the alphabet (None
    entries leave a position unrestricted). Ties between equal-scoring
    sequences resolve to the lowest label index, earliest position first.
    """
    tokens = _tokens_of(sentence)
    T = len(tokens)
    if T == 0:
        return [], 0.0
    legal_sets = _legal_index_sets(model, legal_labels, T)
    em = _apply_position_mask(model.emission_matrix(tokens), legal_sets)
    trans, start = model.masked_scores()
    path, score = _kernels.viterbi_path(em, trans, start)
    if score == NEG_INF:
        raise DecodeError("no legal label sequence for this input")
    return [model.labels[p] for p in path], score


MAX_BRUTE_FORCE = 10 ** 6


def brute_force_decode(model, sentence, legal_labels=None):
    """Exhaustive argmax over legal label sequences; test oracle for Viterbi.

    Scores every sequence with the same arithmetic as the Viterbi kernel and
    keeps the lexicographically smallest maximum, so the two decoders agree
    exactly, ties included.
    """
    tokens = _tokens_of(sentence)
    T = len(tokens)
    if T == 0:
        return [], 0.0
    legal_sets = _legal_index_sets(model, legal_labels, T)
    L = len(model.labels)
    choices = [legal_sets[i] if legal_sets and legal_sets[i] is not None else range(L)
               for i in range(T)]
    count = 1
    for c in choices:
        count *= len(c)
        if count > MAX_BRUTE_FORCE:
            raise DecodeError(f"instance too large for brute force: > {MAX_BRUTE_FORCE} sequences")
    em = model.emission_matrix(tokens)
    trans, start = model.masked_scores()
    best_score = NEG_INF
    best = None
    for ys in itertools.product(*choices):
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
    tokens = _tokens_of(sentence)
    T = len(tokens)
    if T == 0:
        return 0.0
    ys = [model.label_index[lab] for lab in labels]
    em = model.emission_matrix(tokens)
    trans, start = model.masked_scores()
    s = em[T - 1, ys[T - 1]]
    for i in range(T - 2, -1, -1):
        s = em[i, ys[i]] + (trans[ys[i], ys[i + 1]] + s)
    return float(start[ys[0]] + s)


def _tokens_of(sentence):
    return sentence.tokens if hasattr(sentence, "tokens") else tuple(sentence)


def train_averaged_perceptron(templates, corpus, epochs=5, shuffle_seed=None,
                              bio_constrained=False, gazetteer=None,
                              combine_top_k=0, on_epoch=None):
    """Averaged structured perceptron over (sentence, gold labels) pairs.

    Deterministic given corpus order, shuffle_seed and epochs. shuffle_seed
    None keeps corpus order; otherwise each epoch reshuffles with one seeded
    generator. combine_top_k > 0 first runs one probe epoch, promotes the
    top-K feature pairs co-firing at mistaken positions to conjunction
    features, then restarts training with the augmented feature space.
    """
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    label_set = set()
    for sent, gold in corpus:
        tokens = _tokens_of(sent)
        if len(tokens) != len(gold):
            raise TrainingError("gold label count does not match sentence length")
        label_set.update(gold)
    if not label_set:
        raise TrainingError("training corpus has no labeled tokens")
    labels = sorted(label_set)

    induced = ()
    if combine_top_k > 0:
        induced = _induce_pairs(templates, corpus, labels, bio_constrained,
                                gazetteer, combine_top_k)

    return _train(templates, corpus, labels, epochs, shuffle_seed,
                  bio_constrained, gazetteer, induced, on_epoch)


def _train(templates, corpus, labels, epochs, shuffle_seed, bio_constrained,
           gazetteer, induced_pairs, on_epoch, collect_error_pairs=None):
    L = len(labels)
    label_index = {lab: i for i, lab in enumerate(labels)}
    resources = {"gazetteer": frozenset(gazetteer)} if gazetteer is not None else None
    induced_index = _index_pairs(induced_pairs)

    # Freeze the feature alphabet with one pass over the corpus.
    feature_index = {}
    feats_by_sentence = []
    ids_by_sentence = []
    packed_by_sentence = []
    golds = []
    for sent, gold in corpus:
        tokens = _tokens_of(sent)
        sent_feats = []
        sent_ids = []
        for i in range(len(tokens)):
            feats = extract_features(templates, tokens, i, resources, induced_index)
            sent_feats.append(feats)
            sent_ids.append(sorted({feature_index.setdefault(f, len(feature_index))
                                    for f in feats}))
        feats_by_sentence.append(sent_feats)
        packed_by_sentence.append(_kernels.pack_rows(sent_ids))
        ids_by_sentence.append([np.asarray(r, dtype=np.int64) for r in sent_ids])
        golds.append(np.asarray([label_index[g] for g in gold], dtype=np.int64))

    emissions = AveragedWeights(len(feature_index), L)
    transitions = AveragedWeights(L + 1, L)
    start = L
    mask = bio_transition_mask(labels) if bio_constrained else None

    step = 0
    for epoch, order in enumerate(epoch_orders(len(corpus), epochs, shuffle_seed), 1):
        correct = 0
        total = 0
        mistakes = 0
        for si in order:
            ids = ids_by_sentence[si]
            gold = golds[si]
            T = len(gold)
            step += 1
            if T == 0:
                continue
            em = _kernels.sum_rows(emissions.W, packed_by_sentence[si])
            trans = transitions.W[:L].copy()
            st = transitions.W[start].copy()
            if mask is not None:
                trans[~mask[:L]] = NEG_INF
                st[~mask[start]] = NEG_INF
            pred, _ = _kernels.viterbi_path(em, trans, st)
            total += T
            correct += int(np.sum(pred == gold))
            if np.array_equal(pred, gold):
                continue
            mistakes += 1
            for i in range(T):
                g = gold[i]
                p = pred[i]
                if g != p:
                    if collect_error_pairs is not None:
                        feats = feats_by_sentence[si][i]
                        for a_i in range(len(feats)):
                            for b_i in range(a_i + 1, len(feats)):
                                a, b = feats[a_i], feats[b_i]
                                pair = (a, b) if a <= b else (b, a)
                                collect_error_pairs[pair] = collect_error_pairs.get(pair, 0) + 1
                    emissions.update((ids[i], g), (ids[i], p), step)
                pg = gold[i - 1] if i else start
                pp = pred[i - 1] if i else start
                if (pg, g) != (pp, p):
                    transitions.update((pg, g), (pp, p), step)
        if on_epoch is not None:
            on_epoch(epoch, mistakes, correct / total if total else 1.0)

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
               (len(h["labels"]) + 1, len(h["labels"]))))


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
