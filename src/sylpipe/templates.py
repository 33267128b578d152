"""Feature templates: named extractors over token attributes at relative offsets.

A template such as "form@-1&form@0" fires the feature string
"form@-1&form@0=<form before>|<form>" at a position. The taggers in seqlabel
score these features; its compiled decode path resolves the same templates
once per word type.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

BOUNDARY_LEFT = "<s>"
BOUNDARY_RIGHT = "</s>"

_ATOM_RE = re.compile(r"(?P<name>[a-z]+)(?P<arg>\d+)?@(?P<offset>[+-]?\d+)")


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


def compile_atom(name, arg, offset):
    """The reader of one atom: get(tokens, i, resources) -> its value at
    position i, or None where the atom is unset."""
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
        object.__setattr__(self, "_atoms", tuple(compile_atom(*s) for s in specs))
        # Each feature of the template is prefix + its atoms' values joined
        # by "|"; the compiled decode path forms features from it too.
        object.__setattr__(self, "prefix", self.name + "=")

    def extract(self, tokens, i, resources=None):
        values = []
        for atom in self._atoms:
            v = atom(tokens, i, resources)
            if v is None:
                return None
            values.append(v)
        return self.prefix + "|".join(values)


def value_splits(value, n):
    """Every way to cut a feature value at "|" into n parts, as tuples.

    A template joins its atom values with "|", and a value may itself
    hold "|", so one feature string can come from several value tuples.
    """
    parts = value.split("|")
    for cuts in itertools.combinations(range(1, len(parts)), n - 1):
        bounds = (0, *cuts, len(parts))
        yield tuple("|".join(parts[a:b]) for a, b in zip(bounds, bounds[1:]))


def alphabet_tuples(feature_index, names, arities):
    """(template, value tuple, id) for every reading of an alphabet feature.

    Template t is named names[t] and has arities[t] atoms; a feature
    "<name>=<value>" reads as each template of that name over each split of
    <value> (value_splits). A name may hold "=" and may repeat, so a feature
    is tried at every "=" and for every template of the name before it.
    """
    by_name = {}
    for t, name in enumerate(names):
        by_name.setdefault(name, []).append(t)
    for feature, j in feature_index.items():
        cut = feature.find("=")
        while cut >= 0:
            for t in by_name.get(feature[:cut], ()):
                for parts in value_splits(feature[cut + 1:], arities[t]):
                    yield t, parts, j
            cut = feature.find("=", cut + 1)


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
