"""Feature templates: extractors over token attributes at relative offsets.

A template is its descriptor: "form@-1&form@0" fires the feature string
"form@-1&form@0=<form before><tab><form>" at a position. ATOMS defines each
atom once: compile_atom reads it from tokens for this string path, and the
taggers' decoder and freeze in seqlabel read the same entries once per
word type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

BOUNDARY_LEFT = "<s>"
BOUNDARY_RIGHT = "</s>"

# A feature joins its atom values with a tab and an induced pair its two
# features with two (pair_feature). No value is empty or holds a tab: a word
# form, POS tag or NER label cannot (model.check_form, check_label,
# check_ner_label), and neither can the fixed values, so a feature's value
# part splits one way (alphabet_tuples).
VALUE_JOINER = "\t"

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


class Atom(NamedTuple):
    """One atom of the grammar. An attribute atom reads `attribute` of the
    token at its offset: its value is value(attribute value, length,
    resources), or `left` and `right` outside the sentence (None: unset).
    A positional atom (attribute None) reads its offset's place instead."""

    attribute: str | None
    value: Callable | None
    takes_length: bool
    left: str | None = None
    right: str | None = None


def _in_gazetteer(form, _, resources):
    gazetteer = resources.get("gazetteer") if resources else None
    return "1" if gazetteer and (form in gazetteer or form.lower() in gazetteer) else "0"


ATOMS = {
    "form": Atom("form", lambda v, *_: v, False, BOUNDARY_LEFT, BOUNDARY_RIGHT),
    "lower": Atom("form", lambda v, *_: v.lower(), False, BOUNDARY_LEFT, BOUNDARY_RIGHT),
    "pos": Atom("pos_tag", lambda v, *_: v, False, BOUNDARY_LEFT, BOUNDARY_RIGHT),
    "ner": Atom("ner_label", lambda v, *_: v, False, BOUNDARY_LEFT, BOUNDARY_RIGHT),
    "prefix": Atom("form", lambda v, k, _: v[:k], True),
    "suffix": Atom("form", lambda v, k, _: v[-k:], True),
    "shape": Atom("form", lambda v, *_: word_shape(v), False),
    "hasdigit": Atom("form", lambda v, *_: "1" if any(map(str.isdigit, v)) else "0", False),
    "hashyphen": Atom("form", lambda v, *_: "1" if "-" in v else "0", False),
    "gaz": Atom("form", _in_gazetteer, False),
    "isfirst": Atom(None, None, False),
    "islast": Atom(None, None, False),
}


def compile_atom(name, arg, offset):
    """The reader of one atom: get(tokens, i, resources) -> its value at
    position i, or None where the atom is unset. Raises ValueError for an
    unknown atom or a length it does not take."""
    atom = ATOMS.get(name)
    if atom is None:
        raise ValueError(f"unknown feature atom {name!r}")
    if atom.takes_length != (arg is not None) or arg == 0:
        raise ValueError(f"feature atom {name!r} takes "
                         + ("a length of at least 1" if atom.takes_length else "no length"))
    if atom.attribute is None:
        is_last = name == "islast"

        def get(tokens, i, resources):
            return "1" if i + offset == (len(tokens) - 1 if is_last else 0) else "0"
        return get
    attribute, value, left, right = atom.attribute, atom.value, atom.left, atom.right

    def get(tokens, i, resources):
        p = i + offset
        if p < 0:
            return left
        if p >= len(tokens):
            return right
        return value(getattr(tokens[p], attribute), arg, resources)
    return get


@dataclass(frozen=True)
class FeatureTemplate:
    """An extractor over token attributes at relative offsets, named by its
    descriptor.

    The descriptor is a "&"-joined list of atoms like "form@-1&form@0" or
    "prefix3@0"; each atom reads one attribute at one offset (ATOMS). A
    template whose atoms hit an unset attribute emits nothing at that
    position. An unknown atom or a length it does not take raises ValueError.
    A descriptor holds no "=", so the "=" after it ends it in every feature,
    and two different templates never fire one string.
    """

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
        # by VALUE_JOINER; the compiled decode path forms features from it too.
        object.__setattr__(self, "prefix", self.descriptor + "=")

    def extract(self, tokens, i, resources=None):
        values = []
        for atom in self._atoms:
            v = atom(tokens, i, resources)
            if v is None:
                return None
            values.append(v)
        return self.prefix + VALUE_JOINER.join(values)


def pair_feature(a, b):
    """The feature string of the induced pair of features a and b."""
    return a + VALUE_JOINER + VALUE_JOINER + b


def alphabet_tuples(feature_index, names, arities):
    """(template, value tuple, id) of each alphabet feature of the templates.

    Template t is named names[t], a name without "=" that no other template
    has, and has arities[t] atoms; a feature "<name>=<value>" reads as that
    template over <value> split at VALUE_JOINER, its one reading. An induced
    pair's string (pair_feature) splits into more parts than the arity of
    its first feature's template, and is read as no template's.
    """
    by_name = {name: t for t, name in enumerate(names)}
    for feature, j in feature_index.items():
        name, cut, value = feature.partition("=")
        t = by_name.get(name) if cut else None
        if t is not None:
            parts = tuple(value.split(VALUE_JOINER))
            if len(parts) == arities[t]:
                yield t, parts, j


def make_templates(descriptors):
    return [FeatureTemplate(d) for d in descriptors]


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
