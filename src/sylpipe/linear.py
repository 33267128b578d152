"""What the taggers and the parser share: the averaged perceptron and the
model-file container.

A model file is a magic line, a compact JSON header with sorted keys, the
feature alphabet one feature per line in id order, a "WEIGHTS" line, then
the weight arrays as little-endian float64, which end the file.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

logger = logging.getLogger(__name__)


class AveragedWeights:
    """Perceptron weights W, averaged lazily (Collins 2002): U sums every
    update times its step, so the mean of W over all steps is
    ((step + 1) * W - U) / step. updates counts the calls of update.

    W is `rows` rows of zeros, then tail: the rows its model keeps after its
    weights (weight_rows). U is zeros of that shape. Both come from np.zeros,
    which leaves the pages of rows that no update writes unallocated.
    """

    def __init__(self, rows, tail):
        self.rows = rows
        self.W = np.zeros((rows + len(tail), tail.shape[1]))
        self.W[rows:] = tail
        self.U = np.zeros(self.W.shape)
        self.updates = 0

    def update(self, gold_index, pred_index, step):
        """Add one at the numpy index gold_index, subtract one at pred_index."""
        W, U = self.W, self.U
        W[gold_index] += 1.0
        W[pred_index] -= 1.0
        U[gold_index] += step
        U[pred_index] -= step
        self.updates += 1

    def averaged(self, step):
        """The mean of W as it stood after each of steps 1..step (W if none),
        without the tail: a view of an array that ends in the tail's bytes,
        which a model takes as it is (weight_rows); U is zero there, so a
        +0.0 or -inf row stays as it is."""
        if step == 0:
            return self.W[:self.rows]
        mean = self.W * (step + 1)
        mean -= self.U
        mean /= step
        return mean[:self.rows]


# Every weight a perceptron trains is a mean of integers no larger than its
# number of updates. Models refuse weights beyond this bound, so that no sum
# of a model's scores overflows to an infinity.
WEIGHT_BOUND = 2.0 ** 53


def check_weights(*arrays):
    """Refuse weights that are not finite or exceed WEIGHT_BOUND in magnitude.

    A NaN makes the minimum and the maximum NaN, which fails both tests.
    """
    for array in arrays:
        if not (-WEIGHT_BOUND <= array.min(initial=0.0)
                and array.max(initial=0.0) <= WEIGHT_BOUND):
            raise ValueError("weights must be finite and at most 2**53 in magnitude")


def weight_rows(weights, tail):
    """The float64 array that a model scores with: the (F, C) weights, then
    the rows of tail, which end in the zero row that sum_rows' padding
    reads. The model's public weights are a view of its first F rows.

    Weights that already head such an array, with these tail rows, are not
    copied: ModelFormat.read and AveragedWeights.averaged return them so.
    """
    weights = np.asarray(weights, dtype=np.float64)
    F, C = weights.shape
    base = weights.base
    if (isinstance(base, np.ndarray) and base.dtype == np.float64
            and base.flags.c_contiguous and weights.flags.c_contiguous
            and base.shape == (F + len(tail), C)
            and weights.__array_interface__["data"] == base.__array_interface__["data"]
            and base[F:].tobytes() == tail.tobytes()):
        return base
    rows = np.empty((F + len(tail), C))
    rows[:F] = weights
    rows[F:] = tail
    return rows


def epoch_orders(count, epochs, shuffle_seed):
    """The order of instances 0..count-1 in each epoch: corpus order if
    shuffle_seed is None, else the previous epoch's order shuffled by one
    generator seeded with shuffle_seed."""
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    order = list(range(count))
    for _ in range(epochs):
        if rng is not None:
            rng.shuffle(order)
        yield tuple(order)


def check_epochs(epochs):
    """Refuse an epoch count below one, which would train nothing."""
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs!r}")


def train_epochs(weights, steps, epochs, shuffle_seed, learn, on_epoch=None):
    """Run the epochs of an averaged perceptron; return the last step.

    Instance i takes steps[i] averaging steps an epoch, one per decision,
    in the order epoch_orders gives. learn(i, step) decodes instance i with
    the current weights, updates them (weights, a sequence of
    AveragedWeights) at steps step + 1 onward, and returns its (mistakes,
    correct, total) counts. on_epoch(epoch, mistakes, correct / total) is
    called after each epoch.

    An epoch that makes no update leaves every W as it found it, and each
    prediction depends on W and its instance alone, whatever the order. So
    every later epoch would make no update either: those epochs are not
    run. Their steps are still counted and on_epoch hears (epoch, 0, 1.0),
    what they would report, so averaged(step) and the calls are as if they
    had run.
    """
    per_epoch = sum(steps)
    step = 0
    for epoch, order in enumerate(epoch_orders(len(steps), epochs, shuffle_seed), 1):
        updates = sum(w.updates for w in weights)
        mistakes = correct = total = 0
        for i in order:
            m, c, t = learn(i, step)
            step += steps[i]
            mistakes += m
            correct += c
            total += t
        if on_epoch is not None:
            on_epoch(epoch, mistakes, correct / total if total else 1.0)
        if epoch < epochs and sum(w.updates for w in weights) == updates:
            logger.debug("no update in epoch %d of %d; epochs %d-%d change nothing "
                         "and are not scored", epoch, epochs, epoch + 1, epochs)
            for later in range(epoch + 1, epochs + 1):
                step += per_epoch
                if on_epoch is not None:
                    on_epoch(later, 0, 1.0)
            break
    return step


def _strings(value, size=None):
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and size in (None, len(value)))


# Header field types by the name a format declares them with.
_FIELD_TYPES = {
    "boolean": lambda v: isinstance(v, bool),
    "count": lambda v: type(v) is int and v >= 0,
    "string": lambda v: isinstance(v, str),
    "string list": _strings,
    "string list or null": lambda v: v is None or _strings(v),
    "string pair list": lambda v: isinstance(v, list) and all(_strings(p, 2) for p in v),
}


def _corrupt(path, what):
    return ValueError(f"{path}: corrupt model file ({what})")


def _alphabet_fault(lines, F):
    """The first fault of an alphabet whose feature j is on line j + 3."""
    seen = {}
    for j, raw in enumerate([*lines, b""]):
        if not raw.endswith(b"\n"):  # the file ends on this line
            return f"line {j + 3}: alphabet ends after {j} of {F} features"
        try:
            feature = raw[:-1].decode("utf-8")
        except UnicodeDecodeError:
            return f"line {j + 3} is not UTF-8"
        if feature in seen:
            return f"line {j + 3} repeats line {seen[feature] + 3}"
        seen[feature] = j


@dataclass(frozen=True)
class ModelFormat:
    """A model-file format. fields maps the header keys besides "feature_count"
    to _FIELD_TYPES names; shapes maps a checked header to the (rows, cols) of
    each weight array, and tails to the rows that its model keeps after each
    (weight_rows), an empty array where it keeps none."""

    magic: bytes
    fields: dict
    shapes: Callable
    tails: Callable

    def write(self, path, header, feature_index, arrays):
        """Write a model whose feature_index maps its features to ids 0..F-1."""
        header = dict(header, feature_count=len(feature_index))
        with open(path, "wb") as fh:
            fh.write(self.magic)
            fh.write(json.dumps(header, sort_keys=True, ensure_ascii=True,
                                separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            for feature in sorted(feature_index, key=feature_index.get):
                fh.write(feature.encode("utf-8"))
                fh.write(b"\n")
            fh.write(b"WEIGHTS\n")
            for array in arrays:
                fh.write(array.astype("<f8").tobytes())

    def read(self, path):
        """(header, feature index, weight arrays) of a model file. A fault
        of the layout raises ValueError naming the file, and the line where
        it has one; tails may refuse the header too."""
        with open(path, "rb") as fh:
            if fh.readline(len(self.magic)) != self.magic:
                raise ValueError(f"{path}: not a {self.magic[:-1].decode()} model file")
            try:
                header = json.loads(fh.readline().decode("utf-8"))
            except ValueError:
                header = None
            if not isinstance(header, dict):
                raise _corrupt(path, "line 2 is not a JSON object")
            fields = dict(self.fields, feature_count="count")
            for key, kind in fields.items():
                if key not in header:
                    raise _corrupt(path, f"header lacks {key!r}")
                if not _FIELD_TYPES[kind](header[key]):
                    raise _corrupt(path, f"header field {key!r} is not a {kind}")
            if header.keys() != fields.keys():
                raise _corrupt(path, f"header has unknown fields "
                                     f"{sorted(header.keys() - fields.keys())}")
            F = header["feature_count"]
            lines = list(itertools.islice(fh, F))
            block = b"".join(lines)
            try:
                features = block.decode("utf-8").split("\n")
            except UnicodeDecodeError:
                features = ()
            feature_index = dict(zip(features, range(F)))
            # Each line holds at most one newline, at its end.
            if len(feature_index) != F or block.count(b"\n") != F:
                raise _corrupt(path, _alphabet_fault(lines, F))
            if fh.readline() != b"WEIGHTS\n":
                raise _corrupt(path, f"line {F + 3} is not the WEIGHTS marker")
            # Each array is read into the head of the array its model keeps.
            arrays = []
            for (rows, cols), tail in zip(self.shapes(header), self.tails(header)):
                block = np.empty((rows + len(tail), cols), dtype="<f8")
                block[rows:] = tail
                arrays.append(block[:rows])
            expected = sum(array.nbytes for array in arrays)
            found = os.fstat(fh.fileno()).st_size - fh.tell()
            if found != expected:
                raise _corrupt(path, f"weight section has {found} bytes, "
                                     f"expected {expected}")
            for array in arrays:
                if fh.readinto(array) != array.nbytes:
                    raise ValueError(f"{path}: model file changed while it was read")
        return header, feature_index, arrays
