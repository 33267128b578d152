"""In-memory span tracer and the wrappers that time sylpipe's layers from outside.

Each wrapper replaces a public function or method at the place its caller
looks the name up (``pos.tag_pos`` calls ``pos.viterbi_decode`` and
``_kernels.viterbi_path``, so those module attributes are the ones replaced)
and is removed again when a traced pass ends, so untraced passes run the
unmodified program. Functions shared by several stages (feature extraction,
the kernels, ``Sentence`` rebuilding) are named after the enclosing stage:
a gather under ``pos.tag`` is ``pos.gather``, under ``train.parse`` it is
``train.gather``.

Spans keep a name, start, end, parent and request id in flat arrays until the
run ends. A span's self time is its duration minus the durations of its
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from sylpipe import _kernels, depparse, model, ner, pipeline, pos, seqlabel, wseg

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.stages = [("other", None)]  # (layer prefix, model kind)
        self.request_id = -1
        self.counts = None  # a Counter while an untimed counting pass runs

    def mark(self):
        return len(self.start)

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(_clock())
        return i

    def finish(self, i):
        self.end[i] = _clock()
        self._open.pop()

    def summary(self, lo, hi):
        """(self seconds, total seconds, span count) by name for spans lo..hi-1."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = Counter()
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            self_s[name] += d - child[i - lo]
            total_s[name] += d
            calls[name] += 1
        return self_s, total_s, calls

    @contextmanager
    def installed(self):
        """Replace the traced names for the duration of the block."""
        saved = []
        try:
            for owner, attr, spec in _PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(self, original, **spec))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _wrap(tracer, fn, name=None, suffix=None, stage=None, count=None):
    """A timed stand-in for fn.

    name: the span name, or a function of the call arguments giving it.
    suffix: the span is "<enclosing stage>.<suffix>".
    stage: (prefix, kind) that children are named and counted under.
    count: called as count(tracer, args, result) during a counting pass.
    """
    def wrapper(*args, **kwargs):
        if suffix is not None:
            span_name = tracer.stages[-1][0] + "." + suffix
        elif callable(name):
            span_name = name(*args, **kwargs)
        else:
            span_name = name
        i = tracer.begin(span_name)
        if stage is not None:
            tracer.stages.append(stage)
        try:
            result = fn(*args, **kwargs)
        finally:
            if stage is not None:
                tracer.stages.pop()
            tracer.finish(i)
        if count is not None and tracer.counts is not None:
            count(tracer, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


# Counters read only array shapes and return values, so they are exact and
# repeat for a fixed input.

def _count_segment(tracer, args, result):
    c = tracer.counts
    c["wseg.sentences"] += 1
    c["wseg.syllables"] += len(args[1])
    c["wseg.words"] += len(result)


def _count_positions(tracer, args, feats):
    prefix = tracer.stages[-1][0]
    index = args[0].feature_index
    c = tracer.counts
    c[prefix + ".positions"] += 1
    c[prefix + ".features"] += len(feats)
    c[prefix + ".missing"] += sum(1 for f in feats if f not in index)


def _count_train_features(tracer, args, feats):
    prefix, kind = tracer.stages[-1]
    if prefix == "train":
        tracer.counts[f"train.{kind}.features"] += len(feats)


def _count_state_features(tracer, args, feats):
    prefix = tracer.stages[-1][0]
    if prefix == "parse":
        tracer.counts["parse.transitions"] += 1
        tracer.counts["parse.features"] += len(feats)
    elif prefix == "train":
        tracer.counts["train.parse.features"] += len(feats)


def _count_parse_missing(tracer, args, ids):
    index = args[0].feature_index
    tracer.counts["parse.missing"] += sum(1 for f in args[1] if f not in index)


def _count_fallback(tracer, args, sentence):
    label = args[0].fallback_label
    tracer.counts["parse.fallback_arcs"] += sum(1 for t in sentence if t.dep_label == label)


def _count_row_sum(tracer, args, out):
    weights, ids = args[0], args[1]
    c = tracer.counts
    c["kernels.row_sum.calls"] += 1
    c["kernels.row_sum.bytes"] += ids.shape[0] * weights.shape[1] * weights.itemsize


def _count_viterbi(tracer, args, result):
    T, L = args[0].shape
    c = tracer.counts
    c["kernels.viterbi.calls"] += 1
    c["kernels.viterbi.cells"] += T * L * L


def _load_name(path, *args, **kwargs):
    # pos and ner share load_linear_model; the file name tells them apart.
    return "load." + os.path.basename(str(path)).split(".")[0]


_PATCHES = (
    (pipeline, "build_pipeline", dict(name="pipeline.build")),
    (pipeline.Pipeline, "annotate", dict(name="pipeline.annotate")),
    (wseg, "load_segmenter", dict(name="load.wseg")),
    (pipeline, "load_linear_model", dict(name=_load_name)),
    (depparse, "load_parser", dict(name="load.parse")),
    (wseg, "split_and_tokenize", dict(name="wseg.split_and_tokenize")),
    (wseg, "segment", dict(name="wseg.segment", count=_count_segment)),
    (pos, "tag_pos", dict(name="pos.tag", stage=("pos", "pos"))),
    (ner, "tag_ner", dict(name="ner.tag", stage=("ner", "ner"))),
    (depparse, "parse_sentence", dict(name="parse.sentence", stage=("parse", "parse"),
                                      count=_count_fallback)),
    (seqlabel.LinearModel, "position_feature_ids", dict(suffix="lookup")),
    (seqlabel.LinearModel, "position_features", dict(suffix="extract",
                                                     count=_count_positions)),
    (seqlabel, "extract_features", dict(suffix="extract", count=_count_train_features)),
    (_kernels, "row_sum", dict(suffix="gather", count=_count_row_sum)),
    (_kernels, "viterbi_path", dict(suffix="viterbi", count=_count_viterbi)),
    (model.Sentence, "with_pos_tags", dict(suffix="rebuild")),
    (model.Sentence, "with_ner_labels", dict(suffix="rebuild")),
    (model.Sentence, "with_parse", dict(suffix="rebuild")),
    (depparse, "state_features", dict(suffix="state_features",
                                      count=_count_state_features)),
    (depparse.ParserModel, "feature_ids", dict(suffix="lookup",
                                               count=_count_parse_missing)),
    (depparse.ParserModel, "action_mask", dict(suffix="action_mask")),
    (model, "dump_six_column", dict(name="io.dump_six_column")),
    (wseg, "train_segmenter", dict(name="train.wseg", stage=("train", "wseg"))),
    (pos, "train_pos", dict(name="train.pos", stage=("train", "pos"))),
    (ner, "train_ner", dict(name="train.ner", stage=("train", "ner"))),
    (depparse, "train_parser", dict(name="train.parse", stage=("train", "parse"))),
)
