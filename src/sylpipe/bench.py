"""Throughput measurement: words per second of the pipeline and of each stage."""

from __future__ import annotations

import statistics
import time

from . import wseg
from .model import DataError, Document


def _word_count(sentences):
    return sum(len(s) for s in sentences)


def benchmark_throughput(pipeline, document, repetitions=3):
    """Median words/second over warm runs of the full pipeline.

    Model loading stays outside the timed region; one untimed run first
    fills the per-type caches.
    """
    if isinstance(document, str):
        document = Document.from_text(document)
    if not document.raw_text.strip() and not document.sentences:
        raise DataError("cannot benchmark an empty document")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    warm = pipeline.annotate(document)
    words = _word_count(warm.sentences)
    if words == 0:
        raise DataError("document produced no tokens")
    rates = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        pipeline.annotate(document)
        dt = time.perf_counter() - t0
        rates.append(words / dt)
    return statistics.median(rates)


def benchmark_stages(pipeline, document, repetitions=3):
    """Per-stage words/second, median over warm runs.

    Each stage is timed through the pipeline's own stage runner, on the
    output of the stages before it. Downstream figures follow the
    pipeline-speed convention: the POS time is included in the NER and parse
    numbers (and the NER time in the parse number when the parser consumes
    NER labels).
    """
    if isinstance(document, str):
        document = Document.from_text(document)
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    stages = pipeline.order
    if "wseg" not in stages:
        raise ValueError("stage benchmark needs a wseg stage")

    syllable_lists = wseg.split_and_tokenize(document.raw_text)
    if not syllable_lists:
        raise DataError("cannot benchmark an empty document")

    # Warm pass, also producing the input each stage is timed on.
    inputs = {}
    sentences = syllable_lists
    for kind in stages:
        inputs[kind] = sentences
        sentences = pipeline._run_stage(kind, sentences)
    words = _word_count(sentences)

    times = {kind: [] for kind in stages}
    for _ in range(repetitions):
        for kind in stages:
            t0 = time.perf_counter()
            pipeline._run_stage(kind, inputs[kind])
            times[kind].append(time.perf_counter() - t0)

    med = {kind: statistics.median(ts) for kind, ts in times.items()}
    rates = {"wseg": words / med["wseg"]}
    if "pos" in med:
        rates["pos"] = words / med["pos"]
    if "ner" in med:
        rates["ner"] = words / (med["pos"] + med["ner"])
    if "parse" in med:
        t = med["pos"] + med["parse"]
        if pipeline.parser_uses_ner():
            t += med["ner"]
        rates["parse"] = words / t
    return rates, words
