"""Throughput measurement (words per second) and the kernel backend benchmark."""

from __future__ import annotations

import statistics
import time

import numpy as np

from . import _kernels, wseg
from .model import Document


def _word_count(sentences):
    return sum(len(s) for s in sentences)


def benchmark_throughput(pipeline, document, repetitions=3):
    """Median words/second over warm runs of the full pipeline.

    Model loading stays outside the timed region; one untimed warmup run
    triggers any JIT compilation first.
    """
    if isinstance(document, str):
        document = Document.from_text(document)
    if not document.raw_text.strip() and not document.sentences:
        raise ValueError("cannot benchmark an empty document")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    warm = pipeline.annotate(document)
    words = _word_count(warm.sentences)
    if words == 0:
        raise ValueError("document produced no tokens")
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
        raise ValueError("cannot benchmark an empty document")

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


def compare_kernels(lattice_shape=(40, 24), n_lattices=200, gather_rows=30,
                    repetitions=3, seed=7):
    """Time the numba and numpy kernel paths on synthetic inputs.

    Returns a list of (kernel, backend, seconds) rows. The numba rows are
    absent when the numba path is unavailable (SYLPIPE_NO_NUMBA=1 or numba
    missing). The viterbi_doc rows decode lattices of mixed lengths (1 to
    the lattice length) the way a document is tagged: once as one batch
    (backend "batched", _kernels.viterbi_paths) and once one lattice at a
    time through each backend's viterbi_path.
    """
    rng = np.random.default_rng(seed)
    T, L = lattice_shape
    emissions = [rng.standard_normal((T, L)) for _ in range(n_lattices)]
    trans = rng.standard_normal((L, L))
    start = rng.standard_normal(L)
    weights = rng.standard_normal((5000, L))
    id_sets = [rng.integers(0, 5000, size=gather_rows).astype(np.int64)
               for _ in range(n_lattices)]
    lengths = rng.integers(1, T + 1, size=n_lattices)
    document = [em[:n] for em, n in zip(emissions, lengths)]
    stacked = np.concatenate(document)
    path = np.empty(T, dtype=np.int64)
    out = np.empty(L)

    def best_of(run):
        run()  # warm / compile
        best = None
        for _ in range(repetitions):
            t0 = time.perf_counter()
            run()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    backends = [("numpy", _kernels._viterbi_numpy, _kernels._row_sum_numpy)]
    if _kernels.HAVE_NUMBA:
        backends.append(("numba", _kernels._viterbi_numba, _kernels._row_sum_numba))

    rows = []
    for name, viterbi_fn, row_sum_fn in backends:
        rows.append(("viterbi", name, best_of(
            lambda: [viterbi_fn(em, trans, start, path) for em in emissions])))
        rows.append(("row_sum", name, best_of(
            lambda: [row_sum_fn(weights, ids, out) for ids in id_sets])))
        rows.append(("viterbi_doc", name, best_of(
            lambda: [viterbi_fn(em, trans, start, path) for em in document])))
    rows.append(("viterbi_doc", "batched", best_of(
        lambda: _kernels.viterbi_paths(stacked, lengths, trans, start))))
    return rows


def format_kernel_report(rows):
    lines = [f"active backend: {_kernels.BACKEND}"]
    for kernel, backend, seconds in rows:
        lines.append(f"{kernel:<11} {backend:<7} {seconds * 1e3:8.2f} ms")
    return "\n".join(lines)
