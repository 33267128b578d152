"""The four workloads and the untraced and traced measurement loops.

All workloads are closed loops with one client: the next unit of work starts
when the previous one has returned. A run loads the models (set-up), runs an
untimed check set whose outputs are the reference for every later pass over
the same inputs, then measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import statistics
import time
from collections import Counter

from sylpipe import depparse, model, ner, pipeline, pos, seqlabel, wseg

import checks
import hostspeed
import inputs
import tracing

clock = time.perf_counter

ANNOTATORS = {
    "bulk_doc": ("wseg", "pos", "ner", "parse"),
    "short_requests": ("wseg", "pos", "ner", "parse"),
    "segment_only": ("wseg",),
}

# Passes over the training tokens per model, as the README commands train
# them; train_segmenter learns its rules from a single pass.
TRAIN_EPOCHS = {"wseg": 1, "pos": 8, "ner": 8, "parse": 12}

# Work per run. "tiny" only serves the smoke self-test.
SIZES = {
    "full": {"doc_words": 2500, "line_words": 300, "train_tokens": 800, "loads": 21,
             "check_units": {"bulk_doc": 1, "short_requests": 60, "segment_only": 40,
                             "train_models": 1}},
    "tiny": {"doc_words": 120, "line_words": 40, "train_tokens": 400, "loads": 3,
             "check_units": {"bulk_doc": 1, "short_requests": 4, "segment_only": 3,
                             "train_models": 1}},
}


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def model_sizes(pipe):
    sizes = {}
    for kind, m in pipe.models.items():
        if kind == "wseg":
            sizes[kind] = {"lexicon": len(m.lexicon), "rules": len(m.rules)}
        elif kind == "parse":
            sizes[kind] = {"features": len(m.feature_index), "labels": len(m.actions)}
        else:
            sizes[kind] = {"features": len(m.feature_index), "labels": len(m.labels)}
    return sizes


class AnnotateWorkload:
    """bulk_doc, short_requests and segment_only: raw text in, annotation out."""

    def __init__(self, root, name, seed, size, models_dir, work_dir):
        self.name = name
        self.seed = seed
        self.size = size
        self.order = ANNOTATORS[name]
        self.models_dir = models_dir
        self.vocab = inputs.Vocabulary(root)
        self.work_dir = work_dir
        self.out_path = os.path.join(work_dir, "out.txt")

    def prepare(self):
        pass

    def load(self):
        return pipeline.build_pipeline(self.order, model_dir=self.models_dir)

    def unit(self, k):
        if self.name == "bulk_doc":
            unit = inputs.bulk_document(self.vocab, self.seed, k, self.size["doc_words"])
            unit = dataclasses.replace(unit, path=os.path.join(self.work_dir, f"in-{k}.txt"))
            with open(unit.path, "w", encoding="utf-8") as fh:
                fh.write(unit.text)
            return unit
        if self.name == "short_requests":
            return inputs.short_request(self.vocab, self.seed, k)
        return inputs.segment_line(self.vocab, self.seed, k, self.size["line_words"])

    def run(self, pipe, unit):
        """One unit of work: a file-to-file document, or one annotate call."""
        if self.name != "bulk_doc":
            return pipe.annotate(unit.text).sentences
        with open(unit.path, encoding="utf-8") as fh:
            text = fh.read()
        sentences = pipe.annotate(text).sentences
        with open(self.out_path, "w", encoding="utf-8") as fh:
            fh.write(model.dump_six_column(sentences))
        return sentences

    def render(self, sentences):
        """The unit's output text, for the checks and byte comparisons."""
        if self.name == "bulk_doc":
            with open(self.out_path, encoding="utf-8") as fh:
                return fh.read()
        return checks.dump_six_column(sentences)

    @staticmethod
    def words(sentences):
        return sum(len(s) for s in sentences)

    @staticmethod
    def input_size(unit):
        return unit.words, unit.sentences

    def problems(self, unit, sentences, text):
        return checks.annotation_problems(text, sentences, unit, self.order)

    def properties(self, units, outputs):
        """Input properties of the check set; ratios come as [value, base]."""
        forms = [t.form for sentences in outputs for s in sentences for t in s]
        syllables = [s for u in units for s in u.syllables if s.isalpha()]
        unseen = sum(1 for s in syllables if s.lower() not in self.vocab.known_syllables)
        return {
            "word_types_per_word": [len(set(forms)) / len(forms), len(forms)],
            "unseen_syllable_share": [unseen / len(syllables), len(syllables)],
            "sentence_length_quartiles": _quartiles(
                [len(s) for sentences in outputs for s in sentences]),
            "words": sum(u.words for u in units),
            "sentences": sum(u.sentences for u in units),
        }


class TrainWorkload:
    """train_models: the four trainers on a corpus resampled with the seed.

    One unit is a training round of all four models, saved to disk. Every
    round trains on the same corpus, so every round must save the same bytes.
    """

    name = "train_models"

    def __init__(self, root, seed, size, work_dir):
        self.corpus = inputs.training_corpus(root, seed, size["train_tokens"])
        self.reference_dir = os.path.join(work_dir, "reference")
        self.round_dir = os.path.join(work_dir, "round")
        self.reference = None
        self.scores = None

    def prepare(self):
        """Train the models that set-up loads, and score them on the toy corpora."""
        self.reference = self.render(self._train(self.corpus, self.reference_dir))
        path = lambda kind: os.path.join(self.reference_dir, kind + ".model")
        self.scores = checks.toy_scores(
            wseg.load_segmenter(path("wseg")), seqlabel.load_linear_model(path("pos")),
            seqlabel.load_linear_model(path("ner")), depparse.load_parser(path("parse")),
            self.corpus.toy)

    def load(self):
        return pipeline.build_pipeline(model_dir=self.reference_dir)

    def unit(self, k):
        return self.corpus

    def run(self, system, corpus):
        return self._train(corpus, self.round_dir)

    @staticmethod
    def _train(corpus, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        wseg.save_segmenter(wseg.train_segmenter(corpus.segmentation),
                            os.path.join(out_dir, "wseg.model"))
        seqlabel.save_linear_model(pos.train_pos(corpus.pos, epochs=TRAIN_EPOCHS["pos"]),
                                   os.path.join(out_dir, "pos.model"))
        seqlabel.save_linear_model(ner.train_ner(ner.training_pairs(corpus.ner),
                                                 epochs=TRAIN_EPOCHS["ner"]),
                                   os.path.join(out_dir, "ner.model"))
        depparse.save_parser(depparse.train_parser(corpus.treebank,
                                                   epochs=TRAIN_EPOCHS["parse"]),
                             os.path.join(out_dir, "parse.model"))
        return out_dir

    def render(self, out_dir):
        digest = hashlib.sha256()
        for kind in TRAIN_EPOCHS:
            with open(os.path.join(out_dir, kind + ".model"), "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()

    def words(self, out_dir):
        return self.corpus.tokens * sum(TRAIN_EPOCHS.values())

    def input_size(self, corpus):
        return corpus.tokens, len(corpus.treebank)

    def problems(self, unit, out_dir, text):
        return [] if text == self.reference else [
            "trained models differ from the first training on the same corpus"]

    def properties(self, units, outputs):
        forms = [t.form for s in self.corpus.treebank for t in s]
        return {
            "word_types_per_word": [len(set(forms)) / len(forms), len(forms)],
            "sentence_length_quartiles": _quartiles([len(s) for s in self.corpus.treebank]),
            "words": self.corpus.tokens,
            "sentences": len(self.corpus.treebank),
            "toy_scores": self.scores,
        }

    def final_problems(self):
        return checks.model_problems(self.scores)


def make_workload(root, name, seed, tiny, models_dir, work_dir):
    size = SIZES["tiny" if tiny else "full"]
    if name == "train_models":
        return TrainWorkload(root, seed, size, work_dir), size
    return AnnotateWorkload(root, name, seed, size, models_dir, work_dir), size


class Log:
    """Counts attempted and failed operations and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{label}: {p}" for p in problems[:3])


def _run_unit(w, system, unit, label, log, tracer=None, request=0):
    """Run one unit; (seconds, output, text), or None after counting a failure.

    The root span of a traced unit lies inside its timed interval, so the
    self times of a pass never add up to more than the pass's unit time.
    """
    t0 = clock()
    if tracer is not None:
        tracer.request_id = request
        root = tracer.begin("request")
    try:
        out = w.run(system, unit)
    except Exception as exc:  # a failing operation is counted, not fatal
        log.record(label, [f"{type(exc).__name__}: {exc}"])
        return None
    finally:
        if tracer is not None:
            tracer.finish(root)
        dt = clock() - t0
    return dt, out, w.render(out)


def _traced_loads(w, n, tracer):
    """Load n times; the system and each load's span summary."""
    spans = []
    for r in range(n):
        tracer.request_id = r
        lo = tracer.mark()
        system = w.load()
        spans.append(tracer.summary(lo, tracer.mark()))
    return system, spans


def _check_pass(w, system, n_units, log, tracer=None):
    """Untimed first pass over the check set; its texts are the reference."""
    units, outputs, texts = [], [], []
    for k in range(n_units):
        unit = w.unit(k)
        res = _run_unit(w, system, unit, f"unit {k}", log, tracer, k)
        if res is not None:
            log.record(f"unit {k}", w.problems(unit, res[1], res[2]))
        units.append(unit)
        outputs.append(None if res is None else res[1])
        texts.append(None if res is None else res[2])
    return units, outputs, texts


def _meta(w, system, units, outputs, reference):
    done = [k for k, out in enumerate(outputs) if out is not None]
    units = [units[k] for k in done]
    outputs = [outputs[k] for k in done]
    digest = hashlib.sha256()
    for text in reference:
        digest.update((text or "").encode("utf-8") + b"\0")
    return {
        "models": model_sizes(system),
        "check_set": {"units": len(reference), "digest": digest.hexdigest(),
                      "properties": w.properties(units, outputs)},
    }


def measure(w, size, seconds, log, meta):
    """Untraced run; returns the end-to-end metrics, or None if no unit completed.

    Timings are scaled to the host's quiet speed (hostspeed.py); set-up is
    timed in samples spread over the whole run, like the units.
    """
    w.prepare()
    speed = hostspeed.HostSpeed()
    for _ in range(5):
        speed.probe()
    loads = []

    def timed_load():
        speed.probe()
        t0 = clock()
        system = w.load()
        loads.append((t0, clock()))
        speed.probe()
        return system

    system = timed_load()
    n_check = size["check_units"][w.name]
    units, outputs, reference = _check_pass(w, system, n_check, log)
    spans = []
    words = []
    generated = [0, 0]
    k = 0
    start = clock()
    deadline = start + seconds
    while k < n_check or clock() < deadline:
        unit = w.unit(k)
        speed.maybe_probe()
        t0 = clock()
        res = _run_unit(w, system, unit, f"unit {k}", log)
        if res is not None:
            dt, out, text = res
            spans.append((t0, t0 + dt))
            words.append(w.words(out))
            problems = w.problems(unit, out, text)
            if k < n_check and text != reference[k]:
                problems.append("second pass output differs from the first")
            log.record(f"unit {k}", problems)
        n_words, n_sentences = w.input_size(unit)
        generated[0] += n_words
        generated[1] += n_sentences
        k += 1
        if clock() - start >= len(loads) * seconds / size["loads"]:
            timed_load()
    speed.probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meta.update(_meta(w, system, units, outputs, reference))
    meta["timed_loop"] = {"units": k, "output_words": sum(words),
                          "input_words": generated[0], "input_sentences": generated[1],
                          "setup_samples": len(loads)}
    if not spans:
        return None
    raw = [e - s for s, e in spans]
    factors = speed.factors(spans)
    scaled = [d / f for d, f in zip(raw, factors)]
    setup = [(e - s) / f for (s, e), f in zip(loads, speed.factors(loads))]
    # The tail is reported, not bounded: beyond the median a run's latency
    # follows the host's load more than the program, even once scaled.
    meta["latency"] = {
        "samples": len(raw),
        "call_p99_ms": {"value": percentile(scaled, 99) * 1e3, "unit": "ms",
                        "samples_beyond": len(raw) // 100},
        "raw": {"words_per_s": sum(words) / sum(raw),
                "call_p50_ms": statistics.median(raw) * 1e3,
                "call_p99_ms": percentile(raw, 99) * 1e3,
                "setup_s": statistics.median(e - s for s, e in loads)},
    }
    meta["host"] = {"probe_reference_ms": speed.reference() * 1e3,
                    "probes": len(speed.seconds),
                    "median_unit_factor": statistics.median(factors)}
    return {
        "setup_s": statistics.median(setup),
        "words_per_s": sum(words) / sum(scaled),
        "call_p50_ms": statistics.median(scaled) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def measure_traced(w, size, seconds, log, meta, declared):
    """Traced run; returns every declared per-layer metric but failed_frac."""
    w.prepare()
    tracer = tracing.Tracer()
    with tracer.installed():
        system, load_spans = _traced_loads(w, size["loads"], tracer)
    n_check = size["check_units"][w.name]

    tracer.counts = Counter()
    with tracer.installed():
        units, outputs, reference = _check_pass(w, system, n_check, log, tracer)
    counts, tracer.counts = tracer.counts, None

    plain, traced, self_sums, passes = [], [], [], []
    deadline = clock() + seconds
    while len(traced) < 2 or clock() < deadline:
        n = len(traced) + 1
        results = [_run_unit(w, system, unit, f"pass {n} unit {k}", log)
                   for k, unit in enumerate(units)]
        plain.append(sum(r[0] for r in results if r is not None))
        _compare(results, reference, log, f"untraced pass {n}")
        lo = tracer.mark()
        with tracer.installed():
            results = [_run_unit(w, system, unit, f"pass {n} unit {k}", log,
                                 tracer, n * n_check + k)
                       for k, unit in enumerate(units)]
        traced.append(sum(r[0] for r in results if r is not None))
        _compare(results, reference, log, f"traced pass {n}")
        passes.append(tracer.summary(lo, tracer.mark()))
        self_sums.append(sum(passes[-1][0].values()))
    log.record("trace", [] if all(p[2] == passes[0][2] for p in passes) else
               ["span counts differ between passes over the same inputs"])

    meta.update(_meta(w, system, units, outputs, reference))
    plain_s = statistics.median(plain)
    meta["trace"] = {"passes": len(traced), "spans": tracer.mark(),
                     "untraced_pass_s": plain_s,
                     "traced_pass_s": statistics.median(traced),
                     "self_sum_s": statistics.median(self_sums)}
    bases = meta["bases"] = {}
    values = {}
    for name in declared:
        if name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            source = load_spans if span == "pipeline.build" else passes
            values[name] = statistics.median(p[0].get(span, 0.0) for p in source)
        elif name.endswith(".s"):
            span = name[:-len(".s")]
            source = load_spans if span.startswith("load.") else passes
            values[name] = statistics.median(p[1].get(span, 0.0) for p in source)
        elif name.endswith(".oov_rate"):
            prefix = name[:-len(".oov_rate")]
            missing, extracted = counts[prefix + ".missing"], counts[prefix + ".features"]
            values[name] = missing / extracted if extracted else 0.0
            bases[name] = {"missing": missing, "extracted": extracted}
        elif name == "trace.overhead_ratio":
            values[name] = statistics.median(traced) / plain_s
            bases[name] = {"untraced_pass_s": plain_s}
        elif name == "trace.self_sum_ratio":
            values[name] = statistics.median(self_sums) / plain_s
            bases[name] = {"untraced_pass_s": plain_s}
        elif name != "failed_frac":
            values[name] = counts[name]
    return values


def _compare(results, reference, log, label):
    for k, (res, ref) in enumerate(zip(results, reference)):
        if res is not None:
            log.record(f"{label} unit {k}",
                       [] if res[2] == ref else ["output differs from the first pass"])


def demo_problems(root, models_dir):
    """The README demo sentence must annotate to the bundled golden file."""
    data = os.path.join(root, "tests", "data")
    with open(os.path.join(data, "demo_input.txt"), encoding="utf-8") as fh:
        raw = fh.read()
    with open(os.path.join(data, "demo_annotated.txt"), encoding="utf-8") as fh:
        golden = fh.read()
    pipe = pipeline.build_pipeline(model_dir=models_dir)
    got = checks.dump_six_column(pipe.annotate(raw).sentences)
    return [] if got == golden else ["differs from tests/data/demo_annotated.txt"]
