"""Command-line frontend: annotate, train, eval, bench.

Exit codes: 0 success, 1 a named file or directory that cannot be read or
written, 2 configuration error (bad annotator or arguments), 3 model load
failure, 4 data format or alignment error, 5 unexpected internal error.

Exit 4 covers model.DataError, whose subclasses include FormatError,
AlignmentError, TrainingError and DecodeError, and input that is not UTF-8.
A fault in any corpus file, for train and eval alike, reads "line N:
<problem> (in <file>)" (model.read_corpus). An annotator stage that fails
with a DecodeError exits 4 too, its message naming the stage and the
sentence ("<stage> failed on sentence N: ..."); a stage that fails with
any other exception, like any other ValueError, is a fault of the program
and exits 5.

annotate refuses an output that is its input, by name or through a link
(exit 2), before it opens anything: opening it would truncate the input.
It opens its output after reading its input and before loading a model,
so an output it cannot write exits 1 before any work. Opening it
truncates an earlier file of that name; a run that fails after that
removes the file, unless it is a device or a link, so a failed run leaves
no output. train opens its model and log for appending before it reads
the corpus, which never truncates, so a path it cannot write exits 1
before any training; a run that fails after that removes only the files
it created, so an earlier model stays as it was.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import bench, depparse, metrics, ner, pos, wseg
from .model import DataError, dump_six_column, read_corpus, read_six_column, split_form
from .pipeline import (ANNOTATOR_KINDS, MODEL_FILES, AnnotationError, ModelLoadError,
                       Pipeline, PipelineConfigError, build_pipeline, load_model)
from .seqlabel import DecodeError, save_linear_model, tag_sentences

MODELS_ENV_VAR = "SYLPIPE_MODELS"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_DATA = 4
EXIT_INTERNAL = 5


def _models_dir(args):
    if args.models:
        return args.models
    env = os.environ.get(MODELS_ENV_VAR)
    if env:
        return env
    return "models"


def _parse_annotators(value):
    names = [a.strip() for a in value.split(",") if a.strip()]
    if not names:
        raise PipelineConfigError("empty annotator list")
    for name in names:
        if name not in ANNOTATOR_KINDS:
            raise PipelineConfigError(f"unknown annotator {name!r}; expected a "
                                      f"comma list over {','.join(ANNOTATOR_KINDS)}")
    return names


def _int_at_least(least, what):
    """An argparse type: an integer of at least `least`, called a `what` integer."""
    def parse(value):
        try:
            number = int(value)
        except ValueError:
            number = least - 1
        if number < least:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {value!r}")
        return number
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _require_input(path):
    if not os.path.isfile(path):
        raise FileNotFoundError(f"input file not found: {path}")


def cmd_annotate(args):
    _require_input(args.fin)
    if os.path.exists(args.fout) and os.path.samefile(args.fin, args.fout):
        raise PipelineConfigError(f"-fout {args.fout} is the input file {args.fin}")
    annotators = _parse_annotators(args.annotators)
    text = read_corpus(args.fin)
    with open(args.fout, "w", encoding="utf-8") as fh:
        try:
            pipe = build_pipeline(annotators, model_dir=_models_dir(args))
            fh.write(dump_six_column(pipe.annotate(text).sentences))
        except BaseException:
            fh.close()
            # Not a device or a link, such as /dev/stdout.
            if os.path.isfile(args.fout) and not os.path.islink(args.fout):
                os.remove(args.fout)
            raise
    return EXIT_OK


def cmd_train(args):
    _require_input(args.corpus)
    models_dir = _models_dir(args)
    os.makedirs(models_dir, exist_ok=True)
    model_path, log_path = (os.path.join(models_dir, args.task + ext)
                            for ext in (".model", ".train.log"))
    created = [path for path in (model_path, log_path) if not os.path.lexists(path)]
    try:
        for path in (model_path, log_path):
            open(path, "ab").close()
        log_lines = _train(args, models_dir, model_path)
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in log_lines))
    except BaseException:
        for path in created:
            if os.path.isfile(path):
                os.remove(path)
        raise
    print(f"wrote {model_path}")
    print(f"training log: {log_path}")
    return EXIT_OK


def _train(args, models_dir, model_path):
    """Train the task's model from its corpus and save it at model_path;
    returns the lines of its training log."""
    log_lines = []

    def on_epoch(epoch, mistakes, accuracy):
        unit = "transitions" if args.task == "parse" else "sentences"
        log_lines.append(f"epoch={epoch} mistaken_{unit}={mistakes} "
                         f"training_accuracy={accuracy:.4f}")

    if args.task == "wseg":
        corpus = wseg.read_segmented_corpus(args.corpus)

        def on_rule(k, rule, remaining):
            log_lines.append(f"rule={k} action={rule.action} template={rule.template} "
                             f"net={rule.score} remaining_errors={remaining}")

        model = wseg.train_segmenter(corpus, window_radius=args.window,
                                     max_rules=args.max_rules, on_rule=on_rule)
        wseg.save_segmenter(model, model_path)
        log_lines.append(f"lexicon_size={len(model.lexicon)} rules={len(model.rules)}")
    elif args.task == "pos":
        corpus = pos.read_two_column(args.corpus)
        model = pos.train_pos(corpus, epochs=args.epochs, shuffle_seed=args.seed,
                              on_epoch=on_epoch)
        save_linear_model(model, model_path)
    elif args.task == "ner":
        sentences = ner.read_three_column(args.corpus)
        if args.merge_names:
            sentences = [ner.merge_name_syllables(s) for s in sentences]
        if args.replace_pos:
            pos_model_path = os.path.join(models_dir, "pos.model")
            if not os.path.exists(pos_model_path):
                raise ModelLoadError(f"pos: model file not found: {pos_model_path} "
                                     "(needed for -replace-pos)")
            pos_model = load_model("pos", pos_model_path)
            sentences = ner.replace_gold_pos_with_predicted(sentences, pos_model)
        corpus = ner.training_pairs(sentences)
        gazetteer = ner.read_gazetteer(args.gazetteer) if args.gazetteer else None
        model = ner.train_ner(corpus, epochs=args.epochs, shuffle_seed=args.seed,
                              gazetteer=gazetteer, combine_top_k=args.combine,
                              on_epoch=on_epoch)
        save_linear_model(model, model_path)
    else:  # parse
        if args.conllx:
            treebank = depparse.read_conllx(args.corpus)
        else:
            treebank = read_six_column(args.corpus)
        model = depparse.train_parser(treebank, epochs=args.epochs,
                                      shuffle_seed=args.seed,
                                      use_ner_features=args.use_ner_features,
                                      nonprojective=args.nonprojective,
                                      on_epoch=on_epoch)
        depparse.save_parser(model, model_path)
    return log_lines


def _print_report(title, values):
    print(title)
    for line in metrics.report_lines(values):
        print(line)


def _load_eval_model(args):
    return load_model(args.task, os.path.join(_models_dir(args), MODEL_FILES[args.task]))


def cmd_eval(args):
    _require_input(args.gold)
    if args.pred is None and args.models is None and not os.environ.get(MODELS_ENV_VAR):
        raise PipelineConfigError("eval needs either -pred or -models")

    if args.task == "wseg":
        gold = wseg.read_segmented_corpus(args.gold)
        if args.pred:
            _require_input(args.pred)
            pred = wseg.read_segmented_corpus(args.pred)
        else:
            model = _load_eval_model(args)
            pred = [wseg.segment(model, [s for w in sent for s in split_form(w)]).forms
                    for sent in gold]
        score = metrics.segmentation_f1(gold, pred)
        _print_report("word segmentation", {
            "precision": score.precision, "recall": score.recall, "f1": score.f1,
            "gold_words": score.gold, "predicted_words": score.predicted,
        })
    elif args.task == "pos":
        gold_pairs = pos.read_two_column(args.gold)
        gold_tags = [tags for _, tags in gold_pairs]
        if args.pred:
            _require_input(args.pred)
            pred_tags = [tags for _, tags in pos.read_two_column(args.pred)]
        else:
            model = _load_eval_model(args)
            pred_tags = tag_sentences(model, [sent for sent, _ in gold_pairs])
        acc = metrics.tagging_accuracy(gold_tags, pred_tags)
        _print_report("POS tagging", {"accuracy": acc,
                                      "sentences": len(gold_tags)})
    elif args.task == "ner":
        gold_sents = ner.read_three_column(args.gold)
        gold_labels = [s.ner_labels for s in gold_sents]
        if args.pred:
            _require_input(args.pred)
            pred_labels = [s.ner_labels for s in ner.read_three_column(args.pred)]
        else:
            model = _load_eval_model(args)
            pred_labels = [s.ner_labels for s in ner.tag_ner_sentences(model, gold_sents)]
        score = metrics.chunk_f1(gold_labels, pred_labels)
        values = {"precision": score.overall.precision,
                  "recall": score.overall.recall, "f1": score.overall.f1}
        for etype, s in score.by_type.items():
            values[f"f1_{etype}"] = s.f1
        _print_report("NER (exact span + type)", values)
    elif args.task == "parse":
        gold_sents = read_six_column(args.gold)
        if args.pred:
            _require_input(args.pred)
            pred_sents = read_six_column(args.pred)
        else:
            model = _load_eval_model(args)
            pred_sents = depparse.parse_sentences(model, gold_sents)
        score = metrics.attachment_scores(gold_sents, pred_sents)
        _print_report("dependency parsing (punctuation included)", {
            "las": score.las, "uas": score.uas, "tokens": score.token_count,
        })
    else:
        raise PipelineConfigError(f"unknown eval task {args.task!r}")
    return EXIT_OK


def cmd_bench(args):
    _require_input(args.fin)
    annotators = _parse_annotators(args.annotators)
    pipe = build_pipeline(annotators, model_dir=_models_dir(args))
    text = read_corpus(args.fin)
    rates, words = bench.benchmark_stages(pipe, text, repetitions=args.reps)
    print(f"words: {words}   repetitions: {args.reps} (median)")
    for kind in pipe.order:
        note = ""
        if kind == "ner":
            note = "  (includes POS time)"
        elif kind == "parse":
            note = ("  (includes POS+NER time)" if pipe.parser_uses_ner()
                    else "  (includes POS time)")
        print(f"{kind:<6} {rates[kind]:12.0f} words/sec{note}")
    if len(pipe.order) > 1:
        full = bench.benchmark_throughput(pipe, text, repetitions=args.reps)
        print(f"full   {full:12.0f} words/sec  ({'+'.join(pipe.order)})")
    return EXIT_OK


def build_arg_parser():
    parser = argparse.ArgumentParser(prog="sylpipe", allow_abbrev=False,
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ann = sub.add_parser("annotate", allow_abbrev=False,
                           help="annotate raw text into the six-column format")
    p_ann.add_argument("-fin", "--input", dest="fin", required=True,
                       help="raw UTF-8 text file; a leading byte-order mark is skipped")
    p_ann.add_argument("-fout", "--output", dest="fout", required=True,
                       help="six-column output file")
    p_ann.add_argument("-annotators", "--annotators", default=",".join(ANNOTATOR_KINDS),
                       help="comma list over wseg,pos,ner,parse (prerequisites "
                            "are inserted automatically)")
    p_ann.add_argument("-models", "--models", default=None,
                       help=f"model directory (default ${MODELS_ENV_VAR} or ./models)")

    p_train = sub.add_parser("train", allow_abbrev=False, help="train one annotator")
    tasks = p_train.add_subparsers(dest="task", required=True)
    train = {task: tasks.add_parser(task, allow_abbrev=False, help=f"train {task}.model")
             for task in ("wseg", "pos", "ner", "parse")}
    for task, p_task in train.items():
        p_task.add_argument("-corpus", "--corpus", required=True)
        p_task.add_argument("-models", "--models", default=None)
        if task != "wseg":
            p_task.add_argument("-epochs", "--epochs", type=_positive_int, default=8)
            p_task.add_argument("-seed", "--seed", type=int, default=1)
    train["wseg"].add_argument("-window", "--window", type=_non_negative_int, default=2,
                               help="rule context radius (0 trains as 1, above 2 as 2)")
    train["wseg"].add_argument("-max-rules", "--max-rules", dest="max_rules",
                               type=_non_negative_int, default=200)
    train["ner"].add_argument("-gazetteer", "--gazetteer", default=None,
                              help="optional gazetteer file, one entry per line")
    train["ner"].add_argument("-combine", "--combine", type=_non_negative_int, default=0,
                              help="pairwise feature-combination budget (0 = off)")
    train["ner"].add_argument("-merge-names", "--merge-names", dest="merge_names",
                              action="store_true",
                              help="merge contiguous PER-labeled syllables into words")
    train["ner"].add_argument("-replace-pos", "--replace-pos", dest="replace_pos",
                              action="store_true",
                              help="replace gold POS tags with pos.model predictions")
    train["parse"].add_argument("-use-ner-features", "--use-ner-features",
                                dest="use_ner_features", action="store_true",
                                help="consume NER labels as features")
    train["parse"].add_argument("-nonprojective", "--nonprojective",
                                choices=("skip", "lift"), default="skip")
    train["parse"].add_argument("-conllx", "--conllx", action="store_true",
                                help="read the corpus as 10-column CoNLL-X")

    p_eval = sub.add_parser("eval", allow_abbrev=False,
                            help="score predictions against gold files")
    p_eval.add_argument("task", choices=("wseg", "pos", "ner", "parse"))
    p_eval.add_argument("-gold", "--gold", required=True)
    p_eval.add_argument("-pred", "--pred", default=None,
                        help="predictions file; omit to run the model from -models")
    p_eval.add_argument("-models", "--models", default=None)

    p_bench = sub.add_parser("bench", allow_abbrev=False,
                             help="measure per-stage annotation throughput")
    p_bench.add_argument("-fin", "--input", dest="fin", required=True)
    p_bench.add_argument("-annotators", "--annotators",
                         default=",".join(ANNOTATOR_KINDS))
    p_bench.add_argument("-models", "--models", default=None)
    p_bench.add_argument("-reps", "--reps", type=_positive_int, default=3)
    return parser


_COMMANDS = {
    "annotate": cmd_annotate,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the config code
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        # One that carries a file name is about a path the user named: an
        # input, an output or the model directory. _require_input puts the
        # path in its message instead.
        if exc.filename is None and not isinstance(exc, FileNotFoundError):
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PipelineConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (DataError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AnnotationError as exc:
        if isinstance(exc.__cause__, DecodeError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
