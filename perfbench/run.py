#!/usr/bin/env python3
"""The sylpipe benchmark: four closed-loop workloads driven by one client.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload bulk_doc --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an untraced
run. --trace 1 reports the per-layer metrics: an untimed counting pass, then
untraced and traced passes over the same inputs in turn, whose ratio is the
tracing overhead. The models are trained with the README commands once per
checkout and kept under .perfbench/; the program only sees generated inputs.

The last line of standard output is the result object; the line before it
holds the run's metadata: backend, machine, seed, input and model sizes, the
output digest and the workload's input properties. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOY = os.path.join(ROOT, "tests", "data", "toy")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("bulk_doc", "short_requests", "segment_only", "train_models")

# The README's training commands; only parse departs from the CLI defaults.
README_TRAINING = (
    ("wseg", "wseg.txt", ()),
    ("pos", "pos.tsv", ()),
    ("ner", "ner.tsv", ()),
    ("parse", "parse.conll", ("-epochs", "12")),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def readme_models():
    """Directory of the four models trained with the README commands.

    They are trained once per checkout, through the CLI in child processes,
    and kept under a digest of the sources and corpora that made them.
    """
    package = os.path.join(SRC, "sylpipe")
    inputs = sorted(os.path.join(package, f) for f in os.listdir(package) if f.endswith(".py"))
    inputs += [os.path.join(TOY, corpus) for _, corpus, _ in README_TRAINING]
    digest = hashlib.sha256()
    for path in inputs:
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    target = os.path.join(WORK, "models-" + digest.hexdigest()[:16])
    if os.path.isdir(target):
        return target
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="models-tmp-", dir=WORK)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        for task, corpus, extra in README_TRAINING:
            subprocess.run([sys.executable, "-m", "sylpipe.cli", "train", task,
                            "-corpus", os.path.join(TOY, corpus), "-models", tmp, *extra],
                           cwd=ROOT, env=env, check=True, timeout=600,
                           stdout=subprocess.DEVNULL)
        try:
            os.rename(tmp, target)
        except OSError:
            if not os.path.isdir(target):  # lost a race with another run: fine
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return target


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sylpipe", "__init__.py")):
        fail(f"no sylpipe sources under {SRC}; run from the root of a checkout")
    if not os.path.isdir(TOY):
        fail(f"no toy corpora under {TOY}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    models_dir = readme_models()
    sys.path.insert(0, SRC)
    import numpy

    import workloads
    from sylpipe import _kernels

    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    log = workloads.Log()
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "backend": _kernels.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__}
    try:
        w, size = workloads.make_workload(ROOT, args.workload, args.seed, args.tiny,
                                          models_dir, work_dir)
        if args.trace:
            values = workloads.measure_traced(w, size, args.seconds, log, meta, list(units))
        else:
            values = workloads.measure(w, size, args.seconds, log, meta)
        if args.workload == "train_models":
            log.record("trained models on the toy corpora", w.final_problems())
        demo = workloads.demo_problems(ROOT, models_dir)
        log.record("demo golden check", demo)
        meta["demo_golden"] = not demo
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if values is None:
        fail("no unit of work completed: " + "; ".join(log.problems))
    if "failed_frac" in units:
        values["failed_frac"] = log.failed / log.attempted
    meta["problems"] = log.problems

    print(json.dumps({"meta": meta}, ensure_ascii=False, sort_keys=True))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if log.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
