"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Criteria and tolerances are pinned here, not configurable."""

import os
import random
import time

import pytest

from conftest import DEMO_ANNOTATED, TOY_DIR, strip_annotations
from helpers import (check_tree, random_annotated_sentence, random_form_sentence,
                     random_gold_tree, random_linear_model, random_parser_model,
                     synthetic_raw_text)
from sylpipe import bench, depparse, metrics, ner, pos, wseg
from sylpipe.model import from_six_column, read_six_column, to_six_column
from sylpipe.pipeline import build_pipeline
from sylpipe.seqlabel import (LinearModel, brute_force_decode,
                              save_linear_model, viterbi_decode)


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n:02d} {status}: {detail}")
    assert ok, detail


def test_criterion_01_decoder_oracle_equivalence():
    rng = random.Random(20240917)
    alphabets = [["A"], ["A", "B"], ["A", "B", "C"], ["A", "B", "C", "D"]]
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        model = random_linear_model(rng, rng.choice(alphabets))
        sent = random_form_sentence(rng, n=rng.randint(1, 6))
        if viterbi_decode(model, sent) != brute_force_decode(model, sent):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(1, mismatches == 0 and elapsed < 10.0,
           f"viterbi vs brute force, 200 instances: {mismatches} mismatches "
           f"in {elapsed:.2f}s (< 10s)")


def test_criterion_02_parser_output_validity():
    rng = random.Random(7)
    violations = 0
    for _ in range(1000):
        model = random_parser_model(rng)
        sent = random_form_sentence(rng, n=rng.randint(1, 40), with_pos=True)
        parsed = depparse.parse_sentence(model, sent)
        heads = [t.head for t in parsed]
        if not check_tree(heads):
            violations += 1
    report(2, violations == 0,
           f"1000 random parses single-rooted and acyclic: {violations} violations")


def test_criterion_03_oracle_soundness():
    rng = random.Random(11)
    mismatches = 0
    for _ in range(500):
        tree = random_gold_tree(rng, rng.randint(1, 15))
        end = depparse.replay(depparse.static_oracle(tree), len(tree))
        if end.heads[1:] != [t.head for t in tree] or \
                end.labels[1:] != [t.dep_label for t in tree]:
            mismatches += 1
    report(3, mismatches == 0,
           f"static oracle replay on 500 projective trees: {mismatches} mismatches")


def test_criterion_04_format_fidelity():
    rng = random.Random(13)
    bad = 0
    for _ in range(1000):
        s = random_annotated_sentence(rng)
        if from_six_column(to_six_column(s)) != [s]:
            bad += 1
    with open(DEMO_ANNOTATED, encoding="utf-8") as fh:
        fixture_text = fh.read()
    sents = from_six_column(fixture_text)
    fixture_ok = (to_six_column(sents[0]) + "\n") == fixture_text
    report(4, bad == 0 and fixture_ok,
           f"six-column round trip: {bad}/1000 failures; "
           f"bundled fixture byte-identical: {fixture_ok}")


def test_criterion_05_toy_corpus_convergence(toy_seg_corpus, toy_pos_corpus,
                                             toy_ner_sentences, toy_treebank):
    timings = {}

    t0 = time.perf_counter()
    seg_model = wseg.train_segmenter(toy_seg_corpus)
    timings["wseg"] = time.perf_counter() - t0
    seg_pred = [[t.form for t in wseg.segment(seg_model,
                                              wseg.words_to_decisions(s)[0])]
                for s in toy_seg_corpus]
    seg_f1 = metrics.segmentation_f1(toy_seg_corpus, seg_pred).f1

    t0 = time.perf_counter()
    pos_model = pos.train_pos(toy_pos_corpus)
    timings["pos"] = time.perf_counter() - t0
    pos_acc = metrics.tagging_accuracy(
        [tags for _, tags in toy_pos_corpus],
        [pos.tag_pos(pos_model, s).pos_tags for s, _ in toy_pos_corpus])

    t0 = time.perf_counter()
    ner_model = ner.train_ner(ner.training_pairs(toy_ner_sentences))
    timings["ner"] = time.perf_counter() - t0
    ner_f1 = metrics.chunk_f1(
        [s.ner_labels for s in toy_ner_sentences],
        [ner.tag_ner(ner_model, s).ner_labels for s in toy_ner_sentences]).overall.f1

    t0 = time.perf_counter()
    parse_model = depparse.train_parser(toy_treebank, epochs=12)
    timings["parse"] = time.perf_counter() - t0
    parsed = [depparse.parse_sentence(parse_model, strip_annotations(s, keep_pos=True))
              for s in toy_treebank]
    uas = metrics.attachment_scores(toy_treebank, parsed).uas

    ok = (seg_f1 == 1.0 and pos_acc >= 0.99 and ner_f1 >= 0.95 and uas >= 0.95
          and all(t < 60.0 for t in timings.values()))
    report(5, ok,
           f"toy convergence: seg F1={seg_f1:.2f} (=1.00), POS acc={pos_acc:.3f} "
           f"(>=0.99), NER F1={ner_f1:.3f} (>=0.95), UAS={uas:.3f} (>=0.95), "
           f"max train time={max(timings.values()):.1f}s (<60s)")


def test_criterion_06_metric_fixtures():
    seg = metrics.segmentation_f1([["a_b", "c", "d"]], [["a_b", "c_d"]])
    seg_ok = (seg.precision == 1 / 2 and seg.recall == 1 / 3
              and abs(seg.f1 - 2 / 5) < 1e-15)

    gold = [["O", "B-PER", "O", "O", "O", "B-ORG", "I-ORG", "I-ORG", "O"]]
    pred = [["O", "B-PER", "O", "O", "O", "O", "O", "O", "O"]]
    ch = metrics.chunk_f1(gold, pred).overall
    chunk_ok = (ch.precision == 1.0 and ch.recall == 0.5
                and abs(ch.f1 - 2 / 3) < 1e-15)

    with open(DEMO_ANNOTATED, encoding="utf-8") as fh:
        fixture = from_six_column(fh.read())[0]
    heads = [t.head for t in fixture]
    heads[8] = 6
    moved = fixture.with_parse(heads, [t.dep_label for t in fixture])
    att = metrics.attachment_scores([fixture], [moved])
    att_ok = abs(att.uas - 8 / 9) < 1e-15

    labels = [t.dep_label for t in fixture]
    labels[2] = "nmod"
    relabeled = fixture.with_parse([t.head for t in fixture], labels)
    att2 = metrics.attachment_scores([fixture], [relabeled])
    att2_ok = att2.uas == 1.0 and abs(att2.las - 8 / 9) < 1e-15

    acc_ok = metrics.tagging_accuracy([list("ABCDEFGHI")],
                                      [list("ABCDEFGHX")]) == 8 / 9

    ok = seg_ok and chunk_ok and att_ok and att2_ok and acc_ok
    report(6, ok,
           f"hand-computed fixtures exact: seg 2/5 {seg_ok}, chunk 2/3 {chunk_ok}, "
           f"UAS 8/9 {att_ok}, LAS 8/9 {att2_ok}, acc 8/9 {acc_ok}")


def test_criterion_07_determinism(tmp_path, toy_seg_corpus, toy_pos_corpus,
                                  toy_ner_sentences, toy_treebank):
    raw = synthetic_raw_text(800, seed=21)

    def full_run(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        seg = wseg.train_segmenter(toy_seg_corpus)
        wseg.save_segmenter(seg, os.path.join(out_dir, "wseg.model"))
        pm = pos.train_pos(toy_pos_corpus, shuffle_seed=1)
        save_linear_model(pm, os.path.join(out_dir, "pos.model"))
        nm = ner.train_ner(ner.training_pairs(toy_ner_sentences), shuffle_seed=1)
        save_linear_model(nm, os.path.join(out_dir, "ner.model"))
        dm = depparse.train_parser(toy_treebank, epochs=12, shuffle_seed=1)
        depparse.save_parser(dm, os.path.join(out_dir, "parse.model"))
        pipe = build_pipeline(model_dir=out_dir)
        with open(os.path.join(out_dir, "out.txt"), "w", encoding="utf-8") as fh:
            fh.write(pipe.annotate(raw).to_text())

    d1 = str(tmp_path / "run1")
    d2 = str(tmp_path / "run2")
    full_run(d1)
    full_run(d2)
    same = []
    for name in ("wseg.model", "pos.model", "ner.model", "parse.model", "out.txt"):
        with open(os.path.join(d1, name), "rb") as f1, \
                open(os.path.join(d2, name), "rb") as f2:
            same.append(f1.read() == f2.read())
    report(7, all(same),
           f"two seeded train+annotate runs byte-identical: "
           f"{sum(same)}/5 artifacts match")


def test_criterion_08_throughput_floors(model_dir):
    text = synthetic_raw_text(100000, seed=22)
    full = build_pipeline(model_dir=model_dir)
    rates, words = bench.benchmark_stages(full, text, repetitions=3)
    full_rate = bench.benchmark_throughput(full, text, repetitions=3)
    ok = rates["wseg"] >= 50000 and rates["pos"] >= 10000 and full_rate >= 2000
    report(8, ok,
           f"throughput on {words} words (median of 3 warm runs): "
           f"wseg {rates['wseg']:.0f}/s (>=50K), pos {rates['pos']:.0f}/s (>=10K), "
           f"full pipeline {full_rate:.0f}/s (>=2K)")


def test_criterion_09_bio_validity():
    rng = random.Random(23)
    labels = sorted(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG",
                     "B-MISC", "I-MISC"])
    violations = 0
    for _ in range(1000):
        base = random_linear_model(rng, labels)
        model = LinearModel(base.labels, base.templates, base.feature_index,
                            base.emission_weights, base.transition_weights,
                            bio_constrained=True)
        sent = random_form_sentence(rng, n=rng.randint(1, 10), with_pos=True)
        decoded, _ = viterbi_decode(model, sent)
        if not ner.is_valid_bio(decoded):
            violations += 1
    report(9, violations == 0,
           f"masked NER decode valid BIO on 1000 random pairs: "
           f"{violations} violations")


def test_criterion_10_ner_feature_ablation():
    rng = random.Random(29)
    checked = 0
    clean = True
    for _ in range(300):
        sent = random_form_sentence(rng, n=rng.randint(1, 12), with_pos=True)
        sent = sent.with_ner_labels(
            ["B-PER" if i % 3 == 0 else "O" for i in range(len(sent))])
        state = depparse.ParserState(len(sent))
        for _ in range(rng.randint(0, 2 * len(sent))):
            kinds = depparse.legal_kinds(state)
            if not kinds:
                break
            kind = rng.choice(sorted(kinds))
            label = ("nmod" if kind in (depparse.LEFT_ARC, depparse.RIGHT_ARC)
                     else None)
            state.apply((kind, label))
        with_ner = set(depparse.state_features(state, sent.tokens, True))
        without = set(depparse.state_features(state, sent.tokens, False))
        diff = with_ner ^ without
        checked += 1
        if not diff or not all(f.startswith("ner:") for f in diff) or \
                not (without <= with_ner):
            clean = False
    report(10, clean and checked == 300,
           f"feature sets at {checked} identical states differ exactly in "
           f"NER-template features: {clean}")
