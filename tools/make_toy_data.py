#!/usr/bin/env python3
"""Build the bundled toy corpus files under tests/data/.

Every sentence carries a full annotation row set (form, POS, NER, head,
relation), rendered into the per-task training formats. The script verifies
that the toy corpora are actually learnable to the advertised levels before
writing anything, so the frozen files stay in sync with the trainers.

    python tools/make_toy_data.py          # rebuild, verify, write tests/data
    python tools/make_toy_data.py --check  # rebuild, verify, compare; write nothing
"""

import argparse
import os
import sys
import unicodedata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

DATA_DIR = os.path.join(ROOT, "tests", "data")

N = lambda f: (f, "N")
Np = lambda f: (f, "Np")

ORG_SPANS = [
    [("Đại_học", "N"), ("Quốc_gia", "N"), ("Hà_Nội", "Np")],
    [("Trường", "N"), ("Đại_học", "N"), ("Bách_khoa", "Np")],
    [("Viện", "N"), ("Khoa_học", "N"), ("Việt_Nam", "Np")],
    [("Công_ty", "N"), ("Điện_lực", "N"), ("Đà_Nẵng", "Np")],
]

PEOPLE = [
    ("Ông", "Nguyễn_Khắc_Chúc"),
    ("Bà", "Trần_Thị_Lan"),
    ("Ông", "Lê_Văn_Minh"),
    ("Bà", "Hoàng_Thu_Hà"),
    ("Ông", "Phạm_Quang_Huy"),
]

LOCS = ["Hà_Nội", "Đà_Nẵng", "Việt_Nam", "Hải_Phòng"]


def person_org(title, name, adv, verb, prep, org):
    rows = [
        (title, "Nc", "O", 4, "sub"),
        (name, "Np", "B-PER", 1, "nmod"),
        (adv, "R", "O", 4, "adv"),
        (verb, "V", "O", 0, "root"),
        (prep, "E", "O", 4, "loc"),
        (org[0][0], org[0][1], "B-ORG", 5, "pob"),
        (org[1][0], org[1][1], "I-ORG", 6, "nmod"),
        (org[2][0], org[2][1], "I-ORG", 6, "nmod"),
        (".", "CH", "O", 4, "punct"),
    ]
    return rows


def subj_verb_obj(subj, verb, obj, adj):
    return [
        (subj[0], subj[1], "O", 2, "sub"),
        (verb, "V", "O", 0, "root"),
        (obj[0], obj[1], "O", 2, "dob"),
        (adj, "A", "O", 3, "nmod"),
        (".", "CH", "O", 2, "punct"),
    ]


def subj_verb_loc(subj, adv, verb, prep, loc):
    return [
        (subj[0], subj[1], "O", 3, "sub"),
        (adv, "R", "O", 3, "adv"),
        (verb, "V", "O", 0, "root"),
        (prep, "E", "O", 3, "loc"),
        (loc, "Np", "B-LOC", 4, "pob"),
        (".", "CH", "O", 3, "punct"),
    ]


def have_things(subj, num, obj, adj):
    return [
        (subj[0], subj[1], "O", 2, "sub"),
        ("có", "V", "O", 0, "root"),
        (num, "M", "O", 4, "det"),
        (obj[0], obj[1], "O", 2, "dob"),
        (adj, "A", "O", 4, "nmod"),
        (".", "CH", "O", 2, "punct"),
    ]


def coordination(p1, p2, verb, prep, loc):
    return [
        (p1[0], "Nc", "O", 6, "sub"),
        (p1[1], "Np", "B-PER", 1, "nmod"),
        ("và", "C", "O", 1, "cc"),
        (p2[0], "Nc", "O", 1, "conj"),
        (p2[1], "Np", "B-PER", 4, "nmod"),
        (verb, "V", "O", 0, "root"),
        (prep, "E", "O", 6, "loc"),
        (loc, "Np", "B-LOC", 7, "pob"),
        (".", "CH", "O", 6, "punct"),
    ]


def read_about(subj, verb, obj, misc):
    return [
        (subj[0], subj[1], "O", 2, "sub"),
        (verb, "V", "O", 0, "root"),
        (obj[0], obj[1], "O", 2, "dob"),
        ("về", "E", "O", 3, "nmod"),
        (misc, "Np", "B-MISC", 4, "pob"),
        (".", "CH", "O", 2, "punct"),
    ]


def pupils_study():
    return [
        ("Học_sinh", "N", "O", 2, "sub"),
        ("học", "V", "O", 0, "root"),
        ("sinh_học", "N", "O", 2, "dob"),
        (".", "CH", "O", 2, "punct"),
    ]


def good_pupils_study():
    return [
        ("Học_sinh", "N", "O", 3, "sub"),
        ("giỏi", "A", "O", 1, "nmod"),
        ("học", "V", "O", 0, "root"),
        ("sinh_học", "N", "O", 3, "dob"),
        (".", "CH", "O", 3, "punct"),
    ]


def write_about_computer(title, name):
    return [
        (title, "Nc", "O", 3, "sub"),
        (name, "Np", "B-PER", 1, "nmod"),
        ("viết", "V", "O", 0, "root"),
        ("về", "E", "O", 3, "loc"),
        ("nhà", "N", "O", 4, "pob"),
        ("máy_tính", "N", "O", 5, "nmod"),
        (".", "CH", "O", 3, "punct"),
    ]


def teach_at_org(subj, verb, org):
    return [
        (subj[0], subj[1], "O", 2, "sub"),
        (verb, "V", "O", 0, "root"),
        ("tại", "E", "O", 2, "loc"),
        (org[0][0], org[0][1], "B-ORG", 3, "pob"),
        (org[1][0], org[1][1], "I-ORG", 4, "nmod"),
        (org[2][0], org[2][1], "I-ORG", 4, "nmod"),
        (".", "CH", "O", 2, "punct"),
    ]


def build_sentences():
    sents = []
    # The bundled demo sentence comes first.
    sents.append(person_org("Ông", "Nguyễn_Khắc_Chúc", "đang", "làm_việc", "tại",
                            ORG_SPANS[0]))
    sents.append(person_org("Bà", "Trần_Thị_Lan", "đã", "giảng_dạy", "tại",
                            ORG_SPANS[1]))
    sents.append(person_org("Ông", "Lê_Văn_Minh", "sẽ", "nghiên_cứu", "ở",
                            ORG_SPANS[2]))
    sents.append(person_org("Bà", "Hoàng_Thu_Hà", "cũng", "làm_việc", "tại",
                            ORG_SPANS[3]))
    sents.append(person_org("Ông", "Phạm_Quang_Huy", "đang", "giảng_dạy", "ở",
                            ORG_SPANS[0]))
    sents.append(person_org("Bà", "Trần_Thị_Lan", "sẽ", "làm_việc", "tại",
                            ORG_SPANS[2]))

    sents.append(subj_verb_obj(("Công_ty", "N"), "xây_dựng", N("nhà_máy"), "mới"))
    sents.append(subj_verb_obj(("Họ", "P"), "phát_triển", N("phần_mềm"), "hiện_đại"))
    sents.append(subj_verb_obj(("Kỹ_sư", "N"), "xây_dựng", N("văn_phòng"), "lớn"))
    sents.append(subj_verb_obj(("Chúng_tôi", "P"), "phát_triển", N("dự_án"), "quan_trọng"))
    sents.append(subj_verb_obj(("Giáo_sư", "N"), "viết", N("báo_cáo"), "mới"))
    sents.append(subj_verb_obj(("Tôi", "P"), "đọc", N("báo_cáo"), "quan_trọng"))
    sents.append(subj_verb_obj(("Công_ty", "N"), "xây_dựng", N("nhà_máy"), "hiện_đại"))
    sents.append(subj_verb_obj(("Giáo_sư", "N"), "dạy", N("sinh_viên"), "giỏi"))
    sents.append(subj_verb_obj(("Trường", "N"), "dạy", N("ngôn_ngữ"), "mới"))

    sents.append(subj_verb_loc(("Sinh_viên", "N"), "đang", "học", "ở", "Hà_Nội"))
    sents.append(subj_verb_loc(("Họ", "P"), "đã", "làm_việc", "ở", "Đà_Nẵng"))
    sents.append(subj_verb_loc(("Kỹ_sư", "N"), "sẽ", "làm_việc", "tại", "Hải_Phòng"))
    sents.append(subj_verb_loc(("Chúng_tôi", "P"), "cũng", "học", "ở", "Việt_Nam"))
    sents.append(subj_verb_loc(("Giáo_sư", "N"), "đang", "giảng_dạy", "tại", "Đà_Nẵng"))
    sents.append(subj_verb_loc(("Sinh_viên", "N"), "đã", "học", "tại", "Hải_Phòng"))

    sents.append(have_things(("Công_ty", "N"), "hai", N("nhà_máy"), "lớn"))
    sents.append(have_things(("Trường", "N"), "ba", N("sinh_viên"), "giỏi"))
    sents.append(have_things(("Thành_phố", "N"), "hai", N("trường"), "mới"))
    sents.append(have_things(("Viện", "N"), "một", N("dự_án"), "quan_trọng"))
    sents.append(have_things(("Công_ty", "N"), "ba", N("kỹ_sư"), "giỏi"))

    sents.append(coordination(PEOPLE[0], PEOPLE[1], "làm_việc", "tại", "Hà_Nội"))
    sents.append(coordination(PEOPLE[2], PEOPLE[3], "nghiên_cứu", "ở", "Đà_Nẵng"))
    sents.append(coordination(PEOPLE[4], PEOPLE[1], "giảng_dạy", "tại", "Việt_Nam"))

    sents.append(read_about(("Họ", "P"), "đọc", N("báo_cáo"), "SEA_Games"))
    sents.append(read_about(("Tôi", "P"), "viết", N("báo_cáo"), "Olympic"))
    sents.append(read_about(("Chúng_tôi", "P"), "đọc", N("dự_án"), "SEA_Games"))
    sents.append(read_about(("Sinh_viên", "N"), "đọc", N("báo_cáo"), "Olympic"))
    sents.append(read_about(("Kỹ_sư", "N"), "viết", N("dự_án"), "Olympic"))

    sents.append(pupils_study())
    sents.append(good_pupils_study())
    sents.append(write_about_computer("Ông", "Lê_Văn_Minh"))
    sents.append(write_about_computer("Bà", "Hoàng_Thu_Hà"))

    sents.append(teach_at_org(("Giáo_sư", "N"), "giảng_dạy", ORG_SPANS[1]))
    sents.append(teach_at_org(("Họ", "P"), "làm_việc", ORG_SPANS[3]))
    sents.append(teach_at_org(("Kỹ_sư", "N"), "làm_việc", ORG_SPANS[2]))

    # More single-word material so forms like "nhà" stand alone somewhere.
    sents.append(subj_verb_loc(("Họ", "P"), "đang", "làm_việc", "ở", "Hà_Nội"))
    sents.append([
        ("Tôi", "P", "O", 2, "sub"),
        ("viết", "V", "O", 0, "root"),
        ("về", "E", "O", 2, "loc"),
        ("thành_phố", "N", "O", 3, "pob"),
        (".", "CH", "O", 2, "punct"),
    ])
    sents.append([
        ("Họ", "P", "O", 2, "sub"),
        ("gặp", "V", "O", 0, "root"),
        ("kỹ_sư", "N", "O", 2, "dob"),
        ("ở", "E", "O", 2, "loc"),
        ("văn_phòng", "N", "O", 4, "pob"),
        (".", "CH", "O", 2, "punct"),
    ])
    sents.append([
        ("Sinh_viên", "N", "O", 2, "sub"),
        ("học", "V", "O", 0, "root"),
        ("ngôn_ngữ", "N", "O", 2, "dob"),
        ("ở", "E", "O", 2, "loc"),
        ("nhà", "N", "O", 4, "pob"),
        (".", "CH", "O", 2, "punct"),
    ])
    sents.append([
        ("Giáo_sư", "N", "O", 2, "sub"),
        ("gặp", "V", "O", 0, "root"),
        ("học_sinh", "N", "O", 2, "dob"),
        ("tại", "E", "O", 2, "loc"),
        ("trường", "N", "O", 4, "pob"),
        (".", "CH", "O", 2, "punct"),
    ])
    sents.append(pupils_study())
    sents.append(good_pupils_study())
    sents.append(write_about_computer("Ông", "Nguyễn_Khắc_Chúc"))
    sents.append(subj_verb_obj(("Họ", "P"), "xây_dựng", N("nhà_máy"), "lớn"))
    sents.append(subj_verb_obj(("Tôi", "P"), "đọc", N("sinh_học"), "mới"))
    sents.append(have_things(("Trường", "N"), "hai", N("máy_tính"), "mới"))
    sents.append(subj_verb_loc(("Học_sinh", "N"), "đang", "học", "ở", "Hà_Nội"))
    sents.append(read_about(("Họ", "P"), "viết", N("công_việc"), "Olympic"))

    return [
        [tuple(unicodedata.normalize("NFC", v) if isinstance(v, str) else v
               for v in row) for row in sent]
        for sent in sents
    ]


def render_files(sentences):
    seg_lines = [" ".join(r[0] for r in sent) for sent in sentences]
    pos_blocks = ["\n".join(f"{r[0]}\t{r[1]}" for r in sent) for sent in sentences]
    ner_blocks = ["\n".join(f"{r[0]}\t{r[1]}\t{r[2]}" for r in sent)
                  for sent in sentences]
    dep_blocks = []
    for sent in sentences:
        dep_blocks.append("\n".join(
            f"{i + 1}\t{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}\t{r[4]}"
            for i, r in enumerate(sent)))
    return {
        os.path.join("toy", "wseg.txt"): "\n".join(seg_lines) + "\n",
        os.path.join("toy", "pos.tsv"): "\n\n".join(pos_blocks) + "\n",
        os.path.join("toy", "ner.tsv"): "\n\n".join(ner_blocks) + "\n",
        os.path.join("toy", "parse.conll"): "\n\n".join(dep_blocks) + "\n",
    }


def demo_files(sentences):
    demo = sentences[0]
    raw = " ".join(r[0].replace("_", " ") for r in demo[:-1]) + "."
    annotated = "\n".join(f"{i + 1}\t{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}\t{r[4]}"
                          for i, r in enumerate(demo)) + "\n"
    return {
        "demo_input.txt": raw + "\n",
        "demo_annotated.txt": annotated,
    }


def verify(sentences):
    from sylpipe import depparse, metrics, ner, pos, wseg
    from sylpipe.model import from_six_column

    files = render_files(sentences)

    seg_corpus = wseg.parse_segmented_corpus(files[os.path.join("toy", "wseg.txt")])
    seg_model = wseg.train_segmenter(seg_corpus)
    predicted = [[t.form for t in wseg.segment(
        seg_model, [s for w in sent for s in w.split("_")])] for sent in seg_corpus]
    seg_f1 = metrics.segmentation_f1(seg_corpus, predicted).f1
    print(f"wseg rules learned: {len(seg_model.rules)}  training F1: {seg_f1:.4f}")
    assert seg_f1 == 1.0, "toy wseg corpus must train to F1 = 1.0"
    assert len(seg_model.rules) >= 2, "toy corpus should exercise rule learning"

    pos_pairs = pos.parse_two_column(files[os.path.join("toy", "pos.tsv")])
    pos_model = pos.train_pos(pos_pairs)
    pos_acc = metrics.tagging_accuracy(
        [tags for _, tags in pos_pairs],
        [pos.tag_pos(pos_model, s).pos_tags for s, _ in pos_pairs])
    print(f"pos training accuracy: {pos_acc:.4f}")
    assert pos_acc >= 0.99

    ner_sents = ner.parse_three_column(files[os.path.join("toy", "ner.tsv")])
    ner_model = ner.train_ner(ner.training_pairs(ner_sents))
    ner_f1 = metrics.chunk_f1(
        [s.ner_labels for s in ner_sents],
        [ner.tag_ner(ner_model, s).ner_labels for s in ner_sents]).overall.f1
    print(f"ner training chunk F1: {ner_f1:.4f}")
    assert ner_f1 >= 0.95

    treebank = from_six_column(files[os.path.join("toy", "parse.conll")])
    parse_model = depparse.train_parser(treebank, epochs=12)
    from sylpipe.model import Sentence, Token
    stripped = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag,
                               ner_label=t.ner_label) for t in s) for s in treebank]
    parsed = [depparse.parse_sentence(parse_model, s) for s in stripped]
    uas = metrics.attachment_scores(treebank, parsed).uas
    print(f"parser training UAS: {uas:.4f}")
    assert uas >= 0.95

    # The demo sentence must come out of the full pipeline exactly as frozen.
    demo_raw = demo_files(sentences)["demo_input.txt"]
    syllables = wseg.split_and_tokenize(demo_raw)
    assert len(syllables) == 1
    sent = wseg.segment(seg_model, syllables[0])
    sent = pos.tag_pos(pos_model, sent)
    sent = ner.tag_ner(ner_model, sent)
    sent = depparse.parse_sentence(parse_model, sent)
    from sylpipe.model import to_six_column
    produced = to_six_column(sent) + "\n"
    expected = demo_files(sentences)["demo_annotated.txt"]
    assert produced == expected, f"demo output drifted:\n{produced}\nvs\n{expected}"
    print("demo sentence reproduced exactly by the toy pipeline")


def toy_files(sentences):
    """Every file the script writes, by path under tests/data."""
    files = render_files(sentences)
    files.update(demo_files(sentences))
    return files


def drifted(files):
    """The paths of files whose copy under tests/data differs byte for byte."""
    drift = []
    for rel, content in files.items():
        try:
            with open(os.path.join(DATA_DIR, rel), "rb") as fh:
                same = fh.read() == content.encode("utf-8")
        except FileNotFoundError:
            same = False
        if not same:
            drift.append(rel)
    return drift


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="build and verify in memory, compare with tests/data "
                             "byte for byte and write nothing; exit 1 on drift")
    args = parser.parse_args(argv)
    sentences = build_sentences()
    print(f"{len(sentences)} sentences, "
          f"{sum(len(s) for s in sentences)} tokens")
    verify(sentences)
    files = toy_files(sentences)
    if args.check:
        drift = drifted(files)
        for rel in drift:
            print(f"drifted: {os.path.join(DATA_DIR, rel)}")
        print(f"{len(files) - len(drift)} of {len(files)} files match tests/data")
        return 1 if drift else 0
    os.makedirs(os.path.join(DATA_DIR, "toy"), exist_ok=True)
    for rel, content in files.items():
        path = os.path.join(DATA_DIR, rel)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
