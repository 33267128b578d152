import itertools
import logging
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DEMO_ANNOTATED, DEMO_INPUT
from helpers import FORMS, random_linear_model
from sylpipe import depparse, ner, pos, seqlabel, templates, wseg
from sylpipe.model import Document, Sentence, Token, dump_six_column, from_six_column
from sylpipe.pipeline import (AnnotationError, ModelLoadError, Pipeline,
                              PipelineConfigError, build_pipeline,
                              prerequisite_closure)
from sylpipe.seqlabel import DecodeError, LinearModel, save_linear_model


class TestPrerequisiteClosure:
    def test_full(self):
        assert prerequisite_closure(["wseg", "pos", "ner", "parse"]) == \
            ["wseg", "pos", "ner", "parse"]

    def test_wseg_only(self):
        assert prerequisite_closure(["wseg"]) == ["wseg"]

    def test_parse_pulls_wseg_pos(self):
        assert prerequisite_closure(["parse"]) == ["wseg", "pos", "parse"]

    def test_ner_pulls_wseg_pos(self):
        assert prerequisite_closure(["ner"]) == ["wseg", "pos", "ner"]

    def test_unknown_annotator(self):
        with pytest.raises(PipelineConfigError):
            prerequisite_closure(["tokenize"])


class TestBuildPipeline:
    def test_full_build(self, model_dir):
        pipe = build_pipeline(["wseg", "pos", "ner", "parse"], model_dir=model_dir)
        assert pipe.order == ("wseg", "pos", "ner", "parse")

    def test_loading_builds_no_compiled_tables(self, model_dir):
        # The decode tables are built on the first decode, so set-up time
        # stays that of reading the files.
        pipe = build_pipeline(["wseg", "pos", "ner", "parse"], model_dir=model_dir)
        assert [kind for kind, m in pipe.models.items() if "_compiled" in vars(m)] == []
        pipe.annotate("Họ đang làm việc ở Hà Nội .")
        assert all("_compiled" in vars(m) for m in pipe.models.values())

    def test_auto_insert_logs(self, model_dir, caplog):
        with caplog.at_level(logging.INFO, logger="sylpipe.pipeline"):
            pipe = build_pipeline(["parse"], model_dir=model_dir)
        assert pipe.order == ("wseg", "pos", "parse")
        assert any("auto-inserted" in r.message for r in caplog.records)

    def test_missing_model_names_annotator(self, tmp_path):
        with pytest.raises(ModelLoadError) as exc:
            build_pipeline(["wseg"], model_dir=tmp_path)
        assert "wseg" in str(exc.value)

    def test_corrupt_segmenter_is_a_load_error(self, model_dir, tmp_path):
        good = (model_dir / "wseg.model").read_text(encoding="utf-8")
        (tmp_path / "wseg.model").write_text(good + "junk\n", encoding="utf-8")
        with pytest.raises(ModelLoadError, match="corrupt segmenter model"):
            build_pipeline(["wseg"], model_dir=tmp_path)

    def test_unknown_annotator(self, model_dir):
        with pytest.raises(PipelineConfigError):
            build_pipeline(["pos", "frobnicate"], model_dir=model_dir)


# The string path of the feature layer: the reference that tests the
# compiled decoders and trainers, which build no feature string themselves.
STRING_PATH = [(templates.FeatureTemplate, "extract"), (templates, "extract_features"),
               (seqlabel, "extract_features"), (depparse, "state_features")]


def refuse_feature_strings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a feature string was built")
    for owner, name in STRING_PATH:
        monkeypatch.setattr(owner, name, refuse)


class TestNoFeatureStrings:
    def test_annotate_builds_no_feature_strings(self, model_dir, monkeypatch):
        with open(DEMO_INPUT, encoding="utf-8") as fh:
            text = fh.read()
        text += "Bà Trần Thị Lan cũng làm việc tại Hà Nội.\nZzz xe-máy 1.000,5 .\n"
        expected = dump_six_column(build_pipeline(model_dir=model_dir).annotate(text).sentences)
        refuse_feature_strings(monkeypatch)
        # A new pipeline, so its decoders compile their tables under the patch.
        doc = build_pipeline(model_dir=model_dir).annotate(text)
        assert dump_six_column(doc.sentences) == expected

    def test_training_builds_no_feature_strings(self, tmp_path, monkeypatch, toy_pos_corpus,
                                                toy_ner_sentences, toy_treebank):
        trainers = {
            "pos": (lambda: pos.train_pos(toy_pos_corpus), save_linear_model),
            "ner": (lambda: ner.train_ner(ner.training_pairs(toy_ner_sentences),
                                          combine_top_k=4), save_linear_model),
            "parse": (lambda: depparse.train_parser(toy_treebank, epochs=12),
                      depparse.save_parser),
        }

        def train_all(directory):
            directory.mkdir()
            for kind, (train, save) in trainers.items():
                save(train(), directory / kind)
            return {kind: (directory / kind).read_bytes() for kind in trainers}

        expected = train_all(tmp_path / "plain")
        refuse_feature_strings(monkeypatch)
        assert train_all(tmp_path / "refused") == expected


class TestAnnotate:
    def test_demo_sentence_full_pipeline(self, model_dir):
        pipe = build_pipeline(model_dir=model_dir)
        with open(DEMO_INPUT, encoding="utf-8") as fh:
            raw = fh.read()
        doc = pipe.annotate(raw)
        with open(DEMO_ANNOTATED, encoding="utf-8") as fh:
            assert doc.to_text() == fh.read()

    def test_empty_document(self, model_dir):
        pipe = build_pipeline(model_dir=model_dir)
        doc = pipe.annotate("")
        assert doc.sentences == ()
        assert doc.to_text() == ""

    def test_two_sentence_paragraph(self, model_dir):
        pipe = build_pipeline(model_dir=model_dir)
        text = ("Ông Nguyễn Khắc Chúc đang làm việc tại Đại học Quốc gia Hà Nội. "
                "Bà Trần Thị Lan cũng làm việc tại Hà Nội.")
        doc = pipe.annotate(text)
        assert len(doc.sentences) == 2
        for sent in doc.sentences:
            assert all(t.pos_tag and t.ner_label and t.head is not None and
                       t.dep_label for t in sent)

    def test_wseg_only_population(self, model_dir):
        pipe = build_pipeline(["wseg"], model_dir=model_dir)
        doc = pipe.annotate("Họ đang làm việc .")
        sent = doc.sentences[0]
        assert all(t.pos_tag is None and t.head is None for t in sent)
        assert "làm_việc" in sent.forms

    def test_stage_monotonicity(self, model_dir):
        text = "Bà Trần Thị Lan đang làm việc tại Đà Nẵng ."
        partial = build_pipeline(["pos"], model_dir=model_dir).annotate(text)
        full = build_pipeline(model_dir=model_dir).annotate(text)
        for p_sent, f_sent in zip(partial.sentences, full.sentences):
            assert p_sent.forms == f_sent.forms
            assert p_sent.pos_tags == f_sent.pos_tags

    def test_idempotent_reannotation(self, model_dir):
        pipe = build_pipeline(model_dir=model_dir)
        text = "Sinh viên học ở Hà Nội ."
        once = pipe.annotate(text)
        twice = pipe.annotate(once)
        assert twice.sentences == once.sentences

    def test_deterministic(self, model_dir):
        pipe = build_pipeline(model_dir=model_dir)
        text = "Công ty xây dựng nhà máy mới ."
        assert pipe.annotate(text).to_text() == pipe.annotate(text).to_text()

    def test_syllable_sequence_recovers_raw_text(self, model_dir):
        pipe = build_pipeline(["wseg"], model_dir=model_dir)
        text = "Ông Nguyễn Khắc Chúc đang làm việc tại Đại học Quốc gia Hà Nội."
        doc = pipe.annotate(text)
        from sylpipe.wseg import tokenize_syllables
        produced = [s for sent in doc.sentences for s in sent.syllables()]
        assert produced == tokenize_syllables(text)

    def test_exactly_one_root_labeled_root(self, model_dir):
        pipe = build_pipeline(model_dir=model_dir)
        doc = pipe.annotate("Họ gặp kỹ sư ở văn phòng .")
        for sent in doc.sentences:
            roots = [t for t in sent if t.head == 0]
            assert len(roots) == 1
            assert roots[0].dep_label == "root"

    def test_presegmented_document_respected(self, model_dir):
        pipe = build_pipeline(["wseg", "pos"], model_dir=model_dir)
        sent = Sentence([Token(index=1, form="làm_việc")])
        doc = Document("làm việc", [sent])
        out = pipe.annotate(doc)
        assert out.sentences[0].forms == ["làm_việc"]
        assert out.sentences[0].pos_tags[0] is not None

    def test_fail_fast_names_stage_and_sentence(self, model_dir):
        pipe = build_pipeline(["ner"], model_dir=model_dir)
        # bypass wseg/pos by supplying a pre-populated document without POS
        bare = Document("x", [Sentence([Token(index=1, form="x")])])
        stages = Pipeline({"ner": pipe.models["ner"]}, ("ner",))
        with pytest.raises(AnnotationError) as exc:
            stages.annotate(bare)
        assert exc.value.stage == "ner"
        assert exc.value.sentence_index == 1

    @pytest.mark.parametrize("bad", [2, 3])
    def test_parse_failure_names_the_sentence(self, parse_model, bad):
        # The parser decodes a document at once; its input check still
        # names the sentence that lacks POS tags.
        tagged = Sentence([Token(index=1, form="x", pos_tag="N")])
        sentences = [tagged, tagged, tagged]
        sentences[bad - 1] = Sentence([Token(index=1, form="x")])
        stages = Pipeline({"parse": parse_model}, ("parse",))
        with pytest.raises(AnnotationError) as exc:
            stages.annotate(Document("x\nx\nx", sentences))
        assert exc.value.stage == "parse"
        assert exc.value.sentence_index == bad

    @pytest.mark.parametrize("bad", [2, 3])
    def test_ner_input_failure_names_the_sentence(self, model_dir, bad):
        # NER tags a document at once; its input check still names the
        # sentence that lacks POS tags.
        tagged = Sentence([Token(index=1, form="x", pos_tag="N")])
        sentences = [tagged, tagged, tagged]
        sentences[bad - 1] = Sentence([Token(index=1, form="x")])
        stages = Pipeline({"ner": build_pipeline(["ner"], model_dir=model_dir)
                           .models["ner"]}, ("ner",))
        with pytest.raises(AnnotationError, match=f"ner failed on sentence {bad}:"):
            stages.annotate(Document("x\nx\nx", sentences))

    @pytest.mark.parametrize("stage, owner, name", [
        ("pos", pos, "tag_pos_sentences"),
        ("ner", ner, "tag_ner_sentences"),
        ("parse", depparse, "parse_sentences"),
    ])
    def test_decode_faults_name_the_stage(self, model_dir, monkeypatch, stage, owner, name):
        pipe = build_pipeline(model_dir=model_dir)
        text = "Họ làm việc ở Hà Nội .\nÔng Lê Văn Minh viết về nhà máy tính ."

        def fail(model, sentences, **kwargs):
            raise KeyError("nope")

        monkeypatch.setattr(owner, name, fail)
        with pytest.raises(AnnotationError, match=f"^{stage} failed: 'nope'$") as exc:
            pipe.annotate(text)
        assert exc.value.stage == stage
        assert exc.value.sentence_index is None

        def no_path(model, sentences, **kwargs):
            raise DecodeError("no legal label sequence for sentence 2", sentence=2)

        monkeypatch.setattr(owner, name, no_path)
        with pytest.raises(AnnotationError, match=f"^{stage} failed on sentence 2:") as exc:
            pipe.annotate(text)
        assert exc.value.sentence_index == 2

    def test_no_legal_label_sequence_names_the_sentence(self):
        # A BIO model whose only label is I-PER has no legal sequence for
        # any non-empty sentence; the empty first sentence decodes.
        base = random_linear_model(random.Random(1), ["I-PER"])
        only_inside = LinearModel(base.labels, base.templates, base.feature_index,
                                  base.emission_weights, base.transition_weights,
                                  bio_constrained=True)
        tagged = Sentence([Token(index=1, form="xe", pos_tag="N")])
        stages = Pipeline({"ner": only_inside}, ("ner",))
        with pytest.raises(AnnotationError, match="ner failed on sentence 2:") as exc:
            stages.annotate(Document("\nx", [Sentence(()), tagged]))
        assert isinstance(exc.value.__cause__, DecodeError)


class TestNerFeatureToggle:
    def test_parser_with_ner_features_runs_without_ner_stage(self, toy_treebank,
                                                             model_dir, caplog):
        import os
        ner_parser = depparse.train_parser(list(toy_treebank), epochs=4,
                                           use_ner_features=True)
        tmp = str(model_dir)
        depparse.save_parser(ner_parser, os.path.join(tmp, "parse_ner.model"))
        paths = {
            "wseg": os.path.join(tmp, "wseg.model"),
            "pos": os.path.join(tmp, "pos.model"),
            "parse": os.path.join(tmp, "parse_ner.model"),
        }
        with caplog.at_level(logging.INFO, logger="sylpipe.pipeline"):
            pipe = build_pipeline(["wseg", "pos", "parse"], model_paths=paths)
        assert not pipe.parser_uses_ner()
        doc = pipe.annotate("Họ làm việc ở Hà Nội .")
        assert all(t.head is not None for t in doc.sentences[0])

    def test_toggle_off_with_ner_stage(self, toy_treebank, model_dir):
        import os
        ner_parser = depparse.train_parser(list(toy_treebank), epochs=4,
                                           use_ner_features=True)
        tmp = str(model_dir)
        depparse.save_parser(ner_parser, os.path.join(tmp, "parse_ner.model"))
        paths = {k: os.path.join(tmp, f"{k}.model")
                 for k in ("wseg", "pos", "ner")}
        paths["parse"] = os.path.join(tmp, "parse_ner.model")
        on = build_pipeline(["wseg", "pos", "ner", "parse"], model_paths=paths,
                            use_ner_features_in_parser=True)
        off = build_pipeline(["wseg", "pos", "ner", "parse"], model_paths=paths,
                             use_ner_features_in_parser=False)
        assert on.parser_uses_ner()
        assert not off.parser_uses_ner()
        text = "Ông Lê Văn Minh viết về nhà máy tính ."
        assert all(t.head is not None for t in on.annotate(text).sentences[0])
        assert all(t.head is not None for t in off.annotate(text).sentences[0])


# Pieces of odd input: controls, NEL, BOM, zero-width joiner and space, line
# and paragraph separators, NFD letters, CJK, Arabic, joiners, punctuation
# and numbers, besides known words.
ODD_PIECES = ["\x00", "\x01", "\x1b", "\x1f", "\x7f", "\x85", "\ufeff", "\u200d",
              "\u200b", "\u2028", "\u2029", "\r", "\t", "\n", " ", "\xa0", "_", "__",
              "a_b", "_x_", "Nguye\u0302\u0303n", "a\u0301", "\u0301", "東京", "北京大学",
              "مرحبا", "القاهرة", ".", "!", "?", "...", "…", "1.000,5", "TS.", "A."] + FORMS

@pytest.fixture(scope="module")
def full_pipeline(model_dir):
    return build_pipeline(model_dir=model_dir)


def check_annotation(pipe, text):
    """Annotating text raises nothing, keeps the tokenizer's syllables
    sentence by sentence and writes text that reads back as the output."""
    syllables = wseg.split_and_tokenize(text)
    doc = pipe.annotate(text)
    assert [s.syllables() for s in doc.sentences] == syllables
    assert from_six_column(dump_six_column(doc.sentences)) == list(doc.sentences)
    return syllables


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ODD_PIECES), st.text(max_size=3)),
                max_size=40).map("".join))
@example("_ __ a_b")
def test_odd_input_annotates_and_round_trips(full_pipeline, text):
    check_annotation(full_pipeline, text)


def test_line_of_over_ten_thousand_syllables(full_pipeline):
    line = " ".join(itertools.islice(itertools.cycle(
        ["nhà", "máy", "_", "Hà", "Nội", "東", "a_b", "\ufeff", "x\u0301"]), 9000))
    syllables = check_annotation(full_pipeline, line)
    assert len(syllables) == 1 and len(syllables[0]) > 10_000


def test_leading_byte_order_mark_dropped(full_pipeline):
    plain = full_pipeline.annotate("Hà Nội .")
    marked = full_pipeline.annotate("\ufeffHà Nội .")
    assert dump_six_column(marked.sentences) == dump_six_column(plain.sentences)
    assert wseg.split_and_tokenize("\ufeffHà Nội .") == [["Hà", "Nội", "."]]
    assert wseg.tokenize_syllables("\ufeffHà Nội .") == ["Hà", "Nội", "."]
    # Only the mark that starts the text: one inside a line stays a token.
    assert wseg.split_and_tokenize("Hà\ufeffNội .") == [["Hà", "\ufeff", "Nội", "."]]
