import re
import time

import pytest

from sylpipe import pos, wseg
from sylpipe.metrics import tagging_accuracy
from sylpipe.model import Sentence, Token
from sylpipe.seqlabel import TrainingError, save_linear_model


def plain(*forms):
    return Sentence(Token(index=i + 1, form=f) for i, f in enumerate(forms))


class TestParseTwoColumn:
    def test_basic(self):
        pairs = pos.parse_two_column("a\tN\nb\tV\n\nc\tCH\n")
        assert len(pairs) == 2
        sent, tags = pairs[0]
        assert sent.forms == ["a", "b"] and tags == ["N", "V"]

    def test_wrong_columns(self):
        with pytest.raises(TrainingError):
            pos.parse_two_column("a\tN\tX\n")

    @pytest.mark.parametrize("tag", ["_", "", "N\r"])
    def test_tag_that_cannot_round_trip_names_the_line(self, tag):
        with pytest.raises(TrainingError, match=re.escape(f"line 3: bad POS tag {tag!r}")):
            pos.parse_two_column(f"a\tN\n\nb\t{tag}\n")

    @pytest.mark.parametrize("form, problem", [
        ("b c", "token form may not contain whitespace: 'b c'"),
        ("", "token form must be non-empty"),
    ])
    def test_bad_form_names_the_line(self, form, problem):
        with pytest.raises(TrainingError, match=re.escape(f"line 2: {problem}")):
            pos.parse_two_column(f"a\tN\n{form}\tV\nc\tN\n")

    def test_dump_round_trip(self, toy_pos_corpus):
        text = pos.dump_two_column(toy_pos_corpus)
        assert pos.parse_two_column(text) == toy_pos_corpus


class TestTagPos:
    def test_sets_tags_only(self, pos_model):
        s = Sentence([Token(index=1, form="Hà_Nội", ner_label="B-LOC")])
        tagged = pos.tag_pos(pos_model, s)
        assert tagged[0].pos_tag is not None
        assert tagged[0].ner_label == "B-LOC"
        assert tagged[0].form == "Hà_Nội"
        assert tagged[0].head is None
        assert s[0].pos_tag is None  # input untouched

    def test_empty_sentence(self, pos_model):
        s = Sentence(())
        assert pos.tag_pos(pos_model, s) is s

    def test_period_is_ch(self):
        corpus = [(plain("a", "."), ["N", "CH"]), (plain("b", "."), ["V", "CH"])]
        model = pos.train_pos(corpus, epochs=5)
        assert pos.tag_pos(model, plain("."))[0].pos_tag == "CH"

    def test_single_token_memorization(self):
        model = pos.train_pos([(plain("zzz"), ["X"])], epochs=2)
        assert pos.tag_pos(model, plain("zzz"))[0].pos_tag == "X"

    def test_toy_training_accuracy(self, toy_pos_corpus, pos_model):
        gold = [tags for _, tags in toy_pos_corpus]
        pred = [pos.tag_pos(pos_model, s).pos_tags for s, _ in toy_pos_corpus]
        assert tagging_accuracy(gold, pred) >= 0.99

    def test_deterministic_rerun(self, toy_pos_corpus, tmp_path):
        m1 = pos.train_pos(toy_pos_corpus, epochs=3, shuffle_seed=9)
        m2 = pos.train_pos(toy_pos_corpus, epochs=3, shuffle_seed=9)
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_linear_model(m1, p1)
        save_linear_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_speed_smoke(pos_model, seg_model):
    # desk-scale floor: 10K words/sec tagging
    import sys
    sys.path.insert(0, "tests")
    from helpers import synthetic_raw_text
    text = synthetic_raw_text(15000, seed=6)
    sentences = [wseg.segment(seg_model, s) for s in wseg.split_and_tokenize(text)]
    words = sum(len(s) for s in sentences)
    for s in sentences[:30]:
        pos.tag_pos(pos_model, s)  # warm
    t0 = time.perf_counter()
    for s in sentences:
        pos.tag_pos(pos_model, s)
    rate = words / (time.perf_counter() - t0)
    assert rate >= 10000, f"tagging too slow: {rate:.0f} words/sec"
