import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylpipe import wseg
from sylpipe.metrics import segmentation_f1
from sylpipe.seqlabel import TrainingError
from sylpipe.wseg import (Lexicon, SegmenterModel, TransformationRule,
                          baseline_decisions, load_segmenter, save_segmenter,
                          segment, split_and_tokenize, train_segmenter,
                          words_to_decisions)


class TestSplitAndTokenize:
    def test_no_boundary(self):
        assert split_and_tokenize("abc") == [["abc"]]

    def test_simple_boundary(self):
        assert split_and_tokenize("x. Y") == [["x", "."], ["Y"]]

    def test_digit_starts_sentence(self):
        assert split_and_tokenize("xong. 5 người đến") == \
            [["xong", "."], ["5", "người", "đến"]]

    def test_no_split_without_space(self):
        assert split_and_tokenize("x.Y") == [["x", ".", "Y"]]

    def test_no_split_before_lowercase(self):
        assert split_and_tokenize("v. d. nhỏ") == [["v", ".", "d", ".", "nhỏ"]]

    def test_abbreviation_guard(self):
        assert split_and_tokenize("TS. Nguyễn đến") == [["TS", ".", "Nguyễn", "đến"]]

    def test_initial_guard(self):
        assert split_and_tokenize("A. B") == [["A", ".", "B"]]

    def test_question_and_exclamation(self):
        assert split_and_tokenize("Sao? Vì trời mưa! Thế à") == \
            [["Sao", "?"], ["Vì", "trời", "mưa", "!"], ["Thế", "à"]]

    def test_ellipsis(self):
        assert split_and_tokenize("Thôi... Được rồi") == \
            [["Thôi", "..."], ["Được", "rồi"]]

    def test_newline_is_hard_boundary(self):
        assert split_and_tokenize("một hai\nBa bốn") == \
            [["một", "hai"], ["Ba", "bốn"]]

    def test_punctuation_separated(self):
        assert split_and_tokenize("Hà Nội, Việt Nam.") == \
            [["Hà", "Nội", ",", "Việt", "Nam", "."]]

    def test_decimal_number_stays_together(self):
        assert split_and_tokenize("giá 3,5 triệu") == [["giá", "3,5", "triệu"]]

    def test_two_sentence_paragraph(self):
        text = ("Ông Nguyễn Khắc Chúc đang làm việc tại Đại học Quốc gia Hà Nội. "
                "Bà Lan, vợ ông Chúc, cũng làm việc tại đây.")
        assert len(split_and_tokenize(text)) == 2

    def test_empty_text(self):
        assert split_and_tokenize("") == []
        assert split_and_tokenize("   \n \n") == []


class TestLexicon:
    def test_exact_lookup(self):
        lex = Lexicon.from_forms(["a_b", "c"])
        assert ("a", "b") in lex
        assert ("c",) in lex
        assert ("a",) not in lex
        assert lex.max_len == 2

    def test_folded_lookup(self):
        lex = Lexicon.from_forms(["làm_việc"])
        assert not (("Làm", "việc") in lex)
        assert lex.contains_folded(("Làm", "việc"))

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            Lexicon([()])


class TestSegment:
    def no_rules(self, *forms):
        return SegmenterModel(lexicon=Lexicon.from_forms(forms), rules=())

    def test_greedy_longest_match(self):
        model = self.no_rules("a_b", "b_c")
        out = segment(model, ["a", "b", "c"])
        assert [t.form for t in out] == ["a_b", "c"]

    def test_unknown_singleton(self):
        out = segment(self.no_rules("a_b"), ["zzz"])
        assert [t.form for t in out] == ["zzz"]

    def test_longest_wins(self):
        model = self.no_rules("a_b", "a_b_c")
        out = segment(model, ["a", "b", "c"])
        assert [t.form for t in out] == ["a_b_c"]

    def test_capitalized_run_not_auto_joined(self):
        out = segment(self.no_rules("x_y"), ["Nguyễn", "Khắc", "Chúc"])
        assert [t.form for t in out] == ["Nguyễn", "Khắc", "Chúc"]

    def test_empty_input(self):
        assert len(segment(self.no_rules("a"), [])) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "Hà", "nội", "zz"]),
                    min_size=1, max_size=12))
    def test_conservation(self, syllables):
        model = self.no_rules("a_b", "b_c", "Hà_nội", "c_a_b")
        out = segment(model, syllables)
        rebuilt = [s for t in out for s in t.form.split("_")]
        assert rebuilt == syllables


class TestLoneJoiner:
    """A syllable "_" stays a word of its own, so its form reads back as it."""

    def test_tokenizer_keeps_each_underscore(self):
        assert split_and_tokenize("_ __ a_b") == [["_", "_", "_", "a", "_", "b"]]

    def test_lexicon_refuses_joiner_syllables(self):
        for entry in [("_", "a"), ("a_b",), ("_",)]:
            with pytest.raises(ValueError, match="bad lexicon entry"):
                Lexicon([entry])

    def test_no_rule_joins_a_lone_joiner(self):
        # Joins at every pair of shapes ("_" and "." have shape "x"), so only
        # the boundaries next to a "_" stay split.
        rules = tuple(TransformationRule("join", "shapes", (a, b), 1)
                      for a in "ax" for b in "ax")
        model = SegmenterModel(lexicon=Lexicon.from_forms(["a_b"]), rules=rules)
        syllables = ["_", "_", "a", "_", "b", "c", "."]
        out = segment(model, syllables)
        assert out.forms == ["_", "_", "a", "_", "b_c_."]
        assert out.syllables() == syllables

    def test_rules_still_split_next_to_a_joiner(self):
        model = SegmenterModel(lexicon=Lexicon.from_forms(["a_b"]), rules=(
            TransformationRule("split", "pair", ("a", "b"), 1),))
        assert segment(model, ["_", "a", "b"]).forms == ["_", "a", "b"]

    def test_model_file_with_joiner_in_lexicon_is_corrupt(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(f"{wseg.MODEL_MAGIC}\nradius\t2\nlexicon\t1\n_ a\nrules\t0\n",
                       encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                "corrupt segmenter model (line 4: bad lexicon entry '_ a')")):
            load_segmenter(bad)


class TestTraining:
    def test_perfect_corpus_learns_no_rules(self):
        corpus = [["a_b", "c"], ["c", "a_b"]]
        model = train_segmenter(corpus)
        assert model.rules == ()
        assert ("a", "b") in model.lexicon

    def test_rules_strictly_reduce_errors(self):
        corpus = [
            ["học_sinh", "học", "sinh_học", "."],
            ["học_sinh", "giỏi", "học", "sinh_học", "."],
            ["nhà_máy", "lớn", "."],
            ["nhà", "máy_tính", "mới", "."],
        ]
        model = train_segmenter(corpus)
        assert model.rules, "ambiguous corpus must produce rules"
        assert all(r.score >= 1 for r in model.rules)

        # independent counter: boundary errors after applying each rule prefix
        def errors_with(rules):
            truncated = SegmenterModel(lexicon=model.lexicon, rules=rules,
                                       window_radius=model.window_radius)
            total = 0
            for sent in corpus:
                syllables, gold = words_to_decisions(sent)
                out = segment(truncated, syllables)
                _, got = words_to_decisions([t.form for t in out])
                total += sum(1 for a, b in zip(gold, got) if a != b)
            return total

        counts = [errors_with(model.rules[:k])
                  for k in range(len(model.rules) + 1)]
        assert all(b < a for a, b in zip(counts, counts[1:]))
        assert all(a - b == r.score
                   for a, b, r in zip(counts, counts[1:], model.rules))
        predicted = [[t.form for t in segment(model, words_to_decisions(s)[0])]
                     for s in corpus]
        assert segmentation_f1(corpus, predicted).f1 == 1.0

    def test_final_f1_at_least_baseline(self):
        corpus = [["học_sinh", "học", "sinh_học", "."],
                  ["nhà", "máy_tính", "."]]
        model = train_segmenter(corpus)
        baseline = SegmenterModel(lexicon=model.lexicon, rules=())
        def f1(m):
            pred = [[t.form for t in segment(m, words_to_decisions(s)[0])]
                    for s in corpus]
            return segmentation_f1(corpus, pred).f1
        assert f1(model) >= f1(baseline)

    def test_deterministic_rerun(self):
        corpus = [["học_sinh", "học", "sinh_học", "."],
                  ["nhà", "máy_tính", "mới", "."],
                  ["nhà_máy", "lớn", "."]]
        m1 = train_segmenter(corpus)
        m2 = train_segmenter(corpus)
        assert m1.rules == m2.rules

    def test_empty_corpus_error(self):
        with pytest.raises(TrainingError):
            train_segmenter([])

    def test_max_rules_cap(self):
        corpus = [["học_sinh", "học", "sinh_học", "."],
                  ["nhà", "máy_tính", "mới", "."]]
        model = train_segmenter(corpus, max_rules=1)
        assert len(model.rules) <= 1

    def test_toy_corpus_perfect(self, toy_seg_corpus, seg_model):
        predicted = [[t.form for t in segment(seg_model, words_to_decisions(s)[0])]
                     for s in toy_seg_corpus]
        assert segmentation_f1(toy_seg_corpus, predicted).f1 == 1.0


class TestBaseline:
    def test_window_limited_by_max_len(self):
        lex = Lexicon.from_forms(["a_b"])
        decisions = baseline_decisions(lex, ["a", "b", "a", "b"])
        assert decisions == [True, False, True]

    def test_folded_match_at_sentence_start(self):
        lex = Lexicon.from_forms(["làm_việc"])
        decisions = baseline_decisions(lex, ["Làm", "việc"])
        assert decisions == [True]


class TestSerialization:
    def test_round_trip(self, tmp_path, seg_model):
        p = tmp_path / "seg.model"
        save_segmenter(seg_model, p)
        loaded = load_segmenter(p)
        assert loaded.rules == seg_model.rules
        assert loaded.lexicon.entries == seg_model.lexicon.entries
        assert loaded.window_radius == seg_model.window_radius
        p2 = tmp_path / "seg2.model"
        save_segmenter(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk"
        p.write_text("nope\n")
        with pytest.raises(ValueError):
            load_segmenter(p)

    # (name, edit of the file's text, problem); a file cut short fails at its
    # first incomplete line, one with more text at the line after the rules.
    CORRUPTIONS = [
        ("truncated", lambda text: text[:-30], "the file ends before rule"),
        ("no final newline", lambda text: text[:-1], "the file ends before rule"),
        ("cut in the lexicon", lambda text: text[:text.index("rules\t")],
         "the file ends before the rules header"),
        ("padded", lambda text: text + "\n", "unexpected content after the declared rules"),
        ("junk line", lambda text: text + "junk\n",
         "unexpected content after the declared rules"),
        ("trailing text", lambda text: text + "x", "unexpected content after the declared rules"),
    ]

    @pytest.mark.parametrize("name, edit, problem", CORRUPTIONS,
                             ids=[c[0] for c in CORRUPTIONS])
    def test_corrupt_file_names_the_line(self, tmp_path, seg_model, name, edit, problem):
        good = tmp_path / "good.model"
        save_segmenter(seg_model, good)
        text = good.read_text(encoding="utf-8")
        bad_text = edit(text)
        if len(bad_text) < len(text):
            line = bad_text.count("\n") + 1
        else:
            line = text.count("\n") + 1
        bad = tmp_path / "bad.model"
        bad.write_text(bad_text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{bad}: corrupt segmenter model (line {line}: {problem}")):
            load_segmenter(bad)

    def test_bad_header_names_the_line(self, tmp_path, seg_model):
        good = tmp_path / "good.model"
        save_segmenter(seg_model, good)
        bad = tmp_path / "bad.model"
        bad.write_text(good.read_text(encoding="utf-8").replace("lexicon\t", "lexicon\t+"),
                       encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                "corrupt segmenter model (line 3: expected 'lexicon', a tab and a count")):
            load_segmenter(bad)

    def test_rule_with_wrong_value_count(self, tmp_path, seg_model):
        assert seg_model.rules
        good = tmp_path / "good.model"
        save_segmenter(seg_model, good)
        lines = good.read_text(encoding="utf-8").split("\n")
        lines[-2] += "\textra"
        bad = tmp_path / "bad.model"
        bad.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt segmenter model (line {len(lines) - 1}: a ")):
            load_segmenter(bad)


def test_speed_smoke(seg_model):
    # desk-scale floor: 50K syllables/sec on synthetic text
    from helpers import synthetic_raw_text
    text = synthetic_raw_text(20000, seed=5)
    sentences = split_and_tokenize(text)
    syllables = sum(len(s) for s in sentences)
    for s in sentences[:50]:
        segment(seg_model, s)  # warm
    t0 = time.perf_counter()
    for s in sentences:
        segment(seg_model, s)
    rate = syllables / (time.perf_counter() - t0)
    assert rate >= 50000, f"segmentation too slow: {rate:.0f} syllables/sec"
