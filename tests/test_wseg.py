import logging
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wseg_oracle as oracle
from sylpipe import wseg
from sylpipe.metrics import segmentation_f1
from sylpipe.model import DataError
from sylpipe.seqlabel import TrainingError
from sylpipe.wseg import (TEMPLATE_ORDER, TEMPLATES, Lexicon, SegmenterModel,
                          TransformationRule, load_segmenter, save_segmenter, segment,
                          split_and_tokenize, train_segmenter, words_to_decisions)


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

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(
        [".", "..", "...", "!", "?", "…", " ", "  ", "\n", "\t", ",", "_", "a", "A", "Ư",
         "TS", "Tp", "vs", "1", "3,5", "1.000,5", "Nguyễn", "Ha\u0300", "\u0300", "x.Y"]),
        max_size=30).map("".join))
    def test_matches_token_by_token_splitter(self, text):
        assert split_and_tokenize(text) == oracle.split_and_tokenize(text)


class TestLexicon:
    def test_exact_lookup(self):
        lex = Lexicon.from_forms(["a_b", "c"])
        assert ("a", "b") in lex
        assert ("c",) in lex
        assert ("a",) not in lex
        assert lex.starts == {"a": (2,)}

    def test_folded_lookup(self):
        lex = Lexicon.from_forms(["làm_việc"])
        assert not (("Làm", "việc") in lex)
        assert lex.contains_folded(("Làm", "việc"))

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            Lexicon([()])

    @pytest.mark.parametrize("entry", [("a b",), ("a", "b\tc"), ("a\n",), ("\r",),
                                       ("a\u00a0b",), ("a", "")])
    def test_refuses_a_syllable_it_cannot_save(self, entry):
        with pytest.raises(DataError, match="bad lexicon entry"):
            Lexicon([("x",), entry])

    def test_accepted_lexicon_round_trips(self, tmp_path):
        entries = [("a",), ("Hà", "Nội"), ("x", "y", "z"), ("1.000",), ("…",), ("a-b", "c")]
        path = tmp_path / "lex.model"
        save_segmenter(SegmenterModel(Lexicon(entries), ()), path)
        assert load_segmenter(path).lexicon.entries == frozenset(entries)

    def test_starts_index(self):
        lex = Lexicon.from_forms(["Hà_Nội", "hà_nội_mới", "Hà", "x_y", "x_y_z_w"])
        assert lex.starts == {"hà": (3, 2), "x": (4, 2)}


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


class TestRuleOrder:
    def test_templates_without_an_anchor_read_no_decision(self):
        # The matcher finds such a rule's matches before its first flip.
        for slots in TEMPLATES.values():
            if not any(kind == "syl" and 0 <= off <= 1 for kind, off in slots):
                assert all(kind != "dec" for kind, _ in slots)

    def test_pairdec_reads_flips_made_earlier_in_the_scan(self):
        # Baseline: b | a_a_a_a. Split after a split: the scan left to right
        # splits each boundary in turn; right to left it would split only
        # the first.
        model = SegmenterModel(lexicon=Lexicon.from_forms(["a_a_a_a"]), rules=(
            TransformationRule("split", "pairdec", ("a", "a", "S"), 1),))
        syllables = ["b", "a", "a", "a", "a"]
        assert segment(model, syllables).forms == syllables
        assert oracle.segment(oracle.oracle_model(model), syllables).forms == syllables

    def test_rules_apply_in_order(self):
        lexicon = Lexicon.from_forms(["a_b"])
        split_then_join = (TransformationRule("split", "pair", ("a", "b"), 1),
                           TransformationRule("join", "left1", ("a",), 1))
        model = SegmenterModel(lexicon=lexicon, rules=split_then_join)
        assert segment(model, ["a", "b"]).forms == ["a_b"]
        model = SegmenterModel(lexicon=lexicon, rules=split_then_join[::-1])
        assert segment(model, ["a", "b"]).forms == ["a", "b"]


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

    @pytest.mark.parametrize("line", ["a\x0cb", "a\x85b", "a\u2028b"])
    def test_model_file_with_whitespace_in_lexicon_is_corrupt(self, tmp_path, line):
        bad = tmp_path / "bad.model"
        bad.write_text(f"{wseg.MODEL_MAGIC}\nradius\t2\nlexicon\t1\n{line}\nrules\t0\n",
                       encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt segmenter model (line 4: bad lexicon entry {line!r})")):
            load_segmenter(bad)


class TestTraining:
    def test_perfect_corpus_learns_no_rules(self):
        corpus = [["a_b", "c"], ["c", "a_b"]]
        model = train_segmenter(corpus)
        assert model.rules == ()
        assert ("a", "b") in model.lexicon

    @pytest.mark.parametrize("radius, cap, message", [
        (-1, 200, "window radius must be >= 0, got -1"),
        (2, -3, "rule cap must be >= 0, got -3")])
    def test_negative_radius_or_cap_refused(self, radius, cap, message):
        with pytest.raises(ValueError, match=message):
            train_segmenter([["a_b", "c"]], window_radius=radius, max_rules=cap)

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

    @pytest.mark.parametrize("corpus, message", [
        ([["a", "_", "b"]], "sentence 1: bad word form '_'"),
        ([[], ["a_b"], ["x__y", "z"]], "sentence 3: bad word form 'x__y'"),
        ([["a_b"], ["c_"]], "sentence 2: bad word form 'c_'"),
    ])
    def test_bad_word_named_with_its_sentence(self, corpus, message):
        with pytest.raises(DataError, match=re.escape(message)):
            train_segmenter(corpus)

    def test_logs_each_rule_round(self, caplog):
        # One DEBUG line a round: the candidates, the ones estimated to help,
        # the ones applied and undone, and the estimate against the score.
        corpus = [["."], ["a_."], [".", "học", "học_học_học", "A", "Học_a"],
                  [".", "A_Hà_b", "Học_A", "học_a_a", "a_A_hà"]]
        with caplog.at_level(logging.DEBUG, logger="sylpipe.wseg"):
            model = train_segmenter(corpus, window_radius=1, max_rules=8)
        lines = [r.getMessage() for r in caplog.records if r.name == "sylpipe.wseg"]
        assert len(model.rules) == 2
        assert lines == [
            "rule round 1: 17 candidate(s), 7 estimated to help; 1 applied and undone "
            "before join pair was accepted, estimated at 1, removing 1 error(s)",
            "rule round 2: 11 candidate(s), 4 estimated to help; 1 applied and undone "
            "before split pair was accepted, estimated at 1, removing 1 error(s)",
            "rule round 3: 6 candidate(s), 1 estimated to help; none of the 1 tried "
            "removes an error"]

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
        model = SegmenterModel(lexicon=Lexicon.from_forms(["a_b"]), rules=())
        assert segment(model, ["a", "b", "a", "b"]).forms == ["a_b", "a_b"]

    def test_folded_match_at_sentence_start(self):
        model = SegmenterModel(lexicon=Lexicon.from_forms(["làm_việc"]), rules=())
        assert segment(model, ["Làm", "việc"]).forms == ["Làm_việc"]


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

    @pytest.mark.parametrize("rule, problem", [
        ("join\tlexflags\t1\t0\t2\t1", "a lex slot takes one of 0, 1, -, found '2'"),
        ("join\tshapelex\t1\ta\ta\tJ", "a lex slot takes one of 0, 1, -, found 'J'"),
        ("split\tpairdec\t1\ta\tb\t1", "a dec slot takes one of J, S, -, found '1'"),
    ])
    def test_rule_with_value_its_slot_never_reads(self, tmp_path, seg_model, rule, problem):
        good = tmp_path / "good.model"
        save_segmenter(seg_model, good)
        lines = good.read_text(encoding="utf-8").split("\n")
        lines[-2] = rule
        bad = tmp_path / "bad.model"
        bad.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"corrupt segmenter model (line {len(lines) - 1}: {problem})")):
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


# The compiled segmenter against the slot-by-slot one it replaced
# (tests/wseg_oracle.py). Syllables mix case, NFC and NFD forms ("Hà" and
# "Ha" + U+0300) and the lone "_". The sentences and gold words also hold
# syllables spelled like a sentinel or a row value, which the rows must keep
# apart from the sentinels: shapes and anchor positions come from syllable
# slots only.
SYLLABLES = ["a", "A", "b", "B", "học", "Học", "HỌC", "sinh", "Sinh", "Hà",
             "Ha\u0300", "hà", "nội", "Nội", "1,5", "x1", "."]
SENTINEL_SPELLED = ["<s>", "</s>", "-", "J", "S"]
SHAPES = ["a", "A", "Aa", "AaxAa", "Aax", "ax", "x", "9x9", "a9"]
RULE_VALUES = SYLLABLES + ["_", "<s>", "</s>"] + SHAPES + ["0", "1", "-", "J", "S"]

words = st.lists(st.sampled_from(SYLLABLES), min_size=1, max_size=4)
# Few syllables, so that gold words overlap and most corpora learn rules.
gold_words = st.lists(st.sampled_from(["a", "A", "b", "học", "Học", "Hà", "Ha\u0300", "hà", "."]
                                      + SENTINEL_SPELLED),
                      min_size=1, max_size=3).map("_".join)


@st.composite
def rules(draw):
    template = draw(st.sampled_from(TEMPLATE_ORDER))
    values = draw(st.lists(st.sampled_from(RULE_VALUES), min_size=len(TEMPLATES[template]),
                           max_size=len(TEMPLATES[template])))
    return TransformationRule(draw(st.sampled_from(["join", "split"])), template,
                              tuple(values), 1)


@st.composite
def models(draw):
    lexicon = Lexicon(draw(st.lists(words, max_size=12)))
    return SegmenterModel(lexicon=lexicon, rules=tuple(draw(st.lists(rules(), max_size=12))))


def trained(trainer, corpus, radius, max_rules=200):
    """Everything a training run returns or reports: the rules, the lexicon,
    the radius and the on_rule calls."""
    seen = []
    model = trainer(corpus, window_radius=radius, max_rules=max_rules,
                    on_rule=lambda *args: seen.append(args))
    return model.rules, model.lexicon.entries, model.window_radius, seen


class TestCompiledMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(models(), st.lists(st.lists(st.sampled_from(SYLLABLES + ["_"] + SENTINEL_SPELLED),
                                       max_size=25), min_size=1, max_size=4))
    # The syllable "<s>" has the shape "xax", not the sentinel's "<s>".
    @example(SegmenterModel(lexicon=Lexicon([]), rules=(
        TransformationRule("join", "shapes", ("<s>", "a"), 1),
        TransformationRule("join", "shapes", ("a", "xax"), 1))), [["<s>", "a", "</s>"]])
    def test_segment(self, model, sentences):
        reference = oracle.oracle_model(model)
        for syllables in sentences:
            assert segment(model, syllables) == oracle.segment(reference, syllables)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(gold_words, min_size=1, max_size=8), min_size=1, max_size=10),
           st.sampled_from([1, 2]), st.integers(1, 8))
    def test_train_segmenter(self, corpus, radius, max_rules):
        assert trained(train_segmenter, corpus, radius, max_rules) == \
            trained(oracle.train_segmenter, corpus, radius, max_rules)

    def test_train_many_rules(self):
        # Ten rounds, four of them pairdec rules, whose decision slot reads
        # the flips of the rules accepted before.
        corpus = [["b_học", "A", "học", "học_hà_1,5", ".", "._hà"],
                  ["học_hà_A", "học_a", "sinh_hà", "hà_A", "A_A", "nội_hà", "1,5", "Hà"],
                  [".", "học_nội_b", "A_sinh_a", "học_b"],
                  ["._Học_sinh", "hà_b", "nội", "sinh", "Hà_1,5", "sinh_nội", "Học", "Hà"],
                  ["1,5_A_sinh", "học_Hà_học", "Học", "học_Học", "hà"],
                  ["Học_hà", "1,5", "A_b", "học", "Học"], ["hà", "b_nội"]]
        result = trained(train_segmenter, corpus, 1)
        assert result == trained(oracle.train_segmenter, corpus, 1)
        assert [r.template for r in result[0]] == ["pair"] * 6 + ["pairdec"] * 4

    @pytest.mark.parametrize("corpus, expected", [
        # In the second round join lexflags, split lexflags, join shapes and
        # join shapelex all have the best estimate, 2: the candidate first
        # seen at a wrong boundary wins, and the runner-up comes next.
        ([["Học_A"], ["hà_hà", "a", ".", "Hà_A", "Hà_hà_học"],
          ["học_hà", "học_hà_Học", "học_hà", "b_Học_Học"],
          ["hà_A_Hà", "Học_b", "A_hà", "hà_hà", "Học_b_Hà"]],
         [("join", "shapelex"), ("join", "lexflags"), ("split", "lexflags"),
          ("split", "left3"), ("join", "pair"), ("join", "left3")]),
        # Each round's best candidates are first seen at one boundary, so
        # template order decides: right3 over window4, lexflags and pairdec,
        # then pair over left3, right3 and window4.
        ([["A_a", "A_a_A"], ["Hà_Hà_hà"]], [("split", "right3"), ("join", "pair")]),
    ])
    def test_tied_estimates_go_to_the_first_seen_candidate(self, corpus, expected):
        result = trained(train_segmenter, corpus, 2)
        assert result == trained(oracle.train_segmenter, corpus, 2)
        assert [(r.action, r.template) for r in result[0]] == expected

    def test_train_past_a_candidate_that_fails(self):
        # The best estimate here is split pairdec ("học", "học", "S"), whose
        # flips cascade through "học học học" and do not lower the error
        # count: training must undo them and take the next candidate.
        corpus = [["."], ["a_."], [".", "học", "học_học_học", "A", "Học_a"],
                  [".", "A_Hà_b", "Học_A", "học_a_a", "a_A_hà"]]
        model = train_segmenter(corpus, window_radius=1, max_rules=8)
        assert model.rules == oracle.train_segmenter(corpus, window_radius=1,
                                                     max_rules=8).rules
        assert [r.template for r in model.rules] == ["pair", "pair"]

    def test_long_sentence_has_no_quadratic_path(self, seg_model, toy_seg_corpus):
        # Rules of every template, each read off the sentence so that it
        # matches somewhere, over one sentence of 12,000 syllables.
        rng = random.Random(17)
        pool = sorted({s for sent in toy_seg_corpus for w in sent for s in w.split("_")})
        syllables = [rng.choice(pool + SYLLABLES + ["_"]) for _ in range(12000)]
        lexicon = oracle.Lexicon(seg_model.lexicon.entries)
        ctx = oracle._SentenceContext(
            syllables, oracle.baseline_decisions(lexicon, syllables), lexicon)
        extra = tuple(TransformationRule(rng.choice(["join", "split"]), tpl,
                                         ctx.pattern_key(rng.randrange(len(syllables) - 1), tpl), 1)
                      for tpl in TEMPLATE_ORDER for _ in range(3))
        model = SegmenterModel(lexicon=seg_model.lexicon, rules=seg_model.rules + extra)
        segment(model, syllables[:100])  # compile the model before timing
        t0 = time.perf_counter()
        out = segment(model, syllables)
        elapsed = time.perf_counter() - t0
        assert out == oracle.segment(oracle.oracle_model(model), syllables)
        # About 0.02 s on a 2-vCPU virtual machine; a path quadratic in the
        # sentence length would take many seconds.
        assert elapsed < 1.0
