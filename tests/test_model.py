import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_annotated_sentence
from sylpipe.model import (Document, FormatError, Sentence, Token,
                           dump_six_column, from_six_column, to_six_column)

FIXTURE_BLOCK = "\n".join([
    "1\tÔng\tNc\tO\t4\tsub",
    "2\tNguyễn_Khắc_Chúc\tNp\tB-PER\t1\tnmod",
    "3\tđang\tR\tO\t4\tadv",
    "4\tlàm_việc\tV\tO\t0\troot",
    "5\ttại\tE\tO\t4\tloc",
    "6\tĐại_học\tN\tB-ORG\t5\tpob",
    "7\tQuốc_gia\tN\tI-ORG\t6\tnmod",
    "8\tHà_Nội\tNp\tI-ORG\t6\tnmod",
    "9\t.\tCH\tO\t4\tpunct",
])


class TestToken:
    def test_valid(self):
        t = Token(index=2, form="Nguyễn_Khắc_Chúc", pos_tag="Np",
                  ner_label="B-PER", head=1, dep_label="nmod")
        assert t.form.count("_") == 2

    @pytest.mark.parametrize("kwargs", [
        dict(index=0, form="a"),
        dict(index=1, form=""),
        dict(index=1, form="a b"),
        dict(index=1, form="a\tb"),
        dict(index=1, form="a\nb"),
        dict(index=1, form="a", ner_label="X-PER"),
        dict(index=1, form="a", ner_label="B-"),
        dict(index=3, form="a", head=3),
        dict(index=1, form="a", head=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Token(**kwargs)

    @pytest.mark.parametrize("bad", [" ", "\t", "\n", "\r"])
    @pytest.mark.parametrize("where", ["{}x", "x{}", "x{}y", "{}"])
    def test_each_whitespace_character_rejected(self, bad, where):
        with pytest.raises(ValueError, match="whitespace"):
            Token(index=1, form=where.format(bad))

    @pytest.mark.parametrize("form", [
        "Nguye\u0302\u0303n",  # NFD: combining circumflex and tilde
        "Ha\u0300_No\u0323\u0302i",
        "東京", "Москва", "القاهرة", "กรุงเทพ",
        "a\u00a0b", "a\u2003b", "a\u200bb", "a\x0bb", "a\x0cb", "a\x85b",
    ])
    def test_other_forms_accepted(self, form):
        # Only space, tab, newline and carriage return are refused; other
        # Unicode spaces and controls pass, as they always have.
        assert Token(index=1, form=form).form == form


class TestSentence:
    def test_index_gap(self):
        with pytest.raises(ValueError):
            Sentence([Token(index=1, form="a"), Token(index=3, form="b")])

    def test_head_out_of_range(self):
        with pytest.raises(ValueError):
            Sentence([Token(index=1, form="a", head=2, dep_label="root")])

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            Sentence([Token(index=1, form="a", head=0, dep_label="root"),
                      Token(index=2, form="b", head=0, dep_label="root")])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Sentence([Token(index=1, form="a", head=2, dep_label="x"),
                      Token(index=2, form="b", head=1, dep_label="x"),
                      Token(index=3, form="c", head=0, dep_label="root")])

    def test_partial_heads_allowed(self):
        s = Sentence([Token(index=1, form="a", head=2, dep_label="x"),
                      Token(index=2, form="b")])
        assert s.heads == [2, None]

    def test_syllables(self):
        s = Sentence([Token(index=1, form="a_b"), Token(index=2, form="c")])
        assert s.syllables() == ["a", "b", "c"]


class TestToSixColumn:
    def test_fixture_sentence(self):
        sent = from_six_column(FIXTURE_BLOCK)[0]
        assert to_six_column(sent) == FIXTURE_BLOCK
        row2 = to_six_column(sent).split("\n")[1]
        assert row2 == "2\tNguyễn_Khắc_Chúc\tNp\tB-PER\t1\tnmod"

    def test_single_period_sentence(self):
        s = Sentence([Token(index=1, form=".", pos_tag="CH", ner_label="O",
                            head=0, dep_label="root")])
        assert to_six_column(s) == "1\t.\tCH\tO\t0\troot"

    def test_unset_fields_render(self):
        s = Sentence([Token(index=1, form="làm_việc")])
        assert to_six_column(s) == "1\tlàm_việc\t_\tO\t_\t_"

    def test_deterministic(self):
        s = Sentence([Token(index=1, form="a", pos_tag="N")])
        assert to_six_column(s) == to_six_column(s)


class TestFromSixColumn:
    def test_fixture_block(self):
        sents = from_six_column(FIXTURE_BLOCK)
        assert len(sents) == 1
        sent = sents[0]
        assert len(sent) == 9
        assert sent[1].form == "Nguyễn_Khắc_Chúc"
        assert sent[1].ner_label == "B-PER"
        assert sent[3].head == 0 and sent[3].dep_label == "root"

    def test_empty_input(self):
        assert from_six_column("") == []
        assert from_six_column("\n\n") == []

    def test_five_columns_error(self):
        bad = "1\ta\tN\tO\t0"
        with pytest.raises(FormatError) as exc:
            from_six_column(bad)
        assert exc.value.line == 1

    def test_error_names_line(self):
        text = "1\ta\tN\tO\t0\troot\n\n1\tb\tN\tO\t0\troot\nbad line here"
        with pytest.raises(FormatError) as exc:
            from_six_column(text)
        assert exc.value.line == 4

    def test_non_numeric_index(self):
        with pytest.raises(FormatError):
            from_six_column("x\ta\tN\tO\t0\troot")

    def test_non_numeric_head(self):
        with pytest.raises(FormatError):
            from_six_column("1\ta\tN\tO\ty\troot")

    def test_index_gap(self):
        text = "1\ta\tN\tO\t2\tx\n3\tb\tN\tO\t0\troot"
        with pytest.raises(FormatError) as exc:
            from_six_column(text)
        assert exc.value.line == 2

    def test_underscore_reads_back_as_unset(self):
        sent = from_six_column("1\ta\t_\tO\t_\t_")[0]
        assert sent[0].pos_tag is None
        assert sent[0].head is None
        assert sent[0].dep_label is None
        assert sent[0].ner_label == "O"


class TestRoundTrip:
    def test_thousand_random_sentences(self):
        rng = random.Random(99)
        for _ in range(1000):
            s = random_annotated_sentence(rng)
            assert from_six_column(to_six_column(s)) == [s]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_round_trip_property(self, seed):
        s = random_annotated_sentence(random.Random(seed))
        assert from_six_column(to_six_column(s)) == [s]

    def test_multi_sentence_dump(self):
        rng = random.Random(7)
        sents = [random_annotated_sentence(rng) for _ in range(5)]
        text = dump_six_column(sents)
        assert text.endswith("\n") and "\n\n" in text
        assert from_six_column(text) == sents


class TestDocument:
    def test_from_text(self):
        doc = Document.from_text("abc xyz")
        assert doc.raw_text == "abc xyz"
        assert doc.sentences == ()

    def test_to_text(self):
        s = Sentence([Token(index=1, form="a")])
        doc = Document("a", [s])
        assert doc.to_text() == "1\ta\t_\tO\t_\t_\n"
