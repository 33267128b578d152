import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (OldSentence, OldToken, random_annotated_sentence,
                     random_projective_heads)
from sylpipe.model import (FIELDS, DataError, Document, FormatError, Sentence, Token,
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

    def test_lone_joiner_is_one_syllable(self):
        s = Sentence.from_columns(["_", "a_b", "_"])
        assert s.syllables() == ["_", "a", "b", "_"]

    def test_with_methods_share_unchanged_columns(self):
        s = Sentence.from_columns(["a", "b", "c"])
        tagged = s.with_pos_tags(["N", "V", "N"])
        labeled = tagged.with_ner_labels(["O", "B-PER", "I-PER"])
        parsed = labeled.with_parse([2, 0, 2], ["sub", "root", "dob"])
        assert parsed.column("form") is s.column("form")
        assert parsed.column("pos_tag") is tagged.column("pos_tag")
        assert parsed.column("ner_label") is labeled.column("ner_label")
        assert parsed.column("pos_tag") == ("N", "V", "N")

    def test_token_views(self):
        s = Sentence.from_columns(["a", "b", "c"]).with_pos_tags(["N", "V", "N"])
        assert s[1] == s[-2] == Token(index=2, form="b", pos_tag="V")
        assert list(s) == list(s.tokens) == list(s[:]) == [s[0], s[1], s[2]]
        with pytest.raises(IndexError):
            s[3]
        tokens = [Token(index=1, form="a")]
        assert Sentence(tokens).tokens[0] == tokens[0]


# Random token fields for the old and the columnar sentence: forms with
# whitespace and joiners, NER labels of every shape, and heads that are out
# of range, point at their own token, form cycles or give several roots.
FORMS_ANY = st.text(st.sampled_from(["a", "é", "_", "Ư", " ", "\t", "\n", "\r", "\x0b",
                                     "\x85", "\u00a0", "\u200b", "\ufeff"]), max_size=3)
TAGS_ANY = st.one_of(st.none(), st.sampled_from(["N", "V", "", "_"]))
LABELS_ANY = st.one_of(st.none(), st.sampled_from(
    ["O", "B-PER", "I-LOC", "B-a|b", "X-PER", "B-", "I- x", "b-PER", "", "OO", "O "]))
RELATIONS_ANY = st.one_of(st.none(), st.sampled_from(["root", "nmod", ""]))


@st.composite
def heads_any(draw, n):
    """Heads of n tokens: all unset, or a projective tree or any heads in
    range, with up to two faults: out of range, the token itself, or unset."""
    kind = draw(st.sampled_from(["unset", "tree", "any"]))
    if kind == "unset":
        return [None] * n
    if kind == "tree":
        heads = random_projective_heads(random.Random(draw(st.integers(0, 2 ** 16))), n)[0]
    else:
        heads = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    if n:
        for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            heads[k] = draw(st.sampled_from([-1, n + 1, k + 1, None]))
    return heads


@st.composite
def token_rows(draw, forms=FORMS_ANY, labels=LABELS_ANY):
    n = draw(st.integers(0, 6))
    indices = list(range(1, n + 1))
    if n and draw(st.integers(0, 4)) == 0:
        indices[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    return list(zip(indices, draw(st.lists(forms, min_size=n, max_size=n)),
                    draw(st.lists(TAGS_ANY, min_size=n, max_size=n)),
                    draw(st.lists(labels, min_size=n, max_size=n)),
                    draw(heads_any(n)),
                    draw(st.lists(RELATIONS_ANY, min_size=n, max_size=n))))


@st.composite
def column_edits(draw, n):
    """One with_* call as (method, args), its columns now and then one short or long."""
    m = draw(st.sampled_from([n, n, n, n, n + 1, max(n - 1, 0)]))
    method = draw(st.sampled_from(["with_pos_tags", "with_ner_labels", "with_parse"]))
    if method == "with_pos_tags":
        return method, (draw(st.lists(TAGS_ANY, min_size=m, max_size=m)),)
    if method == "with_ner_labels":
        return method, (draw(st.lists(LABELS_ANY, min_size=m, max_size=m)),)
    return method, (draw(heads_any(m)), draw(st.lists(RELATIONS_ANY, min_size=n, max_size=n)))


def outcome(build):
    try:
        return True, build()
    except Exception as exc:  # compared with the other version's outcome
        return False, exc


def assert_same_outcome(old_build, new_build):
    """Both accept with equal fields, or both reject with the same exception
    type, a bare ValueError now being the typed DataError."""
    (old_ok, old), (new_ok, new) = outcome(old_build), outcome(new_build)
    assert old_ok == new_ok, (old, new)
    if not old_ok:
        assert type(new) is (DataError if type(old) is ValueError else type(old)), (old, new)
        return None
    assert len(new) == len(old.tokens)
    for name in ("index",) + FIELDS:
        values = tuple(getattr(t, name) for t in old.tokens)
        assert tuple(getattr(t, name) for t in new) == values
        if name != "index":
            assert new.column(name) == values
    return old, new


class TestColumnarSentenceMatchesRowSentence:
    @settings(max_examples=400, deadline=None)
    @given(token_rows())
    def test_constructors(self, rows):
        assert_same_outcome(lambda: OldSentence(OldToken(*r) for r in rows),
                            lambda: Sentence(Token(*r) for r in rows))
        if [r[0] for r in rows] == list(range(1, len(rows) + 1)):
            columns = list(zip(*rows))[1:] or [()]
            assert_same_outcome(lambda: OldSentence(OldToken(*r) for r in rows),
                                lambda: Sentence.from_columns(*columns))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_with_methods(self, data):
        rows = data.draw(token_rows(forms=st.sampled_from(["a", "b_c", "_"]),
                                    labels=st.sampled_from(["O", "B-PER", None])))
        pair = assert_same_outcome(lambda: OldSentence(OldToken(*r) for r in rows),
                                   lambda: Sentence(Token(*r) for r in rows))
        for _ in range(data.draw(st.integers(1, 4))):
            if pair is None:
                return
            old, new = pair
            method, args = data.draw(column_edits(len(new)))
            pair = assert_same_outcome(lambda: getattr(old, method)(*args),
                                       lambda: getattr(new, method)(*args))


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
        # A "#" line is no comment in six-column text but a one-column line.
        for bad, line in (("1\ta\tN\tO\t0", 1), ("1\ta\tN\tO\t0\troot\n# note\n", 2)):
            with pytest.raises(FormatError, match="expected 6 tab-separated columns") as exc:
                from_six_column(bad)
            assert exc.value.line == line

    def test_error_names_line(self):
        text = "1\ta\tN\tO\t0\troot\n\n1\tb\tN\tO\t0\troot\nbad line here"
        with pytest.raises(FormatError) as exc:
            from_six_column(text)
        assert exc.value.line == 4

    # An index or head that int() reads but that would write back otherwise
    # ("+1", " 1", Arabic-Indic digits, "1_0") is no number either.
    def test_non_numeric_index(self):
        with pytest.raises(FormatError):
            from_six_column("x\ta\tN\tO\t0\troot")
        for index in ("+1", " 1", "\u0661", "1_0"):
            with pytest.raises(FormatError, match=re.escape(
                    f"line 2: non-numeric token index {index!r}")):
                from_six_column(f"1\ta\tN\tO\t0\troot\n{index}\tb\tN\tO\t1\tx")

    def test_non_numeric_head(self):
        with pytest.raises(FormatError):
            from_six_column("1\ta\tN\tO\ty\troot")
        for head in ("+0", " 1", "\u0660", "1_0"):
            with pytest.raises(FormatError, match=re.escape(
                    f"line 2: non-numeric head index {head!r}")):
                from_six_column(f"1\ta\tN\tO\t0\troot\n2\tb\tN\tO\t{head}\tx")

    def test_leading_zero_is_refused(self):
        # "02" and "00" would load as 2 and 0 and write back without the
        # zero, so the file would not round trip.
        for index, head, fault in (("02", "1", "token index '02'"),
                                   ("2", "00", "head index '00'"),
                                   ("2", "01", "head index '01'")):
            with pytest.raises(FormatError, match=re.escape(
                    f"line 2: {fault} has a leading zero")):
                from_six_column(f"1\ta\tN\tO\t0\troot\n{index}\tb\tN\tO\t{head}\tx")

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


class TestLabelsThatCannotRoundTrip:
    """A POS tag or relation of "_", empty, or holding a tab or line break
    would not read back from six-column text as itself, so it is refused."""

    BAD = ["_", "", "N\tV", "N\nV", "N\rV", "\n"]

    @pytest.mark.parametrize("bad", BAD)
    def test_refused_by_every_constructor(self, bad):
        builds = [
            lambda: Token(index=1, form="a", pos_tag=bad),
            lambda: Token(index=1, form="a", head=0, dep_label=bad),
            lambda: Sentence.from_columns(["a"], [bad]),
            lambda: Sentence.from_columns(["a"], None, None, [0], [bad]),
            lambda: Sentence.from_columns(["a", "b"]).with_pos_tags(["N", bad]),
            lambda: Sentence.from_columns(["a", "b"]).with_parse([0, 1], ["root", bad]),
        ]
        for build in builds:
            with pytest.raises(DataError, match="six-column text cannot hold it"):
                build()

    def test_example_that_read_back_unset(self):
        with pytest.raises(DataError, match="bad POS tag '_'"):
            Sentence.from_columns(["a"], ["_"], ["O"], [0], ["_"])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from(["N", "_", " ", "|", "\t", "\n", "\r",
                                             "\x85", "\u2028"]), max_size=3),
                    min_size=4, max_size=4))
    def test_accepted_labels_round_trip(self, labels):
        tag_a, tag_b, rel_a, rel_b = labels
        refused = any(v in ("_", "") or any(c in v for c in "\t\n\r") for v in labels)
        try:
            sent = Sentence.from_columns(["a", "b"], [tag_a, tag_b], ["O", "O"], [0, 1],
                                         [rel_a, rel_b])
        except DataError:
            assert refused
            return
        assert not refused
        assert from_six_column(to_six_column(sent)) == [sent]
        assert from_six_column(dump_six_column([sent])) == [sent]


class TestDocument:
    def test_from_text(self):
        doc = Document.from_text("abc xyz")
        assert doc.raw_text == "abc xyz"
        assert doc.sentences == ()

    def test_to_text(self):
        s = Sentence([Token(index=1, form="a")])
        doc = Document("a", [s])
        assert doc.to_text() == "1\ta\t_\tO\t_\t_\n"
