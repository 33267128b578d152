import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_form_sentence, random_linear_model
from sylpipe import ner, pos, seqlabel
from sylpipe.metrics import chunk_f1
from sylpipe.model import DataError, FormatError, Sentence, Token
from sylpipe.seqlabel import LinearModel, bio_transition_mask, viterbi_decode


def tagged(*pairs):
    return Sentence(Token(index=i + 1, form=f, pos_tag=p)
                    for i, (f, p) in enumerate(pairs))


def with_ner(sentence, labels):
    return sentence.with_ner_labels(labels)


FIXTURE_LABELS = ["O", "B-PER", "O", "O", "O", "B-ORG", "I-ORG", "I-ORG", "O"]


class TestRepairBio:
    def test_leading_inside(self):
        assert ner.repair_bio(["I-PER", "I-PER"]) == ["B-PER", "I-PER"]

    def test_inside_after_o(self):
        assert ner.repair_bio(["O", "I-ORG"]) == ["O", "B-ORG"]

    def test_type_switch(self):
        assert ner.repair_bio(["B-PER", "I-ORG"]) == ["B-PER", "B-ORG"]

    def test_valid_unchanged(self):
        labels = ["B-PER", "I-PER", "O", "B-LOC"]
        assert ner.repair_bio(labels) == labels

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            ner.repair_bio(["Q-PER"])


# Types that share a prefix or hold a marker, so that a rule that compares
# label prefixes instead of marker and type would be caught.
BIO_LABELS = st.sampled_from(["O"]) | st.builds(
    "{}-{}".format, st.sampled_from("BI"),
    st.sampled_from(["PER", "PERS", "LOC", "I-PER", "B", "a|b", "X-Y"]))


def plainly_follows(label, previous):
    """The BIO rule read off marker and type: I-X only right after B-X or I-X."""
    marker, etype = label[0], label[2:]
    return marker != "I" or (previous is not None and previous != "O"
                             and previous[0] in "BI" and previous[2:] == etype)


class TestBioRule:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(BIO_LABELS, min_size=1, max_size=8, unique=True), st.data())
    def test_mask_validity_and_repair_follow_the_rule(self, alphabet, data):
        mask = bio_transition_mask(alphabet)
        assert mask.shape == (len(alphabet) + 1, len(alphabet))
        for p, previous in enumerate([*alphabet, None]):
            for j, label in enumerate(alphabet):
                assert mask[p, j] == plainly_follows(label, previous)
        labels = data.draw(st.lists(st.sampled_from(alphabet), max_size=10))
        legal = [plainly_follows(label, previous)
                 for label, previous in zip(labels, [None, *labels])]
        assert ner.is_valid_bio(labels) == all(legal)
        repaired = ner.repair_bio(labels)
        expected = []
        for label in labels:
            expected.append(label if plainly_follows(label, expected[-1] if expected else None)
                            else "B" + label[1:])
        assert repaired == expected
        assert ner.is_valid_bio(repaired)
        assert ner.repair_bio(repaired) == repaired
        if all(legal):
            assert repaired == labels

    @pytest.mark.parametrize("label", ["B-LOC X", "I-", "N", "o", "B_LOC"])
    def test_one_shape_everywhere(self, label):
        for check in (ner.is_valid_bio, ner.repair_bio, ner.entity_spans):
            with pytest.raises(DataError, match=f"bad NER label '{label}'"):
                check(["O", label])

    def test_training_refuses_a_bad_gold_label_before_the_freeze(self, monkeypatch):
        def freeze(*args):
            raise AssertionError("froze a corpus with a bad label")

        monkeypatch.setattr(seqlabel, "_freeze", freeze)
        s = tagged(("a", "Np"), ("b", "N"))
        with pytest.raises(DataError, match=re.escape("bad NER label 'B-LOC X'")):
            ner.train_ner([(s, ["B-LOC X", "O"])], epochs=1)


class TestEntitySpans:
    def test_fixture_labels(self):
        spans = ner.entity_spans(FIXTURE_LABELS)
        assert spans == [ner.EntitySpan("PER", 2, 2), ner.EntitySpan("ORG", 6, 8)]

    def test_all_outside(self):
        assert ner.entity_spans(["O", "O"]) == []

    def test_adjacent_singletons(self):
        spans = ner.entity_spans(["B-PER", "B-PER"])
        assert spans == [ner.EntitySpan("PER", 1, 1), ner.EntitySpan("PER", 2, 2)]

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            ner.entity_spans(["O", "I-PER"])

    def test_round_trip_with_labels_of_spans(self):
        rng = random.Random(3)
        from helpers import random_bio_labels
        for _ in range(200):
            labels = random_bio_labels(rng, rng.randint(1, 12))
            spans = ner.entity_spans(labels)
            assert ner.labels_of_spans(spans, len(labels)) == labels

    def test_count_matches_run_length_scan(self):
        rng = random.Random(4)
        from helpers import random_bio_labels
        for _ in range(200):
            labels = random_bio_labels(rng, rng.randint(1, 12))
            runs = sum(1 for lab in labels if lab.startswith("B-"))
            assert len(ner.entity_spans(labels)) == runs

    def test_extract_entities_needs_labels(self):
        s = tagged(("a", "N"))
        with pytest.raises(ValueError):
            ner.extract_entities(s)


class TestTagNer:
    def test_fixture_sentence(self, ner_model, toy_ner_sentences):
        gold = toy_ner_sentences[0]
        stripped = Sentence(Token(t.index, t.form, pos_tag=t.pos_tag)
                            for t in gold)
        out = ner.tag_ner(ner_model, stripped)
        assert out.ner_labels == FIXTURE_LABELS

    def test_requires_pos(self, ner_model):
        s = Sentence([Token(index=1, form="a")])
        with pytest.raises(ValueError):
            ner.tag_ner(ner_model, s)

    def test_empty_sentence(self, ner_model):
        s = Sentence(())
        assert ner.tag_ner(ner_model, s) is s

    def test_all_punct_maps_to_o(self):
        corpus_sents = [tagged((".", "CH"), (",", "CH")).with_ner_labels(["O", "O"]),
                        tagged(("a", "N"), (".", "CH")).with_ner_labels(["B-PER", "O"])]
        model = ner.train_ner(ner.training_pairs(corpus_sents), epochs=4)
        out = ner.tag_ner(model, tagged((".", "CH"), (",", "CH"), (".", "CH")))
        assert out.ner_labels == ["O", "O", "O"]

    def test_masked_decode_always_valid_bio(self):
        rng = random.Random(5)
        labels = sorted(["O", "B-PER", "I-PER", "B-LOC", "I-LOC",
                         "B-ORG", "I-ORG", "B-MISC", "I-MISC"])
        for _ in range(200):
            base = random_linear_model(rng, labels)
            model = LinearModel(base.labels, base.templates, base.feature_index,
                                base.emission_weights, base.transition_weights,
                                bio_constrained=True)
            s = random_form_sentence(rng, n=rng.randint(1, 9))
            decoded, _ = viterbi_decode(model, s)
            assert ner.is_valid_bio(decoded)


class TestMergeNameSyllables:
    def test_footnote_example(self):
        s = tagged(("Nguyễn", "Np"), ("Khắc", "Np"), ("Chúc", "Np"))
        s = with_ner(s, ["B-PER", "I-PER", "I-PER"])
        merged = ner.merge_name_syllables(s)
        assert len(merged) == 1
        assert merged[0].form == "Nguyễn_Khắc_Chúc"
        assert merged[0].ner_label == "B-PER"

    def test_no_per_unchanged(self):
        s = with_ner(tagged(("a", "N"), ("b", "N")), ["O", "B-LOC"])
        assert ner.merge_name_syllables(s) == s

    def test_two_runs(self):
        s = tagged(("Lê", "Np"), ("Lan", "Np"), ("và", "C"),
                   ("Trần", "Np"), ("Minh", "Np"))
        s = with_ner(s, ["B-PER", "I-PER", "O", "B-PER", "I-PER"])
        merged = ner.merge_name_syllables(s)
        assert [t.form for t in merged] == ["Lê_Lan", "và", "Trần_Minh"]
        assert [t.ner_label for t in merged] == ["B-PER", "O", "B-PER"]
        # independent run-length scan agrees on token count
        runs = 0
        prev = "O"
        for lab in s.ner_labels:
            if lab.endswith("PER") and (prev == "O" or lab.startswith("B-")):
                runs += 1
            prev = "O" if not lab.endswith("PER") else lab
        others = sum(1 for lab in s.ner_labels if not lab.endswith("PER"))
        assert len(merged) == runs + others

    def test_adjacent_b_runs_stay_separate(self):
        s = with_ner(tagged(("Lan", "Np"), ("Minh", "Np")), ["B-PER", "B-PER"])
        merged = ner.merge_name_syllables(s)
        assert [t.form for t in merged] == ["Lan", "Minh"]

    def test_syllable_multiset_preserved(self):
        s = tagged(("Nguyễn", "Np"), ("Văn", "Np"), ("An", "Np"), ("học", "V"))
        s = with_ner(s, ["B-PER", "I-PER", "I-PER", "O"])
        merged = ner.merge_name_syllables(s)
        assert sorted(merged.syllables()) == sorted(s.syllables())

    def test_reindexing(self):
        s = tagged(("Lê", "Np"), ("Lan", "Np"), ("đến", "V"))
        s = with_ner(s, ["B-PER", "I-PER", "O"])
        merged = ner.merge_name_syllables(s)
        assert [t.index for t in merged] == [1, 2]


class TestReplaceGoldPos:
    def test_perfect_model_keeps_corpus(self, toy_ner_sentences, pos_model):
        out = ner.replace_gold_pos_with_predicted(toy_ner_sentences, pos_model)
        assert out == list(toy_ner_sentences)

    def test_empty_corpus(self, pos_model):
        assert ner.replace_gold_pos_with_predicted([], pos_model) == []

    def test_matches_direct_tagging(self, toy_ner_sentences, pos_model):
        sent = toy_ner_sentences[0]
        out = ner.replace_gold_pos_with_predicted([sent], pos_model)[0]
        direct = pos.tag_pos(pos_model, sent)
        assert out.pos_tags == direct.pos_tags
        assert out.ner_labels == sent.ner_labels


class TestCorpusIO:
    def test_three_column_round_trip(self, toy_ner_sentences):
        text = ner.dump_three_column(toy_ner_sentences)
        assert ner.parse_three_column(text) == list(toy_ner_sentences)

    def test_wrong_columns(self):
        with pytest.raises(FormatError):
            ner.parse_three_column("a\tN\n")

    @pytest.mark.parametrize("row, problem", [
        ("b c\tV\tO", "token form may not contain whitespace: 'b c'"),
        ("\tV\tO", "token form must be non-empty"),
        ("b\t_\tO", "bad POS tag '_'"),
        ("b\tV\tX-PER", "bad NER label 'X-PER'"),
        ("b\tV\tB-", "bad NER label 'B-'"),
    ])
    def test_bad_column_names_the_line(self, row, problem):
        with pytest.raises(FormatError, match=re.escape(f"line 3: {problem}")):
            ner.parse_three_column(f"a\tN\tO\n\n{row}\nc\tN\tO\n")

    def test_training_pairs_strip_labels(self, toy_ner_sentences):
        pairs = ner.training_pairs(toy_ner_sentences[:2])
        for (sent, labels), orig in zip(pairs, toy_ner_sentences):
            assert all(t.ner_label is None for t in sent)
            assert labels == orig.ner_labels


class TestTraining:
    def test_toy_chunk_f1(self, toy_ner_sentences, ner_model):
        gold = [s.ner_labels for s in toy_ner_sentences]
        pred = [ner.tag_ner(ner_model, s).ner_labels for s in toy_ner_sentences]
        assert chunk_f1(gold, pred).overall.f1 >= 0.95

    def test_bad_label_rejected(self):
        s = tagged(("a", "N"))
        with pytest.raises(ValueError):
            ner.train_ner([(s, ["BAD"])], epochs=1)

    def test_feature_combination_pass(self, toy_ner_sentences):
        pairs = ner.training_pairs(toy_ner_sentences[:10])
        m = ner.train_ner(pairs, epochs=3, combine_top_k=50)
        assert len(m.induced_pairs) <= 50
        m2 = ner.train_ner(pairs, epochs=3, combine_top_k=50)
        assert m.induced_pairs == m2.induced_pairs
        out = ner.tag_ner(m, Sentence(Token(t.index, t.form, pos_tag=t.pos_tag)
                                      for t in toy_ner_sentences[0]))
        assert ner.is_valid_bio(out.ner_labels)

    def test_gazetteer_entry_with_whitespace_is_refused(self, tmp_path):
        gaz = tmp_path / "gaz.txt"
        gaz.write_text("Hà_Nội\n\n \t\n  Việt_Nam \r\nHà\tNội\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                f"line 5: token form may not contain whitespace: 'Hà\\tNội' (in {gaz})")) as exc:
            ner.read_gazetteer(gaz)
        assert exc.value.line == 5
        gaz.write_text("Hà_Nội\n\n \t\n  Việt_Nam \r\n", encoding="utf-8")
        assert ner.read_gazetteer(gaz) == {"Hà_Nội", "Việt_Nam"}

    def test_gazetteer_flags(self, toy_ner_sentences, tmp_path):
        gaz = tmp_path / "gaz.txt"
        gaz.write_text("Hà_Nội\nViệt_Nam\n", encoding="utf-8")
        entries = ner.read_gazetteer(gaz)
        gaz.write_text("\ufeffHà_Nội\nViệt_Nam\n", encoding="utf-8")
        assert ner.read_gazetteer(gaz) == entries
        pairs = ner.training_pairs(toy_ner_sentences)
        m = ner.train_ner(pairs, epochs=2, gazetteer=entries)
        assert m.gazetteer == entries
        assert any(f.startswith("gaz@0=") for f in m.feature_index)
