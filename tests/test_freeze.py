"""The trainers freeze their feature alphabets from interned value ids.

seqlabel._train and depparse.train_parser read each atom's value ids over
the whole corpus and make a feature string only for each distinct (template,
value tuple). They must save the same model bytes as the string-path trainers
in tests/perceptron_oracle.py, which call extract_features at every position
and state_features at every state.
"""

import logging
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perceptron_oracle as oracle
from helpers import assert_trains_as_oracle, random_projective_heads, saved_bytes
from sylpipe import depparse, ner, pos, seqlabel, templates
from sylpipe.model import Sentence
from sylpipe.seqlabel import (FeatureTemplate, compile_atom, make_templates,
                              save_linear_model, train_averaged_perceptron)

# Values that join into one another's strings ("|", "="), that are the
# boundary and missing-position values themselves, and non-BMP characters.
ODD_FORMS = ["a", "b", "a|b", "|", "a|", "|b", "=", "d=e", "e|f", "e", "f", "<s>",
             "</s>", "<root>", "<none>", "5+", "3+", "1", "0", "\U0001d518", "x\U0001f600|",
             "Hà", "HÀ", "1-2"]
ODD_TAGS = ["N", "V", "a|b", "|", "=", "<none>", "<root>", "1", "\U0001d518"]
ODD_NER = ["O", "B-a|b", "I-a|b", "B-<none>", "B-=", "I-="]

TEMPLATE_POOL = ["form@0", "form@-1", "form@+1", "form@-2", "form@+2", "lower@0",
                 "prefix2@0", "suffix1@+1", "shape@0", "hasdigit@-1", "hashyphen@0",
                 "isfirst@0", "islast@0", "islast@+1", "isfirst@-1",
                 "form@-1&form@0", "form@0&form@+2", "isfirst@0&form@0",
                 "form@-1&islast@0", "form@+1&isfirst@-1&form@-1", "pos@0", "pos@-1&form@0",
                 "ner@0", "gaz@0", "gaz@-1&form@0"]
# Two templates named alike, and names that make one string of two tuples:
# "c=d=e|f" is template "c" over ("d=e", "f") and "c=d" over ("e", "f").
ODD_TEMPLATES = [FeatureTemplate("dup", "form@0"), FeatureTemplate("dup", "form@-1"),
                 FeatureTemplate("c", "form@-1&form@0"), FeatureTemplate("c=d", "form@0&form@+1")]
LABEL_POOLS = {False: ["A", "B", "C"], True: ["O", "B-PER", "I-PER"]}


@st.composite
def odd_tagging_cases(draw):
    bio = draw(st.booleans())
    labels = st.sampled_from(LABEL_POOLS[bio])
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    if draw(st.booleans()):
        lengths.append(1)  # a one-token sentence, read by the ±2 offsets
    with_pos, with_ner = draw(st.booleans()), draw(st.booleans())
    corpus = []
    for n in lengths:
        forms = draw(st.lists(st.sampled_from(ODD_FORMS), min_size=n, max_size=n))
        tags = draw(st.lists(st.sampled_from(ODD_TAGS), min_size=n, max_size=n))
        ner_labels = draw(st.lists(st.sampled_from(ODD_NER), min_size=n, max_size=n))
        gold = draw(st.lists(labels, min_size=n, max_size=n))
        corpus.append((Sentence.from_columns(forms, tags if with_pos else None,
                                             ner_labels if with_ner else None),
                       ner.repair_bio(gold) if bio else gold))
    if not any(gold for _, gold in corpus):
        corpus.append((Sentence.from_columns(["a"]), [LABEL_POOLS[bio][0]]))
    chosen = make_templates(draw(st.lists(st.sampled_from(TEMPLATE_POOL), min_size=1,
                                          max_size=8, unique=True)))
    chosen += draw(st.lists(st.sampled_from(ODD_TEMPLATES), max_size=3))
    chosen = draw(st.permutations(chosen))
    gazetteer = draw(st.none() | st.frozensets(st.sampled_from(ODD_FORMS + ["hà"]),
                                               max_size=4))
    return chosen, corpus, dict(epochs=draw(st.integers(1, 4)),
                                shuffle_seed=draw(st.none() | st.integers(0, 3)),
                                bio_constrained=bio, gazetteer=gazetteer,
                                combine_top_k=draw(st.sampled_from([0, 0, 1, 3, 10])))


@st.composite
def odd_parsing_cases(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    treebank = []
    for n in draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)):
        heads, deps = random_projective_heads(rng, n, relations=("root", "sub", "a|b"))
        treebank.append(Sentence.from_columns(
            [rng.choice(ODD_FORMS) for _ in range(n)], [rng.choice(ODD_TAGS) for _ in range(n)],
            [rng.choice(ODD_NER) for _ in range(n)], heads, deps))
    if draw(st.booleans()):
        # Many left dependents of a buffer front and right ones of a stack
        # top: valencies past 3+ and distances past 5+.
        n = 8
        for heads in ([n] * (n - 1) + [0], [0] + [1] * (n - 1)):
            treebank.insert(draw(st.integers(0, len(treebank))), Sentence.from_columns(
                [rng.choice(ODD_FORMS) for _ in range(n)],
                [rng.choice(ODD_TAGS) for _ in range(n)],
                [rng.choice(ODD_NER) for _ in range(n)], heads,
                ["root" if h == 0 else "sub" for h in heads]))
    return treebank, dict(epochs=draw(st.integers(1, 5)),
                          shuffle_seed=draw(st.none() | st.integers(0, 3)),
                          use_ner_features=draw(st.booleans()))


class TestMatchesStringPath:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(odd_tagging_cases())
    def test_tagger(self, case):
        chosen, corpus, options = case
        assert_trains_as_oracle(train_averaged_perceptron, oracle.train_averaged_perceptron,
                                save_linear_model, chosen, corpus, **options)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(odd_parsing_cases())
    def test_parser(self, case):
        treebank, options = case
        assert_trains_as_oracle(depparse.train_parser, oracle.train_parser,
                                depparse.save_parser, treebank, **options)

    def test_error_pairs_count_repeated_strings(self):
        # Templates "dup" over form@0 and over form@-1 fire one string where
        # a form repeats, and the probe epoch counts the pair it makes with
        # itself, as the string path does.
        corpus = [(Sentence.from_columns(["a", "a", "b"]), ["A", "B", "A"]),
                  (Sentence.from_columns(["b", "b"]), ["B", "A"])]
        chosen = [FeatureTemplate("dup", "form@0"), FeatureTemplate("dup", "form@-1")]
        model = train_averaged_perceptron(chosen, corpus, epochs=2, combine_top_k=20)
        assert ("dup=a", "dup=a") in model.induced_pairs
        assert_trains_as_oracle(train_averaged_perceptron, oracle.train_averaged_perceptron,
                                save_linear_model, chosen, corpus, epochs=2,
                                combine_top_k=20)

    def test_toy_corpora_with_gazetteer_pairs_and_ner_features(
            self, toy_ner_sentences, toy_treebank):
        pairs = ner.training_pairs(toy_ner_sentences)
        gazetteer = frozenset({"Hà_Nội", "việt_nam", "Olympic"})
        assert_trains_as_oracle(train_averaged_perceptron, oracle.train_averaged_perceptron,
                                save_linear_model, ner.ner_templates(with_gazetteer=True),
                                pairs, epochs=3, shuffle_seed=1, bio_constrained=True,
                                gazetteer=gazetteer, combine_top_k=5)
        assert_trains_as_oracle(depparse.train_parser, oracle.train_parser,
                                depparse.save_parser, toy_treebank, epochs=3,
                                use_ner_features=True)


def frozen_tagger(chosen, corpus):
    sentences = [sent for sent, _ in corpus]
    feature_index, fired, ids = seqlabel._freeze(chosen, sentences, None, ())
    return list(feature_index.items()), fired, ids


def frozen_parser(treebank, use_ner):
    relations = sorted({rel for sent in treebank for rel in sent.column("dep_label")})
    action_index = {a: i for i, a in enumerate(depparse._actions(relations))}
    feature_index, ids, gold, bounds = depparse._freeze(treebank, action_index, use_ner)
    return list(feature_index.items()), ids, gold, bounds


def radix_and_result(monkeypatch, freeze):
    """(number of values freeze interns, the radix of its keys; its result)."""
    radices = []
    real = seqlabel.freeze_features

    def spy(names, digits, values, rows):
        radices.append(len(values))
        return real(names, digits, values, rows)

    with monkeypatch.context() as patched:
        patched.setattr(seqlabel, "freeze_features", spy)
        patched.setattr(depparse, "freeze_features", spy)
        result = freeze()
    return radices[0], result


class TestKeyExactness:
    def test_ranked_codes_equal_where_the_tuples_are(self, monkeypatch):
        # 250 tuples of four digits below 1,000, each twice. With the bound
        # at 1,000 ** 2 every digit after the first follows a rank.
        rng = np.random.default_rng(5)
        digits = rng.integers(0, 1000, size=(4, 500))
        digits[:, 250:] = digits[:, :250]
        codes, plan = seqlabel._tuple_codes(digits, 1000)
        assert plan == [None] * 4
        monkeypatch.setattr(seqlabel, "_KEY_BOUND", 1000 ** 2)
        ranked, plan = seqlabel._tuple_codes(digits, 1000)
        assert [ranks is not None for ranks in plan] == [False, True, True, True]
        assert ranked.max() < 250 * 1000 < codes.max()
        same = (digits[:, :, None] == digits[:, None, :]).all(axis=0)
        assert np.array_equal(ranked[:, None] == ranked[None, :], same)
        assert np.array_equal(codes[:, None] == codes[None, :], same)

    def test_refused_where_ranks_do_not_fit(self, monkeypatch):
        digits = np.arange(100).reshape(2, 50)
        monkeypatch.setattr(seqlabel, "_KEY_BOUND", 60)
        with pytest.raises(ValueError, match="too many values for int64 feature keys"):
            seqlabel._tuple_codes(digits, 100)

    def test_trainers_freeze_the_same_with_ranked_keys(self, monkeypatch, toy_pos_corpus,
                                                       toy_treebank):
        # With the bound at radix ** 2, every template of two or more atoms
        # takes the rank branch before its second digit.
        chosen = pos.pos_templates() + make_templates(["form@-1&form@0&form@+1"])
        tagger_radix, tagger = radix_and_result(
            monkeypatch, lambda: frozen_tagger(chosen, toy_pos_corpus))
        parser_radix, parser = radix_and_result(
            monkeypatch, lambda: frozen_parser(toy_treebank, True))
        model = pos.train_pos(toy_pos_corpus, epochs=2, templates=chosen)
        parse_model = depparse.train_parser(toy_treebank, epochs=2, use_ner_features=True)

        monkeypatch.setattr(seqlabel, "_KEY_BOUND", tagger_radix ** 2)
        ranked_tagger = frozen_tagger(chosen, toy_pos_corpus)
        ranked_model = pos.train_pos(toy_pos_corpus, epochs=2, templates=chosen)
        monkeypatch.setattr(seqlabel, "_KEY_BOUND", parser_radix ** 2)
        ranked_parser = frozen_parser(toy_treebank, True)
        ranked_parse_model = depparse.train_parser(toy_treebank, epochs=2,
                                                   use_ner_features=True)

        assert ranked_tagger[0] == tagger[0] and ranked_parser[0] == parser[0]
        for got, expected in zip(ranked_tagger[1:] + ranked_parser[1:],
                                 tagger[1:] + parser[1:]):
            assert np.array_equal(got, expected)
        assert saved_bytes(save_linear_model, ranked_model) == \
            saved_bytes(save_linear_model, model)
        assert saved_bytes(depparse.save_parser, ranked_parse_model) == \
            saved_bytes(depparse.save_parser, parse_model)


class TestNoStringPath:
    def test_trainers_call_no_string_extractor(self, monkeypatch, toy_pos_corpus,
                                               toy_ner_sentences, toy_treebank):
        def refuse(*args, **kwargs):
            raise AssertionError("the string path was called")

        monkeypatch.setattr(seqlabel, "extract_features", refuse)
        monkeypatch.setattr(templates, "extract_features", refuse)
        monkeypatch.setattr(FeatureTemplate, "extract", refuse)
        monkeypatch.setattr(depparse, "state_features", refuse)
        pairs = ner.training_pairs(toy_ner_sentences)
        assert pos.train_pos(toy_pos_corpus, epochs=2).feature_index
        assert ner.train_ner(pairs, epochs=2).feature_index
        assert ner.train_ner(pairs, epochs=2, combine_top_k=3).induced_pairs
        assert depparse.train_parser(toy_treebank, epochs=2).feature_index
        assert depparse.train_parser(toy_treebank, epochs=2,
                                     use_ner_features=True).feature_index


class TestFreezeLogged:
    def test_tagger_freeze_line(self, caplog, toy_pos_corpus):
        caplog.set_level(logging.DEBUG, logger="sylpipe.seqlabel")
        model = pos.train_pos(toy_pos_corpus, epochs=1)
        chosen = pos.pos_templates()
        positions = sum(len(sent) for sent, _ in toy_pos_corpus)
        # Every atom of the POS templates is read at offset 0 somewhere, so
        # the values read are the values the string path joins.
        values = {compile_atom(name, arg, offset)(sent.tokens, i, None)
                  for sent, _ in toy_pos_corpus for i in range(len(sent))
                  for tpl in chosen for name, arg, offset in tpl.specs} - {None}
        assert [r.getMessage() for r in caplog.records if r.name == "sylpipe.seqlabel"] == [
            f"froze {positions} position(s) of {len(chosen)} template(s): "
            f"{len(values)} distinct value(s) read, {len(model.feature_index)} feature(s)"]

    def test_parser_freeze_line(self, caplog, toy_treebank):
        caplog.set_level(logging.DEBUG, logger="sylpipe.depparse")
        model = depparse.train_parser(toy_treebank, epochs=1, use_ner_features=True)
        states = sum(len(depparse.static_oracle(sent)) for sent in toy_treebank)
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "sylpipe.depparse" and r.getMessage().startswith("froze")]
        match = re.fullmatch(r"froze (\d+) state\(s\) of 27 template\(s\): (\d+) distinct "
                             r"value\(s\) read, (\d+) feature\(s\)", line)
        assert match is not None, line
        assert int(match[1]) == states and int(match[3]) == len(model.feature_index)
