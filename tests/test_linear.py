"""The perceptron trainers stop scoring at their fixed point.

Once an epoch makes no update, every later epoch would decode each instance
with the same weights and make no update either, so linear.train_epochs
counts those epochs without running them. The trainers must save the same
bytes and report the same epochs as the trainers that ran every epoch
(tests/perceptron_oracle.py).
"""

import logging
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perceptron_oracle as oracle
from helpers import FORMS, assert_trains_as_oracle, random_projective_heads
from sylpipe import _kernels, depparse, linear, ner, pos
from sylpipe.linear import AveragedWeights, train_epochs
from sylpipe.model import Sentence
from sylpipe.seqlabel import (make_templates, save_linear_model,
                              train_averaged_perceptron)

TEMPLATES = make_templates(("form@0", "form@-1", "form@+1", "suffix1@0",
                            "form@-1&form@0"))
LABEL_POOLS = {False: ["A", "B", "C"], True: ["O", "B-PER", "I-PER", "B-LOC"]}


@st.composite
def tagging_cases(draw):
    """A corpus with empty sentences and, when drawn, one sentence given two
    gold labelings, which no weights fit; plus the training settings."""
    bio = draw(st.booleans())
    labels = st.sampled_from(LABEL_POOLS[bio])
    sentences = st.lists(st.sampled_from(FORMS[:6]), min_size=0, max_size=5)

    def gold_of(forms):
        gold = draw(st.lists(labels, min_size=len(forms), max_size=len(forms)))
        return ner.repair_bio(gold) if bio else gold

    first = draw(sentences.filter(len))
    corpus = [(first, gold_of(first))]
    for forms in draw(st.lists(sentences, max_size=5)):
        corpus.append((forms, gold_of(forms)))
    if draw(st.booleans()):
        forms, gold = corpus[draw(st.integers(0, len(corpus) - 1))]
        corpus.append((forms, gold_of(forms)))
    corpus = [(Sentence.from_columns(forms), gold) for forms, gold in corpus]
    return corpus, dict(epochs=draw(st.sampled_from(range(1, 7))),
                        shuffle_seed=draw(st.none() | st.integers(0, 3)),
                        bio_constrained=bio,
                        combine_top_k=draw(st.sampled_from([0, 2])))


def two_root_sentence(forms, tags, ner_labels):
    """Tokens 1 and 2 both on the root. Sentence refuses such a tree, so this
    builds it from its columns unchecked; the decode mask lets one arc from
    the root at most, so the parser never matches its second gold arc."""
    return Sentence._of((tuple(forms), tuple(tags), tuple(ner_labels), (0, 0),
                         ("root", "root")))


@st.composite
def parsing_cases(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def columns(n):
        return ([rng.choice(FORMS[:6]) for _ in range(n)],
                [rng.choice(["N", "V", "A"]) for _ in range(n)],
                [rng.choice(["O", "B-PER", "I-PER"]) for _ in range(n)])

    treebank = []
    for n in draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)):
        forms, tags, ner_labels = columns(n)
        heads, deps = random_projective_heads(rng, n, relations=("root", "sub", "nmod"))
        treebank.append(Sentence.from_columns(forms, tags, ner_labels, heads, deps))
    if draw(st.booleans()):
        treebank.insert(draw(st.integers(0, len(treebank))),
                        two_root_sentence(*columns(2)))
    return treebank, dict(epochs=draw(st.sampled_from(range(1, 9))),
                          shuffle_seed=draw(st.none() | st.integers(0, 3)),
                          use_ner_features=draw(st.booleans()))


class TestSkipMatchesOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tagging_cases())
    def test_tagger(self, case):
        corpus, options = case
        assert_trains_as_oracle(train_averaged_perceptron, oracle.train_averaged_perceptron,
                                save_linear_model, TEMPLATES, corpus, **options)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(parsing_cases())
    def test_parser(self, case):
        treebank, options = case
        assert_trains_as_oracle(depparse.train_parser, oracle.train_parser,
                                depparse.save_parser, treebank, **options)

    def test_toy_corpora(self, toy_pos_corpus, toy_ner_sentences, toy_treebank):
        assert_trains_as_oracle(train_averaged_perceptron, oracle.train_averaged_perceptron,
                                save_linear_model, pos.pos_templates(), toy_pos_corpus,
                                epochs=8, shuffle_seed=1)
        assert_trains_as_oracle(train_averaged_perceptron, oracle.train_averaged_perceptron,
                                save_linear_model, ner.ner_templates(),
                                ner.training_pairs(toy_ner_sentences),
                                epochs=8, shuffle_seed=1, bio_constrained=True)
        assert_trains_as_oracle(depparse.train_parser, oracle.train_parser,
                                depparse.save_parser, toy_treebank, epochs=12)


def scored_per_epoch(monkeypatch, kernel, train, *args, epochs):
    """How many times each epoch called the _kernels function kernel."""
    calls = []
    real = getattr(_kernels, kernel)

    def counted(*a, **k):
        calls.append(None)
        return real(*a, **k)

    monkeypatch.setattr(_kernels, kernel, counted)
    totals = []
    train(*args, epochs=epochs, on_epoch=lambda *_: totals.append(len(calls)))
    return [b - a for a, b in zip([0, *totals], totals)]


def parser_gathers_per_epoch(monkeypatch, treebank, epochs):
    """The id arrays that each epoch of train_parser passed to _kernels.sum_rows;
    each column is one state scored."""
    calls = []
    real = _kernels.sum_rows

    def recorded(weights, packed):
        calls.append(packed.copy())
        return real(weights, packed)

    monkeypatch.setattr(_kernels, "sum_rows", recorded)
    ends = []
    depparse.train_parser(treebank, epochs=epochs, on_epoch=lambda *_: ends.append(len(calls)))
    return [calls[a:b] for a, b in zip([0, *ends], ends)]


class TestFixedPoint:
    def test_tagger_stops_scoring_after_the_first_epoch_without_update(
            self, monkeypatch, toy_pos_corpus):
        per_epoch = scored_per_epoch(monkeypatch, "viterbi_path", pos.train_pos,
                                     toy_pos_corpus, epochs=8)
        # Mistaken sentences per epoch: 32, 6, 0.
        sentences = sum(1 for sent, _ in toy_pos_corpus if len(sent))
        assert per_epoch == [sentences] * 3 + [0] * 5

    def test_tagger_that_never_fits_scores_every_epoch(self, monkeypatch):
        sent = Sentence.from_columns(["a", "b"])
        corpus = [(sent, ["N", "V"]), (sent, ["V", "N"])]
        per_epoch = scored_per_epoch(monkeypatch, "viterbi_path", pos.train_pos,
                                     corpus, epochs=6)
        assert per_epoch == [2] * 6

    def test_parser_stops_scoring_after_the_first_epoch_without_update(
            self, monkeypatch, toy_treebank):
        per_epoch = parser_gathers_per_epoch(monkeypatch, toy_treebank, epochs=12)
        rows = [sum(packed.shape[1] for packed in gathers) for gathers in per_epoch]
        # Mistaken transitions per epoch: 49, 0. Epoch 1 scores again the
        # states after each mistake; epoch 2 scores each sentence in one
        # gather of all its states.
        states = sum(len(depparse.static_oracle(sent)) for sent in toy_treebank)
        assert rows[0] > states and len(per_epoch[0]) > len(toy_treebank)
        assert rows[1:] == [states] + [0] * 10
        assert len(per_epoch[1]) == len(toy_treebank)

    def test_parser_that_never_fits_scores_every_epoch(self, monkeypatch, toy_treebank):
        treebank = [*toy_treebank[:3], two_root_sentence(["a", "b"], ["N", "V"], ["O", "O"])]
        per_epoch = parser_gathers_per_epoch(monkeypatch, treebank, epochs=5)
        states = sum(len(depparse.static_oracle(sent)) for sent in treebank)
        assert len(per_epoch) == 5
        for gathers in per_epoch:
            assert len(gathers) >= len(treebank)
            assert sum(packed.shape[1] for packed in gathers) >= states

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_parser_scores_again_only_the_states_after_a_mistake(self, monkeypatch, n):
        # Tokens 1..n-1 hang on token n, the root's dependent, so the oracle
        # shifts n - 1 times and leaves SHIFT first at state j = n - 1. The
        # weights start at zero, where SHIFT, action 0 and always legal,
        # wins every state: the first mistake is at state j.
        sent = Sentence.from_columns(FORMS[:n], ["N"] * n, ["O"] * n,
                                     [n] * (n - 1) + [0], ["sub"] * (n - 1) + ["root"])
        seq = depparse.static_oracle(sent)
        j = n - 1
        assert [kind for kind, _ in seq[:j]] == [depparse.SHIFT] * j
        assert seq[j][0] != depparse.SHIFT
        (gathers,) = parser_gathers_per_epoch(monkeypatch, [sent], epochs=1)
        assert gathers[0].shape[1] == len(seq)
        if j + 1 < len(seq):
            assert np.array_equal(gathers[1], gathers[0][:, j + 1:])
        else:
            assert len(gathers) == 1

    def test_parser_gathers_logged_at_debug(self, caplog, monkeypatch, toy_treebank):
        caplog.set_level(logging.DEBUG, logger="sylpipe.depparse")
        per_epoch = parser_gathers_per_epoch(monkeypatch, toy_treebank, epochs=12)
        states = sum(len(depparse.static_oracle(sent)) for sent in toy_treebank)
        assert [r.getMessage() for r in caplog.records if r.name == "sylpipe.depparse"
                and r.getMessage().startswith("epoch ")] == [
            f"epoch {epoch}: {len(gathers)} gather(s) scored "
            f"{sum(packed.shape[1] for packed in gathers)} row(s) for {states} state(s)"
            for epoch, gathers in enumerate(per_epoch, 1) if gathers]
        assert [bool(gathers) for gathers in per_epoch] == [True] * 2 + [False] * 10

    def test_fixed_point_logged_at_debug(self, caplog, toy_pos_corpus):
        caplog.set_level(logging.DEBUG, logger="sylpipe.linear")
        pos.train_pos(toy_pos_corpus, epochs=8)
        assert [r.getMessage() for r in caplog.records if r.name == "sylpipe.linear"] == [
            "no update in epoch 3 of 8; epochs 4-8 change nothing and are not scored"]

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_nothing_logged_when_no_epoch_is_left(self, caplog, toy_pos_corpus, epochs):
        caplog.set_level(logging.DEBUG, logger="sylpipe.linear")
        pos.train_pos(toy_pos_corpus, epochs=epochs)
        assert not [r for r in caplog.records if r.name == "sylpipe.linear"]


class TestAveragedWeights:
    def test_the_mean_heads_an_array_that_ends_in_the_tail(self):
        # A -inf tail row stays -inf and a zero one +0.0 through the
        # averaging, so a model takes the averaged array as it is.
        tail = np.array([[0.0, float("-inf")], [0.0, 0.0]])
        weights = AveragedWeights(2, tail)
        assert weights.W.shape == weights.U.shape == (4, 2)
        for step in range(4):
            if step:
                weights.update((step % 2, 0), (step % 2, 1), step)
            mean = weights.averaged(step)
            assert mean.shape == (2, 2)
            assert mean.base[2:].tobytes() == tail.tobytes()
            assert linear.weight_rows(mean, tail) is mean.base
        assert weights.averaged(3).tolist() == [[2 / 3, -2 / 3], [4 / 3, -4 / 3]]


class TestTrainEpochs:
    def test_counts_the_steps_of_the_epochs_it_does_not_run(self):
        weights = AveragedWeights(1, np.zeros((1, 2)))
        learned = []

        def learn(i, step):
            learned.append((i, step))
            if step == 0:  # one update, in the first instance of epoch 1
                weights.update((0, 0), (0, 1), step + 1)
                return 1, 1, 3
            return 0, 3, 3

        calls = []
        step = train_epochs((weights,), [3, 1], 4, None, learn,
                            lambda *call: calls.append(call))
        assert learned == [(0, 0), (1, 3), (0, 4), (1, 7)]
        assert step == 16
        assert calls == [(1, 1, 4 / 6), (2, 0, 1.0), (3, 0, 1.0), (4, 0, 1.0)]

    def test_any_update_keeps_the_epochs_running(self):
        # The test is "no update", not "no mistake", over every weight table:
        # a learner that reports no mistake but updates the second table,
        # even without changing it, still runs every epoch.
        weights = (AveragedWeights(1, np.zeros((1, 1))),
                   AveragedWeights(1, np.zeros((1, 1))))
        learned = []

        def learn(i, step):
            learned.append(step)
            weights[1].update((0, 0), (0, 0), step + 1)
            return 0, 1, 1

        assert train_epochs(weights, [1], 3, None, learn) == 3
        assert learned == [0, 1, 2]


@pytest.mark.parametrize("epochs", [0, -2])
def test_non_positive_epochs_refused(epochs, toy_pos_corpus, toy_ner_sentences,
                                     toy_treebank):
    pairs = ner.training_pairs(toy_ner_sentences)
    for train, args in [(train_averaged_perceptron, (TEMPLATES, toy_pos_corpus)),
                        (pos.train_pos, (toy_pos_corpus,)),
                        (ner.train_ner, (pairs,)),
                        (depparse.train_parser, (toy_treebank,))]:
        with pytest.raises(ValueError, match=f"epochs must be at least 1, got {epochs}"):
            train(*args, epochs=epochs)


def test_negative_combine_top_k_refused(toy_pos_corpus, toy_ner_sentences):
    pairs = ner.training_pairs(toy_ner_sentences)
    for train, args in [(train_averaged_perceptron, (TEMPLATES, toy_pos_corpus)),
                        (ner.train_ner, (pairs,))]:
        with pytest.raises(ValueError, match="combine_top_k must be at least 0, got -2"):
            train(*args, epochs=1, combine_top_k=-2)
