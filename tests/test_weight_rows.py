"""The weight arrays that decoding gathers from.

A model keeps one array per weight matrix that _kernels.sum_rows reads: its
F feature rows, the parser's four mask rows, then a row of zeros, which the
padding id -1 reads. The public weights (LinearModel.emission_weights,
ParserModel.weights) are a view of its first F rows, so model files are
unchanged and no matrix is held twice. Models refuse weights beyond 2**53
in magnitude, where every perceptron weight lies, so that no sum of scores
overflows.
"""

import numpy as np
import pytest

from sylpipe import depparse, linear, ner, pos, seqlabel
from sylpipe.depparse import ParserModel, load_parser, parse_sentences, save_parser
from sylpipe.model import Sentence, Token
from sylpipe.seqlabel import LinearModel, load_linear_model, save_linear_model, tag_sentences

NEG_INF = float("-inf")


def parser_tail(model):
    """The mask rows, 0.0 where model.action_mask allows an action at a
    state of each _mask_code, then zeros."""
    root_arc = (depparse.RIGHT_ARC, model.root_labels[0])
    walks = [[], [root_arc, (depparse.REDUCE, None)], [(depparse.SHIFT, None)], [root_arc]]
    rows = []
    for code, walk in enumerate(walks):
        state = depparse.replay(walk, 3)
        assert depparse._mask_code(state) == code
        rows.append(np.where(model.action_mask(state), 0.0, NEG_INF))
    return np.vstack([*rows, np.zeros((1, len(model.actions)))])


@pytest.fixture
def copies(monkeypatch):
    """Records, for each model built, whether weight_rows copied its weights."""
    made = []
    real = linear.weight_rows

    def spy(weights, tail):
        rows = real(weights, tail)
        made.append(rows is not weights.base)
        return rows

    monkeypatch.setattr(seqlabel, "weight_rows", spy)
    monkeypatch.setattr(depparse, "weight_rows", spy)
    return made


class TestPublicWeightsAreViews:
    @pytest.mark.parametrize("name", ["pos_model", "ner_model"])
    def test_tagger(self, request, tmp_path, copies, name):
        model = request.getfixturevalue(name)
        copies.clear()  # the fixture may have just trained it
        F, L = len(model.feature_index), len(model.labels)
        assert model.emission_weights.shape == (F, L)
        assert model._rows.shape == (F + 1, L)
        assert np.shares_memory(model.emission_weights, model._rows)
        assert model._rows[F:].tobytes() == np.zeros((1, L)).tobytes()
        path = tmp_path / "tagger.model"
        save_linear_model(model, path)
        loaded = load_linear_model(path)
        assert copies == [False]  # read into the head of the model's array
        assert loaded._rows.tobytes() == model._rows.tobytes()
        again = tmp_path / "again.model"
        save_linear_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_parser(self, parse_model, tmp_path, copies):
        model = parse_model
        copies.clear()
        F, A = len(model.feature_index), len(model.actions)
        assert model.weights.shape == (F, A)
        assert model._rows.shape == (F + 5, A)
        assert np.shares_memory(model.weights, model._rows)
        assert model._rows[F:].tobytes() == parser_tail(model).tobytes()
        path = tmp_path / "parse.model"
        save_parser(model, path)
        loaded = load_parser(path)
        assert copies == [False]
        assert loaded._rows.tobytes() == model._rows.tobytes()
        again = tmp_path / "again.model"
        save_parser(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_trained_tagger_takes_the_averaged_array(self, toy_pos_corpus,
                                                     toy_ner_sentences, copies):
        model = pos.train_pos(toy_pos_corpus, epochs=2)
        assert copies == [False]
        # The transitions keep no row after their L + 1 either.
        assert model.transition_weights.base.shape == model.transition_weights.shape
        ner.train_ner(ner.training_pairs(toy_ner_sentences), epochs=2)
        assert copies == [False, False]

    @pytest.mark.parametrize("use_ner", [False, True])
    def test_trained_parser_takes_the_averaged_array(self, toy_treebank, copies, use_ner):
        # The trainer's weights end in the model's mask rows and zero row.
        model = depparse.train_parser(toy_treebank, epochs=2, use_ner_features=use_ner)
        assert copies == [False]
        assert model._rows[len(model.weights):].tobytes() == parser_tail(model).tobytes()

    def test_other_tail_rows_are_copied_not_written(self, parse_model):
        # A parser built on another's weights with other root labels gets
        # its own array; the first keeps its mask rows.
        before = parse_model._rows.tobytes()
        assert set(parse_model.root_labels) != set(parse_model.relations)
        other = ParserModel(parse_model.relations, parse_model.feature_index,
                            parse_model.weights, root_labels=parse_model.relations)
        assert not np.shares_memory(other._rows, parse_model._rows)
        assert other._rows[:len(other.weights)].tobytes() == parse_model.weights.tobytes()
        assert other._rows[len(other.weights):].tobytes() == parser_tail(other).tobytes()
        assert parse_model._rows.tobytes() == before


class TestWeightRows:
    def test_array_headed_by_the_weights_is_kept(self):
        block = np.zeros((4, 3))
        block[:3] = np.arange(9.0).reshape(3, 3)
        zero = np.zeros((1, 3))
        assert linear.weight_rows(block[:3], zero) is block
        for weights, tail in [(block[:3], np.full((1, 3), NEG_INF)),  # other tail
                              (block[1:], zero),  # not at its head
                              (block[:3, :2], np.zeros((1, 2))),  # not contiguous
                              (block[:3].copy(), zero)]:  # owns its data
            rows = linear.weight_rows(weights, tail)
            assert not np.shares_memory(rows, block)
            assert rows[:len(weights)].tobytes() == np.ascontiguousarray(weights).tobytes()
            assert rows[len(weights):].tobytes() == tail.tobytes()
        assert block.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 0, 0]]


def scaled_tagger(model, factor, shift=0.0):
    return LinearModel(model.labels, model.templates, model.feature_index,
                       model.emission_weights * factor + shift,
                       model.transition_weights * factor,
                       bio_constrained=model.bio_constrained,
                       induced_pairs=model.induced_pairs, gazetteer=model.gazetteer)


def scaled_parser(model, factor):
    return ParserModel(model.relations, model.feature_index, model.weights * factor,
                       use_ner_features=model.use_ner_features,
                       root_labels=model.root_labels, root_label=model.root_label)


def bound_factor(*arrays):
    """The power of two that scales the largest weight to at most 2**53."""
    largest = max(float(np.abs(a).max()) for a in arrays)
    return 2.0 ** (53 - int(np.ceil(np.log2(largest))))


class TestWeightBound:
    def test_overflowing_ner_weights_refused(self, ner_model):
        # Finite weights whose sums overflow were decoded to labels that
        # break the BIO constraint.
        with pytest.raises(ValueError, match=r"at most 2\*\*53 in magnitude"):
            scaled_tagger(ner_model, 1e306, 1e306)

    @pytest.mark.parametrize("value", [2.0 ** 53 + 2, -2.0 ** 54, np.inf, np.nan])
    def test_one_weight_beyond_the_bound_refused(self, pos_model, parse_model, value):
        em = pos_model.emission_weights.copy()
        em[3, 1] = value
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            LinearModel(pos_model.labels, pos_model.templates, pos_model.feature_index,
                        em, pos_model.transition_weights)
        tr = pos_model.transition_weights.copy()
        tr[0, 0] = value
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            LinearModel(pos_model.labels, pos_model.templates, pos_model.feature_index,
                        pos_model.emission_weights, tr)
        w = parse_model.weights.copy()
        w[0, 2] = value
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            ParserModel(parse_model.relations, parse_model.feature_index, w,
                        root_labels=parse_model.root_labels)

    def test_weights_at_the_bound_decode_as_before(self, ner_model, parse_model,
                                                   toy_ner_sentences, toy_treebank):
        # Scaling by a power of two is exact, so every score scales and
        # every decision stays the same.
        factor = bound_factor(ner_model.emission_weights, ner_model.transition_weights)
        big = scaled_tagger(ner_model, factor)
        assert np.abs(big.emission_weights).max() > 2.0 ** 52
        sentences = [Sentence(Token(t.index, t.form) for t in s) for s in toy_ner_sentences]
        assert tag_sentences(big, sentences) == tag_sentences(ner_model, sentences)
        factor = bound_factor(parse_model.weights)
        big = scaled_parser(parse_model, factor)
        assert 2.0 ** 52 < np.abs(big.weights).max() <= 2.0 ** 53
        doc = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag) for t in s)
               for s in toy_treebank]
        heads = [[(t.head, t.dep_label) for t in s] for s in parse_sentences(big, doc)]
        assert heads == [[(t.head, t.dep_label) for t in s]
                         for s in parse_sentences(parse_model, doc)]

    def test_weight_of_exactly_the_bound_accepted(self, parse_model, toy_treebank):
        w = np.full_like(parse_model.weights, -2.0 ** 53)
        w[:, 0] = 2.0 ** 53
        model = ParserModel(parse_model.relations, parse_model.feature_index, w,
                            root_labels=parse_model.root_labels)
        doc = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag) for t in s)
               for s in toy_treebank[:3]]
        assert all(len(s) == len(d) for s, d in zip(parse_sentences(model, doc), doc))
