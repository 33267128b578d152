import logging
import random
import re
import sys
import threading
import time

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (CORRUPT_LAYOUTS, FORMS, check_tree, random_form_sentence,
                     random_gold_tree, random_parser_model, random_projective_heads,
                     split_model_file)
from sylpipe import _kernels, depparse, wseg, pos
from sylpipe._kernels import NEG_INF
from sylpipe.depparse import (LEFT_ARC, REDUCE, RIGHT_ARC, SHIFT,
                              IllegalTransition, OracleError, ParserModel,
                              ParserState, apply_transition, find_crossing_arcs,
                              is_projective, legal_kinds, legal_transitions,
                              load_parser, parse_sentence, parse_sentences,
                              projectivize, replay, save_parser, state_features,
                              static_oracle, train_parser)
from sylpipe.metrics import attachment_scores
from sylpipe.model import Sentence, Token
from sylpipe.pipeline import ModelLoadError, load_model
from sylpipe.seqlabel import TrainingError

RELS = ("nmod", "root", "sub")


def gold(*rows):
    """rows: (form, pos, head, dep)"""
    return Sentence(Token(index=i + 1, form=f, pos_tag=p, head=h, dep_label=d)
                    for i, (f, p, h, d) in enumerate(rows))


class TestLegalTransitions:
    def test_initial_state(self):
        state = ParserState(3)
        kinds = legal_kinds(state)
        assert kinds == {SHIFT, RIGHT_ARC}
        expanded = legal_transitions(state, RELS)
        assert (SHIFT, None) in expanded
        assert all((RIGHT_ARC, r) in expanded for r in RELS)
        assert not any(k == LEFT_ARC for k, _ in expanded)

    def test_terminal_state(self):
        state = ParserState(1)
        state.apply((RIGHT_ARC, "root"))
        assert state.is_terminal()
        assert legal_kinds(state) == {REDUCE}
        state.apply((REDUCE, None))
        assert legal_kinds(state) == set()
        assert legal_transitions(state, RELS) == set()

    def test_left_arc_needs_headless_top(self):
        state = ParserState(2)
        state.apply((RIGHT_ARC, "root"))
        # stack top 1 now has a head: LEFT-ARC illegal, REDUCE legal
        kinds = legal_kinds(state)
        assert LEFT_ARC not in kinds
        assert REDUCE in kinds

    def test_empty_buffer_reduce_only(self):
        state = ParserState(1)
        state.apply((RIGHT_ARC, "root"))
        assert legal_kinds(state) <= {REDUCE}


class TestApplyTransition:
    def test_shift(self):
        state = ParserState(3)
        out = apply_transition(state, (SHIFT, None))
        assert out.stack == [0, 1]
        assert list(out.buffer) == [2, 3]
        assert state.stack == [0]  # functional: input untouched

    def test_right_arc_from_root(self):
        # reach stack=[0], buffer=[4] by attaching and reducing 1..3
        state = ParserState(4)
        for _ in range(3):
            state.apply((RIGHT_ARC, "nmod"))
            state.apply((REDUCE, None))
        assert state.stack == [0] and state.buffer_start == 4
        out = apply_transition(state, (RIGHT_ARC, "root"))
        assert (0, 4, "root") in out.arcs

    def test_left_arc(self):
        state = ParserState(2)
        state.apply((SHIFT, None))
        out = apply_transition(state, (LEFT_ARC, "nmod"))
        assert (2, 1, "nmod") in out.arcs
        assert out.stack == [0]

    def test_reduce_pops(self):
        state = ParserState(2)
        state.apply((RIGHT_ARC, "root"))
        out = apply_transition(state, (REDUCE, None))
        assert out.stack == [0]

    def test_illegal_raises(self):
        state = ParserState(2)
        with pytest.raises(IllegalTransition):
            apply_transition(state, (LEFT_ARC, "nmod"))  # stack top is root
        with pytest.raises(IllegalTransition):
            apply_transition(state, (REDUCE, None))  # top has no head
        with pytest.raises(IllegalTransition):
            apply_transition(state, (RIGHT_ARC, None))  # missing label
        with pytest.raises(IllegalTransition):
            apply_transition(state, (SHIFT, "nmod"))  # unexpected label


FIXTURE = gold(
    ("Ông", "Nc", 4, "sub"),
    ("Nguyễn_Khắc_Chúc", "Np", 1, "nmod"),
    ("đang", "R", 4, "adv"),
    ("làm_việc", "V", 0, "root"),
    ("tại", "E", 4, "loc"),
    ("Đại_học", "N", 5, "pob"),
    ("Quốc_gia", "N", 6, "nmod"),
    ("Hà_Nội", "Np", 6, "nmod"),
    (".", "CH", 4, "punct"),
)


class TestStaticOracle:
    def test_fixture_replay(self):
        seq = static_oracle(FIXTURE)
        end = replay(seq, len(FIXTURE))
        assert end.heads[1:] == [t.head for t in FIXTURE]
        assert end.labels[1:] == [t.dep_label for t in FIXTURE]

    def test_single_token(self):
        tree = gold(("a", "N", 0, "root"))
        assert static_oracle(tree) == [(RIGHT_ARC, "root")]

    def test_crossing_arcs_error(self):
        tree = Sentence([
            Token(index=1, form="a", pos_tag="N", head=3, dep_label="x"),
            Token(index=2, form="b", pos_tag="N", head=4, dep_label="x"),
            Token(index=3, form="c", pos_tag="N", head=0, dep_label="root"),
            Token(index=4, form="d", pos_tag="N", head=3, dep_label="x"),
        ])
        with pytest.raises(OracleError) as exc:
            static_oracle(tree)
        assert "cross" in str(exc.value)

    def test_unset_heads_error(self):
        tree = Sentence([Token(index=1, form="a", pos_tag="N", head=0, dep_label="root"),
                         Token(index=2, form="b", pos_tag="N")])
        with pytest.raises(OracleError, match="unset heads"):
            static_oracle(tree)

    def test_oracle_soundness_random_trees(self):
        rng = random.Random(77)
        for _ in range(200):
            tree = random_gold_tree(rng, rng.randint(1, 15))
            seq = static_oracle(tree)
            end = replay(seq, len(tree))
            assert end.heads[1:] == [t.head for t in tree]
            assert end.labels[1:] == [t.dep_label for t in tree]


class TestProjectivity:
    def test_projective(self):
        assert is_projective([t.head for t in FIXTURE])

    def test_crossing_found(self):
        assert find_crossing_arcs([3, 4, 0, 3]) is not None

    def test_projectivize_by_lifting(self):
        sent = Sentence([
            Token(index=1, form="a", pos_tag="N", head=3, dep_label="x"),
            Token(index=2, form="b", pos_tag="N", head=4, dep_label="y"),
            Token(index=3, form="c", pos_tag="N", head=0, dep_label="root"),
            Token(index=4, form="d", pos_tag="N", head=3, dep_label="z"),
        ])
        lifted = projectivize(sent)
        assert lifted is not None
        assert is_projective([t.head for t in lifted])
        assert [t.dep_label for t in lifted] == ["x", "y", "root", "z"]


class TestParseSentence:
    def test_empty_sentence(self, parse_model):
        s = Sentence(())
        assert parse_sentence(parse_model, s) is s

    def test_requires_pos(self, parse_model):
        s = Sentence([Token(index=1, form="a")])
        with pytest.raises(ValueError):
            parse_sentence(parse_model, s)

    def test_random_models_yield_trees(self):
        rng = random.Random(123)
        for _ in range(150):
            model = random_parser_model(rng)
            sent = random_form_sentence(rng, n=rng.randint(1, 40), with_pos=True)
            parsed = parse_sentence(model, sent)
            heads = [t.head for t in parsed]
            assert check_tree(heads)
            assert sum(1 for h in heads if h == 0) == 1

    def test_fixture_tree_with_trained_model(self, parse_model):
        stripped = Sentence(Token(t.index, t.form, pos_tag=t.pos_tag)
                            for t in FIXTURE)
        parsed = parse_sentence(parse_model, stripped)
        assert [t.head for t in parsed] == [t.head for t in FIXTURE]
        assert [t.dep_label for t in parsed] == [t.dep_label for t in FIXTURE]


def reference_parse(model, sentence, use_ner, visited=None):
    """Greedy parse through the string path, one state at a time.

    At every state it also requires the compiled ids and legal actions to
    equal those of the string path, and appends (state, sentence values,
    masked scores) to visited if given.
    """
    n = len(sentence)
    if n == 0:
        return sentence
    tokens = sentence.tokens
    values = model._compiled.sentence_values(sentence, use_ner)
    state = ParserState(n)
    while not state.is_terminal():
        assert_compiled_state(model, state, tokens, values, use_ner)
        ids = model.feature_ids(state_features(state, tokens, use_ner))
        scores = _kernels.row_sum(model.weights, ids)
        scores[~model.action_mask(state)] = NEG_INF
        if visited is not None:
            visited.append((state.copy(), values, scores))
        state.apply(model.actions[int(np.argmax(scores))])
    heads, labels = state.heads, state.labels
    headless = [i for i in range(1, n + 1) if heads[i] is None]
    root = state.root_child
    if root is None:
        root = headless.pop(0)
        heads[root] = 0
        labels[root] = model.root_label
    for i in headless:
        heads[i] = root
        labels[i] = model.fallback_label
    return sentence.with_parse(heads[1:], labels[1:])


def assert_compiled_state(model, state, tokens, values, use_ner):
    ids = model._compiled.state_ids(state, values)
    expected = model.feature_ids(state_features(state, tokens, use_ner))
    assert sorted(j for j in ids if j >= 0) == expected.tolist()
    # The state's mask row adds 0.0 to the legal actions, -inf to the others.
    mask_row = model._rows[len(model.weights) + depparse._mask_code(state)]
    assert mask_row.tobytes() == np.where(model.action_mask(state), 0.0, NEG_INF).tobytes()


def parses(sentences):
    return [([t.head for t in s], [t.dep_label for t in s]) for s in sentences]


# Values that collide with the feature syntax ("|", "="), with the parser's
# own values (<root>, <none>, distances, valencies) or with each other.
ODD_FORMS = ["a|b", "|", "a||b", "x=y", "=", "s0w=x", "<root>", "<none>",
             "1", "5+", "3+", "N|V"] + FORMS[:4]
ODD_TAGS = ["N", "V", "N|V", "|", "=", "<root>", "<none>", "2", "a|b"]
UNSEEN_FORMS = ["zz|q", "never", "<root>|<none>", "x=y|a"]
NER_SET = ["O", "B-PER", "I-PER", "B-a|b"]


@st.composite
def parser_cases(draw):
    """A parser trained on odd values, given random real weights, plus sentences."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    forms = draw(st.lists(st.sampled_from(ODD_FORMS), min_size=1, max_size=8,
                          unique=True))
    tags = draw(st.lists(st.sampled_from(ODD_TAGS), min_size=1, max_size=5,
                         unique=True))

    def sentence(n, forms, tags, heads=None, deps=None):
        return Sentence(Token(index=i + 1, form=rng.choice(forms),
                              pos_tag=rng.choice(tags), ner_label=rng.choice(NER_SET),
                              head=heads and heads[i], dep_label=deps and deps[i])
                        for i in range(n))

    bank = [sentence(n, forms, tags, *random_projective_heads(rng, n))
            for n in draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))]
    trained = train_parser(bank, epochs=1, use_ner_features=draw(st.booleans()))
    weights = np.random.default_rng(rng.randrange(2 ** 32))
    F, A = trained.weights.shape
    model = ParserModel(trained.relations, trained.feature_index,
                        weights.standard_normal((F, A)) *
                        10.0 ** weights.integers(-3, 4, (F, 1)),
                        use_ner_features=trained.use_ner_features,
                        root_labels=trained.root_labels, root_label=trained.root_label)
    sentences = [sentence(n, forms + UNSEEN_FORMS, tags + ["unseen"])
                 for n in draw(st.lists(st.integers(0, 7), min_size=1, max_size=5))]
    return model, bank, sentences, draw(st.booleans())


class TestLockstepDecoding:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(parser_cases())
    def test_compiled_features_match_string_path(self, case):
        model, bank, sentences, use_ner = case
        for gold_sent in bank:
            tokens = gold_sent.tokens
            values = model._compiled.sentence_values(gold_sent, use_ner)
            state = ParserState(len(gold_sent))
            for transition in static_oracle(gold_sent):
                assert_compiled_state(model, state, tokens, values, use_ner)
                state.apply(transition)
        stripped = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag,
                                   ner_label=t.ner_label) for t in s) for s in bank]
        visited = []
        for doc in (stripped, sentences):
            expected = [reference_parse(model, s, use_ner, visited) for s in doc]
            assert parses(parse_sentences(model, doc, use_ner)) == parses(expected)
        # All states scored in one batch, each row bit for bit as row_sum.
        states, values, expected = zip(*visited)
        got = depparse._lockstep_scores(model, states, values)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_document_matches_sentence_at_a_time(self, toy_treebank, parse_model,
                                                  monkeypatch):
        doc = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag) for t in s)
               for s in toy_treebank]
        doc[3:3] = [Sentence(()), Sentence([Token(1, "một", pos_tag="M")])]
        doc.append(Sentence(()))
        doc.append(Sentence(Token(i + 1, f, pos_tag="N") for i, f in
                            enumerate(["zz"] * 40)))
        expected = [parse_sentence(parse_model, s) for s in doc]
        assert parses(expected) == parses(reference_parse(parse_model, s, False)
                                          for s in doc)
        got = parse_sentences(parse_model, doc)
        assert got[3] is doc[3]
        assert parses(got) == parses(expected)
        monkeypatch.setattr(depparse, "LOCKSTEP_SENTENCES", 3)
        assert parses(parse_sentences(parse_model, doc)) == parses(expected)

    def test_input_checked_before_decoding(self, parse_model):
        good = Sentence([Token(1, "a", pos_tag="N")])
        with pytest.raises(ValueError, match="POS tags"):
            parse_sentences(parse_model, [good, Sentence([Token(1, "a")])])
        with pytest.raises(ValueError, match="NER"):
            parse_sentences(parse_model, [good], use_ner_features=True)

    def test_fallback_attachments_logged(self, caplog):
        # No feature is known and every weight is 0, so SHIFT (the first
        # action) always wins and every token is left for the fallback.
        model = ParserModel(["dep", "root"], {"never=": 0}, np.zeros((1, 6)))
        sent = Sentence(Token(i + 1, f, pos_tag="N") for i, f in enumerate("abc"))
        with caplog.at_level(logging.DEBUG, logger="sylpipe.depparse"):
            parsed = parse_sentences(model, [sent, sent])
        assert [t.head for t in parsed[0]] == [0, 1, 1]
        assert [r.getMessage() for r in caplog.records] == [
            "fallback attached 6 token(s) in 2 sentence(s)"]

    def test_no_log_without_fallback(self, parse_model, caplog):
        stripped = Sentence(Token(t.index, t.form, pos_tag=t.pos_tag) for t in FIXTURE)
        with caplog.at_level(logging.DEBUG, logger="sylpipe.depparse"):
            parse_sentences(parse_model, [stripped])
        assert not caplog.records

    def test_concurrent_first_parse_matches_serial(self, toy_treebank, parse_model,
                                                   tmp_path):
        # Threads race to build one fresh model's tables; every result must
        # still equal the serial one.
        path = tmp_path / "parse.model"
        save_parser(parse_model, path)
        doc = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag) for t in s)
               for s in toy_treebank]
        expected = parses(parse_sentences(load_parser(path), doc))
        model = load_parser(path)
        results = [None] * 4

        def work(k):
            results[k] = [parses(parse_sentences(model, doc[i:i + 5]))
                          for i in range(0, len(doc), 5)]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for result in results:
            assert [p for chunk in result for p in chunk] == expected


class TestNerFeatureAblation:
    def test_feature_sets_differ_only_in_ner_templates(self):
        rng = random.Random(9)
        for _ in range(100):
            sent = random_form_sentence(rng, n=rng.randint(1, 10), with_pos=True)
            labels = ["O" if i % 2 else "B-PER" for i in range(len(sent))]
            sent = sent.with_ner_labels(labels)
            state = ParserState(len(sent))
            # walk a random legal prefix
            for _ in range(rng.randint(0, 2 * len(sent))):
                kinds = legal_kinds(state)
                if not kinds:
                    break
                kind = rng.choice(sorted(kinds))
                label = "nmod" if kind in (LEFT_ARC, RIGHT_ARC) else None
                state.apply((kind, label))
            with_ner = set(state_features(state, sent.tokens, True))
            without = set(state_features(state, sent.tokens, False))
            diff = with_ner ^ without
            assert diff, "NER templates must actually add features"
            assert all(f.startswith("ner:") for f in diff)
            assert without <= with_ner


def oracle_states(sentence):
    """Every state that the static oracle's walk over sentence decides in."""
    state = ParserState(len(sentence))
    for transition in static_oracle(sentence):
        yield state
        state.apply(transition)


class TestLegalityTable:
    """Decoding and training read illegal actions from one set of mask rows
    by _mask_code; at every state the oracle reaches, its row is -inf
    exactly where _legal_action_mask is False."""

    @pytest.mark.parametrize("root_labels", [("root",), ("root", "sub"), RELS])
    def test_rows_match_the_mask_on_oracle_walks(self, toy_treebank, root_labels):
        rng = random.Random(11)
        # Root arcs take "root", the other arcs any of RELS, "root" included,
        # so the root relations are a strict subset of the relations.
        trees = [random_projective_heads(rng, rng.randint(1, 9), relations=("root", *RELS))
                 for _ in range(300)]
        # Two tokens on the root: the walk reaches the root on top of the
        # stack again after its dependent was reduced.
        two_roots = Sentence._of((("a", "b"), ("N", "V"), ("O", "O"), (0, 0),
                                  ("root", "root")))
        sentences = [*toy_treebank, two_roots,
                     *(Sentence.from_columns([rng.choice(FORMS) for _ in heads],
                                             ["N"] * len(heads), None, heads, deps)
                       for heads, deps in trees)]
        relations = sorted({*RELS, *(rel for s in sentences for rel in s.column("dep_label"))})
        action_index = {a: i for i, a in enumerate(depparse._actions(relations))}
        table = np.isneginf(depparse._score_tail(tuple(relations), root_labels)[:4])
        codes = set()
        for sentence in sentences:
            for state in oracle_states(sentence):
                code = depparse._mask_code(state)
                codes.add(code)
                assert np.array_equal(~table[code], depparse._legal_action_mask(
                    state, len(relations), root_labels, action_index))
        assert codes == {0, 1, 2, 3}


class TestTrainerIds:
    @pytest.mark.parametrize("use_ner", [False, True])
    def test_trainer_and_decoder_give_a_state_the_same_ids(self, toy_treebank, use_ner):
        # The trainer scores its frozen columns with the array decoding
        # reads, so each column holds the ids _lockstep_scores gives the
        # state: its feature ids, sorted, then its mask row's.
        treebank = [s for s in toy_treebank if is_projective(s.column("head"))]
        relations = sorted({rel for s in treebank for rel in s.column("dep_label")})
        action_index = {a: i for i, a in enumerate(depparse._actions(relations))}
        feature_index, ids, gold, bounds = depparse._freeze(treebank, action_index, use_ner)
        F = len(feature_index)
        model = ParserModel(relations, feature_index, np.zeros((F, len(action_index))),
                            use_ner_features=use_ner, root_labels=relations)
        compiled = model._compiled
        j = 0
        for sentence in treebank:
            values = compiled.sentence_values(sentence, use_ner)
            for state in oracle_states(sentence):
                column = ids[:, j]
                expected = sorted(i for i in compiled.state_ids(state, values) if i >= 0)
                assert column[column >= 0].tolist() == \
                    expected + [F + depparse._mask_code(state)]
                j += 1
        assert j == ids.shape[1] == len(gold) == bounds[-1]


class TestTrainParser:
    def test_toy_treebank_uas(self, toy_treebank, parse_model):
        stripped = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag)
                             for t in s) for s in toy_treebank]
        parsed = [parse_sentence(parse_model, s) for s in stripped]
        assert attachment_scores(toy_treebank, parsed).uas >= 0.95

    def test_ten_sentence_treebank(self, toy_treebank):
        bank = list(toy_treebank)[:10]
        model = train_parser(bank, epochs=10)
        stripped = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag)
                             for t in s) for s in bank]
        parsed = [parse_sentence(model, s) for s in stripped]
        assert attachment_scores(bank, parsed).uas >= 0.95

    def test_deterministic_rerun(self, toy_treebank, tmp_path):
        m1 = train_parser(list(toy_treebank)[:15], epochs=4, shuffle_seed=3)
        m2 = train_parser(list(toy_treebank)[:15], epochs=4, shuffle_seed=3)
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_parser(m1, p1)
        save_parser(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lazy_average_equals_naive(self, toy_treebank):
        bank = [s for s in toy_treebank[:8] if is_projective([t.head for t in s])]
        trained = train_parser(bank, epochs=3, shuffle_seed=7)

        # independent reference: the mean of the weights after every
        # transition, in the same seeded epoch order
        feature_index = {}
        for sent in bank:
            state = ParserState(len(sent))
            for t in static_oracle(sent):
                for f in state_features(state, sent.tokens):
                    feature_index.setdefault(f, len(feature_index))
                state.apply(t)
        relations = sorted({t.dep_label for s in bank for t in s})
        root_labels = sorted({t.dep_label for s in bank for t in s if t.head == 0})
        W = np.zeros((len(feature_index), 2 * len(relations) + 2))
        model = ParserModel(relations, feature_index, W, root_labels=root_labels)
        total = np.zeros_like(W)
        steps = 0
        order = list(range(len(bank)))
        rng = random.Random(7)
        for _ in range(3):
            rng.shuffle(order)
            for k in order:
                sent = bank[k]
                state = ParserState(len(sent))
                for t in static_oracle(sent):
                    ids = model.feature_ids(state_features(state, sent.tokens))
                    scores = W[ids].sum(axis=0)
                    scores[~model.action_mask(state)] = NEG_INF
                    g, p = model.action_index[t], int(np.argmax(scores))
                    if g != p:
                        W[ids, g] += 1.0
                        W[ids, p] -= 1.0
                    total += W
                    steps += 1
                    state.apply(t)
        assert trained.feature_index == feature_index
        assert 0 < np.count_nonzero(trained.weights)
        np.testing.assert_allclose(trained.weights, total / steps, rtol=1e-9,
                                   atol=1e-12)

    def test_oracle_transitions_are_not_checked_again(self, toy_treebank, monkeypatch):
        # The oracle builds only legal transitions, which TestStaticOracle
        # replays through apply; training advances without the checks.
        bank = list(toy_treebank)[:10]
        checked = train_parser(bank, epochs=2)

        def refuse(self, transition):
            raise AssertionError("training checked an oracle transition")

        monkeypatch.setattr(ParserState, "apply", refuse)
        model = train_parser(bank, epochs=2)
        assert model.feature_index == checked.feature_index
        np.testing.assert_array_equal(model.weights, checked.weights)

    def test_use_ner_features_needs_labels(self, toy_treebank):
        bank = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag, head=t.head,
                               dep_label=t.dep_label) for t in s)
                for s in toy_treebank[:5]]
        with pytest.raises(TrainingError):
            train_parser(bank, epochs=1, use_ner_features=True)

    def test_use_ner_features_trains_on_labeled_data(self, toy_treebank):
        model = train_parser(list(toy_treebank)[:10], epochs=4,
                             use_ner_features=True)
        assert model.use_ner_features
        sent = toy_treebank[0]
        stripped = Sentence(Token(t.index, t.form, pos_tag=t.pos_tag,
                                  ner_label=t.ner_label) for t in sent)
        parsed = parse_sentence(model, stripped)
        assert check_tree([t.head for t in parsed])

    def test_empty_treebank(self):
        with pytest.raises(TrainingError):
            train_parser([], epochs=1)

    def test_crossing_arcs_checked_once_per_sentence(self, toy_treebank, monkeypatch):
        calls = []

        def counted(heads):
            calls.append(tuple(heads))
            return find_crossing_arcs(heads)

        monkeypatch.setattr(depparse, "find_crossing_arcs", counted)
        train_parser(toy_treebank, epochs=1)
        assert calls == [s.column("head") for s in toy_treebank]

    def test_nonprojective_skip_and_lift(self, caplog):
        nonproj = Sentence([
            Token(index=1, form="a", pos_tag="N", head=3, dep_label="x"),
            Token(index=2, form="b", pos_tag="N", head=4, dep_label="y"),
            Token(index=3, form="c", pos_tag="N", head=0, dep_label="root"),
            Token(index=4, form="d", pos_tag="N", head=3, dep_label="z"),
        ])
        proj = FIXTURE
        import logging
        with caplog.at_level(logging.INFO, logger="sylpipe.depparse"):
            model = train_parser([proj, nonproj], epochs=1, nonprojective="skip")
        assert model is not None
        assert any("non-projective" in r.message for r in caplog.records)
        model2 = train_parser([proj, nonproj], epochs=1, nonprojective="lift")
        assert model2 is not None

    def test_all_nonprojective_error(self):
        nonproj = Sentence([
            Token(index=1, form="a", pos_tag="N", head=3, dep_label="x"),
            Token(index=2, form="b", pos_tag="N", head=0, dep_label="root"),
            Token(index=3, form="c", pos_tag="N", head=2, dep_label="x"),
            Token(index=4, form="d", pos_tag="N", head=1, dep_label="x"),
        ])
        with pytest.raises(TrainingError):
            train_parser([nonproj], epochs=1, nonprojective="skip")


class TestSerialization:
    def test_round_trip(self, parse_model, tmp_path):
        p = tmp_path / "parse.model"
        save_parser(parse_model, p)
        loaded = load_parser(p)
        assert loaded.relations == parse_model.relations
        assert loaded.root_labels == parse_model.root_labels
        sent = Sentence(Token(t.index, t.form, pos_tag=t.pos_tag)
                        for t in FIXTURE)
        assert ([t.head for t in parse_sentence(loaded, sent)] ==
                [t.head for t in parse_sentence(parse_model, sent)])

    @pytest.mark.parametrize("cut, extra", [(20, b""), (0, b"12345678")])
    def test_weight_section_length_checked(self, parse_model, tmp_path, cut, extra):
        good = tmp_path / "good.model"
        save_parser(parse_model, good)
        data = good.read_bytes()
        bad = tmp_path / "bad.model"
        bad.write_bytes(data[:len(data) - cut] + extra)
        expected = parse_model.weights.size * 8
        found = expected - cut + len(extra)
        with pytest.raises(ValueError, match=re.escape(
                f"{bad}: corrupt model file (weight section has {found} bytes, "
                f"expected {expected})")):
            load_parser(bad)

    @pytest.mark.parametrize("fault", sorted(CORRUPT_LAYOUTS))
    def test_header_and_alphabet_checked(self, parse_model, tmp_path, fault):
        good = tmp_path / "good.model"
        save_parser(parse_model, good)
        data, message = CORRUPT_LAYOUTS[fault](*split_model_file(good.read_bytes()))
        bad = tmp_path / "bad.model"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(
                f"{bad}: corrupt model file ({message})")):
            load_parser(bad)
        with pytest.raises(ModelLoadError):
            load_model("parse", str(bad))

    def test_root_labels_outside_relations_rejected(self, parse_model, tmp_path):
        path = tmp_path / "parse.model"
        save_parser(parse_model, path)
        path.write_bytes(path.read_bytes().replace(b'"root_labels":["root"]',
                                                   b'"root_labels":["nope"]', 1))
        with pytest.raises(ModelLoadError, match="root labels must be relations"):
            load_model("parse", str(path))

    def test_conllx_reader(self, toy_treebank, tmp_path):
        lines = []
        for sent in toy_treebank[:3]:
            for t in sent:
                lines.append("\t".join((str(t.index), t.form, "_", t.pos_tag,
                                        "_", "_", str(t.head), t.dep_label,
                                        "_", "_")))
            lines.append("")
        path = tmp_path / "bank.conllx"
        path.write_text("\n".join(lines), encoding="utf-8")
        bank = depparse.read_conllx(path)
        assert len(bank) == 3
        assert [t.head for t in bank[0]] == [t.head for t in toy_treebank[0]]
        path.write_text("\ufeff" + "\n".join(lines), encoding="utf-8")
        assert depparse.read_conllx(path) == bank


def test_speed_smoke(seg_model, pos_model, parse_model):
    # desk-scale floor: 5K words/sec parsing
    import sys
    sys.path.insert(0, "tests")
    from helpers import synthetic_raw_text
    text = synthetic_raw_text(8000, seed=8)
    sentences = [pos.tag_pos(pos_model, wseg.segment(seg_model, s))
                 for s in wseg.split_and_tokenize(text)]
    words = sum(len(s) for s in sentences)
    for s in sentences[:20]:
        parse_sentence(parse_model, s)  # warm
    t0 = time.perf_counter()
    for s in sentences:
        parse_sentence(parse_model, s)
    rate = words / (time.perf_counter() - t0)
    assert rate >= 5000, f"parsing too slow: {rate:.0f} words/sec"
