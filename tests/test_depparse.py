import copy
import cProfile
import itertools
import logging
import pstats
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
                              ParserState, find_crossing_arcs, is_projective,
                              legal_kinds, load_parser, parse_sentence, parse_sentences,
                              projectivize, replay, save_parser, state_features,
                              static_oracle, train_parser)
from sylpipe.metrics import attachment_scores
from sylpipe.model import Sentence, Token
from sylpipe.pipeline import ModelLoadError, load_model
from sylpipe.seqlabel import DecodeError, TrainingError
from sylpipe.templates import VALUE_JOINER

RELS = ("nmod", "root", "sub")


def gold(*rows):
    """rows: (form, pos, head, dep)"""
    return Sentence(Token(index=i + 1, form=f, pos_tag=p, head=h, dep_label=d)
                    for i, (f, p, h, d) in enumerate(rows))


# Every transition over RELS, arc kinds expanded over the relations.
TRANSITIONS = [(SHIFT, None), *((LEFT_ARC, r) for r in RELS),
               *((RIGHT_ARC, r) for r in RELS), (REDUCE, None)]


class TestLegalTransitions:
    def test_initial_state(self):
        kinds = legal_kinds(ParserState(3))
        assert kinds == {SHIFT, RIGHT_ARC}
        for transition in TRANSITIONS:
            if transition[0] in kinds:
                ParserState(3).apply(transition)
            else:
                with pytest.raises(IllegalTransition):
                    ParserState(3).apply(transition)

    def test_terminal_state(self):
        state = ParserState(1)
        state.apply((RIGHT_ARC, "root"))
        assert state.is_terminal()
        assert legal_kinds(state) == {REDUCE}
        state.apply((REDUCE, None))
        assert legal_kinds(state) == set()
        for transition in TRANSITIONS:
            with pytest.raises(IllegalTransition):
                state.apply(transition)

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
        assert state.apply((SHIFT, None)) is state
        assert state.stack == [0, 1]
        assert state.buffer_start == 2

    def test_right_arc_from_root(self):
        # reach stack=[0], buffer=[4] by attaching and reducing 1..3
        state = ParserState(4)
        for _ in range(3):
            state.apply((RIGHT_ARC, "nmod"))
            state.apply((REDUCE, None))
        assert state.stack == [0] and state.buffer_start == 4
        state.apply((RIGHT_ARC, "root"))
        assert (state.heads[4], state.labels[4]) == (0, "root")

    def test_left_arc(self):
        state = ParserState(2)
        state.apply((SHIFT, None))
        state.apply((LEFT_ARC, "nmod"))
        assert (state.heads[1], state.labels[1]) == (2, "nmod")
        assert state.stack == [0]

    def test_reduce_pops(self):
        state = ParserState(2)
        state.apply((RIGHT_ARC, "root"))
        state.apply((REDUCE, None))
        assert state.stack == [0]

    def test_illegal_raises(self):
        for transition in [(LEFT_ARC, "nmod"),  # stack top is root
                           (REDUCE, None),  # top has no head
                           (RIGHT_ARC, None),  # missing label
                           (SHIFT, "nmod")]:  # unexpected label
            state = ParserState(2)
            with pytest.raises(IllegalTransition):
                state.apply(transition)
            # A refused transition leaves the state as it was.
            assert (state.stack, state.buffer_start, state.heads, state.labels) == \
                ([0], 1, [None] * 3, [None] * 3)


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
    values = model._compiled.sentence_values(sentence)
    state = ParserState(n)
    while not state.is_terminal():
        assert_compiled_state(model, state, tokens, values, use_ner)
        ids = model.feature_ids(state_features(state, tokens, use_ner))
        scores = _kernels.row_sum(model.weights, ids)
        scores[~model.action_mask(state)] = NEG_INF
        if visited is not None:
            visited.append((copy.deepcopy(state), values, scores))
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


def mask_field(state):
    """The mask field of a state's record (depparse._FIELDS)."""
    return dict(zip(depparse._FIELDS, depparse._state_record(state)))["mask"]


def assert_compiled_state(model, state, tokens, values, use_ner):
    """The rows that state_ids gives a state sum, byte for byte, to row_sum
    over the ids of its feature strings and its mask row, and those of the
    templates that no block holds are their feature strings' ids."""
    compiled = model._compiled
    ids = compiled.state_ids(state, values)
    templates = depparse._templates(model.use_ner_features)
    loose, blocks = depparse._layout(templates)
    assert len(ids) == len(loose) + len(blocks)
    features = state_features(state, tokens, use_ner)
    fired = {f.partition("=")[0]: f for f in features}
    assert ids[:len(loose)] == [model.feature_index.get(fired.get(templates[k]), -1)
                                for k in loose]
    mask = len(model.weights) + mask_field(state)
    expected = _kernels.row_sum(model._rows, [*model.feature_ids(features), mask])
    assert _kernels.row_sum(compiled.rows, ids).tobytes() == expected.tobytes()
    # The mask row adds 0.0 to the legal actions and -inf to the others.
    assert model._rows[mask].tobytes() == \
        np.where(model.action_mask(state), 0.0, NEG_INF).tobytes()


# A tag that no alphabet of these tests holds, read as the other code.
OTHER_TAG = "never-a-tag"


def assert_block_rows(model):
    """Each block row is, byte for byte, row_sum over the ids of the feature
    strings that its templates fire at its codes (-1 where one fires none),
    and of the mask row at the mask field's code; the decode array, feature
    rows, block rows and zero row, is read-only."""
    compiled = model._compiled
    F = len(model.weights)
    for codes in compiled.codes.values():
        assert codes.keys() >= {"<root>", "<none>"} and OTHER_TAG not in codes
        assert sorted(codes.values()) == list(range(len(codes)))
    for fields, names, base in compiled.blocks:
        values = []
        for field in fields:
            column = "mask" if field == "mask" else depparse._ATOMS[field][0]
            codes = compiled.codes.get(column)
            values.append(range(depparse._MASKS) if column == "mask" else
                          depparse._BUCKETS[column] if codes is None else
                          [*sorted(codes, key=codes.get), OTHER_TAG])
        for row, combination in enumerate(itertools.product(*values), base):
            value = dict(zip(fields, combination))
            ids = [model.feature_index.get(name + "=" + VALUE_JOINER.join(
                       value[atom] for atom in depparse._atoms(name)), -1) for name in names]
            if "mask" in value:
                ids.append(F + value["mask"])
            assert compiled.rows[row].tobytes() == \
                _kernels.row_sum(model._rows, ids).tobytes()
    assert compiled.rows[:F].tobytes() == model.weights.tobytes()
    assert row + 2 == len(compiled.rows) and not compiled.rows[-1].any()
    assert not compiled.rows.flags.writeable


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
    """A parser trained on odd values, given random integer weights of mixed
    magnitudes, plus sentences."""
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
                        weights.integers(-1000, 1001, (F, A)) *
                        10.0 ** weights.integers(0, 7, (F, 1)),
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
        if not use_ner:  # a sentence without NER labels parses without them
            bank = [s.with_ner_labels([None] * len(s)) for s in bank]
            sentences = [s.with_ner_labels([None] * len(s)) for s in sentences]
        for gold_sent in bank:
            tokens = gold_sent.tokens
            values = model._compiled.sentence_values(gold_sent)
            state = ParserState(len(gold_sent))
            for transition in static_oracle(gold_sent):
                assert_compiled_state(model, state, tokens, values, use_ner)
                state.apply(transition)
        stripped = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag,
                                   ner_label=t.ner_label) for t in s) for s in bank]
        visited = []
        for doc in (stripped, sentences):
            expected = [reference_parse(model, s, use_ner, visited) for s in doc]
            assert parses(parse_sentences(model, doc)) == parses(expected)
        # All states scored in one batch, each row bit for bit as row_sum.
        states, values, expected = zip(*visited)
        got = depparse._lockstep_scores(model, states, values)
        assert got.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(parser_cases())
    def test_block_rows_sum_the_rows_their_templates_fire(self, case):
        # Odd tags ("N|V", "|", "<root>") are codes like any other, and a
        # tag outside the alphabet reads the other code, whose rows fire
        # none of its templates.
        model, bank, _, _ = case
        assert_block_rows(model)
        # A state sums 8 loose templates' rows and one row per block.
        compiled = model._compiled
        for sentence in bank:
            values = compiled.sentence_values(sentence)
            for state in oracle_states(sentence):
                assert len(compiled.state_ids(state, values)) == \
                    (15 if model.use_ner_features else 14)

    def test_ud_tags_make_one_table_entry_per_conjunction_feature(self, toy_treebank):
        # Each tag followed by UD-style morphology holds "|": every loose
        # conjunction feature is one entry of its template's table, each tag
        # one code of the blocks, and the compiled decode parses as the
        # string path does.
        def ud(sent):
            return sent.with_pos_tags([f"{tag}|Number=Sing|Case=Nom"
                                       for tag in sent.column("pos_tag")])

        model = train_parser([ud(s) for s in toy_treebank], epochs=2)
        compiled = model._compiled
        names = depparse._templates(False)
        loose, _ = depparse._layout(names)
        conjunctions = [names[k] for k in loose if "|" in names[k]]
        assert len(conjunctions) == 5
        for name in conjunctions:
            features = [f for f in model.feature_index if f.partition("=")[0] == name]
            table = compiled.bindings[depparse._lookup_name(name)].__self__
            assert features and len(table) == len(features)
        tags = {tag for s in toy_treebank for tag in ud(s).column("pos_tag")}
        assert compiled.codes["pos_tag"].keys() == tags | {"<root>", "<none>"}
        assert_block_rows(model)
        doc = [Sentence(Token(t.index, t.form, pos_tag=t.pos_tag) for t in ud(s))
               for s in toy_treebank[:20]]
        assert parses(parse_sentences(model, doc)) == parses(
            reference_parse(model, s, False) for s in doc)

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

    def test_input_checked_before_decoding(self, parse_model, toy_treebank):
        good = Sentence([Token(1, "a", pos_tag="N")])
        with pytest.raises(ValueError, match="POS tags"):
            parse_sentences(parse_model, [good, Sentence([Token(1, "a")])])
        # A parser with NER features reads the labels of a sentence that has
        # them on every token, parses one without any, and refuses the rest.
        ner_parser = train_parser(list(toy_treebank)[:10], epochs=1, use_ner_features=True)
        labelled = Sentence.from_columns(["a", "b"], ["N", "V"], ["B-PER", "O"])
        partly = labelled.with_ner_labels(["B-PER", None])
        with pytest.raises(DecodeError, match="only some tokens have one") as exc:
            parse_sentences(ner_parser, [good, labelled, Sentence(()), partly])
        assert exc.value.sentence == 4
        assert parse_sentences(ner_parser, [good, labelled, good]) == [
            parse_sentence(ner_parser, s) for s in (good, labelled, good)]

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
        # Only the sentences that needed the fallback are counted: here a
        # noun at the buffer front makes RIGHT-ARC root win, so a sentence
        # of nouns is attached in full, and one of verbs is left to it.
        W = np.zeros((1, 6))
        W[0, model.action_index[(RIGHT_ARC, "root")]] = 1.0
        model = ParserModel(["dep", "root"], {"b0p=N": 0}, W)
        nouns = Sentence(Token(i + 1, f, pos_tag="N") for i, f in enumerate("ab"))
        verbs = [Sentence(Token(i + 1, f, pos_tag="V") for i, f in enumerate(forms))
                 for forms in ("abc", "ab")]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sylpipe.depparse"):
            parsed = parse_sentences(model, [verbs[0], nouns, Sentence(()), verbs[1]])
        assert [t.head for t in parsed[1]] == [0, 1]
        assert [r.getMessage() for r in caplog.records] == [
            "fallback attached 5 token(s) in 2 sentence(s)"]

    @pytest.mark.parametrize("use_ner", [False, True])
    def test_alphabet_entries_of_no_template_fire_nothing(self, toy_treebank, use_ner):
        # Besides the trained features, the alphabet holds a name that no
        # template has, a feature without "=", a conjunction's name over one
        # value, a distance that no bucket holds and an NER pair read as
        # one value; alphabet_tuples reads none of them as a template's.
        trained = train_parser(toy_treebank[:10], epochs=1, use_ner_features=use_ner)
        extra = ["never=", "s0p", "s0p|b0p=N", "dist=7", "ner:s0n=O\tO", "b0p=N\tV"]
        feature_index = {f: j for j, f in enumerate([*extra, *trained.feature_index])}
        rng = np.random.default_rng(5)
        model = ParserModel(trained.relations, feature_index,
                            rng.integers(-9, 10, (len(feature_index), len(trained.actions))),
                            use_ner_features=use_ner, root_labels=trained.root_labels,
                            root_label=trained.root_label)
        assert_block_rows(model)
        doc = toy_treebank[:20]
        assert parses(parse_sentences(model, doc)) == parses(
            reference_parse(model, s, use_ner) for s in doc)
        # The alphabet of one name outside the templates fires nothing.
        model = ParserModel(["dep", "root"], {"never=": 0}, np.ones((1, 6)))
        assert model._compiled.codes == {"pos_tag": {"<none>": 0, "<root>": 1}}
        assert_block_rows(model)
        assert parses(parse_sentences(model, doc)) == parses(
            reference_parse(model, s, False) for s in doc)

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
    def test_parser_reads_the_columns_of_its_templates(self, toy_treebank, parse_model):
        assert not parse_model.use_ner_features
        # The forms and tags of the loose templates by value id, the tags
        # of the blocks by code, and the NER labels only by code, as all
        # three NER templates lie in one block.
        compiled = parse_model._compiled
        assert compiled.columns == ("form", "pos_tag") and compiled.codes.keys() == {"pos_tag"}
        assert "\n    [form, pos_tag, pos_tag_codes] = values\n" in compiled.source
        assert "ner_label" not in compiled.source
        assert len(compiled.sentence_values(toy_treebank[0])) == 3
        ner_parser = train_parser(list(toy_treebank)[:10], epochs=1, use_ner_features=True)
        assert ner_parser._compiled.columns == ("form", "pos_tag")
        assert list(ner_parser._compiled.codes) == ["pos_tag", "ner_label"]

    def test_parser_without_ner_features_ignores_ner_labels(self, toy_treebank, parse_model):
        # Any NER labels, on some tokens or on all, give the same parses.
        rng = random.Random(17)
        labelled = [s.with_ner_labels([rng.choice([*NER_SET, None]) for _ in s])
                    for s in toy_treebank]
        assert any(None in s.column("ner_label") and any(s.column("ner_label"))
                   for s in labelled)
        assert parses(parse_sentences(parse_model, labelled)) == \
            parses(parse_sentences(parse_model, toy_treebank))

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
    by a state's mask field; at every state the oracle reaches, its row is
    -inf exactly where _legal_action_mask is False."""

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
                code = mask_field(state)
                codes.add(code)
                assert np.array_equal(~table[code], depparse._legal_action_mask(
                    state, len(relations), root_labels, action_index))
        assert codes == {0, 1, 2, 3}


def assert_trainer_and_decoder_agree(treebank, use_ner):
    """At every oracle state, the trainer's frozen column holds the ids of
    the state's features in template order, as state_ids gives those of the
    loose templates, then its mask row's, F plus its mask field, a row that
    is -inf exactly where _legal_action_mask is False; summed, the column's
    rows equal, byte for byte, the decode rows that state_ids gives."""
    relations = sorted({rel for s in treebank for rel in s.column("dep_label")})
    action_index = {a: i for i, a in enumerate(depparse._actions(relations))}
    feature_index, ids, gold, bounds = depparse._freeze(treebank, action_index, use_ner)
    F = len(feature_index)
    weights = np.random.default_rng(3).integers(-99, 100, (F, len(action_index)))
    model = ParserModel(relations, feature_index, weights, use_ner_features=use_ner,
                        root_labels=relations)
    compiled = model._compiled
    loose, _ = depparse._layout(depparse._templates(use_ner))
    j = 0
    for sentence in treebank:
        values = compiled.sentence_values(sentence)
        for state in oracle_states(sentence):
            rows = compiled.state_ids(state, values)
            assert ids[list(loose), j].tolist() == rows[:len(loose)]
            assert _kernels.row_sum(model._rows, ids[:, j]).tobytes() == \
                _kernels.row_sum(compiled.rows, rows).tobytes()
            mask = ids[-1, j]
            assert mask == F + mask_field(state)
            legal = depparse._legal_action_mask(state, len(relations), model.root_labels,
                                                action_index)
            assert np.array_equal(np.isneginf(model._rows[mask]), ~legal)
            j += 1
    assert j == ids.shape[1] == len(gold) == bounds[-1]
    return feature_index


# A reordered subset of the parser's templates, the NER ones last.
SOME_TEMPLATES = ("b0lv", "s0p|b0p|dist", "b1w", "s1p|s0p|b0p", "s0w", "dist",
                  "b0p|b1p", "s0lcp", "b2p", "s0w|b0w", "ner:s0n|b0n", "ner:b0n")


class TestTrainerIds:
    @pytest.mark.parametrize("use_ner", [False, True])
    def test_trainer_and_decoder_give_a_state_the_same_ids(self, toy_treebank, use_ner):
        # The trainer scores its frozen columns with the array decoding
        # reads, so each column holds the ids _lockstep_scores gives the
        # state.
        treebank = [s for s in toy_treebank if is_projective(s.column("head"))]
        assert_trainer_and_decoder_agree(treebank, use_ner)

    @pytest.mark.parametrize("use_ner", [False, True])
    def test_one_template_table_drives_both(self, toy_treebank, monkeypatch, use_ner):
        # Decoding and the freeze both follow _TEMPLATES, whatever it holds.
        monkeypatch.setattr(depparse, "_TEMPLATES", SOME_TEMPLATES)
        treebank = [s for s in toy_treebank if is_projective(s.column("head"))]
        feature_index = assert_trainer_and_decoder_agree(treebank, use_ner)
        fired = {f.split("=", 1)[0] for f in feature_index}
        assert fired == {t for t in SOME_TEMPLATES if use_ner or not t.startswith("ner:")}

    @pytest.mark.parametrize("use_ner", [False, True])
    def test_state_features_fire_the_table_in_order(self, toy_treebank, use_ner):
        templates = depparse._TEMPLATES if use_ner else depparse._TEMPLATES[:-3]
        for sentence in toy_treebank:
            for state in oracle_states(sentence):
                fired = state_features(state, sentence.tokens, use_ner)
                assert [f.split("=", 1)[0] for f in fired] == list(templates)

    def test_generated_state_ids_keeps_its_name_and_runs_from_its_source(
            self, toy_treebank, parse_model):
        compiled = parse_model._compiled
        state_ids = compiled.state_ids
        assert state_ids.__name__ == state_ids.__qualname__ == "state_ids"
        names, source, _ = depparse._state_ids_code(
            depparse._templates(parse_model.use_ner_features))
        assert compiled.source == source and list(compiled.bindings) == names
        namespace = dict(compiled.bindings)
        exec(compile(compiled.source, "<state_ids>", "exec"), namespace)
        for sentence in toy_treebank[:5]:
            values = compiled.sentence_values(sentence)
            for state in oracle_states(sentence):
                assert namespace["state_ids"](state, values) == state_ids(state, values)
        # cProfile names it as it names a function written by hand.
        profile = cProfile.Profile()
        profile.runcall(parse_sentences, parse_model, toy_treebank[:3])
        assert "state_ids" in {name for _, _, name in pstats.Stats(profile).stats}


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

        # independent reference: the sum of the weights after every
        # transition, in the same seeded epoch order
        strings = set()
        for sent in bank:
            state = ParserState(len(sent))
            for t in static_oracle(sent):
                strings.update(state_features(state, sent.tokens))
                state.apply(t)
        feature_index = {f: k for k, f in enumerate(sorted(strings))}
        relations = sorted({t.dep_label for s in bank for t in s})
        root_labels = sorted({t.dep_label for s in bank for t in s if t.head == 0})
        W = np.zeros((len(feature_index), 2 * len(relations) + 2))
        model = ParserModel(relations, feature_index, W, root_labels=root_labels)
        total = np.zeros_like(W)
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
                    state.apply(t)
        assert trained.feature_index == feature_index
        assert 0 < np.count_nonzero(trained.weights)
        assert np.array_equal(trained.weights, total)

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

    def test_root_label_outside_root_labels_rejected(self):
        # The fallback attaches a headless token to the root with root_label.
        with pytest.raises(ValueError, match=r"^root label 'dep' is not one of the "
                                             r"root labels \['root'\]$"):
            ParserModel(["dep", "root"], {"never=": 0}, np.zeros((1, 6)), root_label="dep")
        model = ParserModel(["dep", "root"], {"never=": 0}, np.zeros((1, 6)),
                            root_labels=("dep", "root"), root_label="dep")
        assert model.root_label == "dep"

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
        # A comment line between a sentence's tokens leaves the sentence whole.
        path.write_text("\n".join(lines[:2] + ["# a comment"] + lines[2:]), encoding="utf-8")
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
