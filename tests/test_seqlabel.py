import random
import re
import sys
import threading

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (CORRUPT_LAYOUTS, FORMS, NER_LABELS, POS_TAGS,
                     random_form_sentence, random_linear_model, split_model_file)
from sylpipe import _kernels, ner, seqlabel
from sylpipe.model import Sentence, Token
from sylpipe.pipeline import ModelLoadError, load_model
from sylpipe.seqlabel import (DecodeError, FeatureTemplate, LinearModel,
                              TrainingError, bio_transition_mask,
                              brute_force_decode, extract_features,
                              load_linear_model, make_templates,
                              save_linear_model, sequence_score, tag_sentences,
                              train_averaged_perceptron, viterbi_decode,
                              word_shape)


def sentence(*forms):
    return Sentence(Token(index=i + 1, form=f) for i, f in enumerate(forms))


class TestTemplates:
    def test_basic_extraction(self):
        tpls = make_templates(["form@0", "form@-1", "prefix2@0", "suffix2@0",
                               "shape@0", "isfirst@0"])
        s = sentence("Hà_Nội", "xanh")
        feats = extract_features(tpls, s.tokens, 0)
        assert "form@0=Hà_Nội" in feats
        assert "form@-1=<s>" in feats
        assert "prefix2@0=Hà" in feats
        assert "suffix2@0=ội" in feats
        assert "shape@0=AaxAa" in feats
        assert "isfirst@0=1" in feats
        feats1 = extract_features(tpls, s.tokens, 1)
        assert "form@-1=Hà_Nội" in feats1
        assert "isfirst@0=0" in feats1

    def test_unset_attribute_skips_template(self):
        tpls = make_templates(["pos@0", "form@0&pos@0"])
        s = sentence("a")
        assert extract_features(tpls, s.tokens, 0) == []

    def test_bad_descriptor(self):
        with pytest.raises(ValueError):
            FeatureTemplate("x", "frm@0")

    @pytest.mark.parametrize("descriptor, message", [
        ("suffix@0", "'suffix' takes a length of at least 1"),
        ("suffix0@0", "'suffix' takes a length of at least 1"),
        ("prefix0@0", "'prefix' takes a length of at least 1"),
        ("form3@0", "'form' takes no length"),
        ("isfirst1@0", "'isfirst' takes no length"),
    ])
    def test_bad_atom_length(self, descriptor, message):
        with pytest.raises(ValueError, match=message):
            FeatureTemplate(descriptor, descriptor)

    def test_word_shape(self):
        assert word_shape("Nguyễn_Khắc_Chúc") == "AaxAaxAa"
        assert word_shape("12a") == "9a"
        assert word_shape("ABC") == "A"


class TestDecoding:
    def test_zero_weights_tie_break(self):
        m = random_linear_model(random.Random(0), ["A", "B"], lo=0, hi=0)
        labels, score = viterbi_decode(m, sentence("xe", "máy", "nhà"))
        assert labels == ["A", "A", "A"]
        assert score == 0.0

    def test_single_position_max_emission(self):
        rng = random.Random(1)
        m = random_linear_model(rng, ["A", "B", "C"])
        s = sentence("xe")
        labels, score = viterbi_decode(m, s)
        b_labels, b_score = brute_force_decode(m, s)
        assert labels == b_labels and score == b_score

    def test_oracle_equivalence_200_random(self):
        rng = random.Random(2024)
        alphabets = [["A"], ["A", "B"], ["A", "B", "C"], ["A", "B", "C", "D"]]
        for _ in range(200):
            labels = rng.choice(alphabets)
            m = random_linear_model(rng, labels)
            s = random_form_sentence(rng, n=rng.randint(1, 6))
            v = viterbi_decode(m, s)
            b = brute_force_decode(m, s)
            assert v == b

    def test_brute_force_refuses_large_instances(self):
        m = random_linear_model(random.Random(4), ["A", "B", "C", "D"])
        s = random_form_sentence(random.Random(5), n=12)
        with pytest.raises(DecodeError):
            brute_force_decode(m, s)

    def test_empty_sentence(self):
        m = random_linear_model(random.Random(6), ["A"])
        assert viterbi_decode(m, Sentence(())) == ([], 0.0)

    def test_score_consistency(self):
        rng = random.Random(8)
        for _ in range(50):
            m = random_linear_model(rng, ["A", "B", "C"])
            s = random_form_sentence(rng, n=rng.randint(1, 7))
            labels, score = viterbi_decode(m, s)
            assert sequence_score(m, s, labels) == score

    def test_argmax_invariant_to_position_constant(self):
        # adding a constant to every label's weight of a feature that fires
        # at exactly one position must not change the argmax
        rng = random.Random(9)
        tpls = make_templates(["form@0", "isfirst@0"])
        m = random_linear_model(rng, ["A", "B", "C"], templates=tpls)
        s = sentence("xe", "máy", "nhà")
        fid = m.feature_index["isfirst@0=1"]
        W2 = m.emission_weights.copy()
        W2[fid] += 17.0
        m2 = LinearModel(m.labels, m.templates, m.feature_index, W2,
                         m.transition_weights)
        l1, s1 = viterbi_decode(m, s)
        l2, s2 = viterbi_decode(m2, s)
        assert l1 == l2
        assert s2 == s1 + 17.0


class TestBioMask:
    def test_mask_shape_and_rules(self):
        labels = ["B-PER", "I-PER", "O"]
        mask = bio_transition_mask(labels)
        assert mask.shape == (4, 3)
        i_per = labels.index("I-PER")
        assert not mask[labels.index("O"), i_per]
        assert mask[labels.index("B-PER"), i_per]
        assert mask[i_per, i_per]
        assert not mask[3, i_per]  # start row

    def test_masked_decode_respects_bio(self):
        rng = random.Random(10)
        labels = sorted(["O", "B-PER", "I-PER", "B-ORG", "I-ORG"])
        for _ in range(50):
            base = random_linear_model(rng, labels)
            m = LinearModel(base.labels, base.templates, base.feature_index,
                            base.emission_weights, base.transition_weights,
                            bio_constrained=True)
            s = random_form_sentence(rng, n=rng.randint(1, 6))
            v = viterbi_decode(m, s)
            b = brute_force_decode(m, s)
            assert v == b
            from sylpipe.ner import is_valid_bio
            assert is_valid_bio(v[0])


class TestTraining:
    def separable_corpus(self):
        corpus = []
        for k in range(5):
            s = sentence(f"red{k}", f"blue{k}", f"green{k}")
            corpus.append((s, ["R", "B", "G"]))
        return corpus

    def test_separable_convergence(self):
        corpus = self.separable_corpus()
        m = train_averaged_perceptron(make_templates(["form@0", "form@-1"]),
                                      corpus, epochs=5)
        for s, gold in corpus:
            assert viterbi_decode(m, s)[0] == gold

    def test_no_update_on_perfect_corpus(self):
        # with a single-label alphabet the zero model is already perfect,
        # so one epoch must leave every weight at zero
        corpus = [(sentence("a", "b"), ["X", "X"]),
                  (sentence("c"), ["X"])]
        m = train_averaged_perceptron(make_templates(["form@0"]), corpus, epochs=1)
        assert not m.emission_weights.any()
        assert not m.transition_weights.any()

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        corpus = self.separable_corpus()
        paths = []
        for run in range(2):
            m = train_averaged_perceptron(make_templates(["form@0", "form@-1"]),
                                          corpus, epochs=3, shuffle_seed=42)
            p = tmp_path / f"m{run}.bin"
            save_linear_model(m, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_corpus_error(self):
        with pytest.raises(TrainingError):
            train_averaged_perceptron(make_templates(["form@0"]), [], epochs=1)

    def test_length_mismatch_error(self):
        with pytest.raises(TrainingError):
            train_averaged_perceptron(make_templates(["form@0"]),
                                      [(sentence("a"), ["X", "Y"])], epochs=1)

    def test_lazy_average_equals_naive(self):
        corpus = [(sentence("a", "b"), ["X", "Y"]),
                  (sentence("b", "a"), ["Y", "X"]),
                  (sentence("a"), ["X"])]
        templates = make_templates(["form@0", "form@-1"])
        trained = train_averaged_perceptron(templates, corpus, epochs=3)

        # independent reference: explicit snapshots after every instance
        labels = sorted({lab for _, g in corpus for lab in g})
        L = len(labels)
        feature_index = {}
        for s, _ in corpus:
            for i in range(len(s)):
                for f in extract_features(templates, s.tokens, i):
                    feature_index.setdefault(f, len(feature_index))
        F = len(feature_index)
        W = np.zeros((F, L))
        T = np.zeros((L + 1, L))
        snaps_w, snaps_t = [], []
        lindex = {lab: i for i, lab in enumerate(labels)}
        for _ in range(3):
            for s, gold in corpus:
                model = LinearModel(labels, templates, feature_index,
                                    W.copy(), T.copy())
                pred = viterbi_decode(model, s)[0]
                if pred != gold:
                    for i in range(len(s)):
                        ids = model.position_feature_ids(s.tokens, i)
                        g, p = lindex[gold[i]], lindex[pred[i]]
                        if g != p:
                            W[ids, g] += 1.0
                            W[ids, p] -= 1.0
                        pg = lindex[gold[i - 1]] if i else L
                        pp = lindex[pred[i - 1]] if i else L
                        if (pg, g) != (pp, p):
                            T[pg, g] += 1.0
                            T[pp, p] -= 1.0
                snaps_w.append(W.copy())
                snaps_t.append(T.copy())
        naive_w = sum(snaps_w) / len(snaps_w)
        naive_t = sum(snaps_t) / len(snaps_t)
        np.testing.assert_allclose(trained.emission_weights, naive_w, rtol=1e-9,
                                   atol=1e-12)
        np.testing.assert_allclose(trained.transition_weights, naive_t, rtol=1e-9,
                                   atol=1e-12)

    def test_epoch_callback(self):
        seen = []
        train_averaged_perceptron(
            make_templates(["form@0"]), self.separable_corpus(), epochs=3,
            on_epoch=lambda e, m, a: seen.append((e, a)))
        assert [e for e, _ in seen] == [1, 2, 3]
        assert seen[-1][1] >= seen[0][1]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = random.Random(11)
        m = random_linear_model(rng, ["A", "B"])
        p = tmp_path / "m.bin"
        save_linear_model(m, p)
        loaded = load_linear_model(p)
        assert loaded.labels == m.labels
        assert loaded.feature_index == m.feature_index
        assert np.array_equal(loaded.emission_weights, m.emission_weights)
        assert np.array_equal(loaded.transition_weights, m.transition_weights)
        s = random_form_sentence(rng, n=5)
        assert viterbi_decode(loaded, s) == viterbi_decode(m, s)

    def test_resave_byte_identical(self, tmp_path):
        m = random_linear_model(random.Random(12), ["A", "B"])
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_linear_model(m, p1)
        save_linear_model(load_linear_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a model\n")
        with pytest.raises(ValueError):
            load_linear_model(p)

    @pytest.mark.parametrize("cut, extra", [(20, b""), (0, b"12345678")])
    def test_weight_section_length_checked(self, tmp_path, cut, extra):
        m = random_linear_model(random.Random(13), ["A", "B"])
        good = tmp_path / "good.bin"
        save_linear_model(m, good)
        data = good.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data[:len(data) - cut] + extra)
        F, L = m.emission_weights.shape
        expected = 8 * (F * L + (L + 1) * L)
        found = expected - cut + len(extra)
        with pytest.raises(ValueError, match=re.escape(
                f"{bad}: corrupt model file (weight section has {found} bytes, "
                f"expected {expected})")):
            load_linear_model(bad)

    @pytest.mark.parametrize("fault", sorted(CORRUPT_LAYOUTS))
    def test_header_and_alphabet_checked(self, tmp_path, fault):
        good = tmp_path / "good.bin"
        save_linear_model(random_linear_model(random.Random(14), ["A", "B"]), good)
        data, message = CORRUPT_LAYOUTS[fault](*split_model_file(good.read_bytes()))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(
                f"{bad}: corrupt model file ({message})")):
            load_linear_model(bad)
        with pytest.raises(ModelLoadError):
            load_model("pos", str(bad))


ATTRIBUTE_ATOMS = ("form", "lower", "prefix", "suffix", "shape", "hasdigit",
                   "hashyphen", "gaz", "pos", "ner")
ATOM_KINDS = ATTRIBUTE_ATOMS + ("isfirst", "islast")
UNSEEN_FORMS = ["zzz", "Qx-1", "a2b", "Ôi_Trời", "xe-máy", "9", "Nội_xe"]
# Values that collide with the feature syntax ("|" joins atom values, "="
# ends a template name) or with the sentence boundaries.
ODD_VALUES = ["a|b", "|", "a||b", "x=y", "<s>", "</s>"]
ODD_NER_LABELS = ["B-a|b", "I-|", "B-a||b", "B-x=y"]


def atoms_of(kinds):
    return st.builds(
        lambda kind, n, offset: f"{kind}{n if kind in ('prefix', 'suffix') else ''}@{offset}",
        st.sampled_from(kinds), st.integers(1, 4), st.integers(-2, 2))


descriptors = st.lists(atoms_of(ATOM_KINDS), min_size=1, max_size=3).map("&".join)
# Two- and three-atom conjunctions of attributes, looked up as int64 keys.
conjunctions = st.lists(atoms_of(ATTRIBUTE_ATOMS), min_size=2, max_size=3).map("&".join)
# Conjunctions with an isfirst or islast atom, whose digit is the place of
# the position in its sentence: mixed with attribute atoms, or positional only.
POSITIONAL_ATOMS = ("isfirst", "islast")
positional_conjunctions = (
    st.tuples(atoms_of(POSITIONAL_ATOMS), atoms_of(ATTRIBUTE_ATOMS)).flatmap(st.permutations)
    | st.lists(atoms_of(POSITIONAL_ATOMS), min_size=2, max_size=3)).map("&".join)


@st.composite
def tokens_of(draw, forms, min_size=1, max_size=7):
    n = draw(st.integers(min_size, max_size))
    return Sentence(
        Token(index=i + 1, form=draw(st.sampled_from(forms)),
              pos_tag=draw(st.none() | st.sampled_from(POS_TAGS[:4] + ODD_VALUES)),
              ner_label=draw(st.none() | st.sampled_from(NER_LABELS[:3] + ODD_NER_LABELS)))
        for i in range(n))


@st.composite
def decoding_cases(draw):
    """A model trained on random data with random real weights, plus test sentences."""
    templates = make_templates(draw(st.lists(descriptors, min_size=1, max_size=8))
                               + draw(st.lists(conjunctions, max_size=3)))
    labels = ["A", "B", "C", "D"][:draw(st.integers(1, 4))]
    corpus = []
    for _ in range(draw(st.integers(1, 6))):
        sent = draw(tokens_of(FORMS + ODD_VALUES))
        corpus.append((sent, [draw(st.sampled_from(labels)) for _ in sent]))
    gazetteer = draw(st.none() | st.frozensets(st.sampled_from(FORMS + ["hà"]),
                                               max_size=8))
    trained = train_averaged_perceptron(templates, corpus, epochs=2,
                                        gazetteer=gazetteer,
                                        combine_top_k=draw(st.integers(0, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F, L = trained.emission_weights.shape
    model = LinearModel(trained.labels, templates, trained.feature_index,
                        rng.standard_normal((F, L)) * 10.0 ** rng.integers(-3, 4, (F, 1)),
                        rng.standard_normal((L + 1, L)),
                        induced_pairs=trained.induced_pairs, gazetteer=gazetteer)
    sentences = draw(st.lists(tokens_of(FORMS + UNSEEN_FORMS + ODD_VALUES),
                              min_size=1, max_size=5))
    return model, sentences


@st.composite
def document_cases(draw):
    """A trained model with random weights (integers force ties), plus a
    document of empty, one-token and longer sentences with unseen forms."""
    bio = draw(st.booleans())
    pool = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"] if bio else ["A", "B", "C", "D"]
    labels = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        names = (draw(st.lists(descriptors, min_size=1, max_size=8))
                 + draw(st.lists(conjunctions, max_size=3)))
    else:  # no template over a token attribute alone
        names = []
    names += draw(st.lists(positional_conjunctions, min_size=0 if names else 1,
                           max_size=3))
    if draw(st.booleans()):
        names.append(draw(st.sampled_from(POSITIONAL_ATOMS))
                     + draw(st.sampled_from(["@-2", "@-1", "@0", "@+1", "@+2"])))
    templates = make_templates(names)
    corpus = []
    for _ in range(draw(st.integers(1, 6))):
        sent = draw(tokens_of(FORMS + ODD_VALUES))
        gold = [draw(st.sampled_from(labels)) for _ in sent]
        corpus.append((sent, ner.repair_bio(gold) if bio else gold))
    gazetteer = draw(st.none() | st.frozensets(st.sampled_from(FORMS + ["hà"]),
                                               max_size=8))
    trained = train_averaged_perceptron(templates, corpus, epochs=2,
                                        bio_constrained=bio, gazetteer=gazetteer,
                                        combine_top_k=draw(st.integers(0, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F, L = trained.emission_weights.shape
    if draw(st.booleans()):
        emissions = rng.integers(-2, 3, (F, L)).astype(np.float64)
        transitions = rng.integers(-2, 3, (L + 1, L)).astype(np.float64)
    else:
        emissions = rng.standard_normal((F, L)) * 10.0 ** rng.integers(-3, 4, (F, 1))
        transitions = rng.standard_normal((L + 1, L))
    model = LinearModel(trained.labels, templates, trained.feature_index, emissions,
                        transitions, bio_constrained=bio,
                        induced_pairs=trained.induced_pairs, gazetteer=gazetteer)
    document = draw(st.lists(tokens_of(FORMS + UNSEEN_FORMS + ODD_VALUES, min_size=0,
                                       max_size=7), min_size=1, max_size=8))
    return model, document


def decode_each(model, document):
    """viterbi_decode's labels per sentence, or the DecodeError it raised."""
    out = []
    for sent in document:
        try:
            out.append(viterbi_decode(model, sent)[0])
        except DecodeError as exc:
            out.append(exc)
    return out


class TestDocumentDecoding:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(document_cases(), st.sampled_from([3, seqlabel.TAG_GROUP_SENTENCES]),
           st.sampled_from([1, 40, 200, seqlabel.TAG_GROUP_CELLS]),
           st.sampled_from([1, 5, 20, seqlabel.TAG_CHUNK_POSITIONS]))
    def test_document_equals_sentence_by_sentence(self, case, sentences, cells, chunk):
        # Small caps split the document into many chunks, gathers and groups.
        model, document = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seqlabel, "TAG_GROUP_SENTENCES", sentences)
            mp.setattr(seqlabel, "TAG_GROUP_CELLS", cells)
            mp.setattr(seqlabel, "TAG_CHUNK_POSITIONS", chunk)
            expected = decode_each(model, document)
            failed = [k + 1 for k, e in enumerate(expected) if isinstance(e, DecodeError)]
            if failed:
                with pytest.raises(DecodeError) as exc:
                    tag_sentences(model, document)
                assert exc.value.sentence in failed
            else:
                assert tag_sentences(model, document) == expected
        ids = model._compiled.document_ids(document)
        assert ids.shape[1] == sum(map(len, document))
        em = _kernels.sum_rows(model._rows, ids)
        ref = np.concatenate([model.reference_emission_matrix(sent.tokens)
                              for sent in document])
        assert em.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("sentences, cells, chunk", [
        (3, seqlabel.TAG_GROUP_CELLS, seqlabel.TAG_CHUNK_POSITIONS),
        (256, 40, 20), (3, 200, 50), (2, 1, 1)])
    def test_long_document_in_many_groups(self, monkeypatch, sentences, cells, chunk):
        # Thirty sentences of 1 to 12 tokens cross many chunk, gather and
        # group boundaries.
        rng = random.Random(11)
        m = random_linear_model(rng, ["A", "B", "C"])
        document = [random_form_sentence(rng, n=rng.randint(1, 12)) for _ in range(30)]
        monkeypatch.setattr(seqlabel, "TAG_GROUP_SENTENCES", sentences)
        monkeypatch.setattr(seqlabel, "TAG_GROUP_CELLS", cells)
        monkeypatch.setattr(seqlabel, "TAG_CHUNK_POSITIONS", chunk)
        assert tag_sentences(m, document) == [viterbi_decode(m, s)[0] for s in document]

    def test_empty_document(self, pos_model):
        assert tag_sentences(pos_model, []) == []
        assert tag_sentences(pos_model, [Sentence(())]) == [[]]

    def test_no_legal_sequence_names_the_sentence(self):
        # I-PER can neither start a sentence nor follow O.
        base = random_linear_model(random.Random(3), ["I-PER", "O"])
        m = LinearModel(base.labels, base.templates, base.feature_index,
                        base.emission_weights, base.transition_weights,
                        bio_constrained=True)
        only_inside = LinearModel(["I-PER"], base.templates, base.feature_index,
                                  base.emission_weights[:, :1],
                                  base.transition_weights[:2, :1],
                                  bio_constrained=True)
        assert tag_sentences(m, [sentence("xe"), sentence("máy")]) == [["O"], ["O"]]
        with pytest.raises(DecodeError, match="sentence 2") as exc:
            tag_sentences(only_inside, [Sentence(()), sentence("xe", "máy")])
        assert exc.value.sentence == 2


class TestCompiledFeatures:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(decoding_cases())
    def test_emissions_match_per_position_reference(self, case):
        model, sentences = case
        assert model._compiled is not None
        for sent in sentences:
            em = model.emission_matrix(sent.tokens)
            ref = model.reference_emission_matrix(sent.tokens)
            assert np.array_equal(em, ref)
            assert em.tobytes() == ref.tobytes()

    def test_conjunction_keys_rank_prefixes_past_int64(self):
        # 3,000 values and a six-atom template: radix ** 6 passes 2 ** 63,
        # so the key table ranks prefixes, and every lookup stays exact.
        rng = random.Random(17)
        pool = [f"w{k}" for k in range(2900)] + [f"p|q{k}" for k in range(100)]
        rng.shuffle(pool)
        seen = [sentence(*pool[k:k + 50]) for k in range(0, len(pool), 50)]
        templates = make_templates(["form@0", "form@-1&form@0",
                                    "form@-3&form@-2&form@-1&form@0&form@+1&form@+2"])
        index = {}
        for sent in seen:
            for i in range(len(sent)):
                for f in extract_features(templates, sent.tokens, i):
                    index.setdefault(f, len(index))
        weights = np.random.default_rng(3).integers(-9, 10, (len(index), 3)).astype(float)
        model = LinearModel(["A", "B", "C"], templates, index, weights, np.zeros((4, 3)))
        mixed = [sentence(*rng.sample(pool, 40)) for _ in range(10)]
        document = seen + mixed + [sentence(*(seen[0].column("form")[:7] + ("p|q", "w1")))]
        em = _kernels.sum_rows(model._rows, model._compiled.document_ids(document))
        ref = np.concatenate([model.reference_emission_matrix(s.tokens) for s in document])
        assert em.tobytes() == ref.tobytes()
        keys = model._compiled.keys
        assert keys.radix ** 6 * len(keys.kept) >= seqlabel._KEY_BOUND
        # Five digits of about 3,000 values fit; the sixth follows a rank.
        assert [[ranks is not None for ranks in plan] for plan in keys.plans] == \
            [[False, False], [False] * 5 + [True]]
        assert keys.keys.max() < seqlabel._KEY_BOUND

    def test_ranked_keys_fold_exactly_at_every_digit(self, monkeypatch, toy_ner_sentences):
        # With the bound at radix ** 2 * C, every conjunction ranks its
        # prefix before each digit after its first: at the second digit for
        # two atoms, at the second and third for three, beside lone
        # isfirst/islast templates that rank nowhere. Emissions of mostly
        # unseen forms and tags stay those of the feature strings.
        chosen = ner.ner_templates() + make_templates(["pos@-1&pos@0&pos@+1",
                                                       "isfirst@0&pos@0"])
        trained = ner.train_ner(ner.training_pairs(toy_ner_sentences), epochs=2,
                                templates=chosen)

        def fresh():
            return LinearModel(trained.labels, chosen, trained.feature_index,
                               trained.emission_weights, trained.transition_weights,
                               bio_constrained=True)

        keys = fresh()._compiled.keys
        assert all(ranks is None for plan in keys.plans for ranks in plan)
        monkeypatch.setattr(seqlabel, "_KEY_BOUND", keys.radix ** 2 * len(keys.kept))
        model = fresh()
        ranked = model._compiled.keys
        assert ranked.radix == keys.radix and ranked.kept == keys.kept
        plans = sorted([ranks is not None for ranks in plan] for plan in ranked.plans)
        assert plans == [[False]] * 2 + [[False, True]] * 5 + [[False, True, True]]
        rng = random.Random(29)
        known = [s.with_ner_labels([None] * len(s)) for s in toy_ner_sentences[:6]]
        unseen = []
        for _ in range(20):
            n = rng.randint(1, 9)
            unseen.append(Sentence.from_columns(
                [f"unseen{rng.randrange(10 ** 6)}" if rng.random() < 0.8 else rng.choice(FORMS)
                 for _ in range(n)],
                [rng.choice(POS_TAGS + ["Zz"]) for _ in range(n)]))
        document = known + unseen + [Sentence(())] + known[:1]
        em = _kernels.sum_rows(model._rows, model._compiled.document_ids(document))
        ref = np.concatenate([model.reference_emission_matrix(s.tokens) for s in document])
        assert em.tobytes() == ref.tobytes()
        assert em.any()

    def test_template_names_holding_equals_signs(self):
        # "c=d=e|f" is fired by template "c" over ("d=e", "f") and by
        # template "c=d" over ("e", "f"): the key table registers it for both.
        templates = [FeatureTemplate("c", "form@-1&form@0"),
                     FeatureTemplate("c=d", "form@0&form@+1")]
        index = {f: k for k, f in enumerate(
            extract_features(templates[:1], sentence("d=e", "f").tokens, 1))}
        assert index == {"c=d=e|f": 0}
        model = LinearModel(["A", "B"], templates, index, np.array([[1.0, -2.0]]),
                            np.zeros((3, 2)))
        for sent in (sentence("d=e", "f"), sentence("e", "f"), sentence("x", "e", "f")):
            em = model.emission_matrix(sent.tokens)
            assert em.tobytes() == model.reference_emission_matrix(sent.tokens).tobytes()
            assert em.any()

    def test_positional_template_sharing_a_name_with_a_form_template(self):
        # "c=1" is fired by isfirst@0 at a sentence's first position and by
        # form@0 on the form "1", "c=0" likewise: both templates resolve to
        # the same two ids, apart or at one position.
        templates = [FeatureTemplate("c", "isfirst@0"), FeatureTemplate("c", "form@0")]
        model = LinearModel(["A", "B"], templates, {"c=1": 0, "c=0": 1},
                            np.array([[1.0, -2.0], [0.25, 3.0]]), np.zeros((3, 2)))
        document = [sentence("1", "0"), sentence("0", "1", "0"), sentence("1"),
                    sentence("0"), sentence("x", "1")]
        for sent in document:
            em = model.emission_matrix(sent.tokens)
            assert em.tobytes() == model.reference_emission_matrix(sent.tokens).tobytes()
        em = _kernels.sum_rows(model._rows, model._compiled.document_ids(document))
        ref = np.concatenate([model.reference_emission_matrix(s.tokens) for s in document])
        assert em.tobytes() == ref.tobytes()

    def test_pairs_with_unknown_parts_rejected(self, tmp_path):
        m = random_linear_model(random.Random(3), ["A", "B"])
        with pytest.raises(ValueError, match="outside the feature alphabet"):
            LinearModel(m.labels, m.templates, m.feature_index, m.emission_weights,
                        m.transition_weights, induced_pairs=[("form@0=xe", "nope")])
        path = tmp_path / "pairs.bin"
        save_linear_model(LinearModel(m.labels, m.templates, m.feature_index,
                                      m.emission_weights, m.transition_weights,
                                      induced_pairs=[("form@0=xe", "form@0=em")]), path)
        path.write_bytes(path.read_bytes().replace(b'"form@0=em"', b'"nope"', 1))
        with pytest.raises(ModelLoadError, match="outside the feature alphabet"):
            load_model("pos", str(path))

    def test_cache_bounded_by_known_forms(self, pos_model, ner_model):
        rng = random.Random(5)
        for model in (pos_model, ner_model):
            known = {f.split("=", 1)[1] for f in model.feature_index
                     if f.startswith("form@")}
            forms = sorted(known - {seqlabel.BOUNDARY_LEFT, seqlabel.BOUNDARY_RIGHT})
            seen = Sentence(Token(i + 1, f, pos_tag="N") for i, f in enumerate(forms[:30]))
            model.emission_matrix(seen.tokens)
            compiled = model._compiled
            before = compiled.cache_size()
            assert before > 0
            for _ in range(200):
                forms = [f"unseen{rng.randrange(10 ** 6)}" for _ in range(rng.randint(1, 6))]
                s = Sentence(Token(i + 1, f, pos_tag="N") for i, f in enumerate(forms))
                model.emission_matrix(s.tokens)
            assert compiled.cache_size() == before
            assert set(compiled.columns["form"].cache) <= known
            rows = {attr: c.size for attr, c in compiled.columns.items()}
            unseen = [Sentence(Token(i + 1, f"unseen{rng.randrange(10 ** 6)}", pos_tag="N")
                               for i in range(rng.randint(0, 6))) for _ in range(50)]
            tag_sentences(model, unseen)
            assert compiled.cache_size() == before
            assert {attr: c.size for attr, c in compiled.columns.items()} == rows

    def test_concurrent_decoding_matches_serial(self, toy_pos_corpus, tmp_path):
        # Threads race to fill one fresh model's cache; every result must
        # still equal the serial one.
        path = tmp_path / "pos.model"
        save_linear_model(train_averaged_perceptron(
            make_templates(["form@0", "form@-1&form@0", "suffix2@+1"]),
            toy_pos_corpus, epochs=2), path)
        sentences = [sent for sent, _ in toy_pos_corpus] * 3
        expected = [viterbi_decode(load_linear_model(path), s) for s in sentences]
        model = load_linear_model(path)
        results = race(4, lambda k: [viterbi_decode(model, s) for s in sentences])
        assert results == [expected] * 4

    def test_concurrent_document_decoding_matches_serial(self, toy_pos_corpus, tmp_path):
        # Threads tag documents of the corpus in different orders, so each
        # one's first sight of a form races the others' table growth.
        path = tmp_path / "pos.model"
        save_linear_model(train_averaged_perceptron(
            make_templates(["form@0", "form@-1&form@0", "suffix2@+1", "prefix1@-1"]),
            toy_pos_corpus, epochs=2), path)
        sentences = [sent for sent, _ in toy_pos_corpus]
        documents = [sentences[k:k + 3] for k in range(0, len(sentences), 3)]
        expected = [tag_sentences(load_linear_model(path), doc) for doc in documents]
        model = load_linear_model(path)

        def work(k):
            order = documents[k:] + documents[:k] if k % 2 else documents[::-1]
            return [tag_sentences(model, doc) for doc in order]

        results = race(4, work)
        for k in range(4):
            order = expected[k:] + expected[:k] if k % 2 else expected[::-1]
            assert results[k] == order
        assert model._compiled.cache_size() > 0


def race(n, work):
    """work(k) of n threads started together, with a 1 microsecond switch interval."""
    results = [None] * n

    def run(k):
        results[k] = work(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return results
