"""The taggers' and the parser's perceptron trainers as they were before
they stopped at their fixed point: a test oracle.

Copied verbatim from the last versions of sylpipe.seqlabel
(train_averaged_perceptron, _train, _induce_pairs) and of
sylpipe.depparse.train_parser that scored every instance in every epoch,
so the trainers that skip the epochs after one with no update can be
checked against them. They freeze their alphabets from the feature strings
of every position and state (extract_features, state_features), so they
are also the oracle of the trainers' freeze from interned value ids.
pack_rows, which only they use, lives in kernel_oracle.
"""

import numpy as np

from kernel_oracle import pack_rows
from sylpipe import _kernels
from sylpipe._kernels import NEG_INF
from sylpipe.depparse import (ParserModel, ParserState, _actions, _legal_action_mask,
                              is_projective, logger, projectivize, state_features,
                              static_oracle)
from sylpipe.linear import AveragedWeights, epoch_orders
from sylpipe.seqlabel import (LinearModel, TrainingError, _index_pairs, _sentence_of,
                              bio_transition_mask, extract_features)


def train_averaged_perceptron(templates, corpus, epochs=5, shuffle_seed=None,
                              bio_constrained=False, gazetteer=None,
                              combine_top_k=0, on_epoch=None):
    """Averaged structured perceptron over (sentence, gold labels) pairs.

    Deterministic given corpus order, shuffle_seed and epochs. shuffle_seed
    None keeps corpus order; otherwise each epoch reshuffles with one seeded
    generator. combine_top_k > 0 first runs one probe epoch, promotes the
    top-K feature pairs co-firing at mistaken positions to conjunction
    features, then restarts training with the augmented feature space.
    """
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    label_set = set()
    for sent, gold in corpus:
        if len(sent) != len(gold):
            raise TrainingError("gold label count does not match sentence length")
        label_set.update(gold)
    if not label_set:
        raise TrainingError("training corpus has no labeled tokens")
    labels = sorted(label_set)

    induced = ()
    if combine_top_k > 0:
        induced = _induce_pairs(templates, corpus, labels, bio_constrained,
                                gazetteer, combine_top_k)

    return _train(templates, corpus, labels, epochs, shuffle_seed,
                  bio_constrained, gazetteer, induced, on_epoch)


def _train(templates, corpus, labels, epochs, shuffle_seed, bio_constrained,
           gazetteer, induced_pairs, on_epoch, collect_error_pairs=None):
    L = len(labels)
    label_index = {lab: i for i, lab in enumerate(labels)}
    resources = {"gazetteer": frozenset(gazetteer)} if gazetteer is not None else None
    induced_index = _index_pairs(induced_pairs)

    # Freeze the feature alphabet with one pass over the corpus.
    feature_index = {}
    feats_by_sentence = []
    ids_by_sentence = []
    packed_by_sentence = []
    golds = []
    for sent, gold in corpus:
        tokens = _sentence_of(sent).tokens
        sent_feats = []
        sent_ids = []
        for i in range(len(tokens)):
            feats = extract_features(templates, tokens, i, resources, induced_index)
            sent_feats.append(feats)
            sent_ids.append(sorted({feature_index.setdefault(f, len(feature_index))
                                    for f in feats}))
        feats_by_sentence.append(sent_feats)
        packed_by_sentence.append(pack_rows(sent_ids))
        ids_by_sentence.append([np.asarray(r, dtype=np.int64) for r in sent_ids])
        golds.append(np.asarray([label_index[g] for g in gold], dtype=np.int64))

    emissions = AveragedWeights(len(feature_index), np.zeros((1, L)))
    transitions = AveragedWeights(L + 1, np.zeros((0, L)))
    start = L
    mask = bio_transition_mask(labels) if bio_constrained else None

    step = 0
    for epoch, order in enumerate(epoch_orders(len(corpus), epochs, shuffle_seed), 1):
        correct = 0
        total = 0
        mistakes = 0
        for si in order:
            ids = ids_by_sentence[si]
            gold = golds[si]
            T = len(gold)
            step += 1
            if T == 0:
                continue
            em = _kernels.sum_rows(emissions.W, packed_by_sentence[si])
            trans = transitions.W[:L].copy()
            st = transitions.W[start].copy()
            if mask is not None:
                trans[~mask[:L]] = NEG_INF
                st[~mask[start]] = NEG_INF
            pred, _ = _kernels.viterbi_path(em, trans, st)
            total += T
            correct += int(np.sum(pred == gold))
            if np.array_equal(pred, gold):
                continue
            mistakes += 1
            for i in range(T):
                g = gold[i]
                p = pred[i]
                if g != p:
                    if collect_error_pairs is not None:
                        feats = feats_by_sentence[si][i]
                        for a_i in range(len(feats)):
                            for b_i in range(a_i + 1, len(feats)):
                                a, b = feats[a_i], feats[b_i]
                                pair = (a, b) if a <= b else (b, a)
                                collect_error_pairs[pair] = collect_error_pairs.get(pair, 0) + 1
                    emissions.update((ids[i], g), (ids[i], p), step)
                pg = gold[i - 1] if i else start
                pp = pred[i - 1] if i else start
                if (pg, g) != (pp, p):
                    transitions.update((pg, g), (pp, p), step)
        if on_epoch is not None:
            on_epoch(epoch, mistakes, correct / total if total else 1.0)

    return LinearModel(labels, templates, feature_index, emissions.averaged(step),
                       transitions.averaged(step),
                       bio_constrained=bio_constrained, induced_pairs=induced_pairs,
                       gazetteer=gazetteer)


def _induce_pairs(templates, corpus, labels, bio_constrained, gazetteer, top_k):
    counts = {}
    _train(templates, corpus, labels, epochs=1, shuffle_seed=None,
           bio_constrained=bio_constrained, gazetteer=gazetteer,
           induced_pairs=(), on_epoch=None, collect_error_pairs=counts)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(pair for pair, _ in ranked[:top_k])



def train_parser(treebank, epochs=10, shuffle_seed=1, use_ner_features=False,
                 nonprojective="skip", on_epoch=None):
    """Averaged perceptron over static-oracle transition sequences.

    Non-projective sentences are skipped (default) or pseudo-projectivized
    by head-lifting when nonprojective="lift"; the skip count is logged.
    """
    treebank = [s for s in treebank if len(s)]
    if not treebank:
        raise TrainingError("treebank is empty")
    if nonprojective not in ("skip", "lift"):
        raise ValueError(f"bad nonprojective mode {nonprojective!r}")
    if use_ner_features:
        for sent in treebank:
            if None in sent.column("ner_label"):
                raise TrainingError("use_ner_features needs NER labels on every "
                                    "training token")
    for sent in treebank:
        if None in sent.column("head") or None in sent.column("dep_label"):
            raise TrainingError("treebank sentence with unset heads or relations")
        if None in sent.column("pos_tag"):
            raise TrainingError("treebank sentence with unset POS tags")

    usable = []
    skipped = 0
    for sent in treebank:
        if is_projective(sent.column("head")):
            usable.append(sent)
            continue
        if nonprojective == "lift":
            lifted = projectivize(sent)
            if lifted is not None:
                usable.append(lifted)
                continue
        skipped += 1
    if skipped:
        logger.info("skipped %d non-projective sentence(s) out of %d",
                    skipped, len(treebank))
    if not usable:
        raise TrainingError("no projective sentences left to train on")

    relations = sorted({rel for sent in usable for rel in sent.column("dep_label")})
    root_counts = {}
    for sent in usable:
        for head, rel in zip(sent.column("head"), sent.column("dep_label")):
            if head == 0:
                root_counts[rel] = root_counts.get(rel, 0) + 1
    root_labels = tuple(sorted(root_counts))
    root_label = max(sorted(root_counts), key=lambda r: root_counts[r])

    # Replay each gold sequence once, freezing features, masks and gold
    # action ids per decision point.
    action_index = {a: i for i, a in enumerate(_actions(relations))}
    feature_index = {}
    per_sentence = []
    for sent in usable:
        seq = static_oracle(sent)
        state = ParserState(len(sent))
        tokens = sent.tokens
        steps = []
        for transition in seq:
            ids = {feature_index.setdefault(f, len(feature_index))
                   for f in state_features(state, tokens, use_ner_features)}
            mask = _legal_action_mask(state, len(relations), root_labels,
                                      action_index)
            steps.append((np.asarray(sorted(ids), dtype=np.int64), mask,
                          action_index[transition]))
            state.apply(transition)
        per_sentence.append(steps)

    weights = AveragedWeights(len(feature_index), np.zeros((0, len(action_index))))
    step = 0
    for epoch, order in enumerate(epoch_orders(len(per_sentence), epochs, shuffle_seed), 1):
        correct = 0
        total = 0
        for si in order:
            for ids, mask, gold_a in per_sentence[si]:
                step += 1
                scores = _kernels.row_sum(weights.W, ids)
                scores[~mask] = NEG_INF
                pred = int(np.argmax(scores))
                total += 1
                if pred == gold_a:
                    correct += 1
                    continue
                weights.update((ids, gold_a), (ids, pred), step)
        if on_epoch is not None:
            on_epoch(epoch, total - correct, correct / total if total else 1.0)

    return ParserModel(relations, feature_index, weights.averaged(step),
                       use_ner_features=use_ner_features,
                       root_labels=root_labels, root_label=root_label)
