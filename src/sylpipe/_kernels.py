"""Dense decode kernels in numpy, one per job.

The annotation pipeline decodes in batches: sum_rows gathers the emission
or transition scores of many positions at once, and viterbi_paths decodes
many lattices at once. The tagger trainers decode one sentence at a time
with viterbi_path; the parser trainer scores and masks all states of a
sentence after its last update in one sum_rows gather. Both trainers and
the taggers' decode pack their ids into sum_rows' layout with pack_ids.
row_sum, the sum for one position or state, stays: the string-path
reference (seqlabel's reference_emission_matrix) calls it,
perfbench/tracing.py looks it up by name, and on a single row it is faster
than a one-column sum_rows. row_sum and sum_rows add the rows in id order
from a +0.0 start, and viterbi_path and viterbi_paths make the same
additions on the same operands, so each batch kernel equals its
one-sentence kernel bit for bit for any weights, float weights included.
The plain loops in tests/kernel_oracle.py pin both.

Every weight array that sum_rows reads ends in a row of zeros, which the
padding id -1 reads, so a decode step is one gather and one sum, with no
masking pass. A partial sum from +0.0 is never -0.0, so adding a +0.0 row
leaves it unchanged. The parser puts its action legality into the same
array: after its feature rows come one row per kind of state, 0.0 at a
legal action and -inf at an illegal one, and each state adds its row last.
The models bound every weight by 2**53 (a trainer's by its update count),
so no sum is +inf and each masked score is the sum itself or exactly -inf.

Both Viterbi kernels compute suffix scores backwards, keep each step's
argmax as back-pointers, and read the path forwards by following them, so
no step is scored twice.

Every Viterbi kernel takes the maximum of a step as the value at its first
maximum, the one its argmax keeps, by gathering it at the argmax, which is
also cheaper than a second reduction over the short last axis; the oracle
loop keeps the same value by comparing with >. Only tied signed zeros tell
this apart from a max(), whose choice among them numpy leaves open.

viterbi_paths end-aligns the lattices in one zero-padded (B, T, L) array.
Each step takes one argmax over a (B, L, L) array and gathers its maxima;
the padding before a short lattice never feeds the suffix scores of its
real positions. Its sums are those of viterbi_path, so each path and score
equals viterbi_path's bit for bit, ties, signed zeros and -inf masks
included.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")

BACKEND = "numpy"


def viterbi_path(emissions, transitions, start_trans):
    """Return (path, score) for the masked lattice.

    emissions: (T, L) with -inf at illegal (position, label) pairs.
    transitions: (L, L) with -inf at illegal label bigrams.
    start_trans: (L,) scores for the virtual start label, -inf where illegal.

    Among maximum-scoring label sequences the lexicographically smallest one
    (by label index) is returned. A -inf score means no legal sequence exists.

    The backward pass keeps each step's argmax as back-pointers, and the path
    is read by following them from the best first label, as viterbi_paths
    reads its paths: the argmax a readout would take at position i is the
    one taken over the same row when the suffix scores of position i - 1
    were computed.
    """
    T, L = emissions.shape
    if T == 0:
        return np.empty(0, dtype=np.int64), 0.0
    # beta: the best score of the suffix from the current position, by its
    # label; back: per step, from the last one, the label that follows each
    # label on that suffix.
    beta = emissions[T - 1]
    back = []
    rows = np.arange(L)
    for i in range(T - 2, -1, -1):
        step = transitions + beta
        arg = step.argmax(axis=1)
        back.append(arg.tolist())
        beta = emissions[i] + step[rows, arg]
    first = start_trans + beta
    y = int(first.argmax())
    score = float(first[y])
    path = [y]
    for arg in reversed(back):
        y = arg[y]
        path.append(y)
    return np.array(path, dtype=np.int64), score


def viterbi_paths(emissions, lengths, transitions, start_trans):
    """viterbi_path of several lattices at once: a list of (path, score).

    emissions holds the (T, L) lattices one after another, lengths their T
    (each at least 1); transitions and start_trans are shared. Each result
    equals viterbi_path's, bit for bit.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    B = len(lengths)
    T = int(lengths.max())
    L = emissions.shape[1]
    first = T - lengths  # column of each lattice's first position
    starts = np.cumsum(lengths) - lengths  # row of it in emissions
    batch = np.arange(B)
    em = np.zeros((B, T, L))
    em[np.repeat(batch, lengths),
       np.arange(len(emissions)) + np.repeat(first - starts, lengths)] = emissions
    # beta[b, i, y]: best score of lattice b's suffix from column i with label y;
    # back[b, i, y]: the label after y at column i + 1 on that suffix.
    beta = np.empty((B, T, L))
    back = np.empty((B, T, L), dtype=np.intp)
    beta[:, T - 1] = em[:, T - 1]
    cells = np.arange(B * L)
    for i in range(T - 2, -1, -1):
        # Row (b, y) of step holds transitions[y] + beta[b, i + 1].
        step = (transitions + beta[:, i + 1, None, :]).reshape(B * L, L)
        arg = step.argmax(axis=1)
        back[:, i] = arg.reshape(B, L)
        beta[:, i] = em[:, i] + step[cells, arg].reshape(B, L)
    scores = start_trans + beta[batch, first]
    y = scores.argmax(axis=1)
    scores = scores[batch, y]
    # The last padding column of a lattice leads to its first label.
    padded = first > 0
    back[padded, first[padded] - 1] = y[padded, None]
    paths = np.empty((B, T), dtype=np.intp)
    paths[:, 0] = y
    for i in range(1, T):
        y = back[batch, i - 1, y]
        paths[:, i] = y
    return [(paths[b, first[b]:], float(scores[b])) for b in range(B)]


def row_sum(weights, ids, out=None):
    """Sum the `ids` rows of `weights` into a length-L vector, in id order from +0.0.

    Summing (k, L) over axis 0 adds the k rows in order from +0.0 when
    L > 1; a single column would be summed pairwise, so L == 1 takes a
    cumulative sum, which is sequential (see _sequential_sum).
    """
    if out is None:
        out = np.empty(weights.shape[1])
    if weights.shape[1] == 1:
        out[:] = _sequential_sum(weights[ids])
    else:
        np.sum(weights[ids], axis=0, out=out)
    return out


def _sequential_sum(stack):
    """stack summed over axis 0 in order from a +0.0 start, as the loop in
    tests/kernel_oracle.py adds.

    A cumulative sum starts from the first slice instead; its partial sums
    equal those from +0.0 except that a zero may be -0.0, and the final
    + 0.0 turns that into +0.0. An empty stack sums to zeros.
    """
    if len(stack) == 0:
        return np.zeros(stack.shape[1:])
    return np.cumsum(stack, axis=0)[-1] + 0.0


def pack_ids(ids):
    """Pack an (N, W) array of feature ids, -1 where none, for sum_rows: (K, N).

    Column n holds the distinct ids of row n in ascending order, the order
    row_sum is given them, with -1 in place of a repeat and as padding; the
    columns of padding that every row starts with are dropped: once the rows
    are sorted, the column maxima ascend, and those columns' are below 0.
    Sorts ids in place and returns a transposed view of it: sum_rows reads
    any strides, and a contiguous copy measured slower at decode and no
    faster in the trainers.
    """
    ids.sort(axis=1)
    if len(ids):
        ids = ids[:, int(np.searchsorted(ids.max(axis=0), 0)):]
    ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = -1
    return ids.T


def sum_rows(weights, packed):
    """(T, L) array whose row t is row_sum(weights, ids of position t), bit for bit.

    weights ends in a row of zeros. packed is (K, T): column t holds the
    ids of position t in the order row_sum is given them, and -1 as
    padding, which may sit anywhere in the column and reads the zero row.
    One gather into a (K, T, L) array, summed over K: numpy adds the K
    slices in order from a +0.0 start, as row_sum does, and each padding
    slot adds +0.0, which leaves a partial sum from +0.0 unchanged.
    (np.add.reduceat would be faster but is not exact.) When T == L == 1
    the slices are single numbers that numpy would sum pairwise, so L == 1
    takes the cumulative sum that row_sum uses.
    """
    gathered = weights[packed]
    if weights.shape[1] == 1:
        return _sequential_sum(gathered)
    return gathered.sum(axis=0)
