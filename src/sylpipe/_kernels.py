"""Dense decode kernels in numpy, one per job.

sum_rows gathers the emission or transition scores of many positions at
once, and viterbi_paths decodes many lattices at once; the annotation
pipeline calls both on whole documents. viterbi_path, viterbi_paths of one
lattice, keeps its name for its callers: the tagger trainers,
seqlabel.viterbi_decode, the test oracles and perfbench/tracing.py. The
parser trainer scores and masks all states of a sentence after its last
update in one sum_rows gather. Both trainers and the taggers' decode pack
their ids into sum_rows' layout with pack_ids. row_sum, the sum for one
position or state, is a one-column sum_rows: the string-path reference
(seqlabel's reference_emission_matrix) calls it, and perfbench/tracing.py
looks it up by name. The plain loops in tests/kernel_oracle.py pin every
kernel bit for bit.

Every weight array that sum_rows reads ends in a row of zeros, which the
padding id -1 reads, so a decode step is one gather and one sum, with no
masking pass. A partial sum from +0.0 is never -0.0, so adding a +0.0 row
leaves it unchanged. The parser puts its action legality into the same
array: after its feature rows come one row per kind of state, 0.0 at a
legal action and -inf at an illegal one, and each state adds its row last.
The models bound every weight by 2**53 (a trainer's by its update count),
so no sum is +inf and each masked score is the sum itself or exactly -inf.

viterbi_paths reads the batch as one time-major (T, B, 1, L) lattice with
the lattices end-aligned: a reshaped view of the emissions when they all
have the same length, one zero-padded copy otherwise. The padding before a
short lattice never feeds the suffix scores of its real positions. Each
backward step is one (B, L, L) add, one argmax, kept as a flat Python list
of back-pointers, and one gather of the maxima at the argmax; each path is
read from its lattice's first column by following the back-pointers in
Python, with no numpy call per position. So a batch of one costs about what
a one-lattice kernel would, and the trainers need no second kernel.

The maximum of a step is the value at its first maximum, the one its argmax
keeps, gathered there, which is also cheaper than a second reduction over
the short last axis; the oracle loop keeps the same value by comparing with
>. Only tied signed zeros tell this apart from a max(), whose choice among
them numpy leaves open.
"""

from __future__ import annotations

import functools

import numpy as np

NEG_INF = float("-inf")

BACKEND = "numpy"


def viterbi_path(emissions, transitions, start_trans):
    """viterbi_paths of the one (T, L) lattice: its (path, score); T == 0 gives
    an empty path and 0.0."""
    if len(emissions) == 0:
        return np.empty(0, dtype=np.int64), 0.0
    return viterbi_paths(emissions, (len(emissions),), transitions, start_trans)[0]


def viterbi_paths(emissions, lengths, transitions, start_trans):
    """Return a (path, score) for each masked lattice.

    emissions holds the (T, L) lattices one after another, with -inf at
    illegal (position, label) pairs, and lengths their T (each at least 1).
    transitions (L, L) and start_trans (L,), the scores after the virtual
    start label, are shared, with -inf at illegal label bigrams and first
    labels. Among the maximum-scoring label sequences of a lattice the
    lexicographically smallest one (by label index) is returned; a -inf
    score means no legal sequence exists.
    """
    B = len(lengths)
    T = max(lengths)
    L = emissions.shape[1]
    if min(lengths) == T:
        em = emissions.reshape(B, T, 1, L).transpose(1, 0, 2, 3)
    else:
        em = np.zeros((T, B, 1, L))
        row = 0
        for b, n in enumerate(lengths):
            em[T - n:, b, 0] = emissions[row:row + n]
            row += n
    cells = _step_cells(B, L)
    # Each step's argmax is written into arg: its (B, 1, L) view arg3
    # gathers the maxima straight into beta's shape, and its flat view is
    # kept as one list a step.
    arg = np.empty((B, L), dtype=np.intp)
    arg3 = arg.reshape(B, 1, L)
    flat = arg.ravel()
    # beta[b, 0, y]: the best score of lattice b's suffix from the current
    # column with label y, kept in tops[n] at column T - n, where the
    # lattices of length n start; back[k][b * L + y]: the label after y at
    # column T - 2 - k on that suffix.
    beta = em[T - 1]
    tops = {1: beta}
    starts = set(lengths)  # the n of tops
    back = []
    for i in range(T - 2, -1, -1):
        step = transitions + beta  # step[b, y, y2]
        step.argmax(axis=2, out=arg)
        back.append(flat.tolist())
        beta = em[i] + step.ravel()[cells + arg3]
        if T - i in starts:
            tops[T - i] = beta
    out = []
    for b, n in enumerate(lengths):
        first = start_trans + tops[n][b, 0]
        y = int(first.argmax())
        score = float(first[y])
        path = [y]
        row = b * L
        for after in reversed(back[:n - 1]):
            y = after[row + y]
            path.append(y)
        out.append((np.array(path, dtype=np.int64), score))
    return out


@functools.lru_cache(maxsize=256)
def _step_cells(B, L):
    """(B, 1, L) flat offsets of the rows of a (B, L, L) step: adding a row's
    argmax gives the flat index of the maximum it picks. Shared, so read-only."""
    cells = (np.arange(B * L) * L).reshape(B, 1, L)
    cells.flags.writeable = False
    return cells


def row_sum(weights, ids, out=None):
    """Sum the `ids` rows of `weights` into a length-L vector, in id order
    from +0.0: a one-column sum_rows, written into out if it is given."""
    total = sum_rows(weights, np.asarray(ids, dtype=np.intp)[:, None])[0]
    if out is None:
        return total
    out[:] = total
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
    sum_rows adds them in, with -1 in place of a repeat and as padding; the
    columns of padding that every row starts with are dropped: once the rows
    are sorted, the column maxima ascend, and those columns' are below 0.
    Sorts ids in place and returns a transposed view of it: sum_rows reads
    any strides, and a contiguous copy measured slower at decode and no
    faster in the trainers.
    """
    ids.sort(axis=1)
    if len(ids):
        ids = ids[:, np.maximum.reduce(ids, axis=0).searchsorted(0):]
    after = ids[:, 1:]
    after[after == ids[:, :-1]] = -1
    return ids.T


def sum_rows(weights, packed):
    """(T, L) array whose row t sums the rows of weights at the ids of
    position t, in their order from +0.0, as tests/kernel_oracle.py adds.

    weights ends in a row of zeros. packed is (K, T): column t holds the
    ids of position t in the order they are added, and -1 as padding,
    which may sit anywhere in the column and reads the zero row. One gather
    into a (K, T, L) array, summed over K: numpy adds the K slices in order
    from a +0.0 start, and each padding slot adds +0.0, which leaves a
    partial sum from +0.0 unchanged. (np.add.reduceat would be faster but
    is not exact.) When T == L == 1 the slices are single numbers that
    numpy would sum pairwise, so L == 1 takes a cumulative sum, which is
    sequential (see _sequential_sum).
    """
    gathered = weights[packed]
    if weights.shape[1] == 1:
        return _sequential_sum(gathered)
    return gathered.sum(axis=0)
