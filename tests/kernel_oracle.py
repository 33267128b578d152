"""The one-sentence decode kernels as plain Python loops: a test oracle.

viterbi_path and row_sum make, one scalar at a time, the additions and
comparisons that the numpy kernels in sylpipe._kernels make on whole
arrays, so every kernel can be checked against them bit for bit.
"""

import numpy as np

from sylpipe._kernels import NEG_INF


def viterbi_path(emissions, transitions, start_trans):
    """(path, score) of the lattice, by a best-suffix DP and a readout.

    The readout picks the lowest label index at every decision, which makes
    the returned path the lexicographically smallest among the
    maximum-scoring ones.
    """
    T, L = emissions.shape
    path = np.empty(T, dtype=np.int64)
    beta = np.empty((T, L))
    for y in range(L):
        beta[T - 1, y] = emissions[T - 1, y]
    for i in range(T - 2, -1, -1):
        for y in range(L):
            best = NEG_INF
            for y2 in range(L):
                s = transitions[y, y2] + beta[i + 1, y2]
                if s > best:
                    best = s
            beta[i, y] = emissions[i, y] + best

    best = NEG_INF
    arg = 0
    for y in range(L):
        s = start_trans[y] + beta[0, y]
        if s > best:
            best = s
            arg = y
    path[0] = arg
    total = best
    for i in range(1, T):
        prev = path[i - 1]
        best = NEG_INF
        arg = 0
        for y in range(L):
            s = transitions[prev, y] + beta[i, y]
            if s > best:
                best = s
                arg = y
        path[i] = arg
    return path, total


def row_sum(weights, ids):
    """out[y] = sum over ids of weights[id, y], added in id order from +0.0."""
    L = weights.shape[1]
    out = np.zeros(L)
    for k in range(ids.shape[0]):
        row = ids[k]
        for y in range(L):
            out[y] += weights[row, y]
    return out


def pack_rows(rows):
    """Pack per-position id lists for sum_rows: a (K, T) id array padded with -1.

    Column t holds the ids of position t in the given order, then padding.
    """
    K = max(map(len, rows), default=0)
    packed = np.full((len(rows), K), -1, dtype=np.intp)
    for t, row in enumerate(rows):
        packed[t, :len(row)] = row
    return packed.T
