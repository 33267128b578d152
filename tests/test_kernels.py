import numpy as np
import pytest

import kernel_oracle as oracle
from sylpipe import _kernels


def random_lattice(rng, T, L, integer=True):
    if integer:
        em = rng.integers(-5, 6, size=(T, L)).astype(np.float64)
        tr = rng.integers(-5, 6, size=(L, L)).astype(np.float64)
        st = rng.integers(-5, 6, size=L).astype(np.float64)
    else:
        em = rng.standard_normal((T, L))
        tr = rng.standard_normal((L, L))
        st = rng.standard_normal(L)
    return em, tr, st


def test_backend_active():
    assert _kernels.BACKEND == "numpy"


@pytest.mark.parametrize("L", [1, 2, 24])
def test_numpy_row_sum_adds_in_id_order(L):
    # row_sum must add exactly as the oracle loop does: in the given id
    # order from +0.0, for float weights of mixed magnitudes. sum_rows must
    # equal row_sum wherever its -1 padding sits, which reads the trailing
    # zero row, and with no ids at all (K == 0).
    rng = np.random.default_rng(L)
    W = rng.standard_normal((300, L)) * 10.0 ** rng.integers(-6, 7, (300, 1))
    W[0] = -0.0
    W = np.vstack([W, np.zeros((1, L))])
    cases = [[[0]], [[0, 0], [0, 0]], [[], [0]],  # sums of -0.0 rows only
             [[]], [[], [], []]]  # no ids: K == 0
    for _ in range(100):
        cases.append([rng.integers(0, 300, size=int(rng.integers(0, 30))).tolist()
                      for _ in range(int(rng.integers(1, 5)))])
    for rows in cases:
        expected = np.zeros((len(rows), L))
        for t, ids in enumerate(rows):
            ids = np.asarray(ids, dtype=np.int64)
            expected[t] = oracle.row_sum(W, ids)
            assert _kernels.row_sum(W, ids).tobytes() == expected[t].tobytes()
        packed = oracle.pack_rows(rows)
        if not any(rows):
            assert packed.shape[0] == 0
        assert _kernels.sum_rows(W, packed).tobytes() == expected.tobytes()
        # The same ids with the padding moved to the front of each column.
        front = np.array([sorted(col, key=lambda j: j >= 0) for col in packed.T],
                         dtype=np.intp).T
        front = front.reshape(packed.shape)
        assert _kernels.sum_rows(W, front).tobytes() == expected.tobytes()


def test_pack_ids_sorts_and_drops_repeats():
    # Each column keeps its row's distinct ids in ascending order, the
    # order row_sum adds them in; padding and repeats become -1.
    rng = np.random.default_rng(7)
    W = np.vstack([rng.standard_normal((12, 5)), np.zeros((1, 5))])
    ids = rng.integers(-1, 12, size=(60, 7))
    ids[:, :2] = -1  # padding every row starts with is dropped
    rows = [sorted(set(row) - {-1}) for row in ids.tolist()]
    sorted_ids = ids.copy()
    packed = _kernels.pack_ids(sorted_ids)
    assert packed.shape[0] <= 5 and np.shares_memory(packed, sorted_ids)
    assert [col[col >= 0].tolist() for col in packed.T] == rows
    assert _kernels.sum_rows(W, packed).tobytes() == \
        _kernels.sum_rows(W, oracle.pack_rows(rows)).tobytes()
    assert _kernels.pack_ids(np.empty((0, 3), dtype=np.intp)).shape == (3, 0)
    # Exactly the columns of padding that every row starts with are dropped.
    for padding in (3, 0):
        ids = rng.integers(0, 12, size=(60, 7))
        ids[:, :padding] = -1
        rows = [sorted(set(row) - {-1}) for row in ids.tolist()]
        packed = _kernels.pack_ids(ids)
        assert packed.shape == (7 - padding, 60)
        assert [col[col >= 0].tolist() for col in packed.T] == rows


def test_viterbi_masked_scores():
    # -inf entries are never chosen while a finite path exists
    em = np.array([[0.0, _kernels.NEG_INF], [0.0, 5.0]])
    tr = np.zeros((2, 2))
    st = np.zeros(2)
    path, score = _kernels.viterbi_path(em, tr, st)
    assert list(path) == [0, 1]
    assert score == 5.0


def test_viterbi_all_illegal_is_neg_inf():
    em = np.full((2, 2), _kernels.NEG_INF)
    tr = np.zeros((2, 2))
    st = np.zeros(2)
    _, score = _kernels.viterbi_path(em, tr, st)
    assert score == _kernels.NEG_INF


@pytest.mark.parametrize("integer", [True, False])
def test_viterbi_paths_equal_one_lattice_at_a_time(integer):
    # The batch and viterbi_path must both return the oracle loop's path
    # and score for every lattice, bit for bit, for integer weights, which
    # force ties, and for float weights. -inf masks include lattices with
    # no legal path at all. Label counts go past the trainers' (11 POS tags
    # and 6 NER labels on the toy corpora), and every other case has
    # lattices of up to 30 positions, which pins the back-pointer readout
    # over long paths.
    rng = np.random.default_rng(int(integer))
    for k in range(300):
        L = int(rng.integers(1, 13))
        lengths = rng.integers(1, 31 if k % 2 else 8, size=int(rng.integers(1, 7)))
        lattices = [random_lattice(rng, T, L, integer)[0] for T in lengths]
        _, tr, st = random_lattice(rng, 1, L, integer)
        if k % 3 == 0:
            tr[rng.random((L, L)) < 0.4] = _kernels.NEG_INF
            st[rng.random(L) < 0.3] = _kernels.NEG_INF
            for em in lattices:
                em[rng.random(em.shape) < 0.2] = _kernels.NEG_INF
        batch = _kernels.viterbi_paths(np.concatenate(lattices), lengths, tr, st)
        for em, (path, score) in zip(lattices, batch):
            expected_path, expected = oracle.viterbi_path(em, tr, st)
            one_path, one_score = _kernels.viterbi_path(em, tr, st)
            assert np.array_equal(path, expected_path)
            assert np.array_equal(one_path, expected_path)
            assert np.float64(score).tobytes() == np.float64(expected).tobytes()
            assert np.float64(one_score).tobytes() == np.float64(expected).tobytes()


def test_viterbi_empty_lattice():
    path, score = _kernels.viterbi_path(np.zeros((0, 3)), np.zeros((3, 3)),
                                        np.zeros(3))
    assert len(path) == 0 and score == 0.0


def test_row_sum_empty_ids():
    out = _kernels.row_sum(np.ones((4, 3)), np.empty(0, dtype=np.int64))
    assert np.array_equal(out, np.zeros(3))


def test_row_sum_values():
    W = np.arange(12, dtype=np.float64).reshape(4, 3)
    out = _kernels.row_sum(W, np.array([0, 2], dtype=np.int64))
    assert np.array_equal(out, W[0] + W[2])


def test_viterbi_kernels_keep_the_value_at_the_first_maximum():
    # Tied +0.0 and -0.0 are the only equal maxima whose value depends on
    # which entry is taken. Every kernel takes the one at its argmax, the
    # first maximum, as the plain loop does, so the scores agree bit for bit.
    rng = np.random.default_rng(5)
    entries = np.array([0.0, -0.0, 0.0, -0.0, 1.0, _kernels.NEG_INF])
    signs = set()
    for _ in range(400):
        L = int(rng.integers(1, 5))
        lengths = rng.integers(1, 6, size=int(rng.integers(1, 6)))
        lattices = [rng.choice(entries, size=(T, L)) for T in lengths]
        tr = rng.choice(entries, size=(L, L))
        st = rng.choice(entries, size=L)
        batch = _kernels.viterbi_paths(np.concatenate(lattices), lengths, tr, st)
        for em, (path, score) in zip(lattices, batch):
            expected, loop_score = oracle.viterbi_path(em, tr, st)
            one_path, one_score = _kernels.viterbi_path(em, tr, st)
            assert np.array_equal(path, expected) and np.array_equal(one_path, expected)
            assert np.float64(score).tobytes() == np.float64(loop_score).tobytes()
            assert np.float64(one_score).tobytes() == np.float64(loop_score).tobytes()
            if score == 0.0:
                signs.add(np.signbit(score))
    assert signs == {False, True}
