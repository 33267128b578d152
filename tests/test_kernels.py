import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def integer_weights(rng, rows, L):
    """Integer weights of mixed magnitudes, below 1e14 in magnitude: a sum
    of up to 90 of them stays within 2**53, as a model's do
    (linear.check_weights)."""
    return (rng.integers(-1000, 1001, (rows, L))
            * 10.0 ** rng.integers(0, 12, (rows, 1)))


@pytest.mark.parametrize("L", [1, 2, 24])
def test_numpy_row_sum_adds_in_id_order(L):
    # row_sum must equal the oracle loop, which adds in the given id order
    # from +0.0, for integer weights of mixed magnitudes. sum_rows must
    # equal row_sum wherever its -1 padding sits, which reads the trailing
    # zero row, and with no ids at all (K == 0).
    rng = np.random.default_rng(L)
    W = integer_weights(rng, 300, L)
    W[0] = 0.0
    W = np.vstack([W, np.zeros((1, L))])
    cases = [[[0]], [[0, 0], [0, 0]], [[], [0]],  # sums of zero rows only
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_rows_of_integer_weights_is_exact_in_any_order(data):
    # Integer weights whose sums stay within 2**53 add exactly in any order:
    # sum_rows equals the oracle loop over each column's ids shuffled.
    L = data.draw(st.integers(1, 6))
    K = data.draw(st.integers(1, 12))
    F = data.draw(st.integers(1, 20))
    bound = 2 ** 53 // K
    W = np.array(data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=L,
                                             max_size=L), min_size=F, max_size=F)),
                 dtype=np.float64)
    W = np.vstack([W, np.zeros((1, L))])
    columns = data.draw(st.lists(st.lists(st.integers(-1, F - 1), min_size=K,
                                          max_size=K), min_size=1, max_size=6))
    got = _kernels.sum_rows(W, np.array(columns, dtype=np.intp).T)
    for t, column in enumerate(columns):
        ids = np.array(data.draw(st.permutations(column)), dtype=np.intp)
        assert got[t].tobytes() == oracle.row_sum(W, ids).tobytes()


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


def assert_oracle_paths(lattices, result, tr, st):
    assert len(result) == len(lattices)
    for em, (path, score) in zip(lattices, result):
        expected_path, expected = oracle.viterbi_path(em, tr, st)
        assert path.dtype == np.int64 and np.array_equal(path, expected_path)
        assert np.float64(score).tobytes() == np.float64(expected).tobytes()


def tied_lattices(rng, lengths, L):
    # Few distinct entries force ties, both signed zeros and -inf masks.
    entries = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.0, _kernels.NEG_INF])
    lattices = [rng.choice(entries, size=(T, L)) for T in lengths]
    return lattices, rng.choice(entries, size=(L, L)), rng.choice(entries, size=L)


@pytest.mark.parametrize("layout", ["equal", "ragged"])
def test_viterbi_paths_layouts_equal_the_oracle(layout):
    # A batch of lattices of one length is decoded through a time-major view
    # of emissions, a batch of mixed lengths through one end-aligned padded
    # copy. Both must return the oracle's paths and scores bit for bit and
    # leave emissions as they were.
    rng = np.random.default_rng(11 if layout == "equal" else 12)
    for k in range(300):
        L = int(rng.integers(1, 13))
        B = int(rng.integers(2, 8))
        if layout == "equal":
            lengths = [int(rng.integers(1, 25))] * B
        else:
            lengths = rng.integers(1, 25, size=B).tolist()
            lengths[0] = max(lengths) + 1
            rng.shuffle(lengths)
        if k % 2:
            lattices, tr, st = tied_lattices(rng, lengths, L)
        else:
            lattices = [random_lattice(rng, T, L, k % 4 == 0)[0] for T in lengths]
            _, tr, st = random_lattice(rng, 1, L, k % 4 == 0)
        emissions = np.concatenate(lattices)
        before = emissions.copy()
        assert_oracle_paths(lattices, _kernels.viterbi_paths(emissions, lengths, tr, st),
                            tr, st)
        assert emissions.tobytes() == before.tobytes()


def test_viterbi_path_is_one_lattice_of_the_batch():
    # viterbi_path decodes a batch of one (B = 1).
    rng = np.random.default_rng(13)
    for k in range(300):
        L = int(rng.integers(1, 13))
        T = int(rng.integers(1, 30))
        if k % 2:
            (em,), tr, st = tied_lattices(rng, [T], L)
        else:
            em, tr, st = random_lattice(rng, T, L, k % 4 == 0)
        assert_oracle_paths([em], [_kernels.viterbi_path(em, tr, st)], tr, st)


def test_viterbi_empty_lattice():
    for L in (1, 3):
        path, score = _kernels.viterbi_path(np.zeros((0, L)), np.zeros((L, L)),
                                            np.zeros(L))
        assert len(path) == 0 and path.dtype == np.int64 and score == 0.0


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
