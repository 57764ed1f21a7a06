"""Hermitian tuples: norms, direct sums, C_A lifts, ball sampling."""

import numpy as np
import pytest

from ncconvex import HermTuple, Signature
import ncconvex.tuples as tuples
from ncconvex.errors import ShapeError, UnitarityError
from ncconvex.tuples import (_check_unitary, ca_element, ca_lift, derived_rng,
                             derived_rngs, haar_unitary, identity_tuple,
                             matrix_from_json, random_hermitian, sample_x_ball,
                             tuple_from_json, tuple_norm, tuple_to_json)


def _rand_tuple(g, n, seed, kind="x"):
    rng = derived_rng(seed)
    return HermTuple([random_hermitian(n, rng) for _ in range(g)], kind=kind)


def test_ingest_symmetrizes_within_tolerance():
    M = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    T = HermTuple([M], kind="x")
    np.testing.assert_allclose(T[0], T[0].conj().T)


def test_ingest_rejects_clearly_nonhermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermTuple([M], kind="x")


def test_ingest_names_the_entry_and_symmetrizes_read_only():
    off = np.array([[1.0, 1e-6], [0.0, 2.0]])
    with pytest.raises(ValueError, match="entry 1 is not Hermitian: "
                                         "max deviation 1.000e-06"):
        HermTuple([np.eye(2), off], kind="x")
    off = np.array([[1.0, 1e-13], [0.0, 2.0]])
    T = HermTuple([np.eye(2), off], kind="x")
    np.testing.assert_array_equal(T[1], (off + off.T) / 2)
    assert not T[1].flags.writeable


@pytest.mark.parametrize("entry", [
    [[np.nan, 0.0], [0.0, 1.0]],                    # NaN on the diagonal
    [[1.0, np.inf], [np.inf, 1.0]],                 # inf - inf is NaN
    [[1.0, np.inf], [0.0, 1.0]],                    # an infinite deviation
    [[1.0, 0.0], [0.0, complex(0.0, -np.inf)]],
], ids=["nan", "inf-pair", "inf-corner", "inf-imag"])
def test_ingest_refuses_an_entry_that_is_not_finite(entry):
    # the suite turns numpy's RuntimeWarning into an error, so the
    # ValueError naming the entry comes first or not at all
    with pytest.raises(ValueError, match="^entry 1 is not finite$"):
        HermTuple([np.eye(2), entry], kind="x")
    # in a stack of tuples the index is the entry's place in its tuple
    stack = np.array([np.eye(2), np.eye(2), np.eye(2), entry], dtype=complex)
    with pytest.raises(ValueError, match="^entry 1 is not finite$"):
        tuples.hermitian_stack(stack.reshape(2, 2, 2, 2))
    # finite numbers whose deviation overflows are not Hermitian, not
    # "not finite"
    with pytest.raises(
            ValueError, match="entry 0 is not Hermitian: max deviation inf"):
        HermTuple([[[0.0, 1e308], [-1e308, 0.0]]], kind="x")


def test_conjugation_refuses_a_conjugator_that_is_not_finite():
    T = _rand_tuple(1, 2, seed=12)
    with pytest.raises(UnitarityError, match=r"max \|U\*U - I\| = nan"):
        T.conjugate(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_empty_tuple_needs_explicit_size():
    with pytest.raises(ShapeError):
        HermTuple([], kind="a")
    T = HermTuple([], kind="a", n=3)
    assert T.n == 3 and T.arity == 0


def test_norm_of_identity_tuple():
    # sum of g identity squares has top eigenvalue g
    T = identity_tuple(3, 4)
    assert tuple_norm(T) == pytest.approx(np.sqrt(3.0))


def test_norm_scales_linearly():
    T = _rand_tuple(2, 3, seed=5)
    assert tuple_norm(T.scale(2.5)) == pytest.approx(2.5 * tuple_norm(T))


def test_norm_is_subadditive():
    S = _rand_tuple(2, 3, seed=6)
    T = _rand_tuple(2, 3, seed=7)
    ST = HermTuple([s + t for s, t in zip(S, T)], kind="x")
    assert tuple_norm(ST) <= tuple_norm(S) + tuple_norm(T) + 1e-12


def test_direct_sum_stacks_spectra():
    S = _rand_tuple(1, 2, seed=8)
    T = _rand_tuple(1, 3, seed=9)
    D = S.direct_sum(T)
    assert D.n == 5
    got = np.sort(np.linalg.eigvalsh(D[0]))
    want = np.sort(np.concatenate([np.linalg.eigvalsh(S[0]),
                                   np.linalg.eigvalsh(T[0])]))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_conjugation_preserves_norm():
    T = _rand_tuple(2, 4, seed=10)
    U = haar_unitary(4, derived_rng(11))
    assert tuple_norm(T.conjugate(U)) == pytest.approx(tuple_norm(T))


def test_conjugation_rejects_nonunitary():
    T = _rand_tuple(1, 3, seed=12)
    with pytest.raises(UnitarityError):
        T.conjugate(np.eye(3) * 1.01)


def test_haar_unitary_is_unitary():
    for n in (1, 2, 5):
        U = haar_unitary(n, derived_rng(13, n))
        np.testing.assert_allclose(U @ U.conj().T, np.eye(n), atol=1e-12)


def test_ca_element_is_unitarily_shuffled_kron():
    A = _rand_tuple(2, 2, seed=14, kind="a")
    el = ca_element(A, 3, derived_rng(15))
    U = haar_unitary(6, derived_rng(15))
    assert el.kind == "a" and el.n == 6
    for base, lifted in zip(A.entries, el.entries):
        assert not lifted.flags.writeable
        np.testing.assert_allclose(
            lifted, U.conj().T @ np.kron(np.eye(3), base) @ U, atol=1e-12)
        # and so keeps the spectrum of each coordinate
        got = np.sort(np.linalg.eigvalsh(lifted))
        want = np.sort(np.tile(np.linalg.eigvalsh(base), 3))
        np.testing.assert_allclose(got, want, atol=1e-10)
    with pytest.raises(ValueError, match="multiplicity"):
        ca_element(A, 0)


def test_ca_lift_equals_ca_element_per_member():
    A = _rand_tuple(2, 2, seed=16, kind="a")
    for m in (1, 2, 3):
        rngs = [derived_rng(16, m, j) for j in range(5)]
        stack = ca_lift(A, m, np.array([derived_rng(16, m, j).standard_normal(
            (2, 2 * m, 2 * m)) for j in range(5)]))
        assert stack.shape == (5, 2, 2 * m, 2 * m)
        for rng, lifted in zip(rngs, stack):
            assert np.array_equal(lifted, np.array(ca_element(A, m, rng)))


def test_ca_lift_of_an_empty_tuple_draws_but_forms_no_unitary():
    A = HermTuple([], kind="a", n=3)
    for m in (1, 2):
        n = 3 * m
        stack = ca_lift(A, m, derived_rng(17, m).standard_normal((4, 2, n, n)))
        assert stack.shape == (4, 0, n, n) and stack.dtype == complex
        rng, twin = derived_rng(18, m), derived_rng(18, m)
        el = ca_element(A, m, rng)
        # an immutable empty tuple: nothing in it can be written
        assert el.kind == "a" and el.n == n and el.entries == ()
        # the Haar block is still taken from the stream
        twin.standard_normal((1, 2, n, n))
        assert rng.bit_generator.state == twin.bit_generator.state


def test_unitarity_check_refuses_a_stack():
    # conjugate takes one n x n unitary from its caller: a stack is a
    # shape error, and a matrix that is not unitary is named by its
    # deviation
    U = np.array([np.eye(2), 3.0 * np.eye(2)], dtype=complex)
    with pytest.raises(ShapeError):
        _check_unitary(U, 2)
    with pytest.raises(UnitarityError, match=r"= 8\.000e\+00$"):
        _check_unitary(U[1], 2)


def test_sample_x_ball_radius_and_determinism():
    sig = Signature(0, 2)
    eps = 0.8
    pts = sample_x_ball(sig, 3, eps, 200, seed=16)
    norms = np.array([tuple_norm(X) for X in pts])
    assert np.all(norms < eps)
    # radii are spread across the ball, not clustered at the rim
    assert norms.min() < 0.1 * eps and norms.max() > 0.9 * eps
    again = sample_x_ball(sig, 3, eps, 200, seed=16)
    for X, Y in zip(pts, again):
        for a, b in zip(X.entries, Y.entries):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("x", [1.0, float(np.finfo(float).eps) / 2, 5e-324,
                               1e308])
def test_scaled_random_is_uniform_from_zero(x):
    # numpy's uniform(0.0, x) is 0.0 + x*u, which is x*u whether or not
    # the sum is fused into one multiply-add
    for seed in range(200):
        one, other = derived_rng(seed, 3), derived_rng(seed, 3)
        for _ in range(4):
            got, want = x * one.random(), other.uniform(0.0, x)
            assert type(got) is type(want) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert one.bit_generator.state == other.bit_generator.state


@pytest.mark.parametrize("sizes", [[3], [1, 2], [1, 2, 3, 4],
                                   list(range(1, 12))])
def test_indexed_integer_draw_is_choice(sizes):
    sizes = np.array(sizes)
    for seed in range(200):
        one, other = derived_rng(seed, 4), derived_rng(seed, 4)
        for _ in range(4):
            got, want = sizes[one.integers(len(sizes))], other.choice(sizes)
            assert got == want and type(got) is type(want)
        assert one.bit_generator.state == other.bit_generator.state


def test_sample_x_ball_empty_signature():
    pts = sample_x_ball(Signature(0, 0), 2, 0.5, 3, seed=0)
    assert all(X.arity == 0 and X.n == 2 for X in pts)


def test_tuple_json_round_trip():
    T = _rand_tuple(2, 3, seed=17)
    back = tuple_from_json(tuple_to_json(T), kind="x")
    for a, b in zip(T.entries, back.entries):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_matrix_from_json_keeps_every_bit_of_the_per_entry_build():
    # the old build, complex(re, im) per entry, is the oracle: ints,
    # bools, signed zeros, subnormals and large values keep their bits
    entries = [[[-0.0, 0.0], [1, -0.0], [True, 5e-324]],
               [[0.1, -1e300], [2 ** 63, -7], [0.0, -0.0]],
               [[-2.5, 1e-310], [False, 3], [1e16 + 1, -0.0]]]
    want = np.array([[complex(c[0], c[1]) for c in row] for row in entries])
    got = matrix_from_json({"n": 3, "entries": entries})
    assert got.shape == (3, 3) and got.dtype == complex
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("data, message", [
    ([[1.0]], "must be an object with 'n' and 'entries'"),
    ({"n": 1}, "must be an object with 'n' and 'entries'"),
    ({"n": None, "entries": [[[1.0, 0.0]]]}, "'n' must be an integer"),
    ({"n": 1.9, "entries": [[[1.0, 0.0]]]}, "'n' must be an integer"),
    ({"n": "1", "entries": [[[1.0, 0.0]]]}, "'n' must be an integer"),
    ({"n": 1, "entries": 5}, "pairs"),
    ({"n": 1, "entries": [5]}, "pairs"),
    ({"n": 1, "entries": [[[1.0]]]}, "pairs"),
    ({"n": 1, "entries": [[[1.0, 0.0, 2.0]]]}, "pairs"),
    ({"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}, "pairs"),
    ({"n": 1, "entries": [[["a", 0.0]]]}, "pairs"),
    ({"n": 1, "entries": [[["1", 0.0]]]}, "pairs"),
    ({"n": 1, "entries": [[[0.0, "1"]]]}, "pairs"),
    ({"n": 1, "entries": [[[None, 0.0]]]}, "pairs"),
    ({"n": 1, "entries": [[[10 ** 400, 0.0]]]}, "pairs"),
    ({"n": 2, "entries": [[[1.0, 0.0]]]}, r"n=2 but entries are \(1, 1\)"),
])
def test_matrix_from_json_refuses_malformed_json(data, message):
    with pytest.raises(ShapeError, match=message):
        matrix_from_json(data)


def test_tuple_from_json_refuses_a_bare_number():
    with pytest.raises(ShapeError, match="list of matrix objects"):
        tuple_from_json(5)


def _stream(rng):
    return rng.bit_generator.state, rng.standard_normal(20).tolist()


@pytest.mark.parametrize("prefix", [
    (7,), (0, 2 ** 32 - 1), (2 ** 32 + 5, -1, 3), (1, 2, 3, 4),
    (9, 8, 7, 6, 5), (2 ** 31,) * 6, tuple(range(7)), tuple(range(1, 9)),
    ((11, 2),), ((11, 2), 4)])
@pytest.mark.parametrize("count", [1, 7, 8, 64])
def test_derived_rngs_equal_derived_rng(prefix, count):
    # keys wrap like derived_rng's words, past the pool of 4 words too
    ks = [0, 2 ** 32 - 1, 2 ** 32 + 5, -1, 2 ** 31] + list(range(5, 64))
    ks = ks[:count]
    got = derived_rngs(prefix, ks)
    assert len(got) == count
    for k, rng in zip(ks, got):
        assert _stream(rng) == _stream(derived_rng(*prefix, k)), (prefix, k)


def test_vector_seeding_self_check_passes_on_this_numpy():
    # a failing check would leave every chunk on the slow per-key path
    tuples._vector_seeding_ok.cache_clear()
    try:
        assert tuples._vector_seeding_ok()
    finally:
        tuples._vector_seeding_ok.cache_clear()


def test_vector_seeding_mismatch_falls_back_to_derived_rng(monkeypatch):
    seed_states = tuples._seed_states

    def one_word_off(words):
        out = seed_states(words)
        out[:, 2] ^= np.uint64(1)
        return out

    monkeypatch.setattr(tuples, "_seed_states", one_word_off)
    tuples._vector_seeding_ok.cache_clear()
    try:
        got = derived_rngs((5, 6), range(64))
        assert not tuples._vector_seeding_ok()
    finally:
        tuples._vector_seeding_ok.cache_clear()
    for k, rng in zip(range(64), got):
        assert _stream(rng) == _stream(derived_rng(5, 6, k))


def test_vector_seeding_error_falls_back_to_derived_rng(monkeypatch):
    # a numpy whose private seeding API moved must not break sampling
    def moved_api(words):
        raise TypeError("ISeedSequence is gone")

    monkeypatch.setattr(tuples, "_generators", moved_api)
    tuples._vector_seeding_ok.cache_clear()
    try:
        got = derived_rngs((5, (6, 7)), range(9))
        assert not tuples._vector_seeding_ok()
    finally:
        tuples._vector_seeding_ok.cache_clear()
    for k, rng in zip(range(9), got):
        assert _stream(rng) == _stream(derived_rng(5, (6, 7), k))


def test_mixed_size_rejected():
    with pytest.raises(ShapeError):
        HermTuple([np.eye(2), np.eye(3)], kind="x")

