"""Hermitian tuples: norms, direct sums, C_A lifts, ball sampling."""

import numpy as np
import pytest

from ncconvex import (HermTuple, Signature, ca_element, derived_rng,
                      haar_unitary, identity_tuple, random_hermitian,
                      sample_x_ball, tuple_from_json, tuple_norm,
                      tuple_to_json)
from ncconvex.errors import ShapeError, UnitarityError
from ncconvex.tuples import _check_unitary, ca_lift


def shuffle_permutation(m: int, k: int) -> np.ndarray:
    """Perfect shuffle P with P (I_m (x) A) P^T = A (x) I_m for k x k A."""
    p = np.zeros((m * k, m * k))
    for q in range(m):
        for r in range(k):
            p[r * m + q, q * k + r] = 1.0
    return p


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


def test_ingest_names_the_entry_and_takes_a_tolerance():
    off = np.array([[1.0, 1e-6], [0.0, 2.0]])
    with pytest.raises(ValueError, match="entry 1 is not Hermitian: "
                                         "max deviation 1.000e-06"):
        HermTuple([np.eye(2), off], kind="x")
    T = HermTuple([np.eye(2), off], kind="x", tol=1e-5)
    np.testing.assert_array_equal(T[1], (off + off.T) / 2)
    assert not T[1].flags.writeable


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
    assert tuple_norm(S + T) <= tuple_norm(S) + tuple_norm(T) + 1e-12


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


def test_shuffle_permutation_is_permutation():
    P = shuffle_permutation(3, 2)
    assert P.shape == (6, 6)
    assert np.all(P.sum(axis=0) == 1) and np.all(P.sum(axis=1) == 1)
    # P (u (x) v) = v (x) u
    u = np.arange(1.0, 4.0)
    v = np.array([1.0, 10.0])
    np.testing.assert_allclose(P @ np.kron(u, v), np.kron(v, u))


def test_ca_element_is_unitarily_shuffled_kron():
    A = _rand_tuple(2, 2, seed=14, kind="a")
    el = ca_element(A, 3, "identity")
    for base, lifted in zip(A.entries, el.tuple.entries):
        np.testing.assert_allclose(lifted, np.kron(np.eye(3), base),
                                   atol=1e-12)
    # the perfect shuffle as U turns I_m (x) A into A (x) I_m
    el_t = ca_element(A, 3, shuffle_permutation(3, 2).T)
    for base, lifted in zip(A.entries, el_t.tuple.entries):
        np.testing.assert_allclose(lifted, np.kron(base, np.eye(3)),
                                   atol=1e-12)
    # random U keeps the spectrum of each coordinate
    el2 = ca_element(A, 3, "random", seed=derived_rng(15))
    for base, lifted in zip(A.entries, el2.tuple.entries):
        got = np.sort(np.linalg.eigvalsh(lifted))
        want = np.sort(np.tile(np.linalg.eigvalsh(base), 3))
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_ca_lift_equals_ca_element_per_member():
    A = _rand_tuple(2, 2, seed=16, kind="a")
    for m in (1, 2, 3):
        rngs = [derived_rng(16, m, j) for j in range(5)]
        stack = ca_lift(A, m, np.array([derived_rng(16, m, j).standard_normal(
            (2, 2 * m, 2 * m)) for j in range(5)]))
        assert stack.shape == (5, 2, 2 * m, 2 * m)
        for rng, lifted in zip(rngs, stack):
            el = ca_element(A, m, "random", seed=rng)
            assert np.array_equal(lifted, np.array(el.tuple.entries))


def test_stacked_unitarity_check_names_the_first_bad_member():
    U = np.array([np.eye(2), 3.0 * np.eye(2), 2.0 * np.eye(2)], dtype=complex)
    with pytest.raises(UnitarityError, match=r"= 8\.000e\+00$"):
        _check_unitary(U, 2, tol=1e-12, stacked=True)
    with pytest.raises(ShapeError):
        _check_unitary(U, 2)


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


def test_sample_x_ball_empty_signature():
    pts = sample_x_ball(Signature(0, 0), 2, 0.5, 3, seed=0)
    assert all(X.arity == 0 and X.n == 2 for X in pts)


def test_tuple_json_round_trip():
    T = _rand_tuple(2, 3, seed=17)
    back = tuple_from_json(tuple_to_json(T), kind="x")
    for a, b in zip(T.entries, back.entries):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_mixed_size_rejected():
    with pytest.raises(ShapeError):
        HermTuple([np.eye(2), np.eye(3)], kind="x")


def test_kind_mixing_rejected():
    A = HermTuple([np.eye(2)], kind="a")
    X = HermTuple([np.eye(2)], kind="x")
    with pytest.raises(ValueError):
        _ = A + X
