"""Slice functions, coefficient extraction, degree-two certification."""

import json
import tracemalloc

import numpy as np
import pytest

import ncconvex.convexity as convexity
import ncconvex.slices as slices
from ncconvex import (CallableNcFunction, DiscreteMeasure, HermTuple,
                      KrausLiftFunction, PolynomialNcFunction, Signature,
                      certify_degree_two, extract_slice_coefficients,
                      parse_polynomial, slice_phi)
from ncconvex import test_slice_convexity_transfer as slice_transfer
from ncconvex.convexity import CHUNK, _one_point
from ncconvex.errors import (DomainError, ExtractionError,
                             SingularityError)
from ncconvex.presets import get_preset, random_base_tuple
from ncconvex.slices import (VERDICT_CONSISTENT, VERDICT_HIGHER_ORDER,
                             VERDICT_HYPOTHESIS_FAILS, _extract, _magnitudes,
                             _slice_draws, _unit_vectors, slice_matrix,
                             slice_scalar)
from ncconvex.tuples import (_letters, _rescaled_points, ca_element, ca_lift,
                             derived_rng, derived_rngs, draw_x_ball,
                             matrix_from_json, sample_x_ball, stack_norms,
                             tuple_norm)


def _fn(expr, sig):
    return PolynomialNcFunction(parse_polynomial(expr, sig), name=expr)


def _empty_a(n):
    return HermTuple([], kind="a", n=n)


def _x_point(n, seed, sig=Signature(0, 1), eps=1.0):
    return sample_x_ball(sig, n, eps, 1, seed=seed)[0]


def test_slice_at_scalar_one_recovers_value():
    F = _fn("x1^2", Signature(0, 1))
    X = _x_point(3, seed=61)
    got = slice_phi(F, _empty_a(3), X, np.array([[1.0]]))
    np.testing.assert_allclose(got, F(_empty_a(3), X), atol=1e-13)


def test_slice_at_identity_is_block_double():
    F = _fn("x1^2", Signature(0, 1))
    X = _x_point(2, seed=62)
    got = slice_phi(F, _empty_a(2), X, np.eye(2))
    want = np.kron(F(_empty_a(2), X), np.eye(2))
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_scalar_slice_conjugate_symmetry():
    # Hermitian F gives phi(conj z) = conj phi(z)
    F = _fn("a1*x1*a1 + x1^2", Signature(1, 1))
    A = random_base_tuple(1, 3, derived_rng(63))
    X = _x_point(3, seed=63, sig=Signature(1, 1))
    rng = derived_rng(64)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z = 0.3 + 0.4j
    a = slice_scalar(F, A, X, v, z)
    b = slice_scalar(F, A, X, v, z.conjugate())
    assert a == pytest.approx(b.conjugate(), abs=1e-12)


def test_exact_coefficients_of_square():
    F = _fn("x1^2", Signature(0, 1))
    X = _x_point(3, seed=65)
    rng = derived_rng(65)
    v = rng.standard_normal(3)
    sc = extract_slice_coefficients(F, _empty_a(3), X, v, degree_cap=6)
    assert sc.method == "exact"
    vn = v / np.linalg.norm(v)
    want2 = vn @ (X[0] @ X[0]) @ vn
    assert sc[2] == pytest.approx(want2, abs=1e-12)
    for i in (0, 1, 3, 4, 5, 6):
        assert abs(sc[i]) < 1e-14


def test_dft_matches_exact_on_polynomials():
    rng = derived_rng(66)
    for name, sig, p in [(n, s, parse_polynomial(e, s)) for n, s, e in
                         (("sq", Signature(0, 1), "x1^2"),
                          ("mix", Signature(1, 1),
                           "a1*x1*a1 + x1*a1*x1 + x1^2 + x1^3"))]:
        F = PolynomialNcFunction(p, name=name)
        A = random_base_tuple(sig.g_a, 3, derived_rng(66, 1))
        X = _x_point(3, seed=(66, 2), sig=sig)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ce = extract_slice_coefficients(F, A, X, v, degree_cap=8)
        cd = extract_slice_coefficients(F, A, X, v, degree_cap=8,
                                        force_dft=True)
        assert ce.method == "exact" and cd.method == "dft"
        np.testing.assert_allclose(ce.coeffs, cd.coeffs, atol=1e-10)


def test_extraction_linear_in_function():
    sig = Signature(0, 1)
    F1, F2 = _fn("x1^2", sig), _fn("x1^3", sig)
    F12 = _fn("x1^2 + x1^3", sig)
    X = _x_point(2, seed=67)
    v = np.array([1.0, 2.0])
    A = _empty_a(2)
    c1 = extract_slice_coefficients(F1, A, X, v).coeffs
    c2 = extract_slice_coefficients(F2, A, X, v).coeffs
    c12 = extract_slice_coefficients(F12, A, X, v).coeffs
    np.testing.assert_allclose(c12, c1 + c2, atol=1e-13)


def test_kraus_halfmass_geometric_coefficients():
    # f(zX) at X = [[1]] is z^2/(1 - z/2): c_i = 2^(2-i) for i >= 2
    KH = get_preset("kraus-halfmass").make()
    X = HermTuple([np.array([[1.0]])], kind="x")
    sc = extract_slice_coefficients(KH, _empty_a(1), X, np.array([1.0]),
                                    degree_cap=8, radius=0.25)
    assert sc.method == "dft"
    for i in range(2, 9):
        assert sc[i] == pytest.approx(2.0 ** (2 - i), abs=1e-7)
    assert sc.residual < 1e-6


def test_dft_radius_outside_domain_rejected():
    KH = get_preset("kraus-halfmass").make()
    X = HermTuple([np.array([[1.0]])], kind="x")
    with pytest.raises(DomainError):
        extract_slice_coefficients(KH, _empty_a(1), X, np.array([1.0]),
                                   radius=2.5)


def test_residual_check_refuses_undersampling():
    # degree cap below the true degree must not return silent garbage
    F = _fn("x1^6", Signature(0, 1))
    X = HermTuple([np.array([[1.0]])], kind="x")
    with pytest.raises(ExtractionError):
        extract_slice_coefficients(F, _empty_a(1), X, np.array([1.0]),
                                   degree_cap=3, radius=1.0, force_dft=True)


def test_tensor_norm_bound():
    # |X (x) T| <= |X| |T| keeps slices inside scaled balls
    X = _x_point(3, seed=68)
    T = np.diag([1.1, 0.9])
    lifted = HermTuple([np.kron(x, T) for x in X.entries], kind="x")
    assert tuple_norm(lifted) <= tuple_norm(X) * 1.1 + 1e-12


def test_slice_transfer_for_square():
    F = _fn("x1^2", Signature(0, 1))
    X = _x_point(3, seed=69)
    rng = derived_rng(69)
    v = rng.standard_normal(3)
    rep = slice_transfer(F, _empty_a(3), X, v, delta=0.2,
                                        t_size=3, trials=100, seed=69)
    assert rep.passed
    assert rep.min_eig >= -1e-10


def test_slice_transfer_refuses_lifts_past_the_radius():
    # |X (x) T| reached 2.28 past the pole at radius 2, and the run
    # FAILed there with min_eig -24,401 and a witness
    lift = get_preset("kraus-halfmass").make()

    def run(top):
        X = HermTuple([np.diag([top, 0.3])], kind="x")
        return slice_transfer(lift, _empty_a(2), X, [1.0, 0.0], delta=0.2,
                              t_size=2, trials=50, seed=1)

    with pytest.raises(DomainError) as exc:
        run(1.9)
    assert str(exc.value) == "(1+delta)*|X| = 2.28 is outside the radius 2"
    assert run(1.5).passed


def test_slice_transfer_witness_reproduces_its_defect():
    # T1 and T2 are complex Hermitian; stored as their real parts, this
    # witness gave the defect +0.101 where the run had found -0.0166
    F = _fn("x1^4", Signature(0, 1))
    A, X, v = _empty_a(2), HermTuple([np.diag([1.0, 0.3])], kind="x"), [1, 1]
    rep = slice_transfer(F, A, X, v, delta=0.9, t_size=3, trials=200, seed=1)
    w = json.loads(json.dumps(rep.witness))
    T1, T2 = matrix_from_json(w["T1"]), matrix_from_json(w["T2"])
    t = w["t"]
    P = slice_matrix(F, A, X, v, np.stack([T1, T2, t * T1 + (1 - t) * T2]))
    D = t * P[0] + (1 - t) * P[1] - P[2]
    assert w["defect_eigs"][0] < -1e-6
    assert abs(np.linalg.eigvalsh(D)[0] - w["defect_eigs"][0]) <= 1e-12


def test_certify_consistent_for_mixed_ax():
    F = get_preset("mixed-ax").make()
    A = random_base_tuple(1, 2, derived_rng(70))
    rep = certify_degree_two(F, A, epsilon=0.5, samples=10, trials=60,
                             seed=70)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.max_high_order_coeff == 0.0
    assert rep.skipped == 0


def test_certify_flags_higher_order():
    F = get_preset("kraus-halfmass").make()
    rep = certify_degree_two(F, _empty_a(1), epsilon=0.5, samples=10,
                             trials=60, seed=71)
    assert rep.verdict == VERDICT_HIGHER_ORDER
    assert rep.convexity.passed  # convex, just not entire-with-degree-2
    w = rep.witness
    assert w["i"] >= 3
    assert abs(complex(*w["c_i"])) > 1e-7


def test_certify_hypothesis_fails_for_quartic():
    F = get_preset("quartic").make()
    rep = certify_degree_two(F, _empty_a(2), epsilon=2.0, samples=5,
                             trials=300, seed=72)
    assert rep.verdict == VERDICT_HYPOTHESIS_FAILS
    assert rep.witness is not None
    assert not rep.convexity.passed


def test_certify_refuses_an_epsilon_above_a_narrow_radius():
    # the golden's "narrow black box" ran these arguments, epsilon 0.5
    # over a radius of 0.01, before the tester refused them
    narrow = CallableNcFunction(lambda A, X: X[0] @ X[0], Signature(0, 1),
                                radius=0.01, analytic_in_z=True,
                                name="narrow")
    with pytest.raises(ValueError) as exc:
        certify_degree_two(narrow, _empty_a(2), 0.5, samples=100, trials=20,
                           seed=37, multiplicities=(1, 2))
    assert str(exc.value) == ("epsilon 0.5 is above the function's radius "
                              "0.01")


def test_certify_report_json():
    F = get_preset("mixed-ax").make()
    A = random_base_tuple(1, 2, derived_rng(73))
    d = certify_degree_two(F, A, epsilon=0.5, samples=4, trials=30,
                           seed=73).to_json_dict()
    assert d["verdict"] == VERDICT_CONSISTENT
    assert set(d) >= {"samples", "skipped", "max_high_order_coeff",
                      "convexity", "epsilon", "degree_cap", "coeff_tol"}
    assert d["convexity"]["pass"] is True


# -- the stacked Fourier route ------------------------------------------------


def _kraus_lifts():
    two_atom = DiscreteMeasure(((0.5, 0.25), (-0.8, 0.75)))
    return [get_preset("kraus-halfmass").make(),
            KrausLiftFunction(0.5, -1.0, 2.0, two_atom, name="two-atom")]


def _scaled(Xs, zs) -> np.ndarray:
    """The points z X_j of a (c, g, n, n) stack, each X_j at every z in
    turn, as the DFT route stacks them for F.at_points."""
    zs = np.asarray(zs, dtype=complex)
    return (zs[:, None, None, None] * Xs[:, None]).reshape(
        (-1,) + Xs.shape[1:])


def test_kraus_stack_at_scaled_points_equals_per_z_calls():
    zs = np.concatenate([[0.3, -0.2], 0.3 * np.exp(2j * np.pi * np.arange(5)
                                                   / 5)])
    for F in _kraus_lifts():
        for n in range(1, 7):
            X = _x_point(n, seed=(80, n))
            stack = F.at_points(np.zeros((len(zs), 0, n, n)),
                                _scaled(_one_point(X), zs))
            assert stack.shape == (len(zs), n, n)
            for z, M in zip(zs, stack):
                assert np.array_equal(M, F(_empty_a(n), [complex(z) * X[0]]))


def test_polynomial_stack_at_scaled_points_equals_per_z_calls():
    F = _fn("a1*x1*a1 + x1^3", Signature(1, 1))
    A = random_base_tuple(1, 3, derived_rng(83))
    X = _x_point(3, seed=83, sig=Signature(1, 1))
    zs = [0.5, 0.2 - 0.1j]
    stack = F.at_points(np.repeat(_one_point(A), 2, axis=0),
                        _scaled(_one_point(X), zs))
    for z, M in zip(zs, stack):
        assert np.array_equal(M, F(A, [z * X[0]]))


def test_stacked_kraus_extraction_equals_looped_black_box():
    # the wrapper takes NcFunction's per-point loop; the lift its own
    # stack
    for KH in _kraus_lifts():
        loop = CallableNcFunction(KH, KH.signature, radius=KH.radius,
                                  analytic_in_z=True, name="looped")
        for n in (1, 2, 4, 6):
            X = _x_point(n, seed=(81, n), eps=0.5)
            rng = derived_rng(81, n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            stacked = extract_slice_coefficients(KH, _empty_a(n), X, v,
                                                 radius=0.25)
            looped = extract_slice_coefficients(loop, _empty_a(n), X, v,
                                                radius=0.25)
            assert stacked.method == looped.method == "dft"
            assert np.array_equal(stacked.coeffs, looped.coeffs)
            assert stacked.residual == looped.residual


def test_non_analytic_black_box_refused_before_any_evaluation():
    calls = []

    def fn(A, X):
        calls.append(1)
        return X[0] @ X[0]

    F = CallableNcFunction(fn, Signature(0, 1), name="counted")
    with pytest.raises(DomainError):
        extract_slice_coefficients(F, _empty_a(2), _x_point(2, seed=82),
                                   np.array([1.0, 0.0]))
    assert calls == []


def test_kraus_stack_with_a_singular_member_raises():
    # I - X/2 at z = 2 has the exact zero pivot 1 - 2/2
    KH = get_preset("kraus-halfmass").make()
    X = HermTuple([np.diag([1.0, 0.5])], kind="x")
    with pytest.raises(SingularityError):
        KH.at_points(np.zeros((3, 0, 2, 2)),
                     _scaled(_one_point(X), [0.5, 2.0, 0.5j]))


def test_wrong_length_v_gets_one_message_on_both_routes():
    F = get_preset("mixed-ax").make()
    A = random_base_tuple(1, 3, derived_rng(96))
    X = _x_point(3, seed=96, sig=Signature(1, 1))
    for kw in ({}, {"force_dft": True}):
        with pytest.raises(ValueError, match=r"^direction vector has length "
                                             r"4, evaluation is \(3, 3\)$"):
            extract_slice_coefficients(F, A, X, np.ones(4), **kw)


@pytest.mark.parametrize("call, message", [
    (lambda F, A, X: extract_slice_coefficients(
        F, A, X, np.ones(2), force_dft=True, radius=0),
     "radius must be positive"),
    (lambda F, A, X: slice_phi(F, A, X, np.ones((2, 3))),
     r"xi must be square, got shape \(2, 3\)"),
    (lambda F, A, X: slice_matrix(F, A, X, np.ones(2), np.ones((2, 3))),
     r"T must be square, got shape \(2, 3\)"),
], ids=["radius 0", "xi", "T"])
def test_malformed_slice_arguments_raise(call, message):
    F = _fn("x1^2", Signature(0, 1))
    with pytest.raises(ValueError, match=message):
        call(F, _empty_a(2), _x_point(2, seed=98))


def test_certify_refuses_zero_samples():
    with pytest.raises(ValueError, match="samples"):
        certify_degree_two(_fn("x1^2", Signature(0, 1)), _empty_a(2), 0.5,
                           samples=0, trials=5)


def test_certify_refuses_a_degree_cap_below_two_before_any_evaluation():
    def fn(A, X):
        raise AssertionError("evaluated")

    F = CallableNcFunction(fn, Signature(0, 1))
    with pytest.raises(ValueError, match="degree_cap must be >= 2"):
        certify_degree_two(F, _empty_a(2), 0.5, degree_cap=1, trials=5)


@pytest.mark.parametrize("kw, message", [
    ({"degree_cap": 2}, "degree_cap 2 examines no coefficient above degree "
     "two; certify needs at least 3"),
    ({"coeff_tol": -1.0}, "coeff_tol must be non-negative, got -1.0"),
    ({"coeff_tol": float("nan")}, "coeff_tol must be non-negative, got nan"),
])
def test_certify_refuses_a_check_that_cannot_flag_before_any_evaluation(
        kw, message):
    # a cap of 2 examines no coefficient above degree two, and a negative
    # tolerance flags a zero one: neither verdict would mean anything
    def fn(A, X):
        raise AssertionError("evaluated")

    F = CallableNcFunction(fn, Signature(0, 1))
    with pytest.raises(ValueError) as info:
        certify_degree_two(F, _empty_a(2), 0.5, trials=5, **kw)
    assert str(info.value) == message


def test_extraction_still_takes_a_degree_cap_of_two():
    sc = extract_slice_coefficients(_fn("x1^2", Signature(0, 1)),
                                    _empty_a(2), _x_point(2, seed=99),
                                    np.ones(2), degree_cap=2)
    assert sc.method == "exact" and sc.coeffs.shape == (3,)


def _nan_off_hermitian(A, X):
    # X^2 on the convexity stage's Hermitian points, NaN on every
    # complex scaling the slice stage asks for
    x = np.asarray(X[0])
    if np.allclose(x, x.conj().T):
        return x @ x
    return np.full(x.shape, np.nan, dtype=complex)


def test_slice_samples_that_evaluate_to_nan_are_refused():
    F = CallableNcFunction(_nan_off_hermitian, Signature(0, 1),
                           analytic_in_z=True)
    with pytest.raises(ExtractionError, match="not finite"):
        extract_slice_coefficients(F, _empty_a(2), _x_point(2, seed=67),
                                   np.ones(2))
    # NaN on the rotated check nodes only: finite coefficients, and a
    # residual that compares false against every bound

    def nan_on_check_nodes(A, X):
        x = np.asarray(X[0])
        turns = np.angle(x[0, 0]) * 9 / (2 * np.pi)
        return x @ x if np.isclose(turns, round(turns)) else x * np.nan

    G = CallableNcFunction(nan_on_check_nodes, Signature(0, 1),
                           analytic_in_z=True)
    with pytest.raises(ExtractionError, match="residual nan"):
        extract_slice_coefficients(G, _empty_a(1), HermTuple(
            [np.array([[1.0]])], kind="x"), np.ones(1))
    # every sample is skipped, so the run has no verdict to give
    with pytest.raises(ExtractionError, match="all 30 extraction samples"):
        certify_degree_two(F, _empty_a(2), 0.5, samples=30, trials=20,
                           seed=3, multiplicities=(1, 2))


def test_exact_coefficients_past_the_float_range_are_refused():
    F = _fn("x1^4", Signature(0, 1))
    X = _x_point(2, seed=68).scale(1e100)
    with pytest.raises(ExtractionError, match="not finite"), \
            np.errstate(over="ignore", invalid="ignore"):
        extract_slice_coefficients(F, _empty_a(2), X, np.ones(2))
    # finite parts whose magnitude overflows count as well: c_2 is
    # 1.5e308 * (1 + i), where abs(complex) raises OverflowError
    big = HermTuple([np.array([[np.sqrt(1.5e308)]])], kind="x")
    with pytest.raises(ExtractionError, match="not finite"):
        extract_slice_coefficients(_fn("(1+i)*x1^2", Signature(0, 1)),
                                   _empty_a(1), big, np.array([1.0]))


@pytest.mark.parametrize("c3", [1e308 * (1 + 1j), 1.5e308 * (1 + 1j)],
                         ids=["fft-overflow", "matmul-invalid"])
def test_dft_coefficients_past_the_float_range_are_refused(c3):
    # finite slice values whose transform (fft) or compression (matmul)
    # overflows are refused, with no numpy warning to raise first under
    # -W error
    F = CallableNcFunction(lambda A, X: [[c3 * complex(X[0][0, 0]) ** 3]],
                           Signature(0, 1), analytic_in_z=True)
    with pytest.raises(ExtractionError, match="not finite"):
        extract_slice_coefficients(F, _empty_a(1), HermTuple([[[1.0]]]),
                                   [1.0], degree_cap=8, radius=1.0)


# -- certify's stacked samples ------------------------------------------------


def _stack(tuples) -> np.ndarray:
    n = tuples[0].n
    return np.array([list(T.entries) for T in tuples],
                    dtype=complex).reshape(len(tuples), -1, n, n)


def _samples(sig, kappa, m, c, seed, eps=0.5):
    """c slice samples as certify draws them: lifted A-tuples, x-points
    and direction vectors."""
    rng = derived_rng(seed)
    A = random_base_tuple(sig.g_a, kappa, rng)
    n = kappa * m
    alphas = [ca_element(A, m, rng) for _ in range(c)]
    Xs = sample_x_ball(sig, n, eps, c, rng)
    vs = rng.standard_normal((c, n)) + 1j * rng.standard_normal((c, n))
    return alphas, Xs, vs


def _narrow():
    return CallableNcFunction(lambda A, X: X[0] @ X[0], Signature(0, 1),
                              radius=0.15, analytic_in_z=True, name="narrow")


@pytest.mark.parametrize("make, kw", [
    (lambda: get_preset("mixed-ax").make(), {}),
    (lambda: get_preset("mixed-ax").make(), {"force_dft": True}),
    (lambda: get_preset("kraus-halfmass").make(), {"radius": 0.25}),
    # residual refusals for the larger points
    (lambda: get_preset("kraus-halfmass").make(),
     {"radius": 0.1, "degree_cap": 3}),
    # radius refusals for the larger points
    (_narrow, {"radius": 0.25}),
    (lambda: CallableNcFunction(lambda A, X: X[0] @ X[0], Signature(0, 1),
                                name="opaque"), {}),
], ids=["exact", "dft", "kraus", "residual", "radius", "not analytic"])
def test_stacked_extraction_equals_one_sample_calls(make, kw):
    F = make()
    kw = {"degree_cap": 8, "radius": None, "force_dft": False, **kw}
    alphas, Xs, vs = _samples(F.signature, 2, 2, 12, seed=90, eps=0.9)
    X = _stack(Xs)
    coeffs, errors, method, radius, residuals = _extract(
        F, _stack(alphas), X, vs, stack_norms(_letters(X)), **kw)
    kinds = set()
    for A, X, v, got, error, residual in zip(alphas, Xs, vs, coeffs, errors,
                                             residuals):
        try:
            want = extract_slice_coefficients(F, A, X, v, **kw)
        except (ExtractionError, DomainError) as exc:
            kinds.add("refused")
            assert type(error) is type(exc) and str(error) == str(exc)
            continue
        kinds.add("coefficients")
        assert error is None
        assert np.array_equal(got, want.coeffs)
        assert (method, radius, residual) == (
            want.method, want.radius, want.residual)
    assert kinds == ({"refused"} if "opaque" in F.name else
                     {"refused", "coefficients"} if F.name == "narrow"
                     or kw["degree_cap"] == 3 else {"coefficients"})


def test_default_at_points_at_scaled_points_calls_point_by_point():
    calls = []

    def fn(A, X):
        calls.append((A, X))
        return A[0] @ X[0] + X[0] @ X[0]

    F = CallableNcFunction(fn, Signature(1, 1), analytic_in_z=True)
    alphas, Xs, _ = _samples(F.signature, 2, 1, 3, seed=91)
    zs = [0.5, 0.2 - 0.1j]
    stack = F.at_points(np.repeat(_stack(alphas), 2, axis=0),
                        _scaled(_stack(Xs), zs))
    points = [(A, z * X[0]) for A, X in zip(alphas, Xs) for z in zs]
    assert len(calls) == len(points) == 6
    for (A1, X1), (A, zX), M in zip(calls, points, stack):
        # each point reaches __call__ as a- and x-HermTuples over
        # read-only rows of the caller's stacks
        assert isinstance(A1, HermTuple) and (A1.kind, A1.n) == ("a", 2)
        assert isinstance(X1, HermTuple) and (X1.kind, X1.n) == ("x", 2)
        assert np.array_equal(A1.entries, A.entries)
        assert np.array_equal(X1[0], zX)
        assert not (A1[0].flags.writeable or X1[0].flags.writeable)
        assert np.array_equal(M, A[0] @ zX + zX @ zX)


def test_kraus_stack_at_scaled_points_of_a_stack_equals_per_point_calls():
    zs = 0.3 * np.exp(2j * np.pi * np.arange(5) / 5)
    for F in _kraus_lifts():
        for n in (1, 2, 4, 6):
            _, Xs, _ = _samples(F.signature, n, 1, 4, seed=(92, n))
            stack = F.at_points(np.zeros((20, 0, n, n)),
                                _scaled(_stack(Xs), zs))
            per_point = [F.at_points(np.zeros((5, 0, n, n)),
                                     _scaled(_one_point(X), zs))
                         for X in Xs]
            assert np.array_equal(stack, np.concatenate(per_point))


def test_certify_extracts_each_multiplicity_of_a_chunk_in_one_call_per_node_set():
    shapes = []

    class Counted(KrausLiftFunction):
        def at_points(self, A, Xs):
            # the extraction stacks are the ones at complex-scaled
            # points; stage 1 evaluates Hermitian ones
            if np.any(Xs != Xs.conj().swapaxes(-1, -2)):
                shapes.append(Xs.shape)
            return super().at_points(A, Xs)

    F = Counted(0.0, 0.0, 2.0, DiscreteMeasure.point_mass(0.5))
    rep = certify_degree_two(F, _empty_a(2), 0.5, samples=CHUNK + 10,
                             trials=5, seed=95, multiplicities=(1, 2, 3))
    assert rep.skipped == 0
    # two stacked calls per multiplicity per chunk, in the order of their
    # first samples, and no rerun: first each sample's 9 interpolation
    # nodes, then its 9 check nodes (at degree_cap 8)
    want = []
    for ks in (range(CHUNK), range(CHUNK, CHUNK + 10)):
        ms = [(1, 2, 3)[k % 3] for k in ks]
        want += [(9 * ms.count(m), 1, 2 * m, 2 * m)
                 for m in dict.fromkeys(ms) for _ in range(2)]
    assert shapes == want


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_a_rescaled_point_has_its_drawn_radius_for_norm(g, n):
    # certify reads each slice sample's reach from the radius its X was
    # scaled to; that is its norm up to rounding, and 0 on a zero row
    rng = derived_rng(96, g, n)
    Z = rng.standard_normal((40, g, 2, n, n))
    r = rng.random(40)
    r[:3] = [0.0, 1.0, 0.5]
    Z[5:7] = 0.0
    X, zero = _rescaled_points(Z, r)
    norms = stack_norms(_letters(X))
    assert zero.tolist() == [k in (5, 6) for k in range(40)]
    assert (norms[zero] == 0.0).all()
    u = np.finfo(float).eps / 2
    assert (np.abs(norms - r)[~zero] <= 8 * n * u * r[~zero]).all()


def test_reach_from_the_drawn_radii_refuses_what_recomputed_norms_do():
    # a black box whose radius cuts through the sampled reaches: the
    # drawn radii and the recomputed norms refuse the same samples, and
    # the others get the same coefficients
    draws = _slice_draws(97, 2, 1, 1.0, (2,))
    *_, (m, _, (Z, r, W)) = draws(range(60))
    Z[7] = 0.0                                  # a zero-norm row
    X, zero = _rescaled_points(Z[:, 1:], r)
    A = ca_lift(_empty_a(2), m, Z[:, 0])
    vs = W[:, :4] + 1j * W[:, 4:]
    F = _narrow()
    runs = [_extract(F, A, X, vs, norms, 8, 0.25, False)
            for norms in (np.where(zero, 0.0, r), stack_norms(_letters(X)))]
    (c1, e1, *rest1), (c2, e2, *rest2) = runs
    refused = [type(e) for e in e1]
    assert refused == [type(e) for e in e2]
    assert refused.count(DomainError) in range(10, 50)
    assert refused[7] is type(None)
    assert np.array_equal(c1, c2) and rest1 == rest2


def test_certify_passes_each_slice_sample_its_drawn_radius(monkeypatch):
    seen = []

    def traced(F, A, X, vs, norms, *args):
        seen.append((X, norms))
        return _extract(F, A, X, vs, norms, *args)

    monkeypatch.setattr(slices, "_extract", traced)
    rep = certify_degree_two(get_preset("kraus-halfmass").make(), _empty_a(2),
                             0.5, samples=30, trials=5, seed=98,
                             multiplicities=(1, 2))
    assert rep.skipped == 0 and [len(X) for X, _ in seen] == [15, 15]
    for X, norms in seen:
        want = stack_norms(_letters(X))
        assert (np.abs(norms - want) <= 1e-15 * want).all()


def test_kraus_extraction_peak_is_a_few_node_set_stacks(monkeypatch):
    # one node set's values of a full chunk at n = 6, c (d+1) n^2 complex
    # numbers, is the unit; the interpolation and check sets are never
    # alive together, and the resolvent keeps few copies of its stack
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            return _extract(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(slices, "_extract", traced)
    F = KrausLiftFunction(0.0, 0.0, 2.0, DiscreteMeasure.point_mass(0.5))
    rep = certify_degree_two(F, _empty_a(2), 0.5, samples=CHUNK, trials=5,
                             seed=95, multiplicities=(3,))
    assert rep.skipped == 0 and len(peaks) == 1
    assert peaks[0] <= 7 * CHUNK * 9 * 6 ** 2 * 16


def test_certify_outcome_does_not_depend_on_the_chunk(monkeypatch):
    # chunks of 5 and of CHUNK must agree on every trial
    def run():
        reps = [certify_degree_two(
            F, A, eps, samples=70, trials=10, seed=93,
            multiplicities=(2, 1, 3), degree_cap=cap)
            for F, A, eps, cap in (
                (get_preset("mixed-ax").make(),
                 random_base_tuple(1, 2, derived_rng(93)), 0.5, 8),
                (get_preset("kraus-halfmass").make(), _empty_a(2), 1.0, 3))]
        return [(r.to_json_dict(), r.convexity.trial_min_eigs) for r in reps]

    reference = run()
    assert reference[1][0]["skipped"] > 0 and reference[1][0]["witness"]
    monkeypatch.setattr(convexity, "CHUNK", 5)
    assert run() == reference


def test_magnitudes_round_as_abs_of_a_python_complex():
    # the replay compares these against coeff_tol and reports them, so
    # they must keep the bits abs(complex) gives; np.abs does not
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3, 1e-300, -1e-300,
               1e300, -1e300, 1.0, np.inf, -np.inf, np.nan]
    rng = derived_rng(69)
    scales = 10.0 ** rng.integers(-300, 300, size=(2, 20000))
    values = np.concatenate([
        np.array([complex(a, b) for a in special for b in special]),
        rng.standard_normal(20000) + 1j * rng.standard_normal(20000),
        rng.standard_normal(20000) * scales[0]
        + 1j * rng.standard_normal(20000) * scales[1]])
    got = _magnitudes(values)
    want = np.array([abs(c) for c in values.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _unit_vector(v):
    # one vector alone, as np.linalg.norm normalizes it
    v = np.asarray(v, dtype=complex).reshape(-1)
    return v / float(np.linalg.norm(v))


@pytest.mark.parametrize("N", range(1, 10))
def test_unit_vectors_round_as_one_vector_alone(N):
    # the slice coefficients inherit these bits, on the DFT route from
    # two passes
    rng = derived_rng(70, N)
    scales = 10.0 ** rng.uniform(-100, 100, size=(2, 3000, 1))
    V = (rng.standard_normal((3000, N)) * scales[0]
         + 1j * rng.standard_normal((3000, N)) * scales[1])
    once = _unit_vectors(V)
    twice = _unit_vectors(once)
    want = np.array([_unit_vector(v) for v in V])
    assert np.array_equal(once.view(np.int64), want.view(np.int64))
    want = np.array([_unit_vector(v) for v in want])
    assert np.array_equal(twice.view(np.int64), want.view(np.int64))


def test_unit_vectors_refuse_a_zero_vector():
    with pytest.raises(ValueError, match="must be nonzero"):
        _unit_vectors([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("g", [0, 1, 2])
def test_slice_sample_draw_equals_the_separate_draws(g, n, monkeypatch):
    # the Haar block, draw_x_ball's parts and radius, and v's real and
    # imaginary parts, each from its own call, as certify drew them; v
    # is built from the raw normals W as certify's stage builds it
    merged = []

    def recorded(prefix, ks):
        merged.extend(derived_rngs(prefix, ks))
        return merged

    monkeypatch.setattr(slices, "derived_rngs", recorded)
    separate = derived_rng((70, g, n), 7919, 0)
    [(m, j, (Z, r, W))] = _slice_draws((70, g, n), n, g, 0.25,
                                       (1,))(range(1))
    haar, parts, radius = Z[j, 0], Z[j, 1:], r[j]
    v = (W[:, :n] + 1j * W[:, n:])[j]
    want_haar = separate.standard_normal((2, n, n))
    [(want_parts, want_radius)] = draw_x_ball(g, n, 0.25, 1, separate)
    want_v = separate.standard_normal(n) + 1j * separate.standard_normal(n)
    assert (m, j) == (1, 0)
    assert np.array_equal(haar, want_haar)
    assert parts.shape == want_parts.shape == (g, 2, n, n)
    assert np.array_equal(parts, want_parts)
    assert radius == want_radius
    assert np.array_equal(v, want_v)
    assert merged[0].bit_generator.state == separate.bit_generator.state


def _old_slice_sample(seed, k, n, g, ball_radius):
    """Sample k's numbers drawn from derived_rng(seed, 7919, k) one call
    at a time, in certify's order: the Haar block, draw_x_ball's parts
    and radius, then v's real and imaginary parts."""
    rng = derived_rng(seed, 7919, k)
    haar = rng.standard_normal((2, n, n))
    [(parts, radius)] = draw_x_ball(g, n, ball_radius, 1, rng)
    return haar, parts, radius, rng.standard_normal(2 * n)


@pytest.mark.parametrize("g", [0, 1, 2])
@pytest.mark.parametrize("chunk", [7, 64, 256])
@pytest.mark.parametrize("mults", [(1, 1), (2, 1, 3, 1), (3, 1)])
def test_slice_draws_fill_each_multiplicitys_stacks_from_its_own_stream(
        mults, chunk, g, monkeypatch):
    # every sample's rows equal its own stream's draws in the old order,
    # and a chunk's samples of one m fill rows 0, 1, ... of one stack set,
    # which is what certify's stage slices
    monkeypatch.setattr(convexity, "CHUNK", chunk)
    count, seed = 2 * chunk + 3, (75, g)
    draws = _slice_draws(seed, 2, g, 0.25, mults)
    got = list(convexity._sampled(count, draws, lambda group: group,
                                  group_by=lambda s: s[0]))
    assert [k for k, _ in got] == list(range(count))
    for start in range(0, count, chunk):
        ks = range(start, min(start + chunk, count))
        ms = [mults[k % len(mults)] for k in ks]
        for m in set(ms):
            rows = [got[k][1] for k, km in zip(ks, ms) if km == m]
            assert [j for _, j, _ in rows] == list(range(len(rows)))
            assert all(s is rows[0][2] for _, _, s in rows)
            assert rows[0][2][0].shape[0] == len(rows)
    for k, (m, j, (Z, r, W)) in got:
        assert m == mults[k % len(mults)]
        haar, parts, radius, w = _old_slice_sample(seed, k, 2 * m, g, 0.25)
        assert np.array_equal(Z[j, 0], haar)
        assert np.array_equal(Z[j, 1:], parts)
        assert r[j] == radius and np.array_equal(W[j], w)


@pytest.mark.parametrize("seed, top", [
    (1, 0.0058530626102239235), (2, 0.006441656976916322),
    (3, 0.006990473492294699), (4, 0.005867560827294945),
    (5, 0.005744010656787841)])
def test_certify_at_a_repeated_multiplicity_keeps_its_coefficients(seed, top):
    # two list positions of one m share one stack set; the goldens do
    # not run this list, so these pin the maxima recorded before the
    # draws were stacked; a drawer keyed by list position moves them
    rep = certify_degree_two(get_preset("kraus-halfmass").make(),
                             _empty_a(2), 0.5, samples=60, trials=5,
                             seed=seed, multiplicities=(1, 1))
    assert rep.skipped == 0 and rep.max_high_order_coeff == top


@pytest.mark.parametrize("preset, A", [
    ("mixed-ax", random_base_tuple(1, 2, derived_rng(71))),
    ("kraus-halfmass", _empty_a(2))])
def test_certify_within_one_chunk_runs_one_stage_per_multiplicity(
        monkeypatch, preset, A):
    sizes = []

    def counted(F, A, X, vs, *args):
        sizes.append(len(vs))
        return _extract(F, A, X, vs, *args)

    monkeypatch.setattr(slices, "_extract", counted)
    # the benchmark's certify shape, and a run of exactly one chunk
    for samples in (200, CHUNK):
        sizes.clear()
        rep = certify_degree_two(get_preset(preset).make(), A, 0.5,
                                 samples=samples, trials=5, seed=72,
                                 multiplicities=(1, 2, 3))
        assert rep.skipped == 0
        assert sizes == [len(range(j, samples, 3)) for j in range(3)]


def test_stacked_replay_keeps_the_first_sample_and_index_at_the_maximum(
        monkeypatch):
    # scripted coefficients with ties within and across samples; the
    # report must name what a walk over every (k, i) with a strict >
    # names: the first sample, then the first i, that reach the maximum
    rows = np.zeros((6, 9), dtype=complex)
    rows[0, 3] = 1e-12                          # below coeff_tol
    rows[1, 3:6] = [0.5, 0.7j, -0.7]
    rows[2, 3] = 0.7
    rows[3, [5, 7]] = [0.6 + 0.8j, -1.0]        # |.| = 1.0 twice
    rows[4, 3] = 1.0j
    rows[5, 8] = -1.0

    def scripted(F, A, X, vs, *args):
        c = len(vs)
        return rows[:c], [None] * c, "dft", 0.1, [0.0] * c

    monkeypatch.setattr(slices, "_extract", scripted)
    rep = certify_degree_two(_fn("x1^2", Signature(0, 1)), _empty_a(2), 0.5,
                             samples=6, trials=5, seed=74,
                             multiplicities=(1,))
    top, where = 0.0, None
    for k, row in enumerate(rows.tolist()):
        for i in range(3, 9):
            if abs(row[i]) > top:
                top, where = abs(row[i]), (k, i)
    assert where == (3, 5)
    assert rep.max_high_order_coeff == top == 1.0
    assert (rep.witness["sample"], rep.witness["i"]) == where
    assert rep.witness["c_i"] == [0.6, 0.8]


def _draw_stream(rng, k):
    return k, rng.bit_generator.state, rng.standard_normal(3).tolist()


def test_sampled_draws_the_same_streams_on_both_seeding_paths(monkeypatch):
    # the vector pass at chunks of CHUNK and of 5, and the per-key
    # fallback a failed seeding self-check takes, give the same streams
    def run():
        return list(convexity._sampled(
            2 * CHUNK + 3, convexity._streams((97, (3, 1)), _draw_stream),
            lambda s: s))

    reference = run()
    assert [r for _, r in reference] == [
        _draw_stream(derived_rng(97, (3, 1), k), k)
        for k in range(2 * CHUNK + 3)]
    monkeypatch.setattr(convexity, "CHUNK", 5)
    assert run() == reference
    monkeypatch.setattr("ncconvex.tuples._vector_seeding_ok", lambda: False)
    assert run() == reference


def test_sampled_replays_a_raising_chunk_from_its_stored_samples():
    # the stacked stage raises, so every sample runs again alone, on the
    # sample it was drawn as: nothing is drawn a second time
    stacks, drawn = [], []

    def draw(rng, k):
        drawn.append(k)
        return _draw_stream(rng, k)

    def stage(samples):
        stacks.append(len(samples))
        if len(samples) > 1:
            raise RuntimeError("stacked stage fails")
        return samples

    got = list(convexity._sampled(CHUNK, convexity._streams((98,), draw),
                                  stage))
    assert stacks == [CHUNK] + [1] * CHUNK
    assert drawn == list(range(CHUNK))
    assert [r for _, r in got] == [_draw_stream(derived_rng(98, k), k)
                                   for k in range(CHUNK)]


def test_certify_stacks_are_bounded_by_the_chunk(monkeypatch):
    # the bound below is calibrated at chunks of 64
    chunk = 64
    monkeypatch.setattr(convexity, "CHUNK", chunk)
    F = get_preset("kraus-halfmass").make()

    def peak(samples):
        tracemalloc.start()
        try:
            certify_degree_two(F, _empty_a(2), 0.5, samples=samples, trials=5,
                               seed=94, multiplicities=(1, 2, 3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)
    # a chunk's stacks of the Fourier route are about 1 MB here, so
    # stacks kept past their chunk would add several MB at 8 chunks
    assert peak(8 * chunk) - peak(chunk) < 96 * 1024
