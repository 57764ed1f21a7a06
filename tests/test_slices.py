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
                             VERDICT_HYPOTHESIS_FAILS, _draw_slice_sample,
                             _extract, _magnitudes, _unit_vectors,
                             slice_matrix, slice_scalar)
from ncconvex.tuples import (ca_element, derived_rng, draw_x_ball,
                             matrix_from_json, sample_x_ball, tuple_norm)


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
    alphas = [ca_element(A, m, "random", seed=rng).tuple for _ in range(c)]
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
    stacked = _extract(F, _stack(alphas), _stack(Xs), vs, **kw)
    kinds = set()
    for A, X, v, got in zip(alphas, Xs, vs, stacked):
        try:
            want = extract_slice_coefficients(F, A, X, v, **kw)
        except (ExtractionError, DomainError) as exc:
            kinds.add("refused")
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        kinds.add("coefficients")
        assert np.array_equal(got.coeffs, want.coeffs)
        assert (got.method, got.radius, got.residual) == (
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


def test_certify_extracts_each_multiplicity_of_a_chunk_in_one_call():
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
    # one stacked call per multiplicity per chunk, in the order of their
    # first samples, and no rerun; each sample brings its 18 DFT nodes
    # (9 to interpolate, 9 to check, at degree_cap 8)
    want = []
    for ks in (range(CHUNK), range(CHUNK, CHUNK + 10)):
        ms = [(1, 2, 3)[k % 3] for k in ks]
        want += [(18 * ms.count(m), 1, 2 * m, 2 * m)
                 for m in dict.fromkeys(ms)]
    assert shapes == want


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
def test_slice_sample_draw_equals_the_separate_draws(g, n):
    # the Haar block, draw_x_ball's parts and radius, and v's real and
    # imaginary parts, each from its own call, as certify drew them
    merged, separate = derived_rng(70, g, n), derived_rng(70, g, n)
    haar, (parts, radius), v = _draw_slice_sample(merged, n, g, 0.25)
    want_haar = separate.standard_normal((2, n, n))
    [(want_parts, want_radius)] = draw_x_ball(g, n, 0.25, 1, separate)
    want_v = separate.standard_normal(n) + 1j * separate.standard_normal(n)
    assert np.array_equal(haar, want_haar)
    assert parts.shape == want_parts.shape == (g, 2, n, n)
    assert np.array_equal(parts, want_parts)
    assert radius == want_radius and type(radius) is type(want_radius)
    assert np.array_equal(v, want_v)
    assert merged.bit_generator.state == separate.bit_generator.state


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
        return [slices.SliceCoefficients(coeffs=c, method="dft", radius=0.1,
                                         residual=0.0)
                for c in rows[:len(vs)]]

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
