"""One-variable layer: spectral calculus, Kraus/Pick forms, Loewner."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ncconvex import convexity, onevar
from ncconvex import (DiscreteMeasure, ScalarFn, convexity_test_1var,
                      g_transform, kraus_eval, loewner_monotone_test,
                      verify_convexity1_witness, verify_monotone_witness,
                      parse_polynomial, Signature)
from ncconvex.errors import DomainError, ShapeError, SingularityError
from ncconvex.onevar import (_loewner_stack, _values, kraus_scalar_fn,
                             loewner_matrix, matrix_apply)
from ncconvex.presets import get_preset, scalar_from_polynomial
from ncconvex.tuples import (derived_rng, draw_spectral, matrix_to_json,
                             spectral_lift)

HALF = DiscreteMeasure.point_mass(0.5)


def _scalar(expr, name=None):
    return scalar_from_polynomial(
        parse_polynomial(expr, Signature(0, 1)), name or expr)


# -- spectral calculus ---------------------------------------------------------


def test_matrix_apply_involution_example():
    # B^2 = I so exp-like functions act on the +-1 eigenspaces
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = ScalarFn(lambda t: t ** 3, name="t^3")
    np.testing.assert_allclose(matrix_apply(f, B), B, atol=1e-14)


def test_matrix_apply_matches_polynomial_arithmetic():
    rng = derived_rng(31)
    B = spectral_lift(*draw_spectral(rng, 4, -2.0, 2.0))
    f = _scalar("x1^3 - 2*x1 + 1")
    direct = B @ B @ B - 2 * B + np.eye(4)
    np.testing.assert_allclose(matrix_apply(f, B), direct, atol=1e-12)


def test_matrix_apply_unitary_equivariance():
    rng = derived_rng(32)
    B = spectral_lift(*draw_spectral(rng, 3, 0.1, 0.9))
    f = ScalarFn(math.sqrt, domain=(0.0, math.inf), name="sqrt")
    from ncconvex.tuples import haar_unitary
    U = haar_unitary(3, rng)
    lhs = matrix_apply(f, U @ B @ U.conj().T)
    rhs = U @ matrix_apply(f, B) @ U.conj().T
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_matrix_apply_domain_guard():
    f = ScalarFn(math.log, domain=(0.0, math.inf), name="log")
    B = np.diag([1.0, -1.0])
    with pytest.raises(DomainError):
        matrix_apply(f, B)
    with pytest.raises(ShapeError, match=r"has shape \(2, 3\)"):
        matrix_apply(f, np.ones((2, 3)))
    with pytest.raises(ValueError, match="not Hermitian"):
        matrix_apply(f, np.array([[1.0, 1.0], [0.0, 1.0]]))


# -- discrete measures and the Kraus form --------------------------------------


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.5, -1.0),))
    mu = DiscreteMeasure(((0.5, 0.25), (-0.5, 0.75)))
    assert mu.total_mass == pytest.approx(1.0)
    mu.check_kraus()
    with pytest.raises(ValueError):
        DiscreteMeasure(((2.0, 1.0),)).check_kraus()  # atom outside [-1,1]
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.5, 0.5),)).check_kraus()  # mass not 1


@pytest.mark.parametrize("atoms, message", [
    (((0.5, math.nan),), "weight nan at atom 0.5 is not"),
    (((0.5, math.inf),), "weight inf at atom 0.5 is not"),
    (((math.nan, 1.0),), "atom nan is not finite"),
    (((-math.inf, 1.0),), "atom -inf is not finite"),
])
def test_measure_refuses_non_finite_atoms_and_weights(atoms, message):
    # a NaN weight used to pass both checks, and kraus_eval then
    # returned an all-NaN matrix
    with pytest.raises(ValueError, match=message):
        DiscreteMeasure(atoms)


def test_check_kraus_refuses_a_mass_that_is_not_a_number():
    mu = DiscreteMeasure(((0.5, 1.0),))
    object.__setattr__(mu, "atoms", ((0.5, math.nan),))
    with pytest.raises(ValueError, match="weights sum to nan"):
        mu.check_kraus()


def test_kraus_point_mass_closed_form():
    for t in np.linspace(-0.9, 0.9, 25):
        got = kraus_eval(0.0, 0.0, 2.0, HALF, np.array([[t]]))[0, 0].real
        assert got == pytest.approx(t ** 2 / (1 - 0.5 * t), abs=1e-13)


def test_kraus_matches_spectral_route():
    fn = kraus_scalar_fn(0.3, -0.2, 1.5, HALF)
    rng = derived_rng(33)
    for n in (2, 3, 5):
        B = spectral_lift(*draw_spectral(rng, n, -0.9, 0.9))
        np.testing.assert_allclose(kraus_eval(0.3, -0.2, 1.5, HALF, B),
                                   matrix_apply(fn, B), atol=1e-12)


def test_matrix_apply_on_a_stack_equals_per_matrix_calls():
    fn = kraus_scalar_fn(0.3, -0.2, 1.5, HALF)
    rng = derived_rng(35)
    for n in (1, 2, 3, 5):
        B = spectral_lift(rng.uniform(-0.9, 0.9, (2, 3, n)),
                          rng.standard_normal((2, 3, 2, n, n)))
        stack = matrix_apply(fn, B)
        assert stack.shape == (2, 3, n, n)
        for Bj, Mj in zip(B.reshape(-1, n, n), stack.reshape(-1, n, n)):
            assert np.array_equal(Mj, matrix_apply(fn, Bj))


def test_matrix_apply_on_a_stack_raises_for_the_first_member_outside():
    f = ScalarFn(math.sqrt, domain=(0.0, math.inf), name="sqrt")
    B = np.array([np.diag([1.0, 2.0]), np.diag([0.5, -0.25]),
                  np.diag([-3.0, 1.0])])
    with pytest.raises(DomainError) as alone:
        matrix_apply(f, B[1])
    with pytest.raises(DomainError) as stacked:
        matrix_apply(f, B)
    assert str(stacked.value) == str(alone.value)
    assert "-0.25" in str(alone.value)


def test_kraus_zero_weight_measure_is_quadratic():
    mu = DiscreteMeasure(((0.3, 0.0), (0.0, 1.0)))
    B = np.diag([0.2, -0.4])
    got = kraus_eval(1.0, 2.0, 2.0, mu, B)
    want = np.eye(2) + 2 * B + B @ B  # f2/2 * B^2 at lambda = 0
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_kraus_spectrum_guard_and_pole():
    with pytest.raises(DomainError):
        kraus_eval(0.0, 0.0, 2.0, HALF, np.array([[1.0]]))
    near_pole = DiscreteMeasure.point_mass(1.0)
    with pytest.raises(SingularityError):
        kraus_eval(0.0, 0.0, 2.0, near_pole,
                   np.array([[1.0 - 1e-12]]) * (1 - 1e-12))


def test_kraus_eval_on_a_stack_equals_per_matrix_calls():
    mu = DiscreteMeasure(((0.5, 0.25), (-0.8, 0.75)))
    rng = derived_rng(34)
    for n in (1, 2, 3, 5):
        B = np.array([spectral_lift(*draw_spectral(rng, n, -0.9, 0.9))
                      for _ in range(7)])
        stack = kraus_eval(0.3, -0.2, 1.5, mu, B)
        for Bj, Mj in zip(B, stack):
            assert np.array_equal(Mj, kraus_eval(0.3, -0.2, 1.5, mu, Bj))
    ts = np.linspace(-0.9, 0.9, 11)
    sweep = kraus_eval(0.0, 0.0, 2.0, HALF, ts[:, None, None])
    assert [M[0, 0] for M in sweep] == [
        kraus_eval(0.0, 0.0, 2.0, HALF, np.array([[t]]))[0, 0] for t in ts]


def test_kraus_stack_raises_for_its_first_bad_member():
    near_pole = DiscreteMeasure.point_mass(1.0)
    good, pole, outside = 0.5, 1.0 - 5e-9, 1.5
    for ts, err, msg in (
            ([good, pole, outside], SingularityError,
             r"^resolvent pole too close: min \|1 - lambda\*t\| = 5\.000e-09$"),
            ([good, outside, pole], DomainError,
             r"^spectrum \[1\.5, 1\.5\] not inside \(-1, 1\)$")):
        with pytest.raises(err, match=msg):
            kraus_eval(0.0, 0.0, 2.0, near_pole,
                       np.array(ts)[:, None, None])


def test_kraus_eval_maps_a_singular_solve_to_singularity_error(monkeypatch):
    # the pole check refuses every B whose solve could be singular, so a
    # failing solver stands in for one that slips past it
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularityError,
                       match=r"^resolvent at atom 0\.5 is singular$"):
        kraus_eval(0.0, 0.0, 2.0, HALF, np.diag([0.5, -0.5]))


def test_kraus_scalar_derivatives():
    fn = kraus_scalar_fn(0.0, 0.0, 2.0, HALF)
    # f = t^2/(1-t/2): f' and f'' against a symbolic expansion
    for t in (-0.5, 0.0, 0.3, 0.8):
        u = 1 - 0.5 * t
        d1 = (2 * t * u + 0.5 * t ** 2) / u ** 2
        d2 = 2.0 / u ** 3
        assert fn.derivative(t) == pytest.approx(d1, abs=1e-12)
        assert fn.second_derivative(t) == pytest.approx(d2, abs=1e-12)


@pytest.mark.parametrize("atoms", [((0.5, 0.25), (-0.8, 0.75)),
                                   ((0.5, 0.25), (-0.8, 0.5), (0.3, 0.25))],
                         ids=["two", "three"])
def test_kraus_scalar_terms_are_left_folds_over_the_atoms(atoms):
    # sum() compensates from Python 3.12 on, so only an explicit left
    # fold reads the same last bits on every version; from three atoms
    # on, the two part on about a fifth of these points
    f0, f1, f2 = -0.4, 0.9, 1.25
    fn = kraus_scalar_fn(f0, f1, f2, DiscreteMeasure(atoms))
    for t in np.linspace(-0.99, 0.99, 397).tolist():
        s0 = s1 = s2 = 0.0
        for l, w in atoms:
            s0 = s0 + w * t * t / (1.0 - l * t)
            s1 = s1 + w * t * (2.0 - l * t) / (1.0 - l * t) ** 2
            s2 = s2 + w / (1.0 - l * t) ** 3
        assert fn(t).hex() == (f0 + f1 * t + 0.5 * f2 * s0).hex()
        assert fn.derivative(t).hex() == (f1 + 0.5 * f2 * s1).hex()
        assert fn.second_derivative(t).hex() == (f2 * s2).hex()


# -- Pick form -----------------------------------------------------------------


def pick_eval(alpha, beta, mu, z):
    """The Nevanlinna-Pick sum alpha z + beta
    + sum_k w_k (1/(lambda_k - z) - lambda_k/(lambda_k^2+1)), a source of
    operator-monotone functions."""
    z = complex(z)
    acc = alpha * z + beta
    for l, w in mu.atoms:
        if abs(l - z) <= 1e-12:
            raise SingularityError(
                f"evaluation point {z} collides with atom {l}")
        acc += w * (1.0 / (l - z) - l / (l * l + 1.0))
    return acc


def test_pick_empty_measure_is_affine():
    mu = DiscreteMeasure(())
    assert pick_eval(2.0, 1.0, mu, 0.7) == pytest.approx(2.0 * 0.7 + 1.0)


def test_pick_single_atom_reproduces_mobius():
    # alpha=0, beta adjusted: w/(lambda - z) shape up to constants
    mu = DiscreteMeasure(((0.0, 1.0),))
    for z in (0.3, -0.5, 2.0):
        want = 1.0 / (0.0 - z) - 0.0
        assert pick_eval(0.0, 0.0, mu, z) == pytest.approx(want)


def test_pick_atom_collision():
    mu = DiscreteMeasure(((0.5, 1.0),))
    with pytest.raises(SingularityError):
        pick_eval(0.0, 0.0, mu, 0.5)


def test_pick_increasing_between_atoms():
    mu = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
    ts = np.linspace(-0.9, 0.9, 50)
    vals = [pick_eval(0.1, 0.0, mu, t) for t in ts]
    assert all(abs(v.imag) < 1e-15 for v in vals)
    reals = [v.real for v in vals]
    assert all(b > a for a, b in zip(reals, reals[1:]))


# -- the g-transform -----------------------------------------------------------


def test_g_transform_of_square_is_identity():
    g = g_transform(_scalar("x1^2", "t^2"))
    for t in np.linspace(-1.5, 1.5, 21):
        assert g(t) == pytest.approx(t, abs=1e-9)
    assert g.derivative(0.0) == pytest.approx(1.0, abs=1e-7)


def test_g_transform_of_halfmass():
    fn = kraus_scalar_fn(0.0, 0.0, 2.0, HALF)
    g = g_transform(fn)
    for t in np.linspace(-0.85, 0.85, 20):
        assert g(t) == pytest.approx(t / (1 - 0.5 * t), abs=1e-9)


def test_g_transform_value_at_zero_is_fprime():
    fn = _scalar("3*x1 + 5*x1^2 + x1^3")
    g = g_transform(fn)
    assert g(0.0) == pytest.approx(3.0, abs=1e-10)
    # slope at zero is f''(0)/2
    assert g.derivative(0.0) == pytest.approx(5.0, abs=1e-6)


def test_g_transform_needs_zero_interior():
    fn = ScalarFn(math.log, domain=(0.0, math.inf), name="log")
    with pytest.raises(DomainError):
        g_transform(fn)


@pytest.mark.parametrize("d1", [None, math.exp], ids=["f", "f and d1"])
def test_g_transform_by_finite_differences(d1):
    # without analytic second derivatives the Taylor patch near 0 comes
    # from second_derivative's differences, of f' or of f itself
    g = g_transform(ScalarFn(math.exp, d1=d1))
    for t in (0.0, 5e-4, 0.5):
        want = math.expm1(t) / t if t else 1.0
        slope = (t * math.exp(t) - math.expm1(t)) / t ** 2 if t else 0.5
        assert abs(g(t) - want) <= 1e-9
        assert abs(g.derivative(t) - slope) <= 1e-7


# -- Loewner monotonicity ------------------------------------------------------


def test_loewner_matrix_entries():
    f = _scalar("x1^2")
    L = loewner_matrix(f, [1.0, 3.0])
    # off-diagonal (1+3), diagonal 2t
    np.testing.assert_allclose(L, np.array([[2.0, 4.0], [4.0, 6.0]]),
                               atol=1e-8)


def test_identity_is_operator_monotone():
    rep = loewner_monotone_test(_scalar("x1"), (-1.0, 1.0), trials=100,
                                seed=41)
    assert rep.passed and rep.min_eig >= -1e-10


def test_square_is_not_operator_monotone():
    rep = loewner_monotone_test(_scalar("x1^2"), (-1.0, 1.0), trials=200,
                                seed=41)
    assert not rep.passed
    assert rep.witness is not None
    L = loewner_matrix(_scalar("x1^2"), rep.witness["points"])
    assert np.linalg.eigvalsh(L)[0] < -1e-6
    again = verify_monotone_witness(_scalar("x1^2"), rep.witness)
    assert again == min(rep.witness["loewner_eigs"])


def test_loewner_refuses_points_outside_the_domain():
    # f past its pole made a FAIL that re-verified
    f = get_preset("kraus-halfmass").make_scalar()
    with pytest.raises(DomainError, match=r"interval \(-3.0, 3.0\) is not "
                                          r"inside the domain"):
        loewner_monotone_test(f, (-3.0, 3.0), trials=5, seed=1)
    assert loewner_monotone_test(f, f.domain, trials=5, seed=1).trials == 5
    with pytest.raises(DomainError, match="point 2.35 lies outside"):
        verify_monotone_witness(f, {"points": [0.5, 2.35]})


@pytest.mark.parametrize("interval", [(2.0, 3.0), (-3.0, 3.0), (-1.2, 1.2)],
                         ids=["disjoint", "wide", "late-trial"])
def test_convexity1_names_the_interval_and_the_domain(interval):
    # an interval that leaves the domain is refused before any trial
    # runs, as the Loewner tester refuses it; one that only overlaps
    # the domain used to resample, and stopped at a random trial
    f = get_preset("kraus-halfmass").make_scalar()
    with pytest.raises(DomainError) as exc:
        convexity_test_1var(f, interval, seed=1)
    assert str(exc.value) == (f"interval {interval} is not inside the "
                              "domain (-1.0, 1.0) of kraus-halfmass-scalar")


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_convexity1_names_the_trial_whose_spectrum_leaves_the_domain(
        chunk, monkeypatch):
    # only float dust at an end of the domain can push a drawn spectrum
    # out; here trial 3's first spectrum is drawn past the end, and the
    # trial is named whether its chunk is stacked or replayed
    calls = []

    def draw(rng, n, lo, hi):
        lam, parts = draw_spectral(rng, n, lo, hi)
        calls.append(None)
        return (lam + 2.0 if len(calls) == 7 else lam), parts

    monkeypatch.setattr(convexity, "CHUNK", chunk)
    monkeypatch.setattr(onevar, "draw_spectral", draw)
    with pytest.raises(DomainError) as exc:
        convexity_test_1var(get_preset("kraus-halfmass").make_scalar(),
                            (-0.5, 0.5), trials=10, seed=1)
    assert str(exc.value) == ("trial 3: a spectrum leaves the domain "
                              "(-1.0, 1.0) of kraus-halfmass-scalar")


def test_sqrt_is_operator_monotone():
    f = ScalarFn(math.sqrt, d1=lambda t: 0.5 / math.sqrt(t),
                 domain=(0.0, math.inf), name="sqrt")
    rep = loewner_monotone_test(f, (0.01, 4.0), trials=150, seed=42)
    assert rep.passed


@pytest.mark.parametrize("tester", [loewner_monotone_test,
                                    convexity_test_1var])
def test_testers_refuse_an_interval_of_infinite_width(tester):
    # the sampler's rng.uniform raised OverflowError, a traceback
    with pytest.raises(ValueError, match="need a finite interval"):
        tester(_scalar("x1^3"), (-1e308, 1e308), trials=3)


# -- one-variable convexity ----------------------------------------------------


def test_square_is_matrix_convex_1var():
    rep = convexity_test_1var(_scalar("x1^2"), (-1.0, 1.0), size=3,
                              trials=150, seed=43)
    assert rep.passed


def test_quartic_fails_and_witness_verifies():
    f = _scalar("x1^4", "t^4")
    rep = convexity_test_1var(f, (-2.0, 2.0), size=2, trials=500, seed=43)
    assert not rep.passed
    assert rep.min_eig < -1e-6
    again = verify_convexity1_witness(f, rep.witness)
    assert again == pytest.approx(min(rep.witness["defect_eigs"]), rel=1e-9)
    assert again < -1e-6


def test_convexity1_witness_check_stops_at_the_first_matrix_outside():
    # spectral calculus matrix by matrix: f runs once per eigenvalue of
    # A, and B's eigenvalue 3 outside (-2, 2) is named before the mixed
    # point is formed
    calls = []
    f = ScalarFn(lambda t: calls.append(t) or t ** 4, domain=(-2.0, 2.0),
                 name="t^4")
    witness = {"A": matrix_to_json(np.diag([0.5, -0.5])),
               "B": matrix_to_json(np.diag([1.0, 3.0])), "t": 0.5}
    with pytest.raises(DomainError, match=r"eigenvalue \S*3\.0\S* outside"):
        verify_convexity1_witness(f, witness)
    assert sorted(calls) == [-0.5, 0.5]
    # a spectrum outside the domain is reported before a later matrix
    # is refused as non-Hermitian
    witness["A"] = matrix_to_json(np.diag([0.5, 2.5]))
    witness["B"] = matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError, match=r"eigenvalue \S*2\.5\S* outside"):
        verify_convexity1_witness(f, witness)


def test_matrix_apply_names_the_eigenvalue_as_a_float():
    f = ScalarFn(lambda t: t ** 4, domain=(-2.0, 2.0), name="t^4")
    with pytest.raises(DomainError) as exc:
        matrix_apply(f, np.diag([0.5, 3.0]))
    assert str(exc.value) == ("eigenvalue 3.0 outside the domain "
                              "(-2.0, 2.0) of t^4")


def test_loewner_matrix_evaluates_f_once_per_point():
    calls = []
    f = ScalarFn(lambda t: calls.append(t) or t * t, d1=lambda t: 2.0 * t,
                 name="t^2")
    pts = [0.1, 0.3, 0.5, 0.7, 0.9]
    L = loewner_matrix(f, pts)
    assert calls == pts
    assert np.array_equal(L, L.T)
    calls.clear()
    rep = loewner_monotone_test(f, (0.1, 1.0), trials=60, seed=24)
    # t^2 is not operator monotone; the witness needs no further call
    assert not rep.passed and len(calls) == 60 * 5


def test_kraus_forms_are_matrix_convex():
    # property: any valid (f2 >= 0, probability mu) representation
    rng = derived_rng(44)
    for trial in range(5):
        atoms = rng.integers(1, 4)
        locs = rng.uniform(-1.0, 1.0, atoms)
        w = rng.uniform(0.1, 1.0, atoms)
        mu = DiscreteMeasure(tuple(zip(locs, w / w.sum())))
        fn = kraus_scalar_fn(float(rng.normal()), float(rng.normal()),
                             float(rng.uniform(0.0, 3.0)), mu)
        rep = convexity_test_1var(fn, (-0.9, 0.9), size=3, trials=100,
                                  seed=(45, trial))
        assert rep.passed, f"trial {trial}: min {rep.min_eig}"


def test_report_json_shape():
    rep = convexity_test_1var(_scalar("x1^2"), (-1.0, 1.0), size=2,
                              trials=20, seed=46)
    d = rep.to_json_dict()
    assert d["test"] == "convexity_1var"
    assert d["pass"] is True
    assert "witness" not in d


def _pick(alpha, beta, mu):
    return ScalarFn(lambda t: pick_eval(alpha, beta, mu, t).real,
                    name="pick")


def test_pick_function_is_operator_monotone_off_its_atoms():
    # the Loewner matrix of a Pick function is alpha 11* plus
    # sum_k w_k u_k u_k* with u_k(t) = 1/(lambda_k - t): PSD for w >= 0
    good = _pick(0.3, 0.1, DiscreteMeasure(((-1.5, 0.5), (1.5, 1.0))))
    rep = loewner_monotone_test(good, (-1.0, 1.0), trials=100, seed=81)
    assert rep.passed and rep.witness is None
    # DiscreteMeasure refuses a negative weight; pick_eval reads only atoms
    bad = _pick(0.3, 0.1, SimpleNamespace(atoms=((-1.5, 0.5), (1.5, -1.0))))
    rep = loewner_monotone_test(bad, (-1.0, 1.0), trials=100, seed=81)
    assert not rep.passed and rep.min_eig < -1e-6
    assert verify_monotone_witness(bad, rep.witness) < -1e-6


# -- package-built functions on whole arrays -----------------------------------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _value_points(rng, edges):
    # signed zeros, the domain's edges, points whose powers overflow to
    # inf (and inf - inf to NaN), and a spread inside (-0.99, 0.99)
    special = [0.0, -0.0, *edges, 1e80, -1e80, 1e155, -1e155, 1e200,
               -1e300, 5e-324, -5e-324]
    return np.concatenate([special, rng.uniform(-0.99, 0.99, 2000),
                           rng.uniform(-50.0, 50.0, 300)]).reshape(-1, 2)


def _random_polynomial(rng, degree):
    coeffs = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-3, 4,
                                                                degree + 1)
    expr = " + ".join(f"({c!r})*x1^{k}"
                      for k, c in enumerate(coeffs.tolist()))
    return _scalar(expr)


@pytest.mark.parametrize("make", [
    *[(lambda rng, d=d: _random_polynomial(rng, d)) for d in range(7)],
    lambda rng: _scalar("0"),
    lambda rng: kraus_scalar_fn(0.3, -1.7, 2.5, HALF),
    lambda rng: kraus_scalar_fn(
        -0.4, 0.9, 1.25, DiscreteMeasure(((0.5, 0.25), (-0.8, 0.75)))),
    lambda rng: kraus_scalar_fn(
        1e3, 0.0, 7.0,
        DiscreteMeasure(((0.9, 0.2), (0.0, 0.3), (-0.35, 0.5)))),
], ids=[*(f"degree{d}" for d in range(7)), "zero", "kraus1", "kraus2",
        "kraus3"])
def test_values_on_an_array_equal_calls_per_point_bit_for_bit(make):
    rng = derived_rng(91)
    f = make(rng)
    assert f._on_arrays
    lo, hi = f.domain
    P = _value_points(rng, (lo, hi, math.nextafter(lo, 0.0),
                            math.nextafter(hi, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _values(f, P)
    want = [[f(t) for t in row] for row in P.tolist()]
    assert got.shape == P.shape
    assert np.array_equal(_bits(got), _bits(want))
    assert not np.isfinite(got).all()       # the overflow points are in


@pytest.mark.parametrize("preset", ["square", "quartic", "kraus-halfmass"])
def test_preset_values_never_go_through_calls_per_point(preset, monkeypatch):
    f = get_preset(preset).make_scalar()
    lo, hi = get_preset(preset).interval

    def refuse(self, t):
        raise AssertionError("ScalarFn.__call__ reached")
    monkeypatch.setattr(ScalarFn, "__call__", refuse)
    convexity_test_1var(f, (lo, hi), size=3, trials=40, seed=92)
    loewner_monotone_test(f, (lo, hi), trials=40, seed=92)
    matrix_apply(f, np.diag([lo / 2, hi / 2]))


def test_a_user_function_still_runs_point_by_point_on_floats():
    seen = set()

    def on_floats(g):
        def fn(t):
            seen.add(type(t))
            return g(t)
        return fn

    convex = ScalarFn(on_floats(lambda t: -math.log(t)),
                      d1=lambda t: -1.0 / t, domain=(0.0, math.inf))
    monotone = ScalarFn(on_floats(math.log), d1=lambda t: 1.0 / t,
                        domain=(0.0, math.inf))
    exp = ScalarFn(on_floats(math.exp), d1=math.exp)
    np.testing.assert_allclose(matrix_apply(convex, np.diag([1.0, math.e])),
                               np.diag([0.0, -1.0]), atol=1e-15)
    assert convexity_test_1var(convex, (0.1, 4.0), size=2, trials=40,
                               seed=93).passed
    assert loewner_monotone_test(monotone, (0.1, 4.0), trials=40,
                                 seed=93).passed
    # exp is convex but not operator monotone
    assert not loewner_monotone_test(exp, (-1.0, 1.0), trials=40,
                                     seed=93).passed
    assert seen == {float}


def _loewner_double_loop(f, points):
    """loewner_matrix as a double loop over the points, the reference
    the stacked build must equal bit for bit."""
    pts = np.asarray(points, dtype=float)
    vals = [f(t) for t in pts]
    k = pts.size
    L = np.empty((k, k), dtype=float)
    for i in range(k):
        L[i, i] = f.derivative(pts[i])
        for j in range(i + 1, k):
            v = (vals[i] - vals[j]) / (pts[i] - pts[j])
            L[i, j] = v
            L[j, i] = v
    return L


@pytest.mark.parametrize("f", [
    _scalar("0.7*x1^5 - 1.3*x1^2 + x1 - 0.2"),
    kraus_scalar_fn(0.3, -1.7, 2.5,
                    DiscreteMeasure(((0.5, 0.25), (-0.8, 0.75)))),
    # per point, with the finite-difference derivative on np.float64s
    ScalarFn(lambda t: t ** 3 - math.sin(t), name="t^3 - sin"),
    ScalarFn(math.sqrt, d1=lambda t: 0.5 / math.sqrt(t),
             domain=(0.0, math.inf), name="sqrt"),
], ids=["polynomial", "kraus", "finite-difference", "sqrt"])
def test_stacked_loewner_matrices_equal_the_double_loop(f):
    rng = derived_rng(94)
    for k in (2, 3, 5, 8):
        P = np.sort(rng.uniform(0.05, 0.95, size=(17, k)), axis=-1)
        want = np.stack([_loewner_double_loop(f, row) for row in P])
        assert np.array_equal(_bits(_loewner_stack(f, P)), _bits(want))
        assert np.array_equal(_bits(loewner_matrix(f, P[0])), _bits(want[0]))
