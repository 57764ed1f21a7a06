"""Evaluation: substitution homomorphism, series truncation, axioms."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from ncconvex import (CallableNcFunction, HermTuple, NcPolynomial,
                      NcPowerSeries, PolynomialNcFunction, SeriesNcFunction,
                      Signature, certify_degree_two, check_nc_function_axioms,
                      eval_poly, parse_polynomial)
from ncconvex import test_convexity_at_A as convexity_at_A
from ncconvex.algebra import MatrixNcPolynomial
from ncconvex.errors import DomainError, ShapeError, SignatureError
from ncconvex.evaluate import eval_series
from ncconvex.presets import get_preset, random_base_tuple
from ncconvex.tuples import derived_rng, random_hermitian

from axioms_examples import trace_evaluator

SIGX = Signature(0, 2)


def _point(sig, n, seed):
    rng = derived_rng(seed)
    A = HermTuple([random_hermitian(n, rng) for _ in range(sig.g_a)],
                  kind="a", n=n)
    X = HermTuple([random_hermitian(n, rng) for _ in range(sig.g_x)],
                  kind="x", n=n)
    return A, X


def test_word_substitution_hand_example():
    p = parse_polynomial("z1*z2", SIGX)
    Z1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z2 = np.array([[1.0, 0.0], [0.0, -1.0]])
    X = HermTuple([Z1, Z2], kind="x")
    A = HermTuple([], kind="a", n=2)
    got = eval_poly(p, A, X)
    np.testing.assert_allclose(got, np.array([[0.0, -1.0], [1.0, 0.0]]),
                               atol=1e-15)


def test_eval_is_multiplicative():
    sig = Signature(1, 1)
    p = parse_polynomial("a1*x1 + 2", sig)
    q = parse_polynomial("x1*a1 - a1", sig)
    A, X = _point(sig, 3, seed=21)
    np.testing.assert_allclose(eval_poly(p * q, A, X),
                               eval_poly(p, A, X) @ eval_poly(q, A, X),
                               atol=1e-12)


def test_eval_is_additive_and_unital():
    sig = Signature(1, 1)
    p = parse_polynomial("a1*x1*a1", sig)
    q = parse_polynomial("x1^3", sig)
    A, X = _point(sig, 3, seed=22)
    np.testing.assert_allclose(eval_poly(p + q, A, X),
                               eval_poly(p, A, X) + eval_poly(q, A, X),
                               atol=1e-12)
    one = parse_polynomial("1", sig)
    np.testing.assert_allclose(eval_poly(one, A, X), np.eye(3), atol=1e-15)


def test_star_evaluates_to_adjoint():
    sig = Signature(1, 2)
    p = parse_polynomial("(2+3i)*a1*x1*x2", sig)
    A, X = _point(sig, 3, seed=23)
    np.testing.assert_allclose(eval_poly(p.involute(), A, X),
                               eval_poly(p, A, X).conj().T, atol=1e-12)


def test_hermitian_polynomial_evaluates_hermitian():
    p = parse_polynomial("8*z1*z2 + 8*z2*z1 + z1^2", SIGX)
    A, X = _point(SIGX, 4, seed=24)
    M = eval_poly(p, A, X)
    assert np.max(np.abs(M - M.conj().T)) < 1e-9


def test_scalar_point_evaluation():
    sig = Signature(0, 1)
    p = parse_polynomial("x1^2 + 1", sig)
    X = HermTuple([np.array([[0.5]])], kind="x")
    A = HermTuple([], kind="a", n=1)
    assert eval_poly(p, A, X)[0, 0] == pytest.approx(1.25)


def test_arity_mismatch_raises():
    p = parse_polynomial("x1", Signature(0, 1))
    X = HermTuple([np.eye(2), np.eye(2)], kind="x")
    A = HermTuple([], kind="a", n=2)
    with pytest.raises(SignatureError):
        eval_poly(p, A, X)


def test_x_homogeneous_parts_scale_correctly():
    sig = Signature(1, 1)
    p = parse_polynomial("a1 + a1*x1 + x1*a1*x1 + x1^3", sig)
    A, X = _point(sig, 3, seed=25)
    parts = PolynomialNcFunction(p).x_parts()
    for i in range(parts.order + 1):
        Mi = eval_poly(parts[i], A, X)
        Mc = eval_poly(parts[i], A, X.scale(0.7))
        np.testing.assert_allclose(Mc, 0.7 ** i * Mi, atol=1e-12)


def test_series_truncation_remainder_geometric():
    # sum_k x^k up to order 12 at |X| = 0.3: increment <= 0.3^12
    sig = Signature(0, 1)
    x1 = NcPolynomial.variable(sig, "x", 1)
    S = NcPowerSeries([x1 ** k for k in range(13)], radius=1.0)
    X = HermTuple([np.array([[0.3]])], kind="x")
    A = HermTuple([], kind="a", n=1)
    total = eval_series(S, A, X)
    inc = np.linalg.norm(eval_poly(S[S.order], A, X), 2)
    assert total[0, 0] == pytest.approx(1.0 / 0.7, abs=2 * 0.3 ** 12)
    assert inc <= 0.3 ** 12 + 1e-15


def test_series_outside_radius_rejected():
    sig = Signature(0, 1)
    from ncconvex import NcPolynomial
    zero = NcPolynomial.zero(sig)
    S = NcPowerSeries([zero, zero, NcPolynomial.variable(sig, "x", 1) ** 2],
                      radius=0.5)
    X = HermTuple([np.array([[0.6]])], kind="x")
    A = HermTuple([], kind="a", n=1)
    with pytest.raises(DomainError):
        eval_series(S, A, X)


def test_axioms_pass_for_polynomial():
    p = parse_polynomial("a1*x1*a1 + x1^2", Signature(1, 1))
    rep = check_nc_function_axioms(PolynomialNcFunction(p), samples=40,
                                   seed=3)
    assert rep.passed
    assert max(rep.max_direct_sum_dev, rep.max_unitary_dev) < 1e-10


def test_axioms_fail_for_trace():
    rep = check_nc_function_axioms(trace_evaluator(), samples=40, seed=3)
    assert not rep.passed
    assert rep.counterexample is not None
    assert rep.counterexample["axiom"] == "direct_sum"


def test_axioms_report_json_shape():
    p = parse_polynomial("x1^2", Signature(0, 1))
    d = check_nc_function_axioms(PolynomialNcFunction(p), samples=10,
                                 seed=4).to_json_dict()
    assert d["test"] == "nc_function_axioms"
    assert d["pass"] is True
    assert "samples" in d and "tol" in d


def _mixed_ax():
    return parse_polynomial("a1*x1*a1 + x1*a1*x1 + x1^2", Signature(1, 1))


RAW = {
    "polynomial": (_mixed_ax, PolynomialNcFunction),
    "matrix polynomial": (
        lambda: MatrixNcPolynomial.from_scalar(_mixed_ax()),
        PolynomialNcFunction),
    "series": (lambda: NcPowerSeries.from_polynomial(_mixed_ax()),
               SeriesNcFunction),
}


def _testers():
    A = random_base_tuple(1, 2, derived_rng(97), norm=0.3)
    return (lambda F: convexity_at_A(F, A, 0.5, trials=20, seed=97),
            lambda F: check_nc_function_axioms(F, samples=10, seed=97),
            lambda F: certify_degree_two(F, A, 0.5, samples=4, trials=10,
                                         seed=97))


@pytest.mark.parametrize("make, wrap", RAW.values(), ids=RAW)
def test_testers_wrap_a_raw_polynomial_or_series(make, wrap):
    raw = make()
    for run in _testers():
        assert run(raw).to_json_dict() == run(wrap(raw)).to_json_dict()


def test_testers_refuse_a_plain_callable():
    for run in _testers():
        with pytest.raises(TypeError, match="cannot wrap function as an nc "
                                            "function"):
            run(lambda A, X: X[0])


# -- Horner plan against an independent reference -----------------------------


def _reference(p, a_mats, x_mats, n):
    """sum_w c_w (A,X)^w, each word a left-to-right product."""
    lookup = {("a", i + 1): m for i, m in enumerate(a_mats)}
    lookup.update({("x", i + 1): m for i, m in enumerate(x_mats)})
    acc = np.zeros((n, n), dtype=complex)
    for word, c in p.items():
        w = np.eye(n, dtype=complex)
        for letter in word:
            w = w @ lookup[letter]
        acc += c * w
    return acc


def _random_poly(sig, rng, n_words, max_len):
    letters = ([("a", i + 1) for i in range(sig.g_a)]
               + [("x", i + 1) for i in range(sig.g_x)])
    terms = {}
    for _ in range(n_words):
        word = tuple(letters[j] for j in
                     rng.integers(len(letters), size=rng.integers(max_len + 1)))
        terms[word] = complex(*rng.uniform(-1, 1, size=2))
    return NcPolynomial(sig, terms)


def _unit_norm_mats(g, n, rng, hermitian=True):
    mats = []
    for _ in range(g):
        m = (random_hermitian(n, rng) if hermitian else
             rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mats.append(m / np.linalg.norm(m, 2))
    return mats


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_plan_matches_reference_on_random_polynomials(n):
    rng = np.random.default_rng(100 + n)
    for sig in (Signature(0, 1), Signature(0, 3), Signature(2, 2)):
        for _ in range(5):
            p = _random_poly(sig, rng, n_words=int(rng.integers(1, 40)),
                             max_len=6)
            a_mats = _unit_norm_mats(sig.g_a, n, rng)
            x_mats = _unit_norm_mats(sig.g_x, n, rng)
            A = HermTuple(a_mats, kind="a", n=n)
            X = HermTuple(x_mats, kind="x", n=n)
            np.testing.assert_allclose(eval_poly(p, A, X),
                                       _reference(p, a_mats, x_mats, n),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("expr, sig", [
    ("0", Signature(1, 1)),
    ("(2-3i)", Signature(1, 1)),
    ("a1*a2 - 2*a2^3 + (1+i)*a1", Signature(2, 1)),
    ("x1*x2*x1 + 2*x2*x2*x1", Signature(0, 2)),
    ("a1*x1 + 0.5*x1*x1 - a1*a1*x1", Signature(1, 1)),
])
def test_plan_matches_reference_on_edge_cases(expr, sig):
    p = parse_polynomial(expr, sig)
    rng = np.random.default_rng(7)
    a_mats = _unit_norm_mats(sig.g_a, 3, rng)
    x_mats = _unit_norm_mats(sig.g_x, 3, rng)
    got = eval_poly(p, HermTuple(a_mats, kind="a", n=3),
                    HermTuple(x_mats, kind="x", n=3))
    np.testing.assert_allclose(got, _reference(p, a_mats, x_mats, 3),
                               rtol=0, atol=1e-12)


def test_merging_fires_only_on_equal_sub_polynomials():
    sig = Signature(0, 2)
    # x1*x2 + x2*x2: both letters continue with x2, one step for both
    # plus the root
    same = parse_polynomial("x1*x2 + x2*x2", sig)
    # same suffix, different coefficient: the continuations must stay apart
    diff = parse_polynomial("x1*x2 + 3*x2*x2", sig)
    assert len(same.horner_plan) == 2
    assert len(diff.horner_plan) == 3
    x1, x2 = _unit_norm_mats(2, 4, np.random.default_rng(8))
    X = HermTuple([x1, x2], kind="x", n=4)
    A = HermTuple([], kind="a", n=4)
    np.testing.assert_allclose(eval_poly(diff, A, X),
                               x1 @ x2 + 3 * x2 @ x2, rtol=0, atol=1e-12)
    deep_same = parse_polynomial("x1*x2*x1 + x2*x2*x1", sig)
    deep_diff = parse_polynomial("x1*x2*x1 + 2*x2*x2*x1", sig)
    assert len(deep_same.horner_plan) == 3
    assert len(deep_diff.horner_plan) == 5
    np.testing.assert_allclose(eval_poly(deep_diff, A, X),
                               x1 @ x2 @ x1 + 2 * x2 @ x2 @ x1,
                               rtol=0, atol=1e-12)
    # the x1-continuation of x1*x2 and of the root is one step, used by
    # two later steps: it must live until the second of them
    shared = parse_polynomial("x1*x2*x1 + x2*x1", sig)
    assert len(shared.horner_plan) == 3
    np.testing.assert_allclose(eval_poly(shared, A, X),
                               x1 @ x2 @ x1 + x2 @ x1, rtol=0, atol=1e-12)


def test_plan_matches_reference_for_matrix_polynomial():
    sig = Signature(1, 2)
    rng = np.random.default_rng(9)
    grid = [[_random_poly(sig, rng, 12, 4) for _ in range(3)]
            for _ in range(2)]
    P = MatrixNcPolynomial(grid)
    a_mats = _unit_norm_mats(1, 4, rng)
    x_mats = _unit_norm_mats(2, 4, rng)
    got = eval_poly(P, HermTuple(a_mats, kind="a", n=4),
                    HermTuple(x_mats, kind="x", n=4))
    want = np.block([[_reference(q, a_mats, x_mats, 4) for q in row]
                     for row in grid])
    assert got.shape == (8, 12)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_plan_matches_reference_on_non_hermitian_matrices():
    # the complex-z slices evaluate at plain, non-Hermitian matrices
    sig = Signature(1, 2)
    rng = np.random.default_rng(10)
    for n in (1, 3, 5):
        p = _random_poly(sig, rng, 30, 5)
        a_mats = _unit_norm_mats(1, n, rng, hermitian=False)
        x_mats = [(0.3 - 0.8j) * m
                  for m in _unit_norm_mats(2, n, rng, hermitian=False)]
        np.testing.assert_allclose(eval_poly(p, a_mats, x_mats),
                                   _reference(p, a_mats, x_mats, n),
                                   rtol=0, atol=1e-12)


def test_single_1024_letter_word_matches_matrix_power():
    # words past about 990 letters used to raise RecursionError
    p = parse_polynomial("(x1^128)^8", Signature(0, 1))
    rng = np.random.default_rng(11)
    (x,) = _unit_norm_mats(1, 3, rng)
    np.testing.assert_allclose(
        eval_poly(p, HermTuple([], kind="a", n=3), HermTuple([x], kind="x")),
        np.linalg.matrix_power(x, 1024), rtol=0, atol=1e-12)


def test_expanded_power_of_sum_collapses_to_few_steps():
    p = parse_polynomial("(x1+x2+x3)^8", Signature(0, 3))
    assert p.n_terms == 3 ** 8
    assert len(p.horner_plan) <= 9


def test_unmerged_plan_keeps_memory_bounded():
    # every word gets its own coefficient, so no two trie nodes merge;
    # live matrices stay at depth x arity, not one per word prefix
    sig = Signature(0, 3)
    words = list(product([("x", 1), ("x", 2), ("x", 3)], repeat=6))
    p = NcPolynomial(sig, {w: 1.0 + 1e-3 * k for k, w in enumerate(words)})
    n = 32
    rng = np.random.default_rng(12)
    x_mats = _unit_norm_mats(3, n, rng)
    A = HermTuple([], kind="a", n=n)
    X = HermTuple(x_mats, kind="x", n=n)
    tracemalloc.start()
    try:
        got = eval_poly(p, A, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(p.horner_plan) == sum(3 ** d for d in range(6))
    assert peak < 2 * 2 ** 20, peak
    np.testing.assert_allclose(got, _reference(p, [], x_mats, n),
                               rtol=0, atol=1e-10)


# -- stacked evaluation --------------------------------------------------------


def _matrix_2x2():
    sig = Signature(1, 2)
    x1, x2, a1 = (parse_polynomial(e, sig) for e in ("x1", "x2", "a1"))
    return MatrixNcPolynomial([[x1 * x2 + x2 * x1, a1 * x1 + 2],
                               [x1 * a1 + 2, x2 * a1 * x2 - 3 * a1]])


def _series():
    sig = Signature(1, 1)
    return NcPowerSeries([parse_polynomial(e, sig) for e in
                          ("a1 + 1", "x1 + a1*x1", "x1*a1*x1", "x1^3")],
                         radius=1.0)


STACKED = {
    "constant and a-only leaf": lambda: PolynomialNcFunction(
        parse_polynomial("a1 + x1^2 + 2", Signature(1, 1))),
    "a-only": lambda: PolynomialNcFunction(
        parse_polynomial("a1^2 + 2*a1 - 1", Signature(1, 1))),
    "2x2 matrix polynomial": lambda: PolynomialNcFunction(_matrix_2x2()),
    "series": lambda: SeriesNcFunction(_series()),
    "kraus lift": lambda: get_preset("kraus-halfmass").make(),
    "callable": lambda: CallableNcFunction(
        lambda A, X: X[0] @ X[0] @ X[0] + A[0] @ X[0] + X.n,
        Signature(1, 1)),
}


@pytest.mark.parametrize("make", STACKED.values(), ids=STACKED)
def test_at_points_equals_per_point_calls(make):
    F = make()
    sig = F.signature
    rng = derived_rng(80)
    for n in range(1, 10):
        # spectral norms below 1/2 keep the series and the resolvent defined
        scale = 0.25 / np.sqrt(n)
        A = HermTuple([random_hermitian(n, rng, scale)
                       for _ in range(sig.g_a)], kind="a", n=n)
        Xs = np.array([[random_hermitian(n, rng, scale)
                        for _ in range(sig.g_x)] for _ in range(7)])
        got = F.at_points(A, Xs)
        want = np.stack([F(A, HermTuple(list(X), kind="x")) for X in Xs])
        assert got.shape == want.shape
        assert np.array_equal(got, want), n


NO_X = {
    "no x-letter": lambda: PolynomialNcFunction(
        parse_polynomial("a1*a2*a1 + 2*a2", Signature(2, 0))),
    "no letter": lambda: PolynomialNcFunction(
        parse_polynomial("3", Signature(0, 0))),
}


@pytest.mark.parametrize("make", [*STACKED.values(), *NO_X.values()],
                         ids=[*STACKED, *NO_X])
def test_at_points_on_a_stack_of_a_tuples_equals_per_point_calls(make):
    # one A per point: polynomials run the plan on both letter stacks,
    # the Kraus lift ignores A, the default loop passes each row of A
    F = make()
    sig = F.signature
    rng = derived_rng(82)
    for n in range(1, 8):
        scale = 0.25 / np.sqrt(n)

        def stack(g):
            return np.array([random_hermitian(n, rng, scale)
                             for _ in range(5 * g)],
                            dtype=complex).reshape(5, g, n, n)

        A, Xs = stack(sig.g_a), stack(sig.g_x)
        got = F.at_points(A, Xs)
        want = np.stack([F(HermTuple(list(a), kind="a", n=n),
                           HermTuple(list(x), kind="x", n=n))
                         for a, x in zip(A, Xs)])
        assert got.shape == want.shape
        assert np.array_equal(got, want), n


def test_default_at_points_passes_each_point_its_own_a_tuple():
    seen = []

    def fn(A, X):
        seen.append((type(A), A.kind, A.n, np.array(A.entries)))
        with pytest.raises(ValueError):
            A.entries[0][0, 0] = 0.0    # the caller's stack is read-only
        return X[0]

    F = CallableNcFunction(fn, Signature(1, 1))
    A = np.arange(3 * 4, dtype=complex).reshape(3, 1, 2, 2)
    F.at_points(A, np.zeros((3, 1, 2, 2), dtype=complex))
    assert [s[:3] for s in seen] == [(HermTuple, "a", 2)] * 3
    assert all(np.array_equal(s[3], a) for s, a in zip(seen, A))


def test_eval_poly_refuses_a_and_x_stacks_of_different_depths():
    sig = Signature(1, 1)
    with pytest.raises(ShapeError):
        eval_poly(parse_polynomial("a1*x1", sig), [np.zeros((3, 2, 2))],
                  [np.zeros((4, 2, 2))])


@pytest.mark.parametrize("expr", ["a1 + x1^2 + 2", "a1^2 + 2*a1 - 1",
                                  "a1*x1*a1 + x1*a1*x1 + x1^2", "3"])
def test_plan_on_stacked_a_and_x_letters_equals_per_point_calls(expr):
    # the entry of the slice extractor: every letter carries the stack
    p = parse_polynomial(expr, Signature(1, 1))
    rng = derived_rng(81)
    for n in range(1, 8):
        A = np.array([random_hermitian(n, rng) for _ in range(6)])
        X = np.array([random_hermitian(n, rng) for _ in range(6)])
        got = eval_poly(p, [A], [X], n=n)
        assert got.shape == (6, n, n)
        for Aj, Xj, M in zip(A, X, got):
            assert np.array_equal(M, eval_poly(p, [Aj], [Xj]))
