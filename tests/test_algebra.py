"""Free-algebra arithmetic: canonical term maps, grading, involution."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import ncconvex.algebra as algebra
from ncconvex import NcPolynomial, Signature, parse_polynomial
from ncconvex.algebra import (MatrixNcPolynomial, word_from_str, word_to_str,
                              x_count)
from ncconvex.errors import ResourceLimitError, ShapeError, SignatureError

SIG = Signature(1, 2)


def _gauss_ints():
    re = st.integers(min_value=-4, max_value=4)
    return st.tuples(re, re).map(lambda p: complex(p[0], p[1]))


def _letters(sig):
    opts = [("a", k + 1) for k in range(sig.g_a)]
    opts += [("x", k + 1) for k in range(sig.g_x)]
    return st.sampled_from(opts)


def _words(sig, max_len=4):
    return st.lists(_letters(sig), min_size=0, max_size=max_len).map(tuple)


def _polys(sig=SIG, max_terms=4):
    term = st.tuples(_words(sig), _gauss_ints())
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((NcPolynomial.monomial(sig, w, c) for w, c in ts),
                       NcPolynomial.zero(sig)))


# -- construction and canonicality --------------------------------------------


def test_unit_and_zero():
    assert NcPolynomial.zero(SIG).is_zero()
    one = NcPolynomial.unit(SIG)
    assert one.coefficient(()) == 1
    assert one.degree == 0
    assert NcPolynomial.zero(SIG).degree == -math.inf


def test_monomial_rejects_bad_letters():
    with pytest.raises(SignatureError):
        NcPolynomial.monomial(SIG, (("x", 3),), 1.0)
    with pytest.raises(SignatureError):
        NcPolynomial.monomial(SIG, (("a", 0),), 1.0)


def test_cancellation_is_canonical():
    x1, x2 = (NcPolynomial.variable(SIG, "x", i) for i in (1, 2))
    p = x1 * x2
    q = p - p
    assert q.is_zero()
    assert q.n_terms == 0


def test_near_zero_coefficients_dropped():
    p = NcPolynomial.variable(SIG, "x", 1).scale(1e-15)
    assert p.is_zero()


def test_word_string_round_trip():
    w = word_from_str("a1 x2 x2 x1")
    assert word_to_str(w) == "a1 x2 x2 x1"
    assert x_count(w) == 3


@given(_polys(), _polys(), _polys())
@settings(max_examples=60, deadline=None)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(_polys(), _polys(), _polys())
@settings(max_examples=60, deadline=None)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(_polys(), _polys())
@settings(max_examples=60, deadline=None)
def test_involution_is_antiautomorphism(p, q):
    assert (p * q).involute() == q.involute() * p.involute()


@given(_polys())
@settings(max_examples=60, deadline=None)
def test_involution_involutive(p):
    assert p.involute().involute() == p


@given(_polys(), _gauss_ints())
@settings(max_examples=60, deadline=None)
def test_involution_conjugates_scalars(p, c):
    assert p.scale(c).involute() == p.involute().scale(c.conjugate())


@given(_polys(), _polys())
@settings(max_examples=40, deadline=None)
def test_degree_additive_under_mul(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        # cancellation can only lower the top degree; with generic
        # integer coefficients it does not, but <= always holds
        assert (p * q).degree <= p.degree + q.degree


@given(_polys())
@settings(max_examples=60, deadline=None)
def test_x_parts_reassemble(p):
    parts = p.x_parts()
    total = NcPolynomial.zero(p.signature)
    for i, part in parts.items():
        for w in part.words():
            assert x_count(w) == i
        total = total + part
    assert total == p


def test_hermitian_plus_star_symmetrizes():
    p = parse_polynomial("a1*x1 + 3*x2", SIG)
    h = p + p.involute()
    assert h.is_hermitian()


# -- the worked examples -------------------------------------------------------


def test_hermitian_example_fixed_by_star():
    sig = Signature(0, 2)
    p = parse_polynomial("8*z1*z2 + 8*z2*z1 + z1^2 + z2^81", sig)
    assert p.is_hermitian()
    assert p.involute() == p
    assert p.degree == 81


def test_unbalanced_coefficients_not_hermitian():
    sig = Signature(0, 2)
    q = parse_polynomial("8*z1*z2 + 6*z2*z1 + z1^2 + z2^81", sig)
    assert not q.is_hermitian()


def test_involution_reverses_and_conjugates():
    sig = Signature(0, 2)
    p = parse_polynomial("i*z1*z2", sig)
    star = p.involute()
    assert star.coefficient(word_from_str("x2 x1")) == -1j
    assert star.coefficient(word_from_str("x1 x2")) == 0


def test_power_expansion():
    sig = Signature(0, 1)
    p = (1 + NcPolynomial.variable(sig, "x", 1)) ** 2
    assert p.coefficient(()) == 1
    assert p.coefficient(word_from_str("x1")) == 2
    assert p.coefficient(word_from_str("x1 x1")) == 1


def test_term_cap_guards_blowup(monkeypatch):
    # a low cap trips the same guard at 2^10 terms instead of 2^20
    monkeypatch.setattr(algebra, "TERM_CAP", 1000)
    sig = Signature(0, 2)
    x1, x2 = (NcPolynomial.variable(sig, "x", i) for i in (1, 2))
    p = x1 + x2
    with pytest.raises(ResourceLimitError, match=r"\(cap 1000\)"):
        _ = p ** 25  # 2^25 words


def test_str_round_trips_through_parser():
    p = parse_polynomial("(2+3i)*a1*x1^2 - x2'*a1 + 5", SIG)
    assert parse_polynomial(str(p), SIG) == p


def test_json_round_trip():
    p = parse_polynomial("2*a1*x1 - i*x2", SIG)
    q = NcPolynomial.from_json_dict(p.to_json_dict())
    assert q == p


# -- matrix polynomials --------------------------------------------------------


def test_matrix_poly_shapes_and_star():
    x1, x2 = (NcPolynomial.variable(SIG, "x", i) for i in (1, 2))
    M = MatrixNcPolynomial([[x1, x2], [x2.involute(), x1 * x1]])
    assert M.shape == (2, 2)
    assert M.involute()[(0, 1)] == x2
    assert M.is_hermitian()


def test_matrix_poly_ragged_rejected():
    x1 = NcPolynomial.variable(SIG, "x", 1)
    with pytest.raises(ShapeError):
        MatrixNcPolynomial([[x1, x1], [x1]])


def test_matrix_poly_matmul():
    x1 = NcPolynomial.variable(SIG, "x", 1)
    one = NcPolynomial.unit(SIG)
    zero = NcPolynomial.zero(SIG)
    A = MatrixNcPolynomial([[zero, one], [zero, zero]])
    B = MatrixNcPolynomial([[zero, zero], [x1, zero]])
    P = A @ B
    assert P[(0, 0)] == x1
    assert P[(1, 1)].is_zero()
