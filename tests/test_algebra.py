"""Free-algebra arithmetic: canonical term maps, grading, involution."""

import json
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

import ncconvex.algebra as algebra
from ncconvex import NcPolynomial, NcPowerSeries, Signature, parse_polynomial
from ncconvex.algebra import word_from_str, word_to_str, x_count
from ncconvex.errors import (NcError, ResourceLimitError, ShapeError,
                             SignatureError)

SIG = Signature(1, 2)


def _x(sig, i):
    return NcPolynomial(sig, {(("x", i),): 1.0})


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
        lambda ts: sum((NcPolynomial(sig, {w: c}) for w, c in ts),
                       NcPolynomial.zero(sig)))


# -- construction and canonicality --------------------------------------------


def test_unit_and_zero():
    assert NcPolynomial.zero(SIG).is_zero()
    one = NcPolynomial.zero(SIG) + 1
    assert one.coefficient(()) == 1
    assert one.degree == 0
    assert NcPolynomial.zero(SIG).degree == -math.inf


def test_monomial_rejects_bad_letters():
    with pytest.raises(SignatureError):
        NcPolynomial(SIG, {(("x", 3),): 1.0})
    with pytest.raises(SignatureError):
        NcPolynomial(SIG, {(("a", 0),): 1.0})


def test_cancellation_is_canonical():
    x1, x2 = (_x(SIG, i) for i in (1, 2))
    p = x1 * x2
    q = p - p
    assert q.is_zero()
    assert q.n_terms == 0


def test_near_zero_coefficients_dropped():
    p = _x(SIG, 1).scale(1e-15)
    assert p.is_zero()


@pytest.mark.parametrize("make", [
    lambda p: (p * 1e300) * 1e300,
    lambda p: -(p * 1e200 * 1e200),
    lambda p: p.scale(complex(math.inf, 0.0)),
    lambda p: p + math.nan,
], ids=["overflow", "negated-overflow", "scale-inf", "add-nan"])
def test_coefficients_that_are_not_finite_are_refused(make):
    # NaN compared false against the drop tolerance and vanished, and
    # inf stayed in the polynomial
    with pytest.raises(NcError, match="is not finite"):
        make(_x(SIG, 1))


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
        for w, _ in part.items():
            assert x_count(w) == i
        total = total + part
    assert total == p


def test_hermitian_plus_star_symmetrizes():
    p = parse_polynomial("a1*x1 + 3*x2", SIG)
    h = p + p.involute()
    assert h == h.involute()


# -- the worked examples -------------------------------------------------------


def test_hermitian_example_fixed_by_star():
    sig = Signature(0, 2)
    p = parse_polynomial("8*z1*z2 + 8*z2*z1 + z1^2 + z2^81", sig)
    assert p.involute() == p
    assert p.degree == 81


def test_unbalanced_coefficients_not_hermitian():
    sig = Signature(0, 2)
    q = parse_polynomial("8*z1*z2 + 6*z2*z1 + z1^2 + z2^81", sig)
    assert q.involute() != q


def test_involution_reverses_and_conjugates():
    sig = Signature(0, 2)
    p = parse_polynomial("i*z1*z2", sig)
    star = p.involute()
    assert star.coefficient(word_from_str("x2 x1")) == -1j
    assert star.coefficient(word_from_str("x1 x2")) == 0


def test_power_expansion():
    sig = Signature(0, 1)
    p = (1 + _x(sig, 1)) ** 2
    assert p.coefficient(()) == 1
    assert p.coefficient(word_from_str("x1")) == 2
    assert p.coefficient(word_from_str("x1 x1")) == 1


def test_term_cap_guards_blowup(monkeypatch):
    # a low cap trips the same guard at 2^10 terms instead of 2^20; the
    # power is a trie of 25 nodes, so the guard trips on the first read
    # of its 2^25 words
    monkeypatch.setattr(algebra, "TERM_CAP", 1000)
    sig = Signature(0, 2)
    x1, x2 = (_x(sig, i) for i in (1, 2))
    p = (x1 + x2) ** 25
    assert p.n_terms == 2 ** 25
    with pytest.raises(ResourceLimitError, match=r"\(cap 1000\)"):
        p.coefficient(())


@pytest.mark.parametrize("bad", ["2", [1], None])
def test_operators_refuse_operands_that_are_not_numbers(bad):
    p = _x(SIG, 1)
    for op in (operator.add, operator.sub, operator.mul, operator.pow):
        with pytest.raises(TypeError):
            op(p, bad)
        with pytest.raises(TypeError):
            op(bad, p)
    with pytest.raises(TypeError):
        p.scale(bad)
    # numbers are constants on either side
    assert p - 2 == NcPolynomial(SIG, {(("x", 1),): 1, (): -2})
    assert 2 - p == NcPolynomial(SIG, {(("x", 1),): -1, (): 2})


def test_operators_refuse_another_signature():
    p, q = _x(SIG, 1), _x(Signature(0, 1), 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(SignatureError):
            op(p, q)


def test_str_round_trips_through_parser():
    p = parse_polynomial("(2+3i)*a1*x1^2 - x2'*a1 + 5", SIG)
    assert parse_polynomial(str(p), SIG) == p


def test_json_round_trip():
    p = parse_polynomial("2*a1*x1 - i*x2", SIG)
    q = NcPolynomial.from_json_dict(p.to_json_dict())
    assert q == p


# -- power series ------------------------------------------------------------


def _cell(*terms):
    """A series part as the file format writes it: a 1x1 grid."""
    return {"signature": {"g_a": 1, "g_x": 1}, "rows": 1, "cols": 1,
            "entries": [[[{"word": w, "re": re, "im": im}
                          for w, re, im in terms]]]}


SERIES_JSON = {
    "signature": {"g_a": 1, "g_x": 1},
    "radius": "inf",
    "parts": [_cell(("a1", 3.0, 0.0)),
              _cell(),
              _cell(("x1 x1", 1.0, 0.0), ("x1 a1 x1", 0.0, -0.5))],
}


def test_series_descriptor_bytes_are_pinned():
    # output and witness files carry this descriptor; its bytes must not
    # drift, zero parts and key order included
    p = parse_polynomial("3*a1 - 0.5i*x1*a1*x1 + x1^2", Signature(1, 1))
    series = NcPowerSeries.from_polynomial(p)
    assert json.dumps(series.to_json_dict()) == json.dumps(SERIES_JSON)
    assert [str(q) for q in series] == ["3*a1", "0", "x1^2 - 0.5i*x1*a1*x1"]
    back = NcPowerSeries.from_json_dict(SERIES_JSON)
    assert json.dumps(back.to_json_dict()) == json.dumps(SERIES_JSON)
    with pytest.raises(IndexError):
        series[3]


@pytest.mark.parametrize("rows, cols, entries", [
    (2, 2, [[[], []], [[], []]]),
    (1, 1, [[[], []]]),
    (1, 2, [[[], []]]),
], ids=["2x2", "declared-1x1", "1x2"])
def test_a_series_part_that_is_not_one_cell_is_refused(rows, cols, entries):
    data = json.loads(json.dumps(SERIES_JSON))
    data["parts"][1].update(rows=rows, cols=cols, entries=entries)
    with pytest.raises(ShapeError, match="series part 1 is not a 1x1 grid"):
        NcPowerSeries.from_json_dict(data)


def test_a_series_signature_unlike_its_parts_is_refused():
    data = json.loads(json.dumps(SERIES_JSON))
    data["signature"] = {"g_a": 3, "g_x": 7}
    with pytest.raises(SignatureError, match=r"series signature \(3, 7\) "
                       r"differs from its parts' \(1, 1\)"):
        NcPowerSeries.from_json_dict(data)
    # a file without the key reads as before
    del data["signature"]
    assert NcPowerSeries.from_json_dict(data).signature == Signature(1, 1)
