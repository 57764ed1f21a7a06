"""Expression grammar: precedence, aliasing, failure positions."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ncconvex.algebra as algebra
from ncconvex import NcPolynomial, Signature, eval_poly, parse_polynomial
from ncconvex.errors import ParseError, ResourceLimitError
from ncconvex.parsing import (EXPONENT_CAP, Lit, Neg, Pow, Prod, Star, Sum,
                              Var, infer_signature, load_corpus, parse)
from ncconvex.presets import PRESETS
from ncconvex.tolerances import COEFF_DROP_TOL

from axioms_examples import CORPUS

SIG = Signature(2, 2)
SIGX = Signature(0, 2)

# display polynomials for involution / Hermitian classification tests;
# the degree-81 word needs tuples of norm < 1 to evaluate sanely
DISPLAY_EXAMPLES = (
    ("hermitian-display", Signature(0, 2), "8*z1*z2 + 8*z2*z1 + z1^2 + z2^81"),
    ("non-hermitian-display", Signature(0, 2),
     "8*z1*z2 + 6*z2*z1 + z1^2 + z2^81"),
    ("involution-display", Signature(0, 2), "i*z1*z2 + 7*z2*z1 + z1^2"),
    ("affine", Signature(1, 1), "2 + a1 + x1"),
)


def test_power_binds_tighter_than_star():
    # x1^2' is (x1^2)' per precedence ^ > '
    p = parse_polynomial("x1^2'", SIGX)
    assert p == parse_polynomial("(x1^2)'", SIGX)


def test_star_binds_tighter_than_product():
    p = parse_polynomial("x1*x2'", SIGX)
    q = parse_polynomial("x1*(x2')", SIGX)
    assert p == q


def test_unary_minus_below_product():
    assert parse_polynomial("-x1*x2", SIGX) == -(
        parse_polynomial("x1*x2", SIGX))


def test_products_left_associative():
    assert parse("x1*x2*x1", SIGX) == Prod(
        (Var("x", 1), Var("x", 2), Var("x", 1)))


def test_star_of_sum_is_fixed_point():
    p = parse_polynomial("(x1+x2)'", SIGX)
    assert p == parse_polynomial("x1+x2", SIGX)


def test_complex_literals():
    p = parse_polynomial("2+3i", SIGX)
    assert p.coefficient(()) == 2 + 3j
    q = parse_polynomial("i*x1 - 1.5e-1", SIGX)
    assert q.coefficient((("x", 1),)) == 1j
    assert q.coefficient(()) == -0.15


def test_empty_input_errors_at_zero():
    with pytest.raises(ParseError) as err:
        parse_polynomial("", SIGX)
    assert err.value.position == 0


def test_unknown_token_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + $", SIGX)
    assert err.value.position == 5


def test_out_of_signature_index():
    with pytest.raises(ParseError):
        parse_polynomial("x3", SIGX)
    with pytest.raises(ParseError):
        parse_polynomial("a1", SIGX)


def test_exponent_cap():
    with pytest.raises(ParseError):
        parse_polynomial(f"x1^{EXPONENT_CAP + 1}", SIGX)
    # the degree-81 display word stays inside the cap
    assert parse_polynomial("x1^81", Signature(0, 1)).degree == 81


def test_deep_nesting_is_a_parse_error():
    # the recursive descent and the lowering raised RecursionError
    for src in ("(" * 2000 + "x1" + ")" * 2000, "x1" + "'" * 3000,
                "-" * 3000 + "x1"):
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse_polynomial(src, SIGX)
        assert err.value.position == 0
    # nesting the recursion can take still parses
    assert parse_polynomial("(" * 100 + "x1" + ")" * 100,
                            SIGX) == parse_polynomial("x1", SIGX)


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError):
        parse_polynomial("x1 x2", SIGX)


def test_z_alias_needs_pure_x_signature():
    assert parse_polynomial("z1*z2", SIGX) == parse_polynomial("x1*x2", SIGX)
    with pytest.raises(ParseError):
        parse_polynomial("z1", SIG)  # g_a = 2 here


def test_infer_signature():
    assert infer_signature("a2*x1 + x3") == Signature(2, 3)
    assert infer_signature("z2^4") == Signature(0, 2)


def test_render_round_trip_on_corpus():
    for name, sig, expr in CORPUS + DISPLAY_EXAMPLES:
        p = parse_polynomial(expr, sig)
        assert parse_polynomial(str(p), sig) == p, name


def test_star_serializes_as_star_call():
    assert parse("x1'", SIGX) == Star(Var("x", 1))


def test_cancellation_example():
    p = parse_polynomial("(1+0i)*x1*x2 - x1*x2", SIGX)
    assert p.is_zero()


def test_corpus_file_loading(tmp_path):
    path = tmp_path / "corpus.json"
    records = [{"name": name, "signature": f"{sig.g_a},{sig.g_x}",
                "expr": expr} for name, sig, expr in CORPUS]
    path.write_text(json.dumps(records))
    loaded = load_corpus(str(path))
    assert [name for name, _, _ in loaded] == [r["name"] for r in records]
    for (_, sig, poly), (_, sig0, expr) in zip(loaded, CORPUS):
        assert sig == sig0
        assert poly == parse_polynomial(expr, sig0)


# -- compiling without expanding ---------------------------------------------


def _drop(terms: dict) -> dict:
    return {w: c for w, c in terms.items() if abs(c) >= COEFF_DROP_TOL}


def _times(left: dict, right: dict) -> dict:
    terms: dict = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            terms[w1 + w2] = terms.get(w1 + w2, 0.0) + c1 * c2
    return _drop(terms)


def lower(ast) -> dict:
    """Test oracle: expand an AST into its term map by plain dict
    arithmetic, one operation per node, small coefficients dropped."""
    if isinstance(ast, Var):
        return {((ast.kind, ast.index),): 1.0 + 0.0j}
    if isinstance(ast, Lit):
        return _drop({(): ast.value})
    if isinstance(ast, Star):
        return {w[::-1]: c.conjugate() for w, c in lower(ast.child).items()}
    if isinstance(ast, Neg):
        return {w: -c for w, c in lower(ast.child).items()}
    if isinstance(ast, Sum):
        acc: dict = {}
        for item in ast.items:
            for w, c in lower(item).items():
                acc[w] = acc.get(w, 0.0) + c
            acc = _drop(acc)
        return acc
    acc = {(): 1.0 + 0.0j}
    if isinstance(ast, Prod):
        for item in ast.items:
            acc = _times(acc, lower(item))
        return acc
    assert isinstance(ast, Pow)
    base = lower(ast.base)
    for _ in range(ast.exponent):
        acc = _times(acc, base)
    return acc


def lower_by_operators(ast, sig: Signature) -> NcPolynomial:
    """The same expansion through the NcPolynomial operators."""
    if isinstance(ast, Var):
        return NcPolynomial(sig, {((ast.kind, ast.index),): 1.0})
    if isinstance(ast, Lit):
        return NcPolynomial.zero(sig) + ast.value
    if isinstance(ast, Star):
        return lower_by_operators(ast.child, sig).involute()
    if isinstance(ast, Neg):
        return -lower_by_operators(ast.child, sig)
    if isinstance(ast, Sum):
        acc = NcPolynomial.zero(sig)
        for item in ast.items:
            acc = acc + lower_by_operators(item, sig)
        return acc
    if isinstance(ast, Prod):
        acc = NcPolynomial.zero(sig) + 1
        for item in ast.items:
            acc = acc * lower_by_operators(item, sig)
        return acc
    assert isinstance(ast, Pow)
    return lower_by_operators(ast.base, sig) ** ast.exponent


def _assert_compiles_like_expansion(expr: str, sig: Signature) -> None:
    p = parse_polynomial(expr, sig)
    ast = parse(expr, sig)
    oracle = NcPolynomial(sig, lower(ast))
    plan = oracle.horner_plan
    assert p.horner_plan == plan, expr
    # bit for bit, down to the sign of every zero part
    assert repr(p.horner_plan) == repr(plan), expr
    assert p.n_terms == oracle.n_terms, expr
    assert dict(p.items()) == dict(oracle.items()), expr
    assert {w: repr(c) for w, c in p.items()} == {
        w: repr(c) for w, c in oracle.items()}, expr
    # the operators leave every zero part unsigned, as TrieAlgebra does,
    # so they agree by value only
    q = lower_by_operators(ast, sig)
    assert q.horner_plan == plan, expr
    assert q.n_terms == oracle.n_terms and q == oracle, expr


# README examples, then the `poly-eval` expressions of perfbench/workloads.py
_NAMED_EXPRESSIONS = (
    (Signature(0, 1), "x1^2"),
    (Signature(1, 1), "a1*x1*a1 + x1*a1*x1 + x1^2"),
    (Signature(0, 2), "(x1+x2)^8"),
    (Signature(1, 2), "(a1+x1+x2)^7"),
    (Signature(1, 2), "(a1*x1+x1*a1+x2)^5"),
    (Signature(0, 3), "(x1+x2+x3)^8"),
    (Signature(0, 2), "(x1+x2)^6"),
    (Signature(1, 2), "(a1*x1+x1*a1+x2)^4"),
    (Signature(0, 3), "(x1+x2+x3)^4"),
    (Signature(1, 2), "-(2-3i)*x2'*a1 + (x1*a1)' - i"),
    (Signature(0, 2), "-(x1*x2 - x2*x1)'"),
    (Signature(1, 2), "x1*2' + a1*(3i)'"),
    (Signature(0, 1), "(x1^128)^8"),
)


def test_plans_equal_expansion_on_presets_corpus_and_examples():
    cases = [(pr.signature, pr.expr) for pr in PRESETS.values() if pr.expr]
    cases += [(sig, expr) for _, sig, expr in CORPUS + DISPLAY_EXAMPLES]
    for sig, expr in cases + list(_NAMED_EXPRESSIONS):
        _assert_compiles_like_expansion(expr, sig)


_GAUSSIAN_SIG = Signature(1, 2)
_LEAVES = st.sampled_from(["a1", "x1", "x2", "i", "0", "1", "2", "3i",
                           "(1+2i)", "(3-i)", "(2+2i)"])
_EXPRESSIONS = st.recursive(_LEAVES, lambda e: st.one_of(
    st.tuples(e, st.sampled_from(["+", "-", "*"]), e).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"),
    st.tuples(e, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
    e.map(lambda x: f"({x})'"),
    e.map(lambda x: f"(-{x})")), max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(_EXPRESSIONS, st.booleans())
def test_plans_equal_expansion_on_gaussian_integer_expressions(expr, minus):
    expr = "-" + expr if minus else expr
    assume(parse_polynomial(expr, _GAUSSIAN_SIG).n_terms <= 5000)
    _assert_compiles_like_expansion(expr, _GAUSSIAN_SIG)


def test_float_coefficients_agree_with_expansion():
    sig = Signature(1, 2)
    for expr in ("(0.1*x1 + 0.3*x2' - 0.7)^5 * (1.1 + 0.2i*a1)",
                 "(1.5e-1*a1*x1 - x1*a1*0.33 + 2.7i)^4 - (0.9*x2)^3'"):
        p = parse_polynomial(expr, sig)
        oracle = lower(parse(expr, sig))
        terms = dict(p.items())
        assert terms.keys() == oracle.keys(), expr
        for w, c in oracle.items():
            assert abs(terms[w] - c) <= 1e-12 * abs(c), (expr, w)


def test_term_map_is_filled_on_first_read_only():
    p = parse_polynomial("(x1+x2+x3)^8", Signature(0, 3))
    assert p.n_terms == 3 ** 8 and len(p.horner_plan) == 8
    assert p._map is None
    assert not p.is_zero() and p._map is None
    assert p.coefficient((("x", 2),) * 8) == 1 and len(p._map) == 3 ** 8


def test_term_cap_guards_expansion_only(monkeypatch):
    monkeypatch.setattr(algebra, "TERM_CAP", 1000)
    sig = Signature(0, 2)
    p = parse_polynomial("(x1+x2)^25", sig)
    assert p.n_terms == 2 ** 25
    rng = np.random.default_rng(3)
    x = [h / (2 * np.linalg.norm(h, 2)) for h in
         (rng.standard_normal((3, 3)) for _ in range(2))]
    x = [(h + h.T) / 2 for h in x]
    np.testing.assert_allclose(eval_poly(p, [], x),
                               np.linalg.matrix_power(x[0] + x[1], 25),
                               rtol=0, atol=1e-12)
    for read in (p.x_parts, lambda: str(p)):
        with pytest.raises(ResourceLimitError, match=r"\(cap 1000\)"):
            read()
