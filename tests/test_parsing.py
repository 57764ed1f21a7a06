"""Expression grammar: precedence, aliasing, failure positions."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ncconvex.algebra as algebra
from ncconvex import NcPolynomial, Signature, eval_poly, parse_polynomial
from ncconvex.errors import NcError, ParseError, ResourceLimitError
from ncconvex.parsing import EXPONENT_CAP, infer_signature, load_corpus
from ncconvex.presets import PRESETS
from ncconvex.tolerances import COEFF_DROP_TOL

from axioms_examples import CORPUS

SIG = Signature(2, 2)
SIGX = Signature(0, 2)
X1, X2 = ("x", 1), ("x", 2)

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
    # factors keep their order: the word reads left to right
    assert dict(parse_polynomial("x1*x2*x2", SIGX).items()) == {
        (X1, X2, X2): 1}
    assert dict(parse_polynomial("2*x2*x1*3i", SIGX).items()) == {
        (X2, X1): 6j}


def test_star_of_sum_is_fixed_point():
    p = parse_polynomial("(x1+x2)'", SIGX)
    assert p == parse_polynomial("x1+x2", SIGX)


def test_complex_literals():
    p = parse_polynomial("2+3i", SIGX)
    assert p.coefficient(()) == 2 + 3j
    q = parse_polynomial("i*x1 - 1.5e-1", SIGX)
    assert q.coefficient((("x", 1),)) == 1j
    assert q.coefficient(()) == -0.15


@pytest.mark.parametrize("src, sig, message, offset", [
    ("", SIGX, "empty expression", 0),
    (" ", SIGX, "empty expression", 0),
    ("x1 + $", SIGX, "unknown token '$'", 5),
    ("x1 *", SIGX, "unexpected end of input", 4),
    ("x1^", SIGX, "unexpected end of input", 3),
    ("x1)", SIGX, "unexpected token ')'", 2),
    ("x1 x2", SIGX, "unexpected token 'x2'", 3),
    ("x1*-x2", SIGX, "unexpected token '-'", 3),
    ("()", SIGX, "unexpected token ')'", 1),
    ("(x1 x2)", SIGX, "expected ')'", 4),
    ("(x1", SIGX, "expected ')'", 3),
    ("x1^2.0", SIGX, "exponent must be a plain non-negative integer", 3),
    ("x1^x2", SIGX, "exponent must be a plain non-negative integer", 3),
    (f"x1^{EXPONENT_CAP + 1}", SIGX,
     f"exponent {EXPONENT_CAP + 1} exceeds cap {EXPONENT_CAP}", 3),
    ("z1", SIG, "alias z<k> is only valid when the signature has no "
                "a-variables", 0),
    ("x1 + x3", SIGX, "variable x3 outside signature (0,2)", 5),
], ids=["empty", "blank", "unknown-token", "end-after-product",
        "end-after-power", "top-level-paren", "juxtaposition",
        "minus-after-product", "empty-group", "expected-paren",
        "expected-paren-at-end", "exponent-float", "exponent-variable",
        "exponent-cap", "z-alias", "out-of-signature"])
def test_parse_errors_name_their_offset(src, sig, message, offset):
    with pytest.raises(ParseError) as err:
        parse_polynomial(src, sig)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.position == offset


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


def test_deep_nesting_parses():
    # a recursive descent refused these past the interpreter's depth
    for src, plain in (("(" * 10000 + "x1" + ")" * 10000, "x1"),
                       ("x1" + "'" * 3000, "x1"), ("-" * 3001 + "x1", "-x1"),
                       ("(" * 5001 + "x1*x2" + ")'" * 5001, "x2*x1")):
        assert parse_polynomial(src, SIGX) == parse_polynomial(plain, SIGX)


@pytest.mark.parametrize("src", ["x1^2 - 1e400*x1^4", "-(1e200*1e200)*x1",
                                 "-(1e200*x1)^2", "-1e400", "1e400i'",
                                 "(1.7e308+1.7e308i)*x1"])
def test_coefficients_past_the_float_range_are_refused(src):
    # the first two compiled without the term (NaN passed the drop test
    # as zero), the next three kept an inf or NaN coefficient, and the
    # last raised OverflowError from abs()
    with pytest.raises(NcError, match="is not finite|past the float range"):
        parse_polynomial(src, SIGX)


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
    with pytest.raises(ParseError) as err:
        infer_signature("a1*z1")
    assert str(err.value) == ("expression mixes z-aliases with a-variables "
                              "(at offset 0)")


def test_render_round_trip_on_corpus():
    for name, sig, expr in CORPUS + DISPLAY_EXAMPLES:
        p = parse_polynomial(expr, sig)
        assert parse_polynomial(str(p), sig) == p, name


def test_star_serializes_as_star_call():
    assert parse_polynomial("x1'", SIGX) == parse_polynomial("x1", SIGX)
    # the star reverses words and conjugates coefficients
    assert dict(parse_polynomial("(2i*x1*x2)'", SIGX).items()) == {
        (X2, X1): -2j}


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


_ORACLE_TOKEN = re.compile(
    r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?|[axz]\d+|i|[-+*^'()]")


def oracle_parse(src: str) -> tuple:
    """Test oracle: a recursive-descent parse of a well-formed expression
    into a tuple tree of ("var", letter), ("lit", c), ("star", t),
    ("neg", t), ("sum", ts), ("prod", ts) and ("pow", t, n) nodes."""
    tokens = _ORACLE_TOKEN.findall(src)
    assert "".join(tokens) == "".join(src.split()), src
    tokens.append("")
    at = 0

    def take() -> str:
        nonlocal at
        at += 1
        return tokens[at - 1]

    def sum_() -> tuple:
        items = [unary()]
        while tokens[at] in ("+", "-"):
            minus = take() == "-"
            items.append(("neg", unary()) if minus else unary())
        return items[0] if len(items) == 1 else ("sum", tuple(items))

    def unary() -> tuple:
        if tokens[at] == "-":
            take()
            return ("neg", unary())
        return product()

    def product() -> tuple:
        items = [postfix()]
        while tokens[at] == "*":
            take()
            items.append(postfix())
        return items[0] if len(items) == 1 else ("prod", tuple(items))

    def postfix() -> tuple:
        node = atom()
        while tokens[at] in ("'", "^"):
            node = ("star", node) if take() == "'" else (
                "pow", node, int(take()))
        return node

    def atom() -> tuple:
        tok = take()
        if tok == "(":
            node = sum_()
            assert take() == ")", src
            return node
        if tok == "i":
            return ("lit", 1j)
        if tok[0] in "axz":
            return ("var", ("a" if tok[0] == "a" else "x", int(tok[1:])))
        if tok.endswith("i"):
            return ("lit", complex(0.0, float(tok[:-1])))
        return ("lit", complex(float(tok), 0.0))

    tree = sum_()
    assert tokens[at] == "", src
    return tree


def lower(tree: tuple) -> dict:
    """Test oracle: expand a tree into its term map by plain dict
    arithmetic, one operation per node, small coefficients dropped."""
    kind, *args = tree
    if kind == "var":
        return {(args[0],): 1.0 + 0.0j}
    if kind == "lit":
        return _drop({(): args[0]})
    if kind == "star":
        return {w[::-1]: c.conjugate() for w, c in lower(args[0]).items()}
    if kind == "neg":
        return {w: -c for w, c in lower(args[0]).items()}
    if kind == "sum":
        acc: dict = {}
        for item in args[0]:
            for w, c in lower(item).items():
                acc[w] = acc.get(w, 0.0) + c
            acc = _drop(acc)
        return acc
    acc = {(): 1.0 + 0.0j}
    if kind == "prod":
        for item in args[0]:
            acc = _times(acc, lower(item))
        return acc
    assert kind == "pow"
    base = lower(args[0])
    for _ in range(args[1]):
        acc = _times(acc, base)
    return acc


def lower_by_operators(tree: tuple, sig: Signature) -> NcPolynomial:
    """The same expansion through the NcPolynomial operators."""
    kind, *args = tree
    if kind == "var":
        return NcPolynomial(sig, {(args[0],): 1.0})
    if kind == "lit":
        return NcPolynomial.zero(sig) + args[0]
    if kind == "star":
        return lower_by_operators(args[0], sig).involute()
    if kind == "neg":
        return -lower_by_operators(args[0], sig)
    if kind == "sum":
        acc = NcPolynomial.zero(sig)
        for item in args[0]:
            acc = acc + lower_by_operators(item, sig)
        return acc
    if kind == "prod":
        acc = NcPolynomial.zero(sig) + 1
        for item in args[0]:
            acc = acc * lower_by_operators(item, sig)
        return acc
    assert kind == "pow"
    return lower_by_operators(args[0], sig) ** args[1]


def _assert_compiles_like_expansion(expr: str, sig: Signature) -> None:
    p = parse_polynomial(expr, sig)
    tree = oracle_parse(expr)
    oracle = NcPolynomial(sig, lower(tree))
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
    q = lower_by_operators(tree, sig)
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
    (Signature(1, 2), "3i'*x1 - (2-i)'*a1*2i'^3"),
    (Signature(0, 2), "-(i*x1*x2)'^2"),
    (Signature(0, 2), "-(-(2i*x1)'^2')'"),
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
    st.tuples(e, st.sampled_from(["'", "''", "^2", "'^2", "^2'"])).map(
        lambda t: t[0] + t[1]),
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
        oracle = lower(oracle_parse(expr))
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
