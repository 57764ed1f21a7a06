"""Expression front end for nc polynomials.

Grammar, loosest to tightest binding:

    sum      :=  unary (('+' | '-') unary)*
    unary    :=  '-' unary | product
    product  :=  postfix ('*' postfix)*          (left-associative)
    postfix  :=  atom (\"'\" | '^' INT)*           (postfix star = involution)
    atom     :=  NUMBER | 'i' | VAR | '(' sum ')'

Variables are a<k> and x<k>; z<k> is accepted as an alias for x<k> when the
signature has no a-variables.  Juxtaposition is not multiplication.  Number
literals may carry a trailing 'i' for imaginary parts, so 2+3i is the sum
of a real and an imaginary literal.

parse_polynomial compiles without expanding: sums, products, powers and
minus signs lower straight into the merged word trie (TrieAlgebra) that
is the polynomial, with the star pushed down to the leaves.  Its Horner
plan equals the one of the expanded term map, a cache filled only when
something reads it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Union

from .algebra import NcPolynomial, Signature, TrieAlgebra, _post_order
from .errors import ParseError

EXPONENT_CAP = 128

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?)
      | (?P<var>[axz]\d+)
      | (?P<imag>i)
      | (?P<op>[-+*^'()])
    """,
    re.VERBOSE,
)


class ExprAst:
    """Base class for parsed expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(ExprAst):
    kind: str
    index: int


@dataclass(frozen=True)
class Lit(ExprAst):
    value: complex


@dataclass(frozen=True)
class Star(ExprAst):
    child: ExprAst


@dataclass(frozen=True)
class Neg(ExprAst):
    child: ExprAst


@dataclass(frozen=True)
class Sum(ExprAst):
    items: tuple


@dataclass(frozen=True)
class Prod(ExprAst):
    items: tuple


@dataclass(frozen=True)
class Pow(ExprAst):
    base: ExprAst
    exponent: int


@dataclass(frozen=True)
class _Token:
    kind: str  # num | var | imag | op
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unknown token {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str, sig: Signature):
        self.src = src
        self.sig = Signature(*sig)
        self.tokens = _tokenize(src)
        self.i = 0

    # -- token plumbing --------------------------------------------------

    def _peek(self) -> Union[_Token, None]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def _accept_op(self, *ops: str) -> Union[_Token, None]:
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text in ops:
            self.i += 1
            return tok
        return None

    # -- grammar ----------------------------------------------------------

    def parse(self) -> ExprAst:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        node = self._sum()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return node

    def _sum(self) -> ExprAst:
        items = [self._unary()]
        while True:
            tok = self._accept_op("+", "-")
            if tok is None:
                break
            rhs = self._unary()
            items.append(Neg(rhs) if tok.text == "-" else rhs)
        return items[0] if len(items) == 1 else Sum(tuple(items))

    def _unary(self) -> ExprAst:
        if self._accept_op("-"):
            return Neg(self._unary())
        return self._product()

    def _product(self) -> ExprAst:
        items = [self._postfix()]
        while self._accept_op("*"):
            items.append(self._postfix())
        return items[0] if len(items) == 1 else Prod(tuple(items))

    def _postfix(self) -> ExprAst:
        node = self._atom()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op":
                break
            if tok.text == "'":
                self.i += 1
                node = Star(node)
            elif tok.text == "^":
                self.i += 1
                node = Pow(node, self._exponent())
            else:
                break
        return node

    def _exponent(self) -> int:
        tok = self._next()
        if tok.kind != "num" or not tok.text.isdigit():
            raise ParseError("exponent must be a plain non-negative integer",
                             tok.pos)
        n = int(tok.text)
        if n > EXPONENT_CAP:
            raise ParseError(f"exponent {n} exceeds cap {EXPONENT_CAP}", tok.pos)
        return n

    def _atom(self) -> ExprAst:
        tok = self._next()
        if tok.kind == "num":
            if tok.text.endswith("i"):
                return Lit(complex(0.0, float(tok.text[:-1])))
            return Lit(complex(float(tok.text), 0.0))
        if tok.kind == "imag":
            return Lit(1j)
        if tok.kind == "var":
            return self._variable(tok)
        if tok.kind == "op" and tok.text == "(":
            inner = self._sum()
            if not self._accept_op(")"):
                pos = self._peek().pos if self._peek() else len(self.src)
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _variable(self, tok: _Token) -> Var:
        kind, index = tok.text[0], int(tok.text[1:])
        if kind == "z":
            if self.sig.g_a != 0:
                raise ParseError(
                    "alias z<k> is only valid when the signature has no "
                    "a-variables", tok.pos)
            kind = "x"
        arity = self.sig.g_a if kind == "a" else self.sig.g_x
        if not 1 <= index <= arity:
            raise ParseError(
                f"variable {tok.text} outside signature "
                f"({self.sig.g_a},{self.sig.g_x})", tok.pos)
        return Var(kind, index)


def parse(src: str, sig: Signature) -> ExprAst:
    """Parse source text against a signature; raises ParseError with the
    offending offset on bad input."""
    return _Parser(src, sig).parse()


def _lower(ast: ExprAst, ops: TrieAlgebra, star: bool):
    """The merged trie of an AST, or of its involution when star is set:
    the star goes down to the leaves, reversing products and
    conjugating literals on the way."""
    if isinstance(ast, Star):
        return _lower(ast.child, ops, not star)
    if isinstance(ast, Neg):
        return ops.scale(_lower(ast.child, ops, star), -1.0)
    if isinstance(ast, Var):
        return ops.node(0j, {(ast.kind, ast.index): ops.one})
    if isinstance(ast, Lit):
        return ops.node(ast.value.conjugate() if star else ast.value, {})
    if isinstance(ast, Sum):
        acc = None
        for item in ast.items:
            acc = ops.add(acc, _lower(item, ops, star))
        return acc
    if isinstance(ast, (Prod, Pow)):
        factors = [_lower(item, ops, star) for item in
                   (ast.items if isinstance(ast, Prod) else (ast.base,))]
        acc = ops.one
        for factor in ((factors if star else factors[::-1])
                       * getattr(ast, "exponent", 1)):
            acc = ops.mul(factor, acc)
        return acc
    raise TypeError(f"not an ExprAst: {ast!r}")


def parse_polynomial(src: str, sig: Signature) -> NcPolynomial:
    """Parse and compile an expression, without expanding it."""
    sig = Signature(*sig)
    ops = TrieAlgebra()
    try:
        ast = parse(src, sig)
        root = _lower(ast, ops, False)
    except RecursionError:
        raise ParseError("expression is nested too deeply", 0) from None
    # a leading '-' or "'" leaves the zero parts of every coefficient
    # signed as negating or conjugating the expanded terms would
    neg = star = False
    while isinstance(ast, (Neg, Star)):
        neg ^= isinstance(ast, Neg)
        star ^= isinstance(ast, Star)
        ast = ast.child
    if root is not None and (neg or star):
        zr, zi = -0.0 if neg else 0.0, -0.0 if neg != star else 0.0
        for node in _post_order(root):
            if node[0]:
                node[0] = complex(node[0].real or zr, node[0].imag or zi)
    return NcPolynomial(sig, trie=root or [0j, {}])


def infer_signature(src: str) -> Signature:
    """Smallest signature covering every variable token in the source.
    z-aliases force g_a = 0."""
    g_a = g_x = 0
    saw_z = False
    for tok in _tokenize(src):
        if tok.kind != "var":
            continue
        kind, index = tok.text[0], int(tok.text[1:])
        if kind == "a":
            g_a = max(g_a, index)
        else:
            g_x = max(g_x, index)
            saw_z = saw_z or kind == "z"
    if saw_z and g_a > 0:
        raise ParseError("expression mixes z-aliases with a-variables", 0)
    return Signature(g_a, g_x)


def _parse_signature_field(value) -> Signature:
    if isinstance(value, dict):
        return Signature(int(value["g_a"]), int(value["g_x"]))
    if isinstance(value, str):
        parts = value.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad signature string {value!r}, want 'g_a,g_x'")
        return Signature(int(parts[0]), int(parts[1]))
    raise ValueError(f"bad signature field {value!r}")


def load_corpus(path: str) -> list:
    """Read a corpus file: JSON array of {name, signature, expr} records.
    Returns [(name, signature, polynomial)]."""
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    out = []
    for rec in records:
        sig = _parse_signature_field(rec["signature"])
        out.append((rec["name"], sig, parse_polynomial(rec["expr"], sig)))
    return out
