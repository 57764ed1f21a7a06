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

parse_polynomial compiles without expanding and without a syntax tree:
one loop over the tokens, with a stack of the groups that open
parentheses interrupt, reduces each power, product and sum straight into
the merged word trie (TrieAlgebra) that is the polynomial.  The star is
pushed down to the leaves.  A pre-pass pairs the parentheses, so the
star parity of each operand (that of its group, flipped by each "'" of
its postfix chain; a power commutes with the star) is known when the
loop reaches it; under an odd parity literals are conjugated and
products multiply in reverse.  The Horner plan equals the one of the
expanded term map, a cache filled only when something reads it.
"""

from __future__ import annotations

import json
import re

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


def _tokenize(src: str) -> list:
    """(kind, text, pos) per token, kind one of num, var, imag and op."""
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unknown token {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def _letter(text: str, pos: int, sig: Signature) -> tuple:
    kind, index = text[0], int(text[1:])
    if kind == "z":
        if sig.g_a != 0:
            raise ParseError("alias z<k> is only valid when the signature "
                             "has no a-variables", pos)
        kind = "x"
    if not 1 <= index <= (sig.g_a if kind == "a" else sig.g_x):
        raise ParseError(f"variable {text} outside signature "
                         f"({sig.g_a},{sig.g_x})", pos)
    return kind, index


def _exponent(token: tuple) -> int:
    kind, text, pos = token
    if kind is None:
        raise ParseError("unexpected end of input", pos)
    if kind != "num" or not text.isdigit():
        raise ParseError("exponent must be a plain non-negative integer", pos)
    n = int(text)
    if n > EXPONENT_CAP:
        raise ParseError(f"exponent {n} exceeds cap {EXPONENT_CAP}", pos)
    return n


def _odd_stars(tokens: list, i: int) -> bool:
    """Whether the postfix chain from token i has an odd number of "'"."""
    odd = False
    while i < len(tokens) and tokens[i][1] in ("'", "^"):
        odd ^= tokens[i][1] == "'"
        i += 1 if tokens[i][1] == "'" else 2       # '^' skips its exponent
    return odd


def _fold(ops: TrieAlgebra, factors: list):
    """The product of the factors, multiplied in from the right."""
    acc = ops.one
    for factor in reversed(factors):
        acc = ops.mul(factor, acc)
    return acc


def _compile(tokens: list, sig: Signature, ops: TrieAlgebra) -> tuple:
    """The trie of the expression the tokens spell, ended by a (None,
    None, len(src)) token, and its lead: the parities (neg, star) of the
    minus signs and stars that a syntax tree would stack above its
    root, reading through a single term, a single factor, the stars
    after its last '^' and parentheses."""
    closing, opened = {}, []
    for k, (_, text, _) in enumerate(tokens):
        if text == "(":
            opened.append(k)
        elif text == ")" and opened:
            closing[opened.pop()] = k
    groups = []
    # the current group: its star parity, its sum so far and its lead,
    # None until its first term ends; the current term: its minus
    # signs, its factors so far and the lead of its first factor
    star, total, lead = False, None, None
    negs, factors, first = 0, [], None
    i = 0
    while True:
        kind, text, pos = tokens[i]
        if not factors:                             # a term starts
            negs = 0
            while text == "-":
                negs += 1
                i += 1
                kind, text, pos = tokens[i]
        if text == "(":
            groups.append((star, total, lead, negs, factors, first))
            # an unmatched '(' fails to parse, whatever its parity
            star ^= _odd_stars(tokens, closing.get(i, i) + 1)
            total = lead = None
            factors = []
            i += 1
            continue
        if kind == "var":
            value = ops.node(0j, {_letter(text, pos, sig): ops.one})
        elif kind in ("num", "imag"):
            c = (1j if kind == "imag" else complex(0.0, float(text[:-1]))
                 if text.endswith("i") else complex(float(text), 0.0))
            odd = star ^ _odd_stars(tokens, i + 1)
            value = ops.node(c.conjugate() if odd else c, {})
        elif kind is None:
            raise ParseError("unexpected end of input", pos)
        else:
            raise ParseError(f"unexpected token {text!r}", pos)
        inner = None
        i += 1
        while True:                                 # an operand is read
            # its postfix chain: the stars are in the parity already
            tail = powered = False
            while tokens[i][1] in ("'", "^"):
                if tokens[i][1] == "'":
                    tail = not tail
                    i += 1
                    continue
                value = _fold(ops, [value] * _exponent(tokens[i + 1]))
                tail, powered = False, True
                i += 2
            if not factors:
                first = ((False, tail) if powered or inner is None
                         else (inner[0], inner[1] ^ tail))
            factors.append(value)
            kind, text, pos = tokens[i]
            if text == "*":
                i += 1
                break
            # the term ends
            odd = negs % 2 == 1
            if len(factors) == 1:
                term, term_lead = factors[0], (odd ^ first[0], first[1])
            else:
                term = _fold(ops, factors[::-1] if star else factors)
                term_lead = (odd, False)
            for _ in range(negs):
                term = ops.scale(term, -1.0)
            total = ops.add(total, term)
            lead = term_lead if lead is None else (False, False)
            factors = []
            if text in ("+", "-"):
                i += text == "+"            # a '-' is the next term's minus
                break
            if not groups:
                if kind is None:
                    return total, lead
                raise ParseError(f"unexpected token {text!r}", pos)
            if text != ")":
                raise ParseError("expected ')'", pos)
            value, inner = total, lead
            star, total, lead, negs, factors, first = groups.pop()
            i += 1


def parse_polynomial(src: str, sig: Signature) -> NcPolynomial:
    """Parse and compile an expression, without expanding it; raises
    ParseError with the offending offset on bad input."""
    sig = Signature(*sig)
    tokens = _tokenize(src)
    if not tokens:
        raise ParseError("empty expression", 0)
    ops = TrieAlgebra()
    root, (neg, star) = _compile(tokens + [(None, None, len(src))], sig, ops)
    # a leading '-' or "'" leaves the zero parts of every coefficient
    # signed as negating or conjugating the expanded terms would
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
    for kind, text, _ in _tokenize(src):
        if kind != "var":
            continue
        letter, index = text[0], int(text[1:])
        if letter == "a":
            g_a = max(g_a, index)
        else:
            g_x = max(g_x, index)
            saw_z = saw_z or letter == "z"
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
