"""Free *-algebra over two classes of Hermitian variables.

Words are tuples of letters, a letter being a pair (kind, index) with
kind 'a' or 'x' and 1-based index.  The empty tuple is the unit word.
Polynomials are immutable combinations of words over a fixed Signature;
the involution reverses words and conjugates coefficients.  Grading is
by the number of x-letters in a word.

A polynomial is its merged word trie: sums, scales and products run on
tries (TrieAlgebra), and the Horner plan is emitted from the trie.  The
term map word -> complex coefficient is a cache, read into the trie by
the constructor or filled from it on first read.  Coefficients with
magnitude below COEFF_DROP_TOL are dropped, so equality of polynomials
is equality of term maps.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

from .errors import (NcError, ResourceLimitError, ShapeError,
                     SignatureError)
from .tolerances import COEFF_DROP_TOL

Letter = tuple[str, int]
Word = tuple[Letter, ...]

_KIND_RANK = {"a": 0, "x": 1}

# hard cap on filling the term map of a trie; guards runaway expansion
# of expressions like (x1+...+x9)^20, which evaluate without expanding
TERM_CAP = 10 ** 6


class Signature(NamedTuple):
    """Arities of the two variable classes: a_1..a_{g_a}, x_1..x_{g_x}."""

    g_a: int
    g_x: int

    def check_letter(self, letter: Letter) -> None:
        kind, index = letter
        arity = {"a": self.g_a, "x": self.g_x}.get(kind)
        if arity is None:
            raise SignatureError(f"unknown letter class {kind!r}")
        if not 1 <= index <= arity:
            raise SignatureError(
                f"letter {kind}{index} outside signature ({self.g_a},{self.g_x})")

    def check_word(self, word: Word) -> None:
        for letter in word:
            self.check_letter(letter)


def word_from_str(s: str) -> Word:
    """Parse a space-separated word string, e.g. "a1 x2 x2"; "" is the unit."""
    letters = []
    for tok in s.split():
        kind, digits = tok[0], tok[1:]
        if kind not in _KIND_RANK or not digits.isdigit() or int(digits) < 1:
            raise SignatureError(f"bad letter token {tok!r} in word {s!r}")
        letters.append((kind, int(digits)))
    return tuple(letters)


def word_to_str(word: Word) -> str:
    return " ".join(f"{kind}{index}" for kind, index in word)


def x_count(word: Word) -> int:
    return sum(1 for kind, _ in word if kind == "x")


def _word_key(word: Word):
    # graded lexicographic: length first, then a-letters before x-letters,
    # ascending index
    return (len(word), tuple((_KIND_RANK[k], i) for k, i in word))


def _kept(c: complex) -> bool:
    """Whether a coefficient stays, its magnitude at least COEFF_DROP_TOL;
    one that is not finite raises, since NaN compares false against the
    tolerance and would vanish as if it were zero."""
    try:
        magnitude = abs(c)
    except OverflowError:
        raise NcError(f"coefficient {c} has a modulus past the float "
                      "range") from None
    if not magnitude < math.inf:                    # inf or NaN
        raise NcError(f"coefficient {c} is not finite")
    return magnitude >= COEFF_DROP_TOL


def _canonical(terms: dict) -> dict:
    return {w: c for w, c in terms.items() if _kept(c)}


def _fmt_real(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_coeff(c: complex) -> str:
    """Render a coefficient so the expression grammar reparses it."""
    if c.imag == 0.0:
        return _fmt_real(c.real)
    if c.real == 0.0:
        if c.imag == 1.0:
            return "i"
        if c.imag == -1.0:
            return "-i"
        return f"{_fmt_real(c.imag)}i"
    sign = "+" if c.imag > 0 else "-"
    im = abs(c.imag)
    im_s = "i" if im == 1.0 else f"{_fmt_real(im)}i"
    return f"({_fmt_real(c.real)}{sign}{im_s})"


def _fmt_word(word: Word) -> str:
    # collapse repeated letters into powers: a1 x2 x2 -> a1*x2^2
    if not word:
        return "1"
    runs: list[tuple[Letter, int]] = []
    for letter in word:
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
    pieces = []
    for (kind, index), exp in runs:
        name = f"{kind}{index}"
        pieces.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(pieces)


# A trie node [c, {letter: child}] is the polynomial c + sum_l l * child.
# Tries read from a term map are trees, the expression compiler's are DAGs
# whose equal nodes are one node.  Every walk is a loop: words are unbounded.


def _post_order(root: list) -> list:
    """The nodes under root, each once, every child before its parents
    and children in letter order: a's first, by index."""
    order: list = []
    seen: set = set()
    stack: list = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend([(node[1][letter], False)
                          for letter in sorted(node[1], reverse=True)])
    return order


def _trie_size(root: list) -> int:
    """Number of words of the trie, counted along its paths."""
    count: dict = {}
    for node in _post_order(root):
        count[id(node)] = (node[0] != 0) + sum(
            [count[id(kid)] for kid in node[1].values()])
    return count[id(root)]


def _trie_terms(root: list) -> dict:
    terms: dict = {}
    path: list = []
    stack: list = [(root, 0, None)]
    while stack:
        node, depth, letter = stack.pop()
        if depth:
            del path[depth - 1:]
            path.append(letter)
        if node[0] != 0:
            terms[tuple(path)] = node[0]
        stack.extend([(kid, depth + 1, l) for l, kid in node[1].items()])
    return terms


def _emit_horner(signature: Signature, root: list) -> tuple:
    """Horner plan of a trie, with equal sub-polynomials merged.

    Post-order over the trie: nodes with the same coefficient and the
    same (letter, child) list become one step (hash-consing), so the
    trie of (x1+x2+x3)^8, 9,841 nodes as a tree, emits 8 steps.

    The plan is a post-order tuple of steps (const, terms, frees); the
    last step is the polynomial.  A step is const * I plus, for each of
    its terms (letter, child, c), c * L_letter @ step[child], where step
    -1 is I: a childless trie node c * I gets no step of its own, and c
    is 1 for every other child.  Letters index the point's matrices, a's
    first.  `frees` lists the steps whose last consumer this step is, so
    an evaluator can drop them.
    """
    code = {("a", i + 1): i for i in range(signature.g_a)}
    code.update({("x", i + 1): signature.g_a + i for i in range(signature.g_x)})
    steps: list = []
    step_of: dict = {}                      # (const, terms) -> step index
    index: dict = {}                        # id(node) -> step index
    for node in _post_order(root):
        if not node[1] and node is not root:
            continue                        # a leaf term of its parents
        edges = sorted([(code[letter], kid)
                        for letter, kid in node[1].items()])
        key = (node[0], tuple([(letter, index[id(kid)], 1.0) if kid[1]
                               else (letter, -1, kid[0])
                               for letter, kid in edges]))
        k = step_of.get(key)
        if k is None:
            k = step_of[key] = len(steps)
            steps.append(key)
        index[id(node)] = k
    last_use: dict = {}
    for k, (_, step_terms) in enumerate(steps):
        for _, child, _ in step_terms:
            if child >= 0:
                last_use[child] = k
    frees: list = [[] for _ in steps]
    for child, k in last_use.items():
        frees[k].append(child)
    return tuple((const, step_terms, tuple(sorted(f)))
                 for (const, step_terms), f in zip(steps, frees))


class TrieAlgebra:
    """Sum, scale and product of merged tries, for one compile or one
    operator; None is the zero polynomial.  Results are interned, so
    equal sub-polynomials stay one node and a power of a sum costs a few
    nodes per factor.  Coefficients below COEFF_DROP_TOL are dropped,
    and zero parts are stored unsigned, as sums and products leave
    them; a coefficient that is not finite raises NcError."""

    def __init__(self):
        self._nodes: dict = {}
        self.one = self.node(1.0 + 0.0j, {})

    def node(self, c: complex, kids: dict):
        kids = {l: kid for l, kid in kids.items() if kid is not None}
        c = c + 0j if _kept(c) else 0j
        if not c and not kids:
            return None
        key = (c, frozenset([(l, id(kid)) for l, kid in kids.items()]))
        return self._nodes.setdefault(key, [c, kids])

    def scale(self, p, s: complex):
        if p is None or not s or s == 1:
            return p if s == 1 else None
        out: dict = {}
        for n in _post_order(p):
            out[id(n)] = self.node(s * n[0], {l: out[id(kid)]
                                              for l, kid in n[1].items()})
        return out[id(p)]

    def add(self, p, q):
        if p is None or q is None:
            return q if p is None else p
        out: dict = {}
        stack = [(p, q)]
        while stack:
            a, b = stack[-1]
            todo = [(a[1][l], kid) for l, kid in b[1].items()
                    if l in a[1] and (id(a[1][l]), id(kid)) not in out]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            kids = dict(a[1])
            for l, kid in b[1].items():
                kids[l] = out[id(kids[l]), id(kid)] if l in kids else kid
            out[id(a), id(b)] = self.node(a[0] + b[0], kids)
        return out[id(p), id(q)]

    def mul(self, p, q):
        """p * q = p_0 q + sum_l l (p_l q), walking p only."""
        if p is None or q is None:
            return None
        out: dict = {}
        for n in _post_order(p):
            tail = self.node(0j, {l: out[id(kid)] for l, kid in n[1].items()})
            out[id(n)] = self.add(self.scale(q, n[0]), tail)
        return out[id(p)]


class NcPolynomial:
    """Finite complex combination of words over a fixed Signature."""

    __slots__ = ("signature", "_map", "_trie", "_plan")

    def __init__(self, signature: Signature, terms: dict | None = None,
                 _validated: bool = False, trie: list | None = None):
        """From a term map, read into its trie, or from a merged trie
        (TrieAlgebra), whose term map is filled on first read."""
        self.signature = Signature(*signature)
        self._plan = None
        self._map = None
        if trie is None:
            self._map = _canonical(dict(terms or {}))
            if not _validated:
                for word in self._map:
                    self.signature.check_word(word)
            # q = c_0 + sum_l l * q_l, where q_l collects the words of q
            # that start with letter l, stripped of it
            trie = [0j, {}]
            for word, c in self._map.items():
                node = trie
                for letter in word:
                    kids = node[1]
                    nxt = kids.get(letter)
                    if nxt is None:
                        nxt = kids[letter] = [0j, {}]
                    node = nxt
                node[0] = c
        self._trie = trie

    @property
    def _terms(self) -> dict:
        if self._map is None:
            n = self.n_terms
            if n > TERM_CAP:
                raise ResourceLimitError(
                    f"expansion has {n} terms (cap {TERM_CAP})")
            self._map = _trie_terms(self._trie)
        return self._map

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, signature: Signature) -> "NcPolynomial":
        return cls(signature, {})

    # -- access ----------------------------------------------------------

    def coefficient(self, word: Word) -> complex:
        return self._terms.get(tuple(word), 0.0 + 0.0j)

    def items(self) -> Iterator[tuple[Word, complex]]:
        """Terms in graded-lex order."""
        return iter(sorted(self._terms.items(), key=lambda kv: _word_key(kv[0])))

    @property
    def n_terms(self) -> int:
        if self._map is None:
            return _trie_size(self._trie)
        return len(self._map)

    @property
    def horner_plan(self) -> tuple:
        """Evaluation plan, compiled on first use; see _emit_horner."""
        if self._plan is None:
            self._plan = _emit_horner(self.signature, self._trie)
        return self._plan

    def is_zero(self) -> bool:
        return not self.n_terms

    @property
    def degree(self):
        """Max word length; -inf for the zero polynomial."""
        if not self._terms:
            return -math.inf
        return max(len(w) for w in self._terms)

    # -- algebra ----------------------------------------------------------

    def _operate(self, other, op):
        """op(TrieAlgebra, p, q) as a polynomial, p the trie of self and q
        that of other, None standing for zero.  The one place operands
        are coerced: a number is a constant, a polynomial must share the
        signature, and anything else is NotImplemented, so Python raises
        TypeError."""
        if isinstance(other, (int, float, complex)):
            other = NcPolynomial(self.signature, {(): complex(other)},
                                 _validated=True)
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        if self.signature != other.signature:
            raise SignatureError(
                f"signature mismatch: {self.signature} vs {other.signature}")
        p, q = (t if t[0] or t[1] else None for t in (self._trie, other._trie))
        root = op(TrieAlgebra(), p, q)
        return NcPolynomial(self.signature, trie=root or [0j, {}])

    def __add__(self, other):
        return self._operate(other, TrieAlgebra.add)

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self._operate(
            other, lambda ops, p, q: ops.add(p, ops.scale(q, -1.0)))

    def __rsub__(self, other):
        return self._operate(
            other, lambda ops, p, q: ops.add(q, ops.scale(p, -1.0)))

    def __mul__(self, other):
        return self._operate(other, TrieAlgebra.mul)

    def __rmul__(self, other):
        return self._operate(other, lambda ops, p, q: ops.mul(q, p))

    def scale(self, c: complex) -> "NcPolynomial":
        """The product with a number c."""
        if isinstance(c, NcPolynomial):
            raise TypeError("scale takes a number, not a polynomial")
        return self * c

    def __pow__(self, n: int) -> "NcPolynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("exponent must be a non-negative integer")

        def power(ops, p, one):
            acc = one
            for _ in range(n):
                acc = ops.mul(p, acc)
            return acc
        return self._operate(1.0, power)

    def involute(self) -> "NcPolynomial":
        """Reverse every word, conjugate every coefficient."""
        return NcPolynomial(self.signature,
                            {w[::-1]: c.conjugate() for w, c in self._terms.items()},
                            _validated=True)

    def x_parts(self) -> dict:
        """Map i -> polynomial collecting the x-degree-i terms."""
        buckets: dict[int, dict] = {}
        for w, c in self._terms.items():
            buckets.setdefault(x_count(w), {})[w] = c
        return {i: NcPolynomial(self.signature, t, _validated=True)
                for i, t in sorted(buckets.items())}

    # -- equality / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self.signature == other.signature and self._terms == other._terms

    def __hash__(self):
        return hash((self.signature,
                     frozenset((w, c) for w, c in self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for word, c in self.items():
            if not word:
                body = _fmt_coeff(c)
            elif c == 1:
                body = _fmt_word(word)
            elif c == -1:
                body = "-" + _fmt_word(word)
            else:
                body = f"{_fmt_coeff(c)}*{_fmt_word(word)}"
            pieces.append(body)
        out = pieces[0]
        for body in pieces[1:]:
            if body.startswith("-"):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out

    def __repr__(self) -> str:
        return f"NcPolynomial({self})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "signature": {"g_a": self.signature.g_a, "g_x": self.signature.g_x},
            "terms": [
                {"word": word_to_str(w), "re": float(complex(c).real),
                 "im": float(complex(c).imag)}
                for w, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NcPolynomial":
        sig = Signature(int(data["signature"]["g_a"]), int(data["signature"]["g_x"]))
        terms: dict = {}
        for t in data["terms"]:
            w = word_from_str(t["word"])
            terms[w] = terms.get(w, 0.0) + complex(float(t["re"]), float(t.get("im", 0.0)))
        return cls(sig, terms)


class NcPowerSeries:
    """Truncated series F_0 + F_1 + ... + F_d, part i an NcPolynomial
    homogeneous of x-degree i, so the series' value at size n is n x n.
    The convergence radius is explicit metadata; evaluation enforces it.
    Equality is identity.
    """

    __slots__ = ("signature", "parts", "radius")

    def __init__(self, parts: Iterable[NcPolynomial], radius: float = 1.0):
        parts = list(parts)
        if not parts:
            raise ShapeError("series needs at least one part")
        sig = parts[0].signature
        for i, part in enumerate(parts):
            if part.signature != sig:
                raise SignatureError("mixed signatures in series parts")
            for w in part._terms:
                if x_count(w) != i:
                    raise ValueError(
                        f"part {i} contains a word of x-degree {x_count(w)}")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.signature = sig
        self.parts = parts
        self.radius = float(radius)

    @classmethod
    def from_polynomial(cls, p: NcPolynomial,
                        radius: float = math.inf) -> "NcPowerSeries":
        """Split a polynomial into x-homogeneous parts.  Polynomials are
        entire, so the default radius is infinite."""
        split = p.x_parts()
        zero = NcPolynomial.zero(p.signature)
        return cls([split.get(i, zero)
                    for i in range(max(split, default=0) + 1)], radius=radius)

    @property
    def order(self) -> int:
        return len(self.parts) - 1

    def __getitem__(self, i: int) -> NcPolynomial:
        return self.parts[i]

    def __iter__(self) -> Iterator[NcPolynomial]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"NcPowerSeries(order={self.order}, radius={self.radius})"

    def to_json_dict(self) -> dict:
        """Each part is written as a 1 x 1 grid of term lists, the file
        format's one cell."""
        sig = {"g_a": self.signature.g_a, "g_x": self.signature.g_x}
        return {
            "signature": sig,
            "radius": self.radius if math.isfinite(self.radius) else "inf",
            "parts": [{"signature": sig, "rows": 1, "cols": 1,
                       "entries": [[part.to_json_dict()["terms"]]]}
                      for part in self.parts],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NcPowerSeries":
        radius = data.get("radius", 1.0)
        radius = math.inf if radius == "inf" else float(radius)
        parts = []
        for i, d in enumerate(data["parts"]):
            grid = d["entries"]
            if (int(d["rows"]), int(d["cols"])) != (1, 1) or [
                    len(row) for row in grid] != [1]:
                raise ShapeError(f"series part {i} is not a 1x1 grid")
            parts.append(NcPolynomial.from_json_dict(
                {"signature": d["signature"], "terms": grid[0][0]}))
        series = cls(parts, radius=radius)
        sig = data.get("signature", series.signature._asdict())
        sig = (int(sig["g_a"]), int(sig["g_x"]))
        if sig != series.signature:
            raise SignatureError(f"series signature {sig} differs from its "
                                 f"parts' {tuple(series.signature)}")
        return series
