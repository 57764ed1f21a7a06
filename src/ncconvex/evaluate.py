"""Evaluate nc polynomials and truncated x-power series on matrix tuples.

Each NcPolynomial compiles once, on first evaluation, into a Horner plan
over its word trie with equal sub-polynomials merged
(NcPolynomial.horner_plan); a parsed expression brings that trie from
its parse, so it evaluates without ever being expanded into words.
Evaluation runs the plan in a loop, so products group right to left and
a step's matrix is dropped after its last use.  Matrix polynomials
assemble their evaluated entries into one block matrix.  The a- and
x-matrices may share one leading stack axis of points, each point with
its own A and its own X; the plan then runs once on the whole stack,
with the same arithmetic per member as a member evaluated alone.

The NcFunction wrappers give testers a uniform evaluator contract:
F(A, X) -> square complex matrix at one point, F.at_points(A, Xs) and
F.at_scales(A, X, zs) -> F over stacks of points, plus optional exact
x-homogeneous parts when the function is an explicit polynomial or
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (MatrixNcPolynomial, NcPolynomial, NcPowerSeries,
                      Signature)
from .errors import DomainError, ShapeError, SignatureError
from .tolerances import AXIOM_TOL
from .tuples import (HermTuple, _letters, as_rng, block_diag, haar_unitary,
                     random_hermitian, stack_norms, tuple_norm,
                     tuple_to_json)


def _as_matrices(T) -> list:
    if T is None:
        return []
    if isinstance(T, HermTuple):
        return list(T.entries)
    return [np.asarray(m, dtype=complex) for m in T]


def _resolve_point(sig: Signature, A, X, n: Optional[int] = None):
    """Validate arities and sizes; returns (a_mats, x_mats, shape), the
    shape of the value: (size, size), with the matrices' shared stack
    axis in front when any of them carries one."""
    a_mats = _as_matrices(A)
    x_mats = _as_matrices(X)
    if len(a_mats) != sig.g_a:
        raise SignatureError(
            f"A-part has {len(a_mats)} entries, signature wants {sig.g_a}")
    if len(x_mats) != sig.g_x:
        raise SignatureError(
            f"X-part has {len(x_mats)} entries, signature wants {sig.g_x}")
    size = None
    for m in a_mats + x_mats:
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ShapeError(f"point entry has shape {m.shape}, want square")
        if size is None:
            size = m.shape[-1]
        elif m.shape[-1] != size:
            raise ShapeError("mixed matrix sizes across the evaluation point")
    stacks = {m.shape[:-2] for m in a_mats + x_mats} - {()}
    if any(m.ndim > 3 for m in a_mats + x_mats) or len(stacks) > 1:
        raise ShapeError("the point's matrices may carry one leading stack "
                         "axis, and must share it")
    for T in (A, X):
        if isinstance(T, HermTuple):
            if size is None:
                size = T.n
            elif T.n != size:
                raise ShapeError(
                    f"tuple declares size {T.n} but point entries are {size}")
    if size is None:
        size = 1 if n is None else int(n)
    return a_mats, x_mats, (stacks.pop() if stacks else ()) + (size, size)


def _run_plan(plan: tuple, mats: list, shape: tuple) -> np.ndarray:
    """Execute a Horner plan (NcPolynomial.horner_plan) on the letter
    matrices, dropping each step's value after its last consumer.  The
    value has the given shape; a-only steps stay unstacked until they
    meet a stacked term."""
    diag = np.arange(shape[-1])
    vals: list = [None] * len(plan)
    for k, (const, terms, frees) in enumerate(plan):
        acc = None
        for letter, child, c in terms:
            t = c * mats[letter] if child < 0 else mats[letter] @ vals[child]
            if acc is None:
                acc = t
            elif acc.ndim >= t.ndim:
                acc += t
            else:
                acc = acc + t
        if acc is None:
            acc = np.zeros(shape[-2:], dtype=complex)
        if const:
            acc[..., diag, diag] += const
        for f in frees:
            vals[f] = None
        vals[k] = acc
    out = vals[-1]
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def eval_poly(p, A=None, X=None, n: Optional[int] = None) -> np.ndarray:
    """p(A, X) = sum_w p_w (A,X)^w.

    A and X may be HermTuples or plain sequences of square matrices (the
    latter admit non-Hermitian entries, used by the complex-z slices).
    The a- and x-matrices may share one leading stack axis of points; a
    matrix without it serves every point, and the value carries the
    axis.  For matrix polynomials the result is the (rows*n) x (cols*n)
    block assembly.
    """
    if isinstance(p, NcPolynomial):
        p = MatrixNcPolynomial.from_scalar(p)
    a_mats, x_mats, shape = _resolve_point(p.signature, A, X, n)
    mats = a_mats + x_mats
    if p.is_scalar():
        return _run_plan(p.entries[0][0].horner_plan, mats, shape)
    return np.block([[_run_plan(q.horner_plan, mats, shape) for q in row]
                     for row in p.entries])


def eval_series(F: NcPowerSeries, A=None, X=None, up_to: Optional[int] = None,
                n: Optional[int] = None, with_increment: bool = False):
    """Partial sum of the x-homogeneous parts at (A, X).

    Enforces tuple_norm(X) < radius.  With with_increment=True also
    returns the spectral norm of the last added part, a cheap
    convergence proxy.
    """
    a_mats, x_mats, shape = _resolve_point(F.signature, A, X, n)
    if len(shape) > 2:
        raise ShapeError("a series evaluates at one point at a time")
    size = shape[-1]
    nx = float(stack_norms(x_mats))
    if not nx < F.radius:
        raise DomainError(
            f"tuple norm {nx:.6g} is outside the series radius {F.radius:.6g}")
    if up_to is None:
        up_to = F.order
    if up_to > F.order:
        raise ValueError(f"up_to={up_to} exceeds truncation order {F.order}")
    total = None
    increment = 0.0
    for i in range(up_to + 1):
        term = eval_poly(F[i], A, X, n=size)
        total = term if total is None else total + term
        increment = float(np.linalg.norm(term, 2))
    if with_increment:
        return total, increment
    return total


def hermitian_deviation(M: np.ndarray) -> np.ndarray:
    """max |M - M*| of a square matrix, or of each member of a stack."""
    return np.max(np.abs(M - M.conj().swapaxes(-1, -2)), axis=(-2, -1))


# -- evaluator wrappers ------------------------------------------------------


def _read_only(M: np.ndarray) -> np.ndarray:
    """A view that keeps a black box from writing into the caller's
    stack."""
    M = M.view()
    M.flags.writeable = False
    return M


class NcFunction:
    """Uniform evaluator contract for the testers.

    __call__(A, X) takes the a-part and x-part (HermTuple or plain
    matrix sequences sharing one size n) and returns a square matrix
    whose side is a multiple of n.  x_parts() returns the exact
    homogeneous decomposition when one is known, else None; the slice
    extractor falls back to Fourier sampling in that case, which
    requires the evaluator to be analytic in a complex scale z on the
    extraction disk (analytic_in_z flag).

    The stacked forms take points only as stacks.  at_scales(A, X, zs)
    takes (c, g_a, n, n) and (c, g_x, n, n) arrays holding c points, each
    with its own A, and returns F(A_j, z X_j) for every point and every
    z, shape (c, len(zs), N, N).  at_points(A, Xs) returns the stack of
    F(A, Xs[j]) for one a-tuple A and a (c, g_x, n, n) array Xs of
    Hermitian x-tuples, shape (c, N, N).  Both defaults loop over
    __call__ one point (and one z) at a time, so a black box sees the
    calls it would see point by point; override them when F can evaluate
    a stack in one call.

    F must be a pure function of (A, X): the testers and the degree-two
    certificate evaluate a chunk of samples in one batch and, when the
    batch raises, evaluate its samples again one at a time, so a call
    count or hidden state is not kept in step with the samples.
    """

    signature: Signature
    radius: float = math.inf
    analytic_in_z: bool = True
    name: str = "nc-function"

    def __call__(self, A, X) -> np.ndarray:
        raise NotImplementedError

    def at_scales(self, A, X, zs) -> np.ndarray:
        # each point's A reaches __call__ as an a-HermTuple and its z X as
        # a list of matrices, as the extractor always passed them
        n = X.shape[-1]
        return np.stack([np.stack([self(HermTuple._trusted(a, "a", n),
                                        [z * m for m in x]) for z in zs])
                         for a, x in zip(_read_only(A), _read_only(X))])

    def at_points(self, A, Xs) -> np.ndarray:
        # each point reaches __call__ as an x-HermTuple, as the testers
        # always passed it
        n = Xs.shape[-1]
        return np.stack([self(A, HermTuple._trusted(X, "x", n))
                         for X in _read_only(Xs)])

    def x_parts(self) -> Optional[NcPowerSeries]:
        return None


class PolynomialNcFunction(NcFunction):
    def __init__(self, p, name: Optional[str] = None):
        if isinstance(p, NcPolynomial):
            p = MatrixNcPolynomial.from_scalar(p)
        self.poly = p
        self.signature = p.signature
        self.radius = math.inf
        self.name = name or "polynomial"
        self._parts: Optional[NcPowerSeries] = None

    def __call__(self, A, X) -> np.ndarray:
        return eval_poly(self.poly, A, X)

    def at_points(self, A, Xs) -> np.ndarray:
        if not Xs.shape[1]:              # no x-letter to carry the stack
            return super().at_points(A, Xs)
        return eval_poly(self.poly, A, _letters(Xs))

    def x_parts(self) -> NcPowerSeries:
        if self._parts is None:
            self._parts = NcPowerSeries.from_polynomial(self.poly)
        return self._parts

    def __repr__(self):
        return f"PolynomialNcFunction({self.name})"


class SeriesNcFunction(NcFunction):
    def __init__(self, series: NcPowerSeries, name: Optional[str] = None):
        self.series = series
        self.signature = series.signature
        self.radius = series.radius
        self.name = name or "series"

    def __call__(self, A, X) -> np.ndarray:
        return eval_series(self.series, A, X)

    def x_parts(self) -> NcPowerSeries:
        return self.series

    def __repr__(self):
        return f"SeriesNcFunction({self.name}, radius={self.radius})"


class CallableNcFunction(NcFunction):
    """Black-box evaluator; declare analytic_in_z only if fn extends to
    complex-scaled x-arguments on the extraction disk."""

    def __init__(self, fn, signature: Signature, radius: float = math.inf,
                 analytic_in_z: bool = False, name: str = "callable"):
        self.fn = fn
        self.signature = Signature(*signature)
        self.radius = radius
        self.analytic_in_z = analytic_in_z
        self.name = name

    def __call__(self, A, X) -> np.ndarray:
        return self.fn(A, X)

    def __repr__(self):
        return f"CallableNcFunction({self.name})"


def as_nc_function(F) -> NcFunction:
    if isinstance(F, NcFunction):
        return F
    if isinstance(F, (NcPolynomial, MatrixNcPolynomial)):
        return PolynomialNcFunction(F)
    if isinstance(F, NcPowerSeries):
        return SeriesNcFunction(F)
    raise TypeError(f"cannot wrap {type(F).__name__} as an nc function")


# -- nc-function axioms -------------------------------------------------------


@dataclass
class AxiomsReport:
    passed: bool
    samples: int
    max_direct_sum_dev: float
    max_unitary_dev: float
    tol: float
    counterexample: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "test": "nc_function_axioms",
            "pass": bool(self.passed),
            "samples": int(self.samples),
            "max_direct_sum_dev": float(self.max_direct_sum_dev),
            "max_unitary_dev": float(self.max_unitary_dev),
            "tol": float(self.tol),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _bounded_tuple(g: int, n: int, kind: str, rng) -> HermTuple:
    # tuple norm drawn in (0.1, 0.9): keeps degree-81 corpus words away
    # from overflow and keeps float deviations commensurate with 1e-8
    T = HermTuple([random_hermitian(n, rng) for _ in range(g)], kind=kind, n=n)
    norm = tuple_norm(T)
    if norm > 0:
        T = T.scale(float(rng.uniform(0.1, 0.9)) / norm)
    return T


def _random_point(sig: Signature, n: int, rng) -> tuple:
    A = _bounded_tuple(sig.g_a, n, "a", rng)
    X = _bounded_tuple(sig.g_x, n, "x", rng)
    return A, X


def check_nc_function_axioms(F, sizes=(1, 2, 3, 4), samples: int = 100,
                             seed=0, tol: float = AXIOM_TOL) -> AxiomsReport:
    """Sampled check that F respects direct sums and unitary conjugation.

    Only meaningful for graded evaluators (output side equals input
    size).  Failures are report content, not exceptions; the first
    offending sample is kept as a self-contained counterexample.
    """
    F = as_nc_function(F)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    sig = F.signature
    rng = as_rng(seed)
    max_ds = 0.0
    max_u = 0.0
    counterexample = None
    for _ in range(samples):
        n1 = int(rng.choice(sizes))
        n2 = int(rng.choice(sizes))
        A1, X1 = _random_point(sig, n1, rng)
        A2, X2 = _random_point(sig, n2, rng)
        v1 = F(A1, X1)
        v2 = F(A2, X2)
        joint = F(A1.direct_sum(A2), X1.direct_sum(X2))
        dev_ds = float(np.max(np.abs(joint - block_diag(v1, v2))))
        U = haar_unitary(n1, rng)
        dev_u = float(np.max(np.abs(F(A1.conjugate(U), X1.conjugate(U))
                                    - U.conj().T @ v1 @ U)))
        max_ds = max(max_ds, dev_ds)
        max_u = max(max_u, dev_u)
        if counterexample is None and (dev_ds > tol or dev_u > tol):
            counterexample = {
                "axiom": "direct_sum" if dev_ds > tol else "unitary",
                "deviation": max(dev_ds, dev_u),
                "A1": tuple_to_json(A1), "X1": tuple_to_json(X1),
                "A2": tuple_to_json(A2), "X2": tuple_to_json(X2),
                "n1": n1, "n2": n2,
            }
    return AxiomsReport(passed=(max_ds <= tol and max_u <= tol),
                        samples=samples, max_direct_sum_dev=max_ds,
                        max_unitary_dev=max_u, tol=tol,
                        counterexample=counterexample)
