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
from .errors import DomainError, NcError, ShapeError, SignatureError
from .tolerances import AXIOM_TOL
from .tuples import (HermTuple, _check_unitary, _complex, _haar_q, _letters,
                     _rescaled_points, as_rng, block_diag, hermitian_stack,
                     stack_norms, tuple_to_json)


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


def _is_stack(A) -> bool:
    """Whether an at_points a-argument is a (c, g_a, n, n) stack with one
    a-tuple per point, rather than one a-tuple for every point."""
    return isinstance(A, np.ndarray) and A.ndim == 4


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
    F(A_j, Xs[j]), shape (c, N, N), for a (c, g_x, n, n) array Xs of
    Hermitian x-tuples and A either one a-tuple for every point
    (A_j = A) or a (c, g_a, n, n) array with one per point (A_j = A[j]).
    Both defaults loop over __call__ one point (and one z) at a time,
    passing each point's own A as an a-HermTuple, so a black box sees
    the calls it would see point by point; override them when F can
    evaluate a stack in one call.

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
        # each point reaches __call__ as an x-HermTuple, and with a stack
        # of A its own row as an a-HermTuple, as the testers passed them
        n = Xs.shape[-1]
        As = ([HermTuple._trusted(a, "a", n) for a in _read_only(A)]
              if _is_stack(A) else [A] * len(Xs))
        return np.stack([self(a, HermTuple._trusted(X, "x", n))
                         for a, X in zip(As, _read_only(Xs))])

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
        stacked = _is_stack(A)
        if not (Xs.shape[1] or stacked and A.shape[1]):
            return super().at_points(A, Xs)     # no letter carries the stack
        return eval_poly(self.poly, _letters(A) if stacked else A,
                         _letters(Xs))

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


def _groups(keys) -> dict:
    """key -> the positions that carry it, keys in order of first
    appearance."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _per_group(items: list, stage, key) -> list:
    """stage's result for each item.  stage runs once per group of items
    that share key(item) (all of them when key is None) and returns one
    result per item of its group, in order."""
    out = [None] * len(items)
    for idx in _groups([key and key(x) for x in items]).values():
        for i, r in zip(idx, stage([items[i] for i in idx])):
            out[i] = r
    return out


def _draw_axioms_sample(sig: Signature, sizes: np.ndarray, rng) -> tuple:
    """One sample's raw numbers, in the order the check takes them from
    its stream: the sizes n1 and n2; for each of A1, X1, A2 and X2 the
    real and imaginary parts of its g Ginibre matrices as one
    (g, 2, n, n) draw, then its tuple norm, uniform in (0.1, 0.9), both
    drawn only when g > 0; then the Ginibre block of U."""
    # tuple norms in (0.1, 0.9) keep degree-81 corpus words away from
    # overflow and float deviations commensurate with 1e-8
    n1 = int(rng.choice(sizes))
    n2 = int(rng.choice(sizes))
    tuples = [(rng.standard_normal((g, 2, n, n)), rng.uniform(0.1, 0.9))
              if g else (np.zeros((0, 2, n, n)), 0.0)
              for n in (n1, n2) for g in sig]
    return n1, n2, tuples, rng.standard_normal((2, n1, n1))


def _axioms_points(chunk: list, start: int) -> list:
    """Per sample of a chunk (samples start, start + 1, ...) its arrays
    [A1, X1, A2, X2, U, AJ, XJ, AC, XC]: the four tuples rescaled to
    their drawn norms, the Haar unitary, the direct sums A1 (+) A2 and
    X1 (+) X2, and the conjugates U*A1U and U*X1U.  Each kind of array
    is built by stacked calls, once per matrix size (per pair of sizes
    for the direct sums), each followed by the ingest a HermTuple
    runs."""
    P = [[None] * 9 for _ in chunk]
    slots = [(j, s) for j in range(len(chunk)) for s in range(4)]
    for (kind, _), idx in _groups([(s % 2, chunk[j][s // 2])
                                   for j, s in slots]).items():
        group = [slots[i] for i in idx]
        Z, r = zip(*(chunk[j][2][s] for j, s in group))
        T, zero = _rescaled_points(np.array(Z), np.array(r))
        if zero.any():
            # a tuple of norm 0 would take no norm from the stream
            raise NcError(f"axioms sample {start + group[zero.argmax()][0]}: "
                          f"the drawn {'ax'[kind]}-tuple has norm 0")
        for (j, s), t in zip(group, T):
            P[j][s] = t
    for n, idx in _groups([n1 for n1, *_ in chunk]).items():
        U = _haar_q(_complex(np.array([chunk[j][3] for j in idx])))
        _check_unitary(U, n, stacked=True)
        Uh = U.conj().swapaxes(-1, -2)[:, None]
        AC, XC = (hermitian_stack(Uh @ np.array([P[j][s] for j in idx])
                                  @ U[:, None]) for s in (0, 1))
        for j, *row in zip(idx, U, AC, XC):
            P[j][4], P[j][7], P[j][8] = row
    for idx in _groups([(n1, n2) for n1, n2, *_ in chunk]).values():
        AJ, XJ = (hermitian_stack(block_diag(
            np.array([P[j][s] for j in idx]),
            np.array([P[j][s + 2] for j in idx]))) for s in (0, 1))
        for j, aj, xj in zip(idx, AJ, XJ):
            P[j][5], P[j][6] = aj, xj
    return P


def _at_sizes(F: NcFunction, points: list) -> list:
    """F at each (A, X) pair of (g, n, n) arrays, from one F.at_points
    call per size n; a value that is not n x n raises, since the
    stacked deviations need F graded."""
    def stage(group):
        n = group[0][1].shape[-1]
        vals = F.at_points(*(np.array(col) for col in zip(*group)))
        if np.shape(vals) != (len(group), n, n):
            raise ShapeError(f"{F.name} gives values of shape "
                             f"{np.shape(vals)[1:]} at size {n}")
        return vals

    return _per_group(points, stage, lambda p: p[1].shape[-1])


def _axioms_devs(F: NcFunction, chunk: list, P: list) -> list:
    """(dev_ds, dev_u) per sample of a chunk: v1, v2, the conjugated and
    the joint values from one F call per matrix size, the deviations
    once per pair of sizes."""
    c = len(chunk)
    vals = _at_sizes(F, [(p[h], p[h + 1]) for h in (0, 2, 5, 7) for p in P])
    v1, v2, vj, vc = (vals[h * c:(h + 1) * c] for h in range(4))
    cols = (v1, v2, vj, vc, [p[4] for p in P])
    out = [None] * c
    for idx in _groups([(n1, n2) for n1, n2, *_ in chunk]).values():
        V1, V2, VJ, VC, U = (np.array([col[j] for j in idx]) for col in cols)
        ds = np.max(np.abs(VJ - block_diag(V1, V2)), axis=(-2, -1))
        du = np.max(np.abs(VC - U.conj().swapaxes(-1, -2) @ V1 @ U),
                    axis=(-2, -1))
        for j, pair in zip(idx, zip(ds.tolist(), du.tolist())):
            out[j] = pair
    return out


def _axioms_one(F: NcFunction, p: list) -> tuple:
    """One sample's (dev_ds, dev_u), evaluated point by point in the
    order of a sample-by-sample check: F sees each point as a pair of
    read-only HermTuples, and the first error raised is the one that
    check raised first."""
    A1, X1, A2, X2, U, AJ, XJ, AC, XC = p

    def at(A, X):
        n = X.shape[-1]
        return F(HermTuple._trusted(_read_only(A), "a", n),
                 HermTuple._trusted(_read_only(X), "x", n))

    v1 = at(A1, X1)
    v2 = at(A2, X2)
    dev_ds = float(np.max(np.abs(at(AJ, XJ) - block_diag(v1, v2))))
    return dev_ds, float(np.max(np.abs(at(AC, XC) - U.conj().T @ v1 @ U)))


def check_nc_function_axioms(F, sizes=(1, 2, 3, 4), samples: int = 100,
                             seed=0, tol: float = AXIOM_TOL) -> AxiomsReport:
    """Sampled check that F respects direct sums and unitary conjugation.

    Only meaningful for graded evaluators (output side equals input
    size).  Failures are report content, not exceptions; the first
    offending sample is kept as a self-contained counterexample.

    The check has the draw / stack / replay shape of the sampling core
    in convexity.py, but keeps one stream, as_rng(seed), for all its
    samples: a chunk's samples take their raw numbers from it in sample
    order; the chunk's matrices are built, and F evaluated, with
    stacked calls once per matrix size; then the samples are replayed
    in order for the maxima and the first counterexample.  A chunk
    holds convexity.CHUNK samples at sizes up to 4, fewer at larger
    sizes, so its memory stays that of CHUNK samples of size 4.  A chunk
    whose stacked stage raises runs again one sample at a time, from its
    raw numbers, so the error raised is the first a sample-by-sample
    check meets.
    """
    from .convexity import CHUNK        # convexity imports this module
    F = as_nc_function(F)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    sizes = np.asarray(sizes)
    if sizes.ndim != 1 or not sizes.size or not (sizes >= 1).all():
        raise ValueError(f"sizes must list matrix sizes of at least 1, "
                         f"got {sizes.tolist()}")
    step = min(CHUNK, max(1, CHUNK * 16 // int(sizes.max()) ** 2))
    sig = F.signature
    rng = as_rng(seed)
    max_ds = 0.0
    max_u = 0.0
    counterexample = None
    for start in range(0, samples, step):
        chunk = [_draw_axioms_sample(sig, sizes, rng)
                 for _ in range(start, min(start + step, samples))]
        try:
            P = _axioms_points(chunk, start)
            devs = _axioms_devs(F, chunk, P)
        except Exception:
            P, devs = [], []
            for k, sample in enumerate(chunk, start):
                P += _axioms_points([sample], k)
                devs.append(_axioms_one(F, P[-1]))
        for (n1, n2, *_), p, (dev_ds, dev_u) in zip(chunk, P, devs):
            max_ds = max(max_ds, dev_ds)
            max_u = max(max_u, dev_u)
            if counterexample is None and (dev_ds > tol or dev_u > tol):
                counterexample = {
                    "axiom": "direct_sum" if dev_ds > tol else "unitary",
                    "deviation": max(dev_ds, dev_u),
                    "A1": tuple_to_json(p[0]), "X1": tuple_to_json(p[1]),
                    "A2": tuple_to_json(p[2]), "X2": tuple_to_json(p[3]),
                    "n1": n1, "n2": n2,
                }
    return AxiomsReport(passed=(max_ds <= tol and max_u <= tol),
                        samples=samples, max_direct_sum_dev=max_ds,
                        max_unitary_dev=max_u, tol=tol,
                        counterexample=counterexample)
