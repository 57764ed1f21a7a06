"""One-variable matrix function calculus and its testers.

matrix_apply is plain spectral calculus.  kraus_eval evaluates the
integral representation

    f(B) = f0 I + f1 B + (1/2) f2 sum_k w_k B^2 (I - lambda_k B)^{-1}

for a finite measure, through linear solves rather than the spectral
route, so the two paths can serve as independent oracles for each
other.  g_transform implements g(t) = (f(t) - f(0))/t with the
removable singularity handled by a Taylor patch: the raw quotient
loses digits to cancellation for small t, so inside |t| <= 1e-3 the
transform evaluates a degree-3 Taylor polynomial built from
derivatives of f at 0 instead.

Monotonicity testing is the classical Loewner criterion: divided
difference matrices with f' on the diagonal must be PSD.  Both testers
sample an interval inside f's domain (_tested_interval refuses any
other) and run on the sampling core of convexity.py, which compares
min eigenvalues against -PSD_TOL and requires the stricter -WITNESS_TOL
band before a counterexample is reported, and both hand it whole
chunks: one stacked eigh over the _midpoints stack, one (c, k, k)
stack of Loewner matrices.  _values evaluates f on a chunk's eigenvalues or
points.  A ScalarFn the package builds from plain arithmetic (a
Horner polynomial, a Kraus sum) runs once on the whole array, with
the same operations in the same order, so every value keeps the bits
of a call per point; any other ScalarFn is still called once per
point with a float.  Derivatives are always taken point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convexity import (Report, _defect_eigs, _falsify, _midpoint_defects,
                        _midpoints, _witness_t)
from .errors import DomainError, ShapeError, SingularityError
from .tolerances import KRAUS_POLE_TOL, ONEVAR_INGEST_TOL
from .tuples import (draw_spectral, matrix_from_json, matrix_to_json,
                     spectral_lift)

_FD_STEP = 1e-6
_TAYLOR_ZONE = 1e-3
_MASS_TOL = 1e-12


def _richardson(step_fn: Callable[[float], float], h: float) -> float:
    return (4.0 * step_fn(h / 2) - step_fn(h)) / 3.0


class ScalarFn:
    """Real function on an open interval with optional analytic
    derivatives; missing derivatives fall back to central finite
    differences with Richardson refinement.  The testers call fn once
    per point with a float, a chunk of trials at a time, so it must be
    pure.  _on_arrays marks an fn of plain + - * / arithmetic that the
    package built; the testers call it once on a whole float array."""

    __slots__ = ("fn", "d1", "d2", "domain", "name", "_on_arrays")

    def __init__(self, fn: Callable[[float], float],
                 d1: Optional[Callable[[float], float]] = None,
                 d2: Optional[Callable[[float], float]] = None,
                 domain: tuple = (-math.inf, math.inf),
                 name: str = "f"):
        self.fn = fn
        self.d1 = d1
        self.d2 = d2
        self.domain = (float(domain[0]), float(domain[1]))
        self.name = name
        self._on_arrays = False

    def __call__(self, t: float) -> float:
        return float(self.fn(float(t)))

    def derivative(self, t: float) -> float:
        if self.d1 is not None:
            return float(self.d1(float(t)))
        f = self.fn
        return _richardson(
            lambda h: (f(t + h) - f(t - h)) / (2.0 * h), _FD_STEP)

    def second_derivative(self, t: float) -> float:
        if self.d2 is not None:
            return float(self.d2(float(t)))
        if self.d1 is not None:
            d1 = self.d1
            return _richardson(
                lambda h: (d1(t + h) - d1(t - h)) / (2.0 * h), _FD_STEP)
        f = self.fn
        return _richardson(
            lambda h: (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h), 1e-4)

    def __repr__(self) -> str:
        return f"ScalarFn({self.name}, domain={self.domain})"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite list of (atom, weight) pairs, both finite, weight >= 0."""

    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms",
                           tuple((float(l), float(w)) for l, w in self.atoms))
        for l, w in self.atoms:
            if not math.isfinite(l):
                raise ValueError(f"atom {l} is not finite")
            if not 0 <= w < math.inf:
                raise ValueError(f"weight {w} at atom {l} is not a finite "
                                 "non-negative number")

    @classmethod
    def point_mass(cls, location: float) -> "DiscreteMeasure":
        return cls(((location, 1.0),))

    @property
    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms)

    def check_kraus(self) -> None:
        """Kraus use requires atoms in [-1, 1] and a probability measure."""
        for l, _ in self.atoms:
            if not -1.0 <= l <= 1.0:
                raise ValueError(f"atom {l} outside [-1, 1]")
        if not abs(self.total_mass - 1.0) <= _MASS_TOL:
            raise ValueError(f"weights sum to {self.total_mass!r}, want 1 "
                             f"within {_MASS_TOL}")

    def to_json_dict(self) -> dict:
        return {"atoms": [[l, w] for l, w in self.atoms]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteMeasure":
        return cls(tuple((p[0], p[1]) for p in data["atoms"]))


def _ingest_hermitian(B) -> np.ndarray:
    """(B + B*)/2 of a square matrix, or of each member of a (..., n, n)
    stack; a member further than ONEVAR_INGEST_TOL from its adjoint is
    refused."""
    B = np.asarray(B, dtype=complex)
    if B.ndim < 2 or B.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matrix argument has shape {B.shape}")
    Bh = B.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(B - Bh), axis=(-2, -1))
    bad = np.flatnonzero(dev > ONEVAR_INGEST_TOL)
    if bad.size:
        raise ValueError("matrix argument is not Hermitian (deviation "
                         f"{float(dev.flat[bad[0]]):.3e})")
    return (B + Bh) / 2


def _values(f: ScalarFn, P: np.ndarray) -> np.ndarray:
    """f at every entry of a float array, bit for bit what f(t) gives
    point by point: one call on the whole array when f is marked
    _on_arrays, else one call per entry in order.  Overflow and NaN are
    left to the callers' finiteness checks, as Python floats leave them."""
    if f._on_arrays:
        with np.errstate(over="ignore", invalid="ignore"):
            return f.fn(P)
    return np.array([f(t) for t in P.ravel().tolist()],
                    dtype=float).reshape(P.shape)


def _spectral_apply(f: ScalarFn, B: np.ndarray) -> tuple:
    """f(B) = V diag(f(lambda)) V* for each member of a Hermitian
    (c, n, n) stack, from one eigh.  Returns (values, eigenvalues, ok):
    ok marks the members whose spectrum lies inside f's domain, and f
    runs on those members' eigenvalues only."""
    lam, V = np.linalg.eigh(B)
    lo, hi = f.domain
    ok = ((lo < lam) & (lam < hi)).all(axis=-1)
    fvals = np.zeros(lam.shape)
    fvals[ok] = _values(f, lam[ok])
    return (V * fvals[..., None, :]) @ V.conj().swapaxes(-1, -2), lam, ok


def matrix_apply(f: ScalarFn, B) -> np.ndarray:
    """Spectral calculus: f(B) = V diag(f(lambda)) V*, for a Hermitian
    (n, n) matrix or a (..., n, n) stack of them.  The first member with
    an eigenvalue outside f's domain raises, as it would alone."""
    B = _ingest_hermitian(B)
    values, lam, ok = _spectral_apply(f, B.reshape((-1,) + B.shape[-2:]))
    bad = np.flatnonzero(~ok)
    if bad.size:
        lo, hi = f.domain
        l = next(l for l in lam[bad[0]] if not lo < l < hi)
        raise DomainError(f"eigenvalue {float(l)!r} outside the domain "
                          f"({lo}, {hi}) of {f.name}")
    return values.reshape(B.shape)


def kraus_eval(f0: float, f1: float, f2: float, mu: DiscreteMeasure,
               B) -> np.ndarray:
    """Resolvent-route evaluation of the integral representation, for a
    Hermitian (n, n) matrix or a (..., n, n) stack of them.  The first
    member whose spectrum leaves (-1, 1) or comes near a pole raises, as
    it would alone, and a singular solve raises SingularityError."""
    B = _ingest_hermitian(B)
    mu.check_kraus()
    lam = np.linalg.eigvalsh(B)
    if lam.size:
        lam = lam.reshape(-1, lam.shape[-1])
        outside = (lam[:, 0] <= -1.0) | (lam[:, -1] >= 1.0)
        gaps = np.abs(1.0 - np.multiply.outer([l for l, _ in mu.atoms], lam))
        gap = gaps.min(axis=(0, 2), initial=np.inf)
        bad = np.flatnonzero(outside | (gap <= KRAUS_POLE_TOL))
        if bad.size:
            j = bad[0]
            if outside[j]:
                raise DomainError(f"spectrum [{lam[j, 0]:.6g}, "
                                  f"{lam[j, -1]:.6g}] not inside (-1, 1)")
            raise SingularityError("resolvent pole too close: min "
                                   f"|1 - lambda*t| = {gap[j]:.3e}")
    return _kraus_resolvent(f0, f1, f2, mu, B)


def _kraus_resolvent(f0: float, f1: float, f2: float, mu: DiscreteMeasure,
                     B: np.ndarray) -> np.ndarray:
    """f0 I + f1 B + (1/2) f2 sum_k w_k (I - lambda_k B)^{-1} B^2 for a
    complex square matrix B or a stack of them, with no domain check; a
    singular resolvent raises SingularityError."""
    eye = np.eye(B.shape[-1], dtype=complex)
    B2 = B @ B
    # in place, so a stack keeps few copies of B alive; every value
    # still takes the operations of the formula in its order
    acc = f1 * B
    acc += f0 * eye
    for l, w in mu.atoms:
        if w == 0.0:
            continue
        M = B * l
        np.subtract(eye, M, out=M)
        try:
            S = np.linalg.solve(M, B2)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"resolvent at atom {l} is singular") from exc
        S *= 0.5 * f2 * w
        acc += S
    return acc


def kraus_scalar_fn(f0: float, f1: float, f2: float, mu: DiscreteMeasure,
                    domain: tuple = (-1.0, 1.0),
                    name: Optional[str] = None) -> ScalarFn:
    """The same representation as a scalar function with analytic
    derivatives: d/dt [t^2/(1-lt)] = t(2-lt)/(1-lt)^2 and
    d^2/dt^2 [t^2/(1-lt)] = 2/(1-lt)^3."""
    mu.check_kraus()
    atoms = mu.atoms

    # left folds, not sum(), which compensates from Python 3.12 on, so
    # its last bits would hang on the Python version and part from the
    # same fold on an array
    def f(t: float) -> float:
        s = 0.0
        for l, w in atoms:
            s = s + w * t * t / (1.0 - l * t)
        return f0 + f1 * t + 0.5 * f2 * s

    def d1(t: float) -> float:
        s = 0.0
        for l, w in atoms:
            s = s + w * t * (2.0 - l * t) / (1.0 - l * t) ** 2
        return f1 + 0.5 * f2 * s

    def d2(t: float) -> float:
        s = 0.0
        for l, w in atoms:
            s = s + w / (1.0 - l * t) ** 3
        return f2 * s

    fn = ScalarFn(f, d1=d1, d2=d2, domain=domain,
                  name=name or "kraus-representation")
    fn._on_arrays = True
    return fn


def g_transform(f: ScalarFn) -> ScalarFn:
    """g(t) = (f(t) - f(0))/t with g(0) = f'(0).

    Inside |t| <= 1e-3 the quotient is replaced by the degree-3 Taylor
    polynomial of g at 0 (coefficients f'(0), f''(0)/2, f'''(0)/6,
    f''''(0)/24; the last two by Richardson-refined differencing of
    f''), killing the subtractive cancellation of the raw quotient.
    The derivative uses (t f'(t) - f(t) + f(0))/t^2 outside the zone
    and the differentiated Taylor polynomial inside.
    """
    lo, hi = f.domain
    if not lo < 0.0 < hi:
        raise DomainError(f"g-transform needs 0 inside the domain ({lo}, {hi})")
    f_at_0 = f(0.0)
    c1 = f.derivative(0.0)
    c2 = f.second_derivative(0.0) / 2.0
    h = min(1e-2, 0.4 * min(-lo, hi))
    d2 = f.second_derivative
    d2_at_0 = d2(0.0)
    # plain O(h^2) differences leak ~2e-8 into dg inside the zone; the
    # extrapolation keeps the patched derivative within ~1e-12
    c3 = _richardson(lambda s: (d2(s) - d2(-s)) / (2.0 * s), h) / 6.0
    c4 = _richardson(lambda s: (d2(s) - 2.0 * d2_at_0 + d2(-s)) / (s * s), h) / 24.0

    def g(t: float) -> float:
        if abs(t) <= _TAYLOR_ZONE:
            return c1 + t * (c2 + t * (c3 + t * c4))
        return (f(t) - f_at_0) / t

    def dg(t: float) -> float:
        if abs(t) <= _TAYLOR_ZONE:
            return c2 + t * (2.0 * c3 + t * 3.0 * c4)
        return (t * f.derivative(t) - (f(t) - f_at_0)) / (t * t)

    return ScalarFn(g, d1=dg, domain=f.domain, name=f"g[{f.name}]")


# -- testers ------------------------------------------------------------------


def loewner_matrix(f: ScalarFn, points) -> np.ndarray:
    """Divided-difference matrix; diagonal = f'."""
    return _loewner_stack(f, np.asarray(points, dtype=float)[None])[0]


def _loewner_stack(f: ScalarFn, P: np.ndarray) -> np.ndarray:
    """Loewner matrices of a (c, k) stack of point rows: f once per
    point through _values, the divided differences on the upper
    triangle in one vector op, mirrored, and f' point by point on the
    diagonal."""
    c, k = P.shape
    i, j = np.triu_indices(k, 1)
    vals = _values(f, P)
    with np.errstate(over="ignore", invalid="ignore"):
        dd = (vals[:, i] - vals[:, j]) / (P[:, i] - P[:, j])
    L = np.empty((c, k, k))
    L[:, i, j] = dd
    L[:, j, i] = dd
    # np.float64 points, as the per-point loop passed them
    L[:, range(k), range(k)] = [[f.derivative(t) for t in row] for row in P]
    return L


def _distinct_points(rng, lo: float, hi: float, k: int) -> np.ndarray:
    # regenerate until pairwise gaps are large enough that the divided
    # differences keep ~5 digits
    min_gap = 1e-5 * (hi - lo)
    for _ in range(100):
        pts = np.sort(rng.uniform(lo, hi, size=k))
        if k < 2 or np.min(np.diff(pts)) > min_gap:
            return pts
    raise DomainError("could not draw well-separated points")


def _tested_interval(f: ScalarFn, interval: Optional[tuple]) -> tuple:
    """The interval a tester samples, by default f's domain; it must be
    non-empty, of finite width and inside f's domain, since f's values
    outside it would make a "conclusive" FAIL."""
    lo, hi = interval if interval is not None else f.domain
    if not (lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"need a finite interval, got ({lo}, {hi})")
    if not f.domain[0] <= lo < hi <= f.domain[1]:
        raise DomainError(f"interval ({lo}, {hi}) is not inside the domain "
                          f"{f.domain} of {f.name}")
    return lo, hi


def loewner_monotone_test(f: ScalarFn, interval: Optional[tuple] = None,
                          points_per_trial: int = 5, trials: int = 200,
                          seed=0) -> Report:
    """Sampling falsifier for operator monotonicity on an interval.

    Fail is conclusive (the witness points re-verify standalone); pass
    is evidence, not proof.
    """
    lo, hi = _tested_interval(f, interval)
    if points_per_trial < 2:
        raise ValueError("points_per_trial must be >= 2")

    def draw(rng, k):
        return _distinct_points(rng, lo, hi, points_per_trial)

    def defects(samples):
        return _loewner_stack(f, np.array(samples)), samples

    def witness_of(pts, eigs):
        return {"points": [float(t) for t in pts],
                "loewner_eigs": [float(e) for e in eigs]}

    return _falsify([((seed,), trials, draw)], defects, witness_of,
                    "loewner_monotone")


def verify_monotone_witness(f: ScalarFn, witness: dict) -> float:
    """Recompute the Loewner min eigenvalue of a stored witness."""
    pts = np.asarray(witness["points"], dtype=float)
    if not (np.isfinite(pts).all() and len(set(pts.flat)) == pts.size):
        raise DomainError("witness: the points must be finite and distinct")
    lo, hi = f.domain
    outside = [t for t in pts.flat if not lo < t < hi]
    if outside:
        raise DomainError(f"witness: point {float(outside[0])!r} lies outside "
                          f"the domain {f.domain} of {f.name}")
    return float(_defect_eigs(loewner_matrix(f, pts), "witness")[0])


def convexity_test_1var(f: ScalarFn, interval: Optional[tuple] = None,
                        size: int = 2, trials: int = 300, seed=0) -> Report:
    """Midpoint-plus-random matrix convexity falsifier for one variable.

    Defect D = t f(A) + (1-t) f(B) - f(tA + (1-t)B) must stay PSD; the
    worst sampled violation below -WITNESS_TOL ships as the witness.  A
    trial whose spectrum float dust pushes out of f's domain raises,
    naming the trial.
    """
    lo, hi = _tested_interval(f, interval)
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")

    def draw(rng, k):
        # every other trial pins t at the midpoint
        t = 0.5 if k % 2 == 0 else rng.random()
        return ((k, t) + draw_spectral(rng, size, lo, hi)
                + draw_spectral(rng, size, lo, hi))

    def defects(samples):
        ks, ts, *spectra = zip(*samples)
        lam_a, parts_a, lam_b, parts_b = map(np.array, spectra)
        A, B = spectral_lift(lam_a, parts_a), spectral_lift(lam_b, parts_b)
        t = np.array(ts)
        # one _spectral_apply over the _midpoints stack; f runs only on
        # the members whose spectra lie inside its domain
        V, _, ok = _spectral_apply(f, _midpoints(A, B, t))
        bad = np.flatnonzero(~ok.reshape(3, -1).all(axis=0))
        if bad.size:
            raise DomainError(f"trial {ks[bad[0]]}: a spectrum leaves the "
                              f"domain {f.domain} of {f.name}")
        return _midpoint_defects(V, t), list(zip(A, B, ts))

    def witness_of(data, eigs):
        A, B, t = data
        return {"A": matrix_to_json(A), "B": matrix_to_json(B), "t": t,
                "defect_eigs": [float(e) for e in eigs]}

    return _falsify([((seed,), trials, draw)], defects, witness_of,
                    "convexity_1var")


def verify_convexity1_witness(f: ScalarFn, witness: dict) -> float:
    """Recompute the defect min eigenvalue of a stored witness."""
    A = matrix_from_json(witness["A"])
    B = matrix_from_json(witness["B"])
    t = _witness_t(witness)
    # the tester's arithmetic, one matrix at a time, so the bits agree;
    # matrix_apply names the first eigenvalue outside f's domain
    D = (t * matrix_apply(f, A) + (1.0 - t) * matrix_apply(f, B)
         - matrix_apply(f, t * A + (1.0 - t) * B))
    return float(_defect_eigs(D, "witness")[0])
