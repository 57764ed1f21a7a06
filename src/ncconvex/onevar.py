"""One-variable matrix function calculus and its testers.

matrix_apply is plain spectral calculus.  kraus_eval evaluates the
integral representation

    f(B) = f0 I + f1 B + (1/2) f2 sum_k w_k B^2 (I - lambda_k B)^{-1}

for a finite measure, through linear solves rather than the spectral
route, so the two paths can serve as independent oracles for each
other.  pick_eval is the Nevanlinna-Pick sum.  g_transform implements
g(t) = (f(t) - f(0))/t with the removable singularity handled by a
Taylor patch: the raw quotient loses digits to cancellation for small
t, so inside |t| <= 1e-3 the transform evaluates a degree-3 Taylor
polynomial built from derivatives of f at 0 instead.

Monotonicity testing is the classical Loewner criterion: divided
difference matrices with f' on the diagonal must be PSD.  Both testers
run on the sampling core of convexity.py, which compares min
eigenvalues against -PSD_TOL and requires the stricter -WITNESS_TOL
band before a counterexample is reported.  The convexity tester hands
it whole chunks: one stacked eigh per matrix family, with f evaluated
in Python on each eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convexity import Report, _defect_eigs, _falsify
from .errors import DomainError, ShapeError, SingularityError
from .tolerances import KRAUS_POLE_TOL, ONEVAR_INGEST_TOL
from .tuples import (draw_spectral, matrix_from_json, matrix_to_json,
                     spectral_lift)

_FD_STEP = 1e-6
_TAYLOR_ZONE = 1e-3


def _richardson(step_fn: Callable[[float], float], h: float) -> float:
    return (4.0 * step_fn(h / 2) - step_fn(h)) / 3.0


class ScalarFn:
    """Real function on an open interval with optional analytic
    derivatives; missing derivatives fall back to central finite
    differences with Richardson refinement.  The testers call fn on a
    chunk of trials' eigenvalues at once, so it must be pure."""

    __slots__ = ("fn", "d1", "d2", "domain", "name")

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
    """Finite list of (atom, weight >= 0) pairs."""

    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms",
                           tuple((float(l), float(w)) for l, w in self.atoms))
        for l, w in self.atoms:
            if w < 0:
                raise ValueError(f"negative weight {w} at atom {l}")

    @classmethod
    def point_mass(cls, location: float) -> "DiscreteMeasure":
        return cls(((location, 1.0),))

    @property
    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms)

    def check_kraus(self, tol: float = 1e-12) -> None:
        """Kraus use requires atoms in [-1, 1] and a probability measure."""
        for l, _ in self.atoms:
            if not -1.0 <= l <= 1.0:
                raise ValueError(f"atom {l} outside [-1, 1]")
        if abs(self.total_mass - 1.0) > tol:
            raise ValueError(
                f"weights sum to {self.total_mass!r}, want 1 within {tol}")

    def to_json_dict(self) -> dict:
        return {"atoms": [[l, w] for l, w in self.atoms]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteMeasure":
        return cls(tuple((p[0], p[1]) for p in data["atoms"]))


def _ingest_hermitian(B, stacked: int = 0) -> np.ndarray:
    """(B + B*)/2 of a square matrix, or of each member of a stack with
    `stacked` leading axes; a member further than ONEVAR_INGEST_TOL from
    its adjoint is refused."""
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 + stacked or B.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matrix argument has shape {B.shape}")
    Bh = B.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(B - Bh), axis=(-2, -1))
    bad = np.flatnonzero(dev > ONEVAR_INGEST_TOL)
    if bad.size:
        raise ValueError("matrix argument is not Hermitian (deviation "
                         f"{float(dev.flat[bad[0]]):.3e})")
    return (B + Bh) / 2


def _spectral_apply(f: ScalarFn, B: np.ndarray, active=None) -> tuple:
    """f(B) = V diag(f(lambda)) V* for each member of an ingested (c, n, n)
    stack, from one eigh.  Returns (values, eigenvalues, ok): ok marks
    the members of `active` whose spectrum lies inside f's domain, and
    f runs on those members' eigenvalues only."""
    lam, V = np.linalg.eigh(B)
    lo, hi = f.domain
    ok = ((lo < lam) & (lam < hi)).all(axis=-1)
    if active is not None:
        ok &= active
    fvals = np.zeros(lam.shape)
    fvals[ok] = np.array([[f(l) for l in row] for row in lam[ok].tolist()],
                         dtype=float).reshape(-1, lam.shape[-1])
    return (V * fvals[..., None, :]) @ V.conj().swapaxes(-1, -2), lam, ok


def matrix_apply(f: ScalarFn, B) -> np.ndarray:
    """Spectral calculus: f(B) = V diag(f(lambda)) V*."""
    values, lam, ok = _spectral_apply(f, _ingest_hermitian(B)[None])
    if not ok[0]:
        lo, hi = f.domain
        l = next(l for l in lam[0] if not lo < l < hi)
        raise DomainError(f"eigenvalue {float(l)!r} outside the domain "
                          f"({lo}, {hi}) of {f.name}")
    return values[0]


def kraus_eval(f0: float, f1: float, f2: float, mu: DiscreteMeasure,
               B) -> np.ndarray:
    """Resolvent-route evaluation of the integral representation, for a
    Hermitian (n, n) matrix or a (..., n, n) stack of them.  The first
    member whose spectrum leaves (-1, 1) or comes near a pole raises, as
    it would alone, and a singular solve raises SingularityError."""
    B = np.asarray(B, dtype=complex)
    B = _ingest_hermitian(B, max(B.ndim - 2, 0))
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
    square matrix B or a stack of them, with no domain check; a singular
    resolvent raises SingularityError."""
    eye = np.eye(B.shape[-1], dtype=complex)
    B2 = B @ B
    acc = f0 * eye + f1 * B
    for l, w in mu.atoms:
        if w == 0.0:
            continue
        try:
            acc = acc + 0.5 * f2 * w * np.linalg.solve(eye - l * B, B2)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"resolvent at atom {l} is singular") from exc
    return acc


def kraus_scalar_fn(f0: float, f1: float, f2: float, mu: DiscreteMeasure,
                    domain: tuple = (-1.0, 1.0),
                    name: Optional[str] = None) -> ScalarFn:
    """The same representation as a scalar function with analytic
    derivatives: d/dt [t^2/(1-lt)] = t(2-lt)/(1-lt)^2 and
    d^2/dt^2 [t^2/(1-lt)] = 2/(1-lt)^3."""
    mu.check_kraus()
    atoms = mu.atoms

    def f(t: float) -> float:
        s = sum(w * t * t / (1.0 - l * t) for l, w in atoms)
        return f0 + f1 * t + 0.5 * f2 * s

    def d1(t: float) -> float:
        s = sum(w * t * (2.0 - l * t) / (1.0 - l * t) ** 2 for l, w in atoms)
        return f1 + 0.5 * f2 * s

    def d2(t: float) -> float:
        return f2 * sum(w / (1.0 - l * t) ** 3 for l, w in atoms)

    return ScalarFn(f, d1=d1, d2=d2, domain=domain,
                    name=name or "kraus-representation")


def pick_eval(alpha: float, beta: float, mu: DiscreteMeasure,
              z: complex) -> complex:
    """alpha z + beta + sum_k w_k (1/(lambda_k - z) - lambda_k/(lambda_k^2+1))."""
    z = complex(z)
    acc = alpha * z + beta
    for l, w in mu.atoms:
        if abs(l - z) <= 1e-12:
            raise SingularityError(f"evaluation point {z} collides with atom {l}")
        acc += w * (1.0 / (l - z) - l / (l * l + 1.0))
    return acc


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
    pts = np.asarray(points, dtype=float)
    vals = [f(t) for t in pts]          # f once per point
    k = pts.size
    L = np.empty((k, k), dtype=float)
    for i in range(k):
        L[i, i] = f.derivative(pts[i])
        for j in range(i + 1, k):
            v = (vals[i] - vals[j]) / (pts[i] - pts[j])
            L[i, j] = v
            L[j, i] = v
    return L


def _distinct_points(rng, lo: float, hi: float, k: int) -> np.ndarray:
    # regenerate until pairwise gaps are large enough that the divided
    # differences keep ~5 digits
    min_gap = 1e-5 * (hi - lo)
    for _ in range(100):
        pts = np.sort(rng.uniform(lo, hi, size=k))
        if k < 2 or np.min(np.diff(pts)) > min_gap:
            return pts
    raise RuntimeError("could not draw well-separated points")


def loewner_monotone_test(f: ScalarFn, interval: Optional[tuple] = None,
                          points_per_trial: int = 5, trials: int = 200,
                          seed=0) -> Report:
    """Sampling falsifier for operator monotonicity on an interval.

    Fail is conclusive (the witness points re-verify standalone); pass
    is evidence, not proof.
    """
    lo, hi = interval if interval is not None else f.domain
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite interval, got ({lo}, {hi})")
    if points_per_trial < 2:
        raise ValueError("points_per_trial must be >= 2")

    def draw(rng, k):
        return _distinct_points(rng, lo, hi, points_per_trial)

    def defects(samples):
        return np.stack([loewner_matrix(f, pts) for pts in samples]), samples

    def witness_of(pts, eigs):
        return {"points": [float(t) for t in pts],
                "loewner_eigs": [float(e) for e in eigs]}

    return _falsify([((seed,), trials, draw)], defects, witness_of,
                    "loewner_monotone")


def verify_monotone_witness(f: ScalarFn, witness: dict) -> float:
    """Recompute the Loewner min eigenvalue of a stored witness."""
    return float(_defect_eigs(loewner_matrix(f, witness["points"]),
                              "witness")[0])


def _defects_1var(f: ScalarFn, A: np.ndarray, B: np.ndarray,
                  t: np.ndarray) -> tuple:
    """(t f(A) + (1-t) f(B) - f(tA + (1-t)B), ok) for (c, n, n) stacks;
    ok marks the members whose three spectra lie inside f's domain."""
    t = t[:, None, None]
    FA, _, ok = _spectral_apply(f, _ingest_hermitian(A, True))
    FB, _, ok = _spectral_apply(f, _ingest_hermitian(B, True), ok)
    FM, _, ok = _spectral_apply(
        f, _ingest_hermitian(t * A + (1.0 - t) * B, True), ok)
    return t * FA + (1.0 - t) * FB - FM, ok


def convexity_test_1var(f: ScalarFn, interval: Optional[tuple] = None,
                        size: int = 2, trials: int = 300, seed=0) -> Report:
    """Midpoint-plus-random matrix convexity falsifier for one variable.

    Defect D = t f(A) + (1-t) f(B) - f(tA + (1-t)B) must stay PSD; the
    worst sampled violation below -WITNESS_TOL ships as the witness.
    """
    lo, hi = interval if interval is not None else f.domain
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite interval, got ({lo}, {hi})")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")

    def spectra(rng):
        return draw_spectral(rng, size, lo, hi) + draw_spectral(rng, size,
                                                                lo, hi)

    def draw(rng, k):
        # every other trial pins t at the midpoint; the generator stays
        # with the sample for resampling
        t = 0.5 if k % 2 == 0 else float(rng.uniform(0.0, 1.0))
        return (t, rng) + spectra(rng)

    def evaluate(ts, draws):
        lam_a, parts_a, lam_b, parts_b = (np.array(d) for d in zip(*draws))
        A, B = spectral_lift(lam_a, parts_a), spectral_lift(lam_b, parts_b)
        return _defects_1var(f, A, B, np.array(ts)) + (A, B)

    def resample(t, rng):
        # float dust pushed a mixed eigenvalue out: attempts 2-5 draw
        # on from the trial's own generator
        for _ in range(4):
            D, ok, A, B = evaluate([t], [spectra(rng)])
            if ok[0]:
                return D[0], A[0], B[0]
        raise DomainError("could not sample spectra inside the interval")

    def defects(samples):
        ts = [s[0] for s in samples]
        D, ok, A, B = evaluate(ts, [s[2:] for s in samples])
        for i in np.flatnonzero(~ok):
            D[i], A[i], B[i] = resample(*samples[i][:2])
        return D, list(zip(A, B, ts))

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
    t = float(witness["t"])
    # the tester's arithmetic, one matrix at a time, so the bits agree;
    # matrix_apply names the first eigenvalue outside f's domain
    D = (t * matrix_apply(f, A) + (1.0 - t) * matrix_apply(f, B)
         - matrix_apply(f, t * A + (1.0 - t) * B))
    return float(_defect_eigs(D, "witness")[0])
