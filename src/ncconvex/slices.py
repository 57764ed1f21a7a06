"""Slice functions and the degree-two certificate.

For an nc function F, an a-point A and an x-direction X, the slice

    Phi(xi) = F(A (x) I, X_1 (x) xi, ..., X_g (x) xi)

compresses along a unit vector v to the one-variable object

    phi(z) = v* F(A, zX) v = sum_i (v* F_i(A, X) v) z^i,

whose coefficients c_i isolate the x-homogeneous parts of F.  Two
independent extraction routes are kept deliberately separate: exact
part-wise evaluation when F exposes its homogeneous decomposition, and
inverse-DFT sampling of phi on a circle |z| = r for black boxes.  The
certificate then reads off whether anything above degree two survives.

Numerics of the DFT route: coefficient i is recovered with noise about
eps_machine * max|phi| / r^i, so small radii amplify high-order noise;
the residual check on a rotated node set catches both that and
aliasing, and the extractor refuses (ExtractionError) rather than
returning digits it cannot back.  Both node sets, the interpolation
nodes and the rotated check nodes, go through one F.at_scales call, so
the checks that do not depend on z run once per extraction.

The slice-transfer tester runs on the sampling core of convexity.py and
evaluates each chunk's slice matrices through one F.at_points call per
size of T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .convexity import Report, _falsify, test_convexity_at_CA
from .errors import DomainError, ExtractionError
from .evaluate import as_nc_function, eval_poly
from .tolerances import COEFF_ZERO_TOL, EXTRACTION_RESIDUAL_TOL
from .tuples import (HermTuple, ca_element, derived_rng, draw_spectral,
                     sample_x_ball, spectral_lift, tuple_norm, tuple_to_json)

VERDICT_CONSISTENT = "CONSISTENT_DEGREE_LE_2"
VERDICT_HYPOTHESIS_FAILS = "HYPOTHESIS_FAILS"
VERDICT_HIGHER_ORDER = "HIGHER_ORDER_PRESENT"


def _unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError("direction vector must be nonzero")
    return v / nv


def _tensor_lifts(A: HermTuple, X: HermTuple, xis: np.ndarray) -> tuple:
    """The lifts A_i (x) I and X_i (x) xi for a (c, d, d) stack of xi: a
    list of the a-lifts and a (c, g_x, nd, nd) stack of the x-lifts,
    holding the products np.kron takes."""
    c, d = xis.shape[0], xis.shape[-1]
    eye = np.eye(d, dtype=complex)
    n, g = X.n, X.arity
    x = np.asarray(X.entries, dtype=complex).reshape(1, g, n, 1, n, 1)
    x_lift = (x * xis[:, None, None, :, None, :]).reshape(c, g, n * d, n * d)
    return [np.kron(a, eye) for a in A.entries], x_lift


def slice_phi(F, A: HermTuple, X: HermTuple, xi: np.ndarray) -> np.ndarray:
    """F at the tensor lift (A (x) I, X (x) xi)."""
    F = as_nc_function(F)
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise ValueError(f"xi must be square, got shape {xi.shape}")
    a_lift, x_lift = _tensor_lifts(A, X, xi[None])
    return F(a_lift, list(x_lift[0]))


def _phi_at(F, A: HermTuple, X: HermTuple, v, zs) -> np.ndarray:
    """phi at every z in zs from one F.at_scales call; the z-free checks
    run once and v is normalized on ingest."""
    v = _unit_vector(v)
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag != 0.0) and not F.analytic_in_z:
        raise DomainError(
            f"evaluator {F.name} is not declared analytic in z; "
            "complex slices are unavailable")
    reach = float(np.max(np.abs(zs))) * tuple_norm(X)
    if not reach < F.radius:
        raise DomainError(
            f"|z|*|X| = {reach:.6g} is outside the radius {F.radius:.6g}")
    stack = F.at_scales(A, X, zs)
    if stack.shape[1] != v.size:
        raise ValueError(
            f"direction vector has length {v.size}, evaluation is "
            f"{stack.shape[1:]}")
    return np.array([complex(v.conj() @ M @ v) for M in stack])


def slice_scalar(F, A: HermTuple, X: HermTuple, v, z: complex) -> complex:
    """phi(z) = v* F(A, zX) v; v is normalized on ingest."""
    return complex(_phi_at(as_nc_function(F), A, X, v, [z])[0])


def slice_matrix(F, A: HermTuple, X: HermTuple, v, T: np.ndarray) -> np.ndarray:
    """phi_v(T) = (v* (x) I) Phi(T) (v (x) I), a dim(T)-square matrix, for
    Hermitian T.  T may carry a leading stack axis; F then evaluates the
    whole stack through one F.at_points call."""
    F = as_nc_function(F)
    v = _unit_vector(v)
    T = np.asarray(T, dtype=complex)
    if T.ndim not in (2, 3) or T.shape[-1] != T.shape[-2]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    a_lift, x_lift = _tensor_lifts(A, X, T if T.ndim == 3 else T[None])
    W = np.kron(v.reshape(-1, 1), np.eye(T.shape[-1], dtype=complex))
    P = W.conj().T @ F.at_points(a_lift, x_lift) @ W
    return P if T.ndim == 3 else P[0]


@dataclass
class SliceCoefficients:
    coeffs: np.ndarray
    method: str  # "exact" or "dft"
    radius: Optional[float]
    residual: Optional[float]

    def __getitem__(self, i: int) -> complex:
        return complex(self.coeffs[i])


def extract_slice_coefficients(F, A: HermTuple, X: HermTuple, v,
                               degree_cap: int = 8,
                               radius: Optional[float] = None,
                               force_dft: bool = False) -> SliceCoefficients:
    """Coefficients c_0..c_degree_cap of phi(z) = v* F(A, zX) v.

    Exact route: c_i = v* F_i(A, X) v when F exposes homogeneous parts.
    DFT route: inverse Fourier transform of phi sampled at the
    (degree_cap+1)-th roots of unity scaled by radius, verified on a
    rotated node set; residual above EXTRACTION_RESIDUAL_TOL raises
    ExtractionError instead of returning unbacked digits.
    """
    F = as_nc_function(F)
    if degree_cap < 2:
        raise ValueError("degree_cap must be >= 2")
    v = _unit_vector(v)
    parts = None if force_dft else F.x_parts()
    if parts is not None:
        coeffs = np.zeros(degree_cap + 1, dtype=complex)
        for i in range(min(degree_cap, parts.order) + 1):
            Mi = eval_poly(parts[i], A, X)
            coeffs[i] = complex(v.conj() @ Mi @ v)
        return SliceCoefficients(coeffs=coeffs, method="exact", radius=None,
                                 residual=None)

    r = 0.5 if radius is None else float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    d = degree_cap
    nodes = r * np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    # a rotated node set checks the residual; it catches both roundoff
    # blowup and aliasing from terms beyond degree_cap
    check = r * np.exp(1j * np.pi * (2 * np.arange(d + 1) + 1) / (d + 1))
    # _phi_at normalizes the unit v again, as the per-node calls did:
    # dropping that pass moves the last digits of the coefficients
    phi = _phi_at(F, A, X, v, np.concatenate([nodes, check]))
    samples, actual = phi[:d + 1], phi[d + 1:]
    # c_i r^i = (1/n) sum_j phi_j e^{-2 pi i ij/n}; numpy's fft carries
    # the e^{-} kernel, so fft/n is the inverting transform here
    coeffs = np.fft.fft(samples) / (d + 1) / r ** np.arange(d + 1)
    powers = check[:, None] ** np.arange(d + 1)[None, :]
    predicted = powers @ coeffs
    residual = float(np.max(np.abs(predicted - actual)))
    if residual > EXTRACTION_RESIDUAL_TOL:
        raise ExtractionError(
            f"interpolation residual {residual:.3e} exceeds "
            f"{EXTRACTION_RESIDUAL_TOL}; raise degree_cap or shrink radius")
    return SliceCoefficients(coeffs=coeffs, method="dft", radius=r,
                             residual=residual)


def test_slice_convexity_transfer(F, A: HermTuple, X: HermTuple, v,
                                  delta: float = 0.2, t_size: int = 3,
                                  trials: int = 200, seed=0) -> Report:
    """Matrix convexity of T -> phi_v(T) on spectra in (1-delta, 1+delta).

    This is the transfer step: convexity of F near (A, 0) pushes down
    to the compressed one-variable slice on a matrix interval around
    the identity.
    """
    F = as_nc_function(F)
    v = _unit_vector(v)
    lo, hi = 1.0 - delta, 1.0 + delta

    def draw(rng, k):
        d = int(rng.integers(1, t_size + 1))
        T1 = draw_spectral(rng, d, lo, hi)
        T2 = draw_spectral(rng, d, lo, hi)
        t = 0.5 if k % 2 == 0 else float(rng.uniform(0.0, 1.0))
        return d, t, T1, T2

    def defects(samples):
        # the core hands over one size d of T at a time
        _, ts, T1s, T2s = zip(*samples)
        T1, T2 = (spectral_lift(np.array([lam for lam, _ in Ts]),
                                np.array([parts for _, parts in Ts]))
                  for Ts in (T1s, T2s))
        t = np.array(ts)[:, None, None]
        c = len(ts)
        P = slice_matrix(F, A, X, v,
                         np.concatenate([T1, T2, t * T1 + (1.0 - t) * T2]))
        return (t * P[:c] + (1.0 - t) * P[c:2 * c] - P[2 * c:],
                list(zip(T1, T2, ts)))

    def witness_of(data, eigs):
        T1, T2, t = data
        return {"T1": [[float(x.real) for x in row] for row in T1],
                "T2": [[float(x.real) for x in row] for row in T2],
                "t": t, "defect_eigs": [float(e) for e in eigs]}

    return _falsify((seed,), trials, draw, defects, witness_of,
                    "slice_convexity_transfer", group_by=lambda s: s[0])


@dataclass
class CertificationReport:
    verdict: str
    samples: int
    skipped: int
    max_high_order_coeff: float
    convexity: Report
    epsilon: float
    degree_cap: int
    coeff_tol: float
    witness: Optional[dict] = None

    @property
    def consistent(self) -> bool:
        return self.verdict == VERDICT_CONSISTENT

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "samples": int(self.samples),
            "skipped": int(self.skipped),
            "max_high_order_coeff": float(self.max_high_order_coeff),
            "convexity": self.convexity.to_json_dict(),
            "epsilon": float(self.epsilon),
            "degree_cap": int(self.degree_cap),
            "coeff_tol": float(self.coeff_tol),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def certify_degree_two(F, A: HermTuple, epsilon: float, samples: int = 50,
                       trials: int = 200, seed=0, degree_cap: int = 8,
                       multiplicities: Sequence[int] = (1, 2),
                       coeff_tol: float = COEFF_ZERO_TOL) -> CertificationReport:
    """Certify consistency with "matrix convex and entire implies
    x-degree <= 2" at a base point A.

    Stage 1 tests matrix convexity on the epsilon-ball over C_A levels;
    failure short-circuits to HYPOTHESIS_FAILS with the witness.  Stage
    2 extracts slice coefficients at sampled (alpha, X, v) with X in
    the epsilon/2-ball and flags any |c_i| > coeff_tol for i > 2.
    Extraction errors skip the sample and are counted, never silently
    absorbed into a verdict.
    """
    F = as_nc_function(F)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    convexity = test_convexity_at_CA(F, A, epsilon,
                                     multiplicities=multiplicities,
                                     trials=trials, seed=seed)
    if not convexity.passed:
        return CertificationReport(
            verdict=VERDICT_HYPOTHESIS_FAILS, samples=0, skipped=0,
            max_high_order_coeff=0.0, convexity=convexity, epsilon=epsilon,
            degree_cap=degree_cap, coeff_tol=coeff_tol,
            witness=convexity.witness)

    sig = F.signature
    extraction_radius = epsilon / 4.0
    max_high = 0.0
    skipped = 0
    offender = None
    for k in range(samples):
        rng = derived_rng(seed, 7919, k)
        m = int(multiplicities[k % len(multiplicities)])
        alpha = ca_element(A, m, "random", seed=rng)
        n = alpha.tuple.n
        X = sample_x_ball(sig, n, epsilon / 2.0, 1, rng)[0]
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        try:
            sc = extract_slice_coefficients(F, alpha.tuple, X, v,
                                            degree_cap=degree_cap,
                                            radius=extraction_radius)
        except (ExtractionError, DomainError):
            skipped += 1
            continue
        for i in range(3, degree_cap + 1):
            mag = abs(sc[i])
            if mag > max_high:
                max_high = mag
                if mag > coeff_tol:
                    offender = {
                        "sample": k,
                        "m": m,
                        "i": i,
                        "c_i": [float(sc[i].real), float(sc[i].imag)],
                        "X": tuple_to_json(X),
                        "v": [[float(c.real), float(c.imag)]
                              for c in np.asarray(v, dtype=complex)],
                        "alpha": {"kappa": A.n, "m": m},
                        "method": sc.method,
                    }
    if skipped == samples:
        raise ExtractionError(
            f"all {samples} extraction samples failed; the verdict would "
            "be vacuous -- shrink the radius or raise degree_cap")
    verdict = VERDICT_HIGHER_ORDER if offender is not None else VERDICT_CONSISTENT
    return CertificationReport(
        verdict=verdict, samples=samples, skipped=skipped,
        max_high_order_coeff=max_high, convexity=convexity, epsilon=epsilon,
        degree_cap=degree_cap, coeff_tol=coeff_tol, witness=offender)
