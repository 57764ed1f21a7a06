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
nodes and the rotated check nodes, go through one F.at_scales call.

Both routes work on a stack of samples (_extract);
extract_slice_coefficients is its one-sample call.  The certificate's
slice samples run on the sampling core of convexity.py, in its three
phases:

  draw    sample k takes, from its stream derived_rng(seed, 7919, k),
          one normal draw for the Ginibre block of its Haar unitary and
          its x-ball block, the ball radius, then one normal draw for
          its direction v; a chunk's streams are built together and
          equal those of derived_rng;
  stack   the samples of one multiplicity m are lifted to
          U*(I_m (x) A)U, sampled in the x-ball and extracted as one
          stack: one Horner plan run per homogeneous part on the exact
          route, one F.at_scales call on the DFT route; the stack then
          yields each sample's largest |c_i| above degree two and the
          first i that reaches it;
  replay  the samples are walked in order, one comparison each, for
          the largest coefficient above degree two, the skips and the
          witness.

A sample that the extractor refuses (ExtractionError, DomainError) is
skipped and counted; coefficients that are not finite are refused, so
a black box that returns NaN cannot pass.  When a stack raises, its
chunk runs again one sample at a time, so such an error from inside F
still skips only its own sample and any other error is raised at the
sample that causes it.  A black box F must therefore be pure under
certify too.

The slice-transfer tester runs on the same core and evaluates each
chunk's slice matrices through one F.at_points call per size of T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .convexity import (Report, _falsify, _one_point, _sampled,
                        test_convexity_at_CA)
from .errors import DomainError, ExtractionError
from .evaluate import as_nc_function, eval_poly
from .tolerances import COEFF_ZERO_TOL, EXTRACTION_RESIDUAL_TOL
from .tuples import (HermTuple, _letters, ca_lift, draw_spectral,
                     matrix_to_json, spectral_lift, stack_norms, x_ball_points)

VERDICT_CONSISTENT = "CONSISTENT_DEGREE_LE_2"
VERDICT_HYPOTHESIS_FAILS = "HYPOTHESIS_FAILS"
VERDICT_HIGHER_ORDER = "HIGHER_ORDER_PRESENT"


def _unit_vectors(vs) -> np.ndarray:
    """The direction vectors vs, each flattened and divided by its
    2-norm, as a (c, N) stack.  A row's norm is sqrt(re.re + im.im) from
    one (1, N) @ (N, 1) product per part, the dot products
    np.linalg.norm takes of one vector, so each row keeps the bits it
    gets alone."""
    V = np.array([np.asarray(v, dtype=complex).reshape(-1) for v in vs])
    re, im = V.real[:, None], V.imag[:, None]
    nv = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0]
    if not nv.all():
        raise ValueError("direction vector must be nonzero")
    return V / nv


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


def _compress(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v_j* M_j v_j for a (c, N) stack of vectors and a (c, ..., N, N)
    stack of matrices, from one product."""
    if M.shape[-1] != V.shape[1]:
        raise ValueError(f"direction vector has length {V.shape[1]}, "
                         f"evaluation is {M.shape[-2:]}")
    lead = (len(V),) + (1,) * (M.ndim - 3)
    return (V.conj().reshape(lead + (1, -1)) @ M
            @ V.reshape(lead + (-1, 1)))[..., 0, 0]


def _phi_at(F, A: np.ndarray, X: np.ndarray, V: np.ndarray, zs) -> tuple:
    """(phi, refused) for a stack of points A (c, g_a, n, n), X
    (c, g_x, n, n) and unit vectors V (c, n): phi[j] holds
    v_j* F(A_j, z X_j) v_j at every z in zs, from one F.at_scales call
    over the samples that pass the z-free checks, and refused[j] is the
    DomainError of a sample that fails one (its row of phi stays 0)."""
    zs = np.asarray(zs, dtype=complex)
    phi = np.zeros((len(V), len(zs)), dtype=complex)
    if np.any(zs.imag != 0.0) and not F.analytic_in_z:
        return phi, [DomainError(
            f"evaluator {F.name} is not declared analytic in z; "
            "complex slices are unavailable")] * len(V)
    reach = float(np.max(np.abs(zs))) * np.broadcast_to(
        stack_norms(_letters(X)), len(V))
    refused = [None if r < F.radius else DomainError(
        f"|z|*|X| = {r:.6g} is outside the radius {F.radius:.6g}")
        for r in reach]
    ok = reach < F.radius
    if ok.any():
        phi[ok] = _compress(V[ok], F.at_scales(A[ok], X[ok], zs))
    return phi, refused


def slice_scalar(F, A: HermTuple, X: HermTuple, v, z: complex) -> complex:
    """phi(z) = v* F(A, zX) v; v is normalized on ingest."""
    phi, refused = _phi_at(as_nc_function(F), _one_point(A), _one_point(X),
                           _unit_vectors([v]), [z])
    if refused[0] is not None:
        raise refused[0]
    return complex(phi[0, 0])


def slice_matrix(F, A: HermTuple, X: HermTuple, v, T: np.ndarray) -> np.ndarray:
    """phi_v(T) = (v* (x) I) Phi(T) (v (x) I), a dim(T)-square matrix, for
    Hermitian T.  T may carry a leading stack axis; F then evaluates the
    whole stack through one F.at_points call."""
    F = as_nc_function(F)
    v = _unit_vectors([v])[0]
    T = np.asarray(T, dtype=complex)
    if T.ndim not in (2, 3) or T.shape[-1] != T.shape[-2]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    a_lift, x_lift = _tensor_lifts(A, X, T if T.ndim == 3 else T[None])
    W = np.kron(v.reshape(-1, 1), np.eye(T.shape[-1], dtype=complex))
    P = W.conj().T @ F.at_points(a_lift, x_lift) @ W
    return P if T.ndim == 3 else P[0]


def _magnitudes(C: np.ndarray) -> np.ndarray:
    """|c| of each entry of a complex array with the bits abs(complex)
    gives it; np.abs rounds differently in the last bit."""
    return np.hypot(C.real, C.imag)


def _finite_rows(C: np.ndarray) -> list:
    """Per row of a coefficient stack, whether every |c_i| is finite (a
    magnitude past the float range counts as not finite)."""
    with np.errstate(over="ignore"):
        return np.isfinite(_magnitudes(C)).all(axis=-1).tolist()


_NOT_FINITE = "the slice coefficients are not finite"


@dataclass
class SliceCoefficients:
    coeffs: np.ndarray
    method: str  # "exact" or "dft"
    radius: Optional[float]
    residual: Optional[float]

    def __getitem__(self, i: int) -> complex:
        return complex(self.coeffs[i])


def _extract(F, A: np.ndarray, X: np.ndarray, vs, degree_cap: int,
             radius: Optional[float], force_dft: bool) -> list:
    """extract_slice_coefficients for a stack of c samples: A
    (c, g_a, n, n) and X (c, g_x, n, n) arrays and c direction vectors
    vs, each normalized on ingest.  Returns per sample its
    SliceCoefficients, or the ExtractionError or DomainError that
    refuses it, non-finite coefficients included; any other error
    raises for the whole stack."""
    if degree_cap < 2:
        raise ValueError("degree_cap must be >= 2")
    V = _unit_vectors(vs)
    d = degree_cap
    parts = None if force_dft else F.x_parts()
    if parts is not None:
        coeffs = np.zeros((len(V), d + 1), dtype=complex)
        a, x = _letters(A), _letters(X)
        for i in range(min(d, parts.order) + 1):
            # a- and x-letters share the stack axis: one plan run per part
            coeffs[:, i] = _compress(V, eval_poly(parts[i], a, x,
                                                  n=V.shape[1]))
        return [SliceCoefficients(coeffs=c, method="exact", radius=None,
                                  residual=None)
                if ok else ExtractionError(_NOT_FINITE)
                for c, ok in zip(coeffs, _finite_rows(coeffs))]

    r = 0.5 if radius is None else float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    nodes = r * np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    # a rotated node set checks the residual; it catches both roundoff
    # blowup and aliasing from terms beyond degree_cap
    check = r * np.exp(1j * np.pi * (2 * np.arange(d + 1) + 1) / (d + 1))
    # each unit v is normalized again, as the per-node calls did:
    # dropping that pass moves the last digits of the coefficients
    V = _unit_vectors(V)
    phi, refused = _phi_at(F, A, X, V, np.concatenate([nodes, check]))
    samples, actual = phi[:, :d + 1], phi[:, d + 1:]
    # c_i r^i = (1/n) sum_j phi_j e^{-2 pi i ij/n}; numpy's fft carries
    # the e^{-} kernel, so fft/n is the inverting transform here
    coeffs = np.fft.fft(samples) / (d + 1) / r ** np.arange(d + 1)
    powers = check[:, None] ** np.arange(d + 1)[None, :]
    # one matrix-vector product per sample, as one sample gets alone; a
    # (c, d+1) @ (d+1, d+1) product rounds differently
    predicted = (powers @ coeffs[..., None])[..., 0]
    residuals = np.max(np.abs(predicted - actual), axis=-1).tolist()
    out = []
    for err, c, ok, res in zip(refused, coeffs, _finite_rows(coeffs),
                               residuals):
        if err is None and not ok:
            err = ExtractionError(_NOT_FINITE)
        elif err is None and not res <= EXTRACTION_RESIDUAL_TOL:  # NaN too
            err = ExtractionError(
                f"interpolation residual {res:.3e} exceeds "
                f"{EXTRACTION_RESIDUAL_TOL}; raise degree_cap or shrink "
                "radius")
        out.append(err or SliceCoefficients(coeffs=c, method="dft",
                                            radius=r, residual=res))
    return out


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
    out = _extract(as_nc_function(F), _one_point(A), _one_point(X), [v],
                   degree_cap, radius, force_dft)[0]
    if isinstance(out, Exception):
        raise out
    return out


def test_slice_convexity_transfer(F, A: HermTuple, X: HermTuple, v,
                                  delta: float = 0.2, t_size: int = 3,
                                  trials: int = 200, seed=0) -> Report:
    """Matrix convexity of T -> phi_v(T) on spectra in (1-delta, 1+delta).

    This is the transfer step: convexity of F near (A, 0) pushes down
    to the compressed one-variable slice on a matrix interval around
    the identity.
    """
    F = as_nc_function(F)
    v = _unit_vectors([v])[0]
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

    return _falsify([((seed,), trials, draw)], defects, witness_of,
                    "slice_convexity_transfer", group_by=lambda s: s[0])


def _draw_slice_sample(rng, n: int, g: int, ball_radius: float) -> tuple:
    """(Haar block, (x-ball parts, radius), v) of one certify sample at
    size n: the numbers of ca_element's Ginibre block, of
    draw_x_ball(g, n, ball_radius, 1, rng) and of v's real and imaginary
    parts, in that order.  A generator's normals do not depend on how a
    run of them is split between calls, so one normal draw for the two
    blocks and one for v give the values and final state of the
    separate draws."""
    z = rng.standard_normal((1 + g) * 2 * n * n).reshape(1 + g, 2, n, n)
    radius = rng.uniform(0.0, ball_radius) if g else 0.0
    w = rng.standard_normal(2 * n)
    return z[0], (z[1:], radius), w[:n] + 1j * w[n:]


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
    Extraction errors, non-finite coefficients among them, skip the
    sample and are counted, never silently absorbed into a verdict; a
    run whose every sample is skipped raises ExtractionError.
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

    g = F.signature.g_x
    extraction_radius = epsilon / 4.0

    def draw(rng, k):
        m = int(multiplicities[k % len(multiplicities)])
        return (m, *_draw_slice_sample(rng, A.n * m, g, epsilon / 2.0))

    def stage(group):
        # the core hands over one multiplicity at a time
        ms, haars, balls, vs = zip(*group)
        alphas = ca_lift(A, ms[0], np.array(haars))
        X = x_ball_points(balls)
        try:
            out = _extract(F, alphas, X, vs, degree_cap, extraction_radius,
                           False)
        except (ExtractionError, DomainError) as exc:
            if len(group) > 1:
                raise
            out = [exc]
        kept = [j for j, sc in enumerate(out)
                if not isinstance(sc, Exception)]
        # per kept sample, the largest |c_i| over i = 3..degree_cap and
        # the first i that reaches it; column 2 holds a zero, so a
        # sample without such a coefficient reads (0.0, 2)
        mags = np.zeros((len(kept), degree_cap - 1))
        if kept:
            mags[:, 1:] = _magnitudes(np.array([out[j].coeffs[3:]
                                                for j in kept]))
        results = [None] * len(out)
        for j, top, i in zip(kept, mags.max(axis=1).tolist(),
                             (mags.argmax(axis=1) + 2).tolist()):
            results[j] = (top, i, (out[j], ms[j], X[j], vs[j]))
        return results

    max_high = 0.0
    skipped = 0
    offender = None
    for k, result in _sampled((seed, 7919), samples, draw, stage,
                              group_by=lambda s: s[0]):
        if result is None:
            skipped += 1
            continue
        # the rules of a walk over i: a strict > keeps the first i and
        # the first sample that reach the maximum
        top, i, data = result
        if top > max_high:
            max_high = top
            if top > coeff_tol:
                offender = (k, i, data)
    if skipped == samples:
        raise ExtractionError(
            f"all {samples} extraction samples failed; the verdict would "
            "be vacuous -- shrink the radius or raise degree_cap")
    witness = None
    if offender is not None:
        k, i, (sc, m, X, v) = offender
        witness = {
            "sample": k,
            "m": m,
            "i": i,
            "c_i": [float(sc[i].real), float(sc[i].imag)],
            "X": [matrix_to_json(x) for x in X],
            "v": [[float(c.real), float(c.imag)] for c in v],
            "alpha": {"kappa": A.n, "m": m},
            "method": sc.method,
        }
    verdict = (VERDICT_HIGHER_ORDER if witness is not None
               else VERDICT_CONSISTENT)
    return CertificationReport(
        verdict=verdict, samples=samples, skipped=skipped,
        max_high_order_coeff=max_high, convexity=convexity, epsilon=epsilon,
        degree_cap=degree_cap, coeff_tol=coeff_tol, witness=witness)
