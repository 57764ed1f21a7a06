"""Matrix-convexity testing for nc functions in the x-variables, and
the sampling core that every tester in the package runs on.

Each tester is a sampling falsifier with a one-sided guarantee: a fail
is conclusive and ships a witness that re-verifies standalone, a pass
is evidence over the sampled ball, not a proof.  _falsify owns what
they share: the per-trial generator, the defect eigensolve, the
refusal of non-finite defects, and the PSD_TOL / WITNESS_TOL
hysteresis.  Convexity witnesses are shrunk by halving the spread
X - Y around the fixed mixing point while the violation persists, so
reported counterexamples stay small.

test_convexity_at_CA repeats the base-point test at amplifications
U*(I_m (x) A)U with the SAME epsilon at every multiplicity; the
uniformity of epsilon across levels is the substance of the definition
being tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NcError
from .evaluate import as_nc_function, hermitian_deviation
from .tolerances import EVAL_HERMITIAN_TOL, PSD_TOL, WITNESS_TOL
from .tuples import (HermTuple, ca_element, derived_rng, sample_x_ball,
                     tuple_from_json, tuple_to_json)

_LEVEL_SALT = 999983


@dataclass
class Report:
    """Verdict of a sampling falsifier; extra holds the tester's own
    JSON fields (convexity: hermitian_ok, epsilon, alpha)."""

    test: str
    passed: bool
    min_eig: float
    trials: int
    witness: Optional[dict] = None
    extra: dict = field(default_factory=dict)
    trial_min_eigs: list = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        out = {
            "test": self.test,
            "pass": bool(self.passed),
            "min_eig": float(self.min_eig),
            "trials": int(self.trials),
            **self.extra,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _defect_eigs(D: np.ndarray, where: str) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a defect matrix.
    A non-finite defect raises: NaN compares false against every
    threshold, so it would otherwise pass."""
    H = (D + D.conj().T) / 2
    if not np.isfinite(H).all():
        raise NcError(f"{where}: the defect matrix is not finite")
    return np.linalg.eigvalsh(H)


def _falsify(key: tuple, trials: int, trial, witness_of, test: str) -> Report:
    """The sampling loop shared by every tester.

    trial(rng, k) draws sample k from rng = derived_rng(*key, k) and
    returns (defect matrix, sample).  The run passes when the smallest
    defect eigenvalue is >= -PSD_TOL.  witness_of(sample, eigs) runs
    only when a trial sets a new minimum below -WITNESS_TOL, so the
    witness comes from the worst trial and a minimum between the two
    bands fails without one.
    """
    min_eig = math.inf
    witness = None
    trial_eigs = []
    for k in range(trials):
        D, sample = trial(derived_rng(*key, k), k)
        eigs = _defect_eigs(D, f"trial {k}")
        eig = float(eigs[0])
        trial_eigs.append(eig)
        if eig < min_eig:
            min_eig = eig
            if eig < -WITNESS_TOL:
                witness = witness_of(sample, eigs)
    return Report(test=test, passed=min_eig >= -PSD_TOL, min_eig=min_eig,
                  trials=trials, witness=witness, trial_min_eigs=trial_eigs)


def _defect(F, A: HermTuple, X: HermTuple, Y: HermTuple, t: float) -> tuple:
    """(t F(A,X) + (1-t) F(A,Y) - F(A, tX+(1-t)Y), the Hermitian
    deviation of F(A,X) and F(A,Y))."""
    FX = F(A, X)
    FY = F(A, Y)
    FM = F(A, X.scale(t) + Y.scale(1.0 - t))
    herm_dev = max(hermitian_deviation(FX), hermitian_deviation(FY))
    return t * FX + (1.0 - t) * FY - FM, herm_dev


def _defect_min_eig(F, A, X, Y, t) -> float:
    return float(_defect_eigs(_defect(F, A, X, Y, t)[0], "witness")[0])


def _shrink_witness(F, A, X, Y, t, start_eig):
    """Halve the spread around the mixing point while the defect still
    violates -WITNESS_TOL."""
    P = X.scale(t) + Y.scale(1.0 - t)
    D = X - Y
    s = 1.0
    best = (X, Y, start_eig)
    for _ in range(40):
        s_next = s / 2.0
        Xs = P + D.scale(s_next * (1.0 - t))
        Ys = P - D.scale(s_next * t)
        eig = _defect_min_eig(F, A, Xs, Ys, t)
        if eig < -WITNESS_TOL:
            best = (Xs, Ys, eig)
            s = s_next
        else:
            break
    return best


def test_convexity_at_A(F, A: HermTuple, epsilon: float, trials: int = 200,
                        seed=0, _alpha_desc: Optional[dict] = None,
                        _test_name: str = "convexity_at_A") -> Report:
    """Sample X, Y in the epsilon-ball at the size of A and check the
    defect t F(A,X) + (1-t) F(A,Y) - F(A, tX+(1-t)Y) >= 0; also checks
    that F evaluates Hermitian on every sample."""
    F = as_nc_function(F)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sig = F.signature
    if A.arity != sig.g_a:
        raise ValueError(
            f"A-tuple arity {A.arity} does not match signature g_a={sig.g_a}")
    n = A.n
    alpha_desc = _alpha_desc or {"kappa": n, "m": 1}
    herm_devs = []

    def trial(rng, k):
        t = 0.5 if k % 2 == 0 else float(rng.uniform(0.0, 1.0))
        X, Y = sample_x_ball(sig, n, epsilon, 2, rng)
        try:
            D, herm_dev = _defect(F, A, X, Y, t)
        except NcError as exc:
            raise DomainError(
                f"evaluation failed on trial {k} (t={t:.4f}, size {n}, "
                f"|X|={X.norm():.4f}, |Y|={Y.norm():.4f}): {exc}") from exc
        herm_devs.append(herm_dev)
        return D, (X, Y, t)

    def witness_of(sample, eigs):
        X, Y, t = sample
        Xs, Ys, eig = _shrink_witness(F, A, X, Y, t, float(eigs[0]))
        return {"alpha": alpha_desc, "A": tuple_to_json(A),
                "X": tuple_to_json(Xs), "Y": tuple_to_json(Ys),
                "t": float(t), "defect_min_eig": float(eig), "n": int(n)}

    key = (seed,) if isinstance(seed, int) else tuple(seed)
    report = _falsify(key, trials, trial, witness_of, _test_name)
    hermitian_ok = not any(d > EVAL_HERMITIAN_TOL for d in herm_devs)
    report.passed = report.passed and hermitian_ok
    report.extra = {"hermitian_ok": hermitian_ok, "epsilon": float(epsilon),
                    "alpha": alpha_desc}
    return report


def test_convexity_at_CA(F, A: HermTuple, epsilon: float,
                         multiplicities: Sequence[int] = (1, 2),
                         trials: int = 200, seed=0) -> Report:
    """Run the base-point test at U*(I_m (x) A)U for each multiplicity
    with a fresh Haar-like U, same epsilon throughout; merge by min."""
    F = as_nc_function(F)
    reports = []
    for li, m in enumerate(multiplicities):
        alpha = ca_element(A, int(m), "random",
                           seed=derived_rng(seed, li, _LEVEL_SALT))
        rep = test_convexity_at_A(
            F, alpha.tuple, epsilon, trials=trials, seed=(seed, li),
            _alpha_desc={"kappa": A.n, "m": int(m)},
            _test_name="convexity_at_CA")
        reports.append(rep)
    worst = min(reports, key=lambda r: r.min_eig)
    hermitian_ok = all(r.extra["hermitian_ok"] for r in reports)
    return replace(worst, passed=all(r.passed for r in reports),
                   trials=sum(r.trials for r in reports),
                   extra=dict(worst.extra, hermitian_ok=hermitian_ok),
                   trial_min_eigs=[e for r in reports
                                   for e in r.trial_min_eigs])


def verify_convexity_witness(F, witness: dict) -> float:
    """Recompute the defect min eigenvalue of a stored witness; the
    witness is self-contained (realized A-tuple included)."""
    F = as_nc_function(F)
    n = int(witness["n"])
    A = tuple_from_json(witness["A"], kind="a", n=n)
    X = tuple_from_json(witness["X"], kind="x", n=n)
    Y = tuple_from_json(witness["Y"], kind="x", n=n)
    return _defect_min_eig(F, A, X, Y, float(witness["t"]))
