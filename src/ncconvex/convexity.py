"""Matrix-convexity testing for nc functions in the x-variables, and
the sampling core that every tester in the package runs on.

Each tester is a sampling falsifier with a one-sided guarantee: a fail
is conclusive and ships a witness that re-verifies standalone, a pass
is evidence over the sampled ball, not a proof.  _sampled is the one
sampling loop of the package; the falsifiers reach it through _falsify
and the degree-two certificate of slices.py calls it directly.  It runs
the samples in chunks of CHUNK, in three phases:

  draw    each sample k takes its raw numbers from its own generator,
          in sample order.  A chunk's generators are built together by
          derived_rngs(key, ks), one vectorised seeding pass, and each
          equals derived_rng(*key, k) bit for bit;
  stack   the client's stage turns a chunk's raw numbers into results
          with stacked numpy calls, once per group of samples of one
          matrix size.  For the falsifiers that is sampling, evaluation
          through F.at_points and the defect matrices, and _falsify
          takes the Hermitian parts, refuses non-finite ones and runs
          one eigvalsh per stack;
  replay  the samples are walked in order; _falsify tracks the minimum
          and the worst trial and raises a trial's error where a
          trial-by-trial run would; after it, the witness is built once,
          from the worst trial.

Stacked numpy calls give every member the bits it gets alone, so the
outcome does not depend on CHUNK, and live memory is bounded by it (a
few MB, see CHUNK), not by the sample count.  A chunk whose stacked stage raises runs again one
sample at a time, up to CHUNK of them, each redrawn from a fresh
derived_rng(*key, k) and evaluated on a one-sample stack, so an error
names the sample that caused it.

Convexity witnesses are shrunk by halving the spread X - Y around the
fixed mixing point while the violation persists, on the worst trial's
own arrays, so reported counterexamples stay small.

test_convexity_at_CA runs the base-point test at the amplifications
U*(I_m (x) A)U with the SAME epsilon at every multiplicity; the
uniformity of epsilon across levels is the substance of the definition
being tested.  All levels run as one run, each level on its own stream:
one minimum over all of them, and one witness, from the worst trial
over all levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NcError
from .evaluate import as_nc_function, hermitian_deviation
from .tolerances import EVAL_HERMITIAN_TOL, PSD_TOL, WITNESS_TOL
from .tuples import (HermTuple, ca_element, derived_rng, derived_rngs,
                     draw_x_ball, hermitian_stack, stack_norms,
                     tuple_from_json, tuple_to_json, x_ball_points)

# trials per stacked chunk: large enough that per-call overhead is
# shared (a 200-sample certify runs one stack per multiplicity), small
# enough that a chunk stays a few MB.  The largest stacks are the
# (c, 18, n, n) node values of a Kraus DFT extraction: 200 certify
# samples over m = 1, 2, 3 (n up to 6) peak at about 4 MB under
# tracemalloc, 256 samples all at n = 6 at about 14 MB
CHUNK = 256
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


def _hermitian_eigs(D: np.ndarray) -> list:
    """Ascending eigenvalues of the Hermitian part of each defect in a
    (c, N, N) stack, from one eigvalsh; None where the part is not
    finite, since NaN compares false against every threshold and would
    otherwise pass."""
    H = (D + D.conj().swapaxes(-1, -2)) / 2
    finite = np.isfinite(H).all(axis=(-2, -1))
    out = [None] * len(H)
    if finite.any():
        eigs = np.linalg.eigvalsh(H if finite.all() else H[finite])
        for i, e in zip(np.flatnonzero(finite), eigs):
            out[i] = e
    return out


def _defect_eigs(D: np.ndarray, where: str) -> np.ndarray:
    """_hermitian_eigs of one defect matrix; a non-finite one raises."""
    eigs = _hermitian_eigs(D[None])[0]
    if eigs is None:
        raise NcError(f"{where}: the defect matrix is not finite")
    return eigs


def _evaluate(samples: list, stage, group_by) -> list:
    """stage's result for each sample.  stage runs once per group of
    samples that share group_by(sample) (all of them when group_by is
    None) and returns one result per sample of its group, in order."""
    groups: dict = {}
    for i, s in enumerate(samples):
        groups.setdefault(group_by and group_by(s), []).append(i)
    out = [None] * len(samples)
    for idx in groups.values():
        for i, r in zip(idx, stage([samples[i] for i in idx])):
            out[i] = r
    return out


def _run_chunk(key: tuple, ks: range, draw, stage, group_by):
    """Yield (k, result) for the samples ks in order, and raise a
    sample's error in its place.

    Any exception a sample raises is held and raised again after the
    samples before it are yielded, as a sample-by-sample loop would
    order it; a black box may raise anything, so none is told apart
    here.
    """
    samples, error = [], None
    try:
        for k, rng in zip(ks, derived_rngs(key, ks)):
            samples.append(draw(rng, k))
    except Exception as exc:            # later samples are never reached
        error = exc
    results = []
    if samples:
        try:
            results = _evaluate(samples, stage, group_by)
        except Exception:
            # one sample at a time, each redrawn from its own generator,
            # until the first sample that fails alone
            for k in ks[:len(samples)]:
                try:
                    results += _evaluate([draw(derived_rng(*key, k), k)],
                                         stage, None)
                except Exception as exc:
                    error = exc
                    break
    yield from zip(ks, results)
    if error is not None:
        raise error


def _sampled(key: tuple, count: int, draw, stage, group_by=None):
    """The package's sampling loop: (k, result) for k = 0 .. count-1 in
    order, run in chunks of CHUNK.

    draw(rng, k) takes sample k's raw numbers from rng =
    derived_rng(*key, k) and returns them as the sample.  stage(samples)
    turns a list of samples into one result per sample with stacked
    calls; when the work differs between samples (a matrix size),
    group_by(sample) names it and stage sees one group at a time.  When
    stage raises on a chunk, the chunk runs again one sample at a time,
    so on a one-sample list its error should name that sample.
    """
    for start in range(0, count, CHUNK):
        yield from _run_chunk(key, range(start, min(start + CHUNK, count)),
                              draw, stage, group_by)


def _falsify(runs: list, defects, witness_of, test: str,
             group_by=None) -> Report:
    """The falsifiers' client of _sampled.

    runs lists (key, trials, draw): each is one _sampled stream, and
    they are replayed in order as one run, with one minimum and one
    worst trial; a trial's error names its k within its own run.
    defects(samples) evaluates a list of trials with stacked calls and
    returns (D, data): D the (c, N, N) stack of defect matrices and
    data[i] what witness_of needs of trial i; the core adds one
    eigvalsh per stack.  draw and group_by are _sampled's.

    The run passes when the smallest defect eigenvalue is >= -PSD_TOL.
    The replay keeps the worst trial's (data, eigs); after it,
    witness_of runs once on them if the minimum is below -WITNESS_TOL,
    so a minimum between the two bands fails without a witness.
    """
    for _, trials, _ in runs:
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")

    def stage(samples):
        D, data = defects(samples)
        return zip(_hermitian_eigs(D), data)

    min_eig = math.inf
    trial_eigs = []
    for key, trials, draw in runs:
        for k, (eigs, data) in _sampled(key, trials, draw, stage, group_by):
            if eigs is None:
                raise NcError(f"trial {k}: the defect matrix is not finite")
            eig = float(eigs[0])
            trial_eigs.append(eig)
            if eig < min_eig:
                min_eig, worst = eig, (data, eigs)
    witness = witness_of(*worst) if min_eig < -WITNESS_TOL else None
    return Report(test=test, passed=min_eig >= -PSD_TOL, min_eig=min_eig,
                  trials=len(trial_eigs), witness=witness,
                  trial_min_eigs=trial_eigs)


def _mix(X: np.ndarray, Y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """X.scale(t) + Y.scale(1 - t) on (c, g, n, n) stacks, with the
    ingest HermTuple runs after each scale and after the sum."""
    t = t[:, None, None, None]
    return hermitian_stack(hermitian_stack(t * X)
                           + hermitian_stack((1.0 - t) * Y))


def _defects(F, A, X: np.ndarray, Y: np.ndarray, t: np.ndarray) -> tuple:
    """(t F(A,X) + (1-t) F(A,Y) - F(A, tX+(1-t)Y), the larger Hermitian
    deviation of F(A,X) and F(A,Y)) for stacks of points, from one
    F.at_points call over the X, Y and mixed points."""
    c = len(t)
    vals = F.at_points(A, np.concatenate([X, Y, _mix(X, Y, t)]))
    FX, FY, FM = vals[:c], vals[c:2 * c], vals[2 * c:]
    dev = np.maximum(hermitian_deviation(FX), hermitian_deviation(FY))
    t = t[:, None, None]
    return t * FX + (1.0 - t) * FY - FM, dev


def _one_point(T: HermTuple) -> np.ndarray:
    return np.asarray(T.entries, dtype=complex).reshape(1, T.arity, T.n, T.n)


def _defect_min_eig(F, A, X: np.ndarray, Y: np.ndarray, t: float) -> float:
    """The smallest defect eigenvalue at one-point (1, g, n, n) stacks."""
    D, _ = _defects(F, A, X, Y, np.array([t]))
    return float(_defect_eigs(D[0], "witness")[0])


def _shrink_witness(F, A, X, Y, t, start_eig):
    """Halve the spread around the mixing point while the defect still
    violates -WITNESS_TOL.  X and Y are one-point stacks; every scale
    and sum is followed by the ingest HermTuple arithmetic runs."""
    P = _mix(X, Y, np.array([t]))
    D = hermitian_stack(X - Y)
    s = 1.0
    best = (X, Y, start_eig)
    for _ in range(40):
        s_next = s / 2.0
        Xs = hermitian_stack(P + hermitian_stack(s_next * (1.0 - t) * D))
        Ys = hermitian_stack(P - hermitian_stack(s_next * t * D))
        eig = _defect_min_eig(F, A, Xs, Ys, t)
        if eig < -WITNESS_TOL:
            best = (Xs, Ys, eig)
            s = s_next
        else:
            break
    return best


def _convexity(F, A: HermTuple, epsilon: float, trials: int, seed,
               multiplicities: Optional[Sequence[int]]) -> Report:
    """Both testers as one run over levels: A itself on the stream
    (seed,) when multiplicities is None, else U*(I_m (x) A)U on the
    stream (seed, li) for each m.  Samples carry their level index, so a
    stack holds one level; extra["alpha"] names the worst trial's."""
    F = as_nc_function(F)
    if A.n < 1:
        raise ValueError(f"the A-tuple size must be at least 1, got {A.n}")
    # levels: (stream key, alpha, realized tuple)
    if multiplicities is None:
        levels = [((seed,) if isinstance(seed, int) else tuple(seed),
                   {"kappa": A.n, "m": 1}, A)]
    elif not len(multiplicities):
        raise ValueError("multiplicities must name at least one level")
    else:
        levels = [((seed, li), {"kappa": A.n, "m": int(m)},
                   ca_element(A, int(m), "random",
                              seed=derived_rng(seed, li, _LEVEL_SALT)).tuple)
                  for li, m in enumerate(multiplicities)]
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    sig = F.signature
    if A.arity != sig.g_a:
        raise ValueError(
            f"A-tuple arity {A.arity} does not match signature g_a={sig.g_a}")
    hermitian = []                      # per chunk: F Hermitian throughout

    def draw(li, rng, k):
        t = 0.5 if k % 2 == 0 else float(rng.uniform(0.0, 1.0))
        return li, k, t, draw_x_ball(sig.g_x, levels[li][2].n, epsilon, 2,
                                     rng)

    def defects(samples):
        lis, ks, ts, balls = zip(*samples)
        T = levels[lis[0]][2]
        P = x_ball_points([xy for ball in balls for xy in ball])
        X, Y = P[0::2], P[1::2]
        try:
            D, dev = _defects(F, T, X, Y, np.array(ts))
        except NcError as exc:
            if len(samples) > 1:
                raise
            raise DomainError(
                f"evaluation failed on trial {ks[0]} (t={ts[0]:.4f}, size "
                f"{T.n}, |X|={stack_norms(X[0]):.4f}, "
                f"|Y|={stack_norms(Y[0]):.4f}): {exc}") from exc
        hermitian.append(not (dev > EVAL_HERMITIAN_TOL).any())
        return D, list(zip(lis, X, Y, ts))

    def witness_of(data, eigs):
        li, X, Y, t = data
        T = levels[li][2]
        Xs, Ys, eig = _shrink_witness(F, T, X[None], Y[None], t,
                                      float(eigs[0]))
        return {"alpha": levels[li][1], "A": tuple_to_json(T),
                "X": tuple_to_json(Xs[0]), "Y": tuple_to_json(Ys[0]),
                "t": float(t), "defect_min_eig": float(eig), "n": int(T.n)}

    report = _falsify(
        [(key, trials, partial(draw, li)) for li, (key, _, _) in
         enumerate(levels)], defects, witness_of,
        "convexity_at_A" if multiplicities is None else "convexity_at_CA",
        group_by=lambda s: s[0])
    hermitian_ok = all(hermitian)
    report.passed = report.passed and hermitian_ok
    worst = report.trial_min_eigs.index(report.min_eig) // trials
    report.extra = {"hermitian_ok": hermitian_ok, "epsilon": float(epsilon),
                    "alpha": levels[worst][1]}
    return report


def test_convexity_at_A(F, A: HermTuple, epsilon: float, trials: int = 200,
                        seed=0) -> Report:
    """Sample X, Y in the epsilon-ball at the size of A and check the
    defect t F(A,X) + (1-t) F(A,Y) - F(A, tX+(1-t)Y) >= 0; also checks
    that F evaluates Hermitian on every sample."""
    return _convexity(F, A, epsilon, trials, seed, None)


def test_convexity_at_CA(F, A: HermTuple, epsilon: float,
                         multiplicities: Sequence[int] = (1, 2),
                         trials: int = 200, seed=0) -> Report:
    """The base-point test at U*(I_m (x) A)U for each multiplicity, with
    a fresh Haar-like U and the same epsilon throughout, as one run."""
    return _convexity(F, A, epsilon, trials, seed, multiplicities)


def verify_convexity_witness(F, witness: dict) -> float:
    """Recompute the defect min eigenvalue of a stored witness; the
    witness is self-contained (realized A-tuple included)."""
    F = as_nc_function(F)
    n = int(witness["n"])
    A = tuple_from_json(witness["A"], kind="a", n=n)
    X, Y = (_one_point(tuple_from_json(witness[k], "x", n)) for k in "XY")
    return _defect_min_eig(F, A, X, Y, float(witness["t"]))
