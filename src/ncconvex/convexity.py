"""Matrix-convexity testing for nc functions in the x-variables, and
the sampling core that every tester in the package runs on.

Each tester is a sampling falsifier with a one-sided guarantee: a fail
is conclusive and ships a witness that re-verifies standalone, a pass
is evidence over the sampled ball, not a proof.  _sampled is the one
sampling loop of the package; the falsifiers reach it through _falsify,
and the degree-two certificate (slices.py), the nc-function axioms
check (evaluate.py), the kraus command's resolvent/spectral cross-check
(cli.py) and the witness shrink below call it directly.  It runs the
samples in chunks of CHUNK, in three phases:

  draw    the client's draws(ks) yields a chunk's samples in order.
          Through _streams (certify: _slice_draws) each sample k takes
          its raw numbers from its own generator, built for the chunk by
          derived_rngs(key, ks) in one vectorised seeding pass and equal
          to derived_rng(*key, k) bit for bit; the axioms check and the
          kraus cross-check take all of them from one stream, and the
          shrink draws nothing;
  stack   the client's stage turns a chunk's samples into results with
          stacked numpy calls, once per group of samples of one matrix
          size.  For the falsifiers that is sampling, evaluation through
          F.at_points and the defect matrices, and _falsify takes the
          Hermitian parts, refuses non-finite ones and runs one
          eigvalsh per stack;
  replay  the samples are walked in order; _falsify tracks the minimum
          and the worst trial and raises a trial's error where a
          trial-by-trial run would; after it, the witness is built once,
          from the worst trial.

Stacked numpy calls give every member the bits it gets alone, so the
outcome does not depend on CHUNK, and live memory is bounded by it (a
few MB, see CHUNK), not by the sample count.  A chunk whose stacked
stage raises runs again one sample at a time, up to CHUNK of them, on
the samples it stored, each on a one-sample stack, so an error names
the sample that caused it.  No stage writes into a sample, so the
replay sees the bits the stacked attempt saw.

Convexity witnesses are shrunk by halving the spread X - Y around the
fixed mixing point while the violation persists, on the worst trial's
own arrays, so reported counterexamples stay small.  The halvings run
on _sampled in stacks of _SHRINK_STEP, and the replay stops at the first
one that no longer violates; F may run a few halvings past that point,
and an error there is never raised.

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
from .evaluate import _per_group, as_nc_function, hermitian_deviation
from .tolerances import EVAL_HERMITIAN_TOL, PSD_TOL, WITNESS_TOL
from .tuples import (HermTuple, _hermitian_from, ca_element, derived_rng,
                     derived_rngs, draw_x_ball, stack_norms, tuple_from_json,
                     tuple_to_json, x_ball_points)

# trials per stacked chunk: large enough that per-call overhead is
# shared (a 200-sample certify runs one stack per multiplicity), small
# enough that a chunk stays a few MB.  The largest stacks are the
# (c, 9, n, n) node values of one node set of a Kraus DFT extraction:
# of 200 certify samples over m = 1, 2, 3 the m = 3 stack (n = 6)
# peaks at about 1.8 MB under tracemalloc, 256 samples all at n = 6 at
# about 7 MB
CHUNK = 256
_LEVEL_SALT = 999983
# halving steps per stack of the witness shrink; on the presets' failing
# runs it evaluates six to nine
_SHRINK_STEP = 8


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
    H = _hermitian_from(D)
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


def _violates(eig: float) -> bool:
    """Whether a defect eigenvalue is a counterexample: the one witness
    cut, for the testers, the shrink and the verifiers."""
    return eig < -WITNESS_TOL


def _streams(key: tuple, draw):
    """_sampled's draws when sample k is draw(derived_rng(*key, k), k),
    a chunk's generators built by one derived_rngs pass."""
    def draws(ks):
        for k, rng in zip(ks, derived_rngs(key, ks)):
            yield draw(rng, k)
    return draws


def _sampled(count: int, draws, stage, group_by=None, step=None):
    """The package's sampling loop: (k, result) for k = 0 .. count-1 in
    order, run in chunks of step samples (CHUNK when None).  Its clients
    are _falsify, certify's slice samples, the axioms check, the kraus
    cross-check and the witness shrink.

    draws(ks) yields the samples ks in order.  stage(samples) turns a
    list of samples into one result per sample with stacked calls; when
    the work differs between samples (a matrix size), group_by(sample)
    names it and stage sees one group at a time.  When stage raises on a
    chunk, the chunk's stored samples run again one at a time, so on a
    one-sample list its error should name that sample.  Any exception
    is held and raised after the samples before it are yielded, as a
    sample-by-sample loop would order it; a black box may raise
    anything, so none is told apart here.
    """
    step = step or CHUNK
    for start in range(0, count, step):
        ks = range(start, min(start + step, count))
        samples, error = [], None
        try:
            for sample in draws(ks):
                samples.append(sample)
        except Exception as exc:        # later samples are never reached
            error = exc
        results = []
        if samples:
            try:
                results = _per_group(samples, stage, group_by)
            except Exception:
                # until the first sample that fails alone
                for sample in samples:
                    try:
                        results += stage([sample])
                    except Exception as exc:
                        error = exc
                        break
        yield from zip(ks, results)
        if error is not None:
            raise error


def _falsify(runs: list, defects, witness_of, test: str,
             group_by=None) -> Report:
    """The falsifiers' client of _sampled.

    runs lists (key, trials, draw): each is one _sampled run on the
    streams _streams(key, draw), and they are replayed in order as one
    run, with one minimum and one worst trial; a trial's error names its
    k within its own run.
    defects(samples) evaluates a list of trials with stacked calls and
    returns (D, data): D the (c, N, N) stack of defect matrices and
    data[i] what witness_of needs of trial i; the core adds one
    eigvalsh per stack.  group_by is _sampled's.

    The run passes when the smallest defect eigenvalue is >= -PSD_TOL.
    The replay keeps the worst trial's (data, eigs); after it,
    witness_of runs once on them if the minimum _violates, so a run
    with a witness never passes and a minimum between the two bands
    fails without one.
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
        for k, (eigs, data) in _sampled(trials, _streams(key, draw),
                                        stage, group_by):
            if eigs is None:
                raise NcError(f"trial {k}: the defect matrix is not finite")
            eig = float(eigs[0])
            trial_eigs.append(eig)
            if eig < min_eig:
                min_eig, worst = eig, (data, eigs)
    witness = witness_of(*worst) if _violates(min_eig) else None
    return Report(test=test, passed=min_eig >= -PSD_TOL, min_eig=min_eig,
                  trials=len(trial_eigs), witness=witness,
                  trial_min_eigs=trial_eigs)


def _midpoints(X: np.ndarray, Y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The points [X; Y; tX + (1-t)Y] of c midpoint trials as one (3c, ...)
    stack, for (c, ...) stacks X and Y and their (c,) mixing parameters."""
    t = t.reshape((-1,) + (1,) * (X.ndim - 1))
    return np.concatenate([X, Y, t * X + (1.0 - t) * Y])


def _midpoint_defects(V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The c midpoint defects t V_X + (1-t) V_Y - V_M from the (3c, N, N)
    values V at a _midpoints stack."""
    c = len(t)
    t = t[:, None, None]
    return t * V[:c] + (1.0 - t) * V[c:2 * c] - V[2 * c:]


def _defects(F, A, X: np.ndarray, Y: np.ndarray, t: np.ndarray) -> tuple:
    """(t F(A,X) + (1-t) F(A,Y) - F(A, tX+(1-t)Y), the larger Hermitian
    deviation of F(A,X) and F(A,Y)) for stacks of points, from one
    F.at_points call over the X, Y and mixed points."""
    c = len(t)
    vals = F.at_points(A, _midpoints(X, Y, t))
    dev = hermitian_deviation(vals[:2 * c]).reshape(2, c).max(axis=0)
    return _midpoint_defects(vals, t), dev


def _one_point(T: HermTuple) -> np.ndarray:
    return np.asarray(T.entries, dtype=complex).reshape(1, T.arity, T.n, T.n)


def _defect_min_eig(F, A, X: np.ndarray, Y: np.ndarray, t: float) -> float:
    """The smallest defect eigenvalue at one-point (1, g, n, n) stacks."""
    D, _ = _defects(F, A, X, Y, np.array([t]))
    return float(_defect_eigs(D[0], "witness")[0])


def _shrink_witness(F, A, X, Y, t, start_eig):
    """(X', Y', eig) with the spread around the mixing point halved for
    as long as the defect still _violates, for the points X and Y of
    shape (g, n, n).  Step j spreads s = 2^-(j+1); a chunk of
    _SHRINK_STEP steps runs as one stack on _sampled and the replay stops
    at the first step that no longer violates, so F runs at most
    _SHRINK_STEP - 1 steps past it."""
    P = _midpoints(X[None], Y[None], np.array([t]))[2:]
    D = X - Y

    def stage(js):
        s = np.ldexp(1.0, -1 - np.array(js))[:, None, None, None]
        Xs = P + s * (1.0 - t) * D
        Ys = P - s * t * D
        defect, _ = _defects(F, A, Xs, Ys, np.full(len(js), t))
        return zip(Xs, Ys, _hermitian_eigs(defect))

    best = (X, Y, start_eig)
    # the samples are the step numbers themselves
    for _, (Xs, Ys, eigs) in _sampled(40, iter, stage, step=_SHRINK_STEP):
        if eigs is None:
            raise NcError("witness: the defect matrix is not finite")
        if not _violates(eigs[0]):
            break
        best = (Xs, Ys, float(eigs[0]))
    return best


def _ca_level(A: HermTuple, m: int, seed, li: int) -> HermTuple:
    """ca_element of level li's own stream (seed, li, _LEVEL_SALT).  Every
    level of an empty A-tuple is the empty tuple, so an A-free level
    builds no generator and draws nothing; the stream is the level's
    alone, so no other draw moves."""
    if A.arity or m < 1:
        return ca_element(A, m, derived_rng(seed, li, _LEVEL_SALT))
    return HermTuple([], kind=A.kind, n=A.n * m)


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
                   _ca_level(A, int(m), seed, li))
                  for li, m in enumerate(multiplicities)]
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if epsilon > F.radius:
        # a witness out there lies where F is not defined
        raise ValueError(f"epsilon {epsilon:g} is above the function's "
                         f"radius {F.radius:g}")
    sig = F.signature
    if A.arity != sig.g_a:
        raise ValueError(
            f"A-tuple arity {A.arity} does not match signature g_a={sig.g_a}")
    hermitian = []                      # per chunk: F Hermitian throughout

    def draw(li, rng, k):
        t = 0.5 if k % 2 == 0 else rng.random()
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
        Xs, Ys, eig = _shrink_witness(F, T, X, Y, t, float(eigs[0]))
        return {"alpha": levels[li][1], "A": tuple_to_json(T),
                "X": tuple_to_json(Xs), "Y": tuple_to_json(Ys),
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
    return _defect_min_eig(F, A, X, Y, _witness_t(witness))


def _witness_t(witness: dict) -> float:
    """A stored witness's mixing parameter, which must lie in [0, 1]."""
    t = float(witness["t"])
    if not 0.0 <= t <= 1.0:                         # NaN too
        raise DomainError(f"witness: t = {t} lies outside [0, 1]")
    return t
