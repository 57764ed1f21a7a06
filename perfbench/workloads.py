"""Job lists of the three workloads and the checks on each job's output.

A job is one `ncconvex` command line plus a check of its exit code and
stdout.  `build_pass(workload, seed, index, tmp)` makes the job list of
one pass: the structure is fixed per workload, the `--seed` of every job
and the matrices of every tuple file are drawn from (seed, index), so
the same seed always gives the same jobs and a long run covers many
seeds.  Expected verdicts hold for every seed: each falsified preset
fails by a wide margin at the trial counts below.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("falsify", "certify", "poly-eval")

# pass thresholds of the package, restated so the checks stay independent
PSD_TOL = 1e-8
WITNESS_TOL = 1e-6
ORACLE_TOL = 1e-9

CONV_TRIALS = 40          # per C_A level, three levels
CONV1_TRIALS = 200
MONO_TRIALS = 60
KRAUS_TRIALS = 100
CERT_TRIALS = 20
CERT_SAMPLES = 200
AXIOM_SAMPLES = 20

Check = Callable[[int, str], Optional[str]]


@dataclass
class Job:
    kind: str        # latency bucket: the subcommand, or "verify"
    argv: list
    check: Check     # (exit code, stdout) -> failure message or None


def _expect(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, want {want}"


def _check_pass(trials: int, nested: Optional[str] = None) -> Check:
    """Exit 0, "pass": true, the requested trial count, no violation."""
    def check(code, out):
        bad = _expect(code, 0)
        if bad:
            return bad
        d = json.loads(out)
        rep = d[nested] if nested else d
        if d.get("pass") is not True or rep.get("pass") is not True:
            return "verdict is not pass"
        if rep["trials"] != trials:
            return f"ran {rep['trials']} trials, want {trials}"
        if not rep["min_eig"] >= -PSD_TOL:
            return f"pass with min_eig {rep['min_eig']}"
        return None
    return check


def _check_falsified(witness: str) -> Check:
    """Exit 1, "pass": false, and the witness file written."""
    def check(code, out):
        bad = _expect(code, 1)
        if bad:
            return bad
        d = json.loads(out)
        if d.get("pass") is not False:
            return "verdict is not fail"
        if not d["min_eig"] < -WITNESS_TOL:
            return f"fail with min_eig {d['min_eig']}"
        if d.get("witness_file") != witness or not os.path.isfile(witness):
            return "witness file missing"
        return None
    return check


def _check_violates(code, out):
    """A re-checked witness must still violate: exit 0, violates true."""
    bad = _expect(code, 0)
    if bad:
        return bad
    d = json.loads(out)
    if d.get("violates") is not True or not d["min_eig"] < -WITNESS_TOL:
        return f"witness no longer violates (min_eig {d.get('min_eig')})"
    return None


def _check_kraus(code, out):
    bad = _check_pass(KRAUS_TRIALS, nested="convexity")(code, out)
    if bad:
        return bad
    d = json.loads(out)
    if not d["cross_check_max_dev"] < 1e-9:
        return f"resolvent vs spectral deviation {d['cross_check_max_dev']}"
    if len(d["sweep"]["values"]) != 100:
        return "sweep has the wrong length"
    return None


def _check_certify(consistent: bool, witness: str) -> Check:
    def check(code, out):
        bad = _expect(code, 0 if consistent else 1)
        if bad:
            return bad
        d = json.loads(out)
        want = "CONSISTENT_DEGREE_LE_2" if consistent else "HIGHER_ORDER_PRESENT"
        if d["verdict"] != want:
            return f"verdict {d['verdict']}, want {want}"
        if d["convexity"]["pass"] is not True:
            return "convexity stage did not pass"
        if d["samples"] != CERT_SAMPLES or not d["skipped"] < CERT_SAMPLES:
            return f"{d['skipped']} of {d['samples']} samples skipped"
        if consistent:
            if not d["max_high_order_coeff"] <= d["coeff_tol"]:
                return "consistent verdict with a high-order coefficient"
            return None
        # no CLI verifier exists for this witness kind: check its content
        if d.get("witness_file") != witness or not os.path.isfile(witness):
            return "witness file missing"
        with open(witness, encoding="utf-8") as fh:
            w = json.load(fh)["witness"]
        if w["i"] < 3 or not abs(complex(*w["c_i"])) > d["coeff_tol"]:
            return "witness coefficient is not a high-order one"
        return None
    return check


def _matrix(data: dict) -> np.ndarray:
    e = np.asarray(data["entries"], dtype=float)
    return e[..., 0] + 1j * e[..., 1]


def _check_eval(expected: np.ndarray) -> Check:
    def check(code, out):
        bad = _expect(code, 0)
        if bad:
            return bad
        got = _matrix(json.loads(out)["result"])
        if got.shape != expected.shape:
            return f"result shape {got.shape}, want {expected.shape}"
        dev = float(np.max(np.abs(got - expected)))
        return None if dev <= ORACLE_TOL else f"oracle deviation {dev:.3e}"
    return check


def _check_axioms(code, out):
    bad = _expect(code, 0)
    if bad:
        return bad
    d = json.loads(out)
    if d["pass"] is not True or d["samples"] != AXIOM_SAMPLES:
        return "axioms did not pass"
    if not max(d["max_direct_sum_dev"], d["max_unitary_dev"]) <= d["tol"]:
        return "axiom deviation above tol"
    return None


# -- workloads ---------------------------------------------------------------


def _falsify(seeds, tmp: str) -> list:
    jobs = []
    for kappa in (2, 3):
        for preset in ("square", "mixed-ax", "kraus-halfmass", "quartic"):
            w = os.path.join(tmp, f"convexity-{kappa}.json")
            argv = ["convexity", "--preset", preset, "--size", str(kappa),
                    "--multiplicities", "1,2,3", "--trials", str(CONV_TRIALS),
                    "--seed", str(next(seeds)), "--witness-out", w]
            if preset == "quartic":
                jobs.append(Job("convexity", argv, _check_falsified(w)))
                jobs.append(Job("verify", ["convexity", "--preset", preset,
                                           "--verify-witness", w],
                                _check_violates))
            else:
                jobs.append(Job("convexity", argv,
                                _check_pass(3 * CONV_TRIALS)))
    w = os.path.join(tmp, "convexity1.json")
    for preset in ("square", "kraus-halfmass", "quartic"):
        argv = ["convexity1", "--preset", preset, "--size", "3", "--trials",
                str(CONV1_TRIALS), "--seed", str(next(seeds)),
                "--witness-out", w]
        if preset == "quartic":
            jobs.append(Job("convexity1", argv, _check_falsified(w)))
            jobs.append(Job("verify", ["convexity1", "--preset", preset,
                                       "--verify-witness", w],
                            _check_violates))
        else:
            jobs.append(Job("convexity1", argv, _check_pass(CONV1_TRIALS)))
    for flags, passes in ((["--preset", "kraus-halfmass", "--g-transform"], True),
                          (["--preset", "square", "--interval=0.1,1"], False),
                          (["--preset", "kraus-halfmass"], False)):
        w = os.path.join(tmp, f"monotone-{len(jobs)}.json")
        argv = ["monotone", *flags, "--trials", str(MONO_TRIALS),
                "--seed", str(next(seeds)), "--witness-out", w]
        if passes:
            jobs.append(Job("monotone", argv, _check_pass(MONO_TRIALS)))
        else:
            jobs.append(Job("monotone", argv, _check_falsified(w)))
            jobs.append(Job("verify", ["monotone", *flags[:2],
                                       "--verify-witness", w],
                            _check_violates))
    for flags in (["--preset", "kraus-halfmass"],
                  ["--mu=-0.3:0.25,0.7:0.75", "--f2", "2"]):
        jobs.append(Job("kraus", ["kraus", *flags, "--trials",
                                  str(KRAUS_TRIALS), "--seed",
                                  str(next(seeds))], _check_kraus))
    return jobs


def _certify(seeds, tmp: str) -> list:
    # samples cycle through the multiplicities: slices of size 2, 4 and 6
    w = os.path.join(tmp, "certify.json")
    return [Job("certify", ["certify", "--preset", preset, "--size", "2",
                            "--multiplicities", "1,2,3",
                            "--trials", str(CERT_TRIALS),
                            "--samples", str(CERT_SAMPLES),
                            "--seed", str(next(seeds)), "--witness-out", w],
                _check_certify(preset != "kraus-halfmass", w))
            for preset in ("square", "mixed-ax", "kraus-halfmass")]


def _hermitian(rng, n: int, norm: float) -> np.ndarray:
    """Exactly Hermitian, so ingest keeps it bit for bit, with the given
    spectral norm."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    upper = np.triu(g, 1)
    h = upper + upper.conj().T + np.diag(rng.standard_normal(n))
    return h * (norm / np.linalg.norm(h, 2))


def _write_tuple(path: str, mats) -> None:
    data = [{"n": int(m.shape[0]),
             "entries": [[[float(v.real), float(v.imag)] for v in row]
                         for row in m]} for m in mats]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


# expression, a-letters used, x-letters used, oracle from (A, X)
_EXPRS = (
    ("(x1+x2)^8", 0, 2, lambda A, X: np.linalg.matrix_power(X[0] + X[1], 8)),
    ("(a1+x1+x2)^7", 1, 2,
     lambda A, X: np.linalg.matrix_power(A[0] + X[0] + X[1], 7)),
    ("(a1*x1+x1*a1+x2)^5", 1, 2,
     lambda A, X: np.linalg.matrix_power(A[0] @ X[0] + X[0] @ A[0] + X[1], 5)),
    ("(x1+x2+x3)^8", 0, 3,
     lambda A, X: np.linalg.matrix_power(X[0] + X[1] + X[2], 8)),
)


def _poly_eval(seeds, tmp: str, rng) -> list:
    jobs = []
    for n in (4, 16, 64):
        # spectral norm 1/3 per matrix keeps every inner sum below 1
        A = [_hermitian(rng, n, 1 / 3)]
        X = [_hermitian(rng, n, 1 / 3) for _ in range(3)]
        a_file = os.path.join(tmp, f"a-{n}.json")
        _write_tuple(a_file, A)
        for gx in (2, 3):
            _write_tuple(os.path.join(tmp, f"x{gx}-{n}.json"), X[:gx])
        for expr, ga, gx, oracle in _EXPRS:
            argv = ["eval", "--expr", expr, "--x-tuple",
                    os.path.join(tmp, f"x{gx}-{n}.json")]
            if ga:
                argv += ["--a-tuple", a_file]
            jobs.append(Job("eval", argv,
                            _check_eval(oracle(A[:ga], X[:gx]))))
    for expr in ("(x1+x2)^6", "(a1*x1+x1*a1+x2)^4", "(x1+x2+x3)^4"):
        jobs.append(Job("axioms", ["axioms", "--expr", expr, "--samples",
                                   str(AXIOM_SAMPLES), "--sizes", "1,2,3,4",
                                   "--seed", str(next(seeds))],
                        _check_axioms))
    return jobs


def build_pass(workload: str, seed: int, index: int, tmp: str) -> list:
    """Jobs of pass `index`; writes the pass's tuple files into tmp."""
    rng = np.random.default_rng([seed, index])
    seeds = iter(int(s) for s in rng.integers(0, 2 ** 31 - 1, size=64))
    if workload == "falsify":
        return _falsify(seeds, tmp)
    if workload == "certify":
        return _certify(seeds, tmp)
    if workload == "poly-eval":
        return _poly_eval(seeds, tmp, rng)
    raise ValueError(f"unknown workload {workload!r}")


# a few jobs per workload for the smoke mode, covering every check; a
# verify job is kept when the job that wrote its witness is
SMOKE_JOBS = {
    "falsify": ("convexity --preset quartic --size 2",
                "convexity1 --preset quartic",
                "monotone --preset kraus-halfmass --g-transform",
                "monotone --preset square", "kraus --preset"),
    "certify": ("certify --preset mixed-ax", "certify --preset kraus-halfmass"),
    "poly-eval": ("eval --expr (a1+x1+x2)^7 --x-tuple", "axioms --expr (x1+x2)^6"),
}


def smoke_subset(workload: str, jobs: list) -> list:
    keep, prev = [], False
    for job in jobs:
        line = " ".join(job.argv)
        prev = (prev if job.kind == "verify" else
                any(line.startswith(p) for p in SMOKE_JOBS[workload]))
        if prev:
            keep.append(job)
    return keep
