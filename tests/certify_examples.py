"""Certify runs whose outputs must stay byte-identical, run in-process.

Recording the reference outputs from a checkout:

    PYTHONPATH=src python tests/certify_examples.py > tests/data/certify_golden.json

The CLI runs are the job shapes of the benchmark's `certify` workload
(`perfbench/workloads.py`) at fixed seeds, plus other multiplicity lists,
a sample count that is not a multiple of the multiplicity count and
crosses chunk boundaries when `convexity.CHUNK` is 64 (the golden tests
run at that size too), a larger base size, a failing convexity stage and an
error case.  Each record keeps the exit code, stdout, stderr and the
bytes of the witness file.  The library records keep the report of each
direct `certify_degree_two` call as a `repr` string, or the type and
message of the error it raised, and the coefficients of direct
`extract_slice_coefficients` calls, so every bit is compared.
`test_certify_golden.py` re-runs everything and compares exactly.
"""

import json
import os
import sys
import tempfile

from falsify_examples import WITNESS, run_cli

PRESETS = ("square", "mixed-ax", "kraus-halfmass")


def _certify(preset, seed, *flags, size="2", mult="1,2,3", samples="200"):
    return ["certify", "--preset", preset, "--size", size,
            "--multiplicities", mult, "--trials", "20", "--samples", samples,
            "--seed", str(seed), *flags, "--witness-out", WITNESS]


def _cli_examples() -> list:
    out = [_certify(preset, seed) for seed in (1, 2, 3, 4)
           for preset in PRESETS]
    for preset in PRESETS:
        out.append(_certify(preset, 5, mult="1", samples="80"))
        out.append(_certify(preset, 5, mult="3,1", samples="80"))
        # at CHUNK = 64, 150 samples cross the chunk boundaries at 64 and
        # 128; four multiplicities (one repeated) do not divide them
        out.append(_certify(preset, 6, mult="2,1,3,1", samples="150"))
        out.append(_certify(preset, 7, size="3", mult="1,2", samples="60"))
    # a degree cap below the lift's degrees: large x-points fail the
    # residual check and skip, small ones pass
    out.append(_certify("kraus-halfmass", 10, "--epsilon", "1", "--degree-cap",
                        "3", samples="100"))
    out.append(_certify("quartic", 8, samples="20"))
    out.append(_certify("square", 9, "--degree-cap", "1", samples="20"))
    return out


CLI_EXAMPLES = _cli_examples()


def _ball_point_of_sample(F, A, epsilon, seed, k, multiplicities):
    """The x-point that certify_degree_two draws for sample k, redrawn
    here from the sample's generator in certify's order: the Haar block
    of the lift, the x-ball block and its radius."""
    from ncconvex.tuples import derived_rng, sample_x_ball
    rng = derived_rng(seed, 7919, k)
    n = A.n * multiplicities[k % len(multiplicities)]
    rng.standard_normal((2, n, n))
    return sample_x_ball(F.signature, n, epsilon / 2.0, 1, rng)[0]


def _library_runs() -> list:
    """(name, thunk) of direct certify_degree_two and
    extract_slice_coefficients calls, each at a fixed seed."""
    import numpy as np

    import ncconvex as nc
    from ncconvex import (CallableNcFunction, HermTuple, NcPowerSeries,
                          SeriesNcFunction, Signature, certify_degree_two,
                          extract_slice_coefficients, parse_polynomial)
    from ncconvex.presets import get_preset, random_base_tuple
    from ncconvex.tuples import sample_x_ball

    sig = Signature(0, 1)
    a2 = HermTuple([], kind="a", n=2)

    # not declared analytic in z: every sample skips, so the call raises
    opaque = CallableNcFunction(lambda A, X: X[0] @ X[0], sig, name="opaque")

    # raises on every complex scaling of sample 70's x-point; pure, so a
    # chunk evaluated twice sees the same calls fail
    target = _ball_point_of_sample(opaque, a2, 0.5, 31, 70, (1, 2))[0]

    def boom(A, X):
        x = np.asarray(X[0])
        if x.shape == target.shape:
            dot = abs(np.vdot(target, x)) ** 2
            if np.isclose(dot, np.vdot(x, x).real * np.vdot(target, target).real,
                          rtol=1e-9, atol=0.0):
                raise RuntimeError("black box fails at sample 70")
        return x @ x

    bomb = CallableNcFunction(boom, sig, analytic_in_z=True, name="bomb")
    # the radius check skips the samples whose reach |z|*|X| gets to 10
    narrow = CallableNcFunction(lambda A, X: X[0] @ X[0], sig, radius=10.0,
                                analytic_in_z=True, name="narrow")

    # refuses the large complex slice points with DomainError: a skip
    # raised from inside F, not from a check of the extractor
    def picky_fn(A, X):
        x = np.asarray(X[0])
        if not np.allclose(x, x.conj().T) and np.linalg.norm(x) > 0.025:
            raise nc.DomainError("slice point too large")
        return x @ x

    picky = CallableNcFunction(picky_fn, sig, analytic_in_z=True,
                               name="picky")
    mixed = Signature(1, 1)
    series = SeriesNcFunction(NcPowerSeries.from_polynomial(
        parse_polynomial("a1*x1*a1 + x1*a1*x1 + x1^2 + 0.1*x1*a1*a1*x1",
                         mixed), radius=4.0), name="series")
    A1 = random_base_tuple(1, 2, 33)
    lift = get_preset("kraus-halfmass").make()
    mixed_ax = get_preset("mixed-ax").make()
    X3 = sample_x_ball(mixed, 3, 0.4, 1, 35)[0]
    A3 = random_base_tuple(1, 3, 35)
    v3 = np.array([1.0, 0.5 - 0.25j, -0.75])
    a3 = HermTuple([], kind="a", n=3)
    return [
        ("opaque black box", lambda: certify_degree_two(
            opaque, a2, 0.5, samples=70, trials=20, seed=30)),
        ("black box fails at sample 70", lambda: certify_degree_two(
            bomb, a2, 0.5, samples=100, trials=20, seed=31,
            multiplicities=(1, 2))),
        ("analytic black box", lambda: certify_degree_two(
            bomb, a2, 0.5, samples=100, trials=20, seed=32,
            multiplicities=(1, 2))),
        ("narrow black box", lambda: certify_degree_two(
            narrow, a2, 10.0, samples=100, trials=20, seed=37,
            multiplicities=(1, 2))),
        ("picky black box", lambda: certify_degree_two(
            picky, a2, 0.5, samples=100, trials=20, seed=38,
            multiplicities=(1, 2))),
        ("series", lambda: certify_degree_two(
            series, A1, 0.5, samples=90, trials=20, seed=33,
            multiplicities=(2, 1))),
        ("kraus lift", lambda: certify_degree_two(
            lift, a2, 0.5, samples=90, trials=20, seed=34,
            multiplicities=(1, 3))),
        ("extract exact", lambda: extract_slice_coefficients(
            mixed_ax, A3, X3, v3)),
        ("extract dft", lambda: extract_slice_coefficients(
            mixed_ax, A3, X3, v3, force_dft=True)),
        ("extract kraus", lambda: extract_slice_coefficients(
            lift, a3, sample_x_ball(sig, 3, 0.5, 1, 36)[0], v3,
            radius=0.125)),
        # refusals of the one-sample call, in the order it checks
        ("extract exact, v too long", lambda: extract_slice_coefficients(
            mixed_ax, A3, X3, np.ones(4))),
        ("extract dft, v too long", lambda: extract_slice_coefficients(
            mixed_ax, A3, X3, np.ones(4), force_dft=True)),
        ("extract, cap 1 and v zero", lambda: extract_slice_coefficients(
            mixed_ax, A3, X3, np.zeros(3), degree_cap=1)),
        ("extract, v zero", lambda: extract_slice_coefficients(
            mixed_ax, A3, X3, np.zeros(3))),
    ]


def run_library(name, thunk) -> dict:
    try:
        out = thunk()
    except Exception as exc:
        return {"name": name, "raises": type(exc).__name__,
                "message": str(exc)}
    if hasattr(out, "to_json_dict"):
        return {"name": name, "report": repr(out.to_json_dict())}
    return {"name": name, "method": out.method,
            "coeffs": [repr(c) for c in out.coeffs.tolist()],
            "radius": repr(out.radius), "residual": repr(out.residual)}


def record() -> dict:
    """Run every example in a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            cli = [run_cli(argv) for argv in CLI_EXAMPLES]
        finally:
            os.chdir(cwd)
    return {"cli": cli,
            "library": [run_library(n, t) for n, t in _library_runs()]}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
