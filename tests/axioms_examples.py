"""Axioms runs whose outputs must stay byte-identical, run in-process.

Recording the reference outputs from a checkout:

    PYTHONPATH=src python tests/axioms_examples.py > tests/data/axioms_golden.json

The CLI runs are the benchmark's three `axioms` jobs
(`perfbench/workloads.py`) at three seeds, the README example, the
Kraus preset, one- and two-size `--sizes` lists, a run whose tolerance
is below the rounding of the check (exit 1 with a counterexample), an
a-only polynomial and a run of 300 samples, which crosses a chunk
boundary.  Each record keeps the exit code, stdout and stderr.  The
library records keep each report as a `repr` string, so every bit of
the deviations and of a counterexample is compared, or the error a run
raised, by type and message.  `test_axioms_golden.py` re-runs
everything and compares exactly.
"""

import json
import sys

from falsify_examples import run_cli

SEEDS = (31, 32, 33)
BENCH_EXPRS = ("(x1+x2)^6", "(a1*x1+x1*a1+x2)^4", "(x1+x2+x3)^4")


def _cli_examples() -> list:
    out = [["axioms", "--expr", expr, "--samples", "20", "--sizes",
            "1,2,3,4", "--seed", str(seed)]
           for seed in SEEDS for expr in BENCH_EXPRS]
    out += [
        ["axioms", "--preset", "mixed-ax", "--samples", "100", "--sizes",
         "1,2,3,4", "--seed", "2"],
        ["axioms", "--preset", "kraus-halfmass", "--samples", "40",
         "--seed", "5"],
        ["axioms", "--preset", "square", "--sizes", "2", "--samples", "30",
         "--seed", "6"],
        ["axioms", "--preset", "mixed-ax", "--sizes", "1,3", "--samples",
         "30", "--seed", "7"],
        ["axioms", "--expr", "x1^3 + x1*x2*x1", "--tol", "1e-17",
         "--samples", "30", "--seed", "8"],
        ["axioms", "--expr", "a1^3 + 2*a1", "--signature", "1,0",
         "--samples", "20", "--seed", "10"],
        ["axioms", "--preset", "quartic", "--samples", "300", "--seed", "9"],
    ]
    return out


CLI_EXAMPLES = _cli_examples()


def _library_runs() -> list:
    """(name, thunk) of direct check_nc_function_axioms calls."""
    import numpy as np

    import ncconvex as nc
    from ncconvex.algebra import MatrixNcPolynomial

    def poly(expr, sig):
        return nc.PolynomialNcFunction(
            nc.parse_polynomial(expr, nc.Signature(*sig)), name=expr)

    def series(expr, radius):
        p = nc.parse_polynomial(expr, nc.Signature(0, 1))
        return nc.SeriesNcFunction(
            nc.NcPowerSeries.from_polynomial(p, radius=radius))

    def refuse_size(n):
        # raises at the first point of size n, naming the bits of its X
        def fn(A, X):
            M = np.asarray(X[0], dtype=complex)
            if M.shape[0] == n:
                raise nc.DomainError(f"size {n} refused at trace "
                                     f"{float(np.trace(M).real)!r}")
            return M @ M
        return nc.CallableNcFunction(fn, nc.Signature(0, 1))

    p = nc.parse_polynomial("x1", nc.Signature(0, 1))
    q = nc.parse_polynomial("x1^2", nc.Signature(0, 1))
    block = nc.PolynomialNcFunction(MatrixNcPolynomial([[p, q], [q, p]]))
    check = nc.check_nc_function_axioms
    return [
        ("trace seed 3", lambda: check(nc.trace_evaluator(), samples=40,
                                       seed=3)),
        ("trace criterion 8", lambda: check(
            nc.trace_evaluator(), sizes=(1, 2, 3, 4), samples=100, seed=108,
            tol=1e-8)),
        ("trace two x", lambda: check(nc.trace_evaluator((0, 2)),
                                      sizes=(2, 3), samples=15, seed=4)),
        ("g_a = 0 polynomial", lambda: check(
            poly("x1*x2 + x2*x1 + x1^3", (0, 2)), samples=50, seed=41)),
        ("g_x = 0 polynomial", lambda: check(
            poly("a1*a2*a1 + 2*a2", (2, 0)), samples=30, seed=42)),
        ("tol 0", lambda: check(poly("a1*x1*a1 + x1^2", (1, 1)),
                                samples=25, seed=43, tol=0.0)),
        ("generator seed", lambda: check(
            poly("x1^2", (0, 1)), sizes=(1, 5), samples=12,
            seed=np.random.default_rng(44))),
        ("series in radius", lambda: check(series("x1^2 + x1^3", 2.0),
                                           samples=30, seed=45)),
        ("series past radius", lambda: check(series("x1^2", 0.5),
                                             samples=30, seed=46)),
        ("callable refuses size 5", lambda: check(refuse_size(5),
                                                  samples=40, seed=47)),
        ("callable refuses size 3", lambda: check(refuse_size(3),
                                                  samples=40, seed=48)),
        ("block matrix polynomial", lambda: check(block, samples=10,
                                                  seed=49)),
    ]


def run_library(name, thunk) -> dict:
    try:
        return {"name": name, "report": repr(thunk().to_json_dict())}
    except Exception as exc:
        return {"name": name, "error": f"{type(exc).__name__}: {exc}"}


def record() -> dict:
    return {"cli": [run_cli(argv) for argv in CLI_EXAMPLES],
            "library": [run_library(n, t) for n, t in _library_runs()]}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
