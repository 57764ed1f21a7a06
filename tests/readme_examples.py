"""The nine CLI examples of README.md, run in-process through `cli.main`.

Recording the reference outputs from a checkout:

    PYTHONPATH=src python tests/readme_examples.py > tests/data/readme_golden.json

`test_readme_golden.py` re-runs the examples and compares them with that
file: exit codes, verdicts, strings and ints exactly, floats within
`FLOAT_ATOL + FLOAT_RTOL * |ref|`, so a change that only regroups float
arithmetic can be told apart from one that changes a result.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

# in README order; later examples read files written by earlier ones
EXAMPLES = (
    ["eval", "--expr", "x1^2", "--x-tuple", "identity3"],
    ["convexity", "--preset", "quartic", "--size", "2", "--trials", "200",
     "--seed", "7", "--witness-out", "w.json", "--csv-out", "defects.csv"],
    ["convexity", "--preset", "quartic", "--verify-witness", "w.json"],
    ["monotone", "--preset", "kraus-halfmass", "--g-transform", "--trials",
     "60", "--seed", "1"],
    ["convexity1", "--preset", "quartic", "--interval=-1,1", "--trials",
     "300", "--seed", "1"],
    ["kraus", "--mu", "0.5:1", "--f2", "2", "--csv-out", "sweep.csv"],
    ["certify", "--preset", "mixed-ax", "--seed", "3"],
    ["certify", "--preset", "kraus-halfmass", "--seed", "3"],
    ["axioms", "--preset", "mixed-ax", "--samples", "100", "--sizes",
     "1,2,3,4", "--seed", "2"],
)

FLOAT_ATOL = 1e-12
FLOAT_RTOL = 1e-9


def run_example(argv) -> tuple:
    """(exit code, stdout text) of one in-process CLI run in the cwd."""
    from ncconvex.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def record() -> list:
    """Run every example in a fresh directory; one record per example."""
    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in EXAMPLES:
                code, out = run_example(argv)
                records.append({"argv": list(argv), "exit": code,
                                "stdout": json.loads(out)})
        finally:
            os.chdir(cwd)
    return records


def mismatches(got, ref, path: str = "$") -> list:
    """Where `got` differs from `ref` beyond the float tolerance."""
    if isinstance(ref, float) and type(got) in (int, float):
        if abs(got - ref) <= FLOAT_ATOL + FLOAT_RTOL * abs(ref):
            return []
        return [f"{path}: {got!r} vs {ref!r}"]
    if type(got) is not type(ref):
        return [f"{path}: {type(got).__name__} vs {type(ref).__name__}"]
    if isinstance(ref, dict):
        if set(got) != set(ref):
            return [f"{path}: keys {sorted(got)} vs {sorted(ref)}"]
        return [m for k in sorted(ref)
                for m in mismatches(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if len(got) != len(ref):
            return [f"{path}: length {len(got)} vs {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in mismatches(g, r, f"{path}[{i}]")]
    return [] if got == ref else [f"{path}: {got!r} vs {ref!r}"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
