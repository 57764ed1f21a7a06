"""Falsifier runs whose outputs must stay byte-identical, run in-process.

Recording the reference outputs from a checkout:

    PYTHONPATH=src python tests/falsify_examples.py > tests/data/falsify_golden.json

The CLI runs are the job shapes of the benchmark's `falsify` workload
(`perfbench/workloads.py`) at fixed seeds, plus a run whose trial count
crosses chunk boundaries when `convexity.CHUNK` is 64 (the golden tests
run at that size too) and two error cases.  Each record keeps the
exit code, stdout, stderr, and the bytes of the witness and `--csv-out`
files the run wrote.  The library records keep `trial_min_eigs` and the
report of each tester as `repr` strings, so every bit is compared.
`test_falsify_golden.py` re-runs everything and compares exactly.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

SEEDS = (11, 12, 13)
WITNESS = "w.json"
# where a falsified run without --witness-out writes its witness
DEFAULT_WITNESS = "witness.json"
CSV = "out.csv"


def _cli_examples() -> list:
    out = []
    for seed in SEEDS:
        s = str(seed)
        for kappa in ("2", "3"):
            for preset in ("square", "mixed-ax", "kraus-halfmass", "quartic"):
                out.append(["convexity", "--preset", preset, "--size", kappa,
                            "--multiplicities", "1,2,3", "--trials", "40",
                            "--seed", s, "--witness-out", WITNESS,
                            "--csv-out", CSV])
            out.append(["convexity", "--preset", "quartic",
                        "--verify-witness", WITNESS])
        for preset in ("square", "kraus-halfmass", "quartic"):
            out.append(["convexity1", "--preset", preset, "--size", "3",
                        "--trials", "200", "--seed", s,
                        "--witness-out", WITNESS])
        out.append(["convexity1", "--preset", "quartic",
                    "--verify-witness", WITNESS])
        for flags in (["--preset", "kraus-halfmass", "--g-transform"],
                      ["--preset", "square", "--interval=0.1,1"],
                      ["--preset", "kraus-halfmass"]):
            out.append(["monotone", *flags, "--trials", "60", "--seed", s,
                        "--witness-out", WITNESS])
            out.append(["monotone", *flags[:2], "--verify-witness", WITNESS])
        for flags in (["--preset", "kraus-halfmass"],
                      ["--mu=-0.3:0.25,0.7:0.75", "--f2", "2"]):
            out.append(["kraus", *flags, "--trials", "100", "--seed", s,
                        "--csv-out", CSV])
    # at CHUNK = 64, 150 trials per level cross the chunk boundaries at
    # 64 and 128
    out.append(["convexity", "--preset", "quartic", "--size", "2",
                "--multiplicities", "1,2", "--trials", "150", "--seed", "14",
                "--witness-out", WITNESS, "--csv-out", CSV])
    out.append(["convexity1", "--preset", "kraus-halfmass", "--size", "2",
                "--trials", "150", "--seed", "14", "--witness-out", WITNESS])
    out.append(["monotone", "--expr", "x1^3", "--interval", "1e150,1e160"])
    out.append(["convexity", "--expr", "x1^2 + x1*x2", "--size", "2",
                "--trials", "5"])
    return out


CLI_EXAMPLES = _cli_examples()


def run_cli(argv) -> dict:
    """One in-process CLI run in the cwd, with the files it wrote.  A
    verify run reads the witness of the run before it, then removes
    it; any other run starts without one."""
    from ncconvex.cli import main
    verify = "--verify-witness" in argv
    if not verify and os.path.exists(WITNESS):
        os.remove(WITNESS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    files = {}
    for name in (WITNESS, DEFAULT_WITNESS, CSV):
        if os.path.exists(name) and not verify:
            with open(name, encoding="utf-8") as fh:
                files[name] = fh.read()
    for name in (CSV, DEFAULT_WITNESS) + ((WITNESS,) if verify else ()):
        if os.path.exists(name):
            os.remove(name)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def _library_runs() -> list:
    """(name, thunk) of direct tester calls, each at a fixed seed."""
    import numpy as np

    import ncconvex as nc
    from ncconvex.presets import get_preset

    sq = get_preset("square").make()
    quartic = get_preset("quartic").make()
    lift = get_preset("kraus-halfmass").make()
    x = nc.HermTuple([np.diag([0.3, -0.2])], kind="x")
    a = nc.HermTuple([], kind="a", n=2)
    return [
        ("at_CA quartic", lambda: nc.test_convexity_at_CA(
            quartic, a, 2.0, multiplicities=(1, 2), trials=70, seed=21)),
        ("at_A kraus", lambda: nc.test_convexity_at_A(
            lift, a, 0.5, trials=70, seed=22)),
        ("1var quartic", lambda: nc.convexity_test_1var(
            get_preset("quartic").make_scalar(), (-1.0, 1.0), size=3,
            trials=130, seed=23)),
        ("monotone square", lambda: nc.loewner_monotone_test(
            get_preset("square").make_scalar(), (0.1, 1.0), trials=70,
            seed=24)),
        ("slice transfer square", lambda: nc.test_slice_convexity_transfer(
            sq, a, x, [1.0, 0.5], trials=70, seed=25)),
        ("slice transfer kraus", lambda: nc.test_slice_convexity_transfer(
            lift, a, x, [1.0, 0.5], trials=70, seed=26)),
    ]


def run_library(name, thunk) -> dict:
    rep = thunk()
    return {"name": name,
            "trial_min_eigs": [repr(e) for e in rep.trial_min_eigs],
            "report": repr(rep.to_json_dict())}


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
