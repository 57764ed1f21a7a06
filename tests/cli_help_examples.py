"""The CLI's help texts and usage errors, recorded byte for byte.

Recording the reference outputs from a checkout:

    COLUMNS=80 PYTHONPATH=src python tests/cli_help_examples.py \
        > tests/data/cli_help_golden.json

`test_cli.py` compares every case with that file: the help texts and
argparse's own errors run in-process with COLUMNS=80, and the four
`USAGE_ERRORS`, which the CLI's handler answers, run as child processes.
"""

import contextlib
import io
import json
import os
import sys

SUBCOMMANDS = ("eval", "convexity", "monotone", "convexity1", "kraus",
               "certify", "axioms")

HELP = (["--help"],) + tuple([cmd, "--help"] for cmd in SUBCOMMANDS)

# rejected by argparse before any subcommand runs
ARGPARSE_ERRORS = (
    [],
    ["nope"],
    ["convexity", "--trials", "many"],
    ["eval", "--bogus"],
    ["kraus", "--expr", "x1"],
)

# answered by the CLI's own handler with one `error: ` line
USAGE_ERRORS = (
    ["eval", "--expr", "x1^"],
    ["eval", "--expr", "x1"],
    ["certify", "--preset", "nope"],
    ["convexity1", "--expr", "x1^2", "--interval", "2,1"],
)


def run_case(argv) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run."""
    from ncconvex.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def record() -> dict:
    if os.environ.get("COLUMNS") != "80":
        raise SystemExit("record with COLUMNS=80")
    return {"help": [run_case(a) for a in HELP],
            "argparse_errors": [run_case(a) for a in ARGPARSE_ERRORS],
            "usage_errors": [run_case(a) for a in USAGE_ERRORS]}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
