"""Shared pytest plumbing: the acceptance module records one line per
criterion here; the terminal summary prints them after the run so the
pass/fail ledger is visible without -s.  `run_cli` starts the CLI as a
child process that imports the same `ncconvex` as the test process.
Every test must leave Python's cyclic collector on or off as it found
it, since `cli.main` pauses the collector for a run."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

ACCEPTANCE_LINES = []

_CHILD_ENV = None


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _collector_state_kept():
    """Fails a test that leaves the cyclic collector switched otherwise
    than it found it, and switches it back for the tests after it."""
    before = gc.isenabled()
    yield
    if gc.isenabled() != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() {not before}, it found "
                    f"it {before}", pytrace=False)


def _child_env(cwd):
    """The environment for CLI children: the source root of the imported
    package goes before any inherited PYTHONPATH, so a relative entry
    such as `src` cannot stop resolving once the child's cwd moves, and
    a deprecated API fails a child as it fails the tests in-process.
    Checked once per session: a child that fails to import `ncconvex`
    exits 1, which the CLI also uses for "falsified", so a wrong or
    missing package must fail here with the child's own error."""
    global _CHILD_ENV
    if _CHILD_ENV is None:
        import ncconvex
        parent_file = Path(ncconvex.__file__).resolve()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(parent_file.parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["PYTHONWARNINGS"] = ("error::DeprecationWarning,"
                                 "error::PendingDeprecationWarning,"
                                 "error::FutureWarning")
        probe = subprocess.run(
            [sys.executable, "-c", "import ncconvex; print(ncconvex.__file__)"],
            capture_output=True, text=True, cwd=cwd, env=env)
        child_file = probe.stdout.strip()
        if probe.returncode != 0 or Path(child_file).resolve() != parent_file:
            pytest.fail(
                f"CLI children do not import the ncconvex under test "
                f"({parent_file}); child printed {child_file!r}, "
                f"stderr:\n{probe.stderr}", pytrace=False)
        _CHILD_ENV = env
    return _CHILD_ENV


def run_cli(args, cwd):
    """Run `python -m ncconvex *args` in `cwd` and return the completed
    process (text stdout/stderr, real exit code)."""
    return subprocess.run([sys.executable, "-m", "ncconvex", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=_child_env(cwd))


@pytest.fixture
def dump_spy(monkeypatch):
    """Checks every `cli._dump` call against the stdlib writer it must
    match byte for byte; yields the list of payloads it saw."""
    import json

    from ncconvex import cli

    seen, dump = [], cli._dump

    def spy(payload):
        seen.append(payload)
        try:
            want = json.dumps(payload, indent=2, sort_keys=True,
                              allow_nan=False)
        except ValueError:
            with pytest.raises(ValueError):
                dump(payload)
            raise
        got = dump(payload)
        assert got == want
        return got

    monkeypatch.setattr(cli, "_dump", spy)
    yield seen
