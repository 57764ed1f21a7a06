"""CLI: exit codes, JSON shape, witness files, determinism."""

import gc
import ast
import json
import os
import stat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cli_help_examples import (ARGPARSE_ERRORS, HELP, USAGE_ERRORS,
                               run_case)
from conftest import run_cli
from ncconvex import NcPowerSeries, Signature, parse_polynomial
import ncconvex.cli as cli
from ncconvex.cli import _FLAGS, _SUBCOMMANDS, _dump, build_parser, main
from ncconvex.tuples import (derived_rng, draw_spectral, matrix_to_json,
                             spectral_lift)

HELP_GOLDEN = json.loads((Path(__file__).parent / "data"
                          / "cli_help_golden.json").read_text())


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """The CLI in-process with tmp_path as the working directory:
    run(args) returns its exit code, stdout and stderr."""
    monkeypatch.chdir(tmp_path)

    def cli(args):
        code, out, err = _main(args, capsys)
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)
    return cli


def test_eval_identity_magic(run):
    r = run(["eval", "--expr", "x1", "--x-tuple", "identity3"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "ncconvex/1"
    n = doc["result"]["n"]
    assert n == 3
    got = np.array([[complex(*cell) for cell in row]
                    for row in doc["result"]["entries"]])
    np.testing.assert_allclose(got, np.eye(3))


def test_eval_with_a_tuple_file(run, tmp_path):
    a_file = tmp_path / "a.json"
    a_file.write_text(json.dumps([{
        "n": 2, "entries": [[[0.3, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [-0.1, 0.0]]]}]))
    r = run(["eval", "--expr", "a1*x1 + x1*a1", "--signature", "1,1",
             "--a-tuple", str(a_file), "--x-tuple", "identity2"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    got = np.array([[complex(*cell) for cell in row]
                    for row in doc["result"]["entries"]])
    np.testing.assert_allclose(got, np.diag([0.6, -0.2]), atol=1e-12)


def test_certify_square_consistent(run):
    r = run(["certify", "--expr", "x1^2", "--signature", "0,1",
             "--size", "3", "--seed", "7"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "CONSISTENT_DEGREE_LE_2"


def test_convexity1_quartic_emits_witness(run, tmp_path):
    r = run(["convexity1", "--preset", "quartic", "--size", "2",
             "--seed", "7"])
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["pass"] is False
    wfile = tmp_path / "witness.json"
    assert wfile.exists()
    # the emitted witness re-verifies standalone
    r2 = run(["convexity1", "--verify-witness", str(wfile)])
    assert r2.returncode == 0
    doc2 = json.loads(r2.stdout)
    assert doc2["violates"] is True
    assert doc2["min_eig"] < -1e-6


def test_convexity_witness_roundtrip(run, tmp_path):
    wout = tmp_path / "w.json"
    r = run(["convexity", "--preset", "quartic", "--size", "2",
             "--epsilon", "2", "--trials", "400", "--seed", "3",
             "--witness-out", str(wout)])
    assert r.returncode == 1
    assert wout.exists()
    r2 = run(["convexity", "--verify-witness", str(wout)])
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["violates"] is True


def test_monotone_pass_and_fail(run):
    ok = run(["monotone", "--preset", "kraus-halfmass", "--g-transform",
              "--trials", "60", "--seed", "1"])
    assert ok.returncode == 0
    bad = run(["monotone", "--preset", "quartic", "--g-transform",
               "--interval=-1,1", "--trials", "200", "--seed", "1"])
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["min_eig"] < -1e-6


def test_kraus_subcommand(run, tmp_path):
    csv = tmp_path / "sweep.csv"
    r = run(["kraus", "--preset", "kraus-halfmass", "--trials", "60",
             "--sweep-points", "11", "--csv-out", str(csv)])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["cross_check_max_dev"] < 1e-9
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "t,f"
    assert len(rows) == 12


def test_kraus_cross_check_is_relative_to_the_size_of_the_values(run):
    # at f2 = 1e8 float rounding alone puts the two routes 3e-8 apart; an
    # absolute 1e-9 bound failed this run with no witness
    r = run(["kraus", "--f2", "1e8", "--trials", "5", "--sweep-points",
             "3", "--matrix-checks", "4"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["pass"] is True and doc["cross_check_max_dev"] > 1e-9


def test_kraus_routes_that_disagree_are_an_internal_error(run, tmp_path,
                                                          monkeypatch):
    import ncconvex.cli as cli
    real = cli.kraus_eval
    monkeypatch.setattr(cli, "kraus_eval", lambda *a: real(*a) + 1e-6)
    r = run(["kraus", "--trials", "5"])
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        "error: matrix check 0: the resolvent and spectral routes disagree "
        "by 1.000e-06")
    assert list(tmp_path.iterdir()) == []


def test_kraus_names_the_first_disagreeing_matrix_check(run, monkeypatch):
    # checks 5 (size 3) and 2 (size 4) disagree; their stacks run one
    # size at a time, size 3 first, but the bound is checked in k order
    import ncconvex.cli as cli
    rng = derived_rng(0, 4241)
    drawn = [spectral_lift(*draw_spectral(rng, 2 + k % 4, -0.9, 0.9))
             for k in range(10)]
    real, hits = cli.kraus_eval, set()

    def disagreeing(*args):
        B, out = args[-1], real(*args)
        for k in (5, 2):
            if B.shape[-2:] == drawn[k].shape:
                hit = (B == drawn[k]).all(axis=(-2, -1))
                out[hit] += 1e-6 * k
                hits.update([k] if hit.any() else [])
        return out

    monkeypatch.setattr(cli, "kraus_eval", disagreeing)
    r = run(["kraus", "--trials", "5"])
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        "error: matrix check 2: the resolvent and spectral routes disagree "
        "by 2.000e-06")
    assert hits == {2, 5}


def test_axioms_subcommand(run):
    r = run(["axioms", "--expr", "x1^2", "--signature", "0,1",
             "--samples", "25"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["pass"] is True


def test_usage_errors_exit_two(run, tmp_path):
    # the interpreter also exits 2 on some of its own errors, so the CLI's
    # handler must be seen to answer: one `error: ` line, no traceback
    golden = list(HELP_GOLDEN["usage_errors"])
    assert [rec["argv"] for rec in golden] == list(USAGE_ERRORS)
    for args in (["eval", "--expr", "x1^"],
                 ["eval", "--expr", "x1"],
                 ["certify", "--preset", "nope"],
                 ["convexity1", "--expr", "x1^2", "--interval", "2,1"]):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2, (args, r.stderr)
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), \
            (args, r.stderr)
        assert "Traceback" not in r.stderr
        assert r.stderr == golden.pop(0)["stderr"], args
    # the rest run in-process, where an error that escapes the handler
    # fails the test with its own traceback
    (tmp_path / "x1.json").write_text(json.dumps(
        [matrix_to_json(np.eye(2))]))
    (tmp_path / "witness.json").write_text(json.dumps(
        {"kind": "convexity", "witness": {}}))
    for args, message in (
            (["convexity1", "--expr", "x1^2", "--interval", "1"],
             "bad --interval '1', want 'lo,hi'"),
            (["monotone", "--preset", "mixed-ax"],
             "preset 'mixed-ax' has no one-variable view"),
            (["kraus", "--preset", "square"],
             "preset 'square' is not a Kraus lift"),
            (["eval", "--expr", "a1*x1", "--a-tuple", "identity2",
              "--x-tuple", "identity3"], "declared n=3 but entries are 2"),
            (["eval", "--expr", "x1+x2", "--x-tuple", "x1.json"],
             "x-tuple has arity 1, signature wants 2"),
            (["eval", "--x-tuple", "identity2"], "provide a function"),
            (["convexity", "--verify-witness", "witness.json"],
             "convexity witness file lacks 'function'"),
            (["monotone", "--expr", "2i*x1"],
             "scalar view needs real coefficients"),
            (["convexity1", "--expr", "a1", "--signature", "1,0"],
             "scalar view needs signature (0, 1)")):
        r = run(args)
        assert (r.returncode, r.stdout) == (2, ""), (args, r.stderr)
        assert _one_error_line(r.stderr).startswith(f"error: {message}"), \
            args


def test_eval_with_only_an_a_tuple(run):
    # g_x = 0: the a-tuple alone sets the size of the empty x-tuple
    r = run(["eval", "--expr", "a1", "--a-tuple", "identity2"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["function"]["signature"] == "1,0"
    assert doc["result"] == matrix_to_json(np.eye(2))


@pytest.mark.parametrize("command", ["convexity", "certify"])
def test_a_tuple_file_sets_the_size(command, run, tmp_path):
    # --size defaulted to 2, so any other base tuple file exited 2 with
    # "declared n=2 but entries are 3" unless --size repeated its size
    path = tmp_path / "a3.json"
    path.write_text(json.dumps([matrix_to_json(np.diag([0.3, -0.2, 0.1]))]))
    _check_a_tuple_sets_the_size(run, command, str(path))


@pytest.mark.parametrize("shorthand", ["identity3", "zero3"])
@pytest.mark.parametrize("command", ["convexity", "certify"])
def test_a_tuple_shorthand_sets_the_size(command, shorthand, run):
    # an explicit --size that disagreed with identityN/zeroN was ignored:
    # --size 2 ran at kappa 3 and exited 0
    _check_a_tuple_sets_the_size(run, command, shorthand)


def _check_a_tuple_sets_the_size(run, command, a_tuple):
    """A base tuple of size 3 sets kappa = 3; --size 3 changes nothing
    and --size 2 is a usage error."""
    argv = [command, "--expr", "a1*x1*a1 + x1^2", "--signature", "1,1",
            "--a-tuple", a_tuple, "--trials", "20", "--seed", "3"]
    if command == "certify":
        argv += ["--samples", "5"]
    r = run(argv)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    report = doc["convexity"] if command == "certify" else doc
    assert report["alpha"]["kappa"] == 3
    assert run(argv + ["--size", "3"]).stdout == r.stdout
    r = run(argv + ["--size", "2"])
    assert r.returncode == 2 and r.stdout == ""
    assert "declared n=2 but entries are 3" in _one_error_line(r.stderr)


def test_eval_shorthand_must_match_the_other_tuple(run, tmp_path):
    # exited 2 with "tuple sizes differ: a=3, x=2" before the shorthand
    # checked the size
    path = tmp_path / "x2.json"
    path.write_text(json.dumps([matrix_to_json(np.diag([0.3, -0.2]))]))
    r = run(["eval", "--expr", "a1*x1", "--signature", "1,1",
             "--a-tuple", "identity3", "--x-tuple", str(path)])
    assert r.returncode == 2 and r.stdout == ""
    assert "declared n=2 but entries are 3" in _one_error_line(r.stderr)


@pytest.mark.parametrize("doc, message", [
    ([[[1.0]]], "must be an object with 'n' and 'entries'"),
    ([{"n": 1, "entries": [[[1.0]]]}], "rows of [re, im] number pairs"),
    ({"n": 1}, "must be an object with 'n' and 'entries'"),
    ([{"n": 1, "entries": [[["a", 0.0]]]}], "rows of [re, im] number pairs"),
    ([{"n": 1, "entries": [[[10 ** 400, 0]]]}],
     "rows of [re, im] number pairs"),
])
def test_malformed_tuple_file_exits_two(doc, message, run, tmp_path):
    # these escaped as TypeError, IndexError, KeyError and OverflowError
    # tracebacks
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run(["eval", "--expr", "x1", "--x-tuple", str(path)])
    assert r.returncode == 2 and r.stdout == ""
    assert message in _one_error_line(r.stderr)


def test_too_deeply_nested_tuple_file_exits_two(run, tmp_path):
    # json.load raised RecursionError past the interpreter's depth limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    r = run(["eval", "--expr", "x1", "--x-tuple", str(path)])
    assert r.returncode == 2 and r.stdout == ""
    assert "nested too deeply" in _one_error_line(r.stderr)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_a_tuple_entry_that_is_not_finite_exits_two(number, tmp_path):
    # json.load reads NaN and Infinity, and ingest let them through: the
    # run then exited 2 blaming the function ("eval: the value is not
    # finite", "trial 0: the defect matrix is not finite")
    rows = f"[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [{number}, 0.0]]]"
    (tmp_path / "t.json").write_text(
        f'[{{"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], '
        f'[[0.0, 0.0], [1.0, 0.0]]]}}, {{"n": 2, "entries": {rows}}}]')
    for argv in (["eval", "--expr", "x1 + x2", "--x-tuple", "t.json"],
                 ["convexity", "--expr", "a1*x1*a1 + a2*x1*a2",
                  "--signature", "2,1", "--a-tuple", "t.json",
                  "--trials", "3"]):
        r = run_cli(argv, tmp_path)
        assert r.returncode == 2 and r.stdout == "", r.stderr
        assert _one_error_line(r.stderr) == "error: entry 1 is not finite"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


def _count_parser_builds(monkeypatch) -> dict:
    """Counts every ArgumentParser built and every add_argument call from
    here on; -h is one add_argument per parser."""
    import argparse
    counts = {"parsers": 0, "add_argument": 0}
    init, add = (argparse.ArgumentParser.__init__,
                 argparse._ActionsContainer.add_argument)

    def counted_init(self, *args, **kwargs):
        counts["parsers"] += 1
        init(self, *args, **kwargs)

    def counted_add(self, *args, **kwargs):
        counts["add_argument"] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        counted_add)
    return counts


def test_the_argparse_tree_is_built_once_per_process(monkeypatch, capsys):
    # argparse's top-level help and errors see every subcommand, and
    # each subcommand has its flags; the first command line builds them
    # all, and no later one builds a parser, whatever it is
    for name, (_, _, flags, own) in _SUBCOMMANDS.items():
        assert set(own) <= set(flags.split()), name
    assert set(_FLAGS) == {flag for _, _, flags, _ in _SUBCOMMANDS.values()
                           for flag in flags.split()}
    build_parser.cache_clear()
    counts = _count_parser_builds(monkeypatch)
    full = {"parsers": 1 + len(_SUBCOMMANDS),
            "add_argument": 1 + sum(1 + len(flags.split())
                                    for _, _, flags, _ in
                                    _SUBCOMMANDS.values())}
    assert full["parsers"] == 1 + 7
    assert main(["eval", "--expr", "x1", "--x-tuple", "identity1"]) == 0
    assert counts == full
    for argv, code in ((["eval", "--expr", "x1", "--x-tuple", "identity1"], 0),
                       (["eval", "--ex", "x1", "--x-tuple", "identity1"], 0),
                       (["eval", "--expr", "x1^"], 2),
                       (["--bogus", "eval"], 2), (["-h"], 0),
                       (["eval", "-h"], 0)):
        try:
            assert main(argv) == code, argv
        except SystemExit as exc:
            assert exc.code == code, argv
    assert counts == full


def test_a_well_formed_command_line_builds_no_parser(monkeypatch, capsys):
    # once the tree is built, a command line only parses with it
    build_parser()
    counts = _count_parser_builds(monkeypatch)
    assert main(["eval", "--expr", "x1", "--x-tuple", "identity1"]) == 0
    assert counts == {"parsers": 0, "add_argument": 0}


def test_a_declined_command_line_builds_the_full_tree_once(monkeypatch):
    # argparse's top-level help and errors see every subcommand, and
    # each subcommand has its flags; a second declined line reuses them
    build_parser.cache_clear()
    counts = _count_parser_builds(monkeypatch)
    full = {"parsers": 1 + len(_SUBCOMMANDS),
            "add_argument": 1 + sum(1 + len(flags.split())
                                    for _, _, flags, _ in
                                    _SUBCOMMANDS.values())}
    monkeypatch.setenv("COLUMNS", "80")
    assert run_case(["-h", "eval"]) == {**HELP_GOLDEN["help"][0],
                                        "argv": ["-h", "eval"]}
    assert counts == full
    r = run_case(["--bogus", "eval", "--expr", "x1", "--x-tuple", "identity1"])
    assert r["exit"] == 2 and r["stdout"] == ""
    assert r["stderr"].endswith("error: unrecognized arguments: --bogus\n")
    assert counts == full


def test_a_parse_leaves_the_cached_tree_as_it_was(run, monkeypatch):
    # each parse starts from the tree's own defaults: a value or a
    # store_true flag given once is not the next run's default
    parser, seen = build_parser(), []
    parse = parser.parse_args

    def spy(argv):
        seen.append(parse(argv))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", spy)
    docs = [json.loads(run(argv).stdout) for argv in (
        ["convexity", "--preset", "square", "--trials", "3"],
        ["convexity", "--preset", "square"],
        ["monotone", "--preset", "square", "--g-transform"],
        ["monotone", "--preset", "square"])]
    assert [args.trials for args in seen[:2]] == [3, 200]
    assert [doc["trials"] for doc in docs[:2]] == [3 * 2, 200 * 2]
    assert [args.g_transform for args in seen[2:]] == [True, False]
    assert ["g_transform" in doc["function"] for doc in docs[2:]] == [True,
                                                                     False]
    monkeypatch.setenv("COLUMNS", "80")
    for rec in HELP_GOLDEN["help"]:
        assert run_case(rec["argv"]) == rec, rec["argv"]


def test_argparse_reads_every_command_line():
    # one parser: the package builds no Namespace of its own and parses
    # only on the cached tree
    parses = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            where = f"{path.name}:{node.lineno}"
            assert name != "Namespace", where
            if name and name.startswith("parse_") and name.endswith("args"):
                assert (name == "parse_args"
                        and isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Call)
                        and getattr(func.value.func, "id", None)
                        == "build_parser" and not func.value.args), where
                parses.append(where)
    assert [where.partition(":")[0] for where in parses] == ["cli.py"]


# command lines that name two functions, each with the two flags named
_TWO_SOURCES = [
    (["convexity", "--preset", "square", "--expr", "x1^4"],
     "--preset and --expr"),
    (["kraus", "--preset", "kraus-halfmass", "--f2", "5"],
     "--preset and --f2"),
    (["kraus", "--preset=kraus-halfmass", "--mu=0.5:1", "--f0=0"],
     "--preset and --f0"),
    (["eval", "--series-file", "s.json", "--expr", "x1", "--x-tuple",
      "identity2"], "--series-file and --expr"),
    (["monotone", "--expr", "x1^3", "--preset", "square", "--seed", "1"],
     "--preset and --expr"),
]


@pytest.mark.parametrize("argv, flags", _TWO_SOURCES,
                         ids=[a[0] + "-" + f.split()[-1][2:]
                              for a, f in _TWO_SOURCES])
def test_two_function_sources_are_a_usage_error(argv, flags, run):
    # the first source won and the other was silently ignored
    r = run(argv)
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (f"error: give one function source, "
                                         f"not {flags}")


def test_help_and_argparse_errors_are_byte_identical(monkeypatch):
    # one cached tree answers every case, each from its own defaults
    monkeypatch.setenv("COLUMNS", "80")
    assert [rec["argv"] for rec in HELP_GOLDEN["help"]] == list(HELP)
    assert ([rec["argv"] for rec in HELP_GOLDEN["argparse_errors"]]
            == list(ARGPARSE_ERRORS))
    for rec in HELP_GOLDEN["help"] + HELP_GOLDEN["argparse_errors"]:
        assert run_case(rec["argv"]) == rec, rec["argv"]


def test_json_out_matches_stdout(run, tmp_path):
    out = tmp_path / "report.json"
    r = run(["axioms", "--expr", "x1^2", "--signature", "0,1",
             "--samples", "10", "--json-out", str(out)])
    assert r.returncode == 0
    assert json.loads(out.read_text()) == json.loads(r.stdout)


def test_a_json_out_that_cannot_be_written_leaves_stdout_empty(run,
                                                               tmp_path):
    # the file is written before stdout, so a run that exits 2 on the
    # write prints no result
    r = run(["eval", "--expr", "x1", "--x-tuple", "identity1",
             "--json-out", str(tmp_path / "missing" / "x.json")])
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr).startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_a_shorter_witness_over_a_longer_file_leaves_exactly_its_bytes(
        run, tmp_path):
    argv = _WITNESS_RUNS["monotone"]
    assert run([*argv, "--witness-out", "fresh.json"]).returncode == 1
    fresh = (tmp_path / "fresh.json").read_bytes()
    old = tmp_path / "old.json"
    old.write_bytes(b"x" * (3 * len(fresh)))
    assert run([*argv, "--witness-out", "old.json"]).returncode == 1
    assert old.read_bytes() == fresh


def test_a_shorter_report_and_csv_over_longer_files_leave_their_bytes(
        run, tmp_path):
    argv = ["convexity", "--preset", "square", "--trials", "4"]
    assert run([*argv, "--json-out", "a.json", "--csv-out", "a.csv"]
               ).returncode == 0
    for name in ("b.json", "b.csv"):
        (tmp_path / name).write_text("y" * 100_000)
    assert run([*argv, "--json-out", "b.json", "--csv-out", "b.csv"]
               ).returncode == 0
    for ext in ("json", "csv"):
        assert ((tmp_path / f"b.{ext}").read_bytes()
                == (tmp_path / f"a.{ext}").read_bytes())


def test_a_witness_followed_by_an_old_tail_is_refused(run, tmp_path):
    # what a rewrite that fails before its truncation would leave
    argv = _WITNESS_RUNS["monotone"]
    assert run([*argv, "--witness-out", "w.json"]).returncode == 1
    path = tmp_path / "w.json"
    text = path.read_text()
    path.write_text(text + text[len(text) // 2:])
    r = run(["monotone", "--verify-witness", "w.json"])
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr).startswith("error: Extra data")


def test_json_out_to_dev_null_exits_zero(run):
    r = run(["axioms", "--expr", "x1^2", "--signature", "0,1",
             "--samples", "10", "--json-out", os.devnull])
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["pass"] is True


def test_a_witness_out_symlink_is_written_through(run, tmp_path):
    argv = _WITNESS_RUNS["monotone"]
    assert run([*argv, "--witness-out", "plain.json"]).returncode == 1
    target = tmp_path / "target.json"
    target.write_text("z" * 50_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run([*argv, "--witness-out", "link.json"]).returncode == 1
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "plain.json").read_bytes()


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
def test_a_new_file_gets_the_mode_open_w_gives(mask, run, tmp_path):
    before = os.umask(mask)
    try:
        with open(tmp_path / "ref", "w"):
            pass
        r = run(["axioms", "--expr", "x1^2", "--signature", "0,1",
                 "--samples", "5", "--json-out", "new.json"])
    finally:
        os.umask(before)
    assert r.returncode == 0, r.stderr
    assert (stat.S_IMODE((tmp_path / "new.json").stat().st_mode)
            == stat.S_IMODE((tmp_path / "ref").stat().st_mode))


def test_every_file_the_cli_writes_goes_through_one_writer():
    # an open() for writing anywhere else would truncate and rewrite
    tree = ast.parse(Path(cli.__file__).read_text())
    writers = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                mode = (node.args[1:2] or [kw.value for kw in node.keywords
                                           if kw.arg == "mode"]
                        or [ast.Constant("r")])[0]
                if not (isinstance(mode, ast.Constant)
                        and set(mode.value) <= set("rbt")):
                    writers.add(fn.name)
    assert writers == {"_write_text"}


def test_same_seed_byte_identical(run):
    args = ["convexity", "--preset", "mixed-ax", "--size", "2",
            "--trials", "40", "--seed", "11"]
    a = run(args)
    b = run(args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_eval_1024_letter_word_in_process(tmp_path, monkeypatch, capsys):
    # words past about 990 letters used to raise RecursionError (exit 1)
    monkeypatch.chdir(tmp_path)
    code = main(["eval", "--expr", "(x1^128)^8", "--x-tuple", "identity2"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert err == ""
    doc = json.loads(out)
    got = np.array([[complex(*cell) for cell in row]
                    for row in doc["result"]["entries"]])
    np.testing.assert_array_equal(got, np.eye(2))


@pytest.mark.parametrize("command", [
    ["convexity", "--preset", "square"],
    ["convexity1", "--preset", "square"],
    ["monotone", "--preset", "square"],
    ["kraus", "--preset", "kraus-halfmass"],
    ["certify", "--preset", "square"],
])
def test_zero_trials_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    # zero trials used to pass with "min_eig": Infinity
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--trials", "0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert list(tmp_path.iterdir()) == []


def test_json_output_refuses_non_finite_numbers():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            _dump({"min_eig": bad})
        with pytest.raises(ValueError):
            _dump({"result": {"n": 2, "entries": [[[0.0, 0.0], [1.0, 0.0]],
                                                  [[2.0, bad], [3.0, 0.0]]]}})


def _stdlib_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 123456789.0]))


def _grid(n: int, seed: int, head: list) -> dict:
    """An n x n matrix of normal draws whose first parts are head."""
    parts = np.random.default_rng(seed).standard_normal(2 * n * n)
    parts[:len(head)] = head[:2 * n * n]
    return matrix_to_json(parts.view(complex).reshape(n, n))


_GRIDS = st.builds(_grid, st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
                   st.lists(_FLOATS, max_size=4))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
    | st.sampled_from(["", "\"quoted\"\n\t\\", "\u00e9\u2603\U0001f600",
                       "\0grid0\0", [], {}]) | _GRIDS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(), kids, max_size=4), max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(_JSON)
def test_dump_matches_the_stdlib_writer(payload):
    assert _dump(payload) == _stdlib_dump(payload)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64])
def test_dump_matches_the_stdlib_writer_on_grids(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m[0, 0] = complex(-0.0, 5e-324)
    grid = matrix_to_json(m)
    assert grid == {"n": n, "entries": [[[float(v.real), float(v.imag)]
                                          for v in row] for row in m]}
    assert type(grid["entries"][0][0][0]) is float
    # cells that are not two floats stay with the stdlib writer
    odd = [[[[1.0, True]]], [[[2, 0.5]]], [[[None, 1.0]]], [[["a", 1.0]]],
           [[[np.float64(0.1), 1.0]]], [[[1.0, 2.0, 3.0]]], [[[1.0, 2.0]], []]]
    for payload in ({"result": grid, "schema": "ncconvex/1"},
                    {"w": {"A": [grid, grid], "X": [[grid["entries"]]]}},
                    [grid["entries"], 1, "\0grid0\0"], {"odd": odd}):
        assert _dump(payload) == _stdlib_dump(payload)


def test_eval_does_not_expand_the_expression(tmp_path, monkeypatch, capsys):
    # (x1+x2+x3)^20 has 3^20 words, past TERM_CAP; the plan has 20 steps
    rng = np.random.default_rng(5)
    mats = []
    for _ in range(3):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        mats.append(h / (3 * np.linalg.norm(h, 2)))
    x_file = tmp_path / "x.json"
    x_file.write_text(json.dumps([matrix_to_json(m) for m in mats]))
    monkeypatch.chdir(tmp_path)
    code = main(["eval", "--expr", "(x1+x2+x3)^20", "--x-tuple", str(x_file)])
    out, err = capsys.readouterr()
    assert code == 0, err
    entries = np.array(json.loads(out)["result"]["entries"])
    np.testing.assert_allclose(entries[..., 0] + 1j * entries[..., 1],
                               np.linalg.matrix_power(sum(mats), 20),
                               rtol=0, atol=1e-9)


# -- witness verification by kind ----------------------------------------------


def _main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _one_error_line(err) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    return lines[0]


_WITNESS_RUNS = {
    "convexity": ["convexity", "--preset", "quartic", "--trials", "60",
                  "--seed", "7"],
    "convexity1": ["convexity1", "--preset", "quartic", "--trials", "60",
                   "--seed", "7"],
    "monotone": ["monotone", "--preset", "square", "--interval", "0.1,1",
                 "--trials", "20", "--seed", "4"],
    "hypothesis_fails": ["certify", "--preset", "quartic", "--trials", "60",
                         "--seed", "2"],
    "higher_order_present": ["certify", "--preset", "kraus-halfmass",
                             "--trials", "20", "--samples", "5"],
    "kraus": ["kraus", "--f2", "-2", "--mu", "0.5:1", "--trials", "50",
              "--sweep-points", "5", "--matrix-checks", "2"],
}


def _witness_file(name, tmp_path, capsys) -> str:
    path = str(tmp_path / f"{name}.json")
    code, _, err = _main([*_WITNESS_RUNS[name], "--witness-out", path],
                         capsys)
    assert code == 1, err
    return path


@pytest.mark.parametrize("name, command", [
    ("convexity", "convexity"),
    ("convexity1", "convexity1"),
    ("monotone", "monotone"),
    ("hypothesis_fails", "convexity"),
    ("kraus", "convexity1"),
])
def test_verify_witness_by_kind(name, command, tmp_path, monkeypatch,
                                capsys):
    monkeypatch.chdir(tmp_path)
    path = _witness_file(name, tmp_path, capsys)
    code, out, err = _main([command, "--verify-witness", path], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["command"] == f"{command}-verify"
    assert doc["violates"] is True and doc["min_eig"] < -1e-6


@pytest.mark.parametrize("name, command", [
    ("convexity1", "convexity"),
    ("convexity1", "monotone"),
    ("monotone", "convexity1"),
])
def test_verify_witness_of_another_kind_is_a_usage_error(
        name, command, tmp_path, monkeypatch, capsys):
    # used to crash with a KeyError traceback and exit 1
    monkeypatch.chdir(tmp_path)
    path = _witness_file(name, tmp_path, capsys)
    code, out, err = _main([command, "--verify-witness", path], capsys)
    assert code == 2 and out == ""
    line = _one_error_line(err)
    assert f"'{name} --verify-witness'" in line


def test_verify_witness_refuses_flags_that_name_another_function(tmp_path):
    # a quartic witness re-checked under --preset square used to exit 0
    # with "violates": true; without function flags the file's function
    # is used, as before
    r = run_cli(["convexity", "--preset", "quartic", "--size", "2",
                 "--trials", "40", "--seed", "7", "--witness-out", "w.json"],
                tmp_path)
    assert r.returncode == 1, r.stderr
    r = run_cli(["convexity", "--preset", "square", "--verify-witness",
                 "w.json"], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        'error: the witness file is about the function {"preset": '
        '"quartic"}, but the command line names {"preset": "square"}')
    for flags in (["--preset", "quartic"], []):
        r = run_cli(["convexity", *flags, "--verify-witness", "w.json"],
                    tmp_path)
        assert r.returncode == 0 and json.loads(r.stdout)["violates"]
    # --g-transform names a function of its own
    r = run_cli([*_WITNESS_RUNS["monotone"], "--witness-out", "m.json"],
                tmp_path)
    assert r.returncode == 1, r.stderr
    r = run_cli(["monotone", "--preset", "square", "--g-transform",
                 "--verify-witness", "m.json"], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        'error: the witness file is about the function {"preset": '
        '"square"}, but the command line names {"g_transform": true, '
        '"preset": "square"}')


_G_WITNESS_RUNS = {
    "monotone": ["monotone", "--preset", "quartic", "--g-transform",
                 "--seed", "1"],
    "convexity1": ["convexity1", "--preset", "quartic", "--g-transform",
                   "--seed", "1"],
}


@pytest.mark.parametrize("command", ["monotone", "convexity1"])
def test_g_transform_alone_names_g_of_the_file_function(command, tmp_path,
                                                        monkeypatch, capsys):
    # the flag alone names g[f] of the file's f; a plain monotone
    # witness re-checked under it used to exit 0 with "violates": true
    monkeypatch.chdir(tmp_path)
    plain = _witness_file(command, tmp_path, capsys)
    code, out, err = _main([command, "--g-transform", "--verify-witness",
                            plain], capsys)
    assert code == 2 and out == ""
    function = json.loads(Path(plain).read_text())["function"]
    named = {**function, "g_transform": True}
    assert _one_error_line(err) == (
        "error: the witness file is about the function "
        f"{json.dumps(function, sort_keys=True)}, but the command line "
        f"names {json.dumps(named, sort_keys=True)}")
    code, _, err = _main([*_G_WITNESS_RUNS[command], "--witness-out",
                          "g.json"], capsys)
    assert code == 1, err
    for flags in (["--g-transform"], []):
        code, out, err = _main([command, *flags, "--verify-witness",
                                "g.json"], capsys)
        assert code == 0, err
        assert json.loads(out)["violates"] is True


def test_higher_order_witness_has_no_verifier(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = _witness_file("higher_order_present", tmp_path, capsys)
    code, out, err = _main(["convexity", "--verify-witness", path], capsys)
    assert code == 2 and out == ""
    assert "no verifier for kind 'higher_order_present'" in _one_error_line(err)


@pytest.mark.parametrize("field, value", [
    ("X", "oops"),
    ("X", [{"n": 2, "entries": 5}]),
    (None, [1, 2]),
])
def test_malformed_witness_is_a_usage_error(field, value, tmp_path,
                                            monkeypatch, capsys):
    # a right-kind file with a malformed field used to escape as a
    # TypeError traceback, which exits 1 ("falsified") under python -m
    monkeypatch.chdir(tmp_path)
    path = _witness_file("convexity", tmp_path, capsys)
    with open(path) as fh:
        doc = json.load(fh)
    if field is None:
        doc["witness"] = value
    else:
        doc["witness"][field] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = _main(["convexity", "--verify-witness", path], capsys)
    assert code == 2 and out == ""
    assert "convexity witness file is malformed" in _one_error_line(err)


@pytest.mark.parametrize("kind, witness, message", [
    ("convexity", {"n": 1, "A": [], "X": [matrix_to_json(np.ones((1, 1)))],
                   "Y": [matrix_to_json(np.zeros((1, 1)))], "t": 2},
     "t = 2.0 lies outside [0, 1]"),
    ("convexity1", {"A": matrix_to_json(np.ones((1, 1))),
                    "B": matrix_to_json(np.zeros((1, 1))), "t": -1},
     "t = -1.0 lies outside [0, 1]"),
    ("monotone", {"points": [0.1, 0.1]}, "the points must be finite and "
                                         "distinct"),
], ids=["convexity", "convexity1", "monotone"])
def test_forged_witness_is_a_usage_error(kind, witness, message, tmp_path,
                                         capsys):
    # a t outside [0, 1] made the matrix convex square "violate" and
    # exit 0; repeated points divided by zero
    path = tmp_path / "forged.json"
    path.write_text(json.dumps({"kind": kind, "function": {"preset": "square"},
                                "witness": witness}))
    code, out, err = _main([kind, "--verify-witness", str(path)], capsys)
    assert code == 2 and out == ""
    assert _one_error_line(err) == f"error: witness: {message}"


def test_monotone_refuses_what_lies_outside_the_domain(run, tmp_path):
    # the interval ran past the pole of t^2/(1 - t/2) at t = 2, and the
    # FAIL it issued there re-verified
    r = run(["monotone", "--preset", "kraus-halfmass", "--interval=-3,3",
             "--seed", "1"])
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        "error: interval (-3.0, 3.0) is not inside the domain (-1.0, 1.0) "
        "of kraus-halfmass-scalar")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "w.json").write_text(json.dumps({
        "kind": "monotone", "function": {"preset": "kraus-halfmass"},
        "witness": {"points": [0.5, 2.35, 2.88]}}))
    r = run(["monotone", "--verify-witness", "w.json"])
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        "error: witness: point 2.35 lies outside the domain (-1.0, 1.0) of "
        "kraus-halfmass-scalar")


_OUTSIDE = {"disjoint": ("2,3", "(2.0, 3.0)"),
            "wide": ("-3,3", "(-3.0, 3.0)"),
            "overlap": ("-1.05,1.05", "(-1.05, 1.05)")}


@pytest.mark.parametrize("command, interval, lo_hi", [
    (command, *_OUTSIDE[case]) for command in ("convexity1", "monotone")
    for case in _OUTSIDE], ids=[
        prefix + case for prefix in ("", "monotone-") for case in _OUTSIDE])
def test_convexity1_refusal_names_the_interval_and_the_domain(
        command, interval, lo_hi, run, tmp_path):
    # both one-variable testers refuse an interval that leaves the
    # domain before they evaluate anything; convexity1 used to sample
    # where the interval meets the domain
    r = run([command, "--preset", "kraus-halfmass",
             f"--interval={interval}", "--seed", "1"])
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        f"error: interval {lo_hi} is not inside the domain (-1.0, 1.0) of "
        "kraus-halfmass-scalar")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["monotone", "--preset", "square", "--points", "1000", "--trials", "1"],
     "could not draw well-separated points"),
    (["monotone", "--expr", "x1^3", "--interval=-1e308,1e308", "--trials",
      "3"], "--interval (-1e+308, 1e+308) must have finite ends and a "
            "finite width"),
    (["kraus", "--interval=-inf,inf", "--trials", "5"],
     "--interval (-inf, inf) must have finite ends and a finite width"),
    (["eval", "--series-file", "lacks.json", "--x-tuple", "identity2"],
     "series file lacks 'parts'"),
    (["eval", "--series-file", "list.json", "--x-tuple", "identity2"],
     "series file is malformed: "),
    *[([command, "--preset", "kraus-halfmass", "--epsilon", "5",
        "--trials", "5"], "epsilon 5 is above the function's radius 2")
      for command in ("convexity", "certify")],
], ids=["points", "wide-interval", "kraus-interval", "series-keys",
        "series-list", "convexity-radius", "certify-radius"])
def test_crashes_are_usage_errors(argv, message, tmp_path, monkeypatch,
                                  capsys):
    # these escaped as RuntimeError, OverflowError, KeyError and
    # AttributeError tracebacks, which exit 1
    # ("falsified"); the infinite Kraus interval printed numpy warnings
    # before its error, and certify beyond the radius wrote a witness
    # that lies where the function is not defined
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lacks.json").write_text('{"signature": {"g_a": 0, "g_x": 1}}')
    (tmp_path / "list.json").write_text("[1, 2]")
    before = sorted(tmp_path.iterdir())
    code, out, err = _main(argv, capsys)
    assert code == 2 and out == ""
    assert _one_error_line(err).startswith(f"error: {message}")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("expr, plain", [
    ("(" * 10000 + "x1" + ")" * 10000, "x1"),
    ("x1" + "'" * 3000, "x1"),
    ("-" * 3001 + "x1", "-x1"),
], ids=["deep-parens", "deep-stars", "deep-minus"])
def test_deep_nesting_evaluates_like_the_plain_expression(expr, plain,
                                                          tmp_path):
    # a recursive-descent parser refused these as nested too deeply
    args = ["eval", "--signature", "0,1", "--x-tuple", "identity2"]
    deep = run_cli([*args, f"--expr={expr}"], tmp_path)
    flat = run_cli([*args, f"--expr={plain}"], tmp_path)
    assert deep.returncode == flat.returncode == 0
    assert deep.stderr == ""
    assert deep.stdout.replace(json.dumps(expr), json.dumps(plain)) \
        == flat.stdout


@pytest.mark.parametrize("argv, message", [
    (["convexity", "--preset", "quartic", "--epsilon", "1e200", "--trials",
      "5"], "trial 0: the defect matrix is not finite"),
    (["convexity1", "--expr", "x1^2", "--size", "1", "--trials", "2",
      "--interval=0,1e308"], "trial 0: the defect matrix is not finite"),
    (["axioms", "--expr", "1.79e308 + 1.79e308*x1^2", "--signature", "0,1",
      "--samples", "5", "--seed", "1"],
     "axioms sample 0: a deviation is not finite"),
    (["eval", "--expr", "x1^2", "--x-tuple", "big.json"],
     "eval: the value is not finite"),
], ids=["convexity", "convexity1", "axioms", "eval"])
def test_an_overflowing_run_prints_one_error_line(argv, message, tmp_path,
                                                  monkeypatch, capsys):
    # numpy's overflow and invalid-value warnings printed before the
    # error line; in-process they raised RuntimeWarning out of main
    monkeypatch.chdir(tmp_path)
    big = np.diag([1e200, 1.0])
    (tmp_path / "big.json").write_text(json.dumps([matrix_to_json(big)]))
    code, out, err = _main(argv, capsys)
    assert code == 2 and out == ""
    assert _one_error_line(err) == f"error: {message}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize("argv", [
    ["convexity", "--trials", "5"],
    ["certify", "--trials", "5", "--samples", "2"],
], ids=lambda a: a[0])
def test_epsilon_equal_to_the_radius_is_allowed(argv, run):
    # certify goes on to find the lift's higher-order terms and exits 1
    r = run([*argv, "--preset", "kraus-halfmass", "--epsilon", "2"])
    assert r.returncode in (0, 1) and r.stderr == ""
    doc = json.loads(r.stdout)
    assert doc["epsilon"] == 2.0
    assert doc.get("convexity", doc)["pass"] is True


@pytest.mark.parametrize("argv, target", [
    (["axioms", "--expr", "x1^2", "--sizes", "1,100000", "--samples", "1"],
     "check_nc_function_axioms"),
    (["convexity", "--expr", "x1^2", "--size", "100000", "--trials", "1"],
     "test_convexity_at_CA"),
], ids=lambda a: a[0] if isinstance(a, list) else None)
@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 149. GiB"),
                                 MemoryError()], ids=["numpy", "bare"])
def test_out_of_memory_exits_two(argv, target, exc, tmp_path, monkeypatch,
                                 capsys):
    # numpy's _ArrayMemoryError printed a traceback and exited 1, the
    # code for "falsified"; the check is stubbed, so nothing allocates
    import ncconvex.cli as cli

    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, target, out_of_memory)
    code, out, err = _main(argv, capsys)
    assert code == 2 and out == ""
    assert _one_error_line(err) == f"error: {str(exc) or 'MemoryError'}"
    assert list(tmp_path.iterdir()) == []


def test_non_finite_loewner_matrix_exits_two(tmp_path, monkeypatch, capsys):
    # x1^3 overflows on (1e150, 1e160); this used to surface as numpy's
    # "Eigenvalues did not converge"
    monkeypatch.chdir(tmp_path)
    code, out, err = _main(["monotone", "--expr", "x1^3", "--interval",
                            "1e150,1e160", "--trials", "5"], capsys)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == ("error: trial 0: the defect matrix is "
                                    "not finite")


@pytest.mark.parametrize("argv, flag", [
    (["certify", "--preset", "square", "--samples", "0"], "--samples"),
    (["convexity", "--preset", "square", "--size", "0"], "--size"),
    (["certify", "--preset", "square", "--size", "0"], "--size"),
    (["convexity1", "--preset", "square", "--size", "0"], "--size"),
    (["kraus", "--size", "0"], "--size"),
    (["axioms", "--preset", "square", "--samples", "0"], "--samples"),
    (["convexity", "--preset", "square", "--multiplicities="],
     "--multiplicities"),
    (["certify", "--preset", "square", "--multiplicities=0,2"],
     "--multiplicities"),
    (["convexity", "--preset", "square", "--multiplicities", "1,x"],
     "--multiplicities"),
    (["axioms", "--preset", "square", "--sizes", "0"], "--sizes"),
    (["axioms", "--preset", "square", "--sizes=-1"], "--sizes"),
    (["axioms", "--preset", "square", "--sizes", ""], "--sizes"),
    (["axioms", "--preset", "square", "--sizes", "2,two"], "--sizes"),
    (["kraus", "--matrix-checks", "0"], "--matrix-checks"),
    (["kraus", "--matrix-checks=-2"], "--matrix-checks"),
    (["kraus", "--sweep-points", "0", "--trials", "5"], "--sweep-points"),
    *[(["certify", "--preset", preset, "--degree-cap", "1", "--trials", "20",
        "--samples", "5", "--witness-out", "w.json"], "degree_cap")
      for preset in ("quartic", "square")],
    (["eval", "--expr", "x1", "--x-tuple", "zero0"], "--x-tuple"),
    # at a cap of 2 no coefficient above degree two is examined, and a
    # negative --tol reads a zero coefficient as high-order; both used to
    # exit 0 with CONSISTENT_DEGREE_LE_2
    (["certify", "--preset", "kraus-halfmass", "--degree-cap", "2",
      "--samples", "4", "--trials", "4", "--seed", "3"], "degree_cap"),
    (["certify", "--preset", "square", "--samples", "5", "--trials", "5",
      "--tol", "-1"], "--tol"),
    (["monotone", "--preset", "square", "--points", "1"], "--points"),
])
def test_zero_work_arguments_are_usage_errors(argv, flag, tmp_path,
                                              monkeypatch, capsys):
    # each used to pass from no work, run at another size, or crash; a
    # degree cap below 2 on the quartic used to fail the convexity stage
    # first and exit 1 with a witness
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mu, message", [
    ("0.5:nan", "weight nan at atom 0.5 is not a finite non-negative number"),
    ("0.5:inf", "weight inf at atom 0.5 is not a finite non-negative number"),
    ("nan:1", "atom nan is not finite"),
])
def test_a_non_finite_measure_is_a_usage_error(mu, message, tmp_path,
                                               monkeypatch, capsys):
    # a NaN weight used to reach the trials as an all-NaN Kraus form
    monkeypatch.chdir(tmp_path)
    code = main(["kraus", "--mu", mu, "--trials", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--f0", "nan"], "--f0 must be a finite number, got nan"),
    (["--f1=inf"], "--f1 must be a finite number, got inf"),
    (["--f2=-inf"], "--f2 must be a finite number, got -inf"),
    (["--interval=-2,2"], "--interval (-2.0, 2.0) must lie inside (-1, 1)"),
    (["--interval=-1,0.5"], "--interval (-1.0, 0.5) must lie inside (-1, 1)"),
    (["--interval", "0,1"], "--interval (0.0, 1.0) must lie inside (-1, 1)"),
    (["--interval", "a,b"], "bad --interval 'a,b', want 'lo,hi'"),
    (["--mu="], "bad --mu '', want 'loc:weight,loc:weight'"),
    (["--mu", "0.5:1:2"], "bad --mu '0.5:1:2', want 'loc:weight,loc:weight'"),
    (["--mu", "half"], "bad --mu 'half', want 'loc:weight,loc:weight'"),
], ids=["f0-nan", "f1-inf", "f2-minus-inf", "interval-wide",
        "interval-at-minus-one", "interval-at-one", "interval-words",
        "mu-empty", "mu-two-colons", "mu-word"])
def test_kraus_refuses_a_bad_flag_by_name(argv, message, tmp_path,
                                          monkeypatch, capsys):
    # these said "the resolvent and spectral routes disagree by nan",
    # "spectrum [-2, -2] not inside (-1, 1)" or "could not convert string
    # to float", naming no flag
    monkeypatch.chdir(tmp_path)
    code = main(["kraus", *argv, "--trials", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["convexity", "--preset", "square", "--trials", "5"],
    ["certify", "--preset", "square", "--trials", "5", "--samples", "5"],
    ["axioms", "--preset", "square", "--samples", "5"],
    ["eval", "--expr", "x1^2", "--x-tuple", "identity2"],
    ["convexity1", "--preset", "square", "--trials", "5"],
    ["monotone", "--preset", "square", "--trials", "5"],
    ["kraus", "--trials", "5"],
], ids=lambda a: a[0] if isinstance(a, list) else a)
def test_a_non_finite_tol_is_a_usage_error(argv, tol, tmp_path, monkeypatch,
                                           capsys):
    # a NaN threshold used to pass nothing and fail without a witness;
    # only certify and axioms still take --tol, and argparse refuses it
    # on the others
    monkeypatch.chdir(tmp_path)
    try:
        code = main([*argv, f"--tol={tol}"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    if argv[0] in ("certify", "axioms"):
        assert err.splitlines() == [f"error: --tol must be a finite number, "
                                    f"got {float(tol)}"]
    else:
        assert err.splitlines()[-1].endswith(
            f"error: unrecognized arguments: --tol={tol}")
    assert list(tmp_path.iterdir()) == []


def test_a_negative_axioms_tol_is_a_usage_error(tmp_path):
    # it failed x1^2 with a counterexample at a deviation of 1.7e-16
    r = run_cli(["axioms", "--preset", "square", "--samples", "3", "--tol",
                 "-1"], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == ("error: --tol must be "
                                         "non-negative, got -1.0")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, rest", [
    (["monotone", "--preset", "square", "--interval=0.1,1", "--trials", "60",
      "--seed", "1", "--tol", "10"], "--tol 10"),
    (["convexity", "--preset", "square", "--trials", "200", "--seed", "1",
      "--tol", "-0.001"], "--tol -0.001"),
    (["convexity1", "--preset", "quartic", "--trials", "5", "--tol=1"],
     "--tol=1"),
    (["kraus", "--trials", "5", "--tol", "1"], "--tol 1"),
    (["eval", "--expr", "x1^2", "--x-tuple", "identity2", "--seed", "5"],
     "--seed 5"),
    (["eval", "--expr", "x1^2", "--x-tuple", "identity2", "--tol", "3"],
     "--tol 3"),
], ids=["monotone-tol", "convexity-tol", "convexity1-tol", "kraus-tol",
        "eval-seed", "eval-tol"])
def test_a_removed_option_is_refused(argv, rest, tmp_path):
    # a falsifier's --tol re-judged its min_eig while the witness cut
    # stayed: the monotone line passed while it printed a witness at
    # min_eig -0.549, the convexity line failed at +9.4e-8 with no
    # witness; eval never read --seed or --tol
    r = run_cli(argv, tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.splitlines()[-1].endswith(
        f"error: unrecognized arguments: {rest}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command", ["convexity", "certify"])
def test_a_non_finite_or_non_positive_epsilon_is_a_usage_error(
        command, epsilon, tmp_path, monkeypatch, capsys):
    # NaN and inf used to reach the x-ball sampler, whose OverflowError
    # printed a traceback and exited 1, the code for "falsified"
    monkeypatch.chdir(tmp_path)
    code = main([command, "--preset", "square", f"--epsilon={epsilon}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --epsilon must be a positive finite "
                                f"number, got {float(epsilon)}"]


@pytest.mark.parametrize("argv", [
    ["convexity", "--expr", "x1^2 - 1e400*x1^4", "--seed", "1"],
    ["eval", "--expr=-(1e200*1e200)*x1", "--x-tuple", "identity2"],
    ["axioms", "--expr", "1e308*x1^2 + 1e308*x1^2", "--samples", "5"],
], ids=["convexity", "eval", "axioms"])
def test_a_coefficient_past_the_float_range_is_a_usage_error(argv, run):
    # convexity passed as the square and eval printed the zero matrix:
    # the NaN the minus sign made of inf was dropped as if it were zero
    r = run(argv)
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == ("error: coefficient (inf+0j) is "
                                         "not finite")


_OVERFLOW = ["--expr", "1.79e308 + 1.79e308*x1^2", "--signature", "0,1"]


@pytest.mark.parametrize("argv", [
    ["eval", "--x-tuple", "identity2"],
    ["convexity", "--trials", "5", "--seed", "1"],
    ["certify", "--trials", "5", "--samples", "5", "--seed", "1"],
    ["monotone", "--trials", "5", "--seed", "1"],
    ["convexity1", "--trials", "5", "--seed", "1"],
    ["axioms", "--samples", "5", "--seed", "1"],
], ids=lambda a: a[0])
def test_values_past_the_float_range_never_pass(argv, tmp_path):
    # axioms used to pass here with both maxima 0.0; as a child process,
    # so numpy's overflow warnings are printed, not raised
    r = run_cli([*argv, *_OVERFLOW], tmp_path)
    assert "Traceback" not in r.stderr
    if r.returncode == 1:
        assert {"witness", "counterexample"} & set(json.loads(r.stdout))
    else:
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.splitlines()[-1].startswith("error: ")


# -- paths the examples above do not reach --------------------------------------


@pytest.mark.parametrize("expr, sig", [
    ("a1*x1*a1 + x1*a1*x1 + x1^2", "1,1"),
    ("x1^4 + 2*x1", "0,1"),
])
def test_series_file_runs_like_its_expression(expr, sig, run, tmp_path):
    g_a, g_x = map(int, sig.split(","))
    p = parse_polynomial(expr, Signature(g_a, g_x))
    (tmp_path / "f.json").write_text(json.dumps(
        NcPowerSeries.from_polynomial(p).to_json_dict()))
    rng = np.random.default_rng(3)
    for name, g in (("a.json", g_a), ("x.json", g_x)):
        mats = [rng.standard_normal((2, 2)) for _ in range(g)]
        (tmp_path / name).write_text(json.dumps(
            [matrix_to_json((m + m.T) / 4) for m in mats]))
    tuples = ["--x-tuple", "x.json"] + (["--a-tuple", "a.json"] if g_a else [])
    by_expr = ["--expr", expr, "--signature", sig]
    results = [json.loads(run(["eval", *fn, *tuples]).stdout)["result"]
               for fn in (by_expr, ["--series-file", "f.json"])]
    got, want = (np.array(r["entries"]) for r in results)
    assert np.max(np.abs(got - want)) <= 1e-12
    for argv in (["convexity", "--trials", "30"],
                 ["certify", "--trials", "20", "--samples", "5"],
                 ["axioms", "--samples", "10"]):
        runs = [run([*argv, "--seed", "4", *fn])
                for fn in (by_expr, ["--series-file", "f.json"])]
        verdicts = [(r.returncode, json.loads(r.stdout).get("pass"),
                     json.loads(r.stdout).get("verdict")) for r in runs]
        assert verdicts[0] == verdicts[1], argv


@pytest.mark.parametrize("argv", [
    ["eval", "--x-tuple", "identity2"],
    ["convexity", "--trials", "5"],
    ["axioms", "--samples", "5"],
    ["certify", "--trials", "5", "--samples", "5"],
], ids=lambda a: a[0])
def test_a_series_part_that_is_not_one_polynomial_is_a_usage_error(
        argv, tmp_path):
    # F's value at size n is n x n, so a part is one polynomial, written
    # as a 1x1 grid; every command refuses another grid before any work
    series = NcPowerSeries.from_polynomial(
        parse_polynomial("x1^2", Signature(0, 1))).to_json_dict()
    terms = series["parts"][2]["entries"][0][0]
    series["parts"][2].update(rows=2, cols=2,
                              entries=[[terms, []], [[], terms]])
    (tmp_path / "f.json").write_text(json.dumps(series))
    r = run_cli([*argv, "--series-file", "f.json"], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == \
        "error: series part 2 is not a 1x1 grid"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


def test_a_series_signature_unlike_its_parts_is_a_usage_error(tmp_path):
    # the file's own signature was ignored, and eval exited 0 with the
    # parts' signature
    series = NcPowerSeries.from_polynomial(
        parse_polynomial("1 + 2*x1", Signature(0, 1))).to_json_dict()
    series["signature"] = {"g_a": 3, "g_x": 7}
    (tmp_path / "s.json").write_text(json.dumps(series))
    r = run_cli(["eval", "--series-file", "s.json", "--x-tuple",
                 "identity2"], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert _one_error_line(r.stderr) == (
        "error: series signature (3, 7) differs from its parts' (0, 1)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_convexity1_expression_defaults_to_the_unit_interval(run):
    r = run(["convexity1", "--expr", "x1^4", "--trials", "20"])
    assert json.loads(r.stdout)["interval"] == [-1.0, 1.0]


_PAUSE_RUNS = [
    (["eval", "--expr", "x1", "--x-tuple", "identity2"], 0),
    (_WITNESS_RUNS["monotone"], 1),
    (["eval", "--x-tuple", "identity2"], 2),
    (["eval", "-h"], SystemExit(0)),
    (["eval", "--no-such-flag"], SystemExit(2)),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code", _PAUSE_RUNS,
                         ids=["exit0", "exit1", "exit2", "help", "unknown"])
def test_main_pauses_the_collector_and_puts_it_back(argv, code, enabled,
                                                    tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    during, parser = [], build_parser()
    parse = parser.parse_args

    def spy(argv):
        during.append(gc.isenabled())
        return parse(argv)

    monkeypatch.setattr(parser, "parse_args", spy)
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(code, SystemExit):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code.code
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False]


_CERTIFY_KRAUS = ["certify", "--preset", "kraus-halfmass", "--seed", "1"]


@pytest.mark.parametrize("short, long", [
    ([*_CERTIFY_KRAUS, "--samples", "200"],
     [*_CERTIFY_KRAUS, "--samples", "2000"]),
    (["eval", "--expr", "x1", "--x-tuple", "identity2"],
     ["eval", "--expr", "x1", "--x-tuple", "identity64"]),
], ids=["certify-samples", "eval-size"])
def test_garbage_left_by_a_run_does_not_grow_with_its_size(short, long,
                                                            tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # the package makes almost no reference cycles, so a run with the
    # collector paused leaves the same few objects at any length or
    # matrix size; `_dump`'s grid swap used to be a closure that called
    # itself, a cycle that held every grid it printed.  The collector
    # stays off until the count, so that no automatic collection after
    # the run takes the garbage first
    monkeypatch.chdir(tmp_path)
    left = []
    gc.disable()
    try:
        for argv in (short, long):
            gc.collect()
            code, _, err = _main(argv, capsys)
            assert code in (0, 1), err
            left.append(gc.collect())
    finally:
        gc.enable()
    assert left[0] == left[1]


@pytest.mark.parametrize("argv, sizes", [
    (["certify", "--preset", "square"], set()),
    (["convexity", "--preset", "kraus-halfmass", "--multiplicities", "1,2,3"],
     set()),
    (["certify", "--preset", "mixed-ax", "--size", "2",
      "--multiplicities", "1,2,3"], {2, 4, 6}),
], ids=["certify-square", "convexity-kraus", "certify-mixed-ax"])
def test_a_free_function_forms_no_haar_unitary(argv, sizes, run,
                                               monkeypatch):
    # every C_A level of an empty A-tuple is the empty tuple, so no QR
    # is run for it; an a-letter still costs one per multiplicity, at
    # matrix size kappa * m
    seen, qr = [], np.linalg.qr

    def counted(M, *args, **kwargs):
        seen.append(M.shape[-1])
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    r = run(argv)
    assert r.returncode == 0, r.stderr
    assert set(seen) == sizes


@pytest.mark.parametrize("argv", [
    ["certify", "--preset", "square", "--samples", "10", "--trials", "10"],
    ["convexity", "--preset", "kraus-halfmass", "--trials", "10"]],
    ids=["certify-square", "convexity-kraus"])
def test_an_a_free_base_tuple_builds_no_generator(argv, run, monkeypatch):
    want = run(argv)
    assert want.returncode == 0, want.stderr

    def drawn(*args):
        raise AssertionError("an A-free base tuple was drawn")

    monkeypatch.setattr(cli, "random_base_tuple", drawn)
    got = run(argv)
    assert (got.returncode, got.stdout) == (0, want.stdout)
