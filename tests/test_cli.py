"""CLI: exit codes, JSON shape, witness files, determinism."""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cli_help_examples import (ARGPARSE_ERRORS, HELP, USAGE_ERRORS,
                               run_case)
from conftest import run_cli
from ncconvex.cli import _dump, main
from ncconvex.tuples import matrix_to_json

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


def test_axioms_subcommand(run):
    r = run(["axioms", "--expr", "x1^2", "--signature", "0,1",
             "--samples", "25"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["pass"] is True


def test_usage_errors_exit_two(tmp_path):
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


def test_main_builds_only_the_chosen_subcommands_flags(monkeypatch, capsys):
    # one flag per add_argument: the chosen subcommand's, its -h and the
    # top level's -h; with the subcommand first, no other is registered
    import argparse
    added, add = [], argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    assert main(["eval", "--expr", "x1", "--x-tuple", "identity1"]) == 0
    assert sorted(set(added) - {("-h", "--help")}) == sorted(
        [("--expr",), ("--signature",), ("--preset",), ("--series-file",),
         ("--a-tuple",), ("--x-tuple",), ("--seed",), ("--json-out",),
         ("--tol",)])
    assert len(added) == 2 + 9


def test_a_flag_before_the_subcommand_registers_them_all(monkeypatch):
    # argparse's top-level help and errors then see every subcommand, and
    # the named one still gets its flags
    import argparse
    added, add = [], argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_case(["-h", "eval"]) == {**HELP_GOLDEN["help"][0],
                                        "argv": ["-h", "eval"]}
    r = run_case(["--bogus", "eval", "--expr", "x1", "--x-tuple", "identity1"])
    assert r["exit"] == 2 and r["stdout"] == ""
    assert r["stderr"].endswith("error: unrecognized arguments: --bogus\n")
    assert len(added) == 2 * (8 + 9)


def test_help_and_argparse_errors_are_byte_identical(monkeypatch):
    # every subcommand's flags are built only when it is the one chosen
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
])
def test_zero_work_arguments_are_usage_errors(argv, flag, tmp_path,
                                              monkeypatch, capsys):
    # each used to pass from no work, run at another size, or crash
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), err
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
    # a NaN threshold used to pass nothing and fail without a witness
    monkeypatch.chdir(tmp_path)
    code = main([*argv, f"--tol={tol}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --tol must be a finite number, "
                                f"got {float(tol)}"]
    assert list(tmp_path.iterdir()) == []
