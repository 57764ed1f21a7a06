"""The falsifier runs of falsify_examples.py against their outputs in
data/falsify_golden.json: exit codes, stdout, stderr, witness and CSV
files, trial_min_eigs and reports, byte for byte."""

import json
from pathlib import Path

from ncconvex import convexity

from falsify_examples import (CLI_EXAMPLES, DEFAULT_WITNESS, WITNESS,
                              _library_runs, run_cli, run_library)

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "falsify_golden.json").read_text())


def test_cli_runs_are_byte_identical(tmp_path, monkeypatch, dump_spy):
    assert [rec["argv"] for rec in GOLDEN["cli"]] == CLI_EXAMPLES
    monkeypatch.chdir(tmp_path)
    for rec in GOLDEN["cli"]:
        assert run_cli(rec["argv"]) == rec, rec["argv"]
    assert len(dump_spy) >= len(GOLDEN["cli"])


def test_a_witness_comes_exactly_with_a_falsified_run():
    # read from the recorded runs: a run that passes prints no witness
    # and writes no file, and every falsified run wrote the witness it
    # prints (kraus prints its report under "convexity")
    for rec in GOLDEN["cli"]:
        if "--verify-witness" in rec["argv"] or rec["exit"] == 2:
            continue
        doc = json.loads(rec["stdout"])
        report = doc.get("convexity", doc)
        if rec["exit"] == 0:
            assert not {"witness", "witness_file"} & (set(doc) | set(report))
            assert WITNESS not in rec["files"], rec["argv"]
            continue
        assert rec["exit"] == 1 and doc["pass"] is False, rec["argv"]
        path = WITNESS if "--witness-out" in rec["argv"] else DEFAULT_WITNESS
        assert doc["witness_file"] == path, rec["argv"]
        written = json.loads(rec["files"][path])
        assert written["witness"] == report["witness"], rec["argv"]


def test_library_reports_are_byte_identical():
    runs = _library_runs()
    assert [rec["name"] for rec in GOLDEN["library"]] == [n for n, _ in runs]
    for rec, (name, thunk) in zip(GOLDEN["library"], runs):
        assert run_library(name, thunk) == rec, name


# every run above has at most 200 samples per level, one chunk at
# CHUNK = 256; at the chunk size the golden data was recorded at they
# cross chunk boundaries again, at 64, 128 and 192
def test_cli_runs_are_byte_identical_at_chunk_64(tmp_path, monkeypatch,
                                                 dump_spy):
    monkeypatch.setattr(convexity, "CHUNK", 64)
    test_cli_runs_are_byte_identical(tmp_path, monkeypatch, dump_spy)


def test_library_reports_are_byte_identical_at_chunk_64(monkeypatch):
    monkeypatch.setattr(convexity, "CHUNK", 64)
    test_library_reports_are_byte_identical()
