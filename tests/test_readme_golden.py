"""The README's CLI examples against their recorded outputs in
data/readme_golden.json: same exit codes, verdicts, strings and ints,
floats within the tolerance of readme_examples.py."""

import json
from pathlib import Path

from readme_examples import EXAMPLES, mismatches, run_example

GOLDEN = Path(__file__).parent / "data" / "readme_golden.json"


def test_readme_examples_match_golden(tmp_path, monkeypatch, dump_spy):
    golden = json.loads(GOLDEN.read_text())
    assert [rec["argv"] for rec in golden] == [list(a) for a in EXAMPLES]
    monkeypatch.chdir(tmp_path)
    for rec in golden:
        code, out = run_example(rec["argv"])
        assert code == rec["exit"], rec["argv"]
        bad = mismatches(json.loads(out), rec["stdout"])
        assert not bad, (rec["argv"], bad[:5])
    assert len(dump_spy) >= len(golden)
