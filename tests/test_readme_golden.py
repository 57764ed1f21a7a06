"""The README's CLI examples against their recorded outputs in
data/readme_golden.json: same exit codes, verdicts, strings and ints,
floats within the tolerance of readme_examples.py; and its library quick
start, run as written."""

import json
import re
import subprocess
import sys
from pathlib import Path

from conftest import _child_env
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


def test_readme_library_quick_start_runs_without_warnings(tmp_path):
    # the README's one `python` block, as a reader would paste it, with
    # every warning an error
    text = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    r = subprocess.run([sys.executable, "-W", "error", "-c", block],
                       capture_output=True, text=True, cwd=tmp_path,
                       env=_child_env(tmp_path))
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
