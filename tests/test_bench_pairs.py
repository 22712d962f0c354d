"""tools/bench_pairs.py records why a benchmark run failed, run against
fake checkouts whose perfbench/run.py fails in a known way."""

import argparse
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# A run that finished but found a wrong output: its result line says so.
INCORRECT_RUN = """\
import sys
print("INCORRECT: replicas are not consistent")
print('{"correct": false, "attempted": 2, "failed": 0, "metrics": {}}')
print("seed " + sys.argv[sys.argv.index("--seed") + 1] + " was wrong", file=sys.stderr)
sys.exit(1)
"""

# A run that stops on an error with seed 2 and is correct with any other.
STOPPED_RUN = """\
import json, sys
seed = sys.argv[sys.argv.index("--seed") + 1]
if seed == "2":
    print("# perfbench workload=sim")
    sys.exit("perfbench: sim did not run to its end: disk full")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {}}))
"""


def checkout(root: Path, script: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(script)
    return root


def test_each_failed_run_is_recorded_with_its_side_pair_exit_code_and_output(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    sides = {"parent": checkout(tmp_path / "parent", INCORRECT_RUN), "change": checkout(tmp_path / "change", STOPPED_RUN)}
    out = bench_pairs.bench_workload(sides, "sim", argparse.Namespace(pairs=2, seconds=0.1), [])
    assert out["correct"] == {"parent": False, "change": False}
    incorrect = ["INCORRECT: replicas are not consistent"]
    assert out["errors"] == [
        {"side": "parent", "pair": 1, "seed": 1, "exit": 1, "stderr": "seed 1 was wrong", "incorrect": incorrect},
        {"side": "change", "pair": 2, "seed": 2, "exit": 1,
         "stderr": "perfbench: sim did not run to its end: disk full", "incorrect": []},
        {"side": "parent", "pair": 2, "seed": 2, "exit": 1, "stderr": "seed 2 was wrong", "incorrect": incorrect},
    ]


# Seven code lines: the import, the class and def lines, both lines of the
# string assigned to x, and both lines of the return.
SOURCE = '''"""A module docstring
on two lines."""

# a comment
import os  # and a trailing one


class A:
    """A class docstring."""

    x = """a string that is not
    a docstring"""

    def f(self):
        """A function
        docstring."""
        return (os.sep +
                "")
'''


def test_code_lines_leave_out_comments_blank_lines_and_docstrings(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(SOURCE)
    assert bench_pairs.source_lines_by_file(tmp_path) == {"pkg/mod.py": 18}
    assert bench_pairs.code_lines_by_file(tmp_path) == {"pkg/mod.py": 7}
