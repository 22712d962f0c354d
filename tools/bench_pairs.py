"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--pairs 10] [--seconds 20] [--workloads checkin,register,sim]

Exports REV with `git archive` into a temporary directory, then, for each
workload, runs `perfbench/run.py` there and in the working tree in
alternating pairs (pair i uses seed i; the side that runs first swaps every
pair), and one traced run per side. Writes one JSON file: per workload and
end-to-end metric of BENCHMARK.json, the parent and change medians and
quartiles, every run's value and how many pairs the change won; the traced
per-layer figures; each run that was incorrect or did not finish (errors:
its side, pair, seed, exit code, stderr tail and INCORRECT: lines); the line
count of src/**/*.py on each side, in total (src_lines) and per file
(src_lines_by_file); and the commits, host, Python and `cryptography`
versions. Nothing under perfbench/ is changed; exits 1 if any run was
incorrect or did not finish.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The tree of rev, unpacked into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def source_lines_by_file(checkout: Path) -> dict[str, int]:
    """Lines in each of the checkout's src/**/*.py, by path under src/."""
    src = checkout / "src"
    return {
        path.relative_to(src).as_posix(): len(path.read_bytes().splitlines())
        for path in sorted(src.rglob("*.py"))
    }


#: Characters of a failed run's stderr kept in its error record.
STDERR_TAIL = 2000


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its result line, or {"correct": False} when it
    printed none. A run that was not correct or did not finish also gets an
    "error": its seed, exit code, the tail of its stderr and its
    INCORRECT: lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False}
    if result.get("correct") is not True or proc.returncode != 0:
        result["error"] = {
            "seed": seed,
            "exit": proc.returncode,
            "stderr": proc.stderr.strip()[-STDERR_TAIL:],
            "incorrect": [line for line in lines if line.startswith("INCORRECT:")],
        }
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def bench_workload(sides: dict[str, Path], workload: str, args, metrics: list[dict]) -> dict:
    """The paired runs of one workload, then a traced run per side. "errors"
    lists every run that was not correct or did not finish, with its side
    and pair ("traced" for a traced run); it is empty when none failed."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    errors: list[dict] = []
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for side in order:
            result = run(sides[side], workload, pair + 1, args.seconds, 0)
            runs[side].append(result)
            if "error" in result:
                errors.append({"side": side, "pair": pair + 1, **result["error"]})
        print(f"{workload}: pair {pair + 1} of {args.pairs} done", file=sys.stderr, flush=True)
    out: dict = {
        "correct": {side: all(r.get("correct") is True for r in runs[side]) for side in sides},
        "attempted": {side: sum(r.get("attempted", 0) for r in runs[side]) for side in sides},
        "failed": {side: sum(r.get("failed", 0) for r in runs[side]) for side in sides},
        "errors": errors,
        "metrics": {},
    }
    if not all(out["correct"].values()):
        return out
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: summary(values[side]) for side in sides},
            "change_better_pairs": wins,
        }
    traced = {side: run(sides[side], workload, 1, args.seconds, 1) for side in sides}
    errors.extend({"side": side, "pair": "traced", **traced[side]["error"]} for side in sides if "error" in traced[side])
    out["per_layer"] = {
        side: {name: m["value"] for name, m in traced[side].get("metrics", {}).items()} for side in sides
    }
    out["correct"] = {side: out["correct"][side] and traced[side].get("correct") is True for side in sides}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_10.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default="checkin,register,sim")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(args.parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        src_lines_by_file = {side: source_lines_by_file(path) for side, path in sides.items()}
        workloads = {
            w: bench_workload(sides, w, args, manifest["end_to_end"]) for w in args.workloads.split(",")
        }
    report = {
        "parent": git("rev-parse", args.parent),
        "change": {"base": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(), "system": platform.platform()},
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": list(range(1, args.pairs + 1)),
        "src_lines": {side: sum(lines.values()) for side, lines in src_lines_by_file.items()},
        "src_lines_by_file": src_lines_by_file,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(all(w["correct"].values()) for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
