"""Shared plumbing for the benchmark: locating the dhp sources in the
checkout, the signature memo, order statistics, and the parent side of a
node hosted in its own process (see node_proc.py)."""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


class BenchError(Exception):
    """The benchmark could not run to its end."""


def load_dhp():
    """Import dhp from this checkout's sources, never from an installed copy."""
    if not (SRC / "dhp" / "__init__.py").is_file():
        raise BenchError(f"no dhp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dhp

    if Path(dhp.__file__).resolve().parent != SRC / "dhp":
        raise BenchError(f"imported dhp from {dhp.__file__}, not from {SRC}")
    return dhp


def pin_to_one_cpu() -> int | None:
    """Run this process, and the node processes it starts, on one CPU.

    The calibration kernel runs in this process; pinned, it measures the
    very CPU the timed work runs on, and the CPU times of the processes
    never overlap (see calib.py). Changes only this process's own
    affinity. Returns the CPU, or None where pinning is not possible."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def memo_clear() -> None:
    """Empty the signature memo, if this version of dhp still has one."""
    from dhp import crypto

    memo = getattr(crypto, "_verify_cached", None)
    if memo is not None and hasattr(memo, "cache_clear"):
        memo.cache_clear()


def memo_stats() -> tuple[int, int]:
    """(hits, misses) of the signature memo since it was last cleared."""
    from dhp import crypto

    memo = getattr(crypto, "_verify_cached", None)
    if memo is None or not hasattr(memo, "cache_info"):
        return 0, 0
    info = memo.cache_info()
    return info.hits, info.misses


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values) -> tuple[str, float] | None:
    """Highest of p99.9, p99, p90 with at least ten samples beyond it
    (nearest rank); None below forty samples, where no tail is meaningful."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for label, p in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)):
        if n * (1 - p) >= 10:
            return label, ordered[min(n - 1, math.ceil(p * n) - 1)]
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class NodeProc:
    """A dhp node running in a child process, driven by JSON lines.

    Each node whose work is timed gets its own process, so no two of them
    share the process-wide signature memo.
    """

    def __init__(self, config: Path, label: str, trace: bool, timeout: float = 120.0):
        self.label = label
        env = {k: v for k, v in os.environ.items() if k != "DHP_DATA_DIR"}
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "node_proc.py"),
             "--config", str(config), "--label", label, "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
            env=env,
            cwd=ROOT,
        )
        self._buf = b""
        try:
            ready = self._read(timeout)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()
            self._proc.stdin.close()
            raise
        self.port: int = ready["port"]
        # Construction of the node (for a member on a history: its cold
        # start), and the CPU the whole process used until it was ready.
        self.start_s: float = ready["start_s"]
        self.start_cpu: float = ready["start_cpu"]
        self.ready_cpu: float = ready["cpu"]

    def start_ratio(self, factor: float) -> float:
        """Reference time / wall time of the node's construction."""
        return self.start_cpu * factor / self.start_s

    def _read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{self.label}: no reply within {timeout} s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(f"{self.label}: node process exited ({self._proc.poll()})")
                self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"{self.label}: {reply['error']}")
        return reply

    def call(self, cmd: str, timeout: float = 60.0, **args) -> dict:
        self._proc.stdin.write((json.dumps({"cmd": cmd, **args}) + "\n").encode())
        return self._read(timeout)

    def close(self) -> None:
        """Stop the node and wait for its process; kill it if it hangs."""
        if self._proc.poll() is None:
            try:
                self.call("stop", timeout=20.0)
            except (BenchError, OSError, ValueError):
                pass
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


def close_node(node: NodeProc, traced: bool, work: Path, res: "Result") -> None:
    """Stop a node process; from a traced one, collect its trace first."""
    if traced:
        path = work / f"trace-{node.label}-{id(node)}.jsonl"
        res.summaries.append(node.call("dump", path=str(path))["summary"])
    node.close()


class Result:
    """What one workload run produced: operation counts, correctness
    problems, end-to-end samples (untraced and traced slices apart), per-layer
    metrics and reference notes."""

    def __init__(self) -> None:
        from calib import Figures

        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.plain = Figures()
        self.traced = Figures()
        self.notes: list[str] = []
        # For the per-layer metrics of a traced run: the trace summaries of
        # the node processes, the operations and blocks of the traced slices,
        # and figures the workload measured itself.
        self.summaries: list[dict] = []
        self.ops = 0
        self.blocks = 0
        self.extra: dict = {}

    def figures(self, traced: bool):
        return self.traced if traced else self.plain
