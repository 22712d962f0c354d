"""Host one dhp node in its own process for the benchmark.

    python3 perfbench/node_proc.py --config NODE.cfg --label NAME --trace 0|1

Builds the node from its config file the way `dhp hsa run` / `dhp bm run`
do, times the construction (for a member on an existing block log, that is
the cold start: full replay with an empty signature memo), starts serving,
prints one JSON ready line (with the wall and CPU time of the
construction and the CPU time of the process so far) and then answers one
JSON line per command read from stdin:

    slice_start {trace}  empty the memo; trace the slice or not; CPU time
    slice_end            stop tracing; book the slice's memo hits and
                         misses; CPU time
    propose              HsaNode.propose_once(); its wall time and the block
    dump {path}          write spans to path; reply with the trace summary
    stop                 stop the node and exit
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import BenchError, load_dhp, memo_clear, memo_stats


def reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        load_dhp()
    except BenchError as exc:
        reply({"error": str(exc)})
        return 2
    from dhp.service import build_node, parse_node_config

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.label)
        tracer.install()
        tracer.on = True
    config = parse_node_config(Path(args.config).read_text(), base_dir=Path(args.config).parent)
    memo_clear()
    c0, t0 = time.process_time(), time.perf_counter()
    node = build_node(config)
    start_s, start_cpu = time.perf_counter() - t0, time.process_time() - c0
    node.start()
    if tracer is not None:
        tracer.on = False
        tracer.phase = "timed"
    reply({"ready": True, "port": node.address[1], "start_s": start_s, "start_cpu": start_cpu,
           "cpu": time.process_time()})

    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            name = cmd["cmd"]
            if name == "slice_start":
                memo_clear()
                if tracer is not None:
                    tracer.on = bool(cmd["trace"])
                reply({"ok": True, "cpu": time.process_time()})
            elif name == "slice_end":
                if tracer is not None and tracer.on:
                    tracer.on = False
                    hits, misses = memo_stats()
                    tracer.count("crypto.memo.hits", hits)
                    tracer.count("crypto.memo.misses", misses)
                reply({"ok": True, "cpu": time.process_time()})
            elif name == "propose":
                t0 = time.perf_counter()
                block = node.propose_once()
                elapsed = time.perf_counter() - t0
                reply({
                    "ok": True,
                    "seconds": elapsed,
                    "height": None if block is None else block.header.height,
                    "records": 0 if block is None else len(block.records),
                })
            elif name == "dump":
                summary = tracer.dump(Path(cmd["path"])) if tracer is not None else None
                reply({"ok": True, "summary": summary})
            elif name == "stop":
                node.stop()
                reply({"ok": True})
                return 0
            else:
                reply({"error": f"unknown command {name!r}"})
    except Exception as exc:  # report to the parent, which fails the run
        reply({"error": f"{type(exc).__name__}: {exc}"})
        node.stop()
        return 1
    node.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
