"""dhp benchmark: check-in, registration and the simulator at reference host speed.

    python3 perfbench/run.py --workload checkin|register|sim --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; dhp is imported from its src/. Prints a
provenance header, a table of every metric (raw and at reference host
speed, see calib.py), and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. Every workload reports the
same metrics, E2E below, each standing for what that workload does (its
MEANING). With --trace 0 the metrics are those end-to-end figures; with
--trace 1 they are the per-layer figures of the traced slices named in
tracing.PER_LAYER (the table gives every per-layer figure the workload
measured, and the tracing overhead: traced minus untraced slices of the
same run). Exits 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

from common import OUT, BenchError, git_commit, load_dhp, median, pin_to_one_cpu, tail

#: The end-to-end metrics of every workload, with their units. setup_s is
#: the set-up; ops_per_s the timed phase's operations per second; op_p50_ms
#: the median time of one operation; step_p50_ms the median of the
#: workload's long step. Each workload's MEANING says what they measure there.
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "step_p50_ms": "ms"}
E2E = tuple(UNITS)
#: Latencies whose tail is printed beside the median, for reference.
TAILS = ("op_p50_ms", "step_p50_ms")


def header(args, cryptography_version: str, pinned: str) -> None:
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# host nproc={os.cpu_count()} python={platform.python_version()} "
          f"cryptography={cryptography_version} commit={git_commit()} affinity={pinned}")


def e2e_table(res, meaning: dict) -> dict:
    """Print raw and reference-speed medians; return the reported metrics."""
    fig = res.plain
    print(f"{'metric':<14}{'unit':<6}{'raw':>14}{'ref-speed':>14}{'samples':>9}  what")
    metrics = {}
    for name in E2E:
        raw, ref = median(fig.raw(name)), median(fig.ref(name))
        print(f"{name:<14}{UNITS[name]:<6}{raw:>14.6g}{ref:>14.6g}{len(fig.ref(name)):>9}  {meaning[name]}")
        metrics[name] = {"value": ref, "unit": UNITS[name]}
        if name in TAILS and tail(fig.ref(name)):
            label, value = tail(fig.ref(name))
            _, raw_value = tail(fig.raw(name))
            print(f"  tail {label}: {raw_value:.6g} ms raw, {value:.6g} ms at ref speed "
                  f"(n={len(fig.ref(name))}; reference only)")
    return metrics


def overhead_table(res) -> None:
    print("tracing overhead, at reference speed (traced minus untraced slices of this run):")
    for name in E2E:
        if name in res.traced.samples and name in res.plain.samples:
            traced, plain = median(res.traced.ref(name)), median(res.plain.ref(name))
            print(f"  {name:<14}{traced:>12.6g} - {plain:<12.6g}= {traced - plain:+.6g} {UNITS[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("checkin", "register", "sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_dhp()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import cryptography

    import checkin
    import register
    import sim
    from calib import REF_UNITS_PER_S, Calibrator
    from dhp.core import DhpError
    from tracing import PER_LAYER, Merged, Tracer, layer_metrics

    workload = {"checkin": checkin, "register": register, "sim": sim}[args.workload]
    cpu = pin_to_one_cpu()
    header(args, cryptography.__version__, "unpinned" if cpu is None else f"cpu{cpu}")
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cal = Calibrator(cpu)
    tracer = None
    if args.trace:
        tracer = Tracer("client")
        tracer.install()
        tracer.phase = "timed"
    try:
        res = workload.run(args.seed, args.seconds, bool(args.trace), work, cal, tracer)
        if tracer is not None:
            res.summaries.append(tracer.dump(work / "trace-client.jsonl"))
            with open(OUT / f"trace-{args.workload}-{args.seed}.jsonl", "w") as out:
                for part in sorted(work.glob("trace-*.jsonl")):
                    out.write(part.read_text())
    except (BenchError, DhpError, OSError) as exc:
        print(f"perfbench: {args.workload} did not run to its end: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    print(f"# reference speed: nominal {REF_UNITS_PER_S:g} kernel units per CPU second; host.ref_per_s "
          f"median {median(cal.rates):.6g} (min {min(cal.rates):.6g}, max {max(cal.rates):.6g}, "
          f"n={len(cal.rates)})")
    print(f"# timed wall time {cal.wall:.3f} s: {cal.cpu / cal.wall:.1%} CPU time of the benchmark's processes, "
          f"{cal.stolen / cal.wall:.1%} stolen, {1 - (cal.cpu + cal.stolen) / cal.wall:.1%} other waits")
    for note in res.notes[:10]:
        print(f"# {note}")
    if args.trace:
        overhead_table(res)
        res.extra["ref_per_s"] = median(cal.rates)
        merged = Merged(res.summaries)
        layers = layer_metrics(merged, res.ops, res.blocks, res.extra)
        hits, misses = merged.n("crypto.memo.hits"), merged.n("crypto.memo.misses")
        print(f"per-layer, traced slices ({res.ops} operations, {res.blocks} blocks; "
              f"memo {hits} hits of {hits + misses} lookups; {sum(s['spans'] for s in res.summaries)} spans "
              f"in {OUT.name}/trace-{args.workload}-{args.seed}.jsonl):")
        for name, (value, unit) in layers.items():
            shown = "idle" if value is None else f"{value:.6g}"
            print(f"  {name:<42}{shown:>14} {unit}")
        unmeasured = [name for name in PER_LAYER if layers[name][0] is None]
        if unmeasured:
            print(f"perfbench: {args.workload} did not measure {', '.join(unmeasured)}", file=sys.stderr)
            return 1
        metrics = {name: {"value": layers[name][0], "unit": layers[name][1]} for name in PER_LAYER}
    else:
        metrics = e2e_table(res, workload.MEANING)
    for problem in res.problems[:10]:
        print(f"INCORRECT: {problem}")
    correct = not res.problems
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
