"""sim: the seeded consortium simulator, run as `dhp sim run` runs it.

No sockets and no disk: every replica re-appends every block and
check_consistency verifies every token on every node, so ledger and netsim
carry the load. Each run is one slice between two calibration samples, with
the signature memo emptied before it; every run of a seed must print the
same report. A run is the long step; its credentials are the operations,
so all three timed metrics are views of the one run time.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import inputs
from checks import check_sim
from common import Result, median, memo_clear, memo_stats
from dhp import cli
from dhp.netsim import parse_sim_config
from tracing import switch

SETUP_SLICES = 9
SETUPS_PER_SLICE = 200
MEANING = {
    "setup_s": "make and parse the simulator config",
    "ops_per_s": "credentials simulated per second of dhp sim run",
    "op_p50_ms": "one credential's share of a dhp sim run",
    "step_p50_ms": "one dhp sim run (sim_s, in ms)",
}


def run(seed: int, seconds: float, trace: bool, work: Path, cal, tracer) -> Result:
    res = Result()
    sim = inputs.SIM
    # Set-up is making the config text and parsing it, as `dhp sim run`
    # does. One set-up takes well under a millisecond, less than the caches
    # need to recover from a calibration sample, so set-ups are timed in
    # slices of SETUPS_PER_SLICE and each slice gives their mean. Writing
    # the file that `dhp sim run` reads is left out: creating a file in the
    # checkout costs ten times the parse and varies threefold between runs.
    for k in range(SETUP_SLICES):
        before = cal.sample()
        m0 = cal.mark()
        for j in range(SETUPS_PER_SLICE):
            parse_sim_config(inputs.sim_config_text(seed))
        m1 = cal.mark(end=True)
        ratio = cal.ratio(m0, m1, 0.0, before, cal.sample())
        res.figures(trace and k % 2 == 0).time("setup_s", (m1.wall - m0.wall) / SETUPS_PER_SLICE, ratio)

    config = work / "sim.cfg"
    config.write_text(inputs.sim_config_text(seed))
    credentials = sim["rounds"] * sim["num_hsa"] * sim["submission_rate"]
    first_report = None
    main_times = []
    deadline = time.perf_counter() + seconds
    before = cal.sample()
    runs = 0
    while runs < 2 or time.perf_counter() < deadline:
        traced = trace and runs % 2 == 0
        export = work / f"report{runs}.txt"
        out = io.StringIO()
        memo_clear()
        switch(tracer, traced)
        m0 = cal.mark()
        with redirect_stdout(out):
            rc = cli.main(["sim", "run", "--config", str(config), "--export", str(export)])
        m1 = cal.mark(end=True)
        elapsed = m1.wall - m0.wall
        switch(tracer, False)
        if tracer is not None and traced:
            hits, misses = memo_stats()
            tracer.count("crypto.memo.hits", hits)
            tracer.count("crypto.memo.misses", misses)
        after = cal.sample()
        ratio = cal.ratio(m0, m1, 0.0, before, after)
        before = after
        fig = res.figures(traced)
        fig.time("step_p50_ms", elapsed, ratio, 1e3)
        fig.time("op_p50_ms", elapsed / credentials, ratio, 1e3)
        fig.rate("ops_per_s", credentials, elapsed, ratio)
        report = export.read_text() if export.exists() else ""
        res.problems.extend(check_sim(rc, out.getvalue(), report, sim["num_hsa"], sim["num_bm"],
                                      sim["rounds"], sim["submission_rate"], sim["max_delay"]))
        if first_report is None:
            first_report = report
        elif report != first_report:
            res.problems.append(f"run {runs} of the same seed exported another report")
        export.unlink(missing_ok=True)
        res.attempted += 1
        if traced:
            main_times.append(elapsed)
            res.ops += credentials
            res.blocks += int(out.getvalue().split("final heights: ")[1].split("=")[1].split(",")[0])
        runs += 1

    res.notes.append(f"{runs} runs of {credentials} credentials each "
                     f"({sim['num_hsa']} authorities, {sim['num_bm']} members, uniform:{sim['max_delay']} delay)")
    if tracer is not None:
        inner = tracer.durations.get("timed|netsim.run_simulation", [])
        overheads = [(m - i) * 1e3 for m, i in zip(main_times, inner)]
        if overheads:
            res.extra["cli_overhead_ms"] = median(overheads)
    return res
