"""checkin: an airline terminal checks travellers at a member node.

The member runs in its own process on a block log of HISTORY_RECORDS
credentials. Set-up (build the inputs, start the member: its cold start is
the long step, step_p50_ms) is done SETUPS times; the timed phase then
sends whole passes of the seeded request mix over one connection, a closed
loop of one client; one VERIFY request is one operation. The cold start has
COLD_STARTS samples: the set-ups' starts plus restarts of a member on the
logs of set-ups already stopped.
Each pass is one slice between two calibration samples, and the member's
signature memo is emptied before every pass, so repeat checks share work
only within a pass, as at a boarding gate.
"""

from __future__ import annotations

import time
from pathlib import Path

import inputs
from checks import BLOCK_LOG_MAGIC, check_outcome, check_receipt_log, registered_key
from calib import LONG_CHUNKS
from common import NodeProc, Result, close_node
from dhp.core import DhpError
from dhp.ledger import chain_bytes
from dhp.protocol import audit_manifest
from dhp.service import NodeClient
from dhp.storage import ReceiptLog
from tracing import switch

SETUPS = 3
COLD_STARTS = 5
MEANING = {
    "setup_s": "build the history and start the member on it",
    "ops_per_s": "VERIFY requests completed per second (verify_rps)",
    "op_p50_ms": "VERIFY round trip (verify_p50_ms)",
    "step_p50_ms": "member cold start on the history log: full replay, empty memo (start_s, in ms)",
}


def run(seed: int, seconds: float, trace: bool, work: Path, cal, tracer) -> Result:
    res = Result()
    nodes: list[NodeProc] = []
    try:
        history = member = None
        for k in range(SETUPS):
            traced = trace and (k % 2 == 0 or k == SETUPS - 1)
            before = cal.sample(LONG_CHUNKS)
            m0 = cal.mark()
            built = inputs.build_history(seed)
            config = inputs.write_history(built, work / f"setup{k}")
            node = NodeProc(config, f"member{k}", traced)
            nodes.append(node)
            m1 = cal.mark(end=True)
            after = cal.sample(LONG_CHUNKS)
            res.figures(traced).time("setup_s", m1.wall - m0.wall, cal.ratio(m0, m1, node.ready_cpu, before, after))
            res.figures(traced).time("step_p50_ms", node.start_s, node.start_ratio(cal.factor(before, after)), 1e3)
            if history is not None and chain_bytes(built.state) != chain_bytes(history.state):
                res.problems.append(f"set-up {k} built another history from the same seed")
            if k < SETUPS - 1:
                close_node(node, traced, work, res)
            history, member = built, node
        # More cold starts, on the logs of the set-ups already stopped.
        for k in range(COLD_STARTS - SETUPS):
            traced = trace and k % 2 == 1
            before = cal.sample(LONG_CHUNKS)
            node = NodeProc(work / f"setup{k}" / "member.cfg", f"restart{k}", traced)
            nodes.append(node)
            factor = cal.factor(before, cal.sample(LONG_CHUNKS))
            res.figures(traced).time("step_p50_ms", node.start_s, node.start_ratio(factor), 1e3)
            close_node(node, traced, work, res)

        expected: list[tuple[bytes, int, int, int]] = []
        client = NodeClient.connect("127.0.0.1", member.port, key=history.member, registry=history.registry)
        try:
            deadline = time.perf_counter() + seconds
            before = cal.sample()
            passes = 0
            while passes < 2 or time.perf_counter() < deadline:
                traced = trace and passes % 2 == 0
                cpu0 = member.call("slice_start", trace=traced)["cpu"]
                switch(tracer, traced)
                latencies = []
                m0 = cal.mark()
                for check in history.checks:
                    s = time.perf_counter()
                    try:
                        outcome, receipt = client.verify(check.token, check.doc, check.at)
                    except (DhpError, OSError) as exc:
                        res.failed += 1
                        res.notes.append(f"check failed: {exc}")
                        continue
                    latencies.append(time.perf_counter() - s)
                    expected.append((check.token.header_hash, check.token.record_index, check.status.value, check.at))
                    res.problems.extend(check_outcome(check, outcome, receipt))
                m1 = cal.mark(end=True)
                switch(tracer, False)
                cpu1 = member.call("slice_end")["cpu"]
                after = cal.sample()
                ratio = cal.ratio(m0, m1, cpu1 - cpu0, before, after)
                # A round trip is scaled by the kernel alone (see calib.py).
                factor = cal.factor(before, after)
                before = after
                fig = res.figures(traced)
                fig.rate("ops_per_s", len(history.checks), m1.wall - m0.wall, ratio)
                for latency in latencies:
                    fig.time("op_p50_ms", latency, factor, 1e3)
                res.attempted += len(history.checks)
                res.ops += len(history.checks) if traced else 0
                passes += 1
        finally:
            client.close()
        close_node(member, trace, work, res)

        data = config.parent / "member-data"
        registry_text = (config.parent / "registry.txt").read_text()
        member_id = history.member.owner.id
        res.problems.extend(check_receipt_log(
            data / "receipts.log", expected, registered_key(registry_text, "BM", member_id), member_id))
        receipts = ReceiptLog(data / "receipts.log").read_all(history.registry)
        manifest = sorted({(h, i) for h, i, _, _ in expected})
        missing = audit_manifest(receipts, manifest, history.registry)
        if missing:
            res.problems.append(f"audit_manifest reports {len(missing)} of {len(manifest)} entries missing")
        res.notes.append(f"history: {inputs.HISTORY_RECORDS} credentials in {history.state.height} blocks; "
                         f"{passes} passes of {len(history.checks)} checks; {len(receipts)} receipts")
        res.extra = {
            "history_records": inputs.HISTORY_RECORDS,
            "log_bytes_per_record": ((data / "blocks.log").stat().st_size - len(BLOCK_LOG_MAGIC))
            / inputs.HISTORY_RECORDS,
            "wire_kind": "verify",
        }
        return res
    finally:
        for node in nodes:
            node.close()
