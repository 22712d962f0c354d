"""Spans and counts around dhp's public calls, installed from the benchmark.

The program's own source stays untouched: the tracer replaces each target
function in every dhp module that binds it (and each target method on its
class) with a wrapper that counts calls and busy time and, for coarse
calls, records a span (name, start, end, parent, request id). Spans stay in
memory until dump() writes them out. A span's request id is the id of the
root span on its thread, so the spans of one request share it.

Counts are kept only while the tracer is on, and keyed by phase, so the
per-operation ratios cover exactly the traced slices of the timed phase.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

MESSAGE_NAMES = {
    0x10: "submit", 0x12: "get_token", 0x20: "get_block", 0x22: "get_head",
    0x30: "verify", 0x40: "announce",
}

# (module, attribute, metric name, keeps spans). An attribute "Cls.meth"
# is a method; a plain name is replaced wherever a dhp module binds it.
TARGETS = (
    ("dhp.core", "record_signing_bytes", "core.record_signing_bytes", False),
    ("dhp.crypto", "verify_sig", "crypto.verify_sig", False),
    ("dhp.crypto", "sign", "crypto.sign", False),
    ("dhp.crypto", "commit", "crypto.commit", False),
    ("dhp.ledger", "merkle_root", "ledger.merkle_root", True),
    ("dhp.ledger", "propose_block", "ledger.propose_block", True),
    ("dhp.ledger", "validate_block", "ledger.validate_block", True),
    ("dhp.ledger", "append_block", "ledger.append_block", True),
    ("dhp.ledger", "parse_block", "ledger.parse_block", True),
    ("dhp.ledger", "lookup_by_token", "ledger.lookup_by_token", True),
    ("dhp.protocol", "bm_verify", "protocol.bm_verify", True),
    ("dhp.protocol", "thf_issue", "protocol.thf_issue", True),
    ("dhp.storage", "replay_block_log", "storage.replay", True),
    ("dhp.storage", "BlockLog.append", "storage.block_log.append", True),
    ("dhp.storage", "ReceiptLog.append", "storage.receipt_log.append", True),
    ("dhp.service", "Node.dispatch", "service.dispatch", True),
    ("dhp.service", "HsaNode.propose_once", "service.propose_once", True),
    ("dhp.service", "HsaNode._announce", "service.announce", True),
    ("dhp.service", "NodeClient.request", "service.client", True),
    ("dhp.service", "NodeClient.connect", "service.connect", False),
    ("dhp.netsim", "check_consistency", "netsim.check_consistency", True),
    ("dhp.netsim", "run_simulation", "netsim.run_simulation", True),
)

# Calls made from netsim only: wrapped on netsim's own bindings, on top of
# the ledger and protocol wrappers, so they count under both names.
NETSIM_CALLS = (
    ("append_block", "netsim.append_block"),
    ("bm_verify", "netsim.bm_verify"),
)

# Message-typed names for calls whose first frame byte says what they are.
_FRAME_ARG = {"service.dispatch": 2, "service.client": 1}

MAX_SPANS = 400_000

#: The per-layer metrics of the result line of a traced run: those every
#: workload measures (a count may be 0 where its layer is idle). The
#: printed table gives every metric of layer_metrics, "idle" where the
#: workload makes no such call.
PER_LAYER = (
    "core.preimages_per_op", "crypto.verify_sig.calls_per_op", "crypto.verify_sig.us",
    "crypto.sign.calls_per_op", "crypto.sign.us", "crypto.commit.calls_per_op", "crypto.memo_hit_ratio",
    "ledger.validate_block.ms", "ledger.append_block.ms", "ledger.merkle_root.ms", "storage.fsyncs_per_op",
    "netsim.append_block.calls_per_credential", "netsim.bm_verify.calls_per_credential", "host.ref_per_s",
)


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.on = False
        self.phase = "start"
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.durations: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[f"{self.phase}|{name}"] += n

    def _wrap(self, name: str, fn, keep_span: bool):
        tracer = self
        frame_arg = _FRAME_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            full = name
            if frame_arg is not None and len(args) > frame_arg and args[frame_arg]:
                full = f"{name}.{MESSAGE_NAMES.get(args[frame_arg][0], 'other')}"
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            request = getattr(tracer._local, "request", span_id) if stack else span_id
            if not stack:
                tracer._local.request = span_id
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                key = f"{tracer.phase}|{full}"
                with tracer._lock:
                    tracer.counts[key] += 1
                    tracer.busy[key] += t1 - t0
                    if keep_span:
                        tracer.durations.setdefault(key, []).append(t1 - t0)
                        if len(tracer.spans) < MAX_SPANS:
                            tracer.spans.append((span_id, full, t0, t1, parent, request, tracer.phase))
                        else:
                            tracer.dropped += 1

        return traced

    # -- installation

    def install(self) -> None:
        import dhp  # noqa: F401  (loads every dhp module)
        import dhp.cli  # noqa: F401

        for module_name, attr, name, keep_span in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__, keep_span)))
                else:
                    self._set(cls, meth, self._wrap(name, raw, keep_span))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, keep_span)
            for mod in [m for n, m in sys.modules.items() if n == "dhp" or n.startswith("dhp.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        netsim = sys.modules["dhp.netsim"]
        for attr, name in NETSIM_CALLS:
            self._set(netsim, attr, self._wrap(name, getattr(netsim, attr), False))
        self._set(os, "fsync", self._wrap("storage.fsync", os.fsync, False))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output

    def summary(self) -> dict:
        with self._lock:
            return {
                "label": self.label,
                "pid": os.getpid(),
                "counts": dict(self.counts),
                "busy": dict(self.busy),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "spans": len(self.spans),
                "dropped": self.dropped,
            }

    def dump(self, path: Path) -> dict:
        """Write spans as JSON lines and return the summary."""
        with self._lock:
            spans = list(self.spans)
        pid = os.getpid()
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, request, phase in spans:
                fh.write(json.dumps({
                    "pid": pid, "node": self.label, "id": span_id, "name": name,
                    "start": t0, "end": t1, "parent": parent, "request": request, "phase": phase,
                }) + "\n")
        return self.summary()


def switch(tracer: Tracer | None, on: bool) -> None:
    """Turn tracing on or off in this process; a no-op for untraced runs."""
    if tracer is not None:
        tracer.on = on


class Merged:
    """Summaries of every traced process, pooled."""

    def __init__(self, summaries: list[dict]):
        self.summaries = summaries
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.durations: dict[str, list[float]] = {}
        for s in summaries:
            self.counts.update(s["counts"])
            self.busy.update(s["busy"])
            for key, values in s["durations"].items():
                self.durations.setdefault(key, []).extend(values)

    def n(self, name: str, phase: str = "timed") -> int:
        return self.counts.get(f"{phase}|{name}", 0)

    def mean(self, name: str, phase: str = "timed") -> float | None:
        calls = self.n(name, phase)
        return self.busy[f"{phase}|{name}"] / calls if calls else None

    def times(self, name: str, phases=("start", "timed")) -> list[float]:
        return [d for p in phases for d in self.durations.get(f"{p}|{name}", [])]

    def per_process(self, name: str, phase: str = "timed") -> list[list[float]]:
        return [s["durations"][f"{phase}|{name}"] for s in self.summaries
                if f"{phase}|{name}" in s["durations"]]


def layer_metrics(m: Merged, ops: int, blocks: int, extra: dict) -> dict:
    """Per-layer metrics from a merged trace. ops is the operations of the
    traced slices (checks, or credentials), blocks the blocks they made;
    extra holds figures the workload measured itself. Every metric is
    returned as (value, unit); the value is None where the workload did not
    measure it."""
    from common import median

    def per(name: str, base: int) -> float | None:
        return m.n(name) / base if base else None

    def med(name: str, mult: float, phases=("start", "timed")) -> float | None:
        values = m.times(name, phases)
        return median(values) * mult if values else None

    def mean(name: str, mult: float) -> float | None:
        value = m.mean(name)
        return None if value is None else value * mult

    def decile(first: bool) -> float | None:
        pooled = []
        for values in m.per_process("ledger.append_block"):
            k = max(1, len(values) // 10)
            pooled.extend(values[:k] if first else values[-k:])
        return median(pooled) * 1e3 if pooled else None

    hits, misses = m.n("crypto.memo.hits"), m.n("crypto.memo.misses")
    replay = med("storage.replay", 1e6, ("start",))
    table = {
        "core.preimages_per_op": (per("core.record_signing_bytes", ops), "count"),
        "crypto.verify_sig.calls_per_op": (per("crypto.verify_sig", ops), "count"),
        "crypto.verify_sig.us": (mean("crypto.verify_sig", 1e6), "us"),
        "crypto.sign.calls_per_op": (per("crypto.sign", ops), "count"),
        "crypto.sign.us": (mean("crypto.sign", 1e6), "us"),
        "crypto.commit.calls_per_op": (per("crypto.commit", ops), "count"),
        "crypto.memo_hit_ratio": (hits / (hits + misses) if hits + misses else None, "ratio"),
        "ledger.propose_block.ms": (med("ledger.propose_block", 1e3), "ms"),
        "ledger.validate_block.ms": (med("ledger.validate_block", 1e3), "ms"),
        "ledger.append_block.ms": (med("ledger.append_block", 1e3), "ms"),
        "ledger.validations_per_block": (per("ledger.validate_block", blocks), "count"),
        "ledger.merkle_root.ms": (med("ledger.merkle_root", 1e3), "ms"),
        "ledger.append_block.ms_first_decile": (decile(True), "ms"),
        "ledger.append_block.ms_last_decile": (decile(False), "ms"),
        "ledger.parse_block.ms": (med("ledger.parse_block", 1e3), "ms"),
        "storage.replay.us_per_record": (
            replay / extra["history_records"] if replay is not None and "history_records" in extra else None, "us"),
        "ledger.lookup_by_token.us": (med("ledger.lookup_by_token", 1e6), "us"),
        "protocol.bm_verify.us": (med("protocol.bm_verify", 1e6), "us"),
        "protocol.thf_issue.us": (med("protocol.thf_issue", 1e6), "us"),
        "storage.block_log.append_ms": (med("storage.block_log.append", 1e3), "ms"),
        "storage.log_bytes_per_record": (extra.get("log_bytes_per_record"), "B"),
        "storage.receipt_log.append_us": (med("storage.receipt_log.append", 1e6), "us"),
        "storage.fsyncs_per_op": (per("storage.fsync", ops), "count"),
        "service.dispatch.verify_us": (med("service.dispatch.verify", 1e6), "us"),
        "service.dispatch.submit_us": (med("service.dispatch.submit", 1e6), "us"),
        "service.dispatch.get_token_us": (med("service.dispatch.get_token", 1e6), "us"),
        "service.wire_us": (None, "us"),
        "service.propose_once.ms": (med("service.propose_once", 1e3), "ms"),
        "service.announce.ms": (med("service.announce", 1e3), "ms"),
        "service.connects_per_block": (per("service.connect", blocks), "count"),
        "netsim.check_consistency.s": (med("netsim.check_consistency", 1.0), "s"),
        "netsim.append_block.calls_per_credential": (per("netsim.append_block", ops), "count"),
        "netsim.bm_verify.calls_per_credential": (per("netsim.bm_verify", ops), "count"),
        "cli.overhead_ms": (extra.get("cli_overhead_ms"), "ms"),
        "host.ref_per_s": (extra.get("ref_per_s"), "1/s"),
    }
    kind = extra.get("wire_kind")
    client, server = med(f"service.client.{kind}", 1e6), med(f"service.dispatch.{kind}", 1e6)
    if client is not None and server is not None:
        table["service.wire_us"] = (client - server, "us")
    return table
