"""register: a facility issues credentials and registers them on the chain.

Two authorities and one member each run in their own process. Per batch
(one slice), the facility issues BATCH credentials with thf_issue, submits
each to the authority scheduled for the next height, has that authority cut
the block with HsaNode.propose_once() (its own timer is parked, so block
contents do not depend on timer phase), and fetches every token. The block
is announced to the other authority and to the member before propose_once
returns. Batches stay far below the 1024-record block cap. One credential
is one operation; the block commit is the long step.
"""

from __future__ import annotations

import time
from pathlib import Path

import inputs
from checks import BLOCK_LOG_MAGIC, check_registration
from calib import LONG_CHUNKS
from common import NodeProc, Result, close_node, free_port
from dhp import protocol
from dhp.core import DhpError
from dhp.ledger import header_hash, scheduled_authority
from dhp.service import NodeClient
from dhp.storage import replay_block_log
from tracing import switch

SETUPS = 3
NODES = ("hsa0", "hsa1", "member")
MEANING = {
    "setup_s": "write the consortium's files and start its three nodes",
    "ops_per_s": "credentials per second, from thf_issue to the token in hand (register_rps)",
    "op_p50_ms": "SUBMIT round trip (submit_p50_ms)",
    "step_p50_ms": "block commit, propose_once: cut to durable and accepted by the peers (commit_p50_ms)",
}


def start(con: inputs.Consortium, root: Path, traced: bool, nodes: dict) -> list[NodeClient]:
    """Write the consortium's files, start its three nodes and connect the
    facility to each authority."""
    keys = {"hsa0": con.authorities[0], "hsa1": con.authorities[1], "member": con.member}
    inputs.write_member_files(root, con.registry, keys)
    ports = {name: free_port() for name in NODES}
    for name in NODES:
        role = "bm" if name == "member" else "hsa"
        peers = [ports[p] for p in NODES if p != name] if role == "hsa" else []
        config = inputs.node_config(root, name, role, ports[name], peers, 0)
        nodes[name] = NodeProc(config, name, traced)
    return [NodeClient.connect("127.0.0.1", nodes[name].port, key=con.facility, registry=con.registry)
            for name in ("hsa0", "hsa1")]


def stop(nodes: dict, clients: list[NodeClient], res: Result, work: Path, traced: bool) -> None:
    for client in clients:
        client.close()
    for node in nodes.values():
        close_node(node, traced, work, res)


def run(seed: int, seconds: float, trace: bool, work: Path, cal, tracer) -> Result:
    res = Result()
    nodes: dict[str, NodeProc] = {}
    clients: list[NodeClient] = []
    try:
        for k in range(SETUPS):
            traced = trace and (k % 2 == 0 or k == SETUPS - 1)
            before = cal.sample(LONG_CHUNKS)
            m0 = cal.mark()
            con = inputs.register_consortium(seed)
            root = work / f"setup{k}"
            clients = start(con, root, traced, nodes)
            m1 = cal.mark(end=True)
            ratio = cal.ratio(m0, m1, sum(n.ready_cpu for n in nodes.values()), before, cal.sample(LONG_CHUNKS))
            res.figures(traced).time("setup_s", m1.wall - m0.wall, ratio)
            if k < SETUPS - 1:
                stop(nodes, clients, res, work, traced)
                nodes, clients = {}, []

        authorities = con.registry.authorities()
        creds = inputs.Credentials(seed)
        issued, tokens = [], []
        deadline = time.perf_counter() + seconds
        before = cal.sample()
        batches = 0
        while batches < 2 or time.perf_counter() < deadline:
            traced = trace and batches % 2 == 0
            height = batches + 1
            which = authorities.index(scheduled_authority(height, authorities))
            client, authority = clients[which], nodes[f"hsa{which}"]
            batch = creds.next_batch()
            cpu0 = sum(node.call("slice_start", trace=traced)["cpu"] for node in nodes.values())
            switch(tracer, traced)
            submits, pending = [], []
            m0 = cal.mark()
            try:
                for doc, age in batch:
                    # Called through the module, so that a traced run times it.
                    p = protocol.thf_issue(con.facility, doc, True, inputs.METHOD, int(time.time()) - age,
                                           rng=creds.rng)
                    s = time.perf_counter()
                    commitment, duplicate = client.submit_dhp(p)
                    submits.append(time.perf_counter() - s)
                    if commitment != p.record.commitment or duplicate:
                        res.problems.append(f"credential {len(issued)}: ack {commitment.hex()[:16]} dup={duplicate}")
                    pending.append(p)
                    issued.append((doc, p.salt.value, commitment))
                cut = authority.call("propose")
                for p in pending:
                    tokens.append(client.get_token(p.record.commitment))
            except (DhpError, OSError) as exc:
                res.attempted += len(batch)
                res.failed += len(batch)
                res.notes.append(f"batch {batches} failed: {exc}")
                break
            finally:
                m1 = cal.mark(end=True)
                switch(tracer, False)
                cpu1 = sum(node.call("slice_end")["cpu"] for node in nodes.values())
            if (cut["height"], cut["records"]) != (height, len(batch)):
                res.problems.append(f"block {height}: cut {cut}, expected {len(batch)} records")
            after = cal.sample()
            ratio = cal.ratio(m0, m1, cpu1 - cpu0, before, after)
            # A round trip is scaled by the kernel alone (see calib.py).
            factor = cal.factor(before, after)
            before = after
            fig = res.figures(traced)
            fig.rate("ops_per_s", len(batch), m1.wall - m0.wall, ratio)
            fig.time("step_p50_ms", cut["seconds"], ratio, 1e3)
            for latency in submits:
                fig.time("op_p50_ms", latency, factor, 1e3)
            res.attempted += len(batch)
            res.ops += len(batch) if traced else 0
            res.blocks += 1 if traced else 0
            batches += 1

        # The member's replica, fetched over the wire: the record each token names.
        blocks = {}
        with NodeClient.connect("127.0.0.1", nodes["member"].port, key=con.facility,
                                registry=con.registry) as reader:
            for token in tokens:
                if token is not None and token.header_hash not in blocks:
                    blocks[token.header_hash] = reader.get_block(token.header_hash)
        records = [
            None if t is None or blocks[t.header_hash] is None else blocks[t.header_hash].records[t.record_index]
            for t in tokens
        ]
        stop(nodes, clients, res, work, trace)
        nodes, clients = {}, []

        logs = [(root / f"{name}-data" / "blocks.log").read_bytes() for name in NODES]
        res.problems.extend(check_registration(issued, tokens, records, logs, res.attempted - res.failed))
        tip = tokens[-1].header_hash if tokens and tokens[-1] is not None else None
        for name in NODES:
            state, _ = replay_block_log(root / f"{name}-data" / "blocks.log", con.registry,
                                        int(time.time()), strict=True)
            if header_hash(state.tip.header) != tip or len(state.index) != len(issued):
                res.problems.append(f"{name}: strict replay ends at another tip or record count")
        res.notes.append(f"{batches} batches of {inputs.BATCH} credentials; chain height {batches}")
        res.extra = {
            "log_bytes_per_record": (len(logs[0]) - len(BLOCK_LOG_MAGIC)) / max(1, len(issued)),
            "wire_kind": "submit",
        }
        return res
    finally:
        for client in clients:
            client.close()
        for node in nodes.values():
            node.close()
