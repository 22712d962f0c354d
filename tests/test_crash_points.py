"""Crash points of a node's data dir, after the method of ALICE (Pillai et
al., "All File Systems Are Not Created Equal", OSDI 2014), on the program's
own calls: every write a node's life makes to its data dir goes through
storage.replace_durably (a whole file, old or new after a crash) or
storage._Log._append (one frame, which a crash may cut). Each life's writes
are recorded, and every directory a crash could leave is rebuilt from them:
after each prefix of the writes, and with an append cut after its first
byte and at mid-frame. The node must start on each, with what the completed
writes made durable and nothing else."""

import struct
import time
from dataclasses import replace
from pathlib import Path
from random import Random

import dhp.storage
from dhp.core import Role, canonical_doc_bytes
from dhp.ledger import token_bytes
from dhp.protocol import receipt_frame_bytes, thf_issue
from dhp.service import MSG_ANNOUNCE, MSG_ANNOUNCE_ACK, MSG_OUTCOME, MSG_VERIFY, BmNode, HsaNode, NodeConfig
from dhp.storage import format_registry, read_genesis_time, read_receipts, save_keypair, save_registry

from conftest import Consortium, make_doc, seeded_key
from test_protocol import POLICY_TEXT

GENESIS_TIME = 1000


def record_writes(monkeypatch) -> list:
    """The data dirs' writes, as (op, path, bytes), once each completes: a
    replace with the file's new content, an append with its whole frame."""
    writes, replace_durably, append = [], dhp.storage.replace_durably, dhp.storage._Log._append

    def replacing(path, data):
        replace_durably(path, data)
        writes.append(("replace", Path(path), data))

    def appending(log, payload):
        append(log, payload)
        writes.append(("append", log.path, struct.pack(">I", len(payload)) + payload))

    monkeypatch.setattr(dhp.storage, "replace_durably", replacing)
    monkeypatch.setattr(dhp.storage._Log, "_append", appending)
    return writes


def crash_states(writes):
    """Each (writes done, torn append) a crash can leave: after every prefix
    of writes, and with the next write, if an append, cut short."""
    for done in range(len(writes) + 1):
        yield writes[:done], None
        if done < len(writes) and writes[done][0] == "append":
            _, path, frame = writes[done]
            for cut in (1, len(frame) // 2):
                yield writes[:done], (path, frame[:cut])


def rebuild(data_dir: Path, done, torn) -> None:
    """data_dir as the writes done, then the torn append, left it."""
    data_dir.mkdir(parents=True)
    for op, path, data in done + ([("append", *torn)] if torn else []):
        with open(data_dir / path.name, "wb" if op == "replace" else "ab") as fh:
            fh.write(data)


def appended(done, name: str) -> list[bytes]:
    """The payloads of the appends to the log called name among done."""
    return [frame[4:] for op, path, frame in done if op == "append" and path.name == name]


def check_small_files(data_dir: Path, done, registries) -> None:
    """The registry copy is absent or one the node was configured with, and
    genesis.txt is absent only while the block log holds no block."""
    copy = data_dir / "registry.txt"
    assert not copy.exists() or copy.read_text() in [format_registry(r) for r in registries]
    if (data_dir / "genesis.txt").exists() or appended(done, "blocks.log"):
        assert read_genesis_time(data_dir) == GENESIS_TIME


def node_config(tmp_path, role, name, registry_file) -> NodeConfig:
    return NodeConfig(
        role=role,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / name,
        registry_file=registry_file,
        key_file=tmp_path / f"{name}.key",
        policy_file=tmp_path / "policy.txt",
        genesis_time=GENESIS_TIME,
    )


def authority_life(tmp_path, monkeypatch):
    """An authority's first start, three proposed blocks and a restart whose
    registry adds a facility: (c, config, its writes, its blocks, the tokens
    of make_doc(0), make_doc(1) and make_doc(2), the registry after the restart)."""
    c = Consortium(num_hsa=1, num_thf=2, num_bm=1, genesis_time=0)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "hsa0.key", c.hsa_keys[0])
    config = node_config(tmp_path, Role.HSA, "hsa0", tmp_path / "registry.txt")
    grown = c.registry.with_member(seeded_key(Role.THF, "joined").owner)
    writes = record_writes(monkeypatch)
    node, now, issued = HsaNode(config), int(time.time()), []
    try:
        for i in range(3):
            pending = thf_issue(c.thf_keys[i % 2], make_doc(i), True, c.method, now, now=now, rng=Random(i))
            node._mempool[pending.record.commitment] = pending
            issued.append(pending)
            assert node.propose_once().header.height == i + 1
        blocks = node.state.blocks[1:]
    finally:
        node.stop()
    save_registry(config.registry_file, grown)
    restarted = HsaNode(config)
    tokens = [node._tokens[pending.record.commitment][1] for pending in issued]
    restarted.stop()
    monkeypatch.undo()
    return c, config, [w for w in writes if w[1].parent == config.data_dir], blocks, tokens, grown


def test_an_authority_starts_after_a_crash_at_any_write(tmp_path, monkeypatch):
    c, config, writes, blocks, _, grown = authority_life(tmp_path, monkeypatch)
    assert appended(writes, "blocks.log") == [block.frame for block in blocks]
    for n, (done, torn) in enumerate(crash_states(writes)):
        data_dir = tmp_path / "crash" / str(n)
        rebuild(data_dir, done, torn)
        check_small_files(data_dir, done, [c.registry, grown])
        node = HsaNode(replace(config, data_dir=data_dir))
        node.stop()
        assert [block.frame for block in node.state.blocks[1:]] == appended(done, "blocks.log"), n


def test_a_member_starts_after_a_crash_at_any_write(tmp_path, monkeypatch):
    (tmp_path / "authority").mkdir()
    c, _, _, blocks, tokens, _ = authority_life(tmp_path / "authority", monkeypatch)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "bm0.key", c.bm_keys[0])
    (tmp_path / "policy.txt").write_text(POLICY_TEXT)
    config = node_config(tmp_path, Role.BM, "bm0", tmp_path / "registry.txt")
    writes = record_writes(monkeypatch)
    member, at = BmNode(config), int(time.time()) + 60
    try:
        for block in blocks:
            ack = member.dispatch(c.hsa_keys[0].owner, bytes((MSG_ANNOUNCE,)) + block.frame)
            assert ack == bytes((MSG_ANNOUNCE_ACK, 1))
        outcomes = [
            member.dispatch(c.bm_keys[0].owner, bytes((MSG_VERIFY,)) + token_bytes(token)
                            + struct.pack(">Q", at) + canonical_doc_bytes(make_doc(i)))
            for i, token in enumerate(tokens)
        ]
    finally:
        member.stop()
    assert [outcome[0] for outcome in outcomes] == [MSG_OUTCOME] * 3
    BmNode(config).stop()
    monkeypatch.undo()
    writes = [w for w in writes if w[1].parent == config.data_dir]
    assert len(appended(writes, "receipts.log")) == 3
    for n, (done, torn) in enumerate(crash_states(writes)):
        data_dir = tmp_path / "crash" / str(n)
        rebuild(data_dir, done, torn)
        check_small_files(data_dir, done, [c.registry])
        log = data_dir / "receipts.log"
        receipts = read_receipts(log, c.registry) if log.exists() else []
        assert [receipt_frame_bytes(r) for r in receipts] == appended(done, "receipts.log"), n
        node = BmNode(replace(config, data_dir=data_dir))
        node.stop()
        assert [block.frame for block in node.state.blocks[1:]] == appended(done, "blocks.log"), n
