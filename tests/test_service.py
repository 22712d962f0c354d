import contextlib
import errno
import logging
import os
import socket
import socketserver
import struct
import sys
import threading
import time
from dataclasses import replace
from random import Random

import pytest

import dhp.ledger
import dhp.service
import dhp.storage
from dhp.core import EncodingError, Registry, Role, TestMethod, canonical_doc_bytes
from dhp.crypto import Salt
from dhp.ledger import (
    MAX_BLOCK_RECORDS,
    Block,
    DhpToken,
    append_block,
    block_bytes,
    chain_bytes,
    header_hash,
    parse_block,
    propose_block,
    scheduled_authority,
    token_bytes,
)
from dhp.protocol import OutcomeStatus, ViolationReason, pending_bytes, receipt_frame_bytes, thf_issue
from dhp.service import (
    ERR_MALFORMED,
    ERR_NOT_FOUND,
    ERR_REJECTED,
    ERR_WRONG_ROLE,
    BmNode,
    HsaNode,
    MAX_FRAME,
    MSG_ANNOUNCE,
    MSG_ANNOUNCE_ACK,
    MSG_AUTH,
    MSG_AUTH_OK,
    MSG_BLOCK,
    MSG_CHALLENGE,
    MSG_ERROR,
    MSG_GET_BLOCK,
    MSG_GET_BLOCK_AT,
    MSG_GET_HEAD,
    MSG_GET_TOKEN,
    MSG_OUTCOME,
    MSG_SUBMIT,
    MSG_TOKEN,
    MSG_VERIFY,
    NodeClient,
    NodeConfig,
    ServiceError,
    _Handler,
    build_node,
    parse_node_config,
    recv_frame,
    send_frame,
)
from dhp.cli import main
from dhp.storage import (
    BLOCK_LOG_MAGIC,
    RECEIPT_LOG_MAGIC,
    BlockLog,
    CorruptLog,
    ReceiptLog,
    RegistryMismatch,
    read_frames,
    replay_block_log,
    save_keypair,
    save_registry,
)

from conftest import Consortium, counted, make_doc, seeded_key
from test_protocol import POLICY_TEXT


@pytest.fixture
def net(tmp_path):
    """One HSA node and one BM node wired as peers, plus client key material."""
    c = Consortium(num_hsa=1, num_thf=2, num_bm=1, genesis_time=0)
    registry_path = tmp_path / "registry.txt"
    save_registry(registry_path, c.registry)
    policy_path = tmp_path / "policy.txt"
    policy_path.write_text(POLICY_TEXT)

    def key_file(key, name):
        path = tmp_path / name
        save_keypair(path, key)
        return path

    hsa_config = NodeConfig(
        role=Role.HSA,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "hsa0",
        registry_file=registry_path,
        key_file=key_file(c.hsa_keys[0], "hsa0.key"),
        block_interval=0.02,
    )
    hsa = HsaNode(hsa_config)
    hsa.start()

    bm_config = NodeConfig(
        role=Role.BM,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "bm0",
        registry_file=registry_path,
        key_file=key_file(c.bm_keys[0], "bm0.key"),
        policy_file=policy_path,
    )
    bm = BmNode(bm_config)
    bm.start()

    hsa.config.peers = [bm.address]
    bm.config.peers = [hsa.address]

    yield c, hsa, bm
    hsa.stop()
    bm.stop()


def connect(node, key, registry):
    return NodeClient.connect(*node.address, key=key, registry=registry)


def issue(c, i, tested_at=None):
    tested_at = int(time.time()) if tested_at is None else tested_at
    return thf_issue(c.thf_keys[0], make_doc(i), True, c.method, tested_at, now=int(time.time()),
                     rng=Random(i))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_submit_then_token_round_trip(net):
    c, hsa, bm = net
    pending = issue(c, 1)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, duplicate = client.submit_dhp(pending)
        assert ack == pending.record.commitment
        assert not duplicate
        token = client.wait_for_token(ack)
    assert token.salt == pending.salt
    state = hsa.state
    assert state.blocks[1].records[token.record_index] == pending.record


def test_duplicate_submission_is_idempotent(net):
    c, hsa, bm = net
    pending = issue(c, 2)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        first, dup_first = client.submit_dhp(pending)
        client.wait_for_token(first)
        second, dup_second = client.submit_dhp(pending)
        assert second == first
        assert not dup_first and dup_second
        client.wait_for_token(second)
    on_chain = [
        r.commitment for b in hsa.state.blocks for r in b.records
        if r.commitment == pending.record.commitment
    ]
    assert len(on_chain) == 1


def test_unregistered_key_cannot_authenticate(net):
    c, hsa, _ = net
    stranger = seeded_key(Role.THF, "stranger")
    with pytest.raises(ServiceError):
        NodeClient.connect(*hsa.address, key=stranger, registry=c.registry)


def test_submit_requires_thf_role(net):
    c, hsa, _ = net
    pending = issue(c, 3)
    with connect(hsa, c.bm_keys[0], c.registry) as client:
        with pytest.raises(ServiceError) as err:
            client.submit_dhp(pending)
    assert err.value.code == ERR_WRONG_ROLE


def test_submit_rejects_records_from_unregistered_issuer(net):
    c, hsa, _ = net
    from dhp.service import ERR_UNKNOWN_ISSUER

    ghost = seeded_key(Role.THF, "ghost-issuer")
    pending = thf_issue(ghost, make_doc(90), True, c.method, int(time.time()),
                        now=int(time.time()), rng=Random(90))
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        with pytest.raises(ServiceError) as err:
            client.submit_dhp(pending)
    assert err.value.code == ERR_UNKNOWN_ISSUER


def test_announce_requires_hsa_role(net):
    c, hsa, bm = net
    pending = issue(c, 4)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, _ = client.submit_dhp(pending)
        client.wait_for_token(ack)
    block = hsa.state.blocks[1]
    height_before = bm.state.height
    with connect(bm, c.bm_keys[0], c.registry) as client:
        with pytest.raises(ServiceError) as err:
            client.announce_block(block)
    assert err.value.code == ERR_WRONG_ROLE
    assert bm.state.height == height_before
    # the same frame from an authority is accepted
    with connect(bm, c.hsa_keys[0], c.registry) as client:
        assert client.announce_block(block)
    assert bm.state.height >= 1


def test_get_block_and_head(net):
    c, hsa, _ = net
    pending = issue(c, 5)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, _ = client.submit_dhp(pending)
        token = client.wait_for_token(ack)
    with connect(hsa, c.bm_keys[0], c.registry) as client:
        head = client.get_head()
        assert head.height == hsa.state.height
        block = client.get_block(token.header_hash)
        assert block is not None
        assert header_hash(block.header) == token.header_hash
        assert client.get_block(b"\xee" * 32) is None


def test_bm_verify_endpoint_happy_path(net):
    c, hsa, bm = net
    doc = make_doc(6)
    tested_at = int(time.time())
    pending = thf_issue(c.thf_keys[0], doc, True, c.method, tested_at, now=tested_at, rng=Random(6))
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, _ = client.submit_dhp(pending)
        token = client.wait_for_token(ack)
    assert wait_until(lambda: bm.state.height >= token_height(hsa, token))
    with connect(bm, c.bm_keys[0], c.registry) as client:
        outcome, receipt = client.verify(token, doc, tested_at + 3600)
    assert outcome.status is OutcomeStatus.VALID
    assert receipt.outcome_status is OutcomeStatus.VALID
    persisted = ReceiptLog(bm.config.data_dir / "receipts.log").read_all(c.registry)
    assert receipt in persisted


def test_a_verify_encodes_its_receipt_once(net, monkeypatch):
    """The member encodes each check's signed receipt once: the frame it logs
    is the frame its OUTCOME reply carries."""
    c, hsa, bm = net
    doc = make_doc(7)
    tested_at = int(time.time())
    pending = thf_issue(c.thf_keys[0], doc, True, c.method, tested_at, now=tested_at, rng=Random(7))
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        token = client.wait_for_token(client.submit_dhp(pending)[0])
    assert wait_until(lambda: bm.state.height >= token_height(hsa, token))
    encoded = []

    def counting(receipt):
        encoded.append(receipt)
        return receipt_frame_bytes(receipt)

    monkeypatch.setattr(dhp.service, "receipt_frame_bytes", counting)
    monkeypatch.setattr(dhp.storage, "receipt_frame_bytes", counting)
    with connect(bm, c.bm_keys[0], c.registry) as client:
        receipts = [client.verify(token, presented, tested_at + 3600)[1] for presented in (doc, make_doc(8))]
    assert [r.outcome_status for r in receipts] == [OutcomeStatus.VALID, OutcomeStatus.COMMITMENT_MISMATCH]
    assert encoded == receipts
    logged = read_frames((bm.config.data_dir / "receipts.log").read_bytes(), RECEIPT_LOG_MAGIC, True)[0]
    assert [payload for _, payload in logged] == [receipt_frame_bytes(r) for r in receipts]


def token_height(hsa, token):
    return hsa.state.header_index[token.header_hash]


def test_a_verify_makes_one_receipt_and_one_preimage(net, monkeypatch):
    """A check builds one receipt object and encodes its signed preimage
    once, for the signature, the receipt log and the OUTCOME reply."""
    c, hsa, bm = net
    doc, tested_at = make_doc(9), int(time.time())
    pending = thf_issue(c.thf_keys[0], doc, True, c.method, tested_at, now=tested_at, rng=Random(9))
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        token = client.wait_for_token(client.submit_dhp(pending)[0])
    assert wait_until(lambda: bm.state.height >= token_height(hsa, token))
    frame = bytes((MSG_VERIFY,)) + token_bytes(token) + struct.pack(">Q", tested_at + 60) + canonical_doc_bytes(doc)
    preimages, replaced = counted(monkeypatch, "receipt_signing_bytes"), counted(monkeypatch, "replace")
    replies = [bm.dispatch(c.bm_keys[0].owner, frame) for _ in range(100)]
    assert (len(preimages), len(replaced)) == (100, 0)
    assert all(reply[:2] == bytes((MSG_OUTCOME, OutcomeStatus.VALID.value)) for reply in replies)
    assert len(ReceiptLog(bm.config.data_dir / "receipts.log").read_all(c.registry)) == 100


def test_only_a_read_only_member_may_ask_a_member_for_a_signed_receipt(net):
    """A facility or an authority asking a member to VERIFY gets
    ERR_WRONG_ROLE, and the member signs and logs no receipt."""
    c, hsa, bm = net
    token = DhpToken(bytes(32), 0, Salt(bytes(16)))
    for key in (c.thf_keys[0], c.hsa_keys[0]):
        with connect(bm, key, c.registry) as client:
            with pytest.raises(ServiceError) as refused:
                client.verify(token, make_doc(1), 1)
        assert refused.value.code == ERR_WRONG_ROLE
    assert ReceiptLog(bm.config.data_dir / "receipts.log").read_all(c.registry) == []
    with connect(bm, c.bm_keys[0], c.registry) as client:
        outcome, _ = client.verify(token, make_doc(1), 1)
    assert outcome.status is OutcomeStatus.NOT_FOUND
    assert len(ReceiptLog(bm.config.data_dir / "receipts.log").read_all(c.registry)) == 1


#: The one role that may send each request (None: any member), and the node
#: types that serve it. AUTH is answered before dispatch, and 0x7e is no
#: message, so no node serves either.
SENDERS = {
    MSG_SUBMIT: (Role.THF, {Role.HSA}),
    MSG_GET_TOKEN: (Role.THF, {Role.HSA}),
    MSG_GET_BLOCK: (None, {Role.HSA, Role.BM}),
    MSG_GET_HEAD: (None, {Role.HSA, Role.BM}),
    MSG_GET_BLOCK_AT: (None, {Role.HSA, Role.BM}),
    MSG_VERIFY: (Role.BM, {Role.BM}),
    MSG_ANNOUNCE: (Role.HSA, {Role.HSA, Role.BM}),
    MSG_AUTH: (None, set()),
    0x7E: (None, set()),
}


@pytest.fixture(scope="module")
def unstarted(tmp_path_factory):
    """An authority and a member of one registry, built but not started:
    requests reach them through dispatch alone."""
    tmp_path = tmp_path_factory.mktemp("roles")
    c = Consortium(num_hsa=1, num_thf=1, num_bm=1, genesis_time=0)
    save_registry(tmp_path / "registry.txt", c.registry)
    (tmp_path / "policy.txt").write_text(POLICY_TEXT)
    nodes = {}
    for node_type, key in ((HsaNode, c.hsa_keys[0]), (BmNode, c.bm_keys[0])):
        role = key.owner.role
        save_keypair(tmp_path / f"{role.name}.key", key)
        nodes[role] = node_type(NodeConfig(
            role=role,
            listen=("127.0.0.1", 0),
            data_dir=tmp_path / role.name,
            registry_file=tmp_path / "registry.txt",
            key_file=tmp_path / f"{role.name}.key",
            policy_file=tmp_path / "policy.txt",
        ))
    yield c, nodes
    for node in nodes.values():
        node.stop()


@pytest.mark.parametrize("sender", [Role.THF, Role.HSA, Role.BM], ids=lambda role: role.name)
@pytest.mark.parametrize("kind", list(SENDERS), ids=lambda kind: f"{kind:#04x}")
@pytest.mark.parametrize("node_role", [Role.HSA, Role.BM], ids=lambda role: f"at-{role.name}")
def test_each_request_is_taken_up_only_from_the_role_that_may_send_it(unstarted, node_role, kind, sender):
    """A request the node does not serve is malformed, one from a role other
    than the one that may send it is the wrong role, and any other is taken
    up: here its empty body is refused as truncated, or a HEAD is sent."""
    c, nodes = unstarted
    key = {Role.THF: c.thf_keys[0], Role.HSA: c.hsa_keys[0], Role.BM: c.bm_keys[0]}[sender]
    reply = nodes[node_role].dispatch(key.owner, bytes((kind,)))
    allowed, served_at = SENDERS[kind]
    if node_role not in served_at:
        assert reply == dhp.service._error(ERR_MALFORMED, f"unsupported message {kind:#04x}")
    elif allowed not in (None, sender):
        assert _error_code(reply) == ERR_WRONG_ROLE
    elif kind == MSG_GET_HEAD:
        assert reply[0] == dhp.service.MSG_HEAD
    else:
        assert reply == dhp.service._error(ERR_MALFORMED, "frame truncated")


def test_only_the_issuing_facility_gets_a_credential_s_token(tmp_path):
    """A token carries its credential's salt. Another facility gets the
    reply a commitment never submitted gets, for a credential pending or on
    the chain alike; an authority or a member is the wrong role."""
    c, (hsa,) = parked_authorities(tmp_path, 1, num_thf=2, num_bm=1)
    try:
        issuer, other = (key.owner for key in c.thf_keys)
        on_chain, pending = issue(c, 310), issue(c, 311)

        def get_token(member, commitment):
            return hsa.dispatch(member, bytes((MSG_GET_TOKEN,)) + commitment)

        hsa.dispatch(issuer, bytes((MSG_SUBMIT,)) + pending_bytes(on_chain))
        block = hsa.propose_once()
        hsa.dispatch(issuer, bytes((MSG_SUBMIT,)) + pending_bytes(pending))
        token = DhpToken(header_hash(block.header), 0, on_chain.salt)
        assert get_token(issuer, on_chain.record.commitment) == bytes((MSG_TOKEN, 1)) + token_bytes(token)
        assert get_token(issuer, pending.record.commitment) == bytes((MSG_TOKEN, 0))
        unknown = get_token(other, b"\x31" * 32)
        assert _error_code(unknown) == ERR_NOT_FOUND
        for credential in (on_chain, pending):
            assert get_token(other, credential.record.commitment) == unknown
            for member in (c.hsa_keys[0].owner, c.bm_keys[0].owner):
                assert _error_code(get_token(member, credential.record.commitment)) == ERR_WRONG_ROLE
    finally:
        hsa.stop()


def test_get_block_serves_the_frame_the_node_logged(solo, monkeypatch):
    """Blocks asked for by height or by hash, one of them twice, are sent as
    the frames the authority logged, with no block encoded again."""
    c, hsa = solo
    for i in range(3):
        submit(hsa, c, 150 + i)
        hsa.propose_once()
    encodes = [counted(monkeypatch, "block_bytes"), counted(monkeypatch, "record_bytes")]
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        frames = [client.block_frame_at(height) for height in (1, 2, 3)]
        again = client.get_block(header_hash(hsa.state.blocks[2].header))
    assert encodes == [[], []]
    assert frames == logged_frames(hsa)
    assert again == parse_block(frames[1], c.registry)


def test_stopped_member_writes_no_receipt_and_reopens_whole(net, capsys):
    """After stop() the receipt log is closed: an append, direct or from a
    handler still serving an open connection, raises OSError and writes
    nothing, and the handler drops the connection without a traceback.
    Reopening the data dir recovers the chain and every receipt."""
    c, hsa, bm = net
    doc = make_doc(7)
    tested_at = int(time.time())
    pending = thf_issue(c.thf_keys[0], doc, True, c.method, tested_at, now=tested_at, rng=Random(7))
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        token = client.wait_for_token(client.submit_dhp(pending)[0])
    assert wait_until(lambda: bm.state.height >= token_height(hsa, token))
    path = bm.config.data_dir / "receipts.log"
    with connect(bm, c.bm_keys[0], c.registry) as client:
        receipts = [client.verify(token, doc, tested_at + 60 * i)[1] for i in range(3)]
        chain, size = chain_bytes(bm.state), path.stat().st_size
        bm.stop()
        with pytest.raises(OSError):
            bm._receipts.append(receipts[0])
        with pytest.raises(OSError):
            client.verify(token, doc, tested_at + 600)
    assert path.stat().st_size == size
    assert "Traceback" not in capsys.readouterr().err
    reborn = BmNode(replace(bm.config, listen=("127.0.0.1", 0)))
    try:
        assert chain_bytes(reborn.state) == chain
        assert reborn._receipts.read_all(c.registry) == receipts
    finally:
        reborn.stop()


def test_stopped_authority_closes_its_block_log(net):
    c, hsa, _ = net
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        client.wait_for_token(client.submit_dhp(issue(c, 8))[0])
    hsa.stop()
    path = hsa.config.data_dir / "blocks.log"
    size = path.stat().st_size
    with pytest.raises(OSError):
        hsa._log.append(hsa.state.blocks[-1])
    assert path.stat().st_size == size


def test_bm_verify_endpoint_mismatch_and_stale(net):
    c, hsa, bm = net
    doc = make_doc(7)
    now = int(time.time())
    stale_tested = now - 80 * 3600
    fresh = thf_issue(c.thf_keys[0], doc, True, c.method, now, now=now, rng=Random(7))
    stale = thf_issue(c.thf_keys[0], make_doc(8), True, c.method, stale_tested, now=now, rng=Random(8))
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack1, _ = client.submit_dhp(fresh)
        ack2, _ = client.submit_dhp(stale)
        t_fresh = client.wait_for_token(ack1)
        t_stale = client.wait_for_token(ack2)
    assert wait_until(lambda: bm.state.height >= max(token_height(hsa, t_fresh), token_height(hsa, t_stale)))
    with connect(bm, c.bm_keys[0], c.registry) as client:
        outcome, _ = client.verify(t_fresh, make_doc(99), now)
        assert outcome.status is OutcomeStatus.COMMITMENT_MISMATCH
        outcome, _ = client.verify(t_stale, make_doc(8), now)
        assert outcome.status is OutcomeStatus.POLICY_VIOLATION
        assert outcome.violation_reason is ViolationReason.TEST_TOO_OLD
        # malformed document frame is a client error, not a crash
        from dhp.service import MSG_VERIFY
        from dhp.ledger import token_bytes
        import struct as _s

        with pytest.raises(ServiceError):
            client.request(bytes((MSG_VERIFY,)) + token_bytes(t_fresh) + _s.pack(">Q", now) + b"junk")


def test_bm_replica_syncs_from_peer(net):
    c, hsa, bm = net
    pendings = [issue(c, 10 + i) for i in range(3)]
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        for p in pendings:
            ack, _ = client.submit_dhp(p)
            client.wait_for_token(ack)
    bm.sync_from_peers()
    assert bm.state.height == hsa.state.height


def test_token_for_unknown_commitment(net):
    c, hsa, _ = net
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        with pytest.raises(ServiceError) as err:
            client.get_token(b"\x31" * 32)
    assert err.value.code == ERR_NOT_FOUND


def test_node_restart_resumes_from_block_log(net, tmp_path, caplog):
    c, hsa, bm = net
    pending = issue(c, 20)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, _ = client.submit_dhp(pending)
        client.wait_for_token(ack)
    height = hsa.state.height
    hsa.stop()
    with caplog.at_level(logging.INFO, logger="dhp.service"):
        reborn = HsaNode(replace(hsa.config, listen=("127.0.0.1", 0)))
    assert reborn.state.height == height
    (line,) = [r.getMessage() for r in caplog.records if r.name == "dhp.service"]
    assert line.startswith(f"recovered {height} blocks, 1 records in ")
    assert line.endswith(" ms; record signatures are left to `dhp chain audit`")
    reborn.start()
    with connect(reborn, c.thf_keys[0], c.registry) as client:
        assert client.get_head().height == height
    reborn.stop()


def test_a_token_survives_an_authority_restart(net):
    """Submit, cut the block, restart the authority before the token is
    fetched, resubmit: the issuer gets the token minted from the chain, and
    another facility resubmitting the same frame gets none."""
    c, hsa, bm = net
    pending = issue(c, 21)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        client.submit_dhp(pending)
    assert wait_until(lambda: hsa.state.locate(pending.record.commitment) is not None)
    height, index = hsa.state.locate(pending.record.commitment)
    hsa.stop()
    reborn = HsaNode(replace(hsa.config, listen=("127.0.0.1", 0)))
    reborn.start()
    try:
        with connect(reborn, c.thf_keys[1], c.registry) as client:
            assert client.submit_dhp(pending) == (pending.record.commitment, True)
            with pytest.raises(ServiceError) as err:
                client.get_token(pending.record.commitment)
            assert err.value.code == ERR_NOT_FOUND
        with connect(reborn, c.thf_keys[0], c.registry) as client:
            assert client.submit_dhp(pending) == (pending.record.commitment, True)
            token = client.get_token(pending.record.commitment)
    finally:
        reborn.stop()
    assert token == DhpToken(header_hash(reborn.state.blocks[height].header), index, pending.salt)


def test_two_authorities_alternate_over_sockets(tmp_path):
    c = Consortium(num_hsa=2, num_thf=2, num_bm=1, genesis_time=0)
    registry_path = tmp_path / "registry.txt"
    save_registry(registry_path, c.registry)

    def key_file(key, name):
        path = tmp_path / name
        save_keypair(path, key)
        return path

    nodes = []
    for i in range(2):
        config = NodeConfig(
            role=Role.HSA,
            listen=("127.0.0.1", 0),
            data_dir=tmp_path / f"hsa{i}",
            registry_file=registry_path,
            key_file=key_file(c.hsa_keys[i], f"hsa{i}.key"),
            block_interval=0.02,
        )
        node = HsaNode(config)
        node.start()
        nodes.append(node)
    nodes[0].config.peers = [nodes[1].address]
    nodes[1].config.peers = [nodes[0].address]
    try:
        # height 1 belongs to hsa-1, height 2 to hsa-0: each only advances
        # once it has replicated the other's block
        now = int(time.time())
        p0 = thf_issue(c.thf_keys[0], make_doc(60), True, c.method, now, now=now, rng=Random(60))
        p1 = thf_issue(c.thf_keys[1], make_doc(61), True, c.method, now, now=now, rng=Random(61))
        with connect(nodes[0], c.thf_keys[0], c.registry) as client:
            ack0, _ = client.submit_dhp(p0)
        with connect(nodes[1], c.thf_keys[1], c.registry) as client:
            ack1, _ = client.submit_dhp(p1)
            token1 = client.wait_for_token(ack1)
        with connect(nodes[0], c.thf_keys[0], c.registry) as client:
            token0 = client.wait_for_token(ack0)
        assert wait_until(lambda: nodes[0].state.height == 2 and nodes[1].state.height == 2)
        assert chain_bytes(nodes[0].state) == chain_bytes(nodes[1].state)
        assert nodes[1].state.blocks[1].header.authority_id == c.hsa_keys[1].owner
        assert nodes[0].state.blocks[2].header.authority_id == c.hsa_keys[0].owner
        assert {token0.header_hash, token1.header_hash} == {
            header_hash(nodes[0].state.blocks[2].header),
            header_hash(nodes[0].state.blocks[1].header),
        }
    finally:
        for node in nodes:
            node.stop()


def parked_authorities(tmp_path, num_hsa, block_interval=3600, num_bm=0, num_thf=1):
    """Every authority of a registry, started and each the others' peer.
    With the default interval their timers never cut a block: blocks are
    made by calling propose_once()."""
    c = Consortium(num_hsa=num_hsa, num_thf=num_thf, num_bm=num_bm, genesis_time=0)
    save_registry(tmp_path / "registry.txt", c.registry)
    nodes = []
    for i, key in enumerate(c.hsa_keys):
        save_keypair(tmp_path / f"hsa{i}.key", key)
        node = HsaNode(NodeConfig(
            role=Role.HSA,
            listen=("127.0.0.1", 0),
            data_dir=tmp_path / f"hsa{i}",
            registry_file=tmp_path / "registry.txt",
            key_file=tmp_path / f"hsa{i}.key",
            block_interval=block_interval,
        ))
        node.start()
        nodes.append(node)
    for node in nodes:
        node.config.peers = [other.address for other in nodes if other is not node]
    return c, nodes


@pytest.fixture
def solo(tmp_path):
    """The only authority of its registry, with its timer parked."""
    c, (hsa,) = parked_authorities(tmp_path, 1)
    yield c, hsa
    hsa.stop()


def test_overload_is_cut_into_capped_blocks(solo):
    c, hsa = solo
    pendings = [issue(c, i) for i in range(MAX_BLOCK_RECORDS + 76)]
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        for p in pendings:
            client.submit_dhp(p)
    first, second = hsa.propose_once(), hsa.propose_once()
    assert (first.header.height, len(first.records)) == (1, MAX_BLOCK_RECORDS)
    assert (second.header.height, len(second.records)) == (2, 76)
    # The oldest submissions go first.
    assert {r.commitment for r in first.records} == {p.record.commitment for p in pendings[:MAX_BLOCK_RECORDS]}


def test_submit_refuses_a_credential_tested_in_the_future(solo):
    c, hsa = solo
    ahead = int(time.time()) + 3600
    poison = thf_issue(c.thf_keys[0], make_doc(70), True, c.method, ahead, now=ahead, rng=Random(70))
    good = issue(c, 71)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        with pytest.raises(ServiceError) as err:
            client.submit_dhp(poison)
        assert err.value.code == ERR_REJECTED
        ack, _ = client.submit_dhp(good)
        block = hsa.propose_once()
        assert block.header.height == 1
        assert [r.commitment for r in block.records] == [ack]
        assert client.get_token(ack) is not None


def test_submit_past_the_mempool_bound_is_refused(solo, monkeypatch):
    """A full mempool refuses new credentials, still acks one it holds as a
    duplicate, and takes new ones again once a block has drained it."""
    c, hsa = solo
    monkeypatch.setattr("dhp.service.MAX_MEMPOOL", 2)
    first, second, third = (issue(c, i) for i in (75, 76, 77))
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        client.submit_dhp(first)
        client.submit_dhp(second)
        with pytest.raises(ServiceError) as err:
            client.submit_dhp(third)
        assert err.value.code == ERR_REJECTED
        assert client.submit_dhp(first) == (first.record.commitment, True)
        assert len(hsa.propose_once().records) == 2
        assert client.submit_dhp(third) == (third.record.commitment, False)
    assert list(hsa._mempool) == [third.record.commitment]


def test_an_authority_that_missed_a_block_gets_it_before_its_turn(tmp_path):
    """The authority scheduled for height 1 cuts block 1 while it has no
    peers, so the other, scheduled for height 2, never hears of it. Once the
    link is back the first sends its tip again unprompted, and a credential
    submitted to each authority settles."""
    c, nodes = parked_authorities(tmp_path, 2, block_interval=0.02)
    try:
        scheduled = scheduled_authority(1, nodes[0].state.authority_set)
        first, second = sorted(nodes, key=lambda n: n.key.owner.id != scheduled.id)
        peers, first.config.peers = first.config.peers, []
        with connect(first, c.thf_keys[0], c.registry) as client:
            client.wait_for_token(client.submit_dhp(issue(c, 60))[0])
        assert (first.state.height, second.state.height) == (1, 0)
        first.config.peers = peers
        for node, i in ((second, 61), (first, 62)):
            with connect(node, c.thf_keys[0], c.registry) as client:
                client.wait_for_token(client.submit_dhp(issue(c, i))[0])
        assert wait_until(lambda: first.state.height == second.state.height == 3)
        assert chain_bytes(first.state) == chain_bytes(second.state)
    finally:
        for node in nodes:
            node.stop()


def start_member(tmp_path, c, i, listen=("127.0.0.1", 0)):
    """Member i of c, started on tmp_path/bm{i} next to parked_authorities'
    registry."""
    save_keypair(tmp_path / f"bm{i}.key", c.bm_keys[i])
    (tmp_path / "policy.txt").write_text(POLICY_TEXT)
    member = BmNode(NodeConfig(
        role=Role.BM,
        listen=listen,
        data_dir=tmp_path / f"bm{i}",
        registry_file=tmp_path / "registry.txt",
        key_file=tmp_path / f"bm{i}.key",
        policy_file=tmp_path / "policy.txt",
    ))
    member.start()
    return member


@pytest.fixture
def linked(tmp_path):
    """The only authority of its registry, its timer parked, announcing to
    two members."""
    c, (hsa,) = parked_authorities(tmp_path, 1, num_bm=2)
    members = [start_member(tmp_path, c, i) for i in range(2)]
    hsa.config.peers = [m.address for m in members]
    yield c, hsa, members
    hsa.stop()
    for member in members:
        member.stop()


def submit(node, c, i):
    """Submit credential i to node on a connection of its own."""
    with connect(node, c.thf_keys[0], c.registry) as client:
        client.submit_dhp(issue(c, i))


def counting_connects(monkeypatch):
    """The address of every NodeClient.connect from here on."""
    opened, connect_ = [], NodeClient.connect.__func__

    def counting(cls, host, port, **kwargs):
        opened.append((host, port))
        return connect_(cls, host, port, **kwargs)

    monkeypatch.setattr(NodeClient, "connect", classmethod(counting))
    return opened


def test_an_authority_connects_to_each_peer_once(linked, monkeypatch):
    """Five blocks to two peers open two links, one per peer, and every
    block is held by both when propose_once returns."""
    c, hsa, members = linked
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        opened = counting_connects(monkeypatch)
        for i in range(5):
            client.submit_dhp(issue(c, 100 + i))
            block = hsa.propose_once()
            assert hsa._acked == set(hsa.config.peers)
            assert all(m.state.tip == block for m in members)
    assert sorted(opened) == sorted(hsa.config.peers)


def test_an_authority_pulls_and_announces_its_first_block_over_one_link(tmp_path, monkeypatch):
    """An authority started with a member as its configured peer pulls from
    it at its first tick, then announces its first block over the same link:
    one connection to the member, not one for the pull and one for the
    announce."""
    c = Consortium(num_hsa=1, num_thf=1, num_bm=1, genesis_time=0)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "hsa0.key", c.hsa_keys[0])
    member = start_member(tmp_path, c, 0)
    address, opened = member.address, counting_connects(monkeypatch)
    hsa = HsaNode(NodeConfig(
        role=Role.HSA,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "hsa0",
        registry_file=tmp_path / "registry.txt",
        key_file=tmp_path / "hsa0.key",
        block_interval=0.02,
        peers=[address],
    ))
    hsa.start()
    try:
        with connect(hsa, c.thf_keys[0], c.registry) as client:
            client.wait_for_token(client.submit_dhp(issue(c, 130))[0])
        assert wait_until(lambda: hsa._acked == {address})
        assert member.state.tip == hsa.state.tip and hsa.state.height == 1
    finally:
        hsa.stop()
        member.stop()
    assert opened.count(address) == 1


def test_a_member_pulls_over_one_held_link(linked, monkeypatch):
    """Twice the authority makes a block it sends to no one, then announces
    the next: the member refuses each announce, as above its tip, and pulls
    both blocks at its next tick, both times over the one link it holds."""
    c, hsa, (member, _) = linked
    member.config.peers = [hsa.address]
    opened = counting_connects(monkeypatch)

    def propose(i, peers):
        hsa.config.peers = peers
        hsa.dispatch(c.thf_keys[0].owner, bytes((MSG_SUBMIT,)) + pending_bytes(issue(c, i)))
        hsa.propose_once()

    for i in (160, 162):
        propose(i, [])
        propose(i + 1, [member.address])
        assert hsa._acked == set()
        assert wait_until(lambda: member.state.tip == hsa.state.tip)
    assert opened.count(hsa.address) == 1


def test_a_stopped_member_holds_no_links(linked):
    """Stopping a member closes the link its pull opened, and a pull after
    the stop opens none."""
    c, hsa, (member, _) = linked
    member.config.peers = [hsa.address]
    member.sync_from_peers()
    assert list(member._links) == [hsa.address]
    member.stop()
    assert member._links == {}
    member.sync_from_peers()
    assert member._links == {}


def logged_frames(node):
    return [payload for _, payload in read_frames(node._log.path.read_bytes(), BLOCK_LOG_MAGIC, True)[0]]


def test_a_block_is_encoded_once_where_it_is_made_and_never_where_it_arrives(tmp_path, monkeypatch):
    """The authority encodes each block it proposes once (each record of it
    once), for its log and its ANNOUNCE; a member logs the ANNOUNCE frame it
    was sent, and a node that pulls logs each BLOCK frame it was sent. Every
    logged frame is the block_bytes of the block its node holds."""
    c, (hsa,) = parked_authorities(tmp_path, 1, num_bm=3)
    members = [start_member(tmp_path, c, i) for i in range(3)]
    hsa.config.peers = [m.address for m in members[:2]]
    encoded = []
    encode = dhp.ledger.record_bytes

    def counting(record):
        encoded.append(record)
        return encode(record)

    monkeypatch.setattr(dhp.ledger, "record_bytes", counting)
    try:
        blocks = []
        for i in range(2):
            submit(hsa, c, 140 + i)
            blocks.append(hsa.propose_once())
        assert all(m.state.blocks[1:] == tuple(blocks) for m in members[:2])
        sent = logged_frames(hsa)

        def reply(frame):
            (height,) = struct.unpack(">Q", frame[1:])
            if height > len(sent):
                return bytes((MSG_ERROR,)) + struct.pack(">HH", ERR_NOT_FOUND, 0)
            return bytes((MSG_BLOCK,)) + sent[height - 1]

        with serving(type("FramePeer", (_GarbledPeer,), {"reply": staticmethod(reply)})) as address:
            members[2].config.peers = [address]
            members[2].sync_from_peers()
        assert members[2].state.blocks[1:] == tuple(blocks)
        assert encoded == [record for block in blocks for record in block.records]
        for node in (hsa, *members):
            assert logged_frames(node) == sent == [block_bytes(b) for b in node.state.blocks[1:]]
    finally:
        hsa.stop()
        for member in members:
            member.stop()


@pytest.mark.parametrize("holder", ["authority", "member"])
def test_a_link_the_peer_closed_when_idle_is_replaced_in_the_same_announce(linked, monkeypatch, holder):
    """The authority's links to its members, or a member's link to the
    authority, are closed by the peer for idling: the next announce, or the
    next pull, goes over a new link with no pass lost."""
    c, hsa, members = linked
    monkeypatch.setattr("dhp.service.IDLE_TIMEOUT", 0.3)
    if holder == "member":
        node, hsa.config.peers, members = members[0], [], members[:1]
        node.config.peers = [hsa.address]
    else:
        node = hsa
    submit(hsa, c, 110)
    hsa.propose_once()
    node.sync_from_peers()
    stale = dict(node._links)
    time.sleep(1.0)  # each peer has closed its end of the link
    submit(hsa, c, 111)
    block = hsa.propose_once()
    node.sync_from_peers()
    assert hsa._acked == set(hsa.config.peers)
    assert all(m.state.tip == block for m in members)
    assert all(node._links[peer] is not stale[peer] for peer in node.config.peers)


def test_a_restarted_peer_gets_the_next_block_in_the_same_announce(linked, tmp_path):
    c, hsa, members = linked
    submit(hsa, c, 112)
    hsa.propose_once()
    address = members[0].address
    members[0].stop()
    reborn = start_member(tmp_path, c, 0, listen=address)
    try:
        submit(hsa, c, 113)
        block = hsa.propose_once()
        assert hsa._acked == set(hsa.config.peers)
        assert reborn.state.tip == block and reborn.state.height == 2
    finally:
        reborn.stop()


def test_a_stopped_authority_frees_its_peer_s_slot(tmp_path, monkeypatch):
    """The link holds the member's only slot until the authority stops."""
    monkeypatch.setattr("dhp.service.MAX_CONNECTIONS", 1)
    c, (hsa,) = parked_authorities(tmp_path, 1, num_bm=1)
    member = start_member(tmp_path, c, 0)
    hsa.config.peers = [member.address]
    try:
        submit(hsa, c, 120)
        hsa.propose_once()
        assert hsa._acked == {member.address}
        with pytest.raises(ServiceError) as err:
            connect(member, c.thf_keys[0], c.registry)
        assert err.value.code == ERR_REJECTED
        hsa.stop()
        with connect_when_free(member, c) as client:
            assert client.get_head().height == 1
    finally:
        hsa.stop()
        member.stop()


def test_a_peer_slow_to_challenge_still_gets_each_block(net):
    """The member sends its challenge 0.3 s after it accepts a link: longer
    than the authority's block_interval, well inside the 5 s a reply may
    take. The link still forms and the member acks the block."""
    c, hsa, bm = net

    class SlowToChallenge(_Handler):
        def handle(self):
            time.sleep(0.3)
            super().handle()

    bm._server.RequestHandlerClass = SlowToChallenge
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        client.wait_for_token(client.submit_dhp(issue(c, 125))[0])
    assert wait_until(lambda: hsa._acked == {bm.address})
    assert bm.state.tip == hsa.state.tip


def test_propose_once_logs_before_it_publishes(solo, monkeypatch):
    """A block the log refuses is neither published nor credited: the record
    stays pending and goes into the next block."""
    c, hsa = solo
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, _ = client.submit_dhp(issue(c, 72))

    def disk_full(block, frame=None):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(hsa._log, "append", disk_full)
    with pytest.raises(OSError):
        hsa.propose_once()
    assert hsa.state.height == 0
    assert ack in hsa._mempool and ack not in hsa._tokens
    monkeypatch.undo()
    block = hsa.propose_once()
    assert block.header.height == 1
    assert [r.commitment for r in block.records] == [ack]
    assert ack in hsa._tokens and not hsa._mempool
    replayed, _ = replay_block_log(hsa._log.path, c.registry, int(time.time()), strict=True)
    assert replayed.tip == block


def test_a_block_the_log_refused_is_nowhere_in_the_node_s_answers(solo, monkeypatch):
    """The refused block was added to the indexes the node's state shares,
    above its height: the node still serves no such block, a resubmission of
    the refused credential is acked as pending (no IndexError in the
    handler), and the next block appends with that credential."""
    c, hsa = solo
    pending = issue(c, 74)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, _ = client.submit_dhp(pending)
    refused = []

    def disk_full(block, frame=None):
        refused.append(block)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(hsa._log, "append", disk_full)
    with pytest.raises(OSError):
        hsa.propose_once()
    monkeypatch.undo()
    (block,) = refused
    state = hsa.state
    assert (state.height, state.locate(ack), state.height_of(header_hash(block.header))) == (0, None, None)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        assert client.submit_dhp(pending) == (ack, True)
        assert client.get_block(header_hash(block.header)) is None
        assert client.get_token(ack) is None
    appended = hsa.propose_once()
    assert appended.header.height == 1
    assert hsa.state.locate(ack) == (1, 0) and len(hsa.state.index) == 1
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        assert client.get_token(ack) == DhpToken(header_hash(appended.header), 0, pending.salt)


def test_a_failed_fsync_stops_the_block_log(solo, monkeypatch):
    """A block whose fsync failed may or may not be on disk, so the log takes
    no further frame: the retry at the same height fails too, and a restart
    finds at most that one block, not the height logged twice."""
    c, hsa = solo
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        client.submit_dhp(issue(c, 73))
    real_fsync, failures = os.fsync, []

    def fsync_fails_once(fd):
        if not failures:
            failures.append(fd)
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_fails_once)
    for _ in range(2):
        with pytest.raises(OSError):
            hsa.propose_once()
    assert hsa.state.height == 0
    monkeypatch.undo()
    restarted = HsaNode(hsa.config)
    try:
        assert restarted.state.height in (0, 1)
    finally:
        restarted.stop()


def connect_when_free(hsa, c):
    """A client of hsa, retried while the node refuses it for want of a slot."""
    clients = []

    def attempt():
        try:
            clients.append(connect(hsa, c.thf_keys[0], c.registry))
        except ServiceError as exc:
            assert exc.code == ERR_REJECTED
            return False
        return True

    assert wait_until(attempt)
    return clients[0]


def test_connections_past_the_cap_are_refused(tmp_path, monkeypatch):
    """A node serves at most MAX_CONNECTIONS connections at once. One more is
    refused with ERR_REJECTED in place of the challenge, the connections it
    holds keep working, and a closed one frees its slot."""
    monkeypatch.setattr("dhp.service.MAX_CONNECTIONS", 2)
    c, (hsa,) = parked_authorities(tmp_path, 1)
    try:
        first, second = (connect(hsa, c.thf_keys[0], c.registry) for _ in range(2))
        with pytest.raises(ServiceError) as err:
            connect(hsa, c.thf_keys[0], c.registry)
        assert err.value.code == ERR_REJECTED
        assert second.get_head().height == 0
        first.close()
        with connect_when_free(hsa, c) as third:
            assert third.get_head().height == 0
        second.close()
    finally:
        hsa.stop()


def test_connection_slots_survive_concurrent_churn(tmp_path, monkeypatch):
    """Eight clients connect and close at once against a cap of four: each
    connect is served or refused with ERR_REJECTED, and once all are closed
    all four slots are free again and a fifth connection is still refused,
    so no slot was lost or leaked."""
    monkeypatch.setattr("dhp.service.MAX_CONNECTIONS", 4)
    c, (hsa,) = parked_authorities(tmp_path, 1)
    outcomes, errors = [], []

    def churn():
        try:
            for _ in range(5):
                try:
                    with connect(hsa, c.thf_keys[0], c.registry) as client:
                        client.get_head()
                    outcomes.append("served")
                except ServiceError as exc:
                    outcomes.append(exc.code)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(outcomes) == 40 and set(outcomes) <= {"served", ERR_REJECTED}
        assert "served" in outcomes
    finally:
        sys.setswitchinterval(interval)
    try:
        held = [connect_when_free(hsa, c) for _ in range(4)]
        with pytest.raises(ServiceError) as err:
            connect(hsa, c.thf_keys[0], c.registry)
        assert err.value.code == ERR_REJECTED
        for client in held:
            client.close()
    finally:
        hsa.stop()


def test_a_connection_that_never_authenticates_loses_its_slot(tmp_path, monkeypatch):
    """Sockets that take the challenge and never answer it hold their slots
    only until AUTH_TIMEOUT: then the node closes them and serves a member."""
    monkeypatch.setattr("dhp.service.MAX_CONNECTIONS", 2)
    monkeypatch.setattr("dhp.service.AUTH_TIMEOUT", 0.3)
    c, (hsa,) = parked_authorities(tmp_path, 1)
    silent = [socket.create_connection(hsa.address, timeout=5) for _ in range(2)]
    try:
        for sock in silent:
            assert recv_frame(sock)[0] == MSG_CHALLENGE
        with pytest.raises(ServiceError) as err:
            connect(hsa, c.thf_keys[0], c.registry)
        assert err.value.code == ERR_REJECTED
        with connect_when_free(hsa, c) as member:
            assert member.get_head().height == 0
        assert [sock.recv(1) for sock in silent] == [b"", b""]
    finally:
        for sock in silent:
            sock.close()
        hsa.stop()


def test_an_idle_member_loses_its_slot(tmp_path, monkeypatch):
    """An authenticated connection that sends no request for IDLE_TIMEOUT is
    closed, and its slot goes to the next member."""
    monkeypatch.setattr("dhp.service.MAX_CONNECTIONS", 1)
    monkeypatch.setattr("dhp.service.IDLE_TIMEOUT", 0.3)
    c, (hsa,) = parked_authorities(tmp_path, 1)
    try:
        idle = connect(hsa, c.thf_keys[0], c.registry)
        assert idle.get_head().height == 0
        with connect_when_free(hsa, c) as member:
            assert member.get_head().height == 0
        with pytest.raises(OSError):
            idle.get_head()
        idle.close()
    finally:
        hsa.stop()


def test_a_block_from_a_peer_mints_the_tokens_it_settles(tmp_path):
    """A credential pending at both authorities gets its token at the one
    that did not propose it as soon as the block arrives, not at that
    authority's next turn, which may never come while the chain waits. The
    held block's header sent again with another pending credential as its
    records is refused and mints nothing."""
    c, nodes = parked_authorities(tmp_path, 2)
    try:
        pending = issue(c, 73)
        for node in nodes:
            with connect(node, c.thf_keys[0], c.registry) as client:
                ack, _ = client.submit_dhp(pending)
        scheduled = scheduled_authority(1, nodes[0].state.authority_set)
        proposer, other = sorted(nodes, key=lambda n: n.key.owner.id != scheduled.id)
        block1 = proposer.propose_once()
        assert block1.header.height == 1
        with connect(proposer, c.thf_keys[0], c.registry) as client:
            token = client.get_token(ack)
        with connect(other, c.thf_keys[0], c.registry) as client:
            assert client.get_token(ack) == token
            assert token is not None and other._mempool == {}
            later = issue(c, 74)
            later_ack, _ = client.submit_dhp(later)
        held = other.state
        with connect(other, proposer.key, c.registry) as client:
            assert not client.announce_block(Block(block1.header, (later.record,)))
        with connect(other, c.thf_keys[0], c.registry) as client:
            assert client.get_token(later_ack) is None
        assert other.state is held and later_ack in other._mempool
    finally:
        for node in nodes:
            node.stop()


def _error_code(reply):
    assert reply[0] == MSG_ERROR, reply
    return struct.unpack_from(">H", reply, 1)[0]


def test_dispatch_answers_unparseable_bodies_as_malformed(net):
    c, _, bm = net
    now = int(time.time())
    # a block whose method code is not UTF-8: the high bit of the R of RT-qPCR
    frame = bytearray(block_bytes(propose_block(c.state, [issue(c, 91).record], c.hsa_keys[0], now)))
    frame[frame.index(b"RT-qPCR")] ^= 0x80
    reply = bm.dispatch(c.hsa_keys[0].owner, bytes((MSG_ANNOUNCE,)) + bytes(frame))
    assert _error_code(reply) == ERR_MALFORMED
    # a document whose expiry day count lies past date.max
    doc = canonical_doc_bytes(make_doc(92))[:-4] + struct.pack(">I", 0xFFFFFFFF)
    token = DhpToken(b"\x00" * 32, 0, issue(c, 92).salt)
    body = token_bytes(token) + struct.pack(">Q", now) + doc
    assert _error_code(bm.dispatch(c.bm_keys[0].owner, bytes((MSG_VERIFY,)) + body)) == ERR_MALFORMED
    assert bm.state.height == 0


class _GarbledPeer(socketserver.BaseRequestHandler):
    """Lets anyone in, then answers each request frame with reply(frame): by
    default the two-byte frame 7f 00, an ERROR type byte whose code and
    message are missing."""

    @staticmethod
    def reply(frame):
        return b"\x7f\x00"

    def handle(self):
        try:
            send_frame(self.request, bytes((MSG_CHALLENGE,)) + b"\x00" * 32)
            recv_frame(self.request)
            send_frame(self.request, bytes((MSG_AUTH_OK,)))
            while True:
                send_frame(self.request, self.reply(recv_frame(self.request)))
        except OSError:
            return


@contextlib.contextmanager
def serving(handler):
    """A fake peer served by `handler` on a free port; yields its address."""
    peer = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    peer.daemon_threads = True
    threading.Thread(target=peer.serve_forever, daemon=True).start()
    try:
        yield peer.server_address
    finally:
        peer.shutdown()
        peer.server_close()


def test_garbled_peer_replies_stop_neither_proposer_nor_sync(net, monkeypatch):
    c, hsa, _ = net
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    with serving(_GarbledPeer) as address:
        hsa.config.peers = [address]
        with connect(hsa, c.thf_keys[0], c.registry) as client:
            for i in (40, 41):
                ack, _ = client.submit_dhp(issue(c, i))
                client.wait_for_token(ack)
        assert hsa.state.height == 2
        hsa.sync_from_peers()
    assert crashes == []


def test_orphan_that_fails_keeps_disk_and_memory_in_step(tmp_path):
    """Block 2 with a zeroed authority signature, announced above the tip,
    is refused and kept nowhere; block 1 is then accepted, a repeat of it is
    acked without being logged again, a conflicting block 1, block 1's
    header with other records and a block 2 that repeats block 1's credential
    are refused, and the log replays to block 1."""
    c = Consortium(num_hsa=1, num_thf=1, num_bm=1, genesis_time=0)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "bm0.key", c.bm_keys[0])
    (tmp_path / "policy.txt").write_text(POLICY_TEXT)
    config = NodeConfig(
        role=Role.BM,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "bm0",
        registry_file=tmp_path / "registry.txt",
        key_file=tmp_path / "bm0.key",
        policy_file=tmp_path / "policy.txt",
    )
    now = int(time.time())
    block1 = propose_block(c.state, [issue(c, 80).record], c.hsa_keys[0], now)
    state1 = append_block(c.state, block1, now)
    block2 = propose_block(state1, [issue(c, 81).record], c.hsa_keys[0], now)
    repeat2 = propose_block(state1, list(block1.records), c.hsa_keys[0], now)
    forged2 = Block(replace(block2.header, authority_signature=b"\x00" * 64), block2.records)
    other1 = propose_block(c.state, [issue(c, 79).record], c.hsa_keys[0], now)
    conflict1 = Block(replace(other1.header, authority_signature=b"\x00" * 64), other1.records)
    swapped1 = Block(block1.header, other1.records)
    bm = BmNode(config)
    bm.start()
    try:
        with connect(bm, c.hsa_keys[0], c.registry) as client:
            assert not client.announce_block(forged2)
            assert client.announce_block(block1)
            held, log_bytes = bm.state, bm._log.path.read_bytes()
            assert held.height == 1
            assert client.announce_block(block1)
            assert not client.announce_block(conflict1)
            assert not client.announce_block(swapped1)
            assert not client.announce_block(repeat2)
            assert bm.state is held
            assert bm._log.path.read_bytes() == log_bytes
    finally:
        bm.stop()
    assert BmNode(config).state.height == 1


def test_a_pull_asks_forward_from_the_tip_and_stops_at_a_refused_block(net, caplog):
    """A peer serves a hash-linked chain of 30 unsigned blocks above
    genesis. The pull asks for height 1 only, refuses that block, logs the
    peer, the height and the reason, and leaves the member unchanged."""
    c, _, bm = net
    now = int(time.time())
    template = propose_block(c.state, [issue(c, 87).record], c.hsa_keys[0], now)
    chain, prev = [], header_hash(c.state.tip.header)
    for height in range(1, 31):
        header = replace(template.header, height=height, prev_hash=prev, authority_signature=b"\x00" * 64)
        chain.append(Block(header, template.records))
        prev = header_hash(header)
    asked = []

    def reply(frame):
        assert frame[0] == MSG_GET_BLOCK_AT
        (height,) = struct.unpack(">Q", frame[1:])
        asked.append(height)
        return bytes((MSG_BLOCK,)) + block_bytes(chain[height - 1])

    before, log_bytes = bm.state, bm._log.path.read_bytes()
    with serving(type("ForgingPeer", (_GarbledPeer,), {"reply": staticmethod(reply)})) as address:
        bm.config.peers = [address]
        with caplog.at_level(logging.WARNING, logger="dhp.service"):
            bm.sync_from_peers()
    assert asked == [1]
    assert bm.state is before
    assert bm._log.path.read_bytes() == log_bytes
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pull from")]
    assert line == f"pull from {address[0]}:{address[1]} stopped at height 1: InvalidBlock('BadAuthoritySig')"


def test_a_refused_announce_is_logged_with_its_reason(net, caplog):
    c, _, bm = net
    block1 = propose_block(c.state, [issue(c, 89).record], c.hsa_keys[0], int(time.time()))
    above = Block(replace(block1.header, height=2), block1.records)
    forged = Block(replace(block1.header, authority_signature=b"\x00" * 64), block1.records)
    hsa = c.hsa_keys[0].owner
    with caplog.at_level(logging.INFO, logger="dhp.service"):
        for block in (above, forged):
            assert bm.dispatch(hsa, bytes((MSG_ANNOUNCE,)) + block_bytes(block)) == bytes((MSG_ANNOUNCE_ACK, 0))
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("refused")] == [
        f"refused block 2 from {hsa.label()} at tip 0: not the next block",
        f"refused block 1 from {hsa.label()} at tip 0: BadAuthoritySig",
    ]


def test_forged_blocks_above_the_tip_are_refused_and_kept_nowhere(net):
    c, _, bm = net
    block1 = propose_block(c.state, [issue(c, 82).record], c.hsa_keys[0], int(time.time()))
    before, log_bytes = bm.state, bm._log.path.read_bytes()
    for height in range(2, 52):
        forged = Block(replace(block1.header, height=height, authority_signature=b"\x00" * 64), block1.records)
        reply = bm.dispatch(c.hsa_keys[0].owner, bytes((MSG_ANNOUNCE,)) + block_bytes(forged))
        assert reply == bytes((MSG_ANNOUNCE_ACK, 0))
    assert bm.state is before
    assert bm._log.path.read_bytes() == log_bytes


def test_member_that_missed_an_announce_catches_up_on_the_next(net, monkeypatch):
    """Blocks 1 and 2 are made while the member is not a peer; the next
    announce to it is refused, so the authority sends it the blocks it lacks."""
    c, hsa, bm = net
    announced = []
    announce = hsa._announce

    def announce_then_record():
        announce()
        announced.append(hsa.state.height)

    monkeypatch.setattr(hsa, "_announce", announce_then_record)
    hsa.config.peers = []
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        for height, i in ((1, 83), (2, 84)):
            client.wait_for_token(client.submit_dhp(issue(c, i))[0])
            assert wait_until(lambda: height in announced)  # the block went to no one
        hsa.config.peers = [bm.address]
        for i in (85, 86):
            client.wait_for_token(client.submit_dhp(issue(c, i))[0])
    assert hsa.state.height == 4
    assert wait_until(lambda: bm.state.height == 4)
    assert chain_bytes(bm.state) == chain_bytes(hsa.state)
    replayed, _ = replay_block_log(bm._log.path, c.registry, int(time.time()), strict=True)
    assert replayed.tip == hsa.state.tip


def test_a_member_far_behind_costs_the_proposer_one_announce(linked, monkeypatch):
    """Both members miss 50 blocks. The next propose_once writes one
    ANNOUNCE to each and nothing more; each member then pulls up to the tip
    by itself, and its log replays strictly to the authority's chain."""
    c, hsa, members = linked
    peers, hsa.config.peers = hsa.config.peers, []
    for i in range(50):
        submit(hsa, c, 200 + i)
        hsa.propose_once()
    hsa.config.peers = peers
    for member in members:
        member.config.peers = [hsa.address]
    sent, send = [], NodeClient.send

    def counting(client, payload):
        sent.append(payload[0])
        send(client, payload)

    submit(hsa, c, 250)
    monkeypatch.setattr(NodeClient, "send", counting)
    hsa.propose_once()
    assert sent.count(MSG_ANNOUNCE) == len(peers)
    for member in members:
        assert wait_until(lambda: member.state.tip == hsa.state.tip)
        assert chain_bytes(member.state) == chain_bytes(hsa.state)
        replayed, _ = replay_block_log(member._log.path, c.registry, int(time.time()), strict=True)
        assert replayed.tip == hsa.state.tip


def three_block_authority(tmp_path, c):
    """The config of c's first authority, whose data dir holds a 3-block log
    made under c's registry with a credential of each facility per block."""
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "hsa0.key", c.hsa_keys[0])
    config = NodeConfig(
        role=Role.HSA,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "hsa0",
        registry_file=tmp_path / "registry.txt",
        key_file=tmp_path / "hsa0.key",
    )
    node, now = HsaNode(config), int(time.time())
    try:
        for height in range(1, 4):
            records = [
                thf_issue(key, make_doc(10 * height + j), True, c.method, now, now=now, rng=Random(height)).record
                for j, key in enumerate(c.thf_keys)
            ]
            node._apply_block(propose_block(node.state, records, c.hsa_keys[0], now))
        assert node.state.height == 3
    finally:
        node.stop()
    return config


def test_a_cold_start_reads_and_splits_its_block_log_once(tmp_path, monkeypatch):
    """Recovery reads and splits the block log once, and trims a torn tail
    at the frame where that one replay stopped: the next block lands on a
    frame boundary."""
    c = Consortium(num_hsa=1, num_thf=2, num_bm=0, genesis_time=0)
    config = three_block_authority(tmp_path, c)
    path = config.data_dir / "blocks.log"
    whole = path.read_bytes()
    path.write_bytes(whole + whole[5:40])  # a torn fourth frame
    splits = []
    split = dhp.storage.read_frames

    def counting(data, magic, strict):
        if magic == BLOCK_LOG_MAGIC:
            splits.append(len(data))
        return split(data, magic, strict)

    monkeypatch.setattr(dhp.storage, "read_frames", counting)
    node = build_node(config)
    try:
        assert splits == [len(whole) + 35] and node.state.height == 3
        assert path.read_bytes() == whole
        pending = thf_issue(c.thf_keys[0], make_doc(90), True, c.method, int(time.time()), rng=Random(90))
        node._mempool[pending.record.commitment] = pending
        assert node.propose_once().header.height == 4
    finally:
        node.stop()
    replayed, torn = replay_block_log(path, c.registry, int(time.time()), strict=True)
    assert (replayed.height, torn) == (4, None)


def test_a_removed_facility_is_a_registry_mismatch_not_a_corrupt_log(tmp_path):
    c = Consortium(num_hsa=1, num_thf=2, genesis_time=0)
    config = three_block_authority(tmp_path, c)
    revoked = c.thf_keys[1].owner
    save_registry(config.registry_file, Registry(tuple(m for m in c.registry.members if m != revoked)))
    with pytest.raises(RegistryMismatch, match=f"differs from the data dir's: removed {revoked.label()}$"):
        HsaNode(config)


def test_an_added_authority_is_a_registry_mismatch_not_a_corrupt_log(tmp_path):
    c = Consortium(num_hsa=1, num_thf=2, genesis_time=0)
    config = three_block_authority(tmp_path, c)
    joined = seeded_key(Role.HSA, "joined").owner
    save_registry(config.registry_file, c.registry.with_member(joined))
    with pytest.raises(RegistryMismatch, match=f"differs from the data dir's: added {joined.label()}$"):
        HsaNode(config)


def joined_facility_block(tmp_path):
    """c, the config of c's first authority and a facility's key: the
    authority's log holds three blocks under c's registry, then a fourth,
    made after a restart with the facility added, with its credential."""
    c = Consortium(num_hsa=1, num_thf=2, genesis_time=0)
    config = three_block_authority(tmp_path, c)
    joined = seeded_key(Role.THF, "joined")
    save_registry(config.registry_file, c.registry.with_member(joined.owner))
    node, now = HsaNode(config), int(time.time())
    try:
        record = thf_issue(joined, make_doc(90), True, c.method, now, now=now, rng=Random(90)).record
        node._apply_block(propose_block(node.state, [record], c.hsa_keys[0], now))
    finally:
        node.stop()
    return c, config, joined


def test_an_audit_without_a_registry_replays_under_the_one_the_node_last_started_with(tmp_path, capsys):
    _, config, _ = joined_facility_block(tmp_path)
    assert main(["chain", "audit", "--data-dir", str(config.data_dir)]) == 0
    assert capsys.readouterr().out.startswith("chain audit ok: 5 blocks, height 4, 7 records")


def test_a_facility_removed_after_its_credentials_reached_the_chain_is_named(tmp_path):
    c, config, joined = joined_facility_block(tmp_path)
    save_registry(config.registry_file, c.registry)
    with pytest.raises(RegistryMismatch, match=f"differs from the data dir's: removed {joined.owner.label()}$"):
        HsaNode(config)


def test_a_restart_with_the_same_inputs_rewrites_no_data_dir_file(tmp_path, monkeypatch):
    """The registry copy and genesis.txt are replaced only when their
    content changes, so a plain restart renames nothing."""
    c = Consortium(num_hsa=1, num_thf=2, genesis_time=0)
    config = three_block_authority(tmp_path, c)
    files = {name: (config.data_dir / name).read_bytes() for name in ("registry.txt", "genesis.txt")}
    replaced, real_replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda *args: (replaced.append(args), real_replace(*args)))
    HsaNode(config).stop()
    assert replaced == []
    assert {name: (config.data_dir / name).read_bytes() for name in files} == files


def test_a_registry_that_only_adds_members_still_starts(tmp_path):
    """New facilities and members leave history valid, and a log corrupted
    on disk under that grown registry is still blamed on the log."""
    c = Consortium(num_hsa=1, num_thf=2, genesis_time=0)
    config = three_block_authority(tmp_path, c)
    grown = c.registry.with_member(seeded_key(Role.THF, "joined").owner)
    grown = grown.with_member(seeded_key(Role.BM, "joined").owner)
    save_registry(config.registry_file, grown)
    node = HsaNode(config)
    node.stop()
    assert node.state.height == 3
    log = config.data_dir / "blocks.log"
    data = bytearray(log.read_bytes())
    data[-1] ^= 0x01  # the last record's issuer signature
    log.write_bytes(bytes(data))
    with pytest.raises(CorruptLog):
        HsaNode(config)


def test_a_flipped_record_signature_byte_is_refused_at_its_frame_by_restart_and_audit(tmp_path, capsys):
    """Recovery leaves record signatures unchecked, but the Merkle root the
    authority signed covers them: the recovery, the restarted node and the
    strict audit all refuse the frame at its offset."""
    c = Consortium(num_hsa=1, num_thf=2, genesis_time=0)
    config = three_block_authority(tmp_path, c)
    path = config.data_dir / "blocks.log"
    data = bytearray(path.read_bytes())
    frames, _ = read_frames(bytes(data), BLOCK_LOG_MAGIC, strict=True)
    offset, payload = frames[1]
    signature = parse_block(payload, c.registry).records[1].issuer_signature
    data[offset + 4 + payload.index(signature) + 10] ^= 0x01
    path.write_bytes(bytes(data))
    with BlockLog(path) as log, pytest.raises(CorruptLog) as recovery:
        log.recover(c.registry, int(time.time()))
    with pytest.raises(CorruptLog) as restart:
        HsaNode(config)
    for err in (recovery, restart):
        assert (err.value.offset, err.value.reason) == (offset, "invalid block: BadMerkleRoot")
    assert main(["chain", "audit", "--data-dir", str(config.data_dir)]) == 2
    assert f"corrupt frame at offset {offset}: invalid block: BadMerkleRoot" in capsys.readouterr().err


def test_a_frame_longer_than_the_longest_valid_message_is_refused():
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(EncodingError, match="exceeds limit"):
            recv_frame(theirs)


def test_the_longest_valid_block_fits_in_one_frame():
    """MAX_BLOCK_RECORDS records whose method codes take 255 bytes make a
    valid block whose ANNOUNCE is exactly MAX_FRAME long and is received
    whole."""
    c = Consortium(num_hsa=1, num_thf=1, genesis_time=0)
    now, method = int(time.time()), TestMethod.named("M" * 255)
    records = [
        thf_issue(c.thf_keys[0], make_doc(i), True, method, now, now=now, rng=Random(i)).record
        for i in range(MAX_BLOCK_RECORDS)
    ]
    block = propose_block(c.state, records, c.hsa_keys[0], now)
    assert append_block(c.state, block, now).tip == block
    frame = bytes((MSG_ANNOUNCE,)) + block_bytes(block)
    assert len(frame) == MAX_FRAME
    ours, theirs = socket.socketpair()
    with ours, theirs:
        sender = threading.Thread(target=send_frame, args=(ours, frame))
        sender.start()
        received = recv_frame(theirs)
        sender.join()
    assert received == frame


def test_node_rejects_mismatched_key_role(tmp_path):
    c = Consortium(num_hsa=1)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "bm.key", c.bm_keys[0])
    config = NodeConfig(
        role=Role.HSA,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "data",
        registry_file=tmp_path / "registry.txt",
        key_file=tmp_path / "bm.key",
    )
    with pytest.raises(EncodingError):
        HsaNode(config)


def test_parse_node_config(tmp_path):
    text = (
        "role = hsa\nlisten = 127.0.0.1:7700\npeers = 10.0.0.1:7701, 10.0.0.2:7702\n"
        "data_dir = data\nregistry = registry.txt\nkey = node.key\nblock_interval = 0.5\n"
    )
    config = parse_node_config(text, base_dir=tmp_path)
    assert config.role is Role.HSA
    assert config.listen == ("127.0.0.1", 7700)
    assert config.peers == [("10.0.0.1", 7701), ("10.0.0.2", 7702)]
    assert config.data_dir == tmp_path / "data"
    assert config.block_interval == 0.5


def test_parse_node_config_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DHP_DATA_DIR", str(tmp_path / "elsewhere"))
    config = parse_node_config(
        "role = hsa\nlisten = 127.0.0.1:1\ndata_dir = data\nregistry = r\nkey = k\n",
        base_dir=tmp_path,
    )
    assert config.data_dir == tmp_path / "elsewhere"


@pytest.mark.parametrize(
    "text",
    [
        "listen = 1.2.3.4:1\ndata_dir = d\nregistry = r\nkey = k\n",       # role missing
        "role = thf\nlisten = 1.2.3.4:1\ndata_dir = d\nregistry = r\nkey = k\n",
        "role = bm\nlisten = 1.2.3.4:1\ndata_dir = d\nregistry = r\nkey = k\n",  # bm w/o policy
        "role = hsa\nlisten = nope\ndata_dir = d\nregistry = r\nkey = k\n",
        "role = hsa\nlisten = 1.2.3.4:1\ndata_dir = d\nregistry = r\nkey = k\nkey = k2\n",  # repeated key
        "role = hsa\nlisten = 1.2.3.4:99999\ndata_dir = d\nregistry = r\nkey = k\n",
        "role = hsa\nlisten = 1.2.3.4:\u00b2\ndata_dir = d\nregistry = r\nkey = k\n",  # a digit int() refuses
        "role = hsa\nlisten = 1.2.3.4:1\npeers = 1.2.3.4:65536\ndata_dir = d\nregistry = r\nkey = k\n",
        *(
            f"role = hsa\nlisten = 1.2.3.4:1\ndata_dir = d\nregistry = r\nkey = k\nblock_interval = {value}\n"
            for value in ("0", "-1", "nan", "inf", "abc")
        ),
        *(
            f"role = hsa\nlisten = 1.2.3.4:1\ndata_dir = d\nregistry = r\nkey = k\ngenesis_time = {value}\n"
            for value in ("-1", str(2**64), "1.5")
        ),
    ],
)
def test_parse_node_config_errors(text, tmp_path):
    with pytest.raises(EncodingError):
        parse_node_config(text, base_dir=tmp_path)


def test_parse_node_config_genesis_time_bounds(tmp_path):
    base = "role = hsa\nlisten = 1.2.3.4:1\ndata_dir = d\nregistry = r\nkey = k\n"
    assert parse_node_config(base, base_dir=tmp_path).genesis_time == 0
    assert parse_node_config(base + f"genesis_time = {2**64 - 1}\n", base_dir=tmp_path).genesis_time == 2**64 - 1
    with pytest.raises(EncodingError, match="genesis_time"):
        parse_node_config(base + "genesis_time = -1\n", base_dir=tmp_path)
