import time
from dataclasses import replace
from random import Random

import pytest

from dhp.core import EncodingError, Role
from dhp.ledger import MAX_BLOCK_RECORDS, Block, append_block, header_hash, propose_block
from dhp.protocol import OutcomeStatus, ViolationReason, format_policy, thf_issue
from dhp.service import (
    ERR_NOT_FOUND,
    ERR_REJECTED,
    ERR_WRONG_ROLE,
    BmNode,
    HsaNode,
    NodeClient,
    NodeConfig,
    ServiceError,
    parse_node_config,
)
from dhp.storage import ReceiptLog, save_keypair, save_registry

from conftest import Consortium, make_doc, seeded_key
from test_protocol import POLICY


@pytest.fixture
def net(tmp_path):
    """One HSA node and one BM node wired as peers, plus client key material."""
    c = Consortium(num_hsa=1, num_thf=2, num_bm=1, genesis_time=0)
    registry_path = tmp_path / "registry.txt"
    save_registry(registry_path, c.registry)
    policy_path = tmp_path / "policy.txt"
    policy_path.write_text(format_policy(POLICY))

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


def connect(node, key, registry=None):
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
        NodeClient.connect(*hsa.address, key=stranger)


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


def token_height(hsa, token):
    return hsa.state.header_index[token.header_hash]


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


def test_node_restart_resumes_from_block_log(net, tmp_path):
    c, hsa, bm = net
    pending = issue(c, 20)
    with connect(hsa, c.thf_keys[0], c.registry) as client:
        ack, _ = client.submit_dhp(pending)
        client.wait_for_token(ack)
    height = hsa.state.height
    hsa.stop()
    reborn = HsaNode(replace(hsa.config, listen=("127.0.0.1", 0)))
    assert reborn.state.height == height
    reborn.start()
    with connect(reborn, c.thf_keys[0], c.registry) as client:
        assert client.get_head().height == height
    reborn.stop()


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
        from dhp.ledger import chain_bytes

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


@pytest.fixture
def solo(tmp_path):
    """The only authority of its registry, started, whose timer never cuts a
    block: blocks are made by calling propose_once()."""
    c = Consortium(num_hsa=1, num_thf=1, num_bm=0, genesis_time=0)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "hsa0.key", c.hsa_keys[0])
    hsa = HsaNode(NodeConfig(
        role=Role.HSA,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / "hsa0",
        registry_file=tmp_path / "registry.txt",
        key_file=tmp_path / "hsa0.key",
        block_interval=3600,
    ))
    hsa.start()
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


def test_orphan_that_fails_keeps_disk_and_memory_in_step(tmp_path):
    """Block 2 with a zeroed authority signature waits as an orphan; block 1
    is then accepted, the orphan is dropped, and the log replays to block 1."""
    c = Consortium(num_hsa=1, num_thf=1, num_bm=1, genesis_time=0)
    save_registry(tmp_path / "registry.txt", c.registry)
    save_keypair(tmp_path / "bm0.key", c.bm_keys[0])
    (tmp_path / "policy.txt").write_text(format_policy(POLICY))
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
    block2 = propose_block(append_block(c.state, block1, now), [issue(c, 81).record], c.hsa_keys[0], now)
    forged2 = Block(replace(block2.header, authority_signature=b"\x00" * 64), block2.records)
    bm = BmNode(config)
    bm.start()
    try:
        with connect(bm, c.hsa_keys[0], c.registry) as client:
            assert client.announce_block(forged2)
            assert client.announce_block(block1)
            assert bm.state.height == 1
            assert not bm._orphans
            assert client.announce_block(block1)  # a repeat is not logged again
    finally:
        bm.stop()
    assert BmNode(config).state.height == 1


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
    ],
)
def test_parse_node_config_errors(text, tmp_path):
    with pytest.raises(EncodingError):
        parse_node_config(text, base_dir=tmp_path)
