"""Golden bytes of the frames a peer decodes.

Every frame is built from the seeded test consortium by the program's own
encoders and node handlers, so the pinned hex is the wire format itself: a
change to any of these strings breaks interoperability with deployed nodes.
Each pinned frame is also decoded back through the client, which checks the
decoders against the same bytes.
"""

import hashlib
import socket
import threading
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhp.core import EncodingError, Role, TestMethod
from dhp.ledger import (
    Block,
    append_block,
    block_bytes,
    merkle_root,
    parse_block,
    propose_block,
    record_leaf,
    validate_block,
)
from dhp.protocol import OutcomeStatus, hsa_register, parse_receipt_frame, receipt_frame_bytes, thf_issue
from dhp.service import (
    ERR_NOT_FOUND,
    BmNode,
    HsaNode,
    NodeClient,
    NodeConfig,
    ServiceError,
    _Handler,
    recv_frame,
    send_frame,
)
from dhp.storage import BlockLog, replay_block_log, save_keypair, save_registry

from conftest import Consortium, make_doc
from test_protocol import HOUR, POLICY_TEXT, T0

NONCE = bytes(range(32))

# header hash of block 1 and the salt of its one credential
HEADER = "5e4fa25d64b61da00363e80826d9d76fea65386732add162ef9c729fd0bb3fe4"
SALT = "f5b165224a58b791df6af1d8303e61cd"
TOKEN = HEADER + "00000000" + SALT
RECEIPT_FRAME = (
    "df91c72211756c2884ef2c19d21bb383" + HEADER + "00000000" "00" "000000006553ff10" "0040"
    "1df6b596227be64f87f3570e47b1a6705870bf6de36a9e7b1826401e2b9ae4da"
    "8bf4448915587c88cf089d85979e4dab8478fba6ac151d37d0d044972392410c"
)
SUBMIT_ACK = "11" "f90dfa513a93cb55e564dfff455bdfa50f0a5a3cdce938f07cc19320b08bd487" "00"
TOKEN_REPLY = "13" "01" + TOKEN
ERROR_REPLY = "7f" "0004" "0012" + b"unknown commitment".hex()
VERIFY_REQUEST = "30" + TOKEN + "000000006553ff10" "0009" "503030303030303031" "475243" "00005a7a"
OUTCOME_REPLY = "31" "00" "00" "01" "0000000000000001" "00000000" "000000006553ff10" "007f" + RECEIPT_FRAME
AUTH_FRAME = (
    "02" "01" "f902f9406203b69c4b49b27c46ad1df7" "0040"
    "93ad79df8ec32274fe78ae1cbac3afa5e4a41897f241dc5e959a1566e4cffaa2"
    "4e3d0069c828aa2c5f4e5242e2298537153ee9616f15dabcb6e4890a3959130d"
)
# the pull's request for block 1, and the member's reply: block 1 as the
# BLOCK frame (header, record count, its one record)
GET_BLOCK_AT_REQUEST = "24" "0000000000000001"
BLOCK_REPLY = (
    "21" "0000000000000001"
    "f3eaf0275908d931f1c813beea49a971a5455ec74ac99549da051e18b3d438db"
    "89b027719b21e38b28730f11e43a8dbae1bea1354055310f744261ae4903be0a"
    "6a9fc8dbdc472a8e60c201448c3f9734" "000000006553f13c" "0040"
    "f331383d5cab351cfe35cf574f8f2a08c6e730215b4e08355792cee618592ea3"
    "96cc3be47f1663e560b394a63cf09d52db18cc1a1501aa52f2aafd3864d06b0b"
    "00000001"
    "f90dfa513a93cb55e564dfff455bdfa50f0a5a3cdce938f07cc19320b08bd487" "01" "000000006553f100"
    "07" "52542d71504352" "f902f9406203b69c4b49b27c46ad1df7" "0040"
    "868c64f0131c69fa02ab032a4e3f7cf3d073995685badd483d720177e124eb49"
    "2b02ceb2dfa277c2878dd5e326884114f572486487c75ffa140655934cb49b07"
)

# Merkle roots over seeded credentials (seeded_records), at 3 and 256 leaves
MERKLE_ROOT_3 = "864fdb3acba90ea7d06ad0417fcfc2a75c742e50dc1f12fca433d54fa55d317b"
MERKLE_ROOT_256 = "c0f05f994a8981a14b1ef0c178709d8fc747f824f71d124f261efe699676c180"
# Merkle roots at 0, 1 and 2 leaves, as the headers that carry them: the
# genesis block's, and block 1 proposed over 1 or 2 seeded credentials
MERKLE_ROOT_0 = "b081787bf37c30352f575ee116f36420aa40a9b2413b9760c1a137f24d81a34b"
MERKLE_ROOT_1 = "eb413e7ce399126c855b2005d21d3286971710ae8680f39e69b1b3d4236548d5"
MERKLE_ROOT_2 = "6347a3d153573f067051942e6e3faf7290ef5baa71f82cc344a4608861665a25"
# block 1 holding 5 seeded credentials under two method codes: the SHA-256 of
# its block frame, and of the block log that holds that one frame
BLOCK_FRAME_LEN = 813
BLOCK_FRAME_SHA256 = "2fe9e0e5e5a8fd6ef5cc6eda6c0b011b5302d3bf40755ef3df37990cc65c2bf3"
BLOCK_LOG_SHA256 = "5bf2060970d1ea482809288aafeeae0128a89574c0067cddaf658b4e311dac54"


def node_config(tmp_path, c, role, key, name):
    save_keypair(tmp_path / f"{name}.key", key)
    return NodeConfig(
        role=role,
        listen=("127.0.0.1", 0),
        data_dir=tmp_path / name,
        registry_file=tmp_path / "registry.txt",
        key_file=tmp_path / f"{name}.key",
        policy_file=tmp_path / "policy.txt",
        block_interval=3600,
        genesis_time=c.genesis_time,
    )


def over_pair(node, member, registry, call):
    """Run one client call against node.dispatch across a socket pair.

    Returns (result or raised ServiceError, request frame, reply frame)."""
    ours, theirs = socket.socketpair()
    seen = []

    def serve():
        request = recv_frame(theirs)
        reply = node.dispatch(member, request)
        seen.extend((request, reply))
        send_frame(theirs, reply)

    server = threading.Thread(target=serve)
    server.start()
    try:
        result = call(NodeClient(ours, registry))
    except ServiceError as exc:
        result = exc
    finally:
        ours.close()  # ends the server's read if the call never sent a request
        server.join(timeout=5)
        theirs.close()
    assert not server.is_alive()
    return result, seen[0], seen[1]


def build_wire(tmp_path):
    """One credential submitted to hsa-0, sealed into block 1 by hsa-1,
    announced to hsa-0 and to the member, checked there, and pulled from
    the member by height."""
    c = Consortium()
    save_registry(tmp_path / "registry.txt", c.registry)
    (tmp_path / "policy.txt").write_text(POLICY_TEXT)
    hsa = HsaNode(node_config(tmp_path, c, Role.HSA, c.hsa_keys[0], "hsa0"))
    bm = BmNode(node_config(tmp_path, c, Role.BM, c.bm_keys[0], "bm0"))
    pending = thf_issue(c.thf_keys[0], make_doc(1), True, c.method, T0, now=T0, rng=Random(1))
    thf = c.thf_keys[0].owner

    frames = {}
    ack, _, frames["submit_ack"] = over_pair(hsa, thf, c.registry, lambda cl: cl.submit_dhp(pending))
    state, (token,) = hsa_register(c.hsa_keys[1], c.state, [pending], T0 + 60)
    for node in (hsa, bm):
        accepted, _, _ = over_pair(node, c.hsa_keys[1].owner, c.registry, lambda cl: cl.announce_block(state.tip))
        assert accepted
    assert hsa.propose_once() is None  # hsa-0 is scheduled at height 2 and mints the token
    got, _, frames["token_reply"] = over_pair(hsa, thf, c.registry, lambda cl: cl.get_token(ack[0]))
    error, _, frames["error_reply"] = over_pair(hsa, thf, c.registry, lambda cl: cl.get_token(b"\x31" * 32))
    checked, frames["verify_request"], frames["outcome_reply"] = over_pair(
        bm, c.bm_keys[0].owner, c.registry, lambda cl: cl.verify(token, make_doc(1), T0 + HOUR)
    )
    pulled, frames["get_block_at_request"], frames["block_reply"] = over_pair(
        bm, c.hsa_keys[0].owner, c.registry, lambda cl: cl.get_block_at(1)
    )
    return SimpleNamespace(c=c, hsa=hsa, bm=bm, block=state.tip, pending=pending, token=token, ack=ack, got=got,
                           error=error, checked=checked, pulled=pulled, frames=frames)


@pytest.fixture
def wire(tmp_path):
    return build_wire(tmp_path)


def test_reply_frames_are_pinned(wire):
    frames = wire.frames
    assert frames["submit_ack"].hex() == SUBMIT_ACK
    assert frames["token_reply"].hex() == TOKEN_REPLY
    assert frames["error_reply"].hex() == ERROR_REPLY
    assert frames["verify_request"].hex() == VERIFY_REQUEST
    assert frames["outcome_reply"].hex() == OUTCOME_REPLY
    # and the client decodes them back
    assert wire.ack == (wire.pending.record.commitment, False)
    assert wire.got == wire.token
    assert (wire.error.code, wire.error.message) == (ERR_NOT_FOUND, "unknown commitment")
    outcome, receipt = wire.checked
    assert (outcome.status, outcome.violation_reason, outcome.dhp_location, outcome.checked_at) == (
        OutcomeStatus.VALID, None, (1, 0), T0 + HOUR
    )
    assert receipt.bm_id == wire.c.bm_keys[0].owner


def test_get_block_at_frames_are_pinned(wire):
    assert wire.frames["get_block_at_request"].hex() == GET_BLOCK_AT_REQUEST
    assert wire.frames["block_reply"].hex() == BLOCK_REPLY
    assert wire.pulled == wire.block


def test_receipt_frame_is_pinned(wire):
    c, receipt = wire.c, wire.checked[1]
    assert receipt_frame_bytes(receipt).hex() == RECEIPT_FRAME
    assert parse_receipt_frame(bytes.fromhex(RECEIPT_FRAME), c.registry) == receipt


def test_auth_frame_is_pinned(wire, monkeypatch):
    c, hsa = wire.c, wire.hsa
    ours, theirs = socket.socketpair()
    send_frame(theirs, b"\x01" + NONCE)
    send_frame(theirs, b"\x03")
    monkeypatch.setattr(socket, "create_connection", lambda *args, **kwargs: ours)
    NodeClient.connect("127.0.0.1", 1, key=c.thf_keys[0], registry=c.registry).close()
    frame = recv_frame(theirs)
    theirs.close()
    assert frame.hex() == AUTH_FRAME
    assert _Handler._authenticate(hsa, frame, NONCE) == c.thf_keys[0].owner


def seeded_records(c, n, methods):
    """n credentials issued by the two facilities in turn, with salts drawn
    from Random(n) and method codes taken from methods in turn."""
    rng = Random(n)
    return [
        thf_issue(c.thf_keys[i % 2], make_doc(i), True, methods[i % len(methods)], T0, now=T0, rng=rng).record
        for i in range(n)
    ]


def test_merkle_roots_are_pinned():
    c = Consortium()
    assert merkle_root(map(record_leaf, seeded_records(c, 3, [c.method]))).hex() == MERKLE_ROOT_3
    assert merkle_root(map(record_leaf, seeded_records(c, 256, [c.method]))).hex() == MERKLE_ROOT_256


def test_merkle_roots_at_0_1_and_2_leaves_are_pinned():
    c = Consortium()
    assert c.state.tip.header.merkle_root.hex() == MERKLE_ROOT_0
    for n, pinned in ((1, MERKLE_ROOT_1), (2, MERKLE_ROOT_2)):
        block = propose_block(c.state, seeded_records(c, n, [c.method]), c.hsa_keys[1], T0 + 60)
        assert block.header.merkle_root.hex() == pinned


def pinned_block(c):
    """Block 1 over 5 seeded credentials under two method codes."""
    return propose_block(c.state, seeded_records(c, 5, [c.method, TestMethod("RAT")]), c.hsa_keys[1], T0 + 60)


def test_block_frame_and_block_log_are_pinned(tmp_path):
    c = Consortium()
    block = pinned_block(c)
    state = append_block(c.state, block, T0 + 60)
    frame = block_bytes(block)
    assert (len(frame), hashlib.sha256(frame).hexdigest()) == (BLOCK_FRAME_LEN, BLOCK_FRAME_SHA256)
    assert parse_block(frame, c.registry) == block
    with BlockLog(tmp_path / "blocks.log") as log:
        log.append(block)
    assert hashlib.sha256(log.path.read_bytes()).hexdigest() == BLOCK_LOG_SHA256
    replayed, torn = replay_block_log(log.path, c.registry, T0 + 60, strict=True, genesis_time=c.genesis_time)
    assert (replayed.blocks, torn) == (state.blocks, None)


PINNED = SimpleNamespace(c=Consortium())
PINNED.frame = block_bytes(pinned_block(PINNED.c))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(pos=st.integers(0, BLOCK_FRAME_LEN - 1), value=st.integers(0, 255))
@example(pos=0, value=PINNED.frame[0])
@example(pos=BLOCK_FRAME_LEN - 1, value=PINNED.frame[-1])
def test_a_one_byte_change_to_the_pinned_block_frame_is_refused(pos, value):
    """Any one byte of the pinned frame set to any other value fails to parse
    or is refused by validate_block, signatures checked or not; the frame as
    pinned is accepted, and re-encodes from its decoded records to itself."""
    c = PINNED.c
    frame = bytearray(PINNED.frame)
    frame[pos] = value
    try:
        block = parse_block(bytes(frame), c.registry)
    except EncodingError:
        assert frame != PINNED.frame
        return
    errors = [validate_block(c.state, block, T0 + 60, record_sigs) for record_sigs in (True, False)]
    if frame != PINNED.frame:
        assert None not in errors
    else:
        assert errors == [None, None]
        assert block_bytes(Block(block.header, block.records)) == PINNED.frame
