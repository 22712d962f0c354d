"""Every decoder is total: a malformed frame ends in EncodingError or another
DhpError, never in an exception that would kill the thread reading it.

Frames come from the seeded wire of test_golden. Client replies are fed over
a socket pair; the fuzz tests cut, extend and overwrite bytes of valid frames
and decode them in process. A parsed record's preimage, taken from the frame,
is checked against the one its fields encode to.
"""

import socket
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhp.core import DhpError, EncodingError, Reader, canonical_doc_bytes, read_doc, record_signing_bytes
from dhp.ledger import (
    block_bytes,
    header_bytes,
    parse_block,
    parse_token,
    read_header,
    read_record,
    record_bytes,
    token_bytes,
)
from dhp.protocol import parse_pending, parse_receipt_frame, pending_bytes, thf_issue
from dhp.storage import BLOCK_LOG_MAGIC, LOG_VERSION, read_frames
from dhp.service import (
    MSG_ANNOUNCE,
    MSG_GET_BLOCK,
    MSG_GET_BLOCK_AT,
    MSG_GET_HEAD,
    MSG_GET_TOKEN,
    MSG_SUBMIT,
    NodeClient,
    ServiceError,
    _Handler,
    _read_outcome,
    send_frame,
)

from conftest import Consortium, make_doc
from test_golden import AUTH_FRAME, NONCE, OUTCOME_REPLY, RECEIPT_FRAME, VERIFY_REQUEST, build_wire
from test_protocol import T0


@pytest.fixture(scope="module")
def wire(tmp_path_factory):
    return build_wire(tmp_path_factory.mktemp("wire"))


CALLS = {
    "submit_dhp": lambda w, cl: cl.submit_dhp(w.pending),
    "get_token": lambda w, cl: cl.get_token(w.pending.record.commitment),
    "get_block": lambda w, cl: cl.get_block(b"\x00" * 32),
    "get_block_at": lambda w, cl: cl.get_block_at(1),
    "get_head": lambda w, cl: cl.get_head(),
    "verify": lambda w, cl: cl.verify(w.token, make_doc(1), T0),
    "announce_block": lambda w, cl: cl.announce_block(w.block),
}


def replying(wire, reply, call):
    """Run one client call whose request is answered with `reply`."""
    ours, theirs = socket.socketpair()
    try:
        send_frame(theirs, reply)
        return call(wire, NodeClient(ours, wire.c.registry))
    finally:
        ours.close()
        theirs.close()


@pytest.mark.parametrize("reply", [b"", b"\x13", b"\x7f\x00"])
@pytest.mark.parametrize("name", CALLS)
def test_client_rejects_garbled_replies(wire, name, reply):
    with pytest.raises((EncodingError, ServiceError)):
        replying(wire, reply, CALLS[name])


def outcome_with(offset, value):
    frame = bytearray.fromhex(OUTCOME_REPLY)
    frame[offset] = value
    return bytes(frame)


@pytest.mark.parametrize(
    "reply",
    [
        outcome_with(1, 9),                         # status 9
        outcome_with(2, 9),                         # violation 9
        outcome_with(3, 2),                         # located byte 2
        bytes.fromhex(OUTCOME_REPLY) + b"\x00",     # trailing byte
    ],
    ids=["status", "violation", "located", "trailing"],
)
def test_client_rejects_malformed_outcomes(wire, reply):
    assert replying(wire, bytes.fromhex(OUTCOME_REPLY), CALLS["verify"])[0].dhp_location == (1, 0)
    with pytest.raises((EncodingError, ServiceError)):
        replying(wire, reply, CALLS["verify"])


# --- fuzzing -------------------------------------------------------------------


def variants(frame: bytes):
    """Truncations, one extra byte, and single-byte overwrites of frame."""
    cut = st.integers(0, len(frame) - 1).map(lambda n: frame[:n])
    extended = st.integers(0, 255).map(lambda b: frame + bytes((b,)))
    overwritten = st.tuples(st.integers(0, len(frame) - 1), st.integers(0, 255)).map(
        lambda t: frame[:t[0]] + bytes((t[1],)) + frame[t[0] + 1:]
    )
    return cut | extended | overwritten


def decoders(w):
    """name -> (a valid frame, a decoder that may raise only DhpError)."""
    registry = w.c.registry
    hsa1, thf, bm = w.c.hsa_keys[1].owner, w.c.thf_keys[0].owner, w.c.bm_keys[0].owner
    authorities = {a.id: a for a in registry.authorities()}
    commitment = w.pending.record.commitment
    block = block_bytes(w.block)
    log = BLOCK_LOG_MAGIC + bytes((LOG_VERSION,)) + len(block).to_bytes(4, "big") + block

    def authenticate(frame):
        assert _Handler._authenticate(w.hsa, frame, NONCE) in (None, thf)

    def dispatch(node, member):
        def run(frame):
            assert isinstance(node.dispatch(member, frame), bytes)
        return run

    return {
        "block": (block, lambda d: parse_block(d, registry)),
        "header": (header_bytes(w.block.header), lambda d: Reader(d).finish(read_header, authorities)),
        "pending": (pending_bytes(w.pending), lambda d: parse_pending(d, registry.issuers())),
        "token": (token_bytes(w.token), parse_token),
        "receipt": (bytes.fromhex(RECEIPT_FRAME), lambda d: parse_receipt_frame(d, registry)),
        "doc": (canonical_doc_bytes(make_doc(1)), lambda d: Reader(d).finish(read_doc)),
        "outcome": (bytes.fromhex(OUTCOME_REPLY)[1:], lambda d: Reader(d).finish(_read_outcome, registry)),
        "auth": (bytes.fromhex(AUTH_FRAME), authenticate),
        "block-log": (log, lambda d: read_frames(d, BLOCK_LOG_MAGIC, strict=True)),
        "dispatch-submit": (bytes((MSG_SUBMIT,)) + pending_bytes(w.pending), dispatch(w.hsa, thf)),
        "dispatch-get-token": (bytes((MSG_GET_TOKEN,)) + commitment, dispatch(w.hsa, thf)),
        "dispatch-get-block": (bytes((MSG_GET_BLOCK,)) + w.token.header_hash, dispatch(w.hsa, thf)),
        "dispatch-get-block-at": (bytes((MSG_GET_BLOCK_AT,)) + (1).to_bytes(8, "big"), dispatch(w.hsa, thf)),
        "dispatch-get-head": (bytes((MSG_GET_HEAD,)), dispatch(w.bm, bm)),
        "dispatch-announce": (bytes((MSG_ANNOUNCE,)) + block, dispatch(w.bm, hsa1)),
        "dispatch-verify": (bytes.fromhex(VERIFY_REQUEST), dispatch(w.bm, bm)),
    }


NAMES = ["block", "header", "pending", "token", "receipt", "doc", "outcome", "auth", "block-log",
         "dispatch-submit", "dispatch-get-token", "dispatch-get-block", "dispatch-get-block-at", "dispatch-get-head",
         "dispatch-announce", "dispatch-verify"]


@pytest.mark.parametrize("name", NAMES)
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_decoders_are_total(wire, name, data):
    frame, decode = decoders(wire)[name]
    try:
        decode(data.draw(variants(frame)))
    except DhpError:
        pass


def test_fuzzed_frames_start_out_valid(wire):
    for name, (frame, decode) in decoders(wire).items():
        decode(frame)


# --- a parsed record's preimage --------------------------------------------------

CONSORTIUM = Consortium()
ISSUERS = CONSORTIUM.registry.issuers()
RECORD_FRAME = record_bytes(
    thf_issue(CONSORTIUM.thf_keys[0], make_doc(1), True, CONSORTIUM.method, T0, now=T0, rng=Random(1)).record
)
METHOD_CODES = ["RT-qPCR", "RT qPCR", "RT-qPCR\n", "\tPCR", "\x85", "\u3000x", "", "a" * 255, "\u00e9"]


@st.composite
def record_frames(draw):
    """A record frame field by field: any result byte and method code bytes
    (canonical, with whitespace, empty, not UTF-8), a registered or unknown
    issuer, and a signature of any length."""
    method = draw(st.one_of(
        st.sampled_from(METHOD_CODES).map(str.encode),
        st.text(max_size=12).map(str.encode),
        st.binary(max_size=12),
    ))
    issuer = draw(st.one_of(st.sampled_from(sorted(ISSUERS)), st.binary(min_size=16, max_size=16)))
    signature = draw(st.binary(max_size=80))
    return b"".join((
        draw(st.binary(min_size=32, max_size=32)),
        bytes((draw(st.integers(0, 2)),)),
        draw(st.integers(0, 2**64 - 1)).to_bytes(8, "big"),
        bytes((len(method),)), method, issuer,
        len(signature).to_bytes(2, "big"), signature,
    ))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frame=record_frames() | variants(RECORD_FRAME))
def test_a_parsed_record_signs_its_canonical_encoding(frame):
    """For every frame read_record accepts, the preimage it keeps is the one
    record_signing_bytes encodes, or both raise EncodingError. Frames are
    built field by field, or cut, extended or overwritten from a valid one."""
    try:
        record = Reader(frame).finish(read_record, ISSUERS)
    except EncodingError:
        return
    try:
        expected = record_signing_bytes(record)
    except EncodingError:
        with pytest.raises(EncodingError):
            record.signing_bytes
        return
    assert record.signing_bytes == expected
