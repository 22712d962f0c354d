"""Node daemons and the consortium wire protocol.

Transport is a plain reliable stream carrying length-prefixed frames
(u32-BE length + payload, at most MAX_FRAME: the longest valid message);
each payload is one message: a type byte plus a canonical body. Members
authenticate per connection with a signature challenge-response against the
consortium registry - no certificate hierarchy, the registry is the trust
root.

    0x01 CHALLENGE   server -> client   32-byte nonce
    0x02 AUTH        client -> server   role(1) id(16) siglen(2) sig
    0x03 AUTH_OK
    0x10 SUBMIT_DHP  pending frame      -> 0x11 commitment(32) duplicate(1)
    0x12 GET_TOKEN   commitment(32)     -> 0x13 included(1) [token frame]
    0x20 GET_BLOCK   header_hash(32)    -> 0x21 block frame
    0x22 GET_HEAD                       -> 0x23 header frame
    0x24 GET_BLOCK_AT height(8)         -> 0x21 block frame, or ERROR not found
    0x30 VERIFY      token frame, at(8), document
                                        -> 0x31 status(1) violation(1)
                                           located(1) [height(8) index(4)]
                                           checked_at(8) rlen(2) receipt frame
    0x40 ANNOUNCE    block frame        -> 0x41 accepted(1)
    0x7f ERROR       code(2) len(2) utf-8 message

Flags (duplicate, included, located, accepted) are 0 or 1; violation 0 is
none. Accepted 1: the receiver holds that block. Accepted 0: it does not
(the block is above its tip, invalid, or conflicts with the one it holds),
and pulls what it lacks at its next tick. Each node type's ROUTES table is
the list of who may send what; another sender gets ERROR (wrong role), and a
type the node does not serve ERROR (malformed). A token goes only to the THF
that issued its credential: to any other member the credential is unknown
(ERROR not found). Both ends decode every body through core.Reader, so any
malformed body is an EncodingError or ServiceError, never a crash of the
reading thread.

A node serves at most MAX_CONNECTIONS connections at once, one thread each;
a connection past the cap is sent ERROR (rejected) in place of the CHALLENGE
and closed. A connection that has not authenticated within AUTH_TIMEOUT, or
that sends no request for IDLE_TIMEOUT, is closed, so only live members hold
a slot.

Each node owns its chain through a single writer lock; request handlers read
immutable snapshots. Appended blocks are persisted to the node's block log
before they are announced.

Every node holds one open authenticated link per peer, opened by
Node._link (the one place a node connects) and dropped on any error; a peer
whose open link failed gets a second pass on a new link. Each node ticks
every block_interval. A node that lacks blocks pulls them forward from its
tip over its links, at its first tick and at the tick after it refuses an
ANNOUNCE. An authority sends only its tip, after each block it makes and at
each idle tick while a peer has not acked it, over the same links, to every
such peer before it reads any ack.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import os
import secrets
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    ActorId,
    DhpError,
    EncodingError,
    HygienePolicy,
    Reader,
    Registry,
    Role,
    TravelDocument,
    as_enum,
    canonical_doc_bytes,
    parse_key_values,
    parse_u64,
    read_doc,
)
from .crypto import KeyPair, sign, verify_sig
from .ledger import (
    MAX_BLOCK_BYTES,
    MAX_BLOCK_RECORDS,
    Block,
    BlockError,
    BlockHeader,
    ChainState,
    DhpToken,
    InvalidBlock,
    admit,
    append_block,
    header_bytes,
    header_hash,
    parse_block,
    propose_block,
    read_header,
    read_token,
    scheduled_authority,
    token_bytes,
)
from .protocol import (
    OutcomeStatus,
    PendingDhp,
    VerificationOutcome,
    VerificationReceipt,
    ViolationReason,
    bm_verify,
    parse_policy,
    parse_receipt_frame,
    pending_bytes,
    read_pending,
    receipt_frame_bytes,
)
from .storage import (
    BlockLog,
    CorruptLog,
    ReceiptLog,
    load_keypair,
    load_registry,
    registry_mismatch,
    save_registry,
    write_genesis_time,
)

AUTH_TAG = b"DHPA1|"
#: The longest valid message: the ANNOUNCE or BLOCK of the longest block.
MAX_FRAME = 1 + MAX_BLOCK_BYTES
#: Pending credentials an authority holds; a submit past it is refused.
MAX_MEMPOOL = 4 * MAX_BLOCK_RECORDS
#: Connections a node serves at once, one thread each; one past it is refused.
MAX_CONNECTIONS = 64
#: Seconds a connection has to answer the challenge, and to send its next request.
AUTH_TIMEOUT = 5.0
IDLE_TIMEOUT = 60.0
#: Seconds a node or client has to connect and for each reply on the link.
CONNECT_TIMEOUT = 5.0
#: Seconds between a serving node's checks for a stop.
STOP_POLL = 0.05

logger = logging.getLogger(__name__)

MSG_CHALLENGE = 0x01
MSG_AUTH = 0x02
MSG_AUTH_OK = 0x03
MSG_SUBMIT = 0x10
MSG_SUBMIT_ACK = 0x11
MSG_GET_TOKEN = 0x12
MSG_TOKEN = 0x13
MSG_GET_BLOCK = 0x20
MSG_BLOCK = 0x21
MSG_GET_HEAD = 0x22
MSG_HEAD = 0x23
MSG_GET_BLOCK_AT = 0x24
MSG_VERIFY = 0x30
MSG_OUTCOME = 0x31
MSG_ANNOUNCE = 0x40
MSG_ANNOUNCE_ACK = 0x41
MSG_ERROR = 0x7F

ERR_MALFORMED = 1
ERR_UNAUTHORIZED = 2
ERR_UNKNOWN_ISSUER = 3
ERR_NOT_FOUND = 4
ERR_WRONG_ROLE = 5
ERR_REJECTED = 6


class ServiceError(DhpError):
    def __init__(self, code: int, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_frame(sock: socket.socket) -> bytes:
    header = _recv_exact(sock, 4)
    (n,) = struct.unpack(">I", header)
    if n > MAX_FRAME:
        raise EncodingError(f"frame of {n} bytes exceeds limit")
    return _recv_exact(sock, n)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf += chunk
    return buf


@dataclass
class NodeConfig:
    role: Role
    listen: tuple[str, int]
    data_dir: Path
    registry_file: Path
    key_file: Path
    peers: list[tuple[str, int]] = field(default_factory=list)
    policy_file: Path | None = None
    block_interval: float = 0.2
    genesis_time: int = 0


def parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 0xFFFF:
        raise EncodingError(f"bad address {text!r}, expected host:port with a port of 0-65535")
    return host, int(port)


def parse_node_config(text: str, base_dir: Path | None = None) -> NodeConfig:
    """Parse the key = value node config; DHP_DATA_DIR overrides data_dir."""
    values = parse_key_values(text, "config")

    def path_of(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() or base_dir is None else base_dir / p

    try:
        role = Role[values["role"].upper()]
        listen = parse_hostport(values["listen"])
        data_dir = path_of(os.environ.get("DHP_DATA_DIR", values["data_dir"]))
        registry_file = path_of(values["registry"])
        key_file = path_of(values["key"])
    except KeyError as exc:
        raise EncodingError(f"config missing key {exc.args[0]!r}") from None
    if role not in (Role.HSA, Role.BM):
        raise EncodingError("node role must be hsa or bm")
    peers = [
        parse_hostport(p.strip())
        for p in values.get("peers", "").split(",")
        if p.strip()
    ]
    policy_file = path_of(values["policy"]) if "policy" in values else None
    if role is Role.BM and policy_file is None:
        raise EncodingError("bm nodes require a policy file")
    try:
        block_interval = float(values.get("block_interval", "0.2"))
        if not 0 < block_interval < float("inf"):
            raise ValueError
    except ValueError:
        raise EncodingError("block_interval must be a finite number of seconds above 0") from None
    return NodeConfig(
        role=role,
        listen=listen,
        data_dir=data_dir,
        registry_file=registry_file,
        key_file=key_file,
        peers=peers,
        policy_file=policy_file,
        block_interval=block_interval,
        genesis_time=parse_u64(values.get("genesis_time", "0"), "genesis_time"),
    )


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        node: Node = self.server.node  # type: ignore[attr-defined]
        sock = self.request
        try:
            sock.settimeout(AUTH_TIMEOUT)
            nonce = secrets.token_bytes(32)
            send_frame(sock, bytes((MSG_CHALLENGE,)) + nonce)
            frame = recv_frame(sock)
            member = self._authenticate(node, frame, nonce)
            if member is None:
                send_frame(sock, _error(ERR_UNAUTHORIZED, "authentication failed"))
                return
            send_frame(sock, bytes((MSG_AUTH_OK,)))
            sock.settimeout(IDLE_TIMEOUT)
            while True:
                frame = recv_frame(sock)
                send_frame(sock, node.dispatch(member, frame))
        except (OSError, EncodingError):
            return

    @staticmethod
    def _authenticate(node: "Node", frame: bytes, nonce: bytes) -> ActorId | None:
        try:
            r = _body(frame, MSG_AUTH)
            role, actor_id, signature = as_enum(Role, r.u8()), r.take(16), r.take(r.u16())
            r.done()
        except DhpError:
            return None
        member = node.registry.get(role, actor_id)
        if member is None or not verify_sig(member.public_key, AUTH_TAG + nonce, signature):
            return None
        return member


class _Server(socketserver.ThreadingTCPServer):
    """One handler thread per connection, at most MAX_CONNECTIONS live at
    once. A connection past the cap gets one ERROR frame instead of a
    CHALLENGE and is closed."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        if not self.slots.acquire(blocking=False):
            with contextlib.suppress(OSError):
                send_frame(request, _error(ERR_REJECTED, "too many connections"))
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started, so none will release
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


def _error(code: int, message: str) -> bytes:
    body = message.encode("utf-8")
    return bytes((MSG_ERROR,)) + struct.pack(">HH", code, len(body)) + body


def _reply(frame: bytes) -> bytes:
    """The frame, unless it is an ERROR, which raises ServiceError."""
    r = Reader(frame)
    if frame and r.u8() == MSG_ERROR:
        code, message = r.u16(), r.take(r.u16())
        r.done()
        raise ServiceError(code, message.decode("utf-8", errors="replace"))
    return frame


def _body(frame: bytes, kind: int) -> Reader:
    """A Reader over the body of a message that must be of the given type;
    the caller decodes the whole body from it."""
    r = Reader(frame)
    if r.u8() != kind:
        raise ServiceError(ERR_MALFORMED, f"expected a message of type {kind:#04x}")
    return r


class Node:
    """Common node machinery: chain ownership, persistence, read endpoints,
    and one held link to each peer."""

    def __init__(self, config: NodeConfig):
        self.config = config
        self.registry = load_registry(config.registry_file)
        self.key = load_keypair(config.key_file)
        if self.key.owner.role is not config.role:
            raise EncodingError(
                f"key role {self.key.owner.role.name} does not match node role {config.role.name}"
            )
        config.data_dir.mkdir(parents=True, exist_ok=True)
        local_registry = config.data_dir / "registry.txt"
        write_genesis_time(config.data_dir, config.genesis_time)
        self._lock = threading.RLock()
        self._log = BlockLog(config.data_dir / "blocks.log")
        now, t0 = int(time.time()), time.perf_counter()
        try:
            self._state = self._log.recover(self.registry, now, config.genesis_time)
        except CorruptLog as exc:
            self._log.close()
            built = load_registry(local_registry) if local_registry.exists() else self.registry
            raise registry_mismatch(self._log.path, built, self.registry, now, config.genesis_time) or exc
        # The registry the log now replays under, for the next start and for audits.
        save_registry(local_registry, self.registry)
        logger.info(
            "recovered %d blocks, %d records in %.0f ms; record signatures are left to `dhp chain audit`",
            self._state.height, len(self._state.index), (time.perf_counter() - t0) * 1e3,
        )
        self._server: _Server | None = None
        self._stop = threading.Event()
        self._behind = bool(config.peers)  # it may lack blocks its peers hold: the next tick pulls
        # The held-open link to each peer pulled from or announced to.
        # _peer_lock guards it (and an authority's _acked): a caller's thread
        # may propose while the tick thread pulls or re-announces.
        self._links: dict[tuple[str, int], NodeClient] = {}
        self._peer_lock = threading.RLock()

    # -- lifecycle

    def start(self) -> None:
        self._server = _Server(self.config.listen, _Handler)
        self._server.node = self  # type: ignore[attr-defined]
        threading.Thread(target=self._server.serve_forever, args=(STOP_POLL,), daemon=True).start()
        threading.Thread(target=self._loop, daemon=True).start()

    def stop(self) -> None:
        """Stop serving and ticking, close the node's logs (a handler or tick
        still running gets OSError from any append, and writes nothing), then
        close the peer links; none is opened after."""
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        self._log.close()
        with self._peer_lock:
            for peer in list(self._links):
                self._drop(peer)

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "node is not running"
        return self._server.server_address  # type: ignore[return-value]

    @property
    def state(self) -> ChainState:
        return self._state

    # -- chain writes (single writer discipline)

    def _apply_block(self, block: Block) -> bool:
        """The one way into the chain: append the next block, validated (else
        InvalidBlock) and logged as its frame. True iff the chain holds this
        very block."""
        with self._lock:
            height = block.header.height
            if height == len(self._state.blocks):
                state = append_block(self._state, block, int(time.time()))
                # Logged, then published, so disk and memory hold the same chain.
                self._log.append(block)
                self._state = state
            return self._state.blocks[height:height + 1] == (block,)

    def _loop(self) -> None:
        while not self._stop.wait(self.config.block_interval):
            try:
                self._tick()
            except (DhpError, OSError) as exc:
                logger.warning("tick at height %d failed: %r", self._state.height, exc)

    def _tick(self) -> None:
        if self._behind:
            self.sync_from_peers()

    def sync_from_peers(self) -> None:
        """The one catch-up path: from each peer in turn, pull and apply the
        block at this node's next height until the peer has none, sends one
        this node does not take, or fails; a lying peer only ends it early."""
        self._behind = False
        for peer in self.config.peers:
            start, t0 = len(self._state.blocks), time.perf_counter()
            try:
                self._pull(peer)
            except (OSError, DhpError) as exc:
                logger.warning("pull from %s:%d stopped at height %d: %r", *peer, len(self._state.blocks), exc)
            if len(self._state.blocks) > start:
                logger.info("pulled %d blocks from %s:%d in %.0f ms", len(self._state.blocks) - start, *peer,
                            (time.perf_counter() - t0) * 1e3)

    def _pull(self, peer: tuple[str, int]) -> None:
        """Pull from peer over its held link, as an authority announces: a
        link that fails is dropped, and one open before gets a second pass on
        a new link. A stopped node opens none."""
        with self._peer_lock:
            if self._stop.is_set():
                return
            for held in (peer in self._links, False):
                try:
                    client = self._link(peer)
                    while True:
                        height = len(self._state.blocks)
                        frame = client.block_frame_at(height)
                        if frame is None:
                            return
                        block = parse_block(frame, self.registry)
                        if block.header.height != height or not self._apply_block(block):
                            return
                except (OSError, DhpError):
                    self._drop(peer)
                    if not held:
                        raise

    def _link(self, peer: tuple[str, int]) -> NodeClient:
        """The held link to peer, opened if there is none."""
        if peer not in self._links:
            self._links[peer] = NodeClient.connect(*peer, key=self.key, registry=self.registry)
        return self._links[peer]

    def _drop(self, peer: tuple[str, int]) -> None:
        link = self._links.pop(peer, None)
        if link is not None:
            link.close()

    # -- request dispatch: each handler decodes the whole body from a Reader

    #: Each message the node serves: the one role that may send it (None: any
    #: member), and the name of its handler, called with (member, reader).
    ROUTES: dict[int, tuple[Role | None, str]] = {
        MSG_GET_BLOCK: (None, "_handle_get_block"),
        MSG_GET_BLOCK_AT: (None, "_handle_get_block"),
        MSG_GET_HEAD: (None, "_handle_get_head"),
        MSG_ANNOUNCE: (Role.HSA, "_handle_announce"),
    }

    def dispatch(self, member: ActorId, frame: bytes) -> bytes:
        """The reply to one request from member: the one way into a node."""
        r = Reader(frame)
        try:
            kind = r.u8()
            route = self.ROUTES.get(kind)
            if route is None:
                return _error(ERR_MALFORMED, f"unsupported message {kind:#04x}")
            role, handler = route
            if role is not None and member.role is not role:
                return _error(ERR_WRONG_ROLE, f"only a {role.name} may send message {kind:#04x}")
            return getattr(self, handler)(member, r)
        except EncodingError as exc:
            return _error(ERR_MALFORMED, str(exc))
        except DhpError as exc:
            return _error(ERR_REJECTED, str(exc))

    def _handle_get_block(self, member: ActorId, r: Reader) -> bytes:
        state = self._state
        if r.data[0] == MSG_GET_BLOCK:
            height = state.height_of(r.finish(Reader.take, 32))
        else:
            height = r.finish(Reader.u64)
        if height is None or height >= len(state.blocks):
            return _error(ERR_NOT_FOUND, "unknown block")
        return bytes((MSG_BLOCK,)) + state.blocks[height].frame

    def _handle_get_head(self, member: ActorId, r: Reader) -> bytes:
        r.done()
        return bytes((MSG_HEAD,)) + header_bytes(self._state.tip.header)

    def _handle_announce(self, member: ActorId, r: Reader) -> bytes:
        block = parse_block(r.rest(), self.registry)
        try:
            accepted, reason = self._apply_block(block), "not the next block"
        except InvalidBlock as exc:
            accepted, reason = False, exc.error.value
        if not accepted:
            self._behind = True
            logger.info("refused block %d from %s at tip %d: %s", block.header.height, member.label(),
                        self._state.height, reason)
        return bytes((MSG_ANNOUNCE_ACK, 1 if accepted else 0))


class HsaNode(Node):
    """Authority node: accepts facility submissions, proposes blocks at its
    scheduled heights, and announces them to peers. A pending credential's
    token is minted when any block that includes it enters the chain, and is
    kept in memory only (the salt never touches disk), next to the id of the
    facility that issued it, the only member it is given to. After a restart,
    a resubmission by a credential's issuer mints its token from the chain."""

    ROUTES = {
        **Node.ROUTES,
        MSG_SUBMIT: (Role.THF, "_handle_submit"),
        MSG_GET_TOKEN: (Role.THF, "_handle_get_token"),
    }

    def __init__(self, config: NodeConfig):
        super().__init__(config)
        self._mempool: dict[bytes, PendingDhp] = {}
        # commitment -> (issuer id, token)
        self._tokens: dict[bytes, tuple[bytes, DhpToken]] = {}
        # Peers known to hold the block last announced: none after a start,
        # which may follow a crash between logging and announcing a block, so
        # the first idle tick re-announces the tip.
        self._acked: set[tuple[str, int]] = set()

    def _handle_submit(self, member: ActorId, r: Reader) -> bytes:
        pending = r.finish(read_pending, self.registry.issuers())
        error = admit(self._state, pending.record, int(time.time()))
        if error is not None:
            code = ERR_UNKNOWN_ISSUER if error is BlockError.UNKNOWN_ISSUER else ERR_REJECTED
            return _error(code, error.value)
        commitment = pending.record.commitment
        with self._lock:
            located = self._state.locate(commitment)
            if located is not None and commitment not in self._tokens:
                height, pos = located
                block = self._state.blocks[height]
                # Only the issuer: anyone can copy a record off the chain and
                # pair it with a wrong salt.
                if block.records[pos].issuer_id.id == member.id:
                    self._tokens[commitment] = (member.id, DhpToken(header_hash(block.header), pos, pending.salt))
            duplicate = commitment in self._mempool or commitment in self._tokens or located is not None
            if not duplicate:
                if len(self._mempool) >= MAX_MEMPOOL:
                    return _error(ERR_REJECTED, "mempool full")
                self._mempool[commitment] = pending
        return bytes((MSG_SUBMIT_ACK,)) + commitment + bytes((1 if duplicate else 0,))

    def _handle_get_token(self, member: ActorId, r: Reader) -> bytes:
        commitment = r.finish(Reader.take, 32)
        with self._lock:
            minted = self._tokens.get(commitment)
            pending = self._mempool.get(commitment)
        if minted is not None and minted[0] == member.id:
            return bytes((MSG_TOKEN, 1)) + token_bytes(minted[1])
        if pending is not None and pending.record.issuer_id.id == member.id:
            return bytes((MSG_TOKEN, 0))
        return _error(ERR_NOT_FOUND, "unknown commitment")

    def _tick(self) -> None:
        super()._tick()
        if self.propose_once() is None:
            self._announce()

    def propose_once(self) -> Block | None:
        """Propose one block if scheduled and there is work. Returns it."""
        with self._lock:
            sched = scheduled_authority(len(self._state.blocks), self._state.authority_set)
            if sched.id != self.key.owner.id or not self._mempool:
                return None
            batch = [p.record for p in itertools.islice(self._mempool.values(), MAX_BLOCK_RECORDS)]
            block = propose_block(self._state, batch, self.key, int(time.time()))
            self._apply_block(block)
        with self._peer_lock:
            self._acked = set()
            self._announce()
        return block

    def _apply_block(self, block: Block) -> bool:
        """Node._apply_block, then mint the token of each pending credential
        the block holds."""
        with self._lock:
            held = super()._apply_block(block)
            if held:
                block_hash = header_hash(block.header)
                for pos, commitment in enumerate(block.commitments()):
                    pending = self._mempool.pop(commitment, None)
                    if pending is not None:
                        self._tokens[commitment] = (pending.record.issuer_id.id, DhpToken(block_hash, pos, pending.salt))
        return held

    def _announce(self) -> None:
        """Send the tip to each peer not known to hold it, then read each ack;
        a peer that refuses stays un-acked, and pulls what it lacks. A peer
        whose link was open before and has since been dropped (the peer may
        have closed it) gets a second pass on a new link."""
        with self._peer_lock:
            tip = self._state.tip
            height = tip.header.height
            lagging = [peer for peer in self.config.peers if peer not in self._acked]
            if self._stop.is_set() or not height or not lagging:
                return
            frame = bytes((MSG_ANNOUNCE,)) + tip.frame
            was_open = set(self._links)
            for _ in range(2):
                sent = [peer for peer in lagging if self._send(peer, frame, height)]
                for peer in sent:
                    try:
                        if _read_ack(self._links[peer].receive()):
                            self._acked.add(peer)
                    except (OSError, DhpError) as exc:
                        logger.warning("dropped the link to %s:%d reading its ack of block %d: %r", *peer, height, exc)
                        self._drop(peer)
                lagging = [peer for peer in lagging if peer in was_open and peer not in self._links]

    def _send(self, peer: tuple[str, int], frame: bytes, height: int) -> bool:
        """Whether frame, the ANNOUNCE of block height, was sent to peer on
        its link. A link that fails is dropped."""
        try:
            self._link(peer).send(frame)
            return True
        except (OSError, DhpError) as exc:
            logger.warning("dropped the link to %s:%d sending block %d: %r", *peer, height, exc)
            self._drop(peer)
            return False


class BmNode(Node):
    """Read-only member node: replicates the chain and serves verification,
    appending a signed receipt to its local log for every check."""

    ROUTES = {**Node.ROUTES, MSG_VERIFY: (Role.BM, "_handle_verify")}

    def __init__(self, config: NodeConfig):
        super().__init__(config)
        assert config.policy_file is not None
        self.policy: HygienePolicy = parse_policy(config.policy_file.read_text())
        self._receipts = ReceiptLog(config.data_dir / "receipts.log")

    def stop(self) -> None:
        super().stop()
        self._receipts.close()

    def _handle_verify(self, member: ActorId, r: Reader) -> bytes:
        token, at, doc = read_token(r), r.u64(), read_doc(r)
        r.done()
        outcome, receipt = bm_verify(self.key, self._state, token, doc, self.policy, at)
        frame = receipt_frame_bytes(receipt)
        self._receipts.append(receipt, frame)
        return _encode_outcome(outcome, frame)


def _encode_outcome(outcome: VerificationOutcome, frame: bytes) -> bytes:
    """The OUTCOME reply: the outcome, then the receipt's frame."""
    located = outcome.dhp_location is not None
    parts = [
        bytes((MSG_OUTCOME, outcome.status.value,
               outcome.violation_reason.value if outcome.violation_reason else 0,
               1 if located else 0)),
    ]
    if located:
        parts.append(struct.pack(">QI", *outcome.dhp_location))
    parts.append(struct.pack(">Q", outcome.checked_at))
    parts.append(struct.pack(">H", len(frame)) + frame)
    return b"".join(parts)


def _read_outcome(r: Reader, registry: Registry) -> tuple[VerificationOutcome, VerificationReceipt]:
    status, reason, located = as_enum(OutcomeStatus, r.u8()), r.u8(), r.flag()
    outcome = VerificationOutcome(
        status=status,
        violation_reason=as_enum(ViolationReason, reason) if reason else None,
        dhp_location=(r.u64(), r.u32()) if located else None,
        checked_at=r.u64(),
    )
    return outcome, parse_receipt_frame(r.take(r.u16()), registry)


class NodeClient:
    """Authenticated client for any consortium member."""

    def __init__(self, sock: socket.socket, registry: Registry):
        self._sock = sock
        self._registry = registry

    @classmethod
    def connect(cls, host: str, port: int, key: KeyPair, registry: Registry) -> "NodeClient":
        sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT)
        try:
            nonce = _body(_reply(recv_frame(sock)), MSG_CHALLENGE).finish(Reader.take, 32)
            signature = sign(key, AUTH_TAG + nonce)
            auth = bytes((MSG_AUTH, key.owner.role.value)) + key.owner.id + struct.pack(">H", len(signature))
            send_frame(sock, auth + signature)
            if recv_frame(sock) != bytes((MSG_AUTH_OK,)):
                raise ServiceError(ERR_UNAUTHORIZED, "authentication rejected")
        except (DhpError, OSError):
            sock.close()
            raise
        return cls(sock, registry)

    def __enter__(self) -> "NodeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._sock.close()

    def send(self, payload: bytes) -> None:
        """Send one message; receive() reads the reply."""
        send_frame(self._sock, payload)

    def receive(self) -> bytes:
        """The reply to the oldest message not yet answered; an ERROR reply
        raises."""
        return _reply(recv_frame(self._sock))

    def request(self, payload: bytes) -> bytes:
        """Send one message and return the reply; an ERROR reply raises."""
        self.send(payload)
        return self.receive()

    def submit_dhp(self, pending: PendingDhp) -> tuple[bytes, bool]:
        reply = _body(self.request(bytes((MSG_SUBMIT,)) + pending_bytes(pending)), MSG_SUBMIT_ACK)
        return reply.finish(lambda r: (r.take(32), r.flag()))

    def get_token(self, commitment: bytes) -> DhpToken | None:
        reply = _body(self.request(bytes((MSG_GET_TOKEN,)) + commitment), MSG_TOKEN)
        return reply.finish(lambda r: read_token(r) if r.flag() else None)

    def wait_for_token(self, commitment: bytes, timeout: float = 5.0) -> DhpToken:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            token = self.get_token(commitment)
            if token is not None:
                return token
            time.sleep(0.05)
        raise TimeoutError("credential was not included in time")

    def get_block(self, block_hash: bytes) -> Block | None:
        return self._block(self._block_frame(bytes((MSG_GET_BLOCK,)) + block_hash))

    def get_block_at(self, height: int) -> Block | None:
        return self._block(self.block_frame_at(height))

    def block_frame_at(self, height: int) -> bytes | None:
        """The frame of the block at height, unparsed; None if not found."""
        return self._block_frame(bytes((MSG_GET_BLOCK_AT,)) + struct.pack(">Q", height))

    def _block(self, frame: bytes | None) -> Block | None:
        return None if frame is None else parse_block(frame, self._registry)

    def _block_frame(self, payload: bytes) -> bytes | None:
        """The block frame a GET_BLOCK or GET_BLOCK_AT asks for; None if not
        found."""
        try:
            return _body(self.request(payload), MSG_BLOCK).rest()
        except ServiceError as exc:
            if exc.code == ERR_NOT_FOUND:
                return None
            raise

    def get_head(self) -> BlockHeader:
        reply = _body(self.request(bytes((MSG_GET_HEAD,))), MSG_HEAD)
        return reply.finish(read_header, {a.id: a for a in self._registry.authorities()})

    def verify(
        self, token: DhpToken, doc: TravelDocument, at: int
    ) -> tuple[VerificationOutcome, VerificationReceipt]:
        payload = bytes((MSG_VERIFY,)) + token_bytes(token) + struct.pack(">Q", at) + canonical_doc_bytes(doc)
        return _body(self.request(payload), MSG_OUTCOME).finish(_read_outcome, self._registry)

    def announce_block(self, block: Block) -> bool:
        return _read_ack(self.request(bytes((MSG_ANNOUNCE,)) + block.frame))


def _read_ack(reply: bytes) -> bool:
    """Whether an ANNOUNCE reply says the peer holds the block."""
    return _body(reply, MSG_ANNOUNCE_ACK).finish(Reader.flag)


def build_node(config: NodeConfig) -> Node:
    return HsaNode(config) if config.role is Role.HSA else BmNode(config)
