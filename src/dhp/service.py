"""Node daemons and the consortium wire protocol.

Transport is a plain reliable stream carrying length-prefixed frames
(u32-BE length + payload); each payload is one message: a type byte plus a
canonical body. Members authenticate per connection with a signature
challenge-response against the consortium registry - no certificate
hierarchy, the registry is the trust root.

    0x01 CHALLENGE   server -> client   32-byte nonce
    0x02 AUTH        client -> server   role(1) id(16) siglen(2) sig
    0x03 AUTH_OK
    0x10 SUBMIT_DHP  pending frame      -> 0x11 ack: commitment(32) dup(1)
    0x12 GET_TOKEN   commitment(32)     -> 0x13 status(1) [token frame]
    0x20 GET_BLOCK   header_hash(32)    -> 0x21 block frame
    0x22 GET_HEAD                       -> 0x23 header frame
    0x30 VERIFY      token at doc       -> 0x31 outcome + receipt
    0x40 ANNOUNCE    block frame        -> 0x41 accepted(1)
    0x7f ERROR       code(2) len(2) utf-8 message

Each node owns its chain through a single writer lock; request handlers read
immutable snapshots. Appended blocks are persisted to the node's block log
before they are announced.
"""

from __future__ import annotations

import itertools
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
    Registry,
    Role,
    TravelDocument,
    canonical_doc_bytes,
    decode_doc_bytes,
)
from .crypto import KeyPair, sign, verify_sig
from .ledger import (
    CLOCK_SKEW_SECONDS,
    MAX_BLOCK_RECORDS,
    Block,
    BlockHeader,
    ChainState,
    DhpToken,
    InvalidBlock,
    append_block,
    block_bytes,
    header_bytes,
    header_hash,
    parse_block,
    parse_header,
    parse_token,
    propose_block,
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
    parse_pending,
    parse_policy,
    parse_receipt_frame,
    pending_bytes,
    receipt_frame_bytes,
)
from .storage import BlockLog, ReceiptLog, load_keypair, load_registry, save_registry, write_genesis_time

AUTH_TAG = b"DHPA1|"
MAX_FRAME = 4 * 1024 * 1024

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


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise EncodingError(f"bad address {text!r}, expected host:port")
    return host, int(port)


def parse_node_config(text: str, base_dir: Path | None = None) -> NodeConfig:
    """Parse the key = value node config; DHP_DATA_DIR overrides data_dir."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise EncodingError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()

    def path_of(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() or base_dir is None else base_dir / p

    try:
        role = Role[values["role"].upper()]
        listen = _parse_hostport(values["listen"])
        data_dir = path_of(os.environ.get("DHP_DATA_DIR", values["data_dir"]))
        registry_file = path_of(values["registry"])
        key_file = path_of(values["key"])
    except KeyError as exc:
        raise EncodingError(f"config missing key {exc.args[0]!r}") from None
    if role not in (Role.HSA, Role.BM):
        raise EncodingError("node role must be hsa or bm")
    peers = [
        _parse_hostport(p.strip())
        for p in values.get("peers", "").split(",")
        if p.strip()
    ]
    policy_file = path_of(values["policy"]) if "policy" in values else None
    if role is Role.BM and policy_file is None:
        raise EncodingError("bm nodes require a policy file")
    return NodeConfig(
        role=role,
        listen=listen,
        data_dir=data_dir,
        registry_file=registry_file,
        key_file=key_file,
        peers=peers,
        policy_file=policy_file,
        block_interval=float(values.get("block_interval", "0.2")),
        genesis_time=int(values.get("genesis_time", "0")),
    )


class _Session:
    def __init__(self, member: ActorId):
        self.member = member


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        node: Node = self.server.node  # type: ignore[attr-defined]
        sock = self.request
        try:
            nonce = secrets.token_bytes(32)
            send_frame(sock, bytes((MSG_CHALLENGE,)) + nonce)
            frame = recv_frame(sock)
            session = self._authenticate(node, frame, nonce)
            if session is None:
                send_frame(sock, _error(ERR_UNAUTHORIZED, "authentication failed"))
                return
            send_frame(sock, bytes((MSG_AUTH_OK,)))
            while True:
                frame = recv_frame(sock)
                send_frame(sock, node.dispatch(session, frame))
        except (ConnectionError, OSError, EncodingError):
            return

    @staticmethod
    def _authenticate(node: "Node", frame: bytes, nonce: bytes) -> _Session | None:
        if len(frame) < 1 + 1 + 16 + 2 or frame[0] != MSG_AUTH:
            return None
        try:
            role = Role(frame[1])
        except ValueError:
            return None
        actor_id = frame[2:18]
        (siglen,) = struct.unpack_from(">H", frame, 18)
        signature = frame[20:20 + siglen]
        if len(frame) != 20 + siglen:
            return None
        member = node.registry.get(role, actor_id)
        if member is None:
            return None
        if not verify_sig(member.public_key, AUTH_TAG + nonce, signature):
            return None
        return _Session(member)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def _error(code: int, message: str) -> bytes:
    body = message.encode("utf-8")
    return bytes((MSG_ERROR,)) + struct.pack(">HH", code, len(body)) + body


class Node:
    """Common node machinery: chain ownership, persistence, read endpoints."""

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
        if not local_registry.exists():
            save_registry(local_registry, self.registry)
        write_genesis_time(config.data_dir, config.genesis_time)
        self._lock = threading.RLock()
        self._log = BlockLog(config.data_dir / "blocks.log")
        self._state = self._log.recover(self.registry, int(time.time()), config.genesis_time)
        self._orphans: dict[int, Block] = {}
        self._server: _Server | None = None
        self._stop = threading.Event()

    # -- lifecycle

    def start(self) -> None:
        self._server = _Server(self.config.listen, _Handler)
        self._server.node = self  # type: ignore[attr-defined]
        threading.Thread(target=self._server.serve_forever, daemon=True).start()

    def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "node is not running"
        return self._server.server_address  # type: ignore[return-value]

    @property
    def state(self) -> ChainState:
        return self._state

    # -- chain writes (single writer discipline)

    def _apply_block(self, block: Block) -> bool:
        """Append a received block if it extends the chain; buffer gaps."""
        with self._lock:
            expected = len(self._state.blocks)
            height = block.header.height
            if height < expected:
                return True  # already have it
            if height > expected:
                self._orphans[height] = block
                return True
            # Each block is logged, then published, so disk and memory hold
            # the same chain. A buffered orphan that fails is dropped and ends
            # the drain; the blocks before it stay.
            now = int(time.time())
            try:
                while block is not None:
                    state = append_block(self._state, block, now)
                    self._log.append(block)
                    self._state = state
                    block = self._orphans.pop(len(state.blocks), None)
            except InvalidBlock:
                pass
            return len(self._state.blocks) > expected

    def sync_from_peers(self) -> None:
        """One catch-up pass: fetch missing blocks from each peer."""
        for peer in self.config.peers:
            try:
                with NodeClient.connect(*peer, key=self.key, registry=self.registry) as client:
                    head = client.get_head()
                    missing: list[Block] = []
                    cursor = header_hash(head)
                    with self._lock:
                        known = dict(self._state.header_index)
                    while cursor not in known:
                        blk = client.get_block(cursor)
                        if blk is None:
                            break
                        missing.append(blk)
                        cursor = blk.header.prev_hash
                    for blk in reversed(missing):
                        self._apply_block(blk)
            except (OSError, DhpError, ConnectionError):
                continue

    # -- request dispatch

    def dispatch(self, session: _Session, frame: bytes) -> bytes:
        if not frame:
            return _error(ERR_MALFORMED, "empty frame")
        kind, body = frame[0], frame[1:]
        try:
            if kind == MSG_GET_BLOCK:
                return self._handle_get_block(body)
            if kind == MSG_GET_HEAD:
                return bytes((MSG_HEAD,)) + header_bytes(self._state.tip.header)
            if kind == MSG_ANNOUNCE:
                return self._handle_announce(session, body)
            return self.dispatch_role(session, kind, body)
        except EncodingError as exc:
            return _error(ERR_MALFORMED, str(exc))
        except DhpError as exc:
            return _error(ERR_REJECTED, str(exc))

    def dispatch_role(self, session: _Session, kind: int, body: bytes) -> bytes:
        return _error(ERR_MALFORMED, f"unsupported message {kind:#04x}")

    def _handle_get_block(self, body: bytes) -> bytes:
        if len(body) != 32:
            return _error(ERR_MALFORMED, "expected a 32-byte header hash")
        state = self._state
        height = state.header_index.get(body)
        if height is None:
            return _error(ERR_NOT_FOUND, "unknown block")
        return bytes((MSG_BLOCK,)) + block_bytes(state.blocks[height])

    def _handle_announce(self, session: _Session, body: bytes) -> bytes:
        if session.member.role is not Role.HSA:
            return _error(ERR_WRONG_ROLE, "only authorities announce blocks")
        block = parse_block(body, self.registry)
        accepted = self._apply_block(block)
        return bytes((MSG_ANNOUNCE_ACK, 1 if accepted else 0))


class HsaNode(Node):
    """Authority node: accepts facility submissions, proposes blocks at its
    scheduled heights, and announces them to peers. Tokens are minted at
    inclusion and kept in memory only (the salt never touches disk)."""

    def __init__(self, config: NodeConfig):
        super().__init__(config)
        self._mempool: dict[bytes, PendingDhp] = {}
        self._tokens: dict[bytes, DhpToken] = {}

    def start(self) -> None:
        super().start()
        threading.Thread(target=self._propose_loop, daemon=True).start()

    def dispatch_role(self, session: _Session, kind: int, body: bytes) -> bytes:
        if kind == MSG_SUBMIT:
            return self._handle_submit(session, body)
        if kind == MSG_GET_TOKEN:
            return self._handle_get_token(body)
        return super().dispatch_role(session, kind, body)

    def _handle_submit(self, session: _Session, body: bytes) -> bytes:
        if session.member.role is not Role.THF:
            return _error(ERR_WRONG_ROLE, "only testing facilities submit credentials")
        pending = parse_pending(body, self.registry.issuers())
        issuer = self.registry.issuers().get(pending.record.issuer_id.id)
        if issuer is None:
            return _error(ERR_UNKNOWN_ISSUER, "issuer is not registered")
        if not verify_sig(issuer.public_key, pending.record.signing_bytes, pending.record.issuer_signature):
            return _error(ERR_REJECTED, "bad issuer signature")
        # The rule propose_block applies: admitted, such a record would fail every proposal.
        if pending.record.tested_at > int(time.time()) + CLOCK_SKEW_SECONDS:
            return _error(ERR_REJECTED, "tested_at is in the future")
        commitment = pending.record.commitment
        with self._lock:
            duplicate = commitment in self._mempool or commitment in self._tokens or commitment in self._state.index
            if not duplicate:
                self._mempool[commitment] = pending
        return bytes((MSG_SUBMIT_ACK,)) + commitment + bytes((1 if duplicate else 0,))

    def _handle_get_token(self, body: bytes) -> bytes:
        if len(body) != 32:
            return _error(ERR_MALFORMED, "expected a 32-byte commitment")
        with self._lock:
            token = self._tokens.get(body)
            pending = body in self._mempool
        if token is not None:
            return bytes((MSG_TOKEN, 1)) + token_bytes(token)
        if pending:
            return bytes((MSG_TOKEN, 0))
        return _error(ERR_NOT_FOUND, "unknown commitment")

    def _propose_loop(self) -> None:
        while not self._stop.wait(self.config.block_interval):
            try:
                self.propose_once()
            except DhpError:
                continue

    def propose_once(self) -> Block | None:
        """Propose one block if scheduled and there is work. Returns it."""
        with self._lock:
            state = self._state
            sched = scheduled_authority(len(state.blocks), state.authority_set)
            if sched.id != self.key.owner.id:
                return None
            self._reap_included(state)
            if not self._mempool:
                return None
            batch = list(itertools.islice(self._mempool.values(), MAX_BLOCK_RECORDS))
            now = int(time.time())
            block = propose_block(state, [p.record for p in batch], self.key, now)
            self._state = append_block(state, block, now)
            self._log.append(block)
            block_hash = header_hash(block.header)
            position = {rec.commitment: i for i, rec in enumerate(block.records)}
            for p in batch:
                self._tokens[p.record.commitment] = DhpToken(
                    block_hash, position[p.record.commitment], p.salt
                )
                self._mempool.pop(p.record.commitment, None)
        self._announce(block)
        return block

    def _reap_included(self, state: ChainState) -> None:
        """Mint tokens for mempool entries that made it on-chain elsewhere."""
        for commitment in [c for c in self._mempool if c in state.index]:
            height, pos = state.index[commitment]
            pending = self._mempool.pop(commitment)
            self._tokens[commitment] = DhpToken(
                header_hash(state.blocks[height].header), pos, pending.salt
            )

    def _announce(self, block: Block) -> None:
        payload = bytes((MSG_ANNOUNCE,)) + block_bytes(block)
        for peer in self.config.peers:
            try:
                with NodeClient.connect(*peer, key=self.key, registry=self.registry) as client:
                    client.request(payload)
            except (OSError, DhpError, ConnectionError):
                continue


class BmNode(Node):
    """Read-only member node: replicates the chain and serves verification,
    appending a signed receipt to its local log for every check."""

    def __init__(self, config: NodeConfig):
        super().__init__(config)
        assert config.policy_file is not None
        self.policy: HygienePolicy = parse_policy(config.policy_file.read_text())
        self._receipts = ReceiptLog(config.data_dir / "receipts.log")

    def dispatch_role(self, session: _Session, kind: int, body: bytes) -> bytes:
        if kind == MSG_VERIFY:
            return self._handle_verify(body)
        return super().dispatch_role(session, kind, body)

    def _handle_verify(self, body: bytes) -> bytes:
        if len(body) < 52 + 8:
            return _error(ERR_MALFORMED, "verify request too short")
        token = parse_token(body[:52])
        (at,) = struct.unpack_from(">Q", body, 52)
        doc = decode_doc_bytes(body[60:])
        outcome, receipt = bm_verify(self.key, self._state, token, doc, self.policy, at)
        self._receipts.append(receipt)
        return _encode_outcome(outcome, receipt)


def _encode_outcome(outcome: VerificationOutcome, receipt: VerificationReceipt) -> bytes:
    located = outcome.dhp_location is not None
    parts = [
        bytes((MSG_OUTCOME, outcome.status.value,
               outcome.violation_reason.value if outcome.violation_reason else 0,
               1 if located else 0)),
    ]
    if located:
        parts.append(struct.pack(">QI", *outcome.dhp_location))
    parts.append(struct.pack(">Q", outcome.checked_at))
    frame = receipt_frame_bytes(receipt)
    parts.append(struct.pack(">H", len(frame)) + frame)
    return b"".join(parts)


def _decode_outcome(body: bytes, registry: Registry | None) -> tuple[VerificationOutcome, VerificationReceipt]:
    status = OutcomeStatus(body[0])
    violation = ViolationReason(body[1]) if body[1] else None
    located = body[2] == 1
    pos = 3
    location = None
    if located:
        height, idx = struct.unpack_from(">QI", body, pos)
        location = (height, idx)
        pos += 12
    (checked_at,) = struct.unpack_from(">Q", body, pos)
    pos += 8
    (rlen,) = struct.unpack_from(">H", body, pos)
    receipt = parse_receipt_frame(body[pos + 2:pos + 2 + rlen], registry)
    outcome = VerificationOutcome(
        status=status, violation_reason=violation, dhp_location=location, checked_at=checked_at
    )
    return outcome, receipt


class NodeClient:
    """Authenticated client for any consortium member."""

    def __init__(self, sock: socket.socket, registry: Registry | None = None):
        self._sock = sock
        self._registry = registry

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        key: KeyPair,
        registry: Registry | None = None,
        timeout: float = 5.0,
    ) -> "NodeClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        frame = recv_frame(sock)
        if not frame or frame[0] != MSG_CHALLENGE or len(frame) != 33:
            sock.close()
            raise ServiceError(ERR_MALFORMED, "bad challenge from server")
        signature = sign(key, AUTH_TAG + frame[1:])
        send_frame(
            sock,
            bytes((MSG_AUTH, key.owner.role.value))
            + key.owner.id
            + struct.pack(">H", len(signature))
            + signature,
        )
        reply = recv_frame(sock)
        if not reply or reply[0] != MSG_AUTH_OK:
            sock.close()
            raise ServiceError(ERR_UNAUTHORIZED, "authentication rejected")
        return cls(sock, registry)

    def __enter__(self) -> "NodeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._sock.close()

    def request(self, payload: bytes) -> bytes:
        send_frame(self._sock, payload)
        reply = recv_frame(self._sock)
        if reply and reply[0] == MSG_ERROR:
            (code, mlen) = struct.unpack_from(">HH", reply, 1)
            raise ServiceError(code, reply[5:5 + mlen].decode("utf-8", errors="replace"))
        return reply

    def submit_dhp(self, pending: PendingDhp) -> tuple[bytes, bool]:
        reply = self.request(bytes((MSG_SUBMIT,)) + pending_bytes(pending))
        if reply[0] != MSG_SUBMIT_ACK or len(reply) != 34:
            raise ServiceError(ERR_MALFORMED, "bad submit ack")
        return reply[1:33], reply[33] == 1

    def get_token(self, commitment: bytes) -> DhpToken | None:
        reply = self.request(bytes((MSG_GET_TOKEN,)) + commitment)
        if reply[0] != MSG_TOKEN:
            raise ServiceError(ERR_MALFORMED, "bad token reply")
        if reply[1] == 0:
            return None
        return parse_token(reply[2:])

    def wait_for_token(self, commitment: bytes, timeout: float = 5.0) -> DhpToken:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            token = self.get_token(commitment)
            if token is not None:
                return token
            time.sleep(0.05)
        raise TimeoutError("credential was not included in time")

    def get_block(self, block_hash: bytes) -> Block | None:
        try:
            reply = self.request(bytes((MSG_GET_BLOCK,)) + block_hash)
        except ServiceError as exc:
            if exc.code == ERR_NOT_FOUND:
                return None
            raise
        if self._registry is None:
            raise ServiceError(ERR_MALFORMED, "client needs a registry to parse blocks")
        return parse_block(reply[1:], self._registry)

    def get_head(self) -> BlockHeader:
        reply = self.request(bytes((MSG_GET_HEAD,)))
        authorities = {} if self._registry is None else {a.id: a for a in self._registry.authorities()}
        return parse_header(reply[1:], authorities)

    def verify(
        self, token: DhpToken, doc: TravelDocument, at: int
    ) -> tuple[VerificationOutcome, VerificationReceipt]:
        payload = bytes((MSG_VERIFY,)) + token_bytes(token) + struct.pack(">Q", at) + canonical_doc_bytes(doc)
        reply = self.request(payload)
        if reply[0] != MSG_OUTCOME:
            raise ServiceError(ERR_MALFORMED, "bad verify reply")
        return _decode_outcome(reply[1:], self._registry)

    def announce_block(self, block: Block) -> bool:
        reply = self.request(bytes((MSG_ANNOUNCE,)) + block_bytes(block))
        return reply[0] == MSG_ANNOUNCE_ACK and reply[1] == 1


def build_node(config: NodeConfig) -> Node:
    return HsaNode(config) if config.role is Role.HSA else BmNode(config)
