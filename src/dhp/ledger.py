"""The consortium blockchain: blocks of signed credentials, Merkle commitments,
proof-of-authority validation, append/fork-choice, and token-based lookup.

Authorities rotate round-robin by height; a block is final once the scheduled
authority appends it. Record order inside a block is canonical (ascending by
commitment), which removes proposer discretion and makes Merkle roots
reproducible. Wire frames carry only signed fields plus signatures; issuer and
authority keys come from the consortium registry at validation time.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from enum import Enum

from .core import (
    ActorId,
    DhpError,
    EncodingError,
    HealthPassport,
    Registry,
    Role,
    TestMethod,
    TravelDocument,
)
from .crypto import KeyPair, Salt, commit, sign, verify_sig

LEAF_TAG = b"LEAF|"
NODE_TAG = b"NODE|"
EMPTY_TAG = b"EMPTY|"
HEADER_TAG = b"DHPH1|"

GENESIS_PREV_HASH = b"\x00" * 32
MAX_BLOCK_RECORDS = 1024
CLOCK_SKEW_SECONDS = 300


class EmptyAuthoritySet(DhpError):
    pass


class NotScheduled(DhpError):
    pass


class EmptyBatch(DhpError):
    pass


class OversizedBatch(DhpError):
    pass


class InvalidPendingRecord(DhpError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"pending record {index}: {reason}")
        self.index = index
        self.reason = reason


class NoValidCandidate(DhpError):
    pass


class BlockError(Enum):
    """Validation failures, reported in this fixed precedence order."""

    WRONG_HEIGHT = "WrongHeight"
    BAD_PREV_HASH = "BadPrevHash"
    WRONG_AUTHORITY = "WrongAuthority"
    BAD_AUTHORITY_SIG = "BadAuthoritySig"
    BAD_RECORD_COUNT = "BadRecordCount"
    BAD_MERKLE_ROOT = "BadMerkleRoot"
    UNKNOWN_ISSUER = "UnknownIssuer"
    BAD_RECORD_SIG = "BadRecordSig"
    BAD_ORDERING = "BadOrdering"
    BAD_TIMESTAMP = "BadTimestamp"


class InvalidBlock(DhpError):
    def __init__(self, error: BlockError):
        super().__init__(error.value)
        self.error = error


@dataclass(frozen=True)
class BlockHeader:
    height: int
    prev_hash: bytes
    merkle_root: bytes
    authority_id: ActorId
    block_time: int
    authority_signature: bytes


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    records: tuple[HealthPassport, ...]


@dataclass(frozen=True)
class DhpToken:
    """Traveller-held locator: header hash, record position, and the salt
    that opens exactly one commitment. Possession of the token bounds what a
    verifier can see to that single record."""

    header_hash: bytes
    record_index: int
    salt: Salt


@dataclass(frozen=True)
class ChainState:
    """A replicated chain plus derived indexes.

    Mutation happens only through :func:`append_block`, which returns a new
    state and never touches the old one, so readers can hold snapshots without
    synchronisation.
    """

    blocks: tuple[Block, ...]
    authority_set: tuple[ActorId, ...]
    issuer_registry: dict[bytes, ActorId]
    index: dict[bytes, tuple[int, int]]
    header_index: dict[bytes, int]

    @classmethod
    def genesis(cls, registry: Registry, genesis_time: int = 0) -> "ChainState":
        """Deterministic genesis from consortium configuration.

        The genesis block carries no records and no signature: it is agreed
        out-of-band, not proposed, so the header-signature rule applies only
        to appended blocks.
        """
        authorities = registry.authorities()
        if not authorities:
            raise EmptyAuthoritySet("registry contains no authorities")
        header = BlockHeader(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            merkle_root=merkle_root(()),
            authority_id=authorities[0],
            block_time=genesis_time,
            authority_signature=b"",
        )
        genesis = Block(header=header, records=())
        return cls(
            blocks=(genesis,),
            authority_set=authorities,
            issuer_registry=registry.issuers(),
            index={},
            header_index={header_hash(header): 0},
        )

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return self.tip.header.height


def merkle_root(records: tuple[HealthPassport, ...] | list[HealthPassport]) -> bytes:
    """Merkle root over credential leaves; odd layers duplicate the last node."""
    if not records:
        return hashlib.sha256(EMPTY_TAG).digest()
    layer = [
        hashlib.sha256(LEAF_TAG + r.signing_bytes + r.issuer_signature).digest()
        for r in records
    ]
    while len(layer) > 1:
        if len(layer) % 2:
            layer.append(layer[-1])
        layer = [
            hashlib.sha256(NODE_TAG + layer[i] + layer[i + 1]).digest()
            for i in range(0, len(layer), 2)
        ]
    return layer[0]


def header_signing_bytes(header: BlockHeader) -> bytes:
    """Canonical header preimage, excluding the authority signature."""
    return b"".join(
        (
            HEADER_TAG,
            struct.pack(">Q", header.height),
            header.prev_hash,
            header.merkle_root,
            header.authority_id.id,
            struct.pack(">Q", header.block_time),
        )
    )


def header_hash(header: BlockHeader) -> bytes:
    return hashlib.sha256(header_signing_bytes(header)).digest()


def scheduled_authority(height: int, authority_set: tuple[ActorId, ...]) -> ActorId:
    """Round-robin block production: height h belongs to authority h mod n."""
    if not authority_set:
        raise EmptyAuthoritySet("no authorities configured")
    return authority_set[height % len(authority_set)]


def propose_block(
    state: ChainState,
    pending: list[HealthPassport],
    hsa: KeyPair,
    now: int,
    max_records: int = MAX_BLOCK_RECORDS,
) -> Block:
    """Build the next block from pending credentials.

    The proposer must be the authority scheduled for tip+1. Pending records are
    checked against the issuer registry, deduplicated (byte-identical repeats),
    rejected if their commitment is already on-chain or collides with a
    differing pending record, and sorted into canonical order.
    """
    height = len(state.blocks)
    sched = scheduled_authority(height, state.authority_set)
    if hsa.owner.role is not Role.HSA or hsa.owner.id != sched.id:
        raise NotScheduled(f"{hsa.owner.label()} is not scheduled for height {height}")
    if not pending:
        raise EmptyBatch("no pending records")

    chosen: dict[bytes, HealthPassport] = {}
    for i, record in enumerate(pending):
        issuer = state.issuer_registry.get(record.issuer_id.id)
        if issuer is None:
            raise InvalidPendingRecord(i, "unknown issuer")
        if not verify_sig(issuer.public_key, record.signing_bytes, record.issuer_signature):
            raise InvalidPendingRecord(i, "bad issuer signature")
        if record.tested_at > now + CLOCK_SKEW_SECONDS:
            raise InvalidPendingRecord(i, "tested_at is in the future")
        if record.commitment in state.index:
            raise InvalidPendingRecord(i, "commitment already on-chain")
        prior = chosen.get(record.commitment)
        if prior is not None:
            if prior != record:
                raise InvalidPendingRecord(i, "commitment collides with a differing record")
            continue  # byte-identical duplicate
        chosen[record.commitment] = record
    if len(chosen) > max_records:
        raise OversizedBatch(f"{len(chosen)} records exceed the {max_records}-record block limit")

    records = tuple(sorted(chosen.values(), key=lambda r: r.commitment))
    header = BlockHeader(
        height=height,
        prev_hash=header_hash(state.tip.header),
        merkle_root=merkle_root(records),
        authority_id=hsa.owner,
        block_time=now,
        authority_signature=b"",
    )
    signature = sign(hsa, header_signing_bytes(header))
    return Block(header=replace(header, authority_signature=signature), records=records)


def validate_block(
    state: ChainState,
    block: Block,
    now: int,
    clock_skew: int = CLOCK_SKEW_SECONDS,
    max_records: int = MAX_BLOCK_RECORDS,
) -> BlockError | None:
    """None iff the block extends the chain; otherwise the first failure."""
    header = block.header
    if header.height != len(state.blocks):
        return BlockError.WRONG_HEIGHT
    if header.prev_hash != header_hash(state.tip.header):
        return BlockError.BAD_PREV_HASH
    sched = scheduled_authority(header.height, state.authority_set)
    if header.authority_id.role is not Role.HSA or header.authority_id.id != sched.id:
        return BlockError.WRONG_AUTHORITY
    if not verify_sig(sched.public_key, header_signing_bytes(header), header.authority_signature):
        return BlockError.BAD_AUTHORITY_SIG
    if not 1 <= len(block.records) <= max_records:
        return BlockError.BAD_RECORD_COUNT
    try:
        root = merkle_root(block.records)
    except EncodingError:  # a record without signed bytes has no valid signature
        return BlockError.BAD_RECORD_SIG
    if root != header.merkle_root:
        return BlockError.BAD_MERKLE_ROOT
    for record in block.records:
        issuer = state.issuer_registry.get(record.issuer_id.id)
        if issuer is None or record.issuer_id.role is not Role.THF:
            return BlockError.UNKNOWN_ISSUER
        if not verify_sig(issuer.public_key, record.signing_bytes, record.issuer_signature):
            return BlockError.BAD_RECORD_SIG
    for a, b in zip(block.records, block.records[1:]):
        if a.commitment >= b.commitment:
            return BlockError.BAD_ORDERING
    if header.block_time < state.tip.header.block_time or header.block_time > now + clock_skew:
        return BlockError.BAD_TIMESTAMP
    if any(r.tested_at > header.block_time + clock_skew for r in block.records):
        return BlockError.BAD_TIMESTAMP
    return None


def append_block(
    state: ChainState,
    block: Block,
    now: int,
    clock_skew: int = CLOCK_SKEW_SECONDS,
) -> ChainState:
    """Validated append; returns the extended state, raises InvalidBlock else."""
    error = validate_block(state, block, now, clock_skew)
    if error is not None:
        raise InvalidBlock(error)
    index = dict(state.index)
    height = block.header.height
    for pos, record in enumerate(block.records):
        index[record.commitment] = (height, pos)
    header_index = dict(state.header_index)
    header_index[header_hash(block.header)] = height
    return replace(state, blocks=state.blocks + (block,), index=index, header_index=header_index)


class LookupStatus(Enum):
    FOUND = "Found"
    NOT_FOUND = "NotFound"
    COMMITMENT_MISMATCH = "CommitmentMismatch"


@dataclass(frozen=True)
class LookupResult:
    status: LookupStatus
    record: HealthPassport | None = None
    location: tuple[int, int] | None = None


def lookup_by_token(state: ChainState, token: DhpToken, doc: TravelDocument) -> LookupResult:
    """Resolve a token to its single record and open the commitment.

    The record is returned only if commit(doc, token.salt) equals the stored
    commitment, which is what makes credentials non-transferable.
    """
    height = state.header_index.get(token.header_hash)
    if height is None:
        return LookupResult(LookupStatus.NOT_FOUND)
    block = state.blocks[height]
    if not 0 <= token.record_index < len(block.records):
        return LookupResult(LookupStatus.NOT_FOUND)
    record = block.records[token.record_index]
    location = (height, token.record_index)
    if commit(doc, token.salt) != record.commitment:
        return LookupResult(LookupStatus.COMMITMENT_MISMATCH, location=location)
    return LookupResult(LookupStatus.FOUND, record=record, location=location)


def fork_choice(candidates: list[ChainState]) -> ChainState:
    """Longest chain; ties broken by lexicographically smallest tip hash."""
    if not candidates:
        raise NoValidCandidate("no candidate chains")
    return min(candidates, key=lambda s: (-len(s.blocks), header_hash(s.tip.header)))


# --- canonical wire frames -------------------------------------------------
#
# record frame : commitment(32) result(1) tested_at(8) mlen(1) method
#                issuer_id(16) siglen(2) signature
# header frame : height(8) prev(32) merkle(32) authority_id(16) time(8)
#                siglen(2) signature
# block frame  : header frame, count(4), record frames
# token frame  : header_hash(32) index(4) salt(16)
#
# Parsing is strict: non-canonical result bytes, short reads, and trailing
# bytes are all rejected, so any stored byte is covered by a signature, a
# hash, or the parser.


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise EncodingError("frame truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise EncodingError("trailing bytes after frame")


def record_bytes(record: HealthPassport) -> bytes:
    body = record.signing_bytes[len(b"DHPv1|"):]
    return body + struct.pack(">H", len(record.issuer_signature)) + record.issuer_signature


def _parse_record(r: _Reader, issuers: dict[bytes, ActorId]) -> HealthPassport:
    commitment = r.take(32)
    result_byte = r.u8()
    if result_byte not in (0, 1):
        raise EncodingError(f"non-canonical result byte {result_byte:#04x}")
    tested_at = r.u64()
    method = TestMethod.named(r.take(r.u8()).decode("utf-8"))
    issuer_id = r.take(16)
    signature = r.take(r.u16())
    issuer = issuers.get(issuer_id, ActorId(role=Role.THF, id=issuer_id, public_key=b""))
    return HealthPassport(
        commitment=commitment,
        result=bool(result_byte),
        tested_at=tested_at,
        method=method,
        issuer_id=issuer,
        issuer_signature=signature,
    )


def parse_record(data: bytes, issuers: dict[bytes, ActorId]) -> HealthPassport:
    r = _Reader(data)
    record = _parse_record(r, issuers)
    r.done()
    return record


def header_bytes(header: BlockHeader) -> bytes:
    return (
        header_signing_bytes(header)[len(HEADER_TAG):]
        + struct.pack(">H", len(header.authority_signature))
        + header.authority_signature
    )


def _parse_header(r: _Reader, authorities: dict[bytes, ActorId]) -> BlockHeader:
    height = r.u64()
    prev_hash = r.take(32)
    merkle = r.take(32)
    authority_id = r.take(16)
    block_time = r.u64()
    signature = r.take(r.u16())
    authority = authorities.get(authority_id, ActorId(role=Role.HSA, id=authority_id, public_key=b""))
    return BlockHeader(
        height=height,
        prev_hash=prev_hash,
        merkle_root=merkle,
        authority_id=authority,
        block_time=block_time,
        authority_signature=signature,
    )


def parse_header(data: bytes, authorities: dict[bytes, ActorId]) -> BlockHeader:
    r = _Reader(data)
    header = _parse_header(r, authorities)
    r.done()
    return header


def block_bytes(block: Block) -> bytes:
    parts = [header_bytes(block.header), struct.pack(">I", len(block.records))]
    parts.extend(record_bytes(r) for r in block.records)
    return b"".join(parts)


def parse_block(data: bytes, registry: Registry) -> Block:
    authorities = {a.id: a for a in registry.authorities()}
    issuers = registry.issuers()
    r = _Reader(data)
    header = _parse_header(r, authorities)
    count = r.u32()
    if count > MAX_BLOCK_RECORDS:
        raise EncodingError(f"record count {count} exceeds block limit")
    records = tuple(_parse_record(r, issuers) for _ in range(count))
    r.done()
    return Block(header=header, records=records)


def chain_bytes(state: ChainState) -> bytes:
    """Serialized full chain; byte equality means replica agreement."""
    return b"".join(block_bytes(b) for b in state.blocks)


def token_bytes(token: DhpToken) -> bytes:
    return token.header_hash + struct.pack(">I", token.record_index) + token.salt.value


def parse_token(data: bytes) -> DhpToken:
    r = _Reader(data)
    header = r.take(32)
    index = r.u32()
    salt = Salt(r.take(16))
    r.done()
    return DhpToken(header_hash=header, record_index=index, salt=salt)
