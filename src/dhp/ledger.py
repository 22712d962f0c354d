"""The consortium blockchain: blocks of signed credentials, Merkle commitments,
credential admission, proof-of-authority validation and append, and
token-based lookup.

Authorities rotate round-robin by height; a block is final once the scheduled
authority appends it. Record order inside a block is canonical (ascending by
commitment), which removes proposer discretion and makes Merkle roots
reproducible. Wire frames carry only signed fields plus signatures; issuer and
authority keys come from the consortium registry at validation time.

A block is held as its frame: the bytes it was parsed from, or the encoding
of the records it was built from, made once. validate_block reads every
record rule from the frame, in one pass per record, and a HealthPassport is
built only when a caller reads that record (Block.records).

validate_block alone decides whether a block may enter a chain; the proposer
only builds and signs. It reports the first rule broken, in this order: the
height is the tip's plus one (WrongHeight) and prev_hash the tip's hash
(BadPrevHash); the scheduled HSA signed the header (WrongAuthority,
BadAuthoritySig); 1 to MAX_BLOCK_RECORDS records (BadRecordCount), each with
a canonical encoding (else BadRecordSig), under the header's Merkle root
(BadMerkleRoot), each signed by a registered THF (UnknownIssuer,
BadRecordSig); commitments strictly ascending, so none repeats
(BadOrdering), and none already on the chain (DuplicateRecord); block and test
times within CLOCK_SKEW_SECONDS (BadTimestamp). A node replaying its own
block log may skip the issuer signatures (record_sigs=False); every other
rule still runs, in the same order.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

from .core import (
    ACTOR_ID_LEN,
    COMMITMENT_LEN,
    ActorId,
    DhpError,
    EncodingError,
    HealthPassport,
    Reader,
    Registry,
    Role,
    SIGNING_TAG,
    TestMethod,
    TravelDocument,
    method_code_bytes,
)
from .crypto import SIGNATURE_LEN, KeyPair, Salt, commit, sign, verify_sig

LEAF_TAG = b"LEAF|"
NODE_TAG = b"NODE|"
EMPTY_TAG = b"EMPTY|"
HEADER_TAG = b"DHPH1|"

GENESIS_PREV_HASH = b"\x00" * 32
MAX_BLOCK_RECORDS = 1024
CLOCK_SKEW_SECONDS = 300
#: The commitment index packs a record's place as height << POS_BITS | position
#: (2**POS_BITS > MAX_BLOCK_RECORDS): one int per record, not a tuple of two.
POS_BITS = 11


class EmptyAuthoritySet(DhpError):
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
    DUPLICATE_RECORD = "DuplicateRecord"
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


class Block:
    """A block: its header, its records and its frame, the one encoding of
    the block (block_bytes) that the block log, the ANNOUNCE and BLOCK
    messages, chain_bytes and validate_block all read.

    A block parsed from a frame (parse_block) keeps that frame and the
    offset of each record in it; its records are a view that decodes one
    HealthPassport per access and keeps none. A block built from records
    keeps their tuple and encodes its frame once, on first use; a record
    with no canonical encoding raises EncodingError there, on every use.
    Blocks are equal when their frames are.
    """

    __slots__ = ("header", "records", "_frame", "_offsets")

    def __init__(self, header: BlockHeader, records: Iterable[HealthPassport]):
        self.header = header
        self.records: Sequence[HealthPassport] = tuple(records)
        self._frame: bytes | None = None
        self._offsets: array | None = None

    @classmethod
    def _parsed(cls, header: BlockHeader, frame: bytes, offsets: array, issuers: dict[bytes, ActorId]) -> "Block":
        block = cls.__new__(cls)
        block.header, block._frame, block._offsets = header, frame, offsets
        block.records = _FrameRecords(frame, offsets, issuers)
        return block

    @property
    def frame(self) -> bytes:
        if self._frame is None:
            self._encode()
        return self._frame

    @property
    def offsets(self) -> array:
        """The offset of each record's frame in the block's frame."""
        if self._frame is None:
            self._encode()
        return self._offsets

    def _encode(self) -> None:
        head = header_bytes(self.header) + _COUNT.pack(len(self.records))
        parts, offsets, pos = [head], array("I"), len(head)
        for record in self.records:
            part = record_bytes(record)
            parts.append(part)
            offsets.append(pos)
            pos += len(part)
        self._offsets = offsets
        self._frame = b"".join(parts)

    def commitments(self) -> list[bytes]:
        """Each record's commitment, in block order, read from the frame."""
        frame = self.frame
        return [frame[start:start + COMMITMENT_LEN] for start in self.offsets]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self is other or self.frame == other.frame

    def __repr__(self) -> str:
        return f"Block(height={self.header.height}, records={len(self.records)})"


class _FrameRecords(Sequence):
    """The records of a parsed block, read from its frame: each index access
    decodes one HealthPassport, which nothing keeps."""

    __slots__ = ("_frame", "_offsets", "_issuers")

    def __init__(self, frame: bytes, offsets: array, issuers: dict[bytes, ActorId]):
        self._frame, self._offsets, self._issuers = frame, offsets, issuers

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return _record_at(self._frame, self._offsets[index], self._issuers)

    def __iter__(self) -> Iterator[HealthPassport]:
        frame, issuers = self._frame, self._issuers
        return (_record_at(frame, start, issuers) for start in self._offsets)


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
    state; an old state's answers never change, so readers can hold
    snapshots without synchronisation. The states along one chain share
    `index` (commitment to height << POS_BITS | position) and
    `header_index` (header hash to height), which each append extends in
    place; read them through :meth:`locate` and :meth:`height_of`, which
    answer only for this state's own blocks. On the newest state of a chain
    they hold exactly its entries. One writer at a time appends along a
    chain.
    """

    blocks: tuple[Block, ...]
    authority_set: tuple[ActorId, ...]
    issuer_registry: dict[bytes, ActorId]
    index: dict[bytes, int] = field(compare=False, repr=False)
    header_index: dict[bytes, int] = field(compare=False, repr=False)

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

    def locate(self, commitment: bytes) -> tuple[int, int] | None:
        """(height, position) of the record with this commitment, if this
        state's chain holds one."""
        located = self.index.get(commitment)
        if located is None or located >> POS_BITS >= len(self.blocks):
            return None
        return located >> POS_BITS, located & ((1 << POS_BITS) - 1)

    def height_of(self, block_hash: bytes) -> int | None:
        """The height of the block with this header hash, if this state's
        chain holds one."""
        height = self.header_index.get(block_hash)
        return height if height is not None and height < len(self.blocks) else None


def record_leaf(record: HealthPassport) -> bytes:
    """The Merkle leaf of a record: the hash of its signed preimage and its
    signature (validate_block hashes the same bytes from the frame)."""
    return hashlib.sha256(LEAF_TAG + record.signing_bytes + record.issuer_signature).digest()


def merkle_root(leaves: Iterable[bytes]) -> bytes:
    """Merkle root over leaf hashes (record_leaf); odd layers duplicate the
    last node."""
    layer = list(leaves)
    if not layer:
        return hashlib.sha256(EMPTY_TAG).digest()
    while len(layer) > 1:
        if len(layer) % 2:
            layer.append(layer[-1])
        pairs = iter(layer)
        layer = [hashlib.sha256(NODE_TAG + left + right).digest() for left, right in zip(pairs, pairs)]
    return layer[0]


#: A header's fixed fields: height, previous hash, Merkle root, authority id
#: and block time. Its signature's u16 length and bytes follow on the wire.
_HEADER = struct.Struct(">Q32s32s16sQ")


def header_signing_bytes(header: BlockHeader) -> bytes:
    """Canonical header preimage, excluding the authority signature."""
    return HEADER_TAG + _HEADER.pack(
        header.height, header.prev_hash, header.merkle_root, header.authority_id.id, header.block_time
    )


def header_hash(header: BlockHeader) -> bytes:
    return hashlib.sha256(header_signing_bytes(header)).digest()


def scheduled_authority(height: int, authority_set: tuple[ActorId, ...]) -> ActorId:
    """Round-robin block production: height h belongs to authority h mod n."""
    if not authority_set:
        raise EmptyAuthoritySet("no authorities configured")
    return authority_set[height % len(authority_set)]


def check_issuer(state: ChainState, record: HealthPassport) -> BlockError | None:
    """None iff a registered testing facility signed the record's preimage;
    a record whose fields have no canonical encoding has no valid signature."""
    issuer = state.issuer_registry.get(record.issuer_id.id)
    if issuer is None or record.issuer_id.role is not Role.THF:
        return BlockError.UNKNOWN_ISSUER
    try:
        preimage = record.signing_bytes
    except EncodingError:
        return BlockError.BAD_RECORD_SIG
    if not verify_sig(issuer.public_key, preimage, record.issuer_signature):
        return BlockError.BAD_RECORD_SIG
    return None


def admit(state: ChainState, record: HealthPassport, now: int) -> BlockError | None:
    """None iff a submitted credential may wait for a block: its issuer checks
    out and it was not tested more than CLOCK_SKEW_SECONDS after `now`, so no
    block sealed at `now` or later refuses it."""
    error = check_issuer(state, record)
    if error is None and record.tested_at > now + CLOCK_SKEW_SECONDS:
        return BlockError.BAD_TIMESTAMP
    return error


def propose_block(
    state: ChainState,
    pending: list[HealthPassport],
    hsa: KeyPair,
    now: int,
) -> Block:
    """Build the next block over pending, in canonical order, and sign it
    with hsa. Nothing is checked here: append_block refuses whatever block
    validate_block refuses."""
    records = tuple(sorted(pending, key=lambda r: r.commitment))
    header = BlockHeader(
        height=len(state.blocks),
        prev_hash=header_hash(state.tip.header),
        merkle_root=merkle_root(map(record_leaf, records)),
        authority_id=hsa.owner,
        block_time=now,
        authority_signature=b"",
    )
    signature = sign(hsa, header_signing_bytes(header))
    return Block(header=replace(header, authority_signature=signature), records=records)


def validate_block(state: ChainState, block: Block, now: int, record_sigs: bool = True) -> BlockError | None:
    """None iff the block extends the chain; otherwise the first failure.

    The record rules read the block's frame, one pass per record: its
    commitment, test time, method code, issuer id and signature, in place.
    record_sigs=False leaves out the one rule that costs an Ed25519 check per
    record, each issuer's signature, and keeps every other rule. It is for
    replaying a log this node wrote after validating each block in full: the
    Merkle root binds every record's bytes and signature to the header the
    authority signed, so a changed byte still fails as BadMerkleRoot."""
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
    if not 1 <= len(block.records) <= MAX_BLOCK_RECORDS:
        return BlockError.BAD_RECORD_COUNT
    try:
        frame, offsets = block.frame, block.offsets
    except EncodingError:  # a record without signed bytes has no valid signature
        return BlockError.BAD_RECORD_SIG
    # One pass over the records: the leaves, and each rule's first breach.
    # An unknown issuer is noted with its position, as the signatures of the
    # records before it are checked first, once the root holds; the other
    # rules are reported in their order after that.
    issuers, index, height = state.issuer_registry, state.index, len(state.blocks)
    read_head, new_leaf = _RECORD_HEAD.unpack_from, _LEAF.copy
    head, id_len = _RECORD_HEAD.size, ACTOR_ID_LEN
    latest_test = header.block_time + CLOCK_SKEW_SECONDS
    leaves, signed_records = [], []
    previous, code = b"", None
    pos, unknown = 0, len(offsets)
    unencodable = unordered = duplicate = late = False
    ends = offsets[1:]
    ends.append(len(frame))
    for start, end in zip(offsets, ends):
        commitment, _, tested_at, method_len = read_head(frame, start)
        method_end = start + head + method_len
        signed_end = method_end + id_len
        if code != frame[start + head:method_end]:
            code = frame[start + head:method_end]
            unencodable = unencodable or not _read_method(code)[1]
        signed = frame[start:signed_end]
        signature = frame[signed_end + 2:end]  # past its u16 length
        leaf = new_leaf()
        leaf.update(signed)
        leaf.update(signature)
        leaves.append(leaf.digest())
        if pos < unknown:
            issuer = issuers.get(frame[method_end:signed_end])
            if issuer is None:
                unknown = pos
            elif record_sigs:
                signed_records.append((issuer.public_key, signed, signature))
        pos += 1
        if previous >= commitment:
            unordered = True
        located = index.get(commitment)  # locate(commitment), inline
        if located is not None and located >> POS_BITS < height:
            duplicate = True
        if tested_at > latest_test:
            late = True
        previous = commitment
    if unencodable:
        return BlockError.BAD_RECORD_SIG
    if merkle_root(leaves) != header.merkle_root:
        return BlockError.BAD_MERKLE_ROOT
    for public_key, signed, signature in signed_records:
        if not verify_sig(public_key, SIGNING_TAG + signed, signature):
            return BlockError.BAD_RECORD_SIG
    if unknown < len(offsets):
        return BlockError.UNKNOWN_ISSUER
    if unordered:
        return BlockError.BAD_ORDERING
    if duplicate:
        return BlockError.DUPLICATE_RECORD
    if header.block_time < state.tip.header.block_time or header.block_time > now + CLOCK_SKEW_SECONDS or late:
        return BlockError.BAD_TIMESTAMP
    return None


def append_block(state: ChainState, block: Block, now: int, record_sigs: bool = True) -> ChainState:
    """Validated append; returns the extended state, raises InvalidBlock else.
    record_sigs is validate_block's."""
    error = validate_block(state, block, now, record_sigs)
    if error is not None:
        raise InvalidBlock(error)
    height = block.header.height
    index, header_index = state.index, state.header_index
    if len(header_index) != height:
        # Another state holds a later block in these indexes (a fork, or a
        # block whose log write failed): start this state's own from a copy.
        index = {c: located for c, located in index.items() if located >> POS_BITS < height}
        header_index = {h: n for h, n in header_index.items() if n < height}
    index.update(zip(block.commitments(), range(height << POS_BITS, (height + 1) << POS_BITS)))
    header_index[header_hash(block.header)] = height
    return ChainState(state.blocks + (block,), state.authority_set, state.issuer_registry, index, header_index)


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
    commitment, which is what makes credentials non-transferable. A token
    this chain does not locate is NOT_FOUND before the document is opened.
    """
    found = locate_token(state, token)
    if found.status is LookupStatus.FOUND and commit(doc, token.salt) != found.record.commitment:
        return LookupResult(LookupStatus.COMMITMENT_MISMATCH, location=found.location)
    return found


def locate_token(state: ChainState, token: DhpToken) -> LookupResult:
    """The record a token names on this state's chain, its commitment not yet
    opened: FOUND with the record and its location, or NOT_FOUND."""
    height = state.height_of(token.header_hash)
    if height is None:
        return LookupResult(LookupStatus.NOT_FOUND)
    block = state.blocks[height]
    if not 0 <= token.record_index < len(block.records):
        return LookupResult(LookupStatus.NOT_FOUND)
    return LookupResult(LookupStatus.FOUND, record=block.records[token.record_index],
                        location=(height, token.record_index))


# --- canonical wire frames -------------------------------------------------
#
# record frame : commitment(32) result(1) tested_at(8) mlen(1) method
#                issuer_id(16) siglen(2) signature
# header frame : height(8) prev(32) merkle(32) authority_id(16) time(8)
#                siglen(2) signature
# block frame  : header frame, count(4), record frames
# token frame  : header_hash(32) index(4) salt(16)
#
# Parsing goes through core.Reader and is strict: non-canonical result bytes,
# short reads, and trailing bytes are all rejected, so any stored byte is
# covered by a signature, a hash, or the parser. Each read_x(r, ...) decodes
# one field sequence from a Reader; parse_x(data, ...) decodes a whole frame.
# parse_block checks each record frame's layout and keeps its offset; a
# record is decoded only when read. A registered actor decodes to the
# registry's own ActorId, and the records of one method code share one
# TestMethod (_read_method).


def record_bytes(record: HealthPassport) -> bytes:
    body = record.signing_bytes[len(SIGNING_TAG):]
    return body + struct.pack(">H", len(record.issuer_signature)) + record.issuer_signature


#: A record frame's fixed fields: commitment, result, tested_at and method
#: length before the method code; issuer id and signature length after it.
_RECORD_HEAD = struct.Struct(">32sBQB")
_RECORD_TAIL = struct.Struct(">16sH")
_COUNT = struct.Struct(">I")
#: A record's Merkle leaf hash, fed with its tags (record_leaf).
_LEAF = hashlib.sha256(LEAF_TAG + SIGNING_TAG)
#: The longest frame of a block validate_block can accept: a header with its
#: signature, the u32 record count, and MAX_BLOCK_RECORDS records whose method
#: codes fill their u8 length, each with a signature of SIGNATURE_LEN.
MAX_BLOCK_BYTES = (
    _HEADER.size + 2 + SIGNATURE_LEN + 4
    + MAX_BLOCK_RECORDS * (_RECORD_HEAD.size + 0xFF + _RECORD_TAIL.size + SIGNATURE_LEN)
)


@lru_cache(maxsize=256)
def _read_method(code: bytes) -> tuple[TestMethod, bool]:
    """The method a record frame's code bytes name, and whether they are its
    canonical encoding; a code that is not UTF-8 raises EncodingError on
    every call, as exceptions are not cached. Memoised because the records
    of a block nearly always share one code."""
    try:
        method = TestMethod(code.decode("utf-8"))
    except UnicodeDecodeError:
        raise EncodingError("method code is not UTF-8") from None
    try:
        method_code_bytes(method)
    except EncodingError:
        return method, False
    return method, True


def _walk_records(data: bytes, pos: int, count: int) -> tuple[array, int]:
    """The offsets of count record frames laid end to end from data[pos],
    and the end of the last. It checks their layout: every field present, a
    result byte of 0 or 1, a UTF-8 method code."""
    offsets, code = array("I"), None
    try:
        for _ in range(count):
            offsets.append(pos)
            if data[pos + COMMITMENT_LEN] > 1:
                raise EncodingError(f"non-canonical result byte {data[pos + COMMITMENT_LEN]:#04x}")
            method_end = pos + _RECORD_HEAD.size + data[pos + _RECORD_HEAD.size - 1]
            signature_len = data[method_end + ACTOR_ID_LEN] << 8 | data[method_end + ACTOR_ID_LEN + 1]
            if code != data[pos + _RECORD_HEAD.size:method_end]:
                code = data[pos + _RECORD_HEAD.size:method_end]
                _read_method(code)
            pos = method_end + _RECORD_TAIL.size + signature_len
    except IndexError:
        raise EncodingError("frame truncated") from None
    if pos > len(data):
        raise EncodingError("frame truncated")
    return offsets, pos


def _record_at(data: bytes, start: int, issuers: dict[bytes, ActorId]) -> HealthPassport:
    """The record whose frame starts at data[start], its layout already
    checked by _walk_records, read in one pass: its two fixed layouts
    unpacked in place. Its bytes from the commitment through the issuer id
    are the signed fields' encoding whenever the method code is canonical,
    so they become the record's signing_bytes as they stand; with any other
    method code, signing_bytes raises EncodingError as for a built record.
    A registered issuer is the registry's own ActorId; any other id gets a
    THF placeholder with no key."""
    commitment, result_byte, tested_at, method_len = _RECORD_HEAD.unpack_from(data, start)
    method_end = start + _RECORD_HEAD.size + method_len
    issuer_id, signature_len = _RECORD_TAIL.unpack_from(data, method_end)
    end = method_end + _RECORD_TAIL.size + signature_len
    method, canonical = _read_method(data[start + _RECORD_HEAD.size:method_end])
    issuer = issuers.get(issuer_id)
    if issuer is None:
        issuer = ActorId(role=Role.THF, id=issuer_id, public_key=b"")
    # The frozen __init__ stores each field in the instance dict; doing that
    # here, in field order, costs a third as much per record, and the dict
    # still shares its keys with every other record's.
    record = object.__new__(HealthPassport)
    attrs = record.__dict__
    attrs["commitment"] = commitment
    attrs["result"] = bool(result_byte)
    attrs["tested_at"] = tested_at
    attrs["method"] = method
    attrs["issuer_id"] = issuer
    attrs["issuer_signature"] = data[end - signature_len:end]
    if canonical:
        attrs["signing_bytes"] = SIGNING_TAG + data[start:method_end + len(issuer_id)]
    return record


def read_record(r: Reader, issuers: dict[bytes, ActorId]) -> HealthPassport:
    """One record frame, read from r.data at r.pos once _walk_records has
    checked its layout (see _record_at)."""
    _, end = _walk_records(r.data, r.pos, 1)
    record, r.pos = _record_at(r.data, r.pos, issuers), end
    return record


def header_bytes(header: BlockHeader) -> bytes:
    return (
        header_signing_bytes(header)[len(HEADER_TAG):]
        + struct.pack(">H", len(header.authority_signature))
        + header.authority_signature
    )


def read_header(r: Reader, authorities: dict[bytes, ActorId]) -> BlockHeader:
    height, prev_hash, merkle, authority_id, block_time = r.unpack(_HEADER)
    signature = r.take(r.u16())
    authority = authorities.get(authority_id)
    if authority is None:
        authority = ActorId(role=Role.HSA, id=authority_id, public_key=b"")
    return BlockHeader(
        height=height,
        prev_hash=prev_hash,
        merkle_root=merkle,
        authority_id=authority,
        block_time=block_time,
        authority_signature=signature,
    )


def block_bytes(block: Block) -> bytes:
    """The block's frame (Block.frame)."""
    return block.frame


def parse_block(data: bytes, registry: Registry) -> Block:
    """The block whose frame is data, which it keeps, with each record
    frame's layout checked and its offset noted."""
    data = bytes(data)
    r = Reader(data)
    header = read_header(r, {a.id: a for a in registry.authorities()})
    count = r.u32()
    if count > MAX_BLOCK_RECORDS:
        raise EncodingError(f"record count {count} exceeds block limit")
    offsets, r.pos = _walk_records(data, r.pos, count)
    r.done()
    return Block._parsed(header, data, offsets, registry.issuers())


def chain_bytes(state: ChainState) -> bytes:
    """Serialized full chain; byte equality means replica agreement."""
    return b"".join(block.frame for block in state.blocks)


def token_bytes(token: DhpToken) -> bytes:
    return token.header_hash + struct.pack(">I", token.record_index) + token.salt.value


def read_token(r: Reader) -> DhpToken:
    header, index, salt = r.take(32), r.u32(), Salt(r.take(16))
    return DhpToken(header_hash=header, record_index=index, salt=salt)


def parse_token(data: bytes) -> DhpToken:
    return Reader(data).finish(read_token)
