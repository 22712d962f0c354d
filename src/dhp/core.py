"""Domain types and canonical byte encodings shared by the whole consortium.

Everything that ends up under a signature or a commitment is encoded here,
once, with big-endian length-prefixed layouts and a version tag. The encodings
are normative: the crypto, ledger, and service layers all hash and sign these
exact bytes, so two independent deployments interoperate as long as they agree
on this module. Every frame a peer supplies is decoded through :class:`Reader`,
so a malformed byte ends in EncodingError and nothing else.

Holder names never appear in any of these structures; the only personal datum
is the machine-readable travel-document subset (number, country, expiry), and
that reaches the ledger only inside a salted commitment.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from functools import cached_property

SIGNING_TAG = b"DHPv1|"

DOC_EPOCH = date(1970, 1, 1)
# Each is used with fullmatch: a `$` would also match before a final newline.
_DOC_NUMBER_RE = re.compile(r"[A-Z0-9]{5,20}")
_COUNTRY_RE = re.compile(r"[A-Z]{3}")
_METHOD_RE = re.compile(r"\S+")

ACTOR_ID_LEN = 16
COMMITMENT_LEN = 32

class DhpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDocument(DhpError):
    """A travel document violates its field invariants."""


class EncodingError(DhpError):
    """A value cannot be represented in the canonical byte layout."""


_U16, _U32, _U64 = struct.Struct(">H"), struct.Struct(">I"), struct.Struct(">Q")


class Reader:
    """The one decoder of canonical frames: reads fields in order from the
    front of a frame. Every short read raises EncodingError, and so do
    trailing bytes once the frame is done."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        pos = self.pos
        if pos + n > len(self.data):
            raise EncodingError("frame truncated")
        self.pos = pos + n
        return self.data[pos:pos + n]

    def u8(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise EncodingError("frame truncated") from None
        self.pos += 1
        return value

    def unpack(self, fmt: struct.Struct) -> tuple:
        """The fields of one fixed-size layout, read in place."""
        try:
            values = fmt.unpack_from(self.data, self.pos)
        except struct.error:
            raise EncodingError("frame truncated") from None
        self.pos += fmt.size
        return values

    def u16(self) -> int:
        return self.unpack(_U16)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise EncodingError("trailing bytes after frame")

    def flag(self) -> bool:
        """A boolean byte, 0 or 1."""
        byte = self.u8()
        if byte > 1:
            raise EncodingError(f"non-canonical flag byte {byte:#04x}")
        return byte == 1

    def rest(self) -> bytes:
        return self.take(len(self.data) - self.pos)

    def finish(self, read, *args):
        """read(self, *args), which must consume the rest of the frame."""
        value = read(self, *args)
        self.done()
        return value


def as_enum(kind: type[Enum], value: int) -> Enum:
    """The member of an enum with this wire value."""
    try:
        return kind(value)
    except ValueError:
        raise EncodingError(f"unknown {kind.__name__} value {value}") from None


class Role(Enum):
    THF = 1       # testing health facility: tests people, signs credentials
    HSA = 2       # health service authority: the only block producer
    BM = 3        # read-only consortium member (airline, border control)
    CITIZEN = 4   # traveller, never a consortium member


@dataclass(frozen=True)
class TravelDocument:
    """Machine-readable subset of a travel document.

    doc_number: 5-20 uppercase alphanumerics; issuing_country: ISO 3166-1
    alpha-3; expiry: UTC calendar date on or after 1970-01-01. Invariants are
    enforced by :func:`canonical_doc_bytes`, the single funnel everything
    (commitments, registration, verification) goes through.
    """

    doc_number: str
    issuing_country: str
    expiry: date


@dataclass(frozen=True)
class TestMethod:
    """A diagnostic method identifier. Compared by exact byte equality."""

    __test__ = False  # keep pytest from collecting this as a test class

    code: str

    @classmethod
    def named(cls, code: str) -> "TestMethod":
        return cls(code=code)


@dataclass(frozen=True)
class ActorId:
    """Consortium identity: role, 16-byte id, and verification key bytes.

    The (role, id) pair is unique within a registry; the registry is the
    authoritative source for public_key during validation.
    """

    role: Role
    id: bytes
    public_key: bytes = b""

    def label(self) -> str:
        return f"{self.role.name}:{self.id.hex()[:8]}"


@dataclass(frozen=True)
class HealthPassport:
    """One signed on-ledger test credential.

    commitment hides the travel document (salted digest), result is True for
    risk-free, tested_at is UTC integer seconds, and issuer_signature covers
    exactly :func:`dhp_signing_bytes` of the other fields. ledger._record_at
    builds records decoded from a frame without __init__, storing these
    fields in this order; a field added here is added there too.
    """

    commitment: bytes
    result: bool
    tested_at: int
    method: TestMethod
    issuer_id: ActorId
    issuer_signature: bytes

    @cached_property
    def signing_bytes(self) -> bytes:
        """record_signing_bytes(self), kept in the instance dict, outside the
        fields: equality, hashing and repr ignore it, and
        dataclasses.replace builds a record with its own. A record parsed
        from a frame (ledger._record_at) carries the preimage taken from the
        frame's own bytes, which are its encoding whenever the method code is
        canonical; any other record encodes it on first use. An EncodingError
        is raised on every access, never cached."""
        return record_signing_bytes(self)


@dataclass(frozen=True)
class HygienePolicy:
    """A destination's entry conditions for test credentials.

    max_test_age is in hours and the window is inclusive: a test taken exactly
    max_test_age hours before the check passes. (The deployed reading of the
    common "tested at least 72 hours prior" phrasing is a recency requirement;
    a minimum-lead-time reading would need a different predicate.)
    """

    accepted_methods: frozenset[str]
    max_test_age: int
    require_risk_free: bool = True

    def __post_init__(self) -> None:
        if not self.accepted_methods:
            raise ValueError("accepted_methods must be non-empty")
        if self.max_test_age <= 0:
            raise ValueError("max_test_age must be positive")

    @property
    def max_age_seconds(self) -> int:
        return self.max_test_age * 3600


@dataclass(frozen=True)
class Registry:
    """The consortium key registry: every known actor, in file order.

    Replaces a CA hierarchy: attribution comes from (role, id) -> key lookups
    against this registry. HSA order defines the block-production rotation.
    """

    members: tuple[ActorId, ...]

    def authorities(self) -> tuple[ActorId, ...]:
        return tuple(m for m in self.members if m.role is Role.HSA)

    def issuers(self) -> dict[bytes, ActorId]:
        return {m.id: m for m in self.members if m.role is Role.THF}

    def get(self, role: Role, actor_id: bytes) -> ActorId | None:
        for m in self.members:
            if m.role is role and m.id == actor_id:
                return m
        return None

    def with_member(self, member: ActorId) -> "Registry":
        if self.get(member.role, member.id) is not None:
            raise ValueError(f"duplicate registry entry {member.label()}")
        return Registry(members=self.members + (member,))


def canonical_doc_bytes(doc: TravelDocument) -> bytes:
    """Encode a travel document as u16-BE length + number, country, u32-BE days.

    Injective over valid documents (number is length-prefixed, the other two
    fields are fixed width). Raises InvalidDocument on any invariant breach.
    """
    if not isinstance(doc.doc_number, str) or not _DOC_NUMBER_RE.fullmatch(doc.doc_number):
        raise InvalidDocument(f"bad document number {doc.doc_number!r}")
    if not isinstance(doc.issuing_country, str) or not _COUNTRY_RE.fullmatch(doc.issuing_country):
        raise InvalidDocument(f"bad issuing country {doc.issuing_country!r}")
    if not isinstance(doc.expiry, date):
        raise InvalidDocument(f"expiry must be a date, got {type(doc.expiry).__name__}")
    days = (doc.expiry - DOC_EPOCH).days
    if days < 0 or days > 0xFFFFFFFF:
        raise InvalidDocument(f"expiry {doc.expiry} out of encodable range")
    number = doc.doc_number.encode("ascii")
    return struct.pack(">H", len(number)) + number + doc.issuing_country.encode("ascii") + struct.pack(">I", days)


def read_doc(r: Reader) -> TravelDocument:
    """Inverse of canonical_doc_bytes; only valid documents decode."""
    number = r.take(r.u16()).decode("ascii", errors="replace")
    country = r.take(3).decode("ascii", errors="replace")
    days = r.u32()
    try:
        doc = TravelDocument(number, country, DOC_EPOCH + timedelta(days=days))
    except OverflowError:
        raise EncodingError(f"expiry day count {days} is past {date.max}") from None
    canonical_doc_bytes(doc)  # re-validate so only valid documents round-trip
    return doc


def parse_key_values(text: str, what: str) -> dict[str, str]:
    """Parse `key = value` lines; blank lines and `#` comments are skipped.

    Errors name the line as `<what> line N`. A repeated key is an error.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise EncodingError(f"{what} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise EncodingError(f"{what} line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def parse_u64(text: str, what: str) -> int:
    """A decimal integer from 0 to 2**64 - 1; anything else is an
    EncodingError naming what."""
    text = text.strip()
    if not (text.isascii() and text.isdecimal() and len(text) <= 20 and int(text) < 2**64):
        raise EncodingError(f"{what} must be an integer from 0 to 2**64 - 1, got {text!r}")
    return int(text)


def method_code_bytes(method: TestMethod) -> bytes:
    """Validate and encode a method code (non-empty, no whitespace, <= 255 bytes)."""
    if not isinstance(method.code, str) or not _METHOD_RE.fullmatch(method.code):
        raise EncodingError(f"bad method code {method.code!r}")
    code = method.code.encode("utf-8")
    if len(code) > 255:
        raise EncodingError("method code exceeds 255 bytes")
    return code


def dhp_signing_bytes(
    commitment: bytes,
    result: bool,
    tested_at: int,
    method: TestMethod,
    issuer_id: ActorId,
) -> bytes:
    """The signed preimage of a credential: tag, commitment, result byte,
    u64-BE timestamp, u8-length-prefixed method code, 16-byte issuer id."""
    if len(commitment) != COMMITMENT_LEN:
        raise EncodingError(f"commitment must be {COMMITMENT_LEN} bytes")
    if not 0 <= tested_at < 2**64:
        raise EncodingError(f"tested_at {tested_at} out of u64 range")
    if len(issuer_id.id) != ACTOR_ID_LEN:
        raise EncodingError(f"issuer id must be {ACTOR_ID_LEN} bytes")
    code = method_code_bytes(method)
    return b"".join(
        (
            SIGNING_TAG,
            commitment,
            b"\x01" if result else b"\x00",
            struct.pack(">Q", tested_at),
            bytes((len(code),)),
            code,
            issuer_id.id,
        )
    )


def record_signing_bytes(record: HealthPassport) -> bytes:
    return dhp_signing_bytes(
        record.commitment, record.result, record.tested_at, record.method, record.issuer_id
    )
