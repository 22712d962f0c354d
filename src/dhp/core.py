"""Domain types and canonical byte encodings shared by the whole consortium.

Everything that ends up under a signature or a commitment is encoded here,
once, with big-endian length-prefixed layouts and a version tag. The encodings
are normative: the crypto, ledger, and service layers all hash and sign these
exact bytes, so two independent deployments interoperate as long as they agree
on this module.

Holder names never appear in any of these structures; the only personal datum
is the machine-readable travel-document subset (number, country, expiry), and
that reaches the ledger only inside a salted commitment.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from functools import cached_property

SIGNING_TAG = b"DHPv1|"

DOC_EPOCH = date(1970, 1, 1)
_DOC_NUMBER_RE = re.compile(r"^[A-Z0-9]{5,20}$")
_COUNTRY_RE = re.compile(r"^[A-Z]{3}$")
_METHOD_RE = re.compile(r"^\S+$")

ACTOR_ID_LEN = 16
COMMITMENT_LEN = 32

#: Test-method codes the consortium registry recognises out of the box.
KNOWN_METHOD_CODES = frozenset({"RT-qPCR"})


class DhpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDocument(DhpError):
    """A travel document violates its field invariants."""


class EncodingError(DhpError):
    """A value cannot be represented in the canonical byte layout."""


class Role(Enum):
    THF = 1       # testing health facility: tests people, signs credentials
    HSA = 2       # health service authority: the only block producer
    BM = 3        # read-only consortium member (airline, border control)
    CITIZEN = 4   # traveller-side wallet key, never a consortium member

    @classmethod
    def from_byte(cls, value: int) -> "Role":
        try:
            return cls(value)
        except ValueError:
            raise EncodingError(f"unknown role byte {value!r}") from None


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
    registry_known: bool = True

    @classmethod
    def named(cls, code: str) -> "TestMethod":
        return cls(code=code, registry_known=code in KNOWN_METHOD_CODES)


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
    exactly :func:`dhp_signing_bytes` of the other fields.
    """

    commitment: bytes
    result: bool
    tested_at: int
    method: TestMethod
    issuer_id: ActorId
    issuer_signature: bytes

    @cached_property
    def signing_bytes(self) -> bytes:
        """record_signing_bytes(self), encoded on first use and kept in the
        instance dict, outside the fields: equality, hashing and repr ignore
        it, dataclasses.replace builds a record with its own, and an
        EncodingError is raised on every access, never cached."""
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
    if not isinstance(doc.doc_number, str) or not _DOC_NUMBER_RE.match(doc.doc_number):
        raise InvalidDocument(f"bad document number {doc.doc_number!r}")
    if not isinstance(doc.issuing_country, str) or not _COUNTRY_RE.match(doc.issuing_country):
        raise InvalidDocument(f"bad issuing country {doc.issuing_country!r}")
    if not isinstance(doc.expiry, date):
        raise InvalidDocument(f"expiry must be a date, got {type(doc.expiry).__name__}")
    days = (doc.expiry - DOC_EPOCH).days
    if days < 0 or days > 0xFFFFFFFF:
        raise InvalidDocument(f"expiry {doc.expiry} out of encodable range")
    number = doc.doc_number.encode("ascii")
    return struct.pack(">H", len(number)) + number + doc.issuing_country.encode("ascii") + struct.pack(">I", days)


def decode_doc_bytes(data: bytes) -> TravelDocument:
    """Inverse of canonical_doc_bytes; strict (rejects trailing bytes)."""
    if len(data) < 2:
        raise EncodingError("document frame too short")
    (n,) = struct.unpack_from(">H", data, 0)
    if len(data) != 2 + n + 3 + 4:
        raise EncodingError("document frame length mismatch")
    number = data[2:2 + n].decode("ascii", errors="replace")
    country = data[2 + n:2 + n + 3].decode("ascii", errors="replace")
    (days,) = struct.unpack_from(">I", data, 2 + n + 3)
    doc = TravelDocument(number, country, DOC_EPOCH + timedelta(days=days))
    canonical_doc_bytes(doc)  # re-validate so only valid documents round-trip
    return doc


def method_code_bytes(method: TestMethod) -> bytes:
    """Validate and encode a method code (non-empty, no whitespace, <= 255 bytes)."""
    if not isinstance(method.code, str) or not _METHOD_RE.match(method.code):
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
