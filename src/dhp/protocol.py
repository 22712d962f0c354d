"""Actor-level flows: citizen registration, facility issuance, authority
registration, member verification against hygiene policies, and signed
verification receipts.

Verification is a fixed pipeline - locate by token, check the issuer is
registered, check the issuer signature, check the policy - and the reported
status is the first failure. A signed receipt is produced for every check,
success or not, so a member can later demonstrate it verified a whole
manifest (audit_manifest).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from enum import Enum
from random import Random

from .core import (
    ActorId,
    DhpError,
    EncodingError,
    HealthPassport,
    HygienePolicy,
    Registry,
    Role,
    TestMethod,
    TravelDocument,
    canonical_doc_bytes,
    dhp_signing_bytes,
)
from .crypto import KeyPair, Salt, commit, keygen, new_salt, sign, verify_sig
from .ledger import (
    ChainState,
    DhpToken,
    LookupStatus,
    append_block,
    header_hash,
    lookup_by_token,
    propose_block,
    record_bytes,
    parse_record,
)

RECEIPT_TAG = b"DHPR1|"

DEFAULT_MAX_TEST_AGE_HOURS = 72


class NotRiskFree(DhpError):
    """Facilities issue credentials only for risk-free results."""


class NotAuthorizedIssuer(DhpError):
    pass


class FutureTimestamp(DhpError):
    pass


class NotABlockchainMember(DhpError):
    pass


class BadReceiptSignature(DhpError):
    def __init__(self, index: int):
        super().__init__(f"receipt {index}: bad signature")
        self.index = index


class OutcomeStatus(Enum):
    VALID = 0
    NOT_FOUND = 1
    COMMITMENT_MISMATCH = 2
    BAD_ISSUER_SIGNATURE = 3
    UNKNOWN_ISSUER = 4
    POLICY_VIOLATION = 5


class ViolationReason(Enum):
    NOT_RISK_FREE = 1
    METHOD_NOT_ACCEPTED = 2
    TEST_TOO_OLD = 3
    TEST_IN_FUTURE = 4


@dataclass
class CitizenWallet:
    """Traveller-side state: the document, a wallet key, and earned tokens."""

    doc: TravelDocument
    wallet_key: KeyPair
    tokens: list[DhpToken] = field(default_factory=list)


@dataclass(frozen=True)
class PendingDhp:
    """A freshly issued credential awaiting registration; held transiently.

    The salt is what later lets the traveller's token open the commitment;
    it never reaches the chain itself.
    """

    record: HealthPassport
    salt: Salt
    thf_id: ActorId


@dataclass(frozen=True)
class VerificationOutcome:
    status: OutcomeStatus
    violation_reason: ViolationReason | None
    dhp_location: tuple[int, int] | None
    checked_at: int


@dataclass(frozen=True)
class VerificationReceipt:
    """Member-signed evidence that one verification was performed."""

    bm_id: ActorId
    token_header_hash: bytes
    record_index: int
    outcome_status: OutcomeStatus
    checked_at: int
    bm_signature: bytes


def register_citizen(doc: TravelDocument) -> CitizenWallet:
    """Create a wallet for a valid document: fresh key pair, no tokens yet."""
    canonical_doc_bytes(doc)  # raises InvalidDocument on bad fields
    return CitizenWallet(doc=doc, wallet_key=keygen(Role.CITIZEN))


def thf_issue(
    thf: KeyPair,
    doc: TravelDocument,
    result: bool,
    method: TestMethod,
    tested_at: int,
    now: int | None = None,
    rng: Random | None = None,
) -> PendingDhp:
    """Issue a signed credential for a risk-free test result.

    Draws a fresh salt, commits the document under it, and signs the canonical
    preimage. The returned bundle is what the facility submits to its
    authority; the salt stays with facility and traveller only.
    """
    if thf.owner.role is not Role.THF:
        raise NotAuthorizedIssuer(f"{thf.owner.label()} cannot issue credentials")
    if not result:
        raise NotRiskFree("credentials are issued only for risk-free results")
    if now is None:
        now = int(time.time())
    if tested_at > now:
        raise FutureTimestamp(f"tested_at {tested_at} is after now {now}")
    salt = new_salt(rng)
    commitment = commit(doc, salt)
    preimage = dhp_signing_bytes(commitment, result, tested_at, method, thf.owner)
    record = HealthPassport(
        commitment=commitment,
        result=result,
        tested_at=tested_at,
        method=method,
        issuer_id=thf.owner,
        issuer_signature=sign(thf, preimage),
    )
    return PendingDhp(record=record, salt=salt, thf_id=thf.owner)


def hsa_register(
    hsa: KeyPair,
    state: ChainState,
    pending: list[PendingDhp],
    now: int,
) -> tuple[ChainState, list[DhpToken]]:
    """Batch pending credentials into one block and mint traveller tokens.

    Tokens are order-aligned with the input list; their record_index points at
    the post-sort canonical position inside the block.
    """
    block = propose_block(state, [p.record for p in pending], hsa, now)
    new_state = append_block(state, block, now)
    block_hash = header_hash(block.header)
    position = {record.commitment: i for i, record in enumerate(block.records)}
    tokens = [
        DhpToken(
            header_hash=block_hash,
            record_index=position[p.record.commitment],
            salt=p.salt,
        )
        for p in pending
    ]
    return new_state, tokens


def check_policy(dhp: HealthPassport, policy: HygienePolicy, at: int) -> ViolationReason | None:
    """None iff the credential satisfies the policy at time `at`.

    The age window is inclusive: age == max_test_age passes.
    """
    if policy.require_risk_free and not dhp.result:
        return ViolationReason.NOT_RISK_FREE
    if dhp.method.code not in policy.accepted_methods:
        return ViolationReason.METHOD_NOT_ACCEPTED
    if dhp.tested_at > at:
        return ViolationReason.TEST_IN_FUTURE
    if at - dhp.tested_at > policy.max_age_seconds:
        return ViolationReason.TEST_TOO_OLD
    return None


def receipt_signing_bytes(
    bm_id: ActorId,
    token_header_hash: bytes,
    record_index: int,
    outcome_status: OutcomeStatus,
    checked_at: int,
) -> bytes:
    return b"".join(
        (
            RECEIPT_TAG,
            bm_id.id,
            token_header_hash,
            struct.pack(">I", record_index),
            bytes((outcome_status.value,)),
            struct.pack(">Q", checked_at),
        )
    )


def check_credential(
    state: ChainState,
    token: DhpToken,
    doc: TravelDocument,
    policy: HygienePolicy,
    at: int,
) -> VerificationOutcome:
    """Run the verification pipeline for one presented (token, document) pair.

    Locate by token, check the issuer is registered, check the issuer
    signature, check the policy; the status is the first failure. Signs
    nothing: bm_verify adds the member's receipt.
    """
    status = OutcomeStatus.VALID
    violation: ViolationReason | None = None
    found = lookup_by_token(state, token, doc)
    if found.status is LookupStatus.NOT_FOUND:
        status = OutcomeStatus.NOT_FOUND
    elif found.status is LookupStatus.COMMITMENT_MISMATCH:
        status = OutcomeStatus.COMMITMENT_MISMATCH
    else:
        record = found.record
        issuer = state.issuer_registry.get(record.issuer_id.id)
        if issuer is None:
            status = OutcomeStatus.UNKNOWN_ISSUER
        elif not _record_signature_ok(record, issuer):
            status = OutcomeStatus.BAD_ISSUER_SIGNATURE
        else:
            violation = check_policy(record, policy, at)
            if violation is not None:
                status = OutcomeStatus.POLICY_VIOLATION

    return VerificationOutcome(
        status=status,
        violation_reason=violation,
        dhp_location=found.location,
        checked_at=at,
    )


def bm_verify(
    bm: KeyPair,
    state: ChainState,
    token: DhpToken,
    doc: TravelDocument,
    policy: HygienePolicy,
    at: int,
) -> tuple[VerificationOutcome, VerificationReceipt]:
    """Verify one presented (token, document) pair against the chain.

    Read-only members only. Verification failures are outcomes, not errors,
    and every call emits a signed receipt carrying the outcome status.
    """
    if bm.owner.role is not Role.BM:
        raise NotABlockchainMember(f"{bm.owner.label()} is not a read-only member")
    outcome = check_credential(state, token, doc, policy, at)
    status = outcome.status
    preimage = receipt_signing_bytes(bm.owner, token.header_hash, token.record_index, status, at)
    receipt = VerificationReceipt(
        bm_id=bm.owner,
        token_header_hash=token.header_hash,
        record_index=token.record_index,
        outcome_status=status,
        checked_at=at,
        bm_signature=sign(bm, preimage),
    )
    return outcome, receipt


def _record_signature_ok(record: HealthPassport, issuer: ActorId) -> bool:
    try:
        preimage = record.signing_bytes
    except EncodingError:
        return False
    return verify_sig(issuer.public_key, preimage, record.issuer_signature)


def audit_manifest(
    receipts: list[VerificationReceipt],
    manifest: list[tuple[bytes, int]],
    registry: Registry | None = None,
) -> list[tuple[bytes, int]]:
    """Entries of the manifest not covered by any valid receipt (empty = ok).

    Every receipt signature is checked first; with a registry the signer must
    also be a registered read-only member, so a receipt re-signed under some
    other key never counts as coverage.
    """
    covered: set[tuple[bytes, int]] = set()
    for i, receipt in enumerate(receipts):
        key = receipt.bm_id.public_key
        if registry is not None:
            member = registry.get(Role.BM, receipt.bm_id.id)
            if member is None:
                raise BadReceiptSignature(i)
            key = member.public_key
        preimage = receipt_signing_bytes(
            receipt.bm_id,
            receipt.token_header_hash,
            receipt.record_index,
            receipt.outcome_status,
            receipt.checked_at,
        )
        if not verify_sig(key, preimage, receipt.bm_signature):
            raise BadReceiptSignature(i)
        covered.add((receipt.token_header_hash, receipt.record_index))
    return [entry for entry in manifest if entry not in covered]


# --- wire frames and config text --------------------------------------------


def pending_bytes(pending: PendingDhp) -> bytes:
    """Submission frame: record frame followed by the 16-byte salt."""
    return record_bytes(pending.record) + pending.salt.value


def parse_pending(data: bytes, issuers: dict[bytes, ActorId]) -> PendingDhp:
    if len(data) < 16:
        raise EncodingError("pending frame too short")
    record = parse_record(data[:-16], issuers)
    return PendingDhp(record=record, salt=Salt(data[-16:]), thf_id=record.issuer_id)


def receipt_frame_bytes(receipt: VerificationReceipt) -> bytes:
    preimage = receipt_signing_bytes(
        receipt.bm_id,
        receipt.token_header_hash,
        receipt.record_index,
        receipt.outcome_status,
        receipt.checked_at,
    )
    return preimage[len(RECEIPT_TAG):] + struct.pack(">H", len(receipt.bm_signature)) + receipt.bm_signature


def parse_receipt_frame(data: bytes, registry: Registry | None = None) -> VerificationReceipt:
    if len(data) < 16 + 32 + 4 + 1 + 8 + 2:
        raise EncodingError("receipt frame too short")
    bm_raw = data[:16]
    header = data[16:48]
    (index,) = struct.unpack_from(">I", data, 48)
    try:
        status = OutcomeStatus(data[52])
    except ValueError:
        raise EncodingError(f"unknown outcome status byte {data[52]:#04x}") from None
    (checked_at,) = struct.unpack_from(">Q", data, 53)
    (siglen,) = struct.unpack_from(">H", data, 61)
    signature = data[63:63 + siglen]
    if len(data) != 63 + siglen:
        raise EncodingError("trailing bytes after receipt frame")
    bm = None if registry is None else registry.get(Role.BM, bm_raw)
    bm_id = bm if bm is not None else ActorId(role=Role.BM, id=bm_raw, public_key=b"")
    return VerificationReceipt(
        bm_id=bm_id,
        token_header_hash=header,
        record_index=index,
        outcome_status=status,
        checked_at=checked_at,
        bm_signature=signature,
    )


def parse_policy(text: str) -> HygienePolicy:
    """Parse the key-value hygiene policy format.

    Keys: accepted_methods (comma-separated codes), max_test_age_hours
    (positive integer), require_risk_free (true/false, default true).
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise EncodingError(f"policy line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise EncodingError(f"policy line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()

    unknown = set(values) - {"accepted_methods", "max_test_age_hours", "require_risk_free"}
    if unknown:
        raise EncodingError(f"unknown policy keys: {sorted(unknown)}")
    try:
        methods = frozenset(
            m.strip() for m in values["accepted_methods"].split(",") if m.strip()
        )
        max_age = int(values["max_test_age_hours"])
    except KeyError as exc:
        raise EncodingError(f"policy missing key {exc.args[0]!r}") from None
    except ValueError:
        raise EncodingError("max_test_age_hours must be an integer") from None
    risk_free = values.get("require_risk_free", "true").lower()
    if risk_free not in ("true", "false"):
        raise EncodingError("require_risk_free must be true or false")
    try:
        return HygienePolicy(
            accepted_methods=methods,
            max_test_age=max_age,
            require_risk_free=risk_free == "true",
        )
    except ValueError as exc:
        raise EncodingError(str(exc)) from None


def format_policy(policy: HygienePolicy) -> str:
    return (
        f"accepted_methods = {','.join(sorted(policy.accepted_methods))}\n"
        f"max_test_age_hours = {policy.max_test_age}\n"
        f"require_risk_free = {'true' if policy.require_risk_free else 'false'}\n"
    )
