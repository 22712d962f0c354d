"""Actor-level flows: facility issuance, authority registration, member
verification against hygiene policies, and signed verification receipts.

Verification is a fixed pipeline - locate by token, check the issuer is
registered, check the issuer signature, check the policy - and the reported
status is the first failure. A signed receipt is produced for every check,
success or not, so a member can later demonstrate it verified a whole
manifest (audit_manifest).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from random import Random

from .core import (
    ActorId,
    DhpError,
    EncodingError,
    HealthPassport,
    HygienePolicy,
    Reader,
    Registry,
    Role,
    TestMethod,
    TravelDocument,
    as_enum,
    dhp_signing_bytes,
    parse_key_values,
)
from .crypto import KeyPair, Salt, commit, new_salt, sign, verify_sig
from .ledger import (
    BlockError,
    ChainState,
    DhpToken,
    LookupStatus,
    append_block,
    check_issuer,
    header_hash,
    lookup_by_token,
    propose_block,
    read_record,
    record_bytes,
)

RECEIPT_TAG = b"DHPR1|"


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


@dataclass(frozen=True)
class PendingDhp:
    """A freshly issued credential awaiting registration; held transiently.

    The salt is what later lets the traveller's token open the commitment;
    it never reaches the chain itself.
    """

    record: HealthPassport
    salt: Salt


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

    @cached_property
    def signing_bytes(self) -> bytes:
        """receipt_signing_bytes(self), kept in the instance dict as
        HealthPassport.signing_bytes is: bm_verify stores the preimage it
        signed, and any other receipt encodes it on first use."""
        return receipt_signing_bytes(self)


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
    record.__dict__["signing_bytes"] = preimage  # as a record decoded from a frame keeps the frame's
    return PendingDhp(record=record, salt=salt)


def hsa_register(
    hsa: KeyPair,
    state: ChainState,
    pending: list[PendingDhp],
    now: int,
) -> tuple[ChainState, list[DhpToken]]:
    """Batch pending credentials into one block, append it, and mint
    traveller tokens; the block is the returned state's tip.

    Tokens are order-aligned with the input list; their record_index points at
    the post-sort canonical position inside the block. The append raises
    InvalidBlock with the first block rule the batch breaks (see ledger).
    """
    block = propose_block(state, [p.record for p in pending], hsa, now)
    new_state = append_block(state, block, now)
    block_hash = header_hash(block.header)
    position = {record.commitment: i for i, record in enumerate(block.records)}
    return new_state, [DhpToken(block_hash, position[p.record.commitment], p.salt) for p in pending]


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


def receipt_signing_bytes(receipt: VerificationReceipt) -> bytes:
    """Canonical receipt preimage, excluding the member signature."""
    return b"".join(
        (
            RECEIPT_TAG,
            receipt.bm_id.id,
            receipt.token_header_hash,
            struct.pack(">I", receipt.record_index),
            bytes((receipt.outcome_status.value,)),
            struct.pack(">Q", receipt.checked_at),
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

    Locate by token and open the commitment (lookup_by_token), check the
    issuer is registered, check the issuer signature, check the policy; the
    status is the first failure. Signs nothing: bm_verify adds the member's
    receipt.
    """
    status = OutcomeStatus.VALID
    violation: ViolationReason | None = None
    found = lookup_by_token(state, token, doc)
    if found.status is LookupStatus.NOT_FOUND:
        status = OutcomeStatus.NOT_FOUND
    elif found.status is LookupStatus.COMMITMENT_MISMATCH:
        status = OutcomeStatus.COMMITMENT_MISMATCH
    else:
        error = check_issuer(state, found.record)
        if error is BlockError.UNKNOWN_ISSUER:
            status = OutcomeStatus.UNKNOWN_ISSUER
        elif error is not None:
            status = OutcomeStatus.BAD_ISSUER_SIGNATURE
        else:
            violation = check_policy(found.record, policy, at)
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
    receipt = VerificationReceipt(
        bm_id=bm.owner,
        token_header_hash=token.header_hash,
        record_index=token.record_index,
        outcome_status=outcome.status,
        checked_at=at,
        bm_signature=b"",
    )
    # Signed in place before it leaves here: one receipt and one preimage,
    # which it keeps for its frame.
    preimage = receipt.signing_bytes
    object.__setattr__(receipt, "bm_signature", sign(bm, preimage))
    return outcome, receipt


def audit_manifest(
    receipts: list[VerificationReceipt],
    manifest: list[tuple[bytes, int]],
    registry: Registry,
) -> list[tuple[bytes, int]]:
    """Entries of the manifest not covered by any valid receipt (empty = ok).

    Every receipt must carry a valid signature under the registered key of a
    read-only member, so a receipt signed by any other key never counts as
    coverage.
    """
    covered: set[tuple[bytes, int]] = set()
    for i, receipt in enumerate(receipts):
        member = registry.get(Role.BM, receipt.bm_id.id)
        if member is None:
            raise BadReceiptSignature(i)
        if not verify_sig(member.public_key, receipt.signing_bytes, receipt.bm_signature):
            raise BadReceiptSignature(i)
        covered.add((receipt.token_header_hash, receipt.record_index))
    return [entry for entry in manifest if entry not in covered]


# --- wire frames and config text --------------------------------------------


def pending_bytes(pending: PendingDhp) -> bytes:
    """Submission frame: record frame followed by the 16-byte salt."""
    return record_bytes(pending.record) + pending.salt.value


def read_pending(r: Reader, issuers: dict[bytes, ActorId]) -> PendingDhp:
    record = read_record(r, issuers)
    return PendingDhp(record=record, salt=Salt(r.take(16)))


def parse_pending(data: bytes, issuers: dict[bytes, ActorId]) -> PendingDhp:
    return Reader(data).finish(read_pending, issuers)


def receipt_frame_bytes(receipt: VerificationReceipt) -> bytes:
    """Receipt frame: the preimage without its tag, then the u16-length-prefixed signature."""
    signature = receipt.bm_signature
    return receipt.signing_bytes[len(RECEIPT_TAG):] + struct.pack(">H", len(signature)) + signature


def read_receipt(r: Reader, registry: Registry) -> VerificationReceipt:
    bm_id, header, index = r.take(16), r.take(32), r.u32()
    status, checked_at, signature = as_enum(OutcomeStatus, r.u8()), r.u64(), r.take(r.u16())
    return VerificationReceipt(
        bm_id=registry.get(Role.BM, bm_id) or ActorId(role=Role.BM, id=bm_id, public_key=b""),
        token_header_hash=header,
        record_index=index,
        outcome_status=status,
        checked_at=checked_at,
        bm_signature=signature,
    )


def parse_receipt_frame(data: bytes, registry: Registry) -> VerificationReceipt:
    return Reader(data).finish(read_receipt, registry)


def parse_policy(text: str) -> HygienePolicy:
    """Parse the key-value hygiene policy format.

    Keys: accepted_methods (comma-separated codes), max_test_age_hours
    (positive integer), require_risk_free (true/false, default true).
    """
    values = parse_key_values(text, "policy")
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
