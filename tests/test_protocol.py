import hashlib
from dataclasses import replace
from random import Random

import pytest

import dhp.core
from dhp.core import (
    EncodingError,
    HygienePolicy,
    Role,
    TestMethod,
    TravelDocument,
    canonical_doc_bytes,
    record_signing_bytes,
)
from dhp.crypto import Salt, commit, sign, verify_sig
from dhp.ledger import Block, BlockError, DhpToken, InvalidBlock, block_bytes, header_hash, token_bytes
from dhp.protocol import (
    BadReceiptSignature,
    FutureTimestamp,
    NotABlockchainMember,
    NotAuthorizedIssuer,
    NotRiskFree,
    OutcomeStatus,
    ViolationReason,
    audit_manifest,
    bm_verify,
    check_credential,
    check_policy,
    hsa_register,
    parse_pending,
    parse_policy,
    parse_receipt_frame,
    pending_bytes,
    receipt_frame_bytes,
    receipt_signing_bytes,
    thf_issue,
)

from conftest import Consortium, make_doc, seeded_key
from datetime import date

T0 = 1_700_000_000
HOUR = 3600
POLICY_TEXT = "accepted_methods = RT-qPCR\nmax_test_age_hours = 72\nrequire_risk_free = true\n"
POLICY = parse_policy(POLICY_TEXT)


def issue_for(c, doc, i=0, tested_at=T0 + 60, thf=0, result=True):
    return thf_issue(c.thf_keys[thf], doc, result, c.method, tested_at, now=tested_at, rng=Random(i))


def issue_and_register(c, docs, tested_at=T0 + 60, now=T0 + 120):
    pendings = [issue_for(c, doc, i, tested_at) for i, doc in enumerate(docs)]
    state, tokens = hsa_register(c.hsa_keys[1], c.state, pendings, now)
    return state, tokens, pendings


# --- issuance -------------------------------------------------------------------


def test_thf_issue_round_trip(consortium):
    doc = make_doc(3)
    pending = issue_for(consortium, doc)
    record = pending.record
    assert verify_sig(
        consortium.thf_keys[0].public, record_signing_bytes(record), record.issuer_signature
    )
    assert commit(doc, pending.salt) == record.commitment
    assert pending.record.issuer_id == consortium.thf_keys[0].owner


def test_thf_issue_keeps_the_preimage_it_signed(consortium, monkeypatch):
    """The record's signing_bytes are the preimage its facility signed, so
    encoding and checking it builds no second one."""
    pending = issue_for(consortium, make_doc(3))
    preimage = record_signing_bytes(pending.record)

    def encoded_again(record):
        raise AssertionError("the preimage was encoded again")

    monkeypatch.setattr(dhp.core, "record_signing_bytes", encoded_again)
    assert pending.record.signing_bytes == preimage
    assert parse_pending(pending_bytes(pending), consortium.registry.issuers()) == pending


def test_thf_issue_refuses_risky_result(consortium):
    with pytest.raises(NotRiskFree):
        issue_for(consortium, make_doc(3), result=False)


def test_thf_issue_wrong_role(consortium):
    with pytest.raises(NotAuthorizedIssuer):
        thf_issue(consortium.bm_keys[0], make_doc(3), True, consortium.method, T0, now=T0)


def test_thf_issue_future_timestamp(consortium):
    with pytest.raises(FutureTimestamp):
        thf_issue(consortium.thf_keys[0], make_doc(3), True, consortium.method, T0 + 10, now=T0)


# --- registration ---------------------------------------------------------------


def test_hsa_register_round_trip(consortium):
    docs = [make_doc(i) for i in range(3)]
    state, tokens, pendings = issue_and_register(consortium, docs)
    assert len(state.blocks) == 2
    assert len(state.blocks[1].records) == 3
    assert len(tokens) == 3
    from dhp.ledger import LookupStatus, lookup_by_token

    for doc, token, pending in zip(docs, tokens, pendings):
        result = lookup_by_token(state, token, doc)
        assert result.status is LookupStatus.FOUND
        assert result.record == pending.record


def test_hsa_register_empty_batch(consortium):
    with pytest.raises(InvalidBlock) as err:
        hsa_register(consortium.hsa_keys[1], consortium.state, [], T0)
    assert err.value.error is BlockError.BAD_RECORD_COUNT


def test_hsa_register_tokens_map_to_post_sort_positions(consortium):
    pendings = [issue_for(consortium, make_doc(i), i) for i in range(6)]
    pendings.sort(key=lambda p: p.record.commitment, reverse=True)  # submit descending
    state, tokens = hsa_register(consortium.hsa_keys[1], consortium.state, pendings, T0 + 120)
    block = state.blocks[1]
    for pending, token in zip(pendings, tokens):
        assert block.records[token.record_index] == pending.record
    # descending submission order means the indices run backwards
    assert [t.record_index for t in tokens] == list(range(5, -1, -1))


# --- policy ---------------------------------------------------------------------


def record_tested_at(consortium, tested_at, method=None, result=True):
    method = method or consortium.method
    if result:
        pending = thf_issue(
            consortium.thf_keys[0], make_doc(0), True, method, tested_at, now=tested_at, rng=Random(1)
        )
        return pending.record
    # a risk-positive record cannot come out of issuance; build one directly
    salt = Salt(b"\x05" * 16)
    commitment = commit(make_doc(0), salt)
    thf = consortium.thf_keys[0]
    from dhp.core import dhp_signing_bytes, HealthPassport

    preimage = dhp_signing_bytes(commitment, False, tested_at, method, thf.owner)
    return HealthPassport(
        commitment=commitment,
        result=False,
        tested_at=tested_at,
        method=method,
        issuer_id=thf.owner,
        issuer_signature=sign(thf, preimage),
    )


def test_policy_fresh_test_within_window(consortium):
    record = record_tested_at(consortium, T0)
    assert check_policy(record, POLICY, T0 + 10 * HOUR) is None


def test_policy_inclusive_boundary(consortium):
    record = record_tested_at(consortium, T0)
    assert check_policy(record, POLICY, T0 + 72 * HOUR) is None
    assert check_policy(record, POLICY, T0 + 72 * HOUR + 1) is ViolationReason.TEST_TOO_OLD


def test_policy_future_test(consortium):
    record = record_tested_at(consortium, T0)
    assert check_policy(record, POLICY, T0 - 1) is ViolationReason.TEST_IN_FUTURE
    assert check_policy(record, POLICY, T0) is None


def test_policy_method_not_accepted(consortium):
    record = record_tested_at(consortium, T0, method=TestMethod.named("HOME-KIT"))
    assert check_policy(record, POLICY, T0 + HOUR) is ViolationReason.METHOD_NOT_ACCEPTED


def test_policy_risk_positive_record(consortium):
    record = record_tested_at(consortium, T0, result=False)
    assert check_policy(record, POLICY, T0 + HOUR) is ViolationReason.NOT_RISK_FREE
    lax = HygienePolicy(frozenset({"RT-qPCR"}), 72, require_risk_free=False)
    assert check_policy(record, lax, T0 + HOUR) is None


def test_policy_validation():
    with pytest.raises(ValueError):
        HygienePolicy(frozenset(), 72)
    with pytest.raises(ValueError):
        HygienePolicy(frozenset({"RT-qPCR"}), 0)


# --- verification ----------------------------------------------------------------


def test_bm_verify_happy_path(consortium):
    doc = make_doc(0)
    state, tokens, _ = issue_and_register(consortium, [doc])
    outcome, receipt = bm_verify(consortium.bm_keys[0], state, tokens[0], doc, POLICY, T0 + HOUR)
    assert outcome.status is OutcomeStatus.VALID
    assert outcome.violation_reason is None
    assert outcome.dhp_location == (1, 0)
    assert receipt.outcome_status is OutcomeStatus.VALID
    assert verify_sig(consortium.bm_keys[0].public, receipt_signing_bytes(receipt), receipt.bm_signature)


def test_bm_verify_non_transferable(consortium):
    state, tokens, _ = issue_and_register(consortium, [make_doc(0)])
    outcome, receipt = bm_verify(
        consortium.bm_keys[0], state, tokens[0], make_doc(999), POLICY, T0 + HOUR
    )
    assert outcome.status is OutcomeStatus.COMMITMENT_MISMATCH
    assert receipt.outcome_status is OutcomeStatus.COMMITMENT_MISMATCH
    assert outcome.dhp_location == (1, 0)  # located, just not opened


def test_bm_verify_stale_credential(consortium):
    doc = make_doc(0)
    at = T0 + 200 * HOUR
    state, tokens, _ = issue_and_register(
        consortium, [doc], tested_at=at - 73 * HOUR, now=at - 72 * HOUR
    )
    outcome, _ = bm_verify(consortium.bm_keys[0], state, tokens[0], doc, POLICY, at)
    assert outcome.status is OutcomeStatus.POLICY_VIOLATION
    assert outcome.violation_reason is ViolationReason.TEST_TOO_OLD


def test_bm_verify_unknown_token(consortium):
    doc = make_doc(0)
    state, tokens, _ = issue_and_register(consortium, [doc])
    ghost = DhpToken(b"\x99" * 32, 0, tokens[0].salt)
    outcome, receipt = bm_verify(consortium.bm_keys[0], state, ghost, doc, POLICY, T0 + HOUR)
    assert outcome.status is OutcomeStatus.NOT_FOUND
    assert outcome.dhp_location is None
    assert receipt.outcome_status is OutcomeStatus.NOT_FOUND


def test_bm_verify_requires_member_role(consortium):
    doc = make_doc(0)
    state, tokens, _ = issue_and_register(consortium, [doc])
    with pytest.raises(NotABlockchainMember):
        bm_verify(consortium.thf_keys[0], state, tokens[0], doc, POLICY, T0 + HOUR)


def test_bm_verify_unknown_issuer(consortium):
    doc = make_doc(0)
    state, tokens, _ = issue_and_register(consortium, [doc])
    orphaned = replace(state, issuer_registry={})
    outcome, _ = bm_verify(consortium.bm_keys[0], orphaned, tokens[0], doc, POLICY, T0 + HOUR)
    assert outcome.status is OutcomeStatus.UNKNOWN_ISSUER


def test_bm_verify_tampered_stored_record(consortium):
    doc = make_doc(0)
    state, tokens, _ = issue_and_register(consortium, [doc])
    block = state.blocks[1]
    record = block.records[0]
    bad_sig = bytearray(record.issuer_signature)
    bad_sig[7] ^= 0x40
    tampered = Block(block.header, (replace(record, issuer_signature=bytes(bad_sig)),))
    mutated = replace(state, blocks=(state.blocks[0], tampered))
    outcome, _ = bm_verify(consortium.bm_keys[0], mutated, tokens[0], doc, POLICY, T0 + HOUR)
    assert outcome.status is OutcomeStatus.BAD_ISSUER_SIGNATURE


def test_bm_verify_receipt_matches_outcome_in_all_scenarios(consortium):
    doc = make_doc(0)
    state, tokens, _ = issue_and_register(consortium, [doc])
    scenarios = [
        (tokens[0], doc, T0 + HOUR),
        (tokens[0], make_doc(5), T0 + HOUR),
        (DhpToken(b"\x01" * 32, 0, tokens[0].salt), doc, T0 + HOUR),
        (tokens[0], doc, T0 + 1000 * HOUR),
    ]
    for token, presented, at in scenarios:
        outcome, receipt = bm_verify(consortium.bm_keys[0], state, token, presented, POLICY, at)
        assert check_credential(state, token, presented, POLICY, at) == outcome
        assert receipt.outcome_status is outcome.status
        assert receipt.checked_at == outcome.checked_at == at


def test_verifiability_by_recomputation(consortium):
    docs = [make_doc(i) for i in range(5)]
    state, tokens, _ = issue_and_register(consortium, docs)
    at = T0 + 2 * HOUR
    for doc, token in zip(docs, tokens):
        outcome, _ = bm_verify(consortium.bm_keys[0], state, token, doc, POLICY, at)
        assert outcome.status is OutcomeStatus.VALID
        height, pos = outcome.dhp_location
        assert check_policy(state.blocks[height].records[pos], POLICY, at) is None


def test_attribution_exactly_one_issuer_key(consortium):
    c = Consortium(num_thf=4)
    docs = [make_doc(i) for i in range(8)]
    pendings = [issue_for(c, doc, i, thf=i % 4) for i, doc in enumerate(docs)]
    state, _ = hsa_register(c.hsa_keys[1], c.state, pendings, T0 + 120)
    members = [m for m in c.registry.members]
    for record in state.blocks[1].records:
        verifying = [
            m for m in members
            if verify_sig(m.public_key, record_signing_bytes(record), record.issuer_signature)
        ]
        assert len(verifying) == 1
        assert verifying[0].role is Role.THF
        assert verifying[0] == record.issuer_id


# --- privacy properties -----------------------------------------------------------


def test_unlinkability_two_credentials_same_document(consortium):
    doc = make_doc(42)
    p1 = issue_for(consortium, doc, 1)
    p2 = issue_for(consortium, doc, 2)
    assert p1.salt != p2.salt
    assert p1.record.commitment != p2.record.commitment
    state, tokens = hsa_register(consortium.hsa_keys[1], consortium.state, [p1, p2], T0 + 120)
    # A member holding one token cannot find the sibling by commitment equality.
    known = state.blocks[1].records[tokens[0].record_index].commitment
    matches = [
        (b.header.height, i)
        for b in state.blocks
        for i, r in enumerate(b.records)
        if r.commitment == known
    ]
    assert matches == [(1, tokens[0].record_index)]


def test_unexplorability_scan_without_salts(consortium):
    docs = [make_doc(i) for i in range(20)]
    state, tokens, _ = issue_and_register(consortium, docs)
    on_chain = {r.commitment for b in state.blocks for r in b.records}
    # Candidate strategies available to a curious verifier without salts:
    for doc in docs:
        doc_bytes = canonical_doc_bytes(doc)
        guesses = {
            commit(doc, Salt(b"\x00" * 16)),
            hashlib.sha256(doc_bytes).digest(),
            hashlib.sha256(b"DHPC1|" + doc_bytes).digest(),
        }
        assert not guesses & on_chain
    # With the disclosed salt, the designated record matches immediately.
    for doc, token in zip(docs, tokens):
        assert commit(doc, token.salt) in on_chain


def test_anonymity_no_output_carries_document_fields(consortium):
    doc = TravelDocument("QX7714321", "PRT", date(2031, 3, 2))
    state, tokens, pendings = issue_and_register(consortium, [doc])
    outcome, receipt = bm_verify(consortium.bm_keys[0], state, tokens[0], doc, POLICY, T0 + HOUR)
    needle = doc.doc_number.encode()
    for blob in (
        block_bytes(state.blocks[1]),
        token_bytes(tokens[0]),
        receipt_frame_bytes(receipt),
        repr(outcome).encode(),
        repr(receipt).encode(),
        repr(tokens[0]).encode(),
    ):
        assert needle not in blob


# --- receipts and audits -----------------------------------------------------------


def collect_receipts(consortium, state, tokens, docs, at=T0 + HOUR):
    receipts = []
    for token, doc in zip(tokens, docs):
        _, receipt = bm_verify(consortium.bm_keys[0], state, token, doc, POLICY, at)
        receipts.append(receipt)
    return receipts


def test_audit_manifest_full_coverage(consortium):
    docs = [make_doc(i) for i in range(4)]
    state, tokens, _ = issue_and_register(consortium, docs)
    receipts = collect_receipts(consortium, state, tokens, docs)
    manifest = [(t.header_hash, t.record_index) for t in tokens]
    assert audit_manifest(receipts, manifest, consortium.registry) == []


def test_audit_manifest_reports_missing(consortium):
    docs = [make_doc(i) for i in range(4)]
    state, tokens, _ = issue_and_register(consortium, docs)
    receipts = collect_receipts(consortium, state, tokens, docs)
    manifest = [(t.header_hash, t.record_index) for t in tokens]
    withheld = receipts[1:]
    assert audit_manifest(withheld, manifest, consortium.registry) == [manifest[0]]


def test_audit_manifest_detects_forged_receipt(consortium):
    docs = [make_doc(i) for i in range(2)]
    state, tokens, _ = issue_and_register(consortium, docs)
    receipts = collect_receipts(consortium, state, tokens, docs)
    outsider = seeded_key(Role.THF, "forger")
    forged = replace(receipts[1], bm_signature=sign(outsider, receipt_signing_bytes(receipts[1])))
    manifest = [(t.header_hash, t.record_index) for t in tokens]
    with pytest.raises(BadReceiptSignature) as err:
        audit_manifest([receipts[0], forged], manifest, consortium.registry)
    assert err.value.index == 1


def test_audit_manifest_registry_rejects_unregistered_member(consortium):
    docs = [make_doc(0)]
    state, tokens, _ = issue_and_register(consortium, docs)
    rogue_bm = seeded_key(Role.BM, "rogue")
    from dhp.protocol import VerificationReceipt

    unsigned = VerificationReceipt(
        bm_id=rogue_bm.owner,
        token_header_hash=tokens[0].header_hash,
        record_index=tokens[0].record_index,
        outcome_status=OutcomeStatus.VALID,
        checked_at=T0,
        bm_signature=b"",
    )
    rogue_receipt = replace(unsigned, bm_signature=sign(rogue_bm, receipt_signing_bytes(unsigned)))
    manifest = [(tokens[0].header_hash, tokens[0].record_index)]
    with pytest.raises(BadReceiptSignature):
        audit_manifest([rogue_receipt], manifest, consortium.registry)


def test_receipt_frame_round_trip(consortium):
    docs = [make_doc(0)]
    state, tokens, _ = issue_and_register(consortium, docs)
    receipts = collect_receipts(consortium, state, tokens, docs)
    frame = receipt_frame_bytes(receipts[0])
    parsed = parse_receipt_frame(frame, consortium.registry)
    assert parsed == receipts[0]
    with pytest.raises(EncodingError):
        parse_receipt_frame(frame + b"\x00", consortium.registry)


def test_pending_frame_round_trip(consortium):
    pending = issue_for(consortium, make_doc(0))
    parsed = parse_pending(pending_bytes(pending), consortium.state.issuer_registry)
    assert parsed == pending


# --- policy config ------------------------------------------------------------------


def test_policy_text_round_trip():
    assert POLICY == HygienePolicy(frozenset({"RT-qPCR"}), max_test_age=72, require_risk_free=True)


def test_policy_parse_defaults_and_comments():
    policy = parse_policy("# entry rules\naccepted_methods = RT-qPCR, LAMP\nmax_test_age_hours = 48\n")
    assert policy.accepted_methods == frozenset({"RT-qPCR", "LAMP"})
    assert policy.max_test_age == 48
    assert policy.require_risk_free is True


@pytest.mark.parametrize(
    "text",
    [
        "max_test_age_hours = 72\n",                                   # methods missing
        "accepted_methods = RT-qPCR\n",                                # age missing
        "accepted_methods = RT-qPCR\nmax_test_age_hours = zero\n",     # not an int
        "accepted_methods = RT-qPCR\nmax_test_age_hours = 0\n",        # non-positive
        "accepted_methods =\nmax_test_age_hours = 72\n",               # empty set
        "accepted_methods = X\nmax_test_age_hours = 1\nwhat = no\n",   # unknown key
        "accepted_methods = X\nmax_test_age_hours = 1\nrequire_risk_free = maybe\n",
    ],
)
def test_policy_parse_errors(text):
    with pytest.raises(EncodingError):
        parse_policy(text)
