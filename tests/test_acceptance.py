"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test carries a `criterion` marker; the terminal summary prints one
PASS/FAIL line per criterion at the end of the run.
"""

import struct
import time
from dataclasses import replace
from random import Random

import pytest

from dhp.cli import main as cli_main
from dhp.core import HygienePolicy, Reader
from dhp.crypto import Salt, commit
from dhp.ledger import (
    Block,
    append_block,
    header_hash,
    propose_block,
    read_record,
    record_bytes,
)
from dhp.netsim import (
    Partition,
    PartitionInterval,
    SimConfig,
    UniformBounded,
    check_theta_liveness,
    run_simulation,
)
from dhp.protocol import (
    OutcomeStatus,
    ViolationReason,
    audit_manifest,
    bm_verify,
    hsa_register,
    thf_issue,
)
from dhp.storage import BlockLog, save_registry, write_genesis_time

from conftest import Consortium, make_doc

HOUR = 3600
T0 = 1_700_000_000
POLICY = HygienePolicy(frozenset({"RT-qPCR"}), max_test_age=72)


@pytest.fixture(scope="module")
def large_chain():
    """1000 credentials on-chain across 10 blocks, with wallets and tokens."""
    c = Consortium(num_hsa=3, num_thf=5, num_bm=2)
    state = c.state
    docs, tokens = [], []
    serial = 0
    for k in range(10):
        batch = []
        for _ in range(100):
            doc = make_doc(serial)
            docs.append(doc)
            batch.append(
                thf_issue(c.thf_keys[serial % 5], doc, True, c.method,
                          tested_at=T0, now=T0, rng=Random(serial))
            )
            serial += 1
        hsa = c.hsa_keys[len(state.blocks) % 3]
        state, minted = hsa_register(hsa, state, batch, T0 + 60 * (k + 1))
        tokens.extend(minted)
    return c, state, docs, tokens


@pytest.mark.criterion(1, "end-to-end: 200 credentials across 3 HSAs / 5 THFs / 2 BMs all verify Valid in < 10 s")
def test_criterion_1_end_to_end():
    started = time.monotonic()
    c = Consortium(num_hsa=3, num_thf=5, num_bm=2)
    state = c.state
    travellers = [(make_doc(i), []) for i in range(200)]  # (document, tokens) pairs
    issued = []
    for i, (doc, held) in enumerate(travellers):
        issued.append(
            (held, thf_issue(c.thf_keys[i % 5], doc, True, c.method,
                             tested_at=T0 + i, now=T0 + i, rng=Random(i)))
        )
    for start in range(0, 200, 40):  # five batches, authorities rotating
        chunk = issued[start:start + 40]
        hsa = c.hsa_keys[len(state.blocks) % 3]
        state, tokens = hsa_register(hsa, state, [p for _, p in chunk], T0 + 1000 + start)
        for (held, _), token in zip(chunk, tokens):
            held.append(token)
    at = T0 + 12 * HOUR
    for i, (doc, held) in enumerate(travellers):
        bm = c.bm_keys[i % 2]
        outcome, receipt = bm_verify(bm, state, held[0], doc, POLICY, at)
        assert outcome.status is OutcomeStatus.VALID
        assert receipt.outcome_status is OutcomeStatus.VALID
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"end-to-end scenario took {elapsed:.1f}s"


@pytest.mark.criterion(2, "theta-liveness: 100 seeded runs, UniformBounded(2), theta = 3 + |authorities|, no loss or duplication")
def test_criterion_2_theta_liveness_suite():
    num_hsa = 3
    theta = 3 + num_hsa
    for seed in range(100):
        config = SimConfig(
            rng_seed=seed, num_hsa=num_hsa, num_bm=2, rounds=25, submission_rate=1,
            delay_model=UniformBounded(2), theta=theta,
        )
        report = run_simulation(config)
        violations = check_theta_liveness(report, theta)
        assert not violations, f"seed {seed}: {violations[:3]}"
        assert report.lost == 0 and report.duplicated == 0, f"seed {seed}"
        assert report.included == report.submitted


@pytest.mark.criterion(3, "consistency: 100 seeded runs with healing partitions all converge; members agree on every token")
def test_criterion_3_consistency_suite():
    rounds = 20
    for seed in range(100):
        rng = Random(1000 + seed)
        nodes = ["hsa-0", "hsa-1", "hsa-2", "bm-0", "bm-1"]
        intervals = []
        for _ in range(rng.choice((1, 2))):
            start = rng.randint(2, rounds - 6)
            length = rng.randint(1, 5)
            intervals.append(PartitionInterval(rng.choice(nodes), start, min(start + length, rounds)))
        config = SimConfig(
            rng_seed=seed, num_hsa=3, num_bm=2, rounds=rounds, submission_rate=1,
            delay_model=Partition(tuple(intervals)),
        )
        report = run_simulation(config)
        # report.consistent covers byte-identical chains AND bm_verify
        # agreement across all nodes for every token issued during the run
        assert report.consistent, f"seed {seed} ({intervals})"
        assert report.lost == 0 and report.duplicated == 0, f"seed {seed}"


def _mutate_and_verify(c, state, token, doc, record_pos, bit):
    """Flip one bit of a stored record frame; reparse and verify. Returns the
    outcome status, or None when the mutated frame no longer parses (an
    unreadable record can never verify)."""
    height = state.header_index[token.header_hash]
    block = state.blocks[height]
    frame = bytearray(record_bytes(block.records[record_pos]))
    frame[bit // 8] ^= 1 << (bit % 8)
    try:
        mutated = Reader(bytes(frame)).finish(read_record, state.issuer_registry)
    except Exception:
        return None
    records = list(block.records)
    records[record_pos] = mutated
    blocks = list(state.blocks)
    blocks[height] = Block(block.header, tuple(records))
    tampered = replace(state, blocks=tuple(blocks))
    outcome, _ = bm_verify(c.bm_keys[0], tampered, token, doc, POLICY, T0 + HOUR)
    return outcome.status


@pytest.mark.criterion(4, "unforgeability: every single-bit flip of one record is non-Valid; 10^4 sampled flips over 1000 records yield zero Valid")
def test_criterion_4_unforgeability(large_chain):
    c, state, docs, tokens = large_chain

    target = 17
    token, doc = tokens[target], docs[target]
    frame_bits = len(record_bytes(
        state.blocks[state.header_index[token.header_hash]].records[token.record_index]
    )) * 8
    valid_outcomes = 0
    for bit in range(frame_bits):
        status = _mutate_and_verify(c, state, token, doc, token.record_index, bit)
        if status is OutcomeStatus.VALID:
            valid_outcomes += 1
    assert valid_outcomes == 0, f"{valid_outcomes}/{frame_bits} flips verified as Valid"

    rng = Random(4)
    for _ in range(10_000):
        i = rng.randrange(len(tokens))
        token, doc = tokens[i], docs[i]
        frame_len = len(record_bytes(
            state.blocks[state.header_index[token.header_hash]].records[token.record_index]
        ))
        bit = rng.randrange(frame_len * 8)
        status = _mutate_and_verify(c, state, token, doc, token.record_index, bit)
        assert status is not OutcomeStatus.VALID, (i, bit)


@pytest.mark.criterion(5, "unlinkability/unexplorability: saltless scans with 100 known documents match 0/1000 commitments; the disclosed salt matches its record")
def test_criterion_5_unlinkability_unexplorability(large_chain):
    import hashlib

    from dhp.core import canonical_doc_bytes

    c, state, docs, tokens = large_chain
    on_chain = {r.commitment for b in state.blocks for r in b.records}
    assert len(on_chain) == 1000

    matches = 0
    for doc in docs[:100]:
        doc_bytes = canonical_doc_bytes(doc)
        guesses = {
            commit(doc, Salt(b"\x00" * 16)),
            commit(doc, Salt(b"\xff" * 16)),
            hashlib.sha256(doc_bytes).digest(),
            hashlib.sha256(b"DHPC1|" + doc_bytes).digest(),
        }
        matches += len(guesses & on_chain)
    assert matches == 0

    for doc, token in zip(docs, tokens):
        record = state.blocks[state.header_index[token.header_hash]].records[token.record_index]
        assert commit(doc, token.salt) == record.commitment


@pytest.mark.criterion(6, "non-transferability: 1000 random (token, wrong document) pairings all return CommitmentMismatch")
def test_criterion_6_non_transferability(large_chain):
    c, state, docs, tokens = large_chain
    rng = Random(6)
    for _ in range(1000):
        i = rng.randrange(len(tokens))
        j = rng.randrange(len(docs))
        while j == i:
            j = rng.randrange(len(docs))
        outcome, _ = bm_verify(c.bm_keys[1], state, tokens[i], docs[j], POLICY, T0 + HOUR)
        assert outcome.status is OutcomeStatus.COMMITMENT_MISMATCH, (i, j)


@pytest.mark.criterion(7, "policy boundary: exactly 72 h old is Valid, 72 h + 1 s is PolicyViolation/TestTooOld")
def test_criterion_7_policy_boundary():
    c = Consortium()
    doc = make_doc(7)
    pending = thf_issue(c.thf_keys[0], doc, True, c.method, tested_at=T0, now=T0, rng=Random(7))
    state, tokens = hsa_register(c.hsa_keys[1], c.state, [pending], T0 + 60)
    at_boundary = T0 + 72 * HOUR
    outcome, _ = bm_verify(c.bm_keys[0], state, tokens[0], doc, POLICY, at_boundary)
    assert outcome.status is OutcomeStatus.VALID
    outcome, _ = bm_verify(c.bm_keys[0], state, tokens[0], doc, POLICY, at_boundary + 1)
    assert outcome.status is OutcomeStatus.POLICY_VIOLATION
    assert outcome.violation_reason is ViolationReason.TEST_TOO_OLD


@pytest.mark.criterion(8, "immutability/recovery: audit passes over 10 restart+append cycles; any injected byte flip fails with a frame-accurate offset")
def test_criterion_8_immutability_and_recovery(tmp_path, capsys):
    c = Consortium(num_hsa=2)
    data_dir = tmp_path / "node"
    data_dir.mkdir()
    save_registry(data_dir / "registry.txt", c.registry)
    write_genesis_time(data_dir, c.genesis_time)

    serial = 0
    state = c.state
    for cycle in range(10):  # each cycle: fresh process-level handle, recover, append
        log = BlockLog(data_dir / "blocks.log")
        recovered = log.recover(c.registry, T0 + 10_000, genesis_time=c.genesis_time)
        assert len(recovered.blocks) == len(state.blocks)
        pending = [
            thf_issue(c.thf_keys[i % 2], make_doc(8000 + serial + i), True, c.method,
                      tested_at=T0 + serial, now=T0 + serial, rng=Random(serial + i))
            for i in range(2)
        ]
        serial += 2
        hsa = c.hsa_keys[len(recovered.blocks) % 2]
        now = T0 + 60 * (cycle + 1)
        block = propose_block(recovered, [p.record for p in pending], hsa, now)
        state = append_block(recovered, block, now)
        log.append(block)
        assert cli_main(["chain", "audit", "--data-dir", str(data_dir)]) == 0
        capsys.readouterr()

    pristine = (data_dir / "blocks.log").read_bytes()
    offsets = []
    pos = 5
    while pos < len(pristine):
        offsets.append(pos)
        (n,) = struct.unpack_from(">I", pristine, pos)
        pos += 4 + n
    rng = Random(8)
    flips = [(rng.randrange(5, len(pristine)), 1 << rng.randrange(8)) for _ in range(25)]
    # and one inside a record's method code, which then is no longer UTF-8
    flips.append((pristine.index(c.method.code.encode(), offsets[5]), 0x80))
    for byte_pos, mask in flips:
        mutated = bytearray(pristine)
        mutated[byte_pos] ^= mask
        (data_dir / "blocks.log").write_bytes(bytes(mutated))
        assert cli_main(["chain", "audit", "--data-dir", str(data_dir)]) == 2
        err = capsys.readouterr().err
        frame_start = max(o for o in offsets if o <= byte_pos)
        assert f"offset {frame_start}" in err, (byte_pos, err)
    (data_dir / "blocks.log").write_bytes(pristine)
    assert cli_main(["chain", "audit", "--data-dir", str(data_dir)]) == 0


@pytest.mark.criterion(9, "audit: a 50-traveller manifest reports exactly the k withheld receipts for k in {0, 1, 5}")
def test_criterion_9_manifest_audit():
    c = Consortium()
    docs = [make_doc(900 + i) for i in range(50)]
    pendings = [
        thf_issue(c.thf_keys[i % 2], doc, True, c.method, tested_at=T0, now=T0, rng=Random(i))
        for i, doc in enumerate(docs)
    ]
    state, tokens = hsa_register(c.hsa_keys[1], c.state, pendings, T0 + 60)
    receipts = []
    for token, doc in zip(tokens, docs):
        _, receipt = bm_verify(c.bm_keys[0], state, token, doc, POLICY, T0 + HOUR)
        receipts.append(receipt)
    manifest = [(t.header_hash, t.record_index) for t in tokens]
    rng = Random(9)
    for k in (0, 1, 5):
        withheld = set(rng.sample(range(50), k))
        presented = [r for i, r in enumerate(receipts) if i not in withheld]
        missing = audit_manifest(presented, manifest, c.registry)
        assert sorted(missing) == sorted(manifest[i] for i in withheld)
