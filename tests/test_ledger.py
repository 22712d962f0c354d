import hashlib
from dataclasses import replace
from random import Random

import pytest

from dhp.core import EncodingError, Role, TestMethod, record_signing_bytes
from dhp.crypto import Salt, sign
from dhp.ledger import (
    Block,
    BlockError,
    ChainState,
    DhpToken,
    EmptyAuthoritySet,
    EmptyBatch,
    InvalidBlock,
    InvalidPendingRecord,
    LookupStatus,
    NoValidCandidate,
    NotScheduled,
    append_block,
    block_bytes,
    chain_bytes,
    fork_choice,
    header_bytes,
    header_hash,
    header_signing_bytes,
    lookup_by_token,
    merkle_root,
    parse_block,
    parse_header,
    parse_record,
    parse_token,
    propose_block,
    record_bytes,
    scheduled_authority,
    token_bytes,
    validate_block,
)
from dhp.protocol import thf_issue
from dhp.storage import BlockLog, replay_block_log

from conftest import Consortium, make_doc, seeded_key

# Reference-run golden for the deterministic test consortium's genesis header.
GENESIS_HASH = "f3eaf0275908d931f1c813beea49a971a5455ec74ac99549da051e18b3d438db"

T0 = 1_700_000_000


def issue(c: Consortium, i: int, thf=0, tested_at=T0 + 60, rng_seed=0):
    return thf_issue(
        c.thf_keys[thf], make_doc(i), True, c.method,
        tested_at=tested_at, now=tested_at, rng=Random(rng_seed * 100_003 + i),
    )


def build_block(c: Consortium, state, count=2, now=T0 + 120, hsa=None, start=0):
    if hsa is None:
        hsa = c.hsa_keys[len(state.blocks) % len(c.hsa_keys)]
    pendings = [issue(c, start + i) for i in range(count)]
    return propose_block(state, [p.record for p in pendings], hsa, now), pendings


def resign(block: Block, hsa) -> Block:
    header = replace(block.header, authority_signature=b"")
    signature = sign(hsa, header_signing_bytes(header))
    return Block(header=replace(header, authority_signature=signature), records=block.records)


# --- merkle ------------------------------------------------------------------


def test_merkle_empty_is_defined_constant():
    assert merkle_root(()) == hashlib.sha256(b"EMPTY|").digest()


def test_merkle_single_record_is_leaf(consortium):
    p = issue(consortium, 0)
    leaf = hashlib.sha256(
        b"LEAF|" + record_signing_bytes(p.record) + p.record.issuer_signature
    ).digest()
    assert merkle_root((p.record,)) == leaf
    assert p.record.signing_bytes == record_signing_bytes(p.record)
    later = replace(p.record, tested_at=p.record.tested_at + 1)
    assert later.signing_bytes == record_signing_bytes(later) != p.record.signing_bytes


def test_merkle_two_records_hand_composed(consortium):
    a, b = issue(consortium, 1), issue(consortium, 2)
    leaves = [
        hashlib.sha256(b"LEAF|" + record_signing_bytes(p.record) + p.record.issuer_signature).digest()
        for p in (a, b)
    ]
    assert merkle_root((a.record, b.record)) == hashlib.sha256(b"NODE|" + leaves[0] + leaves[1]).digest()


def test_merkle_odd_layer_duplicates_last(consortium):
    records = tuple(issue(consortium, i).record for i in range(3))
    leaves = [
        hashlib.sha256(b"LEAF|" + record_signing_bytes(r) + r.issuer_signature).digest()
        for r in records
    ]
    n01 = hashlib.sha256(b"NODE|" + leaves[0] + leaves[1]).digest()
    n22 = hashlib.sha256(b"NODE|" + leaves[2] + leaves[2]).digest()
    assert merkle_root(records) == hashlib.sha256(b"NODE|" + n01 + n22).digest()


# --- header hashing ----------------------------------------------------------


def test_header_hash_deterministic(consortium):
    header = consortium.state.tip.header
    assert header_hash(header) == header_hash(header)


def test_header_hash_varies_with_height(consortium):
    header = consortium.state.tip.header
    assert header_hash(header) != header_hash(replace(header, height=1))


def test_genesis_golden_vector(consortium):
    assert header_hash(consortium.state.tip.header).hex() == GENESIS_HASH


def test_genesis_requires_authorities(consortium):
    from dhp.core import Registry

    with pytest.raises(EmptyAuthoritySet):
        ChainState.genesis(Registry(members=tuple(k.owner for k in consortium.thf_keys)))


# --- scheduling --------------------------------------------------------------


def test_scheduled_authority_round_robin():
    c = Consortium(num_hsa=3)
    assert scheduled_authority(0, c.state.authority_set) == c.hsa_keys[0].owner
    assert scheduled_authority(5, c.state.authority_set) == c.hsa_keys[2].owner
    single = Consortium(num_hsa=1)
    assert scheduled_authority(7, single.state.authority_set) == single.hsa_keys[0].owner


def test_scheduled_authority_empty_set():
    with pytest.raises(EmptyAuthoritySet):
        scheduled_authority(0, ())


# --- propose -----------------------------------------------------------------


def test_propose_on_genesis_tip_validates(consortium):
    block, _ = build_block(consortium, consortium.state, count=1)
    assert block.header.height == 1
    assert validate_block(consortium.state, block, now=T0 + 200) is None


def test_propose_not_scheduled(consortium):
    wrong = consortium.hsa_keys[0]  # height 1 belongs to hsa_keys[1]
    with pytest.raises(NotScheduled):
        propose_block(consortium.state, [issue(consortium, 0).record], wrong, T0 + 120)


def test_propose_rejects_non_hsa_key(consortium):
    with pytest.raises(NotScheduled):
        propose_block(consortium.state, [issue(consortium, 0).record], consortium.bm_keys[0], T0 + 120)


def test_propose_empty_batch(consortium):
    with pytest.raises(EmptyBatch):
        propose_block(consortium.state, [], consortium.hsa_keys[1], T0 + 120)


def test_propose_rejects_tampered_record(consortium):
    good = issue(consortium, 0).record
    bad_sig = bytearray(good.issuer_signature)
    bad_sig[0] ^= 0x01
    bad = replace(good, issuer_signature=bytes(bad_sig))
    with pytest.raises(InvalidPendingRecord) as err:
        propose_block(consortium.state, [good, bad], consortium.hsa_keys[1], T0 + 120)
    assert err.value.index == 1


def test_propose_rejects_unknown_issuer(consortium):
    stranger = seeded_key(Role.THF, "not-registered")
    pending = thf_issue(stranger, make_doc(0), True, consortium.method, T0, now=T0, rng=Random(0))
    with pytest.raises(InvalidPendingRecord):
        propose_block(consortium.state, [pending.record], consortium.hsa_keys[1], T0 + 120)


def test_propose_dedupes_identical_and_rejects_on_chain_duplicates(consortium):
    pending = issue(consortium, 0)
    block = propose_block(
        consortium.state, [pending.record, pending.record], consortium.hsa_keys[1], T0 + 120
    )
    assert len(block.records) == 1
    state = append_block(consortium.state, block, T0 + 120)
    with pytest.raises(InvalidPendingRecord):
        propose_block(state, [pending.record], consortium.hsa_keys[0], T0 + 180)


def test_propose_sorts_records_canonically(consortium):
    block, _ = build_block(consortium, consortium.state, count=5)
    commitments = [r.commitment for r in block.records]
    assert commitments == sorted(commitments)


def test_propose_rejects_oversized_batch(consortium):
    from dhp.ledger import OversizedBatch

    records = [issue(consortium, i).record for i in range(4)]
    with pytest.raises(OversizedBatch):
        propose_block(consortium.state, records, consortium.hsa_keys[1], T0 + 120, max_records=3)


# --- validate ----------------------------------------------------------------


def test_validate_errors_in_precedence_order(consortium):
    c = consortium
    state = c.state
    block, _ = build_block(c, state, count=2)
    hsa = c.hsa_keys[1]

    assert validate_block(state, block, T0 + 200) is None

    wrong_height = resign(Block(replace(block.header, height=7), block.records), hsa)
    assert validate_block(state, wrong_height, T0 + 200) is BlockError.WRONG_HEIGHT

    bad_prev = resign(Block(replace(block.header, prev_hash=b"\x01" * 32), block.records), hsa)
    assert validate_block(state, bad_prev, T0 + 200) is BlockError.BAD_PREV_HASH

    # signed by a read-only member's key: never the scheduled authority
    bm = c.bm_keys[0]
    bm_signed = resign(Block(replace(block.header, authority_id=bm.owner), block.records), bm)
    assert validate_block(state, bm_signed, T0 + 200) is BlockError.WRONG_AUTHORITY

    not_scheduled = resign(
        Block(replace(block.header, authority_id=c.hsa_keys[0].owner), block.records), c.hsa_keys[0]
    )
    assert validate_block(state, not_scheduled, T0 + 200) is BlockError.WRONG_AUTHORITY

    forged_sig = Block(replace(block.header, authority_signature=b"\x00" * 64), block.records)
    assert validate_block(state, forged_sig, T0 + 200) is BlockError.BAD_AUTHORITY_SIG

    empty = resign(
        Block(replace(block.header, merkle_root=merkle_root(())), records=()), hsa
    )
    assert validate_block(state, empty, T0 + 200) is BlockError.BAD_RECORD_COUNT

    zeroed_root = resign(Block(replace(block.header, merkle_root=b"\x00" * 32), block.records), hsa)
    assert validate_block(state, zeroed_root, T0 + 200) is BlockError.BAD_MERKLE_ROOT

    stranger = seeded_key(Role.THF, "ghost")
    ghost = thf_issue(stranger, make_doc(9), True, c.method, T0, now=T0, rng=Random(5)).record
    records = tuple(sorted(block.records + (ghost,), key=lambda r: r.commitment))
    unknown = resign(
        Block(replace(block.header, merkle_root=merkle_root(records)), records), hsa
    )
    assert validate_block(state, unknown, T0 + 200) is BlockError.UNKNOWN_ISSUER

    flipped = bytearray(block.records[0].issuer_signature)
    flipped[3] ^= 0x10
    records = (replace(block.records[0], issuer_signature=bytes(flipped)),) + block.records[1:]
    bad_record = resign(
        Block(replace(block.header, merkle_root=merkle_root(records)), records), hsa
    )
    assert validate_block(state, bad_record, T0 + 200) is BlockError.BAD_RECORD_SIG

    # a method code with no signed encoding: refused again on the next call
    records = (replace(block.records[0], method=TestMethod("RT qPCR")),) + block.records[1:]
    unencodable = Block(block.header, records)
    for _ in range(2):
        assert validate_block(state, unencodable, T0 + 200) is BlockError.BAD_RECORD_SIG

    swapped = (block.records[1], block.records[0])
    out_of_order = resign(
        Block(replace(block.header, merkle_root=merkle_root(swapped)), swapped), hsa
    )
    assert validate_block(state, out_of_order, T0 + 200) is BlockError.BAD_ORDERING

    too_early = resign(Block(replace(block.header, block_time=T0 - 1), block.records), hsa)
    assert validate_block(state, too_early, T0 + 200) is BlockError.BAD_TIMESTAMP

    too_late = resign(Block(replace(block.header, block_time=T0 + 10_000), block.records), hsa)
    assert validate_block(state, too_late, T0 + 200, clock_skew=300) is BlockError.BAD_TIMESTAMP

    # record tested after its block was sealed (plus skew)
    backdated = thf_issue(
        c.thf_keys[0], make_doc(55), True, c.method,
        tested_at=T0 + 9_000, now=T0 + 9_000, rng=Random(55),
    ).record
    records = tuple(sorted(block.records + (backdated,), key=lambda r: r.commitment))
    time_travel = resign(
        Block(replace(block.header, merkle_root=merkle_root(records)), records), hsa
    )
    assert validate_block(state, time_travel, T0 + 200) is BlockError.BAD_TIMESTAMP


def test_propose_rejects_future_tested_at(consortium):
    record = thf_issue(
        consortium.thf_keys[0], make_doc(56), True, consortium.method,
        tested_at=T0 + 9_000, now=T0 + 9_000, rng=Random(56),
    ).record
    with pytest.raises(InvalidPendingRecord):
        propose_block(consortium.state, [record], consortium.hsa_keys[1], T0 + 120)


def test_validate_reports_first_failure_only(consortium):
    block, _ = build_block(consortium, consortium.state, count=2)
    mutated = resign(
        Block(
            replace(block.header, height=9, merkle_root=b"\x00" * 32, block_time=0),
            block.records,
        ),
        consortium.hsa_keys[1],
    )
    assert validate_block(consortium.state, mutated, T0 + 200) is BlockError.WRONG_HEIGHT


def test_block_time_exactly_at_skew_passes(consortium):
    block, _ = build_block(consortium, consortium.state, count=1, now=T0 + 500)
    assert validate_block(consortium.state, block, now=T0 + 200, clock_skew=300) is None


# --- append / chain invariants -------------------------------------------------


def test_append_then_lookup(consortium):
    block, pendings = build_block(consortium, consortium.state, count=3)
    state = append_block(consortium.state, block, T0 + 200)
    for p in pendings:
        height, pos = state.index[p.record.commitment]
        assert state.blocks[height].records[pos] == p.record


def test_append_invalid_block_leaves_state_unchanged(consortium):
    block, _ = build_block(consortium, consortium.state, count=1)
    bad = Block(replace(block.header, authority_signature=b"\x00" * 64), block.records)
    before = chain_bytes(consortium.state)
    with pytest.raises(InvalidBlock) as err:
        append_block(consortium.state, bad, T0 + 200)
    assert err.value.error is BlockError.BAD_AUTHORITY_SIG
    assert chain_bytes(consortium.state) == before


def grow_chain(c: Consortium, blocks: int, per_block: int = 2):
    state = c.state
    serial = 0
    for k in range(blocks):
        hsa = c.hsa_keys[len(state.blocks) % len(c.hsa_keys)]
        pendings = [issue(c, serial + i) for i in range(per_block)]
        serial += per_block
        now = T0 + 60 * (k + 2)
        block = propose_block(state, [p.record for p in pendings], hsa, now)
        state = append_block(state, block, now)
    return state


def test_hundred_appends_revalidate_at_every_prefix(consortium, tmp_path):
    state = grow_chain(consortium, 100, per_block=1)
    assert len(state.blocks) == 101
    for k in (1, 2, 10, 50, 101):
        prefix = state.blocks[:k]
        for i in range(1, len(prefix)):
            assert prefix[i].header.prev_hash == header_hash(prefix[i - 1].header)
    log = BlockLog(tmp_path / "blocks.log")
    for block in state.blocks[1:]:
        log.append(block)
    replayed, torn = replay_block_log(log.path, consortium.registry, T0 + 100_000, strict=True,
                                      genesis_time=consortium.genesis_time)
    assert torn is None
    assert header_hash(replayed.tip.header) == header_hash(state.tip.header)
    assert replayed.index == state.index
    assert replayed.header_index == state.header_index


def test_immutability_of_earlier_blocks(consortium):
    block1, _ = build_block(consortium, consortium.state, count=2)
    state = append_block(consortium.state, block1, T0 + 120)
    frozen = block_bytes(state.blocks[1])
    for k in range(20):
        block, _ = build_block(consortium, state, count=1, now=T0 + 300 + 60 * k, start=100 + k)
        state = append_block(state, block, T0 + 300 + 60 * k)
    assert block_bytes(state.blocks[1]) == frozen


def test_index_soundness_and_completeness(consortium):
    state = grow_chain(consortium, 12, per_block=3)
    for commitment, (height, pos) in state.index.items():
        assert state.blocks[height].records[pos].commitment == commitment
    on_chain = [r.commitment for b in state.blocks for r in b.records]
    assert sorted(on_chain) == sorted(state.index.keys())


def test_authority_exclusivity_property(consortium):
    rng = Random(99)
    state = consortium.state
    actors = consortium.thf_keys + consortium.bm_keys + [seeded_key(Role.CITIZEN, "c0")]
    for trial in range(25):
        forger = rng.choice(actors)
        pending = issue(consortium, 1000 + trial)
        sched = scheduled_authority(len(state.blocks), state.authority_set)
        header_fields = dict(
            height=len(state.blocks),
            prev_hash=header_hash(state.tip.header),
            merkle_root=merkle_root((pending.record,)),
            block_time=T0 + 500,
            authority_signature=b"",
        )
        from dhp.ledger import BlockHeader

        forged_header = BlockHeader(authority_id=forger.owner, **header_fields)
        forged = Block(
            header=replace(
                forged_header,
                authority_signature=sign(forger, header_signing_bytes(forged_header)),
            ),
            records=(pending.record,),
        )
        assert validate_block(state, forged, T0 + 600) is not None
        # even claiming the scheduled authority's identity fails on the signature
        masquerade_header = BlockHeader(authority_id=sched, **header_fields)
        masquerade = Block(
            header=replace(
                masquerade_header,
                authority_signature=sign(forger, header_signing_bytes(masquerade_header)),
            ),
            records=(pending.record,),
        )
        assert validate_block(state, masquerade, T0 + 600) is BlockError.BAD_AUTHORITY_SIG


# --- lookup ------------------------------------------------------------------


def test_lookup_round_trip(consortium):
    block, pendings = build_block(consortium, consortium.state, count=2)
    state = append_block(consortium.state, block, T0 + 200)
    p = pendings[0]
    pos = [r.commitment for r in block.records].index(p.record.commitment)
    token = DhpToken(header_hash(block.header), pos, p.salt)
    result = lookup_by_token(state, token, make_doc(0))
    assert result.status is LookupStatus.FOUND
    assert result.record == p.record
    assert result.location == (1, pos)


def test_lookup_wrong_document(consortium):
    block, pendings = build_block(consortium, consortium.state, count=1)
    state = append_block(consortium.state, block, T0 + 200)
    token = DhpToken(header_hash(block.header), 0, pendings[0].salt)
    assert lookup_by_token(state, token, make_doc(777)).status is LookupStatus.COMMITMENT_MISMATCH


def test_lookup_unknown_header_and_bad_index(consortium):
    block, pendings = build_block(consortium, consortium.state, count=1)
    state = append_block(consortium.state, block, T0 + 200)
    ghost = DhpToken(b"\xab" * 32, 0, pendings[0].salt)
    assert lookup_by_token(state, ghost, make_doc(0)).status is LookupStatus.NOT_FOUND
    oob = DhpToken(header_hash(block.header), 5, pendings[0].salt)
    assert lookup_by_token(state, oob, make_doc(0)).status is LookupStatus.NOT_FOUND


# --- fork choice ---------------------------------------------------------------


def test_fork_choice_prefers_longer(consortium):
    short = grow_chain(consortium, 3)
    long = grow_chain(consortium, 5)
    assert fork_choice([short, long]) is long
    assert fork_choice([long, short]) is long


def test_fork_choice_single_candidate(consortium):
    assert fork_choice([consortium.state]) is consortium.state


def test_fork_choice_empty():
    with pytest.raises(NoValidCandidate):
        fork_choice([])


def test_fork_choice_tie_break_and_permutation_invariance():
    # same length, different tips: two consortia diverge after genesis
    rng = Random(3)
    chains = []
    for tag in ("one", "two", "three"):
        c = Consortium()
        state = c.state
        pending = thf_issue(
            c.thf_keys[0], make_doc(hash(tag) % 1000), True, c.method,
            T0 + 30, now=T0 + 30, rng=Random(len(tag)),
        )
        block = propose_block(state, [pending.record], c.hsa_keys[1], T0 + 60)
        chains.append(append_block(state, block, T0 + 60))
    expected = min(chains, key=lambda s: header_hash(s.tip.header))
    for _ in range(10):
        shuffled = chains[:]
        rng.shuffle(shuffled)
        assert fork_choice(shuffled) is expected


# --- serialization -------------------------------------------------------------


def test_record_frame_round_trip(consortium):
    record = issue(consortium, 5).record
    parsed = parse_record(record_bytes(record), consortium.state.issuer_registry)
    assert parsed == record
    # the preimage kept on one of two equal records changes neither equality nor hash
    assert record.signing_bytes
    assert parsed == record and hash(parsed) == hash(record) and repr(parsed) == repr(record)


def test_record_frame_strictness(consortium):
    record = issue(consortium, 5).record
    data = bytearray(record_bytes(record))
    with pytest.raises(EncodingError):
        parse_record(bytes(data) + b"\x00", consortium.state.issuer_registry)
    data[32] = 0x03  # non-canonical result byte
    with pytest.raises(EncodingError):
        parse_record(bytes(data), consortium.state.issuer_registry)


def test_header_and_block_frame_round_trip(consortium):
    block, _ = build_block(consortium, consortium.state, count=3)
    authorities = {a.id: a for a in consortium.state.authority_set}
    assert parse_header(header_bytes(block.header), authorities) == block.header
    assert parse_block(block_bytes(block), consortium.registry) == block


def test_token_frame_round_trip():
    token = DhpToken(b"\x0a" * 32, 42, Salt(b"\x0b" * 16))
    assert parse_token(token_bytes(token)) == token
    with pytest.raises(EncodingError):
        parse_token(token_bytes(token) + b"\x01")
    with pytest.raises(EncodingError):
        parse_token(token_bytes(token)[:-1])
