import hashlib
import struct
import sys
import threading
from dataclasses import replace
from random import Random

import pytest

from dhp.core import SIGNING_TAG, ActorId, EncodingError, Reader, Registry, Role, TestMethod, record_signing_bytes
from dhp.crypto import Salt, sign
from dhp.ledger import (
    CLOCK_SKEW_SECONDS,
    LEAF_TAG,
    MAX_BLOCK_RECORDS,
    Block,
    BlockError,
    BlockHeader,
    ChainState,
    DhpToken,
    EmptyAuthoritySet,
    InvalidBlock,
    LookupStatus,
    admit,
    append_block,
    block_bytes,
    chain_bytes,
    header_bytes,
    header_hash,
    header_signing_bytes,
    lookup_by_token,
    merkle_root,
    record_leaf,
    parse_block,
    parse_token,
    propose_block,
    read_header,
    read_record,
    record_bytes,
    scheduled_authority,
    token_bytes,
    validate_block,
)
from dhp.protocol import thf_issue
from dhp.storage import BLOCK_LOG_MAGIC, LOG_VERSION, BlockLog, CorruptLog, replay_block_log

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
    assert merkle_root(map(record_leaf, (p.record,))) == leaf
    assert p.record.signing_bytes == record_signing_bytes(p.record)
    later = replace(p.record, tested_at=p.record.tested_at + 1)
    assert later.signing_bytes == record_signing_bytes(later) != p.record.signing_bytes


def test_merkle_two_records_hand_composed(consortium):
    a, b = issue(consortium, 1), issue(consortium, 2)
    leaves = [
        hashlib.sha256(b"LEAF|" + record_signing_bytes(p.record) + p.record.issuer_signature).digest()
        for p in (a, b)
    ]
    root = merkle_root(map(record_leaf, (a.record, b.record)))
    assert root == hashlib.sha256(b"NODE|" + leaves[0] + leaves[1]).digest()


def test_merkle_odd_layer_duplicates_last(consortium):
    records = tuple(issue(consortium, i).record for i in range(3))
    leaves = [
        hashlib.sha256(b"LEAF|" + record_signing_bytes(r) + r.issuer_signature).digest()
        for r in records
    ]
    n01 = hashlib.sha256(b"NODE|" + leaves[0] + leaves[1]).digest()
    n22 = hashlib.sha256(b"NODE|" + leaves[2] + leaves[2]).digest()
    assert merkle_root(map(record_leaf, records)) == hashlib.sha256(b"NODE|" + n01 + n22).digest()


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


def refusal(state, records, hsa, now=T0 + 120) -> BlockError:
    """The error append_block raises for the block proposed over records."""
    with pytest.raises(InvalidBlock) as err:
        append_block(state, propose_block(state, records, hsa, now), now)
    return err.value.error


def test_propose_not_scheduled(consortium):
    wrong = consortium.hsa_keys[0]  # height 1 belongs to hsa_keys[1]
    assert refusal(consortium.state, [issue(consortium, 0).record], wrong) is BlockError.WRONG_AUTHORITY


def test_propose_rejects_non_hsa_key(consortium):
    bm = consortium.bm_keys[0]
    assert refusal(consortium.state, [issue(consortium, 0).record], bm) is BlockError.WRONG_AUTHORITY


def test_propose_empty_batch(consortium):
    assert refusal(consortium.state, [], consortium.hsa_keys[1]) is BlockError.BAD_RECORD_COUNT


def test_propose_rejects_tampered_record(consortium):
    good = issue(consortium, 0).record
    bad_sig = bytearray(good.issuer_signature)
    bad_sig[0] ^= 0x01
    bad = replace(good, issuer_signature=bytes(bad_sig))
    assert admit(consortium.state, good, T0 + 120) is None
    assert admit(consortium.state, bad, T0 + 120) is BlockError.BAD_RECORD_SIG
    # a record that was not admitted still cannot be proposed onto the chain
    block = propose_block(consortium.state, [bad], consortium.hsa_keys[1], T0 + 120)
    with pytest.raises(InvalidBlock) as err:
        append_block(consortium.state, block, T0 + 120)
    assert err.value.error is BlockError.BAD_RECORD_SIG


def test_propose_rejects_unknown_issuer(consortium):
    stranger = seeded_key(Role.THF, "not-registered")
    pending = thf_issue(stranger, make_doc(0), True, consortium.method, T0, now=T0, rng=Random(0))
    assert admit(consortium.state, pending.record, T0 + 120) is BlockError.UNKNOWN_ISSUER


def test_propose_refuses_repeats_in_batch_and_on_chain(consortium):
    pending = issue(consortium, 0)
    twice = [pending.record, pending.record]
    assert refusal(consortium.state, twice, consortium.hsa_keys[1]) is BlockError.BAD_ORDERING
    block = propose_block(consortium.state, [pending.record], consortium.hsa_keys[1], T0 + 120)
    state = append_block(consortium.state, block, T0 + 120)
    again = [pending.record, issue(consortium, 1).record]
    assert refusal(state, again, consortium.hsa_keys[0], T0 + 180) is BlockError.DUPLICATE_RECORD


def test_propose_sorts_records_canonically(consortium):
    block, _ = build_block(consortium, consortium.state, count=5)
    commitments = [r.commitment for r in block.records]
    assert commitments == sorted(commitments)


def test_propose_rejects_oversized_batch(consortium):
    records = [issue(consortium, i).record for i in range(MAX_BLOCK_RECORDS + 1)]
    assert refusal(consortium.state, records, consortium.hsa_keys[1]) is BlockError.BAD_RECORD_COUNT


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
        Block(replace(block.header, merkle_root=merkle_root(map(record_leaf, records))), records), hsa
    )
    assert validate_block(state, unknown, T0 + 200) is BlockError.UNKNOWN_ISSUER

    flipped = bytearray(block.records[0].issuer_signature)
    flipped[3] ^= 0x10
    records = (replace(block.records[0], issuer_signature=bytes(flipped)),) + block.records[1:]
    bad_record = resign(
        Block(replace(block.header, merkle_root=merkle_root(map(record_leaf, records))), records), hsa
    )
    assert validate_block(state, bad_record, T0 + 200) is BlockError.BAD_RECORD_SIG

    # a method code with no signed encoding: refused again on the next call
    records = (replace(block.records[0], method=TestMethod("RT qPCR")),) + block.records[1:]
    unencodable = Block(block.header, records)
    for _ in range(2):
        assert validate_block(state, unencodable, T0 + 200) is BlockError.BAD_RECORD_SIG

    swapped = (block.records[1], block.records[0])
    out_of_order = resign(
        Block(replace(block.header, merkle_root=merkle_root(map(record_leaf, swapped))), swapped), hsa
    )
    assert validate_block(state, out_of_order, T0 + 200) is BlockError.BAD_ORDERING

    # block 2 repeats a credential block 1 holds: refused even when it is also
    # too early, but out of order is reported first
    held = append_block(state, block, T0 + 200)
    fresh = issue(c, 60).record
    records = tuple(sorted((block.records[0], fresh), key=lambda r: r.commitment))
    repeat = propose_block(held, list(records), c.hsa_keys[0], T0 + 200)
    assert validate_block(held, repeat, T0 + 200) is BlockError.DUPLICATE_RECORD
    early_repeat = resign(Block(replace(repeat.header, block_time=T0 - 1), records), c.hsa_keys[0])
    assert validate_block(held, early_repeat, T0 + 200) is BlockError.DUPLICATE_RECORD
    unordered_repeat = resign(
        Block(replace(repeat.header, merkle_root=merkle_root(map(record_leaf, records[::-1]))), records[::-1]),
        c.hsa_keys[0],
    )
    assert validate_block(held, unordered_repeat, T0 + 200) is BlockError.BAD_ORDERING

    too_early = resign(Block(replace(block.header, block_time=T0 - 1), block.records), hsa)
    assert validate_block(state, too_early, T0 + 200) is BlockError.BAD_TIMESTAMP

    too_late = resign(Block(replace(block.header, block_time=T0 + 10_000), block.records), hsa)
    assert validate_block(state, too_late, T0 + 200) is BlockError.BAD_TIMESTAMP

    # record tested after its block was sealed (plus skew)
    latest = block.header.block_time + CLOCK_SKEW_SECONDS
    late = BlockError.BAD_TIMESTAMP
    for tested_at, error in ((latest, None), (latest + 1, late), (T0 + 9_000, late)):
        backdated = thf_issue(
            c.thf_keys[0], make_doc(55), True, c.method,
            tested_at=tested_at, now=tested_at, rng=Random(55),
        ).record
        records = tuple(sorted(block.records + (backdated,), key=lambda r: r.commitment))
        time_travel = resign(
            Block(replace(block.header, merkle_root=merkle_root(map(record_leaf, records))), records), hsa
        )
        assert validate_block(state, time_travel, T0 + 200) is error, tested_at


def test_the_first_record_to_break_an_issuer_rule_names_the_error(consortium):
    """Of a record with a forged signature and one from an unregistered
    facility, whichever comes first in the block decides between
    BadRecordSig and UnknownIssuer."""
    c = consortium
    header = build_block(c, c.state, count=1)[0].header
    stranger = seeded_key(Role.THF, "ghost")
    ghost = thf_issue(stranger, make_doc(9), True, c.method, T0, now=T0, rng=Random(5)).record
    records = [replace(issue(c, i).record, issuer_signature=bytes(64)) for i in range(50, 70)]
    forged_before = next(r for r in records if r.commitment < ghost.commitment)
    forged_after = next(r for r in records if r.commitment > ghost.commitment)
    for pair, error in (
        ((forged_before, ghost), BlockError.BAD_RECORD_SIG),
        ((ghost, forged_after), BlockError.UNKNOWN_ISSUER),
    ):
        block = resign(Block(replace(header, merkle_root=merkle_root(map(record_leaf, pair))), pair), c.hsa_keys[1])
        assert validate_block(c.state, block, T0 + 200) is error


def test_propose_rejects_future_tested_at(consortium):
    record = thf_issue(
        consortium.thf_keys[0], make_doc(56), True, consortium.method,
        tested_at=T0 + 9_000, now=T0 + 9_000, rng=Random(56),
    ).record
    assert admit(consortium.state, record, T0 + 120) is BlockError.BAD_TIMESTAMP
    assert admit(consortium.state, record, T0 + 9_000 - 300) is None  # within the skew


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
    assert validate_block(consortium.state, block, now=T0 + 200) is None


# --- append / chain invariants -------------------------------------------------


def test_append_then_lookup(consortium):
    block, pendings = build_block(consortium, consortium.state, count=3)
    state = append_block(consortium.state, block, T0 + 200)
    for p in pendings:
        height, pos = state.locate(p.record.commitment)
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


# --- snapshots: the states of one chain share their indexes ----------------------


def token_of(block: Block, pending) -> DhpToken:
    pos = [r.commitment for r in block.records].index(pending.record.commitment)
    return DhpToken(header_hash(block.header), pos, pending.salt)


def test_a_held_state_answers_as_before_after_two_later_appends(consortium):
    """A state taken before two appends finds no token of either later block,
    and takes a block at its own next height that repeats a later block's
    credential: no DuplicateRecord."""
    c = consortium
    block1, _ = build_block(c, c.state, count=1)
    held = append_block(c.state, block1, T0 + 200)
    block2, (p2,) = build_block(c, held, count=1, start=10)
    later = append_block(held, block2, T0 + 200)
    block3, (p3,) = build_block(c, later, count=1, start=20)
    append_block(later, block3, T0 + 200)
    for block, pending, doc in ((block2, p2, make_doc(10)), (block3, p3, make_doc(20))):
        assert lookup_by_token(held, token_of(block, pending), doc).status is LookupStatus.NOT_FOUND
        assert held.locate(pending.record.commitment) is None
    rival = propose_block(held, [p3.record], c.hsa_keys[0], T0 + 200)
    assert validate_block(held, rival, T0 + 200) is None
    forked = append_block(held, rival, T0 + 200)
    assert lookup_by_token(forked, token_of(rival, p3), make_doc(20)).location == (2, 0)


@pytest.mark.parametrize("first", [0, 1])
def test_two_blocks_on_one_parent_each_see_only_their_own_records(consortium, first):
    c = consortium
    made = [build_block(c, c.state, count=2, start=start) for start in (0, 10)]
    children = {}
    for i in (first, 1 - first):
        children[i] = append_block(c.state, made[i][0], T0 + 200)
    for i, child in children.items():
        (own_block, own), (other_block, other) = made[i], made[1 - i]
        assert len(child.index) == 2 and len(child.header_index) == 2
        assert [child.locate(p.record.commitment)[0] for p in own] == [1, 1]
        assert [child.locate(p.record.commitment) for p in other] == [None, None]
        assert child.height_of(header_hash(own_block.header)) == 1
        assert child.height_of(header_hash(other_block.header)) is None
    assert all(c.state.locate(p.record.commitment) is None for _, pendings in made for p in pendings)


def test_an_append_to_the_newest_state_shares_its_indexes(consortium):
    """Appending to the newest state of a chain extends its indexes in
    place; appending to any other state of it starts from a copy."""
    state = grow_chain(consortium, 3)
    block, _ = build_block(consortium, state, count=2, now=T0 + 600, start=100)
    extended = append_block(state, block, T0 + 600)
    assert extended.index is state.index and extended.header_index is state.header_index
    again = append_block(state, block, T0 + 600)
    assert again.index is not state.index and again.header_index is not state.header_index
    assert again.index == extended.index and again.header_index == extended.header_index


def test_held_states_answer_as_before_while_a_writer_appends(consortium):
    """Readers on three threads check held states of a chain while one
    writer extends the indexes those states share: each answers for its
    own blocks, and for none above its height."""
    blocks = grow_chain(consortium, 30, per_block=4).blocks[1:]
    states = [consortium.state]
    done = threading.Event()
    wrong = []

    def write():
        state = consortium.state
        for block in blocks:
            state = append_block(state, block, T0 + 100_000, record_sigs=False)
            states.append(state)
        done.set()

    def read(seed):
        rng = Random(seed)
        passes = 0
        while not done.is_set() or passes < 50:
            passes += 1
            held = states[rng.randrange(len(states))]
            for block in blocks:
                height = block.header.height
                mine = height <= held.height
                if (held.height_of(header_hash(block.header)) == height) != mine:
                    wrong.append((held.height, height))
                    return
                for pos, record in enumerate(block.records):
                    if held.locate(record.commitment) != ((height, pos) if mine else None):
                        wrong.append((held.height, height, pos))
                        return

    threads = [threading.Thread(target=read, args=(seed,)) for seed in range(3)]
    threads.append(threading.Thread(target=write))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(states) == len(blocks) + 1 and not wrong


def test_index_soundness_and_completeness(consortium):
    state = grow_chain(consortium, 12, per_block=3)
    for commitment in state.index:
        height, pos = state.locate(commitment)
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
            merkle_root=merkle_root(map(record_leaf, (pending.record,))),
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
    for index in (len(block.records), 5):
        oob = DhpToken(header_hash(block.header), index, pendings[0].salt)
        assert lookup_by_token(state, oob, make_doc(0)).status is LookupStatus.NOT_FOUND


# --- serialization -------------------------------------------------------------


def test_record_frame_round_trip(consortium):
    record = issue(consortium, 5).record
    parsed = Reader(record_bytes(record)).finish(read_record, consortium.state.issuer_registry)
    assert parsed == record
    # the preimage kept on one of two equal records changes neither equality nor hash
    assert record.signing_bytes
    assert parsed == record and hash(parsed) == hash(record) and repr(parsed) == repr(record)
    # read_record fills the instance dict itself: every field, in field order
    assert list(vars(parsed).items()) == list(vars(record).items())


def test_record_frame_strictness(consortium):
    record = issue(consortium, 5).record
    data = bytearray(record_bytes(record))
    with pytest.raises(EncodingError):
        Reader(bytes(data) + b"\x00").finish(read_record, consortium.state.issuer_registry)
    data[32] = 0x03  # non-canonical result byte
    with pytest.raises(EncodingError):
        Reader(bytes(data)).finish(read_record, consortium.state.issuer_registry)


def test_a_method_code_signed_over_its_raw_frame_bytes_is_refused(consortium, tmp_path):
    """A record whose method code has whitespace in it has no canonical
    encoding, so no signature is valid for it, even one its facility made
    over the frame's raw bytes under a Merkle root of those very bytes.
    validate_block refuses it as BadRecordSig with or without the record
    signature checks, and so do strict replay and recovery."""
    c = consortium
    good = issue(c, 7).record
    code = b"RT qPCR"
    signed = record_bytes(good)[:41] + bytes((len(code),)) + code + good.issuer_id.id
    signature = sign(c.thf_keys[0], SIGNING_TAG + signed)
    hsa = c.hsa_keys[1]
    header = BlockHeader(
        height=1,
        prev_hash=header_hash(c.state.tip.header),
        merkle_root=hashlib.sha256(LEAF_TAG + SIGNING_TAG + signed + signature).digest(),
        authority_id=hsa.owner,
        block_time=T0 + 120,
        authority_signature=b"",
    )
    header = replace(header, authority_signature=sign(hsa, header_signing_bytes(header)))
    frame = header_bytes(header) + struct.pack(">I", 1) + signed + struct.pack(">H", len(signature)) + signature
    block = parse_block(frame, c.registry)
    assert block.records[0].method == TestMethod("RT qPCR")
    assert validate_block(c.state, block, T0 + 200) is BlockError.BAD_RECORD_SIG
    assert validate_block(c.state, block, T0 + 200, record_sigs=False) is BlockError.BAD_RECORD_SIG
    path = tmp_path / "blocks.log"
    path.write_bytes(BLOCK_LOG_MAGIC + bytes((LOG_VERSION,)) + struct.pack(">I", len(frame)) + frame)
    with pytest.raises(CorruptLog) as audit:
        replay_block_log(path, c.registry, T0 + 200, strict=True, genesis_time=c.genesis_time)
    with BlockLog(path) as log, pytest.raises(CorruptLog) as recovery:
        log.recover(c.registry, T0 + 200, genesis_time=c.genesis_time)
    for err in (audit, recovery):
        assert (err.value.offset, err.value.reason) == (5, "invalid block: BadRecordSig")


def record_frame_with_code(c: Consortium, code: bytes) -> bytes:
    """The frame of a record of c's first facility, signed over its raw bytes,
    with code in place of its method code."""
    good = issue(c, 7).record
    signed = record_bytes(good)[:41] + bytes((len(code),)) + code + good.issuer_id.id
    signature = sign(c.thf_keys[0], SIGNING_TAG + signed)
    return signed + struct.pack(">H", len(signature)) + signature


def test_records_of_one_method_code_share_one_test_method_and_the_registry_s_issuer(consortium, tmp_path):
    c = consortium
    state, blocks = c.state, []
    for start in (0, 3):
        block, _ = build_block(c, state, count=3, start=start)
        state = append_block(state, block, T0 + 200)
        blocks.append(block)
    parsed = parse_block(block_bytes(blocks[0]), c.registry)
    assert len({id(r.method) for r in parsed.records}) == 1
    issuers = c.state.issuer_registry
    assert all(r.issuer_id is issuers[r.issuer_id.id] for r in parsed.records)
    path = tmp_path / "blocks.log"
    with BlockLog(path) as log:
        for block in blocks:
            log.append(block)
    with BlockLog(path) as log:
        recovered = log.recover(c.registry, T0 + 200, genesis_time=c.genesis_time)
    records = [r for block in recovered.blocks[1:] for r in block.records]
    assert len(records) == 6 and len({id(r.method) for r in records}) == 1
    assert records[0].method == c.method


def test_an_unregistered_issuer_is_a_keyless_facility_and_its_block_unknown_issuer(consortium):
    c = consortium
    block, _ = build_block(c, c.state, count=1)
    issuer = block.records[0].issuer_id
    without = Registry(tuple(m for m in c.registry.members if m.id != issuer.id))
    parsed = parse_block(block_bytes(block), without)
    assert parsed.records[0].issuer_id == ActorId(role=Role.THF, id=issuer.id, public_key=b"")
    state = ChainState.genesis(without, genesis_time=c.genesis_time)
    assert validate_block(state, parsed, T0 + 200) is BlockError.UNKNOWN_ISSUER


def test_a_method_code_that_is_not_utf8_is_refused_on_every_parse(consortium):
    frame = record_frame_with_code(consortium, b"RT\xffqPCR")
    for _ in range(2):
        with pytest.raises(EncodingError, match="not UTF-8"):
            Reader(frame).finish(read_record, consortium.state.issuer_registry)


def test_a_canonical_code_parsed_first_does_not_make_a_whitespace_code_pass(consortium):
    c, issuers = consortium, consortium.state.issuer_registry
    canonical = Reader(record_frame_with_code(c, b"RT-qPCR")).finish(read_record, issuers)
    assert admit(c.state, canonical, T0 + 200) is None
    for _ in range(2):
        spaced = Reader(record_frame_with_code(c, b"RT-qPCR ")).finish(read_record, issuers)
        with pytest.raises(EncodingError):
            spaced.signing_bytes
        assert admit(c.state, spaced, T0 + 200) is BlockError.BAD_RECORD_SIG


def test_header_and_block_frame_round_trip(consortium):
    block, _ = build_block(consortium, consortium.state, count=3)
    authorities = {a.id: a for a in consortium.state.authority_set}
    assert Reader(header_bytes(block.header)).finish(read_header, authorities) == block.header
    assert parse_block(block_bytes(block), consortium.registry) == block


def test_token_frame_round_trip():
    token = DhpToken(b"\x0a" * 32, 42, Salt(b"\x0b" * 16))
    assert parse_token(token_bytes(token)) == token
    with pytest.raises(EncodingError):
        parse_token(token_bytes(token) + b"\x01")
    with pytest.raises(EncodingError):
        parse_token(token_bytes(token)[:-1])
