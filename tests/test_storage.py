import builtins
import os
import re
import resource
import signal
import stat
import struct
import threading

import pytest

from dhp.core import EncodingError, Role
from dhp.ledger import chain_bytes, propose_block
from dhp.protocol import bm_verify, receipt_frame_bytes
from dhp.storage import (
    BlockLog,
    CorruptLog,
    ReceiptLog,
    load_keypair,
    load_registry,
    parse_manifest,
    parse_registry,
    format_registry,
    read_genesis_time,
    replay_block_log,
    save_keypair,
    save_registry,
    write_genesis_time,
)

from conftest import Consortium, make_doc, seeded_key
from test_protocol import POLICY, issue_and_register
from test_ledger import grow_chain

T0 = 1_700_000_000
NOW = T0 + 1_000_000


def write_chain(tmp_path, blocks=6, per_block=2):
    c = Consortium()
    state = grow_chain(c, blocks, per_block)
    log = BlockLog(tmp_path / "blocks.log")
    for block in state.blocks[1:]:
        log.append(block)
    return c, state, log


def test_block_log_round_trip(tmp_path):
    c, state, log = write_chain(tmp_path)
    replayed, torn = replay_block_log(log.path, c.registry, NOW, genesis_time=c.genesis_time)
    assert torn is None
    assert chain_bytes(replayed) == chain_bytes(state)


def test_block_log_recover_discards_torn_tail(tmp_path):
    c, state, log = write_chain(tmp_path, blocks=4, per_block=1)
    data = log.path.read_bytes()
    log.path.write_bytes(data[:-7])  # tear the final frame mid-payload
    recovered = BlockLog(log.path).recover(c.registry, NOW, genesis_time=c.genesis_time)
    assert len(recovered.blocks) == len(state.blocks) - 1
    # the torn bytes are gone; appending the block again restores the chain
    log2 = BlockLog(log.path)
    log2.append(state.blocks[-1])
    replayed, torn = replay_block_log(log.path, c.registry, NOW, strict=True, genesis_time=c.genesis_time)
    assert torn is None
    assert chain_bytes(replayed) == chain_bytes(state)


def test_block_log_truncation_at_any_frame_boundary_recovers_prefix(tmp_path):
    c, state, log = write_chain(tmp_path, blocks=5, per_block=1)
    pristine = log.path.read_bytes()
    boundaries = [5] + [off + 4 + struct.unpack_from(">I", pristine, off)[0]
                        for off in frame_offsets(pristine)]
    for k, boundary in enumerate(boundaries):
        log.path.write_bytes(pristine[:boundary])
        recovered = BlockLog(log.path).recover(c.registry, NOW, genesis_time=c.genesis_time)
        assert len(recovered.blocks) == 1 + k  # genesis + k surviving frames
        assert chain_bytes(recovered) == chain_bytes(
            type(state)(
                blocks=state.blocks[:1 + k],
                authority_set=state.authority_set,
                issuer_registry=state.issuer_registry,
                index={},
                header_index={},
            )
        )
    log.path.write_bytes(pristine)


def test_block_log_strict_rejects_torn_tail(tmp_path):
    c, _, log = write_chain(tmp_path, blocks=3, per_block=1)
    data = log.path.read_bytes()
    log.path.write_bytes(data[:-2])
    with pytest.raises(CorruptLog):
        replay_block_log(log.path, c.registry, NOW, strict=True, genesis_time=c.genesis_time)


def frame_offsets(data):
    offsets = []
    pos = 5
    while pos < len(data):
        offsets.append(pos)
        (n,) = struct.unpack_from(">I", data, pos)
        pos += 4 + n
    return offsets


def test_block_log_single_byte_corruption_is_frame_accurate(tmp_path):
    c, _, log = write_chain(tmp_path, blocks=5, per_block=2)
    pristine = log.path.read_bytes()
    offsets = frame_offsets(pristine)
    target = 2  # corrupt a byte of the third frame's payload
    flips = [
        (offsets[target] + 40, 0x01),                            # in the middle
        (pristine.index(b"RT-qPCR", offsets[target]), 0x80),     # a method code, no longer UTF-8
    ]
    for pos, mask in flips:
        mutated = bytearray(pristine)
        mutated[pos] ^= mask
        log.path.write_bytes(bytes(mutated))
        with pytest.raises(CorruptLog) as err:
            replay_block_log(log.path, c.registry, NOW, strict=True, genesis_time=c.genesis_time)
        assert err.value.offset == offsets[target]


def test_block_log_corrupt_length_prefix_detected(tmp_path):
    c, _, log = write_chain(tmp_path, blocks=3, per_block=1)
    pristine = log.path.read_bytes()
    offsets = frame_offsets(pristine)
    mutated = bytearray(pristine)
    mutated[offsets[1]] ^= 0x20  # frame now claims a giant length
    log.path.write_bytes(bytes(mutated))
    with pytest.raises(CorruptLog) as err:
        replay_block_log(log.path, c.registry, NOW, strict=True, genesis_time=c.genesis_time)
    assert err.value.offset == offsets[1]


def test_block_log_bad_magic(tmp_path):
    path = tmp_path / "blocks.log"
    path.write_bytes(b"NOPE\x01")
    c = Consortium()
    with pytest.raises(CorruptLog) as err:
        replay_block_log(path, c.registry, NOW)
    assert err.value.offset == 0


@pytest.mark.parametrize("strict", [False, True])
def test_block_log_repeating_a_credential_is_corrupt_at_the_repeat(tmp_path, strict):
    c = Consortium()
    state = grow_chain_from(c, c.state, 0)
    repeat = propose_block(state, [state.tip.records[0]], c.hsa_keys[0], T0 + 180)
    log = BlockLog(tmp_path / "blocks.log")
    log.append(state.tip)
    log.append(repeat)
    offsets = frame_offsets(log.path.read_bytes())
    with pytest.raises(CorruptLog) as err:
        replay_block_log(log.path, c.registry, NOW, strict=strict, genesis_time=c.genesis_time)
    assert err.value.offset == offsets[1]
    assert err.value.reason == "invalid block: DuplicateRecord"


def test_recovery_checks_one_signature_per_block_and_an_audit_one_per_record_too(tmp_path, monkeypatch):
    import dhp.ledger

    c, state, log = write_chain(tmp_path, blocks=5, per_block=3)
    calls = []
    verify = dhp.ledger.verify_sig
    monkeypatch.setattr(dhp.ledger, "verify_sig", lambda *args: calls.append(args) or verify(*args))
    blocks, records = len(state.blocks) - 1, len(state.index)
    with log:
        for replay, expected in (
            (lambda: log.recover(c.registry, NOW, genesis_time=c.genesis_time), blocks),
            (lambda: replay_block_log(log.path, c.registry, NOW, genesis_time=c.genesis_time)[0], blocks),
            (lambda: replay_block_log(log.path, c.registry, NOW, strict=True, genesis_time=c.genesis_time)[0],
             blocks + records),
        ):
            calls.clear()
            assert chain_bytes(replay()) == chain_bytes(state)
            assert len(calls) == expected


def test_block_log_restart_append_cycles(tmp_path):
    c = Consortium()
    state = c.state
    path = tmp_path / "blocks.log"
    serial = 0
    for cycle in range(10):
        log = BlockLog(path)
        recovered = log.recover(c.registry, NOW, genesis_time=c.genesis_time)
        assert chain_bytes(recovered) == chain_bytes(state)
        grown = grow_chain_from(c, recovered, serial)
        serial += 1
        log.append(grown.blocks[-1])
        state = grown
    replayed, _ = replay_block_log(path, c.registry, NOW, strict=True, genesis_time=c.genesis_time)
    assert chain_bytes(replayed) == chain_bytes(state)


def grow_chain_from(c, state, serial):
    from dhp.ledger import append_block, propose_block
    from dhp.protocol import thf_issue
    from random import Random

    hsa = c.hsa_keys[len(state.blocks) % len(c.hsa_keys)]
    now = T0 + 60 * (serial + 2)
    pending = thf_issue(
        c.thf_keys[0], make_doc(5000 + serial), True, c.method, now, now=now, rng=Random(serial)
    )
    block = propose_block(state, [pending.record], hsa, now)
    return append_block(state, block, now)


def test_receipt_log_round_trip(tmp_path, consortium):
    state, tokens, _ = issue_and_register(consortium, [make_doc(0), make_doc(1)])
    log = ReceiptLog(tmp_path / "receipts.log")
    receipts = []
    for token, doc in zip(tokens, [make_doc(0), make_doc(1)]):
        _, receipt = bm_verify(consortium.bm_keys[0], state, token, doc, POLICY, T0 + 3600)
        log.append(receipt)
        receipts.append(receipt)
    assert log.read_all(consortium.registry) == receipts


def test_receipt_log_writer_trims_a_torn_tail(tmp_path, consortium):
    """A crash mid-append leaves a torn tail; the next writer trims it, so
    its receipt starts on a frame boundary and the log reads back whole."""
    state, tokens, _ = issue_and_register(consortium, [make_doc(0), make_doc(1)])
    first, second = (
        bm_verify(consortium.bm_keys[0], state, token, make_doc(i), POLICY, T0 + 3600)[1]
        for i, token in enumerate(tokens)
    )
    path = tmp_path / "receipts.log"
    ReceiptLog(path).append(first)
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00")  # two bytes of a length prefix
    log = ReceiptLog(path)
    log.append(second)
    assert log.read_all(consortium.registry) == [first, second]


def test_receipt_log_read_ignores_a_torn_tail_without_writing(tmp_path, consortium):
    state, tokens, _ = issue_and_register(consortium, [make_doc(0)])
    _, receipt = bm_verify(consortium.bm_keys[0], state, tokens[0], make_doc(0), POLICY, T0 + 3600)
    log = ReceiptLog(tmp_path / "receipts.log")
    log.append(receipt)
    with open(log.path, "ab") as fh:
        fh.write(b"\x00\x00\x01")
    torn = log.path.read_bytes()
    assert log.read_all(consortium.registry) == [receipt]
    assert log.path.read_bytes() == torn


def make_receipts(consortium, n):
    state, tokens, _ = issue_and_register(consortium, [make_doc(0)])
    return [bm_verify(consortium.bm_keys[0], state, tokens[0], make_doc(0), POLICY, T0 + i)[1]
            for i in range(n)]


def test_receipt_log_append_is_one_write_and_one_fsync(tmp_path, consortium, monkeypatch):
    """The log stays open: appends open no file, and each one is fsynced."""
    (receipt,) = make_receipts(consortium, 1)
    log = ReceiptLog(tmp_path / "receipts.log")
    calls = {"open": 0, "fsync": 0}

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(builtins, "open", counting("open", builtins.open))
    monkeypatch.setattr(os, "open", counting("open", os.open))
    monkeypatch.setattr(os, "fsync", counting("fsync", os.fsync))
    for _ in range(100):
        log.append(receipt)
    monkeypatch.undo()
    assert calls == {"open": 0, "fsync": 100}
    assert log.read_all(consortium.registry) == [receipt] * 100
    log.close()


def test_receipt_log_concurrent_appends_stay_whole(tmp_path, consortium):
    receipts = make_receipts(consortium, 200)
    path = tmp_path / "receipts.log"
    with ReceiptLog(path) as log:
        threads = [
            threading.Thread(target=lambda part: [log.append(r) for r in part], args=(receipts[i::4],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        read = log.read_all(consortium.registry)
    frames = sorted(receipt_frame_bytes(r) for r in receipts)
    assert sorted(receipt_frame_bytes(r) for r in read) == frames
    assert path.stat().st_size == 5 + sum(4 + len(frame) for frame in frames)


def test_receipt_log_reader_sees_an_open_writer_s_appends(tmp_path, consortium):
    receipts = make_receipts(consortium, 3)
    path = tmp_path / "receipts.log"
    with ReceiptLog(path) as log:
        for i, receipt in enumerate(receipts):
            log.append(receipt)
            assert ReceiptLog(path).read_all(consortium.registry) == receipts[:i + 1]


def test_a_write_that_fails_part_way_is_cut_off_the_log(tmp_path, consortium):
    """A file-size limit just past one frame stops the second append after
    50 of its bytes: the append raises, the log is back at one frame, and the
    next append lands on a frame boundary, so the log reads back whole."""
    first, second, third = make_receipts(consortium, 3)
    path = tmp_path / "receipts.log"
    with ReceiptLog(path) as log:
        log.append(first)
        size = path.stat().st_size
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        try:
            resource.setrlimit(resource.RLIMIT_FSIZE, (size + 50, hard))
            with pytest.raises(OSError):
                log.append(second)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert path.stat().st_size == size
        log.append(third)
        assert log.read_all(consortium.registry) == [first, third]


def test_genesis_time_round_trips_up_to_the_u64_bound(tmp_path):
    assert read_genesis_time(tmp_path) == 0
    for value in (0, 1_700_000_000, 2**64 - 1):
        write_genesis_time(tmp_path, value)
        assert read_genesis_time(tmp_path) == value


@pytest.mark.parametrize("text", ["-1", str(2**64), "1.5", "abc", "", "\u00b2", "9" * 5000])
def test_genesis_time_outside_u64_is_refused(tmp_path, text):
    (tmp_path / "genesis.txt").write_text(text + "\n")
    with pytest.raises(EncodingError, match="genesis.txt"):
        read_genesis_time(tmp_path)


@pytest.mark.parametrize("name", ["genesis.txt", "registry.txt"])
def test_a_data_dir_file_is_replaced_durably_and_only_when_it_changes(tmp_path, monkeypatch, consortium, name):
    """The new content is written to a temp file and fsynced, renamed over
    the file, and the directory fsynced; unchanged content writes nothing."""
    path = tmp_path / name
    write = {
        "genesis.txt": lambda version: write_genesis_time(tmp_path, 1_700_000_000 + version),
        "registry.txt": lambda version: save_registry(
            path, consortium.registry.with_member(seeded_key(Role.BM, "joined").owner) if version else consortium.registry
        ),
    }[name]
    calls, real_fsync, real_replace = [], os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", st.st_ino, "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", str(src), str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    for version in (0, 0, 1):
        before = len(calls)
        write(version)
        content = path.read_bytes()
        made = [] if version == 0 and before else [
            ("fsync", path.stat().st_ino, len(content)),
            ("replace", f"{path}.tmp", str(path)),
            ("fsync", tmp_path.stat().st_ino, "dir"),
        ]
        assert calls[before:] == made, version
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_registry_text_round_trip(consortium):
    text = format_registry(consortium.registry)
    assert parse_registry(text) == consortium.registry


def test_registry_file_round_trip(tmp_path, consortium):
    path = tmp_path / "registry.txt"
    save_registry(path, consortium.registry)
    assert load_registry(path) == consortium.registry


# The Ed25519 points of order at most 8, by y-coordinate with the sign bit
# cleared: 0, 1, the two of order 8, p - 1, p (= 0) and p + 1 (= 1).
SMALL_ORDER_Y = [
    "00" * 32,
    "01" + "00" * 31,
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "ec" + "ff" * 30 + "7f",
    "ed" + "ff" * 30 + "7f",
    "ee" + "ff" * 30 + "7f",
]
SMALL_ORDER_KEYS = SMALL_ORDER_Y + [y[:62] + f"{int(y[62:], 16) | 0x80:02x}" for y in SMALL_ORDER_Y]
THF_A, THF_B = seeded_key(Role.THF, "a"), seeded_key(Role.THF, "b")
THF_LINE = f"THF {THF_A.owner.id.hex()} {THF_A.public.hex()}\n"


@pytest.mark.parametrize(
    "text",
    [
        "THF deadbeef\n",                      # missing field
        "WIZARD aa11 bb22\n",                  # unknown role
        "THF zz bb22\n",                       # bad hex
        "THF aabb ccdd\n",                     # id not 16 bytes
        f"THF {'11' * 16} {'22' * 5}\n",        # key not 32 bytes
        *(f"THF {'11' * 16} {key}\n" for key in SMALL_ORDER_KEYS),
        THF_LINE + THF_LINE,                   # repeated (role, id)
        THF_LINE + THF_LINE.replace(THF_A.public.hex(), THF_B.public.hex()),
        THF_LINE.replace(THF_A.public.hex(), THF_B.public.hex()),  # id is not the key's
    ],
)
def test_registry_parse_errors(text):
    with pytest.raises(EncodingError, match=r"registry line \d"):
        parse_registry(text)


def test_keypair_file_round_trip(tmp_path):
    key = seeded_key(Role.HSA, "persisted")
    path = tmp_path / "hsa.key"
    save_keypair(path, key)
    assert load_keypair(path) == key


def test_a_key_file_is_readable_by_its_owner_only(tmp_path):
    """Under umask 022 a new key file, and one written over an existing
    world-readable file, both get mode 0600."""
    key = seeded_key(Role.HSA, "persisted")
    fresh, existing = tmp_path / "fresh.key", tmp_path / "existing.key"
    existing.write_text("old\n")
    existing.chmod(0o644)
    umask = os.umask(0o022)
    try:
        for path in (fresh, existing):
            save_keypair(path, key)
    finally:
        os.umask(umask)
    for path in (fresh, existing):
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert load_keypair(path) == key


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o600], ids=lambda mode: f"{mode:04o}")
def test_a_key_file_open_to_group_or_others_is_refused(tmp_path, mode):
    """Only mode 0600 loads, whatever the umask the file was written under."""
    key = seeded_key(Role.HSA, "persisted")
    path = tmp_path / "hsa.key"
    for mask in (0o000, 0o022, 0o077):
        umask = os.umask(mask)
        try:
            path.unlink(missing_ok=True)
            save_keypair(path, key)
            path.chmod(mode)
        finally:
            os.umask(umask)
        if mode == 0o600:
            assert load_keypair(path) == key
        else:
            with pytest.raises(EncodingError, match=re.escape(f"{path} has mode 0{mode:o}") + ".*chmod 600"):
                load_keypair(path)


def test_keypair_file_tamper_detected(tmp_path):
    key = seeded_key(Role.HSA, "persisted")
    path = tmp_path / "hsa.key"
    save_keypair(path, key)
    role, actor_id, seed = path.read_text().split()
    other = seeded_key(Role.HSA, "other")
    path.write_text(f"{role} {actor_id} {other.secret.hex()}\n")
    with pytest.raises(EncodingError):
        load_keypair(path)


def test_manifest_round_trip():
    text = f"# manifest\n{'01' * 32} 0\n\n  {'02' * 32}  7\n"
    assert parse_manifest(text) == [(b"\x01" * 32, 0), (b"\x02" * 32, 7)]
    with pytest.raises(EncodingError):
        parse_manifest("onlyonefield\n")
    with pytest.raises(EncodingError):
        parse_manifest("zz 0\n")
