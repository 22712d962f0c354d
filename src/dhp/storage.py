"""Append-only persistence, a node's data dir, and consortium file formats.

A node's data dir holds blocks.log, registry.txt (the registry the log last
replayed under), genesis.txt and a member's receipts.log, named here alone.
open_chain writes the registry copy and genesis.txt only once the block log
replays. A log's writer makes a missing data dir, fsyncing the parent of
each directory it makes; replace_durably creates or replaces every file,
_Log._append grows the logs, and readers (replay_data_dir, read_receipts)
never write.

Block log: magic "DHPB" + u8 version, then length-prefixed canonical block
frames (u32-BE length + block bytes). Recovery of a node's own log replays
every frame through validation with every rule but the per-record issuer
signature: the node checked those when it first appended each block, the
Merkle root under the authority signature covers every record byte and
signature, and each gate check verifies its record's signature again. An
audit (`dhp chain audit`) checks every record signature too, and refuses a
torn tail. Either way, anything corrupt raises with the exact byte offset of
the offending frame.

Receipt log: magic "DHPR" + u8 version + length-prefixed receipt frames.
A writer holds its log open until close(), and its first append lands on a
frame boundary: a torn final frame (truncated write) is trimmed back to the
last good boundary before it. A receipt log's writer trims when it opens;
a block log's when it recovers, at the frame where the replay stopped, so a
cold start reads and splits its block log once. After that, each append is
one write of the whole frame and one fsync. A write that fails
part-way is truncated back to the frame's start before the error is raised,
so the next append still lands on a frame boundary. A failed fsync is
fail-stop: the log closes before the error is raised, and every later append
raises OSError and writes nothing, so a retry can never log a frame twice.
Readers ignore a torn frame.
Registry file: one member per line, `ROLE hex_id hex_pubkey`; a key that is
not 32 bytes or has small order, a repeated (role, id), or an id that is not
the key's actor id, is refused.
Key file: a single `ROLE hex_id hex_seed` line, readable by its owner only
(a key file that group or others may access is refused on load); public key
and id re-derive from the seed on load, so tampering is detected.
"""

from __future__ import annotations

import errno
import os
import stat
import struct
import threading
from pathlib import Path

from .core import ActorId, DhpError, EncodingError, Registry, Role, parse_u64
from .crypto import KeyPair, actor_id_for, derive_public, usable_public_key
from .ledger import Block, ChainState, InvalidBlock, append_block, parse_block
from .protocol import VerificationReceipt, parse_receipt_frame, receipt_frame_bytes

BLOCK_LOG_MAGIC = b"DHPB"
RECEIPT_LOG_MAGIC = b"DHPR"
LOG_VERSION = 1
_HEADER_LEN = 5  # magic + version byte
BLOCKS, RECEIPTS, REGISTRY_COPY, GENESIS = "blocks.log", "receipts.log", "registry.txt", "genesis.txt"


class CorruptLog(DhpError):
    """A log frame failed validation; offset is the frame's byte position."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"corrupt frame at offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class RegistryMismatch(DhpError):
    """The block log does not replay under the configured registry but does
    under the data dir's copy of the one it last replayed under, from which
    it differs in its authorities or issuers. Each member is named, so the
    registry is blamed and not the disk."""


def registry_mismatch(data_dir: Path, configured: Registry, now: int, genesis_time: int) -> RegistryMismatch | None:
    """The error for the data dir's block log, which does not replay under
    configured: a RegistryMismatch naming each member a replay reads (the
    authorities, in schedule order, and the issuers) that configured adds to
    or removes from the dir's copy; None if the copy agrees or fails too."""
    copy = data_dir / REGISTRY_COPY
    built = load_registry(copy) if copy.exists() else configured
    if built.authorities() == configured.authorities() and built.issuers() == configured.issuers():
        return None
    try:
        replay_block_log(data_dir / BLOCKS, built, now, genesis_time=genesis_time)
    except CorruptLog:
        return None
    before, after = (set(r.authorities()) | set(r.issuers().values()) for r in (built, configured))
    names = [f"added {m.label()}" for m in configured.members if m in after - before]
    names += [f"removed {m.label()}" for m in built.members if m in before - after]
    return RegistryMismatch(
        "the block log does not replay under the configured registry, which differs from the data dir's: "
        + (", ".join(names) or "authorities reordered")
    )


def open_chain(data_dir: Path, registry: Registry, genesis_time: int, now: int) -> tuple[BlockLog, ChainState]:
    """data_dir's block log, open for appends, and the chain it recovers to;
    or else the RegistryMismatch, or the CorruptLog, that refuses it."""
    log = BlockLog(data_dir / BLOCKS)
    try:
        state = log.recover(registry, now, genesis_time)
    except CorruptLog as exc:
        log.close()
        raise registry_mismatch(data_dir, registry, now, genesis_time) or exc
    save_registry(data_dir / REGISTRY_COPY, registry)
    write_genesis_time(data_dir, genesis_time)
    return log, state


def open_receipts(data_dir: Path) -> ReceiptLog:
    """A member's receipt log, open for appends."""
    return ReceiptLog(data_dir / RECEIPTS)


def replay_data_dir(data_dir: Path, registry_file: Path | str | None, now: int, strict: bool) -> ChainState:
    """The chain data_dir's block log replays to (strict: as an audit) under
    registry_file, or the dir's copy if None, from the dir's genesis time."""
    registry = load_registry(registry_file or data_dir / REGISTRY_COPY)
    return replay_block_log(data_dir / BLOCKS, registry, now, strict, read_genesis_time(data_dir))[0]


def _check_header(data: bytes, magic: bytes) -> None:
    if len(data) < _HEADER_LEN or data[:4] != magic:
        raise CorruptLog(0, f"bad magic, expected {magic!r}")
    if data[4] != LOG_VERSION:
        raise CorruptLog(4, f"unsupported log version {data[4]}")


def read_frames(data: bytes, magic: bytes, strict: bool) -> tuple[list[tuple[int, bytes]], int | None]:
    """Split a log into (offset, payload) frames.

    Returns (frames, torn_offset). A torn tail (incomplete length prefix or
    short payload at end of file) is tolerated unless strict, in which case it
    raises CorruptLog.
    """
    _check_header(data, magic)
    frames: list[tuple[int, bytes]] = []
    pos = _HEADER_LEN
    while pos < len(data):
        if pos + 4 > len(data):
            if strict:
                raise CorruptLog(pos, "incomplete frame length")
            return frames, pos
        (n,) = struct.unpack_from(">I", data, pos)
        if pos + 4 + n > len(data):
            if strict:
                raise CorruptLog(pos, f"frame claims {n} bytes past end of file")
            return frames, pos
        frames.append((pos, data[pos + 4:pos + 4 + n]))
        pos += 4 + n
    return frames, None


def replay_block_log(
    path: Path | str,
    registry: Registry,
    now: int,
    strict: bool = False,
    genesis_time: int = 0,
) -> tuple[ChainState, int | None]:
    """Rebuild chain state by replaying every block frame through validation.

    strict=True is the audit: every rule, each record's issuer signature
    included, and a torn tail is CorruptLog. strict=False is recovery: every
    rule but the record signatures, and a torn tail ends the replay.
    Raises CorruptLog (with the frame's byte offset) for any frame that fails
    to parse or validate. Returns (state, torn_offset): torn_offset is the
    position of a truncated final frame in recovery mode, None otherwise.
    """
    # The whole file is not kept: each block keeps its own frame.
    frames, torn = read_frames(Path(path).read_bytes(), BLOCK_LOG_MAGIC, strict)
    state = ChainState.genesis(registry, genesis_time=genesis_time)
    for offset, payload in frames:
        try:
            block = parse_block(payload, registry)
        except EncodingError as exc:
            raise CorruptLog(offset, f"unparseable block: {exc}") from exc
        try:
            state = append_block(state, block, now, record_sigs=strict)
        except InvalidBlock as exc:
            raise CorruptLog(offset, f"invalid block: {exc.error.value}") from exc
    return state, torn


class _Log:
    """Writer side of a log: one unbuffered append-mode file held open until
    close(), so each append is one write and one fsync. A torn tail is
    trimmed before the first append."""

    magic: bytes

    def __init__(self, path: Path | str):
        self.path = Path(path)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if fresh:
            _make_dirs_durably(self.path.parent)
            replace_durably(self.path, self.magic + bytes((LOG_VERSION,)))
        self._file = open(self.path, "ab", buffering=0)
        self._lock = threading.Lock()
        self._trimmed = fresh

    def _trim(self, torn: int | None) -> None:
        """Cut the torn final frame that starts at offset torn, if there is
        one, off the log."""
        if torn is not None:
            self._file.truncate(torn)
        self._trimmed = True

    def _trim_torn_tail(self) -> None:
        self._trim(read_frames(self.path.read_bytes(), self.magic, strict=False)[1])

    def _append(self, payload: bytes) -> None:
        """Append one length-prefixed frame and make it durable before
        returning. The write holds the lock, so concurrent frames never
        interleave; the fsync does not, so concurrent appends can share one
        journal commit. A closed log raises OSError and writes nothing; a
        failed write is cut back off the log before the OSError propagates.
        A failed fsync closes the log before it propagates: the frame may or
        may not be durable, so no later frame (such as a retry of the same
        block) may follow it."""
        frame = memoryview(struct.pack(">I", len(payload)) + payload)
        try:
            with self._lock:
                if not self._trimmed:
                    self._trim_torn_tail()
                written = 0
                try:
                    while written < len(frame):
                        written += self._file.write(frame[written:])
                except OSError:
                    self._file.truncate(self._file.seek(0, os.SEEK_END) - written)
                    raise
            try:
                os.fsync(self._file.fileno())
            except OSError:
                self.close()
                raise
        except ValueError:  # I/O on a closed file
            raise OSError(errno.EBADF, f"{self.path} is closed") from None

    def close(self) -> None:
        with self._lock:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BlockLog(_Log):
    """The block log: recover (which trims a torn tail), append-with-sync."""

    magic = BLOCK_LOG_MAGIC

    def recover(self, registry: Registry, now: int, genesis_time: int = 0) -> ChainState:
        """Replay the log without the record signature checks, and trim the
        torn tail, if any, at which the replay stopped."""
        state, torn = replay_block_log(self.path, registry, now, strict=False, genesis_time=genesis_time)
        with self._lock:
            self._trim(torn)
        return state

    def append(self, block: Block) -> None:
        """Log the block as its frame."""
        self._append(block.frame)


class ReceiptLog(_Log):
    """The receipt log; checks on concurrent connections may append at once."""

    magic = RECEIPT_LOG_MAGIC

    def __init__(self, path: Path | str):
        super().__init__(path)
        if not self._trimmed:
            self._trim_torn_tail()

    def append(self, receipt: VerificationReceipt, frame: bytes | None = None) -> None:
        """Log receipt as frame, its encoding, where the caller holds it."""
        self._append(receipt_frame_bytes(receipt) if frame is None else frame)

    def read_all(self, registry: Registry) -> list[VerificationReceipt]:
        return read_receipts(self.path, registry)


def read_receipts(path: Path | str, registry: Registry) -> list[VerificationReceipt]:
    """Every whole receipt in the log at path; a torn tail is left as it is."""
    frames, _ = read_frames(Path(path).read_bytes(), RECEIPT_LOG_MAGIC, strict=False)
    receipts = []
    for offset, payload in frames:
        try:
            receipts.append(parse_receipt_frame(payload, registry))
        except EncodingError as exc:
            raise CorruptLog(offset, f"unparseable receipt: {exc}") from exc
    return receipts


def read_genesis_time(data_dir: Path | str) -> int:
    """Genesis time persisted in a node's data dir (0 when absent)."""
    path = Path(data_dir) / GENESIS
    if not path.exists():
        return 0
    return parse_u64(path.read_text(), GENESIS)


def write_genesis_time(data_dir: Path | str, genesis_time: int) -> None:
    replace_durably(Path(data_dir) / GENESIS, f"{genesis_time}\n".encode())


def replace_durably(path: Path, data: bytes) -> None:
    """Make the file at path hold data, so that a crash leaves the old
    content or the new, never a torn or empty file. A file that already
    holds data is left alone. Otherwise data goes to a temp file beside it,
    which is fsynced and renamed over path, and then the directory is
    fsynced, so the rename itself survives a crash."""
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(temp, path)
    _fsync_dir(path.parent)


def _make_dirs_durably(directory: Path) -> None:
    """Make directory and its missing parents, fsyncing the parent of each
    one made, so a crash cannot lose the new entry and what is under it."""
    if directory.is_dir():
        return
    _make_dirs_durably(directory.parent)
    directory.mkdir(exist_ok=True)
    _fsync_dir(directory.parent)


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --- registry and key files --------------------------------------------------


def format_registry(registry: Registry) -> str:
    return "".join(
        f"{m.role.name} {m.id.hex()} {m.public_key.hex()}\n" for m in registry.members
    )


def parse_registry(text: str) -> Registry:
    members: list[ActorId] = []
    seen: set[tuple[Role, bytes]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EncodingError(f"registry line {lineno}: expected `role hex_id hex_pubkey`")
        role_name, id_hex, pub_hex = parts
        try:
            role = Role[role_name.upper()]
            actor_id = bytes.fromhex(id_hex)
            public = bytes.fromhex(pub_hex)
        except (KeyError, ValueError):
            raise EncodingError(f"registry line {lineno}: bad field") from None
        if len(actor_id) != 16:
            raise EncodingError(f"registry line {lineno}: id must be 16 bytes")
        if not usable_public_key(public):
            raise EncodingError(f"registry line {lineno}: key is not 32 bytes, or has small order")
        if (role, actor_id) in seen:
            raise EncodingError(f"registry line {lineno}: repeats {role.name} {id_hex}")
        if actor_id != actor_id_for(public):
            raise EncodingError(f"registry line {lineno}: id does not match its key")
        seen.add((role, actor_id))
        members.append(ActorId(role=role, id=actor_id, public_key=public))
    return Registry(members=tuple(members))


def load_registry(path: Path | str) -> Registry:
    return parse_registry(Path(path).read_text())


def save_registry(path: Path | str, registry: Registry) -> None:
    """Replace the file whole: a crash leaves the old registry or the new."""
    replace_durably(Path(path), format_registry(registry).encode())


def save_keypair(path: Path | str, key: KeyPair) -> None:
    """Write the key file with mode 0600, whatever the umask; an existing
    file is overwritten, and its mode set to 0600 too."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w") as fh:
        os.fchmod(fd, 0o600)
        fh.write(f"{key.owner.role.name} {key.owner.id.hex()} {key.secret.hex()}\n")


def load_keypair(path: Path | str) -> KeyPair:
    """The key pair in the key file at path, which only its owner may read
    or write: a mode that lets group or others in is refused, as OpenSSH
    refuses such a private key."""
    with open(path) as fh:
        mode = stat.S_IMODE(os.fstat(fh.fileno()).st_mode)
        if mode & 0o077:
            raise EncodingError(
                f"key file {path} has mode {mode:04o}, open to group or others: run `chmod 600 {path}`"
            )
        line = fh.read().strip()
    parts = line.split()
    if len(parts) != 3:
        raise EncodingError("key file must be a single `role hex_id hex_seed` line")
    role_name, id_hex, seed_hex = parts
    try:
        role = Role[role_name.upper()]
        claimed_id = bytes.fromhex(id_hex)
        seed = bytes.fromhex(seed_hex)
    except (KeyError, ValueError):
        raise EncodingError("key file has a bad field") from None
    public = derive_public(seed)
    if actor_id_for(public) != claimed_id:
        raise EncodingError("key file id does not match its seed")
    owner = ActorId(role=role, id=claimed_id, public_key=public)
    return KeyPair(secret=seed, public=public, owner=owner)


# --- manifest files ----------------------------------------------------------


def parse_manifest(text: str) -> list[tuple[bytes, int]]:
    """Manifest lines: `hex_header_hash record_index`."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EncodingError(f"manifest line {lineno}: expected `hex_hash index`")
        try:
            entries.append((bytes.fromhex(parts[0]), int(parts[1])))
        except ValueError:
            raise EncodingError(f"manifest line {lineno}: bad field") from None
    return entries
