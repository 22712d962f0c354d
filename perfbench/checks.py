"""Correctness checks for the benchmark's outputs.

Each check is made apart from the program (the byte formats are decoded
here, signatures are checked with `cryptography` directly, commitments are
recomputed with hashlib) or against a property the method must have. Every
function returns a list of problems; an empty list means the output is
right.
"""

from __future__ import annotations

import hashlib
import re
import struct
from datetime import date
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

RECEIPT_TAG = b"DHPR1|"
COMMIT_TAG = b"DHPC1|"
BLOCK_LOG_MAGIC = b"DHPB\x01"
RECEIPT_LOG_MAGIC = b"DHPR\x01"


def log_frames(data: bytes, magic: bytes) -> list[bytes]:
    """Payloads of a dhp log: magic + version, then u32-BE length frames."""
    if data[:5] != magic:
        raise ValueError(f"bad log magic {data[:5]!r}")
    frames, pos = [], 5
    while pos < len(data):
        (n,) = struct.unpack_from(">I", data, pos)
        if pos + 4 + n > len(data):
            raise ValueError(f"torn frame at offset {pos}")
        frames.append(data[pos + 4:pos + 4 + n])
        pos += 4 + n
    return frames


def registered_key(registry_text: str, role: str, actor_id: bytes) -> bytes:
    for line in registry_text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == role and bytes.fromhex(parts[1]) == actor_id:
            return bytes.fromhex(parts[2])
    raise ValueError(f"{role} {actor_id.hex()} is not in the registry")


def commitment_of(doc_number: str, country: str, expiry: date, salt: bytes) -> bytes:
    """SHA-256 over the commitment tag, the salt and the canonical document."""
    number = doc_number.encode("ascii")
    days = (expiry - date(1970, 1, 1)).days
    canonical = struct.pack(">H", len(number)) + number + country.encode("ascii") + struct.pack(">I", days)
    return hashlib.sha256(COMMIT_TAG + salt + canonical).digest()


# --- checkin -----------------------------------------------------------------


def check_outcome(check, outcome, receipt) -> list[str]:
    """The member's answer equals the one the pairing of token, document and
    check time implies, and its receipt names that request."""
    got = (outcome.status, outcome.violation_reason, outcome.dhp_location, outcome.checked_at)
    want = (check.status, check.violation, check.location, check.at)
    problems = []
    if got != want:
        problems.append(f"{check.kind} check: outcome {got} != expected {want}")
    if (receipt.token_header_hash, receipt.record_index, receipt.outcome_status, receipt.checked_at) != (
        check.token.header_hash, check.token.record_index, check.status, check.at
    ):
        problems.append(f"{check.kind} check: receipt does not match the request")
    return problems


def check_receipt_log(path: Path, expected: list[tuple[bytes, int, int, int]], member_key: bytes,
                      member_id: bytes) -> list[str]:
    """Exactly one receipt per request, in request order, each signed by the
    member's registered key. expected holds (header hash, record index,
    outcome status byte, checked_at) per request sent."""
    frames = log_frames(Path(path).read_bytes(), RECEIPT_LOG_MAGIC)
    problems = []
    if len(frames) != len(expected):
        problems.append(f"receipt log holds {len(frames)} receipts for {len(expected)} requests")
    key = ed25519.Ed25519PublicKey.from_public_bytes(member_key)
    for i, (frame, want) in enumerate(zip(frames, expected)):
        body, (siglen,) = frame[:61], struct.unpack_from(">H", frame, 61)
        signature = frame[63:63 + siglen]
        bm_id, header, (index,), status, (at,) = (
            body[:16], body[16:48], struct.unpack_from(">I", body, 48), body[52], struct.unpack_from(">Q", body, 53)
        )
        if bm_id != member_id or (header, index, status, at) != want:
            problems.append(f"receipt {i} does not match request {i}")
        try:
            key.verify(signature, RECEIPT_TAG + body)
        except InvalidSignature:
            problems.append(f"receipt {i}: signature does not verify under the member's key")
        if len(problems) > 10:
            break
    return problems


# --- register ----------------------------------------------------------------


def block_record_counts(log: bytes) -> list[int]:
    """Record count of each block frame in a block log."""
    counts = []
    for frame in log_frames(log, BLOCK_LOG_MAGIC):
        (siglen,) = struct.unpack_from(">H", frame, 96)
        (n,) = struct.unpack_from(">I", frame, 98 + siglen)
        counts.append(n)
    return counts


def check_registration(issued: list[tuple], tokens: list, records: list, logs: list[bytes],
                       submitted: int) -> list[str]:
    """issued: (doc, salt, commitment) per credential; tokens: the token the
    facility fetched for each; records: the record each token names on the
    member replica; logs: every node's block log bytes."""
    problems = []
    if len(issued) != submitted or len(tokens) != submitted or len(records) != submitted:
        problems.append(f"{len(issued)} issued, {len(tokens)} tokens, {len(records)} records "
                        f"for {submitted} submitted")
    for i, ((doc, salt, _), token, record) in enumerate(zip(issued, tokens, records)):
        want = commitment_of(doc.doc_number, doc.issuing_country, doc.expiry, salt)
        if token is None or record is None or token.salt.value != salt or record.commitment != want:
            problems.append(f"credential {i}: the member's record does not open with its salt and document")
            if len(problems) > 10:
                break
    if any(log != logs[0] for log in logs[1:]):
        problems.append("block logs of the authorities and the member differ")
    on_chain = sum(block_record_counts(logs[0]))
    if on_chain != submitted:
        problems.append(f"{on_chain} records on chain for {submitted} submitted")
    return problems


# --- sim ---------------------------------------------------------------------

_SUMMARY = re.compile(r"submitted: (\d+)\s+included: (\d+)\s+lost: (\d+)\s+duplicated: (\d+)")


def check_sim(rc: int, summary: str, export: str, num_hsa: int, num_bm: int, rounds: int,
              rate: int, max_delay: int) -> list[str]:
    """One `dhp sim run`: everything submitted lands exactly once on every
    node within theta = authorities + maximum delay, and replicas agree."""
    problems = []
    if rc != 0:
        problems.append(f"dhp sim run exited {rc}")
    match = _SUMMARY.search(summary)
    want = rounds * num_hsa * rate
    if match is None:
        return problems + ["no submitted/included line in the summary"]
    submitted, included, lost, duplicated = map(int, match.groups())
    if (submitted, included, lost, duplicated) != (want, want, 0, 0):
        problems.append(f"submitted {submitted} included {included} lost {lost} duplicated {duplicated}, "
                        f"expected {want} submitted and included, none lost or duplicated")
    if "consistency: true" not in summary:
        problems.append("replicas are not consistent")
    theta = num_hsa + max_delay
    nodes = [f"hsa-{i}" for i in range(num_hsa)] + [f"bm-{i}" for i in range(num_bm)]
    lines = export.splitlines()
    if not lines or lines[-1] != "consistency true":
        problems.append("export footer is not `consistency true`")
    delays = {}
    for line in lines[:-1]:
        dhp_id, node, delay = line.split()
        delays[(dhp_id, node)] = int(delay)
    wanted = {(f"dhp-{i}", n) for i in range(want) for n in nodes}
    if set(delays) != wanted:
        problems.append(f"export covers {len(delays)} (credential, node) pairs, expected {len(wanted)}")
    bad = [k for k, d in delays.items() if not 1 <= d <= theta]
    if bad:
        problems.append(f"{len(bad)} inclusion delays outside 1..{theta}, e.g. {bad[0]}")
    return problems
